"""The package's public surface."""

import plam


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from plam import *", namespace)
    assert set(plam.__all__) <= set(namespace)
