"""The traced benchmark run (`bench/run.py --trace 1`) wraps the plam
functions named in `bench/spans.py` LAYERS; a renamed function would
drop its layer from the trace without an error."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spans = importlib.import_module("spans")
    for name, owner, attr, _ in spans.LAYERS:
        if isinstance(owner, type):
            found = vars(owner).get(attr)
        else:
            found = getattr(owner, attr, None)
        assert callable(found), f"{name}: {owner.__name__}.{attr} is gone"
