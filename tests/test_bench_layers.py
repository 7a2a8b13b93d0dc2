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


def test_the_tracer_records_the_term_core_layers(monkeypatch):
    # free names are built in the constructors and keys on first use, and
    # the walks reach step and substitute through module attributes; a
    # layer that records no span would read 0 in the trace, not fail.
    # The divergence closures step the frontier states with a graph of
    # their own, and `smallstep.closure_steps` counts those step spans
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = importlib.import_module("spans")
    from plam import reduction, smallstep, syntax

    # W W steps to W W (+) W: a frontier state at every fuel
    term = syntax.parse("(\\x. x x) (\\y. y y (+) y)")
    originals = (
        smallstep.approximate,
        syntax._alpha_key,
        syntax._free_names,
        syntax.substitute,
        reduction.step,
    )
    for strategy in reduction.STRATEGIES:
        tracer = spans.Tracer()
        tracer.install()
        try:
            smallstep.approximate(term, strategy, 5).divergence()
        finally:
            tracer.uninstall()
        recorded = {tracer.names[i] for i in tracer.name}
        assert {
            "syntax.alpha_key",
            "syntax.free_names",
            "syntax.substitute",
            "reduction.step",
            "smallstep.closure",
        } <= recorded, strategy
        metrics = tracer.per_layer({})
        assert metrics["smallstep.closure_steps"][0] > 0, strategy
    assert (
        smallstep.approximate,
        syntax._alpha_key,
        syntax._free_names,
        syntax.substitute,
        reduction.step,
    ) == originals
