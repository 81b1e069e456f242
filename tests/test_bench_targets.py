"""The benchmark's tracer patches lisrc functions by name.

`bench/spans.py` looks each (module, attribute) of `TARGETS` up in the
lisrc module namespaces, plus `ReconfSequence.sets`; a rename in lisrc
would otherwise only show up as an AttributeError under `--trace 1`.
The file is loaded by path and only read.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = load_spans().TARGETS
    assert targets
    missing = [
        (mod, attr)
        for mod, attr, _ in targets
        if not callable(getattr(importlib.import_module(f"lisrc.{mod}"), attr, None))
    ]
    assert missing == []
    reconfig = importlib.import_module("lisrc.reconfig")
    # The tracer wraps `sets` as a generator: a span from its first item
    # to its exhaustion.
    assert inspect.isgeneratorfunction(reconfig.ReconfSequence.sets)
