"""The benchmark's tracer still finds every library function it wraps.

`perfbench/run.py --trace 1` replaces library functions on each object
through which the pipeline looks them up (`instrument`). A function that is
renamed, deleted, or bound to a different object on one of its owners
breaks that mode, and the benchmark's own tests are not part of this suite.
"""
import importlib.util
import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_every_name_and_close_restores_it(monkeypatch):
    # run.py sets OPENBLAS_NUM_THREADS when imported, to this value if it is unset;
    # setenv records the value before the test, or its absence, and puts it back after
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    run = load("run", monkeypatch)
    tracer = load("spans", monkeypatch).Tracer()
    try:
        run.instrument(tracer)  # raises if a name is missing or differs between its owners
        patches = list(tracer._patches)
        assert patches
        assert all(getattr(owner, attr) is not original for owner, attr, original in patches)
    finally:
        tracer.close()
    assert all(getattr(owner, attr) is original for owner, attr, original in patches)
