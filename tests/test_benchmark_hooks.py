"""The benchmark's tracer still finds every library function it wraps.

`perfbench/run.py --trace 1` replaces library functions on each object
through which the pipeline looks them up (`instrument`). A function that is
renamed, deleted, or bound to a different object on one of its owners
breaks that mode, and the benchmark's own tests are not part of this suite.
"""
import importlib.util
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def load_run_and_tracer(monkeypatch):
    # run.py sets OPENBLAS_NUM_THREADS when imported, to this value if it is unset;
    # setenv records the value before the test, or its absence, and puts it back after
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    return load("run", monkeypatch), load("spans", monkeypatch).Tracer()


def test_instrument_wraps_every_name_and_close_restores_it(monkeypatch):
    run, tracer = load_run_and_tracer(monkeypatch)
    try:
        run.instrument(tracer)  # raises if a name is missing or differs between its owners
        patches = list(tracer._patches)
        assert patches
        assert all(getattr(owner, attr) is not original for owner, attr, original in patches)
    finally:
        tracer.close()
    assert all(getattr(owner, attr) is original for owner, attr, original in patches)


def test_cache_entries_counts_each_cached_url_once(monkeypatch):
    """openalex.cache_entries, which the tracer reads off the cache's index, is the
    number of distinct (kind, request URL) pairs in the cache files."""
    from teamroles import openalex

    cache_dir = ROOT / "tests" / "fixtures" / "cache"
    run, tracer = load_run_and_tracer(monkeypatch)
    try:
        run.instrument(tracer)
        openalex.JsonLinesCache(cache_dir)
    finally:
        tracer.close()
    urls = {
        (path.stem, json.loads(line)["request_url"])
        for path in cache_dir.glob("*.jsonl")
        for line in path.read_text(encoding="utf-8").splitlines()
    }
    assert len(urls) == 111
    assert tracer.counters["openalex.cache_entries"] == len(urls)


def test_the_benchmark_times_every_stage_the_cli_offers(monkeypatch):
    """The fixture workload runs ALL_STAGES: a stage added to STAGES and not there
    would go untimed."""
    from teamroles.cli import STAGES

    run, _ = load_run_and_tracer(monkeypatch)
    assert run.ALL_STAGES == tuple(STAGES)
