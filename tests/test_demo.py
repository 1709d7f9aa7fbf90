"""The offline demo's artifacts against their recorded sha256, and its
stdout against the recorded lines.

scripts/run_offline_demo.py runs every stage on the bundled fixture. Its
artifacts stay byte-identical unless a change sets out to change an
output; such a change updates fixtures/demo_sha256.json and says why.
config_used.json is left out: it holds the run's own cache path. Each
stage's stdout line stays byte-identical too (the benchmark parses them);
fixtures/demo_stdout.txt holds them with the output dir as <output_dir>.
"""
import contextlib
import hashlib
import importlib.util
import io
import json

import numpy as np
import pytest

from conftest import FIXTURE_DIR

RECORDED = json.loads((FIXTURE_DIR / "demo_sha256.json").read_text())
RECORDED_STDOUT = (FIXTURE_DIR / "demo_stdout.txt").read_text(encoding="utf-8")
# the stages whose lines print numbers that numpy computes
NUMPY_LINES = ("train:", "evaluate:", "explain:")
DEMO = FIXTURE_DIR.parent.parent / "scripts" / "run_offline_demo.py"


def numpy_build() -> str:
    """The numpy version and the BLAS it was built with, as the table records them."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__} with {blas.get('name')} {blas.get('version')}"


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    """The demo's output dir and what it printed, with that dir as <output_dir>."""
    spec = importlib.util.spec_from_file_location("run_offline_demo", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    out = tmp_path_factory.mktemp("demo")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert demo.run(str(out)) == 0
    return out, printed.getvalue().replace(str(out), "<output_dir>")


@pytest.fixture(scope="module")
def demo_sha256(demo_run):
    """The sha256 of every file the demo writes, by its path in the output dir."""
    out, _ = demo_run
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*") if path.is_file()
    }


def test_demo_writes_the_recorded_files_and_their_bytes(demo_sha256):
    recorded = {**RECORDED["files"], **RECORDED["numpy_files"], "config_used.json": None}
    assert sorted(demo_sha256) == sorted(recorded)
    assert {name: demo_sha256[name] for name in RECORDED["files"]} == RECORDED["files"]


def test_demo_files_written_with_numpy_keep_their_bytes(demo_sha256):
    if numpy_build() != RECORDED["numpy_build"]:
        pytest.skip(f"recorded with {RECORDED['numpy_build']}, running {numpy_build()}")
    assert {name: demo_sha256[name] for name in RECORDED["numpy_files"]} == RECORDED["numpy_files"]


def test_demo_prints_the_recorded_lines(demo_run):
    printed, recorded = demo_run[1].splitlines(), RECORDED_STDOUT.splitlines()
    if numpy_build() != RECORDED["numpy_build"]:
        printed, recorded = ([line for line in lines if not line.startswith(NUMPY_LINES)]
                             for lines in (printed, recorded))
    assert printed == recorded
