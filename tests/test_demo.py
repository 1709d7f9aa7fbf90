"""The offline demo's artifacts against their recorded sha256.

scripts/run_offline_demo.py runs every stage on the bundled fixture. Its
artifacts stay byte-identical unless a change sets out to change an
output; such a change updates fixtures/demo_sha256.json and says why.
config_used.json is left out: it holds the run's own cache path.
"""
import hashlib
import importlib.util
import json

import numpy as np
import pytest

from conftest import FIXTURE_DIR

RECORDED = json.loads((FIXTURE_DIR / "demo_sha256.json").read_text())
DEMO = FIXTURE_DIR.parent.parent / "scripts" / "run_offline_demo.py"


def numpy_build() -> str:
    """The numpy version and the BLAS it was built with, as the table records them."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__} with {blas.get('name')} {blas.get('version')}"


@pytest.fixture(scope="module")
def demo_sha256(tmp_path_factory):
    """The sha256 of every file the demo writes, by its path in the output dir."""
    spec = importlib.util.spec_from_file_location("run_offline_demo", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    out = tmp_path_factory.mktemp("demo")
    assert demo.run(str(out)) == 0
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
