"""The CLI surface: `teamroles --help` and every stage's --help, against the
texts recorded in fixtures/help.txt at 80 columns.

A change to a flag, a stage or a help string shows here; such a change
updates the fixture and says why. argparse's layout differs between
Python versions, so the texts are compared only on the one they were
recorded with, as test_demo.py compares numpy's bytes only on their build.
Regenerate with `PYTHONPATH=src python3 tests/test_help.py > tests/fixtures/help.txt`.
"""
import contextlib
import io
import os
import platform
import sys

import pytest

from conftest import FIXTURE_DIR
from teamroles.cli import STAGES, main

RECORDED_WITH = "3.11"


def help_texts() -> str:
    """Every help text under COLUMNS=80, each after a `$ teamroles ... --help` line."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        texts = []
        for argv in ([], *([stage] for stage in STAGES)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
                main([*argv, "--help"])
            texts.append(f"$ teamroles {' '.join([*argv, '--help'])}\n{out.getvalue()}")
        return "\n".join(texts)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def test_help_texts_are_the_recorded_ones():
    running = ".".join(platform.python_version_tuple()[:2])
    if running != RECORDED_WITH:
        pytest.skip(f"recorded with Python {RECORDED_WITH}, running {platform.python_version()}")
    assert help_texts() == (FIXTURE_DIR / "help.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(help_texts())
