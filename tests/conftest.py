import json
from pathlib import Path

import numpy as np
import pytest

from teamroles.dataset import FeatureTable
from teamroles.types import FEATURE_NAMES

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def feature_table(rows) -> FeatureTable:
    """The FeatureTable of (author_id, paper_id, features, label) rows."""
    rows = list(rows)
    X = np.array([row[2] for row in rows], dtype=float).reshape(len(rows), len(FEATURE_NAMES))
    return FeatureTable(tuple(row[0] for row in rows), tuple(row[1] for row in rows), X,
                        tuple(row[3] for row in rows))


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def corpus_csv(fixture_dir) -> Path:
    return fixture_dir / "corpus.csv"


@pytest.fixture(scope="session")
def cache_dir(fixture_dir) -> Path:
    return fixture_dir / "cache"


@pytest.fixture(scope="session")
def fixture_cache_raw(cache_dir):
    """Raw cache bodies, parsed directly from the JSON-lines files.

    Used by oracle tests that must not share parsing code with the client.
    """
    out = {}
    for kind in ("works", "authors"):
        table = {}
        with open(cache_dir / f"{kind}.jsonl", encoding="utf-8") as fh:
            for line in fh:
                entry = json.loads(line)
                table[entry["request_url"]] = json.loads(entry["body"])
        out[kind] = table
    return out
