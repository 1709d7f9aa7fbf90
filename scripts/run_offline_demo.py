#!/usr/bin/env python3
"""Run the full offline pipeline over the bundled fixture corpus.

Usage:
    python3 scripts/run_offline_demo.py [output_dir]

Every stage reads only the fixture metadata cache, so the run is fully
reproducible: executing it twice into the same directory leaves every
artifact byte-identical.
"""
import sys
from pathlib import Path

from teamroles.cli import STAGES, main

ROOT = Path(__file__).resolve().parent.parent


def run(output_dir: str) -> int:
    common = [
        "--output-dir", output_dir,
        "--cache-dir", str(ROOT / "tests" / "fixtures" / "cache"),
        "--offline",
    ]
    corpus = str(ROOT / "tests" / "fixtures" / "corpus.csv")
    for stage in STAGES:
        inputs = ["--input", corpus] if stage == "ingest" else []
        code = main([stage, *inputs, *common])
        if code != 0:
            print(f"stage {stage} failed with exit code {code}", file=sys.stderr)
            return code
    print(f"\nAll stages complete; artifacts in {output_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1] if len(sys.argv) > 1 else "demo-out"))
