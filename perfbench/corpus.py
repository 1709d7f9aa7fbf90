#!/usr/bin/env python3
"""Seeded synthetic corpus and metadata cache of any size.

The JSON helpers and statement pools come from scripts/make_fixtures.py,
so a generated corpus looks to the pipeline like the bundled fixture,
only larger. That script and tests/fixtures/ are never written.

Usage:
    python3 perfbench/corpus.py OUT_DIR --papers 1800 --authors 300 --seed 1
    python3 perfbench/corpus.py OUT_DIR --papers 1800 --seed 1      # unique authors

OUT_DIR receives corpus.csv and cache/{works,authors}.jsonl plus
cache/manifest.json. Without --authors every author sits on exactly one
paper (authors are drawn without replacement), so no profile is shared.
"""
from __future__ import annotations

import argparse
import csv
import json
import random
import string
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT / "src"))

import make_fixtures as fx  # noqa: E402
from teamroles.types import CORPUS_YEAR_MAX, CORPUS_YEAR_MIN  # noqa: E402

STATEMENTS = {
    "Leadership": fx.LEADERSHIP_STATEMENTS,
    "Direct Support": fx.DIRECT_STATEMENTS,
    "Indirect Support": fx.INDIRECT_STATEMENTS,
}
TEAM_SIZES = [2, 3, 4, 5, 5, 6, 6, 7, 8]
PAPER_YEARS = (2006, 2019)
UNCLASSIFIABLE_PER_ROW = 1 / 100
assert CORPUS_YEAR_MIN <= PAPER_YEARS[0] and PAPER_YEARS[1] <= CORPUS_YEAR_MAX

# "First Last" gives 625 names; a middle initial extends that to 16,875.
ALL_NAMES = [
    f"{first}{middle} {last}"
    for middle in [""] + [f" {c}." for c in string.ascii_uppercase]
    for first in fx.FIRST_NAMES
    for last in fx.LAST_NAMES
]


def _balanced(values: list, n: int, rng: random.Random) -> list:
    """n draws that use every value equally often, in seeded order.

    Sizes then vary with the seed only in where they fall, so the total
    work of a corpus of given dimensions hardly depends on the seed.
    """
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def make_authors(rng: random.Random, n: int) -> list:
    """n authors with unique names and a 3-15 work history each."""
    if n > len(ALL_NAMES):
        raise ValueError(f"at most {len(ALL_NAMES)} distinct author names, asked for {n}")
    names = rng.sample(ALL_NAMES, n)
    history_sizes = _balanced(list(range(3, 16)), n, rng)
    ref_pool = [f"R{j:04d}" for j in range(1, 401)]
    concept_pool = [f"C{j:02d}" for j in range(1, 41)]
    inst_pool = [f"I{j:02d}" for j in range(1, 13)]
    authors = []
    for i, (name, n_works) in enumerate(zip(names, history_sizes)):
        works = []
        for k in range(n_works):
            team = rng.randint(2, 6)
            works.append(
                {
                    "work_id": f"H{i + 1:05d}{k:02d}",
                    "year": rng.randint(1996, 2012),
                    "team": team,
                    "position": rng.randint(1, team),
                    "is_corresponding": rng.random() < 0.3,
                    "refs": sorted(rng.sample(ref_pool, rng.randint(5, 25))),
                    "concepts": sorted(rng.sample(concept_pool, rng.randint(1, 4))),
                    "citations": rng.randint(0, 150),
                    "institutions": sorted(rng.sample(inst_pool, rng.randint(1, 2))),
                }
            )
        authors.append({"author_id": f"A{i + 1:05d}", "name": name, "works": works})
    return authors


def make_corpus(n_papers: int, n_authors, seed: int):
    """Authors and papers; n_authors=None puts every author on one paper only."""
    rng = random.Random(seed)
    sizes = _balanced(TEAM_SIZES, n_papers, rng)
    unique = n_authors is None
    authors = make_authors(rng, sum(sizes) if unique else n_authors)
    if not unique and n_authors < max(sizes):
        raise ValueError(f"need at least {max(sizes)} authors for the largest team")
    pool = iter(rng.sample(authors, len(authors)))

    papers = []
    for p, team_size in enumerate(sizes):
        team = [next(pool) for _ in range(team_size)] if unique else rng.sample(authors, team_size)
        team_refs = sorted({r for a in team for w in a["works"] for r in w["refs"]})
        refs = set(rng.sample(team_refs, min(len(team_refs), rng.randint(3, 12))))
        n_refs = rng.randint(10, 30)
        while len(refs) < n_refs:
            refs.add(f"R{rng.randint(1, 400):04d}")
        team_concepts = sorted({c for a in team for w in a["works"] for c in w["concepts"]})
        concepts = sorted(
            set(rng.sample(team_concepts, min(len(team_concepts), rng.randint(2, 4))))
            | {f"C{rng.randint(1, 40):02d}"}
        )
        corresponding = rng.randint(1, team_size)
        rows = []
        for pos, author in enumerate(team, start=1):
            role = "Leadership" if pos == 1 else rng.choices(
                ["Leadership", "Direct Support", "Indirect Support"], weights=[15, 45, 40]
            )[0]
            rows.append(
                {
                    "author": author,
                    "position": pos,
                    "is_corresponding": pos == corresponding,
                    "role": role,
                    "statement": rng.choice(STATEMENTS[role]),
                }
            )
        papers.append(
            {
                "paper_id": f"W{1001 + p}",
                "journal": fx.JOURNALS[p * len(fx.JOURNALS) // n_papers],
                "year": rng.randint(*PAPER_YEARS),
                "refs": sorted(refs),
                "concepts": concepts,
                "rows": rows,
            }
        )

    # a fixed share of rows no keyword rule can label, so the dropped-row
    # share does not vary with the seed
    all_rows = [row for paper in papers for row in paper["rows"]]
    for row in rng.sample(all_rows, round(len(all_rows) * UNCLASSIFIABLE_PER_ROW)):
        row["statement"] = rng.choice(fx.UNCLASSIFIABLE_STATEMENTS)
    return authors, papers


def write_corpus(out_dir: Path, authors: list, papers: list) -> None:
    cache_dir = out_dir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "corpus.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["paper_id", "journal", "year", "author_name", "author_position",
             "is_corresponding", "statement", "gold_role"]
        )
        for paper in papers:
            for row in paper["rows"]:
                writer.writerow(
                    [paper["paper_id"], paper["journal"], paper["year"], row["author"]["name"],
                     row["position"], str(row["is_corresponding"]).lower(), row["statement"],
                     row["role"]]
                )
    with open(cache_dir / "works.jsonl", "w", encoding="utf-8") as fh:
        for paper in papers:
            url = f"{fx.BASE_URL}/works/{paper['paper_id']}"
            fh.write(fx.cache_entry(url, fx.focal_work_json(paper)) + "\n")
    with open(cache_dir / "authors.jsonl", "w", encoding="utf-8") as fh:
        for author in authors:
            url = (
                f"{fx.BASE_URL}/works?cursor=*"
                f"&filter=author.id:{author['author_id']}&per-page=200"
            )
            body = {
                "results": [fx.history_work_json(author, w) for w in author["works"]],
                "meta": {"next_cursor": None},
            }
            fh.write(fx.cache_entry(url, body) + "\n")
    with open(cache_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"base_url": fx.BASE_URL, "written_at": fx.FETCHED_AT, "kinds": ["authors", "works"]},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--papers", type=int, required=True)
    parser.add_argument("--authors", type=int, help="author pool size; omit for unique authors")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    authors, papers = make_corpus(args.papers, args.authors, args.seed)
    write_corpus(args.out_dir, authors, papers)
    n_rows = sum(len(p["rows"]) for p in papers)
    print(json.dumps({"rows": n_rows, "papers": len(papers), "authors": len(authors)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
