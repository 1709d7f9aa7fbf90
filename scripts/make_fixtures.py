#!/usr/bin/env python
"""Regenerate the offline fixture bundle under tests/fixtures/.

Produces a contribution corpus (CSV) plus a metadata cache covering every
author and focal paper, so the whole pipeline runs with --offline. Fully
seeded; rerunning writes identical bytes.
"""
from __future__ import annotations

import csv
import json
import random
from pathlib import Path
from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "tests" / "fixtures"
BASE_URL = "https://api.openalex.org"
FETCHED_AT = "2026-01-01T00:00:00+00:00"

JOURNALS = ["PNAS", "Nature", "Science", "PLoS One"]

FIRST_NAMES = [
    "Alice", "Ben", "Carla", "Daniel", "Elena", "Farid", "Grace", "Hugo", "Ines", "Jonas",
    "Katya", "Liam", "Mei", "Noah", "Olga", "Pavel", "Quinn", "Rosa", "Sven", "Tara",
    "Umar", "Vera", "Wei", "Ximena", "Yusuf",
]
LAST_NAMES = [
    "Almeida", "Berg", "Chen", "Dubois", "Eriksen", "Fischer", "Garcia", "Hansen", "Ito", "Jensen",
    "Kovacs", "Larsen", "Moreau", "Novak", "Okafor", "Petrov", "Quintana", "Rossi", "Sato", "Tanaka",
    "Ueda", "Vasquez", "Weber", "Xu", "Yamada",
]

LEADERSHIP_STATEMENTS = [
    "Designed the study and supervised the experiments.",
    "Conceptualized the project and wrote the manuscript.",
    "Directed the research and interpreted the results.",
    "Coordinated the collaboration and conducted the fieldwork.",
    "Wrote the paper and designed the analysis plan.",
    "Supervised the project and interpreted the findings.",
]
DIRECT_STATEMENTS = [
    "Collected the samples and analyzed the data.",
    "Helped with the experiments and prepared the figures.",
    "Assisted in data collection.",
    "Prepared the reagents and analyzed the measurements.",
    "Analyzed the sequencing data.",
    "Helped to prepare the survey instruments.",
]
INDIRECT_STATEMENTS = [
    "Provided reagents and commented on the manuscript.",
    "Participated in discussions.",
    "Contributed materials and edited the manuscript.",
    "Commented on drafts and discussed the results.",
    "Edited the final text.",
    "Provided technical advice and discussed the approach.",
]
UNCLASSIFIABLE_STATEMENTS = [
    "Performed the spectroscopy measurements.",
    "Ran the microscope sessions.",
]


def make_authors(rng: random.Random):
    names = []
    for first in FIRST_NAMES:
        for last in LAST_NAMES:
            names.append(f"{first} {last}")
    rng.shuffle(names)

    authors = []
    for i in range(50):
        author_id = f"A{i + 1:03d}"
        n_works = rng.randint(3, 15)
        works = []
        for k in range(n_works):
            year = rng.randint(1996, 2012)
            team = rng.randint(2, 6)
            position = rng.randint(1, team)
            works.append(
                {
                    "work_id": f"H{i + 1:03d}{k:02d}",
                    "year": year,
                    "team": team,
                    "position": position,
                    "is_corresponding": rng.random() < 0.3,
                    "refs": sorted(rng.sample([f"R{j:04d}" for j in range(1, 401)], rng.randint(5, 25))),
                    "concepts": sorted(rng.sample([f"C{j:02d}" for j in range(1, 41)], rng.randint(1, 4))),
                    "citations": rng.randint(0, 150),
                    "institutions": sorted(
                        rng.sample([f"I{j:02d}" for j in range(1, 13)], rng.randint(1, 2))
                    ),
                }
            )
        authors.append({"author_id": author_id, "name": names[i], "works": works})
    return authors


def history_work_json(author, work):
    """OpenAlex-shaped work object with the author at their recorded position."""
    team = work["team"]
    authorships = []
    for pos in range(1, team + 1):
        if pos == work["position"]:
            authorships.append(
                {
                    "author": {
                        "id": f"{BASE_URL.replace('api.', '')}/{author['author_id']}",
                        "display_name": author["name"],
                    },
                    "author_position": "first" if pos == 1 else "middle",
                    "is_corresponding": work["is_corresponding"],
                    "institutions": [{"id": f"https://openalex.org/{i}"} for i in work["institutions"]],
                }
            )
        else:
            authorships.append(
                {
                    "author": {
                        "id": f"https://openalex.org/AX{work['work_id']}{pos}",
                        "display_name": f"Filler {work['work_id']}{pos}",
                    },
                    "author_position": "first" if pos == 1 else "middle",
                    "is_corresponding": False,
                    "institutions": [],
                }
            )
    return {
        "id": f"https://openalex.org/{work['work_id']}",
        "publication_year": work["year"],
        "cited_by_count": work["citations"],
        "referenced_works": [f"https://openalex.org/{r}" for r in work["refs"]],
        "concepts": [{"id": f"https://openalex.org/{c}"} for c in work["concepts"]],
        "authorships": authorships,
    }


def make_papers(rng: random.Random, authors):
    papers = []
    unclassifiable_budget = 3
    for p in range(60):
        journal = JOURNALS[p // 15]
        team_size = rng.choice([2, 3, 4, 5, 5, 6, 6, 7, 8])
        team = rng.sample(authors, team_size)
        year = rng.randint(2006, 2019)
        corresponding_pos = rng.randint(1, team_size)

        # references partially drawn from the team's own histories
        team_refs = sorted({r for a in team for w in a["works"] for r in w["refs"]})
        n_refs = rng.randint(10, 30)
        n_own = min(len(team_refs), rng.randint(3, 12))
        refs = set(rng.sample(team_refs, n_own))
        while len(refs) < n_refs:
            refs.add(f"R{rng.randint(1, 400):04d}")
        team_concepts = sorted({c for a in team for w in a["works"] for c in w["concepts"]})
        concepts = sorted(
            set(rng.sample(team_concepts, min(len(team_concepts), rng.randint(2, 4))))
            | {f"C{rng.randint(1, 40):02d}"}
        )

        rows = []
        for pos, author in enumerate(team, start=1):
            if pos == 1:
                role = "Leadership"
            else:
                role = rng.choices(
                    ["Leadership", "Direct Support", "Indirect Support"], weights=[15, 45, 40]
                )[0]
            if unclassifiable_budget > 0 and rng.random() < 0.012:
                statement = rng.choice(UNCLASSIFIABLE_STATEMENTS)
                unclassifiable_budget -= 1
            elif role == "Leadership":
                statement = rng.choice(LEADERSHIP_STATEMENTS)
            elif role == "Direct Support":
                statement = rng.choice(DIRECT_STATEMENTS)
            else:
                statement = rng.choice(INDIRECT_STATEMENTS)
            rows.append(
                {
                    "author": author,
                    "position": pos,
                    "is_corresponding": pos == corresponding_pos,
                    "role": role,
                    "statement": statement,
                }
            )
        papers.append(
            {
                "paper_id": f"W{1001 + p}",
                "journal": journal,
                "year": year,
                "refs": sorted(refs),
                "concepts": concepts,
                "rows": rows,
            }
        )
    return papers


def focal_work_json(paper):
    authorships = []
    for row in paper["rows"]:
        authorships.append(
            {
                "author": {
                    "id": f"https://openalex.org/{row['author']['author_id']}",
                    "display_name": row["author"]["name"],
                },
                "author_position": "first" if row["position"] == 1 else "middle",
                "is_corresponding": row["is_corresponding"],
                "institutions": [],
            }
        )
    return {
        "id": f"https://openalex.org/{paper['paper_id']}",
        "publication_year": paper["year"],
        "cited_by_count": 0,
        "referenced_works": [f"https://openalex.org/{r}" for r in paper["refs"]],
        "concepts": [{"id": f"https://openalex.org/{c}"} for c in paper["concepts"]],
        "authorships": authorships,
    }


def normalize_url(url):
    """The cache key of a request URL: query parameters sorted and encoded,
    mailto dropped, as the client builds its keys."""
    parts = urlsplit(url)
    params = [(k, v) for k, v in parse_qsl(parts.query) if k != "mailto"]
    return urlunsplit((parts.scheme, parts.netloc, parts.path, urlencode(sorted(params)), ""))


def cache_entry(url, body):
    return json.dumps(
        {"body": json.dumps(body), "fetched_at": FETCHED_AT, "request_url": normalize_url(url)},
        sort_keys=True,
    )


def main():
    rng = random.Random(20240742)
    authors = make_authors(rng)
    papers = make_papers(rng, authors)

    cache_dir = FIXTURE_DIR / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)

    with open(FIXTURE_DIR / "corpus.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["paper_id", "journal", "year", "author_name", "author_position",
             "is_corresponding", "statement", "gold_role"]
        )
        for paper in papers:
            for row in paper["rows"]:
                writer.writerow(
                    [
                        paper["paper_id"],
                        paper["journal"],
                        paper["year"],
                        row["author"]["name"],
                        row["position"],
                        str(row["is_corresponding"]).lower(),
                        row["statement"],
                        row["role"],
                    ]
                )

    with open(cache_dir / "works.jsonl", "w", encoding="utf-8") as fh:
        for paper in papers:
            url = f"{BASE_URL}/works/{paper['paper_id']}"
            fh.write(cache_entry(url, focal_work_json(paper)) + "\n")

    with open(cache_dir / "authors.jsonl", "w", encoding="utf-8") as fh:
        for author in authors:
            results = [history_work_json(author, w) for w in author["works"]]
            # first author gets a two-page listing to exercise cursor paging
            if author["author_id"] == "A001":
                pages = [(results[: len(results) // 2], "page2"), (results[len(results) // 2 :], None)]
                cursors = ["*", "page2"]
            else:
                pages = [(results, None)]
                cursors = ["*"]
            for (page_results, next_cursor), cursor in zip(pages, cursors):
                url = (
                    f"{BASE_URL}/works?cursor={cursor}"
                    f"&filter=author.id:{author['author_id']}&per-page=200"
                )
                body = {"results": page_results, "meta": {"next_cursor": next_cursor}}
                fh.write(cache_entry(url, body) + "\n")

    n_rows = sum(len(p["rows"]) for p in papers)
    print(f"fixtures: {len(authors)} authors, {len(papers)} papers, {n_rows} corpus rows")


if __name__ == "__main__":
    main()
