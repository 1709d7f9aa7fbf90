"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402

import teamroles.cli as cli  # noqa: E402
from teamroles import explain, mlp, openalex  # noqa: E402


def _generate(out_dir: Path, papers: int, authors, seed: int) -> dict:
    corpus.write_corpus(out_dir, *corpus.make_corpus(papers, authors, seed))
    return {p.relative_to(out_dir): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}


def test_generator_bytes_follow_the_seed(tmp_path):
    for authors in (20, None):
        first = _generate(tmp_path / f"a-{authors}", 12, authors, seed=3)
        again = _generate(tmp_path / f"b-{authors}", 12, authors, seed=3)
        other = _generate(tmp_path / f"c-{authors}", 12, authors, seed=4)
        assert first == again
        assert first[Path("corpus.csv")] != other[Path("corpus.csv")]


def test_unique_workload_puts_each_author_on_one_paper():
    authors, papers = corpus.make_corpus(40, None, seed=5)
    names = [row["author"]["name"] for paper in papers for row in paper["rows"]]
    assert len(names) == len(set(names)) == len(authors)
    assert all(corpus.PAPER_YEARS[0] <= p["year"] <= corpus.PAPER_YEARS[1] for p in papers)


def test_traced_run_writes_the_same_artifacts_as_an_untraced_run(tmp_path):
    counts = _generate(tmp_path / "inputs", 12, 20, seed=7)
    rows = counts[Path("corpus.csv")].decode().count("\n") - 1
    inputs = bench.Inputs(tmp_path / "inputs" / "corpus.csv", tmp_path / "inputs" / "cache",
                          rows, 12, 20)
    workload = bench.Workload(bench.ALL_STAGES, papers=12, authors=20)
    originals = (mlp.forward, explain.forward, openalex.parse_work)

    outputs = {}
    for traced in (False, True):
        out_dir = tmp_path / f"out-{traced}"
        tracer = Tracer() if traced else None
        if tracer:
            bench.instrument(tracer)
        try:
            rep, stdout = bench.run_pipeline(cli, workload, inputs, out_dir, tracer)
        finally:
            if tracer:
                tracer.close()
        bench.check_rep(rep, workload, inputs, out_dir, stdout)
        assert rep.failed == {}
        outputs[traced] = {
            p.relative_to(out_dir): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and p.name != "config_used.json"  # echoes the output dir
        }
    assert outputs[True] == outputs[False]
    assert (mlp.forward, explain.forward, openalex.parse_work) == originals

    layers = bench.layer_metrics(tracer, rep)
    assert layers["explain.rows"] > 0
    assert layers["openalex.parse_work_calls"] > layers["openalex.cache_entries"]
    assert layers["mlp.grad_batch_calls"] > 0 and layers["rules.classify_calls"] > 0
    assert layers["cli.featurize_s"] >= layers["cli.featurize_self_s"] >= 0
