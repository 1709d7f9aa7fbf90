#!/usr/bin/env python3
"""Pipeline benchmark: one workload's CLI stage sequence, run in-process.

Usage:
    python3 perfbench/run.py --workload fixture --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --out perfbench/baseline.json

Each repetition runs the workload's stages once each, one after another,
through `teamroles.cli.main` into a fresh directory under `.perfbench/`:
one client in a closed loop, one process, no threads beyond numpy's BLAS
pool. The first repetition warms up (imports, page cache, allocator) and
is not timed; then repetitions start while one more is expected to end
within `--seconds`. Every repetition's outputs are checked; a stage run
that exits non-zero or fails a check counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: each stage's
time is its median over the timed repetitions and pipeline_s is the sum
of those medians. --trace 1 alternates untraced and traced repetitions
and reports the per-layer metrics: stage-group timings of the untraced
ones, and from the traced ones the spans taken around the calls into
each library module (see spans.py); the traced minus the untraced median
pipeline time is the tracing overhead. The last repetition's spans are
written to `.perfbench/`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it, starting
with "record: ", carries the environment, input sizes, sample counts and
the sha256 of the deterministic artifacts, which must match between runs
of one workload and seed.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# With two OpenBLAS threads the explain stage is bimodal on a 2-CPU box:
# about 5.5 s or 13 s per fixture repetition, switching within a process,
# too unsteady to compare two commits. One thread is used unless the
# caller sets OPENBLAS_NUM_THREADS; the count in force is printed with
# every run (env: blas_threads).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
FIXTURE = ROOT / "tests" / "fixtures"

ALL_STAGES = (
    "ingest", "label-rule", "label-llm", "featurize", "split",
    "train", "evaluate", "explain", "lratio", "report",
)
SCALED_STAGES = ("ingest", "label-rule", "label-llm", "featurize", "split", "train", "evaluate", "lratio")
# stage groups, reported per layer; together they cover the pipeline
GROUPS = {
    "prep_s": ("ingest", "label-rule", "label-llm"),
    "featurize_s": ("featurize",),
    "model_s": ("split", "train", "evaluate"),
    "analysis_s": ("explain", "lratio", "report"),
}
# artifacts that must be byte-identical across repetitions, by producing stage
DETERMINISTIC = {"features.csv": "featurize", "model.json": "train", "attributions.csv": "explain"}
SETUP_SAMPLES = 10


@dataclass(frozen=True)
class Workload:
    stages: tuple
    papers: Optional[int] = None  # None: the bundled fixture corpus
    authors: Optional[int] = None  # None with papers set: one paper per author


# Why each workload exists is recorded in BENCHMARK.json. The fixture's
# inputs are bundled, so --seed changes only the generated corpora; the
# pipeline's own seed stays the CLI default on every workload.
# scaled-unique is not in BENCHMARK.json: three workloads leave too little
# of the benchmark's time limit for runs long enough to be steady on a
# shared 2-CPU host. It stays runnable by name as the "no reuse" side of
# reuse-based changes.
WORKLOADS = {
    "fixture": Workload(ALL_STAGES),
    "scaled-reuse": Workload(SCALED_STAGES, papers=1800, authors=300),
    "scaled-unique": Workload(SCALED_STAGES, papers=1800),
}


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    cache: Path
    rows: int
    papers: int
    authors: int


@dataclass
class Rep:
    traced: bool
    stage_s: dict = field(default_factory=dict)  # stage -> seconds
    failed: dict = field(default_factory=dict)  # stage -> reasons
    hashes: dict = field(default_factory=dict)
    macro_f1: float = math.nan
    rows_dropped_share: float = math.nan
    shap_residual_max: float = math.nan
    layers: dict = field(default_factory=dict)

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout() -> None:
    """The benchmark needs the library, the fixture bundle and its generator."""
    for path in (ROOT / "src" / "teamroles" / "cli.py", FIXTURE / "corpus.csv",
                 FIXTURE / "cache", ROOT / "scripts" / "make_fixtures.py"):
        if not path.exists():
            fail(f"{path.relative_to(ROOT)} is missing; run from a full checkout")


# --- environment ------------------------------------------------------------

def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# --- inputs and setup -------------------------------------------------------

def prepare_inputs(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    if workload.papers is None:
        with open(FIXTURE / "corpus.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return Inputs(FIXTURE / "corpus.csv", FIXTURE / "cache", len(rows),
                      len({r["paper_id"] for r in rows}), len({r["author_name"] for r in rows}))
    argv = [sys.executable, str(HERE / "corpus.py"), str(work_dir),
            "--papers", str(workload.papers), "--seed", str(seed)]
    if workload.authors is not None:
        argv += ["--authors", str(workload.authors)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    counts = json.loads(done.stdout.strip().splitlines()[-1])
    # written back now, not by the kernel during the timed repetitions
    for path in work_dir.rglob("*"):
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
    return Inputs(work_dir / "corpus.csv", work_dir / "cache",
                  counts["rows"], counts["papers"], counts["authors"])


def measure_setup() -> list:
    """Import time of teamroles.cli in fresh interpreters; the first run only warms."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "t = time.perf_counter(); import teamroles.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(done.stdout.strip()))
    return samples[1:]


# --- one repetition ---------------------------------------------------------

def _lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _csv_rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def run_pipeline(cli, workload: Workload, inputs: Inputs, out_dir: Path, tracer=None) -> tuple:
    """Run every stage once; return (Rep, {stage: captured stdout})."""
    rep = Rep(traced=tracer is not None)
    stdout = {}
    common = ["--output-dir", str(out_dir), "--cache-dir", str(inputs.cache), "--offline"]
    for stage in workload.stages:
        argv = [stage] + (["--input", str(inputs.corpus)] if stage == "ingest" else []) + common
        out, err = io.StringIO(), io.StringIO()
        # a CLI invocation starts with an empty heap; without this, collections
        # of the previous stages' garbage land at random points in this one
        gc.collect()
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            start = time.perf_counter()
            code = cli.main(argv)
            rep.stage_s[stage] = time.perf_counter() - start
        stdout[stage] = out.getvalue()
        if code != 0:
            rep.failed.setdefault(stage, []).append(f"exit code {code}: {err.getvalue()[-300:]}")
            break
    return rep, stdout


def check_rep(rep: Rep, workload: Workload, inputs: Inputs, out_dir: Path, stdout: dict) -> None:
    """Fill in rep's quality figures and record every failed check under its stage."""
    def expect(stage, ok, message):
        if stage in workload.stages and not ok:
            rep.failed.setdefault(stage, []).append(message)

    try:
        records = _lines(out_dir / "corpus.jsonl")
        rejects = _lines(out_dir / "rejects.jsonl")
        expect("ingest", inputs.rows == records + rejects,
               f"{inputs.rows} input rows != {records} records + {rejects} rejects")
        for stage, name in (("label-rule", "labels_rule.jsonl"), ("label-llm", "labels_llm.jsonl")):
            expect(stage, _lines(out_dir / name) == records, f"{name} does not cover every record")
        with open(out_dir / "labels_rule.jsonl", encoding="utf-8") as fh:
            labeled = sum(1 for line in fh if line.strip() and json.loads(line)["label"])
        features = len(_csv_rows(out_dir / "features.csv"))
        reported = re.search(r"featurize: (\d+) examples, (\d+) skipped", stdout.get("featurize", ""))
        expect("featurize", reported is not None and records == features + int(reported.group(2)),
               "records != feature rows + reported skips")
        expect("featurize", labeled == features,
               f"{labeled - features} labeled rows not featurized (cache misses or match failures)")
        rep.rows_dropped_share = 1.0 - features / inputs.rows
        test_rows = len(_csv_rows(out_dir / "test.csv"))
        expect("split", len(_csv_rows(out_dir / "train.csv")) + test_rows == features,
               "train + test rows != feature rows")
        with open(out_dir / "metrics.json", encoding="utf-8") as fh:
            rep.macro_f1 = float(json.load(fh)["macro"]["f1"])
        expect("evaluate", 0.0 <= rep.macro_f1 <= 1.0, f"macro F1 {rep.macro_f1} out of range")
        if "explain" in workload.stages:
            residuals = []
            for row in _csv_rows(out_dir / "attributions.csv"):
                phi = sum(float(v) for k, v in row.items() if k.startswith("phi_"))
                residuals.append(abs(phi - (float(row["prediction"]) - float(row["base_value"]))))
            expect("explain", len(residuals) == test_rows and all(map(math.isfinite, residuals)),
                   "attributions are not one finite row per test example")
            rep.shap_residual_max = max(residuals, default=math.nan)
        for name, stage in DETERMINISTIC.items():
            if stage in workload.stages:
                rep.hashes[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    except (OSError, ValueError, KeyError) as exc:
        # a missing or malformed artifact; the stage that failed already says which
        rep.failed.setdefault("checks", []).append(f"{type(exc).__name__}: {exc}")


# --- tracing ----------------------------------------------------------------

def instrument(tracer) -> None:
    """Wrap the public functions each stage reaches, where their callers look them up."""
    from teamroles import dataset, explain, features, ingest, llm, mlp, openalex, rules

    c = tracer.counters
    profiles = set()

    def count(key, n=1):
        c[key] += n

    def under_explain(n):
        if tracer.open["explain.gradient_shap"]:
            count("explain.model_evals", n)

    def on_profile(args, kwargs, result, exc):
        profiles.add(args[1] if len(args) > 1 else kwargs["author_id"])
        c["openalex.profile_distinct"] = len(profiles)

    def on_train(args, kwargs, result, exc):
        config = args[1] if len(args) > 1 else kwargs.get("config", mlp.TrainConfig())
        count("mlp.train_steps", config.epochs * math.ceil(len(args[0]) / config.batch_size))

    def on_grad(args, kwargs, result, exc):
        count("mlp.grad_batch_rows", len(args[1]))
        under_explain(len(args[1]))

    def on_forward(args, kwargs, result, exc):
        count("mlp.forward_calls")
        under_explain(1)

    wrap = tracer.wrap
    wrap([ingest], "parse_corpus", "ingest.parse_corpus",
         after=lambda a, k, r, e: r is not None and count("ingest.rejects", len(r.rejects)))
    wrap([ingest], "read_corpus", "ingest.read_corpus")
    wrap([rules, llm], "classify_statement", "rules.classify",
         after=lambda a, k, r, e: isinstance(e, rules.NoKeywordMatch) and count("rules.no_match"))
    wrap([llm], "classify_batch", "llm.classify_batch",
         after=lambda a, k, r, e: r is not None and count("llm.failed", sum(not o.ok for o in r)))
    wrap([llm.MockBackend], "complete", "llm.backend", span=False,
         after=lambda a, k, r, e: count("llm.backend_calls"))
    wrap([openalex.JsonLinesCache], "__init__", "openalex.cache_load",
         after=lambda a, k, r, e: count("openalex.cache_entries",
                                        sum(len(t) for t in a[0]._entries.values())))
    wrap([openalex.JsonLinesCache], "get", "openalex.cache_get", span=False,
         after=lambda a, k, r, e: r is None and count("openalex.cache_misses"))
    wrap([openalex.OpenAlexClient], "fetch_work", "openalex.fetch_work")
    wrap([openalex.OpenAlexClient], "fetch_author_profile", "openalex.fetch_profile",
         after=on_profile)
    wrap([openalex.OpenAlexClient], "resolve_author", "openalex.resolve")
    wrap([openalex], "parse_work", "openalex.parse_work")
    wrap([features], "extract_features", "features.extract")
    wrap([dataset], "read_examples", "dataset.read_examples")
    wrap([dataset], "stratified_split", "dataset.split")
    wrap([mlp], "train", "mlp.train", after=on_train)
    wrap([mlp, explain], "input_gradient_batch", "mlp.grad_batch", after=on_grad, cpu=True)
    wrap([mlp, explain], "forward", "mlp.forward", span=False, after=on_forward)
    wrap([explain], "gradient_shap", "explain.gradient_shap")


def layer_metrics(tracer, rep: Rep) -> dict:
    totals = tracer.totals()
    children = tracer.child_seconds()
    c = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for stage in ALL_STAGES:
        m[f"cli.{stage}_s"] = m[f"cli.{stage}_self_s"] = 0.0
    for index, (name, start, end, parent) in enumerate(tracer.spans):
        if parent < 0 and name.startswith("cli."):
            m[f"{name}_s"] = end - start
            m[f"{name}_self_s"] = end - start - children.get(index, 0.0)
    rows = calls("explain.gradient_shap")
    m.update({
        "ingest.parse_corpus_s": secs("ingest.parse_corpus"),
        "ingest.rejects": c["ingest.rejects"],
        "ingest.read_corpus_calls": calls("ingest.read_corpus"),
        "ingest.read_corpus_s": secs("ingest.read_corpus"),
        "rules.classify_calls": calls("rules.classify"),
        "rules.classify_s": secs("rules.classify"),
        "rules.no_match": c["rules.no_match"],
        "llm.classify_batch_s": secs("llm.classify_batch"),
        "llm.backend_calls": c["llm.backend_calls"],
        "llm.failed": c["llm.failed"],
        "openalex.cache_load_s": secs("openalex.cache_load"),
        "openalex.cache_entries": c["openalex.cache_entries"],
        "openalex.cache_misses": c["openalex.cache_misses"],
        "openalex.fetch_work_calls": calls("openalex.fetch_work"),
        "openalex.fetch_work_s": secs("openalex.fetch_work"),
        "openalex.fetch_profile_calls": calls("openalex.fetch_profile"),
        "openalex.fetch_profile_s": secs("openalex.fetch_profile"),
        "openalex.resolve_s": secs("openalex.resolve"),
        "openalex.parse_work_calls": calls("openalex.parse_work"),
        "openalex.parse_work_s": secs("openalex.parse_work"),
        "openalex.profile_distinct_ratio": ratio(c["openalex.profile_distinct"],
                                                 calls("openalex.fetch_profile")),
        "features.extract_calls": calls("features.extract"),
        "features.extract_s": secs("features.extract"),
        "dataset.read_examples_calls": calls("dataset.read_examples"),
        "dataset.read_examples_s": secs("dataset.read_examples"),
        "dataset.split_s": secs("dataset.split"),
        "mlp.train_s": secs("mlp.train"),
        "mlp.train_steps": c["mlp.train_steps"],
        "mlp.grad_batch_calls": calls("mlp.grad_batch"),
        "mlp.grad_batch_rows": c["mlp.grad_batch_rows"],
        "mlp.grad_batch_s": secs("mlp.grad_batch"),
        "mlp.grad_batch_cpu_per_wall": ratio(c["mlp.grad_batch.cpu_s"], secs("mlp.grad_batch")),
        "mlp.forward_calls": c["mlp.forward_calls"],
        "explain.rows": rows,
        "explain.gradient_shap_s": secs("explain.gradient_shap"),
        "explain.model_evals_per_row": ratio(c["explain.model_evals"], rows),
        "explain.residual_max": 0.0 if math.isnan(rep.shap_residual_max) else rep.shap_residual_max,
    })
    return m


# --- a whole run ------------------------------------------------------------

def median_of(reps, key) -> float:
    return statistics.median(key(r) for r in reps)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    check_checkout()
    sys.path.insert(0, str(ROOT / "src"))
    import teamroles.cli as cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "teamroles":
        fail(f"imported {cli.__file__}, not this checkout's src/teamroles")
    from spans import Tracer

    workload = WORKLOADS[name]
    env = environment()
    print(f"perfbench: workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    setup = [] if trace else measure_setup()

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        inputs = prepare_inputs(workload, seed, run_dir / "inputs")
        print(f"inputs: rows={inputs.rows} papers={inputs.papers} authors={inputs.authors}")
        # rep 0 warms up; then at least one timed untraced rep and, with
        # --trace 1, one traced rep. No rep starts that is expected to end
        # after the window, so a run's length hardly depends on the host.
        reps, walls, last_tracer = [], [], None
        start = None
        while True:
            if len(reps) == 1:
                start = time.perf_counter()
            if len(reps) >= (3 if trace else 2):
                expected = statistics.median(walls[1:])
                if time.perf_counter() - start + expected > seconds:
                    break
            rep_start = time.perf_counter()
            traced = trace and len(reps) % 2 == 1
            tracer = Tracer() if traced else None
            out_dir = run_dir / f"rep{len(reps)}"
            out_dir.mkdir()
            if tracer:
                instrument(tracer)
            try:
                rep, stdout = run_pipeline(cli, workload, inputs, out_dir, tracer)
            finally:
                if tracer:
                    tracer.close()
            check_rep(rep, workload, inputs, out_dir, stdout)
            if reps:
                for artifact, digest in rep.hashes.items():
                    if digest != reps[0].hashes.get(artifact):
                        rep.failed.setdefault(DETERMINISTIC[artifact], []).append(
                            f"{artifact} differs from repetition 0")
            if tracer:
                rep.layers = layer_metrics(tracer, rep)
                last_tracer = tracer
            shutil.rmtree(out_dir)
            reps.append(rep)
            walls.append(time.perf_counter() - rep_start)
            kind = "warm-up" if len(reps) == 1 else "traced" if traced else "timed"
            print(f"rep {len(reps) - 1} {kind}: pipeline {rep.pipeline_s:.3f} s; " +
                  ", ".join(f"{s} {t:.3f}" for s, t in rep.stage_s.items()))
        if last_tracer is not None:
            last_tracer.write(WORK / f"trace-{name}-{seed}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(r.stage_s) for r in reps)
    failed = sum(len(r.failed) for r in reps)
    for index, rep in enumerate(reps):
        for stage, reasons in rep.failed.items():
            print(f"FAILED rep {index} {stage}: {'; '.join(reasons)}")

    plain = [r for r in reps[1:] if not r.traced]
    stage_median = {
        stage: statistics.median(r.stage_s[stage] for r in plain if stage in r.stage_s)
        for stage in workload.stages
    }
    pipeline = sum(stage_median.values())
    groups = {metric: sum(stage_median.get(stage, 0.0) for stage in stages)
              for metric, stages in GROUPS.items()}
    if trace:
        traced = [r for r in reps if r.traced]
        values = {k: median_of(traced, lambda r, k=k: r.layers[k]) for k in traced[0].layers}
        values.update({f"stages.{metric}": value for metric, value in groups.items()})
        values["trace.overhead_s"] = median_of(traced, lambda r: r.pipeline_s) - pipeline
        values["trace.overhead_share"] = values["trace.overhead_s"] / pipeline
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pipeline_s": pipeline,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "rows_dropped_share": median_of(plain, lambda r: r.rows_dropped_share),
            "macro_f1": median_of(plain, lambda r: r.macro_f1),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    # rows_per_s is pipeline_s over a fixed row count, so only pipeline_s is gated
    extra = {"failed_share": failed / attempted, "rows_per_s": inputs.rows / pipeline}
    if not trace:
        extra.update(groups)
    if "explain" in workload.stages:
        extra["explain_s"] = stage_median["explain"]
        extra["shap_residual_max"] = median_of(plain, lambda r: r.shap_residual_max)
    for metric, entry in metrics.items():
        print(f"{metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    for metric, value in extra.items():
        print(f"{metric:<34} {value:>14.6g}")
    samples = {"setup": len(setup), "warm_up": 1, "untraced": len(plain),
               "traced": sum(r.traced for r in reps)}
    print(f"samples: {json.dumps(samples)} (timings are medians)")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "env": env,
        "inputs": {"rows": inputs.rows, "papers": inputs.papers, "authors": inputs.authors},
        "samples": samples, "extra": extra, "artifacts_sha256": reps[0].hashes,
    }
    print(f"record: {json.dumps(record, sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, out: Optional[Path], spec: dict) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    check_checkout()
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = {"why": workload["why"]}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                fail(f"{name} --trace {trace} exited with {done.returncode}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(lines[-2].removeprefix("record: "))
            summary["env"] = record["env"]
            entry.update({"inputs": record["inputs"], f"samples_trace{trace}": record["samples"]})
            if trace:
                entry["per_layer"] = result["metrics"]
                if record["artifacts_sha256"] != entry["artifacts_sha256"]:
                    # the two runs are separate processes with the same inputs
                    print(f"FAILED {name}: artifacts differ between the untraced and traced runs")
                    result["correct"] = False
            else:
                entry.update(end_to_end=result["metrics"], extra=record["extra"],
                             artifacts_sha256=record["artifacts_sha256"])
            totals["correct"] &= result["correct"]
            totals["attempted"] += result["attempted"]
            totals["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                totals["metrics"][f"{name}.{metric}"] = value
        summary["workloads"][name] = entry
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json is missing")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, help="with --workload all: write the summary here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out, spec)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
