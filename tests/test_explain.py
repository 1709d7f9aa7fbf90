import csv
import fcntl
import itertools
import json
import os
import select
import shutil
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import feature_table
from teamroles import dataset, explain, metrics, mlp
from teamroles.cli import main
from teamroles.errors import PipelineError
from teamroles.explain import (
    Attribution,
    EmptyInput,
    exact_shapley,
    exact_shapley_batch,
    gradient_shap,
    shap_summary,
    write_attributions,
    write_summary,
    write_summary_svg,
)
from teamroles.features import InvalidFeatures, NormalizationRanges
from teamroles.mlp import TrainConfig, TrainedModel, forward, init, train
from teamroles.types import FEATURE_NAMES, BinaryRole


def linear_fn(weights, bias=0.0):
    weights = np.asarray(weights, dtype=float)
    return lambda x: float(weights @ np.asarray(x) + bias)


def brute_force_shapley(model_fn, x, baseline):
    """Permutation-average oracle, independent of the bitmask enumerator."""
    m = len(x)
    phi = np.zeros(m)
    for order in itertools.permutations(range(m)):
        point = np.array(baseline, dtype=float)
        prev = model_fn(point)
        for i in order:
            point[i] = x[i]
            current = model_fn(point)
            phi[i] += current - prev
            prev = current
    return phi / len(list(itertools.permutations(range(m))))


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(80):
        ratios = rng.uniform(0, 1, 4)
        counts = rng.uniform(0, 10, 6)
        label = BinaryRole.LEADERSHIP if counts[0] > 5 else BinaryRole.SUPPORT
        rows.append((f"A{i}", f"W{i}", list(ratios) + list(counts), label))
    config = TrainConfig(seed=seed, hidden_sizes=(8, 4), epochs=5, learning_rate=0.1)
    return train(feature_table(rows), config)


def test_exact_shapley_linear_model_analytic():
    w = np.array([1.0, -2.0, 0.5, 3.0])
    x = np.array([0.2, 0.8, 0.5, 0.1])
    b = np.array([0.0, 0.5, 0.5, 0.0])
    attr = exact_shapley(linear_fn(w, bias=1.0), x, b)
    assert np.allclose(attr.phi, w * (x - b), atol=1e-12)


def test_exact_shapley_matches_permutation_oracle():
    rng = np.random.default_rng(2)
    model = small_model()

    def fn(x):
        # embed the 5-dim explained point into the model's 10-dim input
        full = np.zeros(10)
        full[:5] = x
        return forward(model.params, full)

    x = rng.uniform(0, 1, 5)
    baseline = rng.uniform(0, 1, 5)
    attr = exact_shapley(fn, x, baseline)
    oracle = brute_force_shapley(fn, x, baseline)
    assert np.allclose(attr.phi, oracle, atol=1e-10)


def test_exact_shapley_efficiency():
    """Attributions sum to prediction minus base value."""
    model = small_model()
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(0, 1, 10)
        baseline = rng.uniform(0, 1, 10)
        attr = exact_shapley(lambda v: forward(model.params, v), x, baseline)
        assert attr.phi.sum() == pytest.approx(attr.prediction - attr.base_value, abs=1e-9)


def test_exact_shapley_dummy_feature_gets_zero():
    w = np.array([2.0, 0.0, -1.0])
    attr = exact_shapley(linear_fn(w), np.array([1.0, 5.0, 2.0]), np.zeros(3))
    assert attr.phi[1] == pytest.approx(0.0, abs=1e-12)


def test_exact_shapley_symmetry():
    # x1 and x2 enter symmetrically and have equal values
    fn = lambda v: float(v[0] * v[1] + v[0] + v[1] + 3 * v[2])
    attr = exact_shapley(fn, np.array([2.0, 2.0, 1.0]), np.zeros(3))
    assert attr.phi[0] == pytest.approx(attr.phi[1], abs=1e-12)


def test_exact_shapley_identical_point_and_baseline():
    attr = exact_shapley(linear_fn([1.0, 2.0]), np.array([3.0, 4.0]), np.array([3.0, 4.0]))
    assert np.allclose(attr.phi, 0.0)
    assert attr.base_value == attr.prediction


def test_exact_shapley_too_many_features():
    with pytest.raises(ValueError, match="limited to 16 features, got 17"):
        exact_shapley(lambda v: 0.0, np.zeros(17), np.zeros(17))


def random_network(m, seed, hidden_sizes=(6, 4)):
    """Untrained network on m inputs with random biases, so ReLUs switch inside [0, 1]^m."""
    config = TrainConfig(seed=seed, hidden_sizes=hidden_sizes, feature_indices=tuple(range(m)))
    params = init(config)
    rng = np.random.default_rng(seed)
    params.b1 = rng.normal(0.0, 0.5, size=params.b1.shape)
    params.b2 = rng.normal(0.0, 0.5, size=params.b2.shape)
    params.b3 = float(rng.normal())
    return TrainedModel(params, NormalizationRanges((0.0,) * m, (1.0,) * m), config, [])


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=10),
    n_rows=st.integers(min_value=1, max_value=3),
    n_bases=st.integers(min_value=1, max_value=explain._BASELINE_GROUP + 3),
    shared=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    seed=st.integers(min_value=0, max_value=2**16),
    hidden_sizes=st.sampled_from([(6, 4), (65, 33), (1, 4), (100, 3)]),
)
# ten differing features: one (row, baseline) pair spans two blocks of coalitions
@example(m=10, n_rows=2, n_bases=explain._BASELINE_GROUP + 3, shared=0.0, seed=1,
         hidden_sizes=(6, 4))
@example(m=10, n_rows=3, n_bases=explain._BASELINE_GROUP + 1, shared=0.5, seed=2,
         hidden_sizes=(65, 33))
@example(m=10, n_rows=2, n_bases=3, shared=1.0, seed=3, hidden_sizes=(6, 4))
def test_exact_shapley_batch_is_mean_of_per_baseline_exact(
    m, n_rows, n_bases, shared, seed, hidden_sizes
):
    model = random_network(m, seed, hidden_sizes)
    rng = np.random.default_rng(seed + 1)
    X = rng.uniform(0.0, 1.0, size=(n_rows, m))
    bases = list(rng.uniform(0.0, 1.0, size=(n_bases, m)))
    # each row takes about a `shared` part of its coordinates from a random
    # baseline; at 1.0 it equals that baseline, so no feature differs
    for x in X:
        b = bases[rng.integers(n_bases)]
        copied = rng.random(m) < shared
        x[copied] = b[copied]
    fn = lambda v: forward(model.params, v)

    attrs = exact_shapley_batch(model, X, bases)
    assert len(attrs) == n_rows
    for x, attr in zip(X, attrs):
        per_base = [exact_shapley(fn, x, b) for b in bases]
        assert np.allclose(attr.phi, np.mean([a.phi for a in per_base], axis=0), rtol=0, atol=1e-12)
        assert attr.base_value == pytest.approx(np.mean([fn(b) for b in bases]), abs=1e-12)
        assert attr.prediction == pytest.approx(fn(x), abs=1e-12)
        assert abs(attr.phi.sum() - (attr.prediction - attr.base_value)) <= 1e-12


def test_exact_shapley_batch_validations():
    model = random_network(3, seed=0)
    with pytest.raises(EmptyInput, match="at least one baseline required"):
        exact_shapley_batch(model, np.zeros((2, 3)), [])
    with pytest.raises(EmptyInput):
        exact_shapley_batch(model, np.array([]), [np.zeros(3)])
    with pytest.raises(ValueError, match="limited to 16 features, got 17"):
        exact_shapley_batch(model, np.zeros((1, 17)), [np.zeros(17)])
    X = np.zeros((2, 3))
    X[1, 2] = np.nan
    with pytest.raises(InvalidFeatures):
        exact_shapley_batch(model, X, [np.zeros(3)])


@pytest.fixture(scope="module")
def fixture_stages(tmp_path_factory):
    """The offline pipeline run up to `train` on the fixture corpus."""
    out = tmp_path_factory.mktemp("explain")
    common = ["--output-dir", str(out), "--cache-dir", "tests/fixtures/cache", "--offline"]
    for stage in (["ingest", "--input", "tests/fixtures/corpus.csv"], ["label-rule"],
                  ["featurize"], ["split"], ["train"]):
        assert main(stage + common) == 0, stage
    return out


@pytest.fixture(scope="module")
def fixture_explain(fixture_stages):
    """The fixture pipeline's model, 12 of its test rows and 6 explain baselines,
    the last of them equal to the first test row."""
    out = fixture_stages
    model = mlp.load_model(out / "model.json")
    inputs = lambda name: mlp.model_inputs(model, dataset.read_examples(out / name).X)
    X = inputs("test.csv")[:12]
    baselines = [np.zeros(len(FEATURE_NAMES)), *inputs("train.csv")[:4], X[0].copy()]
    return model, X, baselines


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails any test of this module that leaves a child process behind,
    running or unreaped: after a success, a worker's failure or its own."""
    yield
    with pytest.raises(ChildProcessError):
        pid, status = os.waitpid(-1, os.WNOHANG)
        pytest.fail(f"a child process is left behind: waitpid gave {(pid, status)}")


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child forked while the test runs, as the parent sees it."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def row_log(tmp_path, monkeypatch):
    """Makes every process append "<pid> <OpenBLAS threads>" to one file for
    each row it computes, after it calls `row_log.hook()`; `row_log.lines()`
    reads the lines back as pairs of ints. -1 stands for an unknown count."""
    path = tmp_path / "rows.log"
    functions = explain._openblas_thread_count()
    attribution = explain._attribution

    def lines():
        text = path.read_text() if path.exists() else ""
        return [tuple(map(int, line.split())) for line in text.splitlines()]

    log = SimpleNamespace(hook=lambda: None, lines=lines)

    def logged(values, m):
        log.hook()
        with open(path, "a") as fh:  # one write per line, appended whole
            fh.write(f"{os.getpid()} {functions[0]() if functions else -1}\n")
        return attribution(values, m)

    monkeypatch.setattr(explain, "_attribution", logged)
    return log


def explain_on(cpus, monkeypatch, model, X, baselines):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return exact_shapley_batch(model, X, baselines)


def assert_same_bytes(expected, got):
    assert len(got) == len(expected)
    for one, other in zip(expected, got):
        assert one.phi.tobytes() == other.phi.tobytes()
        assert one.base_value == other.base_value
        assert one.prediction == other.prediction
        assert abs(one.phi.sum() - (one.prediction - one.base_value)) <= 1e-12


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_exact_shapley_batch_same_bytes_whatever_the_process_count(
    fixture_explain, monkeypatch, forks, row_log, cpus
):
    model, X, baselines = fixture_explain
    serial = explain_on(1, monkeypatch, model, X, baselines)
    one_row = explain_on(cpus, monkeypatch, model, X[:1], baselines)
    assert forks == []  # one CPU or one row: the calling process does every row
    assert_same_bytes(serial[:1], one_row)
    assert len(row_log.lines()) == len(X) + 1
    forked = explain_on(cpus, monkeypatch, model, X, baselines)
    assert len(forks) == cpus - 1
    # every row computed once: a row done twice leaves another undone, all zeros
    assert len(row_log.lines()) == 2 * len(X) + 1
    assert_same_bytes(serial, forked)


def every_coalition(model, x, baselines):
    """Mean coalition values of x over the baselines from all 2^m coalitions,
    512 at a time, with each bias added after its matmul."""
    p = model.params
    member = explain._coalitions(len(x)).member[:, :-1]
    values = np.zeros(len(member))
    for b, zb in zip(baselines, np.asarray(baselines) @ p.W1.T + p.b1):
        z3 = np.empty(len(member))
        for start in range(0, len(member), 512):
            Z1 = member[start : start + 512] @ ((x - b)[:, None] * p.W1.T)
            Z1 += zb
            Z2 = np.maximum(0.0, Z1) @ p.W2.T
            Z2 += p.b2
            z3[start : start + 512] = np.maximum(0.0, Z2) @ p.W3
        z3 += p.b3
        values += mlp._probability(z3)
    return values / len(baselines)


def test_exact_shapley_batch_same_bytes_as_evaluating_every_coalition(fixture_explain):
    model, X, baselines = fixture_explain
    # rows that differ from baselines[1] in 1, 2 and 3 features; X[0] is baselines[-1]
    X = X[:6].copy()
    for row, differing in zip(X[1:4], (1, 2, 3)):
        row[differing:] = baselines[1][differing:]
    for x, attr in zip(X, exact_shapley_batch(model, X, baselines)):
        reference = explain._attribution(every_coalition(model, x, baselines), len(x))
        assert attr.phi.tobytes() == reference.phi.tobytes()
        assert (attr.base_value, attr.prediction) == (reference.base_value, reference.prediction)


@pytest.mark.parametrize("hidden_sizes", [(64, 32), (7, 5), (3, 1)], ids="{0[0]}x{0[1]}".format)
def test_same_bytes_as_evaluating_every_coalition_at_other_hidden_sizes(hidden_sizes):
    """Untrained networks with random biases, and rows that differ from one
    baseline in k = 0 ... 10 features: k = 0 and 1 keep two features all the
    same, and k = 10 spans two blocks of coalitions. Other sizes, where
    OpenBLAS may sum fewer rows in another order, are held to 1e-12 by
    test_exact_shapley_batch_is_mean_of_per_baseline_exact."""
    model = random_network(10, seed=sum(hidden_sizes), hidden_sizes=hidden_sizes)
    rng = np.random.default_rng(6)
    baselines = [np.zeros(10), *rng.uniform(0.0, 1.0, size=(explain._BASELINE_GROUP + 1, 10))]
    X = np.tile(baselines[1], (11, 1))
    for k, row in enumerate(X):
        row[:k] = rng.uniform(0.0, 1.0, size=k)
    for x, attr in zip(X, exact_shapley_batch(model, X, baselines)):
        reference = explain._attribution(every_coalition(model, x, baselines), len(x))
        assert attr.phi.tobytes() == reference.phi.tobytes()
        assert (attr.base_value, attr.prediction) == (reference.base_value, reference.prediction)


def a_worker_that_raises(row_log):
    """Each worker's first row raises MemoryError. The calling process holds
    its first row until a worker has exited, so that a worker fails first."""
    parent = os.getpid()

    def hook():
        if os.getpid() != parent:
            raise MemoryError("worker process")
        deadline = time.monotonic() + 10
        # WNOWAIT leaves the exited worker for exact_shapley_batch to reap
        while (os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
               and time.monotonic() < deadline):
            time.sleep(0.001)

    row_log.hook = hook


def test_exact_shapley_batch_raises_what_a_worker_process_raised(
    fixture_explain, monkeypatch, forks, row_log
):
    model, X, baselines = fixture_explain
    a_worker_that_raises(row_log)
    with pytest.raises(explain.WorkerFailed, match="MemoryError: worker process") as raised:
        explain_on(2, monkeypatch, model, X, baselines)
    assert isinstance(raised.value, PipelineError)
    assert len(forks) == 1
    # the calling process stopped at the row after the failure, not after the other 11 rows
    assert len(X) == 12 and len(row_log.lines()) == 1


@pytest.mark.parametrize("workers_do", ["hang", "raise", "work"])
def test_the_parent_raises_its_own_error_and_its_workers_are_killed(
    fixture_explain, monkeypatch, forks, row_log, workers_do, tmp_path
):
    model, X, baselines = fixture_explain
    parent = os.getpid()
    busy = tmp_path / "parent-busy"

    def hook():
        if os.getpid() == parent:
            busy.touch()
            time.sleep(0.05)  # the workers take their first rows meanwhile
            raise KeyError("parent")
        if workers_do == "hang":
            time.sleep(10)
        elif workers_do == "raise":
            # only once the parent is in its first row: a worker that fails
            # before it is reported as WorkerFailed (the test above)
            while not busy.exists():
                time.sleep(0.001)
            raise MemoryError("worker process")

    row_log.hook = hook
    start = time.perf_counter()
    with pytest.raises(KeyError, match="parent"):
        explain_on(3, monkeypatch, model, X, baselines)
    assert time.perf_counter() - start < 5  # the hanging workers were not waited for
    assert len(forks) == 2


def test_a_process_running_another_thread_does_not_fork(
    fixture_explain, monkeypatch, forks, row_log
):
    model, X, baselines = fixture_explain
    serial = explain_on(1, monkeypatch, model, X, baselines)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        alone = explain_on(3, monkeypatch, model, X, baselines)
    finally:
        release.set()
        thread.join()
    assert forks == []
    assert {pid for pid, _ in row_log.lines()} == {os.getpid()}
    assert_same_bytes(serial, alone)


def test_a_fork_that_fails_leaves_the_rows_to_the_others(fixture_explain, monkeypatch, forks):
    model, X, baselines = fixture_explain
    serial = explain_on(1, monkeypatch, model, X, baselines)
    fork = os.fork

    def fails_the_second_time():
        if len(forks) == 1:
            raise BlockingIOError("Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fails_the_second_time)
    assert_same_bytes(serial, explain_on(3, monkeypatch, model, X, baselines))
    assert len(forks) == 1


def test_row_queue_takes_more_rows_than_one_pipe_page_of_tokens(monkeypatch, forks, row_log):
    """With every pipe cut to one page and its write end non-blocking, a queue
    of more tokens than fit would lose rows instead of blocking."""
    pipe = os.pipe

    def one_page_pipe():
        read_fd, write_fd = pipe()
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, select.PIPE_BUF)
        os.set_blocking(write_fd, False)
        return read_fd, write_fd

    monkeypatch.setattr(os, "pipe", one_page_pipe)
    model = random_network(3, seed=4)
    X = np.random.default_rng(5).uniform(0.0, 1.0, size=(2 * explain._MAX_TOKENS + 3, 3))
    baselines = [np.zeros(3), np.full(3, 0.5)]
    serial = explain_on(1, monkeypatch, model, X, baselines)
    forked = explain_on(3, monkeypatch, model, X, baselines)
    assert len(forks) == 2
    assert len(row_log.lines()) == 2 * len(X)
    assert_same_bytes(serial, forked)


@pytest.fixture
def blas_threads():
    """The get and set functions of numpy's OpenBLAS thread count, with the
    count at 2 for the test and put back after it."""
    functions = explain._openblas_thread_count()
    if functions is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get, set_ = functions
    before = get()
    set_(2)
    yield get, set_
    set_(before)


def test_exact_shapley_batch_runs_blas_on_one_thread_and_restores_it(
    fixture_explain, monkeypatch, blas_threads, forks, row_log
):
    get, set_ = blas_threads
    model, X, baselines = fixture_explain
    from_two = explain_on(2, monkeypatch, model, X, baselines)
    assert len(forks) == 1
    # every row, in whichever process, saw one BLAS thread
    assert [threads for _, threads in row_log.lines()] == [1] * len(X) and get() == 2

    set_(1)
    from_one = explain_on(2, monkeypatch, model, X, baselines)
    assert get() == 1
    assert_same_bytes(from_two, from_one)


def test_blas_thread_count_is_restored_after_a_worker_raises(
    fixture_explain, monkeypatch, blas_threads, row_log
):
    get, _ = blas_threads
    model, X, baselines = fixture_explain
    a_worker_that_raises(row_log)
    with pytest.raises(explain.WorkerFailed, match="MemoryError: worker process"):
        explain_on(2, monkeypatch, model, X, baselines)
    assert get() == 2


def test_exact_shapley_batch_checks_the_baselines(fixture_explain):
    model, X, baselines = fixture_explain
    for bad in (np.nan, np.inf):
        spoilt = [b.copy() for b in baselines]
        spoilt[2][3] = bad
        with pytest.raises(InvalidFeatures):
            exact_shapley_batch(model, X, spoilt)


def test_empty_input_is_one_class():
    assert EmptyInput is metrics.EmptyInput


def test_gradient_shap_exact_on_linear_model(tmp_path):
    """On a linear network the path estimator is exact for any sample count."""
    model = small_model()
    # make the network linear: bypass ReLU by forcing positive pre-activations
    model.params.b1 = np.full_like(model.params.b1, 50.0)
    model.params.b2 = np.full_like(model.params.b2, 50.0)
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 0.2, 10)
    baseline = rng.uniform(0.0, 0.2, 10)
    exact = exact_shapley(lambda v: forward(model.params, v), x, baseline)
    est = gradient_shap(model, x, [baseline], n_samples=512, seed=0)
    # sigmoid output keeps a little curvature; tolerance reflects that
    assert np.allclose(est.phi, exact.phi, atol=5e-3)


def test_gradient_shap_converges_to_exact():
    model = small_model(seed=7)
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, 10)
    baseline = np.zeros(10)
    exact = exact_shapley(lambda v: forward(model.params, v), x, baseline)
    coarse = gradient_shap(model, x, [baseline], n_samples=64, seed=1)
    fine = gradient_shap(model, x, [baseline], n_samples=8192, seed=1)
    err_coarse = np.abs(coarse.phi - exact.phi).mean()
    err_fine = np.abs(fine.phi - exact.phi).mean()
    assert err_fine <= err_coarse
    assert err_fine <= 0.02 * max(np.abs(exact.phi).max(), 1e-9)


def test_gradient_shap_deterministic_and_seed_sensitive():
    model = small_model()
    x = np.full(10, 0.5)
    baselines = [np.zeros(10), np.ones(10) * 0.1]
    a = gradient_shap(model, x, baselines, n_samples=128, seed=3)
    b = gradient_shap(model, x, baselines, n_samples=128, seed=3)
    c = gradient_shap(model, x, baselines, n_samples=128, seed=4)
    assert np.array_equal(a.phi, b.phi)
    assert not np.array_equal(a.phi, c.phi)


def test_gradient_shap_validations():
    model = small_model()
    with pytest.raises(EmptyInput, match="at least one baseline required"):
        gradient_shap(model, np.zeros(10), [])
    with pytest.raises(ValueError):
        gradient_shap(model, np.zeros(10), [np.zeros(10)], n_samples=0)


def test_gradient_shap_base_value_is_mean_baseline_output():
    model = small_model()
    baselines = [np.zeros(10), np.full(10, 0.5)]
    attr = gradient_shap(model, np.ones(10), baselines, n_samples=8)
    expected = np.mean([forward(model.params, b) for b in baselines])
    assert attr.base_value == pytest.approx(expected)


def make_attr(phi):
    phi = np.asarray(phi, dtype=float)
    return Attribution(phi=phi, base_value=0.5, prediction=0.5 + phi.sum())


def test_shap_summary_ranks_by_mean_abs():
    attrs = [make_attr([0.1] + [0.0] * 8 + [0.5]), make_attr([-0.3] + [0.0] * 8 + [0.4])]
    rows = shap_summary(attrs, FEATURE_NAMES)
    assert rows[0].feature == FEATURE_NAMES[9]
    assert rows[0].mean_abs_phi == pytest.approx(0.45)
    assert rows[1].feature == FEATURE_NAMES[0]
    assert rows[1].mean_abs_phi == pytest.approx(0.2)
    # feature 0 flips sign across examples: mean is -0.1, one of two agrees
    assert rows[1].sign_consistency == pytest.approx(0.5)
    # all-zero features tie at 0 and keep index order
    assert [r.feature for r in rows[2:]] == list(FEATURE_NAMES[1:9])


def test_shap_summary_empty():
    with pytest.raises(EmptyInput):
        shap_summary([], FEATURE_NAMES)


def test_write_attributions_and_summary(tmp_path):
    attrs = [make_attr(np.linspace(-0.2, 0.2, 10)), make_attr(np.zeros(10))]
    path = tmp_path / "attributions.csv"
    write_attributions(attrs, ["W1#1", "W2#3"], FEATURE_NAMES, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["example_id"] for r in rows] == ["W1#1", "W2#3"]
    got = [float(rows[0][f"phi_{n}"]) for n in FEATURE_NAMES]
    assert np.allclose(got, attrs[0].phi)
    assert float(rows[0]["prediction"]) == pytest.approx(attrs[0].prediction)

    summary_path = tmp_path / "summary.csv"
    write_summary(shap_summary(attrs, FEATURE_NAMES), summary_path)
    with open(summary_path, newline="") as fh:
        srows = list(csv.DictReader(fh))
    assert len(srows) == 10
    # |phi| ties at 0.1 for features 0 and 9; index breaks the tie
    assert srows[0]["feature"] == FEATURE_NAMES[0]

    svg_path = tmp_path / "summary.svg"
    write_summary_svg(shap_summary(attrs, FEATURE_NAMES), svg_path)
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    for name in FEATURE_NAMES:
        assert name in svg


def test_write_attributions_byte_deterministic(tmp_path):
    attrs = [make_attr(np.linspace(-0.1, 0.3, 10))]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_attributions(attrs, ["W1#1"], FEATURE_NAMES, a)
    write_attributions(attrs, ["W1#1"], FEATURE_NAMES, b)
    assert a.read_bytes() == b.read_bytes()


def test_explain_names_the_columns_of_a_feature_subset_model(fixture_stages, tmp_path):
    for name in ("train.csv", "test.csv"):
        shutil.copyfile(fixture_stages / name, tmp_path / name)
    model = json.loads((fixture_stages / "model.json").read_text())
    model["params"]["W1"] = [row[:8] for row in model["params"]["W1"]]
    model["config"]["feature_indices"] = list(range(8))
    (tmp_path / "model.json").write_text(json.dumps(model))

    assert main(["explain", "--output-dir", str(tmp_path)]) == 0
    with open(tmp_path / "attributions.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[1:-2] == [f"phi_{n}" for n in FEATURE_NAMES[:8]]
    assert {len(row) for row in rows} == {len(header)}
    with open(tmp_path / "shap_summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert sorted(r["feature"] for r in summary) == sorted(FEATURE_NAMES[:8])


def explain_stage_dir(fixture_stages, path):
    """A fresh output directory holding what the explain stage reads."""
    path.mkdir()
    for name in ("train.csv", "test.csv", "model.json"):
        shutil.copyfile(fixture_stages / name, path / name)
    return path


def test_explain_stage_writes_the_same_bytes_on_one_and_three_cpus(
    fixture_stages, tmp_path, monkeypatch, forks
):
    written = []
    for cpus in (1, 3):
        out = explain_stage_dir(fixture_stages, tmp_path / f"cpus{cpus}")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert main(["explain", "--output-dir", str(out)]) == 0
        written.append([(out / f).read_bytes() for f in ("attributions.csv", "shap_summary.csv")])
    assert len(forks) == 2
    assert written[0] == written[1]


def test_explain_stage_reports_a_failed_worker_in_one_error_line(
    fixture_stages, tmp_path, monkeypatch, row_log, capfd
):
    out = explain_stage_dir(fixture_stages, tmp_path / "out")
    a_worker_that_raises(row_log)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["explain", "--output-dir", str(out)]) == 1
    # the worker wrote nothing, not even to the file descriptors
    message = "error: explain worker process failed: MemoryError: worker process\n"
    assert capfd.readouterr() == ("", message)
    assert not (out / "attributions.csv").exists()
