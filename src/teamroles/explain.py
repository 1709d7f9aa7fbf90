"""Shapley-value attributions: exact enumeration and a gradient-path estimator.

f(S) is concretized by baseline substitution: coordinates in S come from
the explained point, the rest from the baseline. Exact enumeration is
tractable for our 10 features (1024 coalitions per point and baseline).
`exact_shapley_batch` is the path the CLI uses: for each point and
baseline it evaluates the network only on the coalitions of the features
where the two differ, with the first layer factored into a per-feature
term and a baseline term and the other layers run as the network runs
them, in per-process buffers of bounded size, with the rows shared out
between the calling process and a worker process forked for every further
CPU it may run on. `exact_shapley` is the same enumeration over
any scalar function. The gradient-path sampler `gradient_shap` is kept as
a library estimator and is checked against the exact values. The
explained quantity is the pre-threshold probability, not the class label.
"""
from __future__ import annotations

import ctypes
import math
import mmap
import os
import select
import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, NamedTuple, NoReturn, Optional, Sequence, Tuple

import numpy as np

from . import artifacts
from .errors import EmptyInput, PipelineError
from .mlp import (
    TrainedModel,
    _check_finite,
    _probability,
    forward,
    input_gradient_batch,
)

MAX_EXACT_FEATURES = 16
# Coalitions per pass through the network in exact_shapley_batch. Each
# process allocates its buffers once per call, so their size maps no fresh
# pages per block. With 64 and 32 hidden units and 10 features they hold
# about 1 MiB: the two layer buffers 512 x 64 and 512 x 32 (256 and
# 128 KiB), one buffer of zeros that both ReLUs read (256 KiB; one per
# layer grew the peak RSS by 0.2 MB more), the second layer's bias tiled
# to 512 x 32 (128 KiB: numpy 2.4.6 adds it in about 5 us, a broadcast
# row in about 11 us), and per baseline group the first-layer rows
# (44 KiB), the reduced values, their flat index and the expanded values
# (64, 64 and 72 KiB). With worker
# processes on the fixture (2 CPUs, BENCH_18.json), 1024-row blocks gave
# the same explain time within the noise (median 0.271 s against 0.273 s)
# and grew the calling process's peak RSS by about 0.35 MB.
_BLOCK_ROWS = 512
# Baselines whose coalition values a process holds at once. Under worker
# processes, groups of 16 were no faster than groups of 8 on the fixture
# (33 baselines; median 0.281 s against 0.273 s) and grew the calling
# process's peak RSS by about 0.35 MB.
_BASELINE_GROUP = 8
# Rows are handed out as tokens, each the number of a run of consecutive
# rows, written to a pipe before any worker is forked. Every pipe holds
# PIPE_BUF bytes, so at most that many bytes of tokens never block the
# write, whatever the row count: up to 1024 tokens of ceil(n / 1024) rows.
_TOKEN = np.dtype("<u4")
_MAX_TOKENS = select.PIPE_BUF // _TOKEN.itemsize
# Bytes a failed worker keeps of its exception's type and message.
_MESSAGE_BYTES = 1024


class WorkerFailed(PipelineError):
    """A forked worker process of exact_shapley_batch raised or was killed."""

    def __init__(self, reason: str):
        super().__init__(f"explain worker process failed: {reason}")


@dataclass(frozen=True)
class Attribution:
    phi: np.ndarray
    base_value: float
    prediction: float


class _Coalitions(NamedTuple):
    # (2^m, m + 1) of 0.0 and 1.0: row k holds the bits of coalition k, then a 1.0
    # that picks up a bias or an offset as the last row of a matmul
    member: np.ndarray
    without: np.ndarray  # (2^(m-1), m) int: coalitions S that leave feature i out
    joined: np.ndarray  # (2^(m-1), m) int: S with feature i added
    weight: np.ndarray  # (2^(m-1), m): |S|! (m - |S| - 1)! / m!


@lru_cache(maxsize=None)
def _coalitions(m: int) -> _Coalitions:
    masks = np.arange(1 << m)
    bits = (masks[:, None] >> np.arange(m)) & 1
    # a stable sort puts the coalitions without feature i first, in mask order
    without = np.argsort(bits, axis=0, kind="stable")[: len(masks) // 2]
    joined = without | (1 << np.arange(m))
    fact = [math.factorial(k) for k in range(m + 1)]
    weights = np.array([fact[s] * fact[m - s - 1] / fact[m] for s in range(m)])
    weight = weights[bits.sum(axis=1)[without]]
    member = np.ones((len(masks), m + 1))
    member[:, :m] = bits
    for array in (member, without, joined, weight):
        array.setflags(write=False)
    return _Coalitions(member, without, joined, weight)


def _attribution(values: np.ndarray, m: int) -> Attribution:
    """Attribution of one point from its 2^m coalition values.

    phi_i is the sum over coalitions S without i of w(|S|) (v(S + i) - v(S)).
    Summing weighted differences, not values, keeps a feature the model
    ignores at exactly zero.
    """
    c = _coalitions(m)
    phi = ((values[c.joined] - values[c.without]) * c.weight).sum(axis=0)
    return Attribution(phi=phi, base_value=float(values[0]), prediction=float(values[-1]))


def exact_shapley(
    model_fn: Callable[[np.ndarray], float], x: np.ndarray, baseline: np.ndarray
) -> Attribution:
    """Full subset enumeration with exact combinatorial weights."""
    x = np.asarray(x, dtype=float)
    baseline = np.asarray(baseline, dtype=float)
    m = len(x)
    if m > MAX_EXACT_FEATURES:
        raise ValueError(f"exact enumeration limited to {MAX_EXACT_FEATURES} features, got {m}")

    # one evaluation per coalition bitmask
    hybrids = np.where(_coalitions(m).member[:, :m] == 1.0, x, baseline)
    values = np.fromiter((model_fn(h) for h in hybrids), dtype=float, count=len(hybrids))
    return _attribution(values, m)


@lru_cache(maxsize=None)
def _openblas_thread_count() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """The get and set functions of the thread count of the OpenBLAS bundled
    with numpy, or None if this numpy has no such library."""
    try:
        from numpy._core import _multiarray_umath  # linked against the bundled library

        library = ctypes.CDLL(_multiarray_umath.__file__)
        get = library.scipy_openblas_get_num_threads64_
        set_ = library.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count."""
    functions = _openblas_thread_count()
    if functions is None:
        yield
        return
    get, set_ = functions
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


def exact_shapley_batch(
    model: TrainedModel, X: np.ndarray, baselines: Sequence[np.ndarray]
) -> List[Attribution]:
    """Exact Shapley values of the network for every row of X.

    Coalition values are averaged over the baselines before weighting,
    so each row's phi is the mean of its per-baseline exact_shapley and
    base_value is the mean baseline output.

    A feature with x_i == b_i changes no coalition value for that
    baseline, so only the 2^k coalitions of the k features that differ
    are evaluated (two features at least, see the loop), and one np.take
    spreads them over all 2^m coalitions by each coalition's bits on those
    k features. No hybrid point is built: the first layer is factored as
    Z1 = member_S @ ((x - b) * W1^T) + (W1 b + b1), with the baseline term
    as the last row of the matmul, which the coalition matrix's column of
    ones picks up. The second and third layers run as in the network, each
    bias added after its matmul, and each ReLU is a maximum against a
    buffer of zeros, which numpy runs as a vector loop. The terms left out
    are exact zeros, so at hidden sizes (64, 32), (7, 5) and (3, 1) the
    result has the same bytes as evaluating all 2^m coalitions 512 at a
    time, which the tests check with OpenBLAS. Elsewhere OpenBLAS may sum
    a block of fewer rows in another order: at (65, 33), blocks of 64 to
    256 coalitions differ from it in the last bits.

    Coalitions run _BLOCK_ROWS at a time and baselines _BASELINE_GROUP at
    a time, in buffers each process allocates once (about 880 KiB with 64
    and 32 hidden units, plus (m + 1) x 9 B per baseline), so memory does
    not grow with the number of rows. The output probabilities and the sum
    over baselines, in baseline order, are taken once per group.

    The calling process forks one worker process for every further CPU in
    its affinity set, so nothing is forked on one CPU or for one row; nor
    while another thread runs in this process, because a forked child
    could wait forever on a lock that thread held. Each process takes runs
    of rows from a pipe filled before the fork, as it comes to need them,
    so a faster CPU does more rows, and writes each row's phi, base_value
    and prediction to an anonymous shared mapping, from which the calling
    process builds the result. A row is computed whole by one process in a
    fixed order, so the result is the same bytes whatever the process
    count. A worker that raises leaves its exception's type and message in
    the mapping, and WorkerFailed names them. The calling process looks
    for a failed worker before each of its rows and, once it finds one,
    computes no further row and kills the other workers; if it raises
    itself, its workers are killed too and its own exception propagates. Every
    worker is reaped before this returns or raises, and none writes to
    stdout or stderr. Meanwhile numpy's bundled OpenBLAS runs on one
    thread, in the workers too, which inherit the setting, so its own
    threads do not compete with these processes for the CPUs; its thread
    count is restored on the way out.
    """
    if len(baselines) == 0:
        raise EmptyInput("at least one baseline required")
    X = np.asarray(X, dtype=float)
    if len(X) == 0:
        raise EmptyInput("no rows to explain")
    bases = np.asarray(baselines, dtype=float)
    m = X.shape[1]
    if m > MAX_EXACT_FEATURES:
        raise ValueError(f"exact enumeration limited to {MAX_EXACT_FEATURES} features, got {m}")
    _check_finite(X)
    _check_finite(bases)

    params = model.params
    h1, h2 = len(params.b1), len(params.b2)
    bias_rows = bases @ params.W1.T + params.b1  # per baseline, the first layer's last row
    # contiguous: with the transposed view, OpenBLAS sums blocks of up to 32
    # coalitions in another order at 64 and 32 hidden units
    W2 = np.ascontiguousarray(params.W2.T)
    member = _coalitions(m).member
    n_coalitions = len(member)
    block = min(_BLOCK_ROWS, n_coalitions)
    group = min(_BASELINE_GROUP, len(bases))
    size = -(-len(X) // _MAX_TOKENS)  # rows per token
    tokens = -(-len(X) // size)
    workers = min(len(os.sched_getaffinity(0)), tokens) - 1
    if len(sys._current_frames()) > 1:
        workers = 0  # another thread might hold a lock a forked child would wait on forever
    # each row's phi, base_value and prediction, then each worker's message slot
    table_bytes = len(X) * (m + 2) * 8
    shared = mmap.mmap(-1, table_bytes + workers * _MESSAGE_BYTES)
    table = np.frombuffer(shared, count=len(X) * (m + 2)).reshape(len(X), m + 2)

    def taken_rows() -> Iterator[int]:
        # the pipe holds whole tokens only, and each read takes one
        while token := os.read(read_fd, _TOKEN.itemsize):
            start = int.from_bytes(token, "little") * size
            yield from range(start, min(start + size, len(X)))

    def work(before_row: Callable[[], None] = lambda: None) -> None:
        # per baseline of a group: the (x - b)_i W1^T rows, then its bias row
        first = np.empty((group, m + 1, h1))
        kept = np.ones((len(bases), m + 1), dtype=bool)  # x_i != b_i, then the bias row
        # per baseline: each kept feature's bit in the reduced coalition index,
        # then where the baseline's reduced values start in its group
        place = np.empty((len(bases), m + 1))
        place[:, m] = np.arange(len(bases)) % group * n_coalitions
        reduced = np.zeros((group, n_coalitions))
        index = np.empty((group, n_coalitions), dtype=np.intp)
        values = np.empty((group + 1, n_coalitions))  # row 0 carries the earlier groups' sum
        Z1, Z2 = np.empty((block, h1)), np.empty((block, h2))
        zeros = np.zeros(block * max(h1, h2))  # read by both ReLUs
        zeros1 = zeros[: block * h1].reshape(block, h1)
        zeros2 = zeros[: block * h2].reshape(block, h2)
        b2 = np.tile(params.b2, (block, 1))
        for i in taken_rows():
            before_row()
            diffs = X[i] - bases
            np.not_equal(diffs, 0.0, out=kept[:, :m])
            # keep two features at least, the first ones that agree if need be:
            # OpenBLAS sums a matvec of fewer than 4 rows in another order, so
            # 1 or 2 coalitions would change the last bits
            count = kept[:, :m].sum(axis=1, keepdims=True)
            kept[:, :m] |= np.cumsum(~kept[:, :m], axis=1) <= 2 - count
            np.ldexp(kept[:, :m], np.cumsum(kept[:, :m], axis=1) - 1, out=place[:, :m], dtype=float)
            values[0] = 0.0
            for start in range(0, len(bases), group):
                n = min(group, len(bases) - start)
                np.multiply(diffs[start : start + n, :, None], params.W1.T, out=first[:n, :m])
                first[:n, m] = bias_rows[start : start + n]
                for j in range(n):
                    rows = first[j][kept[start + j]]
                    coalitions = _coalitions(len(rows) - 1).member
                    for s in range(0, len(coalitions), block):
                        C = coalitions[s : s + block]
                        A1 = np.matmul(C, rows, out=Z1[: len(C)])
                        np.maximum(A1, zeros1[: len(C)], out=A1)
                        A2 = np.matmul(A1, W2, out=Z2[: len(C)])
                        A2 += b2[: len(C)]
                        np.maximum(A2, zeros2[: len(C)], out=A2)
                        np.matmul(A2, params.W3, out=reduced[j, s : s + len(C)])
                reduced[:n] += params.b3
                _probability(reduced[:n], out=reduced[:n])
                # the flat index of each coalition's reduced value, exact in floating point
                np.matmul(place[start : start + n], member.T, out=values[1 : n + 1])
                np.copyto(index[:n], values[1 : n + 1], casting="unsafe")
                # every index is in range; mode="raise" would buffer the output
                np.take(reduced, index[:n], out=values[1 : n + 1], mode="clip")
                values[0] = values[: n + 1].sum(axis=0)
            attribution = _attribution(values[0] / len(bases), m)
            table[i, :m] = attribution.phi
            table[i, m:] = attribution.base_value, attribution.prediction

    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, np.arange(tokens, dtype=_TOKEN).tobytes())
    finally:
        os.close(write_fd)  # so a read of the emptied pipe ends
    running: Dict[int, int] = {}  # slot -> pid of each worker not reaped yet
    statuses: Dict[int, int] = {}  # slot -> wait status of each reaped worker

    def reap(slot: int, options: int) -> None:
        # waits on this call's own workers only, never on any child of the process
        pid, status = os.waitpid(running[slot], options)
        if pid:
            del running[slot]
            statuses[slot] = status

    def failure(slot: int) -> WorkerFailed:
        at = table_bytes + slot * _MESSAGE_BYTES
        message = shared[at : at + _MESSAGE_BYTES].rstrip(b"\0").decode(errors="replace")
        code = os.waitstatus_to_exitcode(statuses[slot])
        return WorkerFailed(message or (f"signal {-code}" if code < 0 else f"exit code {code}"))

    def stop_if_a_worker_failed() -> None:
        for slot in list(running):
            reap(slot, os.WNOHANG)
            if statuses.get(slot):
                raise failure(slot)

    with _one_blas_thread():
        try:
            for slot in range(workers):
                try:
                    pid = os.fork()
                except OSError:  # no process or memory to spare: the others take the rows
                    break
                if pid == 0:
                    _work_and_exit(work, shared, table_bytes + slot * _MESSAGE_BYTES)
                running[slot] = pid
            work(stop_if_a_worker_failed)
        except BaseException:
            for pid in running.values():
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.close(read_fd)
            for slot in list(running):
                reap(slot, 0)
    for slot, status in sorted(statuses.items()):
        if status != 0:
            raise failure(slot)
    table = table.copy()  # off the shared mapping
    return [Attribution(row[:m], float(row[m]), float(row[m + 1])) for row in table]


def _work_and_exit(work: Callable[[], None], shared: mmap.mmap, at: int) -> NoReturn:
    """Run a forked worker's share and leave the process, with exit code 1 and
    its exception in shared[at:] if it raised. Nothing is flushed or run at exit."""
    try:
        work()
        os._exit(0)
    except BaseException as exc:
        message = f"{type(exc).__name__}: {exc}".encode(errors="replace")[:_MESSAGE_BYTES]
        shared[at : at + len(message)] = message
    finally:
        os._exit(1)


def gradient_shap(
    model: TrainedModel,
    x: np.ndarray,
    baselines: Sequence[np.ndarray],
    n_samples: int = 256,
    seed: int = 0,
) -> Attribution:
    """Shapley-weighted gradient sampler.

    Each Monte-Carlo sample draws a feature permutation and an
    interpolation position alpha. For every feature i the gradient is
    taken at the coalition hybrid (features preceding i in the
    permutation at x, the rest at the baseline, feature i itself at
    b_i + alpha (x_i - b_i)); the contribution is (x_i - b_i) * df/dx_i.
    The fundamental theorem of calculus over the per-feature segment
    makes this an unbiased estimator of the interventional Shapley
    value, and it is exact on linear models for any n_samples. Multiple
    baselines are averaged deterministically within each sample.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if len(baselines) == 0:
        raise EmptyInput("at least one baseline required")
    x = np.asarray(x, dtype=float)
    bases = np.asarray(baselines, dtype=float)
    m = len(x)
    n_bases = len(bases)

    rng = np.random.default_rng(seed)
    diag = np.arange(m)
    phi = np.zeros(m)
    for _ in range(n_samples):
        perm = rng.permutation(m)
        alpha = rng.uniform(0.0, 1.0)
        position = np.empty(m, dtype=int)
        position[perm] = np.arange(m)
        precedes = position[None, :] < position[:, None]  # [i, j]: j before i

        # one hybrid row per (baseline, feature): coalition at x, rest at b,
        # the explained feature interpolated along its own segment
        points = np.where(precedes[None, :, :], x[None, None, :], bases[:, None, :])
        points[:, diag, diag] = bases + alpha * (x[None, :] - bases)
        grads = input_gradient_batch(model.params, points.reshape(n_bases * m, m))
        grads = grads.reshape(n_bases, m, m)
        phi += ((x[None, :] - bases) * grads[:, diag, diag]).mean(axis=0)
    phi /= n_samples

    base_value = float(np.mean([forward(model.params, b) for b in bases]))
    return Attribution(phi=phi, base_value=base_value, prediction=forward(model.params, x))


@dataclass(frozen=True)
class SummaryRow:
    feature: str
    mean_abs_phi: float
    mean_phi: float
    sign_consistency: float


def shap_summary(attributions: Sequence[Attribution], names: Sequence[str]) -> List[SummaryRow]:
    """Feature-importance ranking by mean |phi|, stable tie-break by index.

    names[i] is the feature phi[i] belongs to (see TrainedModel.input_names).
    """
    if not attributions:
        raise EmptyInput("no attributions to summarize")
    phis = np.array([a.phi for a in attributions])
    mean_abs = np.abs(phis).mean(axis=0)
    mean = phis.mean(axis=0)

    rows = []
    for i, name in enumerate(names):
        dominant = np.sign(mean[i])
        if dominant == 0:
            consistency = 1.0
        else:
            consistency = float(np.mean(np.sign(phis[:, i]) == dominant))
        rows.append(SummaryRow(name, float(mean_abs[i]), float(mean[i]), consistency))
    order = sorted(range(len(rows)), key=lambda i: (-rows[i].mean_abs_phi, i))
    return [rows[i] for i in order]


def write_attributions(
    attributions: Sequence[Attribution], example_ids: Sequence[str], names: Sequence[str], path
) -> None:
    header = ["example_id", *[f"phi_{n}" for n in names], "base_value", "prediction"]
    rows = (
        [ex_id, *[repr(float(v)) for v in attr.phi], repr(float(attr.base_value)),
         repr(float(attr.prediction))]
        for ex_id, attr in zip(example_ids, attributions)
    )
    artifacts.write_csv(path, header, rows)


def write_summary(rows: Sequence[SummaryRow], path) -> None:
    header = ["feature", "mean_abs_phi", "mean_phi", "sign_consistency"]
    values = (
        [r.feature, repr(r.mean_abs_phi), repr(r.mean_phi), repr(r.sign_consistency)] for r in rows
    )
    artifacts.write_csv(path, header, values)


def write_summary_svg(rows: Sequence[SummaryRow], path) -> None:
    """Minimal static bar chart of mean |phi| per feature (deterministic output)."""
    width, bar_h, gap, left = 640, 18, 6, 260
    height = len(rows) * (bar_h + gap) + gap
    top = max((r.mean_abs_phi for r in rows), default=0.0) or 1.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">'
    ]
    for i, row in enumerate(rows):
        y = gap + i * (bar_h + gap)
        w = (width - left - 10) * row.mean_abs_phi / top
        lines.append(f'<text x="4" y="{y + 13}">{row.feature}</text>')
        lines.append(f'<rect x="{left}" y="{y}" width="{w:.2f}" height="{bar_h}" fill="#4878a8"/>')
    lines.append("</svg>")
    artifacts.write_text(path, "\n".join(lines) + "\n")
