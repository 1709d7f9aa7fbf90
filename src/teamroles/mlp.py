"""Dense network for Leadership-vs-Support prediction.

Two ReLU hidden layers and a sigmoid output, trained with plain minibatch
gradient descent on binary cross-entropy. Everything is seeded and
single-threaded, so a (seed, data, config) triple gives a bit-identical
model. One layer function computes the pre- and post-activations of a
matrix of rows, and one backward function propagates output gradients
through the ReLU layers; `forward_batch`, the analytic input gradient
(which feeds the gradient attribution estimator) and training all share
them. The exact Shapley kernel in `explain` evaluates the same layers in
its own form, with the first layer factored by feature.
`train` takes a FeatureTable (see `dataset`) and uses its float matrix
as it is. It keeps the weights and biases as views of one vector and
each step's gradients as views of another, so a step costs one scaled
subtraction for its update rather than one per array.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import artifacts
from .dataset import ClassTooSmall, FeatureTable
from .features import InvalidFeatures, NormalizationRanges, fit_normalization, normalize_array
from .types import FEATURE_NAMES, BinaryRole, FeatureVector

_EPS = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    hidden_sizes: Tuple[int, int] = (64, 32)
    seed: int = 0
    feature_indices: Tuple[int, ...] = tuple(range(len(FEATURE_NAMES)))
    class_weights: Optional[Tuple[float, float]] = None  # (support, leadership)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.learning_rate < float("inf"):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if len(self.hidden_sizes) != 2:
            raise ValueError("hidden_sizes must give the widths of two layers")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be >= 1")
        if len(set(self.feature_indices)) != len(self.feature_indices):
            raise ValueError("feature_indices must be distinct")
        if not all(0 <= i < len(FEATURE_NAMES) for i in self.feature_indices):
            raise ValueError(f"feature_indices must lie in 0..{len(FEATURE_NAMES) - 1}")


@dataclass
class NetworkParams:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray  # shape (h2,)
    b3: float


@dataclass
class TrainedModel:
    params: NetworkParams
    ranges: NormalizationRanges
    config: TrainConfig
    loss_history: List[float]

    @property
    def input_names(self) -> Tuple[str, ...]:
        """The feature name of each input column."""
        return tuple(FEATURE_NAMES[i] for i in self.config.feature_indices)


_PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")


def _shapes(config: TrainConfig) -> Tuple[Tuple[int, ...], ...]:
    """The shape of each network parameter, in _PARAM_NAMES order; a weight's
    last axis is its fan-in."""
    d = len(config.feature_indices)
    h1, h2 = config.hidden_sizes
    return (h1, d), (h1,), (h2, h1), (h2,), (h2,), ()


def init(config: TrainConfig) -> NetworkParams:
    """Seeded scaled-normal weights (scale sqrt(2/fan_in)), zero biases."""
    rng = np.random.default_rng(config.seed)
    params = NetworkParams(*(
        rng.normal(0.0, np.sqrt(2.0 / shape[-1]), size=shape) if name[0] == "W" else np.zeros(shape)
        for name, shape in zip(_PARAM_NAMES, _shapes(config))
    ))
    params.b3 = float(params.b3)
    return params


# np.clip and np.sum go through Python-level dispatch that costs more than
# the arithmetic on a 32-row batch; np.maximum with np.minimum clips, and
# np.add.reduce sums, to the same bits. The sigmoid clips z only below, where
# exp(-z) would overflow: above 500, 1 + exp(-z) is 1.0 unclipped too.
def _sigmoid(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    s = np.maximum(z, -500.0, out=out)
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _probability(z3: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Predicted probabilities from output pre-activations, kept off 0 and 1 for the loss."""
    y = _sigmoid(z3, out=out)
    np.maximum(y, _EPS, out=y)
    return np.minimum(y, 1.0 - _EPS, out=y)


def _check_finite(X) -> np.ndarray:
    """X as a float array, or InvalidFeatures if it holds NaN or infinity."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise InvalidFeatures("input matrix contains NaN or infinity")
    return X


def _layers(params: NetworkParams, X: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Pre- and post-activations (Z1, A1, Z2, A2, z3) for each row of a finite float matrix X."""
    Z1 = X @ params.W1.T + params.b1
    A1 = np.maximum(0.0, Z1)
    Z2 = A1 @ params.W2.T + params.b2
    A2 = np.maximum(0.0, Z2)
    return Z1, A1, Z2, A2, A2 @ params.W3 + params.b3


def _backward(
    params: NetworkParams, Z1: np.ndarray, Z2: np.ndarray, d3: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Back-propagate per-row output gradients d3 to the hidden pre-activations.

    Z1 and Z2 are overwritten: each becomes its ReLU mask as floats, and then
    its layer's gradient. numpy multiplies float by bool through a casting
    loop; 1.0 and 0.0 give the same bits as True and False.
    """
    d2 = np.greater(Z2, 0.0, out=Z2)
    d2 *= d3[:, None] * params.W3
    d1 = np.greater(Z1, 0.0, out=Z1)
    d1 *= d2 @ params.W2
    return d1, d2


def forward_batch(params: NetworkParams, X: np.ndarray) -> np.ndarray:
    """Predicted probabilities for a whole matrix of points, one row each."""
    return _probability(_layers(params, _check_finite(X))[-1])


def forward(params: NetworkParams, x: np.ndarray) -> float:
    """Predicted probability for one (already normalized) input vector."""
    return float(forward_batch(params, np.reshape(x, (1, -1)))[0])


def input_gradient_batch(params: NetworkParams, X: np.ndarray) -> np.ndarray:
    """Analytic input gradients for a whole matrix of points, one row each."""
    Z1, _, Z2, _, z3 = _layers(params, _check_finite(X))
    y = _sigmoid(z3)
    d1, _ = _backward(params, Z1, Z2, y * (1.0 - y))
    return d1 @ params.W1


def _weighted_bce(y: np.ndarray, t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-row binary cross-entropy of probabilities y against targets t, times its weight."""
    return weights * -(t * np.log(y) + (1.0 - t) * np.log(1.0 - y))


def _views(flat: np.ndarray, like: NetworkParams) -> NetworkParams:
    """Network parameters shaped as `like`'s whose arrays are consecutive views
    of the vector `flat`, in _PARAM_NAMES order; b3 is a 0-d view."""
    views, start = [], 0
    for name in _PARAM_NAMES:
        shape = np.shape(getattr(like, name))
        size = int(np.prod(shape))
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return NetworkParams(*views)


def train(table: FeatureTable, config: TrainConfig = TrainConfig()) -> TrainedModel:
    """Minibatch gradient descent over `epochs` seeded-shuffled passes.

    Each epoch gathers the rows in its shuffled order once and takes the
    batches as slices of that copy. The weights and biases are views of
    one vector and each step's gradients views of another, which the step
    fills in place and then applies as one scaled subtraction. The step
    keeps its batch's probabilities in an epoch buffer, and after the
    epoch each batch's weighted mean BCE is taken from them, batch by
    batch; the epoch's loss is their row-weighted mean.
    """
    for label in BinaryRole:
        if label not in table.labels:
            raise ClassTooSmall(label, 0, 1)

    ranges = fit_normalization(table.X)
    X = _inputs(table.X, ranges, config.feature_indices)
    _check_finite(X)
    t = np.array([label is BinaryRole.LEADERSHIP for label in table.labels], dtype=float)
    if config.class_weights is not None:
        w_support, w_lead = config.class_weights
        sample_w = np.where(t == 1.0, w_lead, w_support)
    else:
        sample_w = np.ones_like(t)

    initial = init(config)
    theta = np.concatenate([np.ravel(getattr(initial, name)) for name in _PARAM_NAMES])
    params = _views(theta, initial)
    grad = np.empty_like(theta)
    g = _views(grad, initial)
    rng = np.random.default_rng(config.seed + 1)
    n, size, lr = len(t), config.batch_size, config.learning_rate
    batches = [slice(start, start + size) for start in range(0, n, size)]
    Y = np.empty(n)  # the epoch's probabilities, in shuffled order
    weight_sums = [0.0] * len(batches)
    loss_history: List[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        Xe, te, we = X[order], t[order], sample_w[order]
        for k, batch in enumerate(batches):
            Xb, tb, wb = Xe[batch], te[batch], we[batch]
            Z1, A1, Z2, A2, z3 = _layers(params, Xb)
            Yb = _probability(z3, out=Y[batch])

            # dL/dz3 for weighted mean BCE through the sigmoid
            weight_sums[k] = np.add.reduce(wb)
            d3 = (wb * (Yb - tb)) / weight_sums[k]
            d1, d2 = _backward(params, Z1, Z2, d3)

            np.matmul(d3, A2, out=g.W3)
            np.add.reduce(d3, out=g.b3)
            np.matmul(d2.T, A1, out=g.W2)
            np.add.reduce(d2, out=g.b2)
            np.matmul(d1.T, Xb, out=g.W1)
            np.add.reduce(d1, out=g.b1)
            grad *= lr
            theta -= grad

        losses = _weighted_bce(Y, te, we)
        epoch_loss = 0.0
        for batch, weight_sum in zip(batches, weight_sums):
            rows = losses[batch]
            epoch_loss += float(np.add.reduce(rows) / weight_sum) * len(rows)
        loss_history.append(epoch_loss / n)
    params.b3 = float(params.b3)
    return TrainedModel(params, ranges, config, loss_history)


def _inputs(raw: np.ndarray, ranges: NormalizationRanges, indices: Sequence[int]) -> np.ndarray:
    """Normalize a raw feature matrix and select the input columns."""
    return normalize_array(raw, ranges)[:, list(indices)]


def model_inputs(model: TrainedModel, raw: np.ndarray) -> np.ndarray:
    """The model's input matrix for a raw feature matrix (such as FeatureTable.X)."""
    return _inputs(raw, model.ranges, model.config.feature_indices)


def model_input(model: TrainedModel, features: FeatureVector) -> np.ndarray:
    """Normalize a raw feature vector and select the model's input columns."""
    return model_inputs(model, np.array([features.to_list()]))[0]


def predict_batch(model: TrainedModel, X: np.ndarray) -> List[BinaryRole]:
    """Predicted role for each row of a model input matrix (see model_inputs)."""
    return [
        BinaryRole.LEADERSHIP if y >= 0.5 else BinaryRole.SUPPORT
        for y in forward_batch(model.params, X)
    ]


def predict(model: TrainedModel, features: FeatureVector) -> BinaryRole:
    return predict_batch(model, model_input(model, features)[None, :])[0]


def save_model(model: TrainedModel, path) -> None:
    artifacts.write_json(path, {
        "schema_version": 1,
        "params": {name: np.asarray(getattr(model.params, name)).tolist() for name in _PARAM_NAMES},
        "ranges": model.ranges.to_dict(),
        "config": dataclasses.asdict(model.config),
        "loss_history": model.loss_history,
    })


def _array(value, shape: Tuple[int, ...]) -> np.ndarray:
    array = np.array(value, dtype=float)
    if array.shape != shape:
        raise ValueError(f"shape {array.shape}, expected {shape}")
    if not np.all(np.isfinite(array)):
        raise ValueError("not finite")
    return array


def model_from_json(data: dict) -> TrainedModel:
    """The model a save_model file holds; each weight array must have the shape
    that the config's feature count and hidden sizes give it, and every
    weight and bias must be finite."""
    cfg = data["config"]
    fields = {}
    for field in dataclasses.fields(TrainConfig):
        # a field whose default is None (class_weights) may be absent
        value = cfg[field.name] if field.default is not None else cfg.get(field.name)
        fields[field.name] = tuple(value) if isinstance(value, list) else value
    data["config"]  # read last, so a failed TrainConfig check is named `config`, not its last key
    config = TrainConfig(**fields)
    p = data["params"]
    params = NetworkParams(*(_array(p[name], shape)
                             for name, shape in zip(_PARAM_NAMES, _shapes(config))))
    params.b3 = float(params.b3)
    return TrainedModel(params, NormalizationRanges.from_dict(data["ranges"]), config,
                        list(data["loss_history"]))


def load_model(path) -> TrainedModel:
    return artifacts.read_json(path, decode=model_from_json)
