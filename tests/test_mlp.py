import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import feature_table
from teamroles.cli import main
from teamroles.dataset import ClassTooSmall, read_examples
from teamroles.features import InvalidFeatures, fit_normalization, normalize_array
from teamroles.mlp import (
    TrainConfig,
    TrainedModel,
    forward,
    forward_batch,
    init,
    input_gradient_batch,
    load_model,
    model_input,
    predict,
    save_model,
    train,
)
from teamroles.types import BinaryRole, FeatureVector


def small_params(seed=0, d=10):
    return init(TrainConfig(seed=seed, hidden_sizes=(8, 4), feature_indices=tuple(range(d))))


def synthetic_examples(n=200, seed=0, noise=0.0):
    """Linearly separable set: label depends on features 4 and 5."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        ratios = rng.uniform(0.0, 1.0, size=4)
        counts = rng.uniform(0.0, 20.0, size=6)
        signal = counts[0] + counts[1] - 20.0 + noise * rng.normal()
        label = BinaryRole.LEADERSHIP if signal > 0 else BinaryRole.SUPPORT
        rows.append((f"A{i}", f"W{i}", list(ratios) + list(counts), label))
    return feature_table(rows)


def feature_rows(table):
    """(FeatureVector, label) for each row of a table."""
    return [(FeatureVector.from_list(x), label) for x, label in zip(table.X, table.labels)]


def test_init_deterministic_and_shapes():
    config = TrainConfig(seed=5, hidden_sizes=(16, 8))
    a, b = init(config), init(config)
    assert a.W1.shape == (16, 10) and a.W2.shape == (8, 16) and a.W3.shape == (8,)
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
    assert np.all(a.b1 == 0) and np.all(a.b2 == 0) and a.b3 == 0.0


def test_init_seed_sensitive():
    assert not np.array_equal(init(TrainConfig(seed=1)).W1, init(TrainConfig(seed=2)).W1)


def test_forward_probability_range():
    params = small_params()
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = forward(params, rng.uniform(-5, 5, size=10))
        assert 0.0 < y < 1.0


def test_forward_rejects_non_finite():
    params = small_params()
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros(10)
        x[3] = bad
        with pytest.raises(InvalidFeatures):
            forward(params, x)
        with pytest.raises(InvalidFeatures):
            input_gradient_batch(params, x[None, :])[0]


def test_forward_batch_rejects_non_finite():
    params = small_params()
    for bad in (np.nan, np.inf, -np.inf):
        X = np.zeros((4, 10))
        X[2, 3] = bad
        with pytest.raises(InvalidFeatures):
            forward_batch(params, X)


def test_forward_batch_matches_scalar():
    params = small_params()
    X = np.random.default_rng(1).uniform(-2, 2, size=(30, 10))
    batch = forward_batch(params, X)
    scalar = np.array([forward(params, x) for x in X])
    assert np.allclose(batch, scalar, atol=1e-12)


def test_forward_extreme_inputs_no_overflow():
    params = small_params()
    y = forward(params, np.full(10, 1e6))
    assert 0.0 < y < 1.0 and np.isfinite(y)


def test_input_gradient_matches_finite_differences():
    """Central finite differences as the oracle for the analytic gradient."""
    params = small_params(seed=3)
    rng = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(20):
        x = rng.uniform(0.05, 1.0, size=10)  # away from ReLU kinks with prob ~1
        grad = input_gradient_batch(params, x[None, :])[0]
        for j in range(10):
            e = np.zeros(10)
            e[j] = eps
            numeric = (forward(params, x + e) - forward(params, x - e)) / (2 * eps)
            assert grad[j] == pytest.approx(numeric, abs=1e-6)


@settings(max_examples=100)
@given(arrays(np.float64, 10, elements=st.floats(min_value=-3, max_value=3)))
def test_input_gradient_finite(x):
    grad = input_gradient_batch(small_params(), x[None, :])[0]
    assert grad.shape == (10,)
    assert np.all(np.isfinite(grad))


def test_train_rejects_single_class():
    examples = feature_table(
        (f"A{i}", f"W{i}", [0.0] * 4 + [float(i)] * 6, BinaryRole.SUPPORT) for i in range(10)
    )
    with pytest.raises(ClassTooSmall, match="^too few Leadership rows: 0, need 1$"):
        train(examples)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(hidden_sizes=(0, 4))
    with pytest.raises(ValueError):
        TrainConfig(feature_indices=(1, 1, 2))
    for index in (-1, 10):
        with pytest.raises(ValueError, match="feature_indices"):
            TrainConfig(feature_indices=(0, index))
    for rate in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)


def test_train_loss_decreases():
    examples = synthetic_examples()
    model = train(examples, TrainConfig(seed=0, learning_rate=0.1))
    assert len(model.loss_history) == 20
    assert model.loss_history[-1] < model.loss_history[0]


def test_train_bit_identical_given_seed():
    examples = synthetic_examples()
    config = TrainConfig(seed=4, learning_rate=0.05)
    a, b = train(examples, config), train(examples, config)
    assert np.array_equal(a.params.W1, b.params.W1)
    assert np.array_equal(a.params.W3, b.params.W3)
    assert a.loss_history == b.loss_history


def test_train_seed_changes_model():
    examples = synthetic_examples()
    a = train(examples, TrainConfig(seed=1))
    b = train(examples, TrainConfig(seed=2))
    assert not np.array_equal(a.params.W1, b.params.W1)


def test_train_learns_separable_data():
    examples = synthetic_examples(seed=2)
    model = train(examples, TrainConfig(seed=0, learning_rate=0.5))
    correct = sum(1 for fv, label in feature_rows(examples) if predict(model, fv) is label)
    assert correct / len(examples) >= 0.9


def test_class_weights_shift_decision():
    examples = synthetic_examples(seed=5)
    heavy_lead = train(examples, TrainConfig(seed=0, learning_rate=0.3, class_weights=(1.0, 50.0)))
    heavy_supp = train(examples, TrainConfig(seed=0, learning_rate=0.3, class_weights=(50.0, 1.0)))
    rows = feature_rows(examples)
    n_lead_a = sum(1 for fv, _ in rows if predict(heavy_lead, fv) is BinaryRole.LEADERSHIP)
    n_lead_b = sum(1 for fv, _ in rows if predict(heavy_supp, fv) is BinaryRole.LEADERSHIP)
    assert n_lead_a > n_lead_b


def test_feature_subset_model():
    examples = synthetic_examples()
    config = TrainConfig(seed=0, feature_indices=tuple(range(8)), learning_rate=0.1)
    model = train(examples, config)
    assert model.params.W1.shape[1] == 8
    x = model_input(model, FeatureVector.from_list(examples.X[0]))
    assert x.shape == (8,)
    assert 0.0 < forward(model.params, x) < 1.0


def test_model_input_is_normalized():
    examples = synthetic_examples()
    model = train(examples, TrainConfig(seed=0))
    for fv, _ in feature_rows(examples)[:20]:
        x = model_input(model, fv)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)


def test_save_load_round_trip(tmp_path):
    examples = synthetic_examples(n=60)
    model = train(examples, TrainConfig(seed=9, epochs=3, class_weights=(1.0, 2.0)))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for name in ("W1", "b1", "W2", "b2", "W3", "b3"):
        assert np.array_equal(getattr(loaded.params, name), getattr(model.params, name))
    assert loaded.config == model.config
    assert loaded.ranges == model.ranges
    assert loaded.loss_history == model.loss_history
    for fv, _ in feature_rows(examples)[:10]:
        assert forward(loaded.params, model_input(loaded, fv)) == forward(
            model.params, model_input(model, fv)
        )


def test_model_file_without_class_weights_loads(tmp_path):
    model = train(synthetic_examples(n=40), TrainConfig(seed=1, epochs=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    del data["config"]["class_weights"]
    path.write_text(json.dumps(data))
    assert load_model(path).config == model.config


def test_save_model_byte_deterministic(tmp_path):
    model = train(synthetic_examples(n=40), TrainConfig(seed=1, epochs=2))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def train_reference(table, config=TrainConfig()):
    """The training loop `train` replaced, kept as its oracle: per step it
    gathers the batch by fancy indexing, clips with np.clip, takes the
    batch's loss before its update and rebinds every weight array."""
    ranges = fit_normalization(table.X)
    X = normalize_array(table.X, ranges)[:, list(config.feature_indices)]
    t = np.array([1.0 if label is BinaryRole.LEADERSHIP else 0.0 for label in table.labels])
    if config.class_weights is not None:
        w_support, w_lead = config.class_weights
        sample_w = np.where(t == 1.0, w_lead, w_support)
    else:
        sample_w = np.ones_like(t)

    params = init(config)
    rng = np.random.default_rng(config.seed + 1)
    n = len(table)
    loss_history = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            Xb, tb, wb = X[idx], t[idx], sample_w[idx]
            assert np.all(np.isfinite(Xb))

            Z1 = Xb @ params.W1.T + params.b1
            A1 = np.maximum(0.0, Z1)
            Z2 = A1 @ params.W2.T + params.b2
            A2 = np.maximum(0.0, Z2)
            z3 = A2 @ params.W3 + params.b3
            Y = np.clip(1.0 / (1.0 + np.exp(-np.clip(z3, -500.0, 500.0))), 1e-12, 1.0 - 1e-12)
            losses = -(tb * np.log(Y) + (1.0 - tb) * np.log(1.0 - Y))
            epoch_loss += float(np.sum(wb * losses) / np.sum(wb)) * len(idx)

            d3 = (wb * (Y - tb)) / np.sum(wb)
            d2 = d3[:, None] * params.W3[None, :] * (Z2 > 0)
            d1 = (d2 @ params.W2) * (Z1 > 0)
            lr = config.learning_rate
            params.W3 = params.W3 - lr * (d3 @ A2)
            params.b3 = params.b3 - lr * float(np.sum(d3))
            params.W2 = params.W2 - lr * (d2.T @ A1)
            params.b2 = params.b2 - lr * d2.sum(axis=0)
            params.W1 = params.W1 - lr * (d1.T @ Xb)
            params.b1 = params.b1 - lr * d1.sum(axis=0)
        loss_history.append(epoch_loss / n)
    return TrainedModel(params, ranges, config, loss_history)


def assert_same_model_file(table, config, tmp_path):
    save_model(train(table, config), tmp_path / "model.json")
    save_model(train_reference(table, config), tmp_path / "reference.json")
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


@pytest.fixture(scope="module")
def fixture_train(tmp_path_factory):
    """The offline pipeline's train.csv on the fixture corpus, as a table."""
    out = tmp_path_factory.mktemp("train")
    common = ["--output-dir", str(out), "--cache-dir", "tests/fixtures/cache", "--offline"]
    for stage in (["ingest", "--input", "tests/fixtures/corpus.csv"], ["label-rule"],
                  ["featurize"], ["split"]):
        assert main(stage + common) == 0, stage
    return read_examples(out / "train.csv")


@pytest.mark.parametrize(
    "config",
    [
        TrainConfig(),
        TrainConfig(seed=3, learning_rate=0.05, class_weights=(1.0, 2.5)),
        TrainConfig(seed=1, batch_size=7, epochs=4),
        TrainConfig(seed=2, batch_size=1, epochs=2),
        TrainConfig(seed=4, batch_size=10_000, epochs=6, feature_indices=(9, 0, 4)),
        TrainConfig(seed=5, epochs=5, feature_indices=tuple(range(8))),
        TrainConfig(seed=6, epochs=5, learning_rate=0.05, hidden_sizes=(5, 3)),
    ],
    ids=["defaults", "class-weights", "batch-not-dividing-n", "batch-1", "batch-over-n",
         "eight-features", "hidden-5-3"],
)
def test_train_writes_the_reference_loops_model(fixture_train, config, tmp_path):
    n = len(fixture_train)
    assert n % 7 and n < 10_000  # so each case is what its id says
    assert_same_model_file(fixture_train, config, tmp_path)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=50),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=3),
    st.one_of(st.none(), st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0))),
    st.sampled_from([0.3, 50.0]),  # 50 drives outputs to the clip at 1e-12 from 0 and 1
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([tuple(range(10)), tuple(range(8))]),
    st.sampled_from([(6, 5), (5, 3)]),
)
def test_train_matches_the_reference_loop_on_random_sets(
    tmp_path_factory, n, batch_size, epochs, class_weights, learning_rate, seed,
    feature_indices, hidden_sizes
):
    rng = np.random.default_rng(seed)
    X = np.hstack([rng.uniform(0.0, 1.0, (n, 4)), rng.exponential(5.0, (n, 6))])
    labels = [BinaryRole.LEADERSHIP, BinaryRole.SUPPORT]
    labels += [BinaryRole.LEADERSHIP if u < 0.5 else BinaryRole.SUPPORT for u in rng.random(n - 2)]
    table = feature_table(
        (f"A{i}", f"W{i}", x, label) for i, (x, label) in enumerate(zip(X.tolist(), labels))
    )
    config = TrainConfig(seed=seed, batch_size=batch_size, epochs=epochs,
                         learning_rate=learning_rate, hidden_sizes=hidden_sizes,
                         feature_indices=feature_indices, class_weights=class_weights)
    assert_same_model_file(table, config, tmp_path_factory.mktemp("random"))
