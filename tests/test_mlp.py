import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from teamroles.dataset import LabeledExample
from teamroles.mlp import (
    DegenerateTrainingSet,
    NonFiniteInput,
    TrainConfig,
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
    examples = []
    for i in range(n):
        ratios = rng.uniform(0.0, 1.0, size=4)
        counts = rng.uniform(0.0, 20.0, size=6)
        signal = counts[0] + counts[1] - 20.0 + noise * rng.normal()
        label = BinaryRole.LEADERSHIP if signal > 0 else BinaryRole.SUPPORT
        fv = FeatureVector.from_list(list(ratios) + list(counts))
        examples.append(LabeledExample(f"A{i}", f"W{i}", fv, label))
    return examples


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
        with pytest.raises(NonFiniteInput):
            forward(params, x)
        with pytest.raises(NonFiniteInput):
            input_gradient_batch(params, x[None, :])[0]


def test_forward_batch_rejects_non_finite():
    params = small_params()
    for bad in (np.nan, np.inf, -np.inf):
        X = np.zeros((4, 10))
        X[2, 3] = bad
        with pytest.raises(NonFiniteInput):
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
    examples = [
        LabeledExample(f"A{i}", f"W{i}", FeatureVector.from_list([0.0] * 4 + [float(i)] * 6),
                       BinaryRole.SUPPORT)
        for i in range(10)
    ]
    with pytest.raises(DegenerateTrainingSet):
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
    correct = sum(1 for ex in examples if predict(model, ex.features) is ex.label)
    assert correct / len(examples) >= 0.9


def test_class_weights_shift_decision():
    examples = synthetic_examples(seed=5)
    heavy_lead = train(examples, TrainConfig(seed=0, learning_rate=0.3, class_weights=(1.0, 50.0)))
    heavy_supp = train(examples, TrainConfig(seed=0, learning_rate=0.3, class_weights=(50.0, 1.0)))
    n_lead_a = sum(1 for ex in examples if predict(heavy_lead, ex.features) is BinaryRole.LEADERSHIP)
    n_lead_b = sum(1 for ex in examples if predict(heavy_supp, ex.features) is BinaryRole.LEADERSHIP)
    assert n_lead_a > n_lead_b


def test_feature_subset_model():
    examples = synthetic_examples()
    config = TrainConfig(seed=0, feature_indices=tuple(range(8)), learning_rate=0.1)
    model = train(examples, config)
    assert model.params.input_dim == 8
    x = model_input(model, examples[0].features)
    assert x.shape == (8,)
    assert 0.0 < forward(model.params, x) < 1.0


def test_model_input_is_normalized():
    examples = synthetic_examples()
    model = train(examples, TrainConfig(seed=0))
    for ex in examples[:20]:
        x = model_input(model, ex.features)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)


def test_save_load_round_trip(tmp_path):
    examples = synthetic_examples(n=60)
    model = train(examples, TrainConfig(seed=9, epochs=3, class_weights=(1.0, 2.0)))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.params.W1, model.params.W1)
    assert loaded.config == model.config
    assert loaded.ranges == model.ranges
    assert loaded.loss_history == model.loss_history
    for ex in examples[:10]:
        assert forward(loaded.params, model_input(loaded, ex.features)) == forward(
            model.params, model_input(model, ex.features)
        )


def test_save_model_byte_deterministic(tmp_path):
    model = train(synthetic_examples(n=40), TrainConfig(seed=1, epochs=2))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()
