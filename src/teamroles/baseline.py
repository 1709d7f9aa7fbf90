"""Bag-of-words comparison track: TF-IDF vectorizer plus softmax regression.

Raw term counts weighted by the smoothed idf ln((1+N)/(1+df)) + 1 and
L2-normalized; the classifier is a three-class linear softmax model
trained by full-batch gradient descent.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from . import artifacts
from .errors import PipelineError
from .rules import _tokenize
from .types import ROLE_ORDER, RoleLabel


class EmptyCorpus(PipelineError):
    pass


class DimensionMismatch(PipelineError):
    pass


@dataclass(frozen=True)
class TfidfVocabulary:
    terms: Tuple[str, ...]  # index -> term, lexicographically sorted
    idf: Tuple[float, ...]
    max_features: int

    @property
    def index(self) -> Dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)


def tfidf_fit(corpus: Sequence[str], max_features: int = 2000) -> TfidfVocabulary:
    """Keep the top max_features terms by corpus frequency, ties lexicographic."""
    if not corpus:
        raise EmptyCorpus("cannot fit a vocabulary on an empty corpus")
    total_counts: Dict[str, int] = {}
    doc_freq: Dict[str, int] = {}
    for doc in corpus:
        tokens = _tokenize(doc)
        for token in tokens:
            total_counts[token] = total_counts.get(token, 0) + 1
        for token in set(tokens):
            doc_freq[token] = doc_freq.get(token, 0) + 1

    ranked = sorted(total_counts, key=lambda t: (-total_counts[t], t))[:max_features]
    terms = tuple(sorted(ranked))
    n = len(corpus)
    idf = tuple(np.log((1 + n) / (1 + doc_freq[t])) + 1.0 for t in terms)
    return TfidfVocabulary(terms=terms, idf=idf, max_features=max_features)


def tfidf_transform(vocab: TfidfVocabulary, text: str) -> np.ndarray:
    """Dense count-times-idf vector, L2-normalized (zero vector stays zero)."""
    vec = np.zeros(len(vocab))
    index = vocab.index
    for token in _tokenize(text):
        i = index.get(token)
        if i is not None:
            vec[i] += 1.0
    vec *= np.array(vocab.idf)
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


@dataclass
class SoftmaxModel:
    weights: np.ndarray  # (3, vocab)
    biases: np.ndarray  # (3,)
    classes: Tuple[RoleLabel, ...] = ROLE_ORDER


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_train(
    vectors: Sequence[np.ndarray],
    labels: Sequence[RoleLabel],
    epochs: int = 200,
    learning_rate: float = 1.0,
    seed: int = 0,
) -> SoftmaxModel:
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("vectors must form a 2-d matrix")
    n, d = X.shape
    k = len(ROLE_ORDER)
    class_index = {label: i for i, label in enumerate(ROLE_ORDER)}
    T = np.zeros((n, k))
    for row, label in enumerate(labels):
        T[row, class_index[label]] = 1.0

    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 0.01, size=(k, d))
    b = np.zeros(k)
    for _ in range(epochs):
        P = _softmax(X @ W.T + b)
        grad = (P - T) / n
        W -= learning_rate * (grad.T @ X)
        b -= learning_rate * grad.sum(axis=0)
    return SoftmaxModel(weights=W, biases=b)


def softmax_predict(model: SoftmaxModel, vector: np.ndarray) -> RoleLabel:
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (model.weights.shape[1],):
        raise DimensionMismatch(
            f"expected vector of length {model.weights.shape[1]}, got {vector.shape}"
        )
    scores = model.weights @ vector + model.biases
    # ties break to the lowest class index
    return model.classes[int(np.argmax(scores))]


def save_baseline(vocab: TfidfVocabulary, model: SoftmaxModel, path) -> None:
    data = {
        "schema_version": 1,
        "vocabulary": {
            "terms": list(vocab.terms),
            "idf": [float(v) for v in vocab.idf],
            "max_features": vocab.max_features,
        },
        "model": {
            "weights": model.weights.tolist(),
            "biases": model.biases.tolist(),
            "classes": [c.value for c in model.classes],
        },
    }
    artifacts.write_json(path, data, indent=None)


def load_baseline(path) -> Tuple[TfidfVocabulary, SoftmaxModel]:
    data = artifacts.read_json(path)
    vocab = TfidfVocabulary(
        terms=tuple(data["vocabulary"]["terms"]),
        idf=tuple(data["vocabulary"]["idf"]),
        max_features=data["vocabulary"]["max_features"],
    )
    model = SoftmaxModel(
        weights=np.array(data["model"]["weights"]),
        biases=np.array(data["model"]["biases"]),
        classes=tuple(RoleLabel.from_string(c) for c in data["model"]["classes"]),
    )
    return vocab, model
