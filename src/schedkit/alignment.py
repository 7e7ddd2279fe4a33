"""Alignment losses and a trainable preference scorer.

The loss calculus is a supervised cross-entropy term, a binary
cross-entropy preference term, and a context-rule term combined as
``total = sft + alpha * cr + beta * pa``. No stage labels which rules apply
to a record, so the scorer trains with ``cr`` = 0. A logistic scorer over
the shared embedding features exercises the full two-phase schedule (SFT
epochs, then total-loss epochs) at desk scale with exact gradients.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Collection, NamedTuple

import numpy as np

from . import DataError, Struct, streamed
from . import rng as prng
from .knowledge import HashedNgramEmbedder
from .preferences import PreferenceRecord

_EPS = 1e-12


def __getattr__(name: str):
    """``polish_context`` and ``ContextLengthStats`` of the numpy-free
    ``polish`` module, which the benchmark's tracer looks up here. They are
    loaded when first asked for, so ``train-scorer`` loads neither
    ``polish`` nor the gateway it imports."""
    if name in ("polish_context", "ContextLengthStats"):
        from . import polish

        return getattr(polish, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class AlignmentError(DataError):
    pass


class DomainError(AlignmentError):
    pass


class DegenerateDataError(AlignmentError):
    pass


class LossWeights(Struct):
    _fields = __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float = 0.5, beta: float = 1.0):
        for name, v in (("alpha", alpha), ("beta", beta)):
            if not math.isfinite(v) or v < 0:
                raise AlignmentError(f"{name} must be finite and >= 0")
        self.alpha = alpha
        self.beta = beta


class LossBreakdown(NamedTuple):
    l_sft: float
    l_cr: float
    l_pa: float
    l_total: float


def loss_sft(probs, labels) -> float:
    """Mean negative log-likelihood over indicator-weighted examples."""
    if len(probs) != len(labels) or not probs:
        raise DomainError("probs and labels must be equal-length, non-empty")
    total = 0.0
    for p, y in zip(probs, labels):
        if y:
            if p <= 0:
                raise DomainError(f"probability {p} outside (0, 1] for a hit label")
            total += -math.log(p)
    return total / len(probs)


def loss_pa(probs, labels) -> float:
    """Binary cross-entropy with epsilon clamping at the boundaries."""
    if len(probs) != len(labels) or not probs:
        raise DomainError("probs and labels must be equal-length, non-empty")
    total = 0.0
    for p, y in zip(probs, labels):
        p = min(max(p, _EPS), 1.0 - _EPS)
        total += -(y * math.log(p) + (1 - y) * math.log(1.0 - p))
    return total / len(probs)


def loss_total(l_sft: float, l_cr: float, l_pa: float, weights: LossWeights) -> LossBreakdown:
    for name, v in (("l_sft", l_sft), ("l_cr", l_cr), ("l_pa", l_pa)):
        if not math.isfinite(v) or v < 0:
            raise AlignmentError(f"{name} must be finite and >= 0")
    return LossBreakdown(
        l_sft=l_sft,
        l_cr=l_cr,
        l_pa=l_pa,
        l_total=l_sft + weights.alpha * l_cr + weights.beta * l_pa,
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _pa_gradient(X: np.ndarray, y: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, float]:
    """The preference term's gradient in the weights and the bias, where
    the logistic scorer gives the probabilities ``p``."""
    dz = (p - y) / len(y)
    return X.T @ dz, float(np.sum(dz))


def _sft_gradient(X: np.ndarray, y: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, float]:
    """The supervised term's (mean -log p over hit-labeled examples only)
    gradient in the weights and the bias, at the probabilities ``p``."""
    dz = -(y * (1.0 - p)) / len(y)
    return X.T @ dz, float(np.sum(dz))


def pa_loss_and_gradient(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float
) -> tuple[float, np.ndarray, float]:
    """Preference loss of the logistic scorer and its exact gradient, as
    ``train_scorer`` takes it."""
    p = _sigmoid(X @ w + b)
    return (loss_pa(list(p), list(y)), *_pa_gradient(X, y, p))


class PreferenceScorer:
    """Logistic scorer over embed(prompt + completion) features."""

    def __init__(self, embedder=None, weights=None, bias: float = 0.0):
        self.embedder = embedder or HashedNgramEmbedder()
        self.dim = self.embedder.dim
        self.weights = (
            np.zeros(self.dim) if weights is None else np.asarray(weights, dtype=np.float64)
        )
        if self.weights.shape != (self.dim,):
            raise AlignmentError(
                f"weight vector must have dimension {self.dim}, got {self.weights.shape}"
            )
        self.bias = float(bias)
        self.training_log: list[LossBreakdown] = []
        # Feature rows train_scorer fitted on, for ranking_accuracy.
        self.training_features: np.ndarray | None = None

    def features(self, prompt_text: str, completion_text: str) -> np.ndarray:
        return self.embedder.embed(prompt_text + "\n" + completion_text)

    def score(self, prompt_text: str, completion_text: str) -> float:
        return self.score_features(self.features(prompt_text, completion_text))

    def score_features(self, x: np.ndarray) -> float:
        z = float(x @ self.weights + self.bias)
        return float(_sigmoid(np.array([z]))[0])

    def save(self, path: Path) -> None:
        with streamed(path, "wb") as fh:
            fh.write(struct.pack("<Id", self.dim, self.bias))
            fh.write(struct.pack(f"<{self.dim}d", *self.weights))

    @classmethod
    def load(cls, path: Path) -> "PreferenceScorer":
        raw = Path(path).read_bytes()
        dim, bias = struct.unpack_from("<Id", raw, 0)
        weights = np.asarray(struct.unpack_from(f"<{dim}d", raw, 12), dtype=np.float64)
        return cls(HashedNgramEmbedder(dim), weights, bias)


def _training_matrix(records: Collection[PreferenceRecord], scorer: PreferenceScorer):
    """Each record's chosen row, then its rejected row, written into one
    matrix allocated at its final size as the records are iterated once;
    and the labels of the rows written.

    Iterating must yield exactly ``len(records)`` records. A preference
    file that changed between its count and its read, or a pipe that the
    count drained, does not, and raises ``AlignmentError`` naming the file
    before a row is left unwritten or one is written past the end.
    """
    n = len(records)
    X = np.empty((2 * n, scorer.dim))
    read = 0
    for rec in records:
        if read == n:
            read += 1  # one more than counted
            break
        # Both rows equal ``scorer.features``'s; the prompt is counted once.
        X[2 * read], X[2 * read + 1] = scorer.embedder.embed_joined(
            rec.prompt_text, (rec.chosen_text, rec.rejected_text)
        )
        read += 1
    if read != n:
        source = getattr(records, "path", "preference records")
        got = read if read < n else f"more than {n}"
        raise AlignmentError(
            f"{source}: {n} record(s) counted, then {got} read; it changed between"
            " the two reads, or is a pipe, which cannot be read twice"
        )
    return X, np.asarray([1.0, 0.0] * read)


def train_scorer(
    records: Collection[PreferenceRecord],
    weights: LossWeights = LossWeights(),
    epochs: int = 10,
    learning_rate: float = 1.0,
    seed: int = 42,
    *,
    epochs_sft: int = 10,
) -> PreferenceScorer:
    """Two-phase full-batch gradient descent, deterministic under seed.

    Phase one minimizes the supervised term on chosen completions; phase
    two minimizes the combined total with the preference term over all
    examples. Each epoch logs the pre-update loss breakdown, whose
    context-rule term is 0, and takes its gradients from one forward pass.
    ``records`` is counted, then iterated once, so a
    ``preferences.PreferenceStore`` is read from disk and never held.
    """
    scorer = PreferenceScorer()
    gen = prng.derive(seed, "scorer-init")
    scorer.weights = np.asarray(
        [(gen.uniform() * 2.0 - 1.0) * 0.01 for _ in range(scorer.dim)]
    )
    scorer.bias = (gen.uniform() * 2.0 - 1.0) * 0.01
    X, y = _training_matrix(records, scorer)
    scorer.training_features = X
    if len(y) < 4:  # two labelled rows per record read
        raise DegenerateDataError("need at least 2 preference records")
    if len(set(y.tolist())) < 2:
        raise DegenerateDataError("both labels must be represented")

    labels = list(y)

    def log(p: np.ndarray) -> None:
        probs = list(p)
        scorer.training_log.append(
            loss_total(loss_sft(probs, labels), 0.0, loss_pa(probs, labels), weights)
        )

    for epoch in range(epochs_sft + epochs):
        p = _sigmoid(X @ scorer.weights + scorer.bias)
        log(p)
        gw, gb = _sft_gradient(X, y, p)
        if epoch >= epochs_sft:  # phase two adds the preference term
            gw_p, gb_p = _pa_gradient(X, y, p)
            gw, gb = gw + weights.beta * gw_p, gb + weights.beta * gb_p
        scorer.weights = scorer.weights - learning_rate * gw
        scorer.bias -= learning_rate * gb
    log(_sigmoid(X @ scorer.weights + scorer.bias))
    return scorer


def ranking_accuracy(scorer: PreferenceScorer, features: np.ndarray) -> float:
    """Share of pairs whose chosen row outscores the rejected one.

    ``features`` holds each pair's rows in training order (chosen, then
    rejected), such as ``scorer.training_features`` after ``train_scorer``.
    Each row is scored on its own, exactly as ``PreferenceScorer.score``.
    """
    pairs = len(features) // 2
    if not pairs:
        return 0.0
    hits = sum(
        1
        for i in range(pairs)
        if scorer.score_features(features[2 * i]) > scorer.score_features(features[2 * i + 1])
    )
    return hits / pairs
