"""Alignment losses, a trainable preference scorer, and polish statistics.

The loss calculus is a supervised cross-entropy term, a binary
cross-entropy preference term, and a pluggable context-rule term combined
as ``total = sft + alpha * cr + beta * pa``. A logistic scorer over the
shared embedding features exercises the full two-phase schedule (SFT
epochs, then total-loss epochs) at desk scale with exact gradients.
"""

from __future__ import annotations

import json
import math
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as prng
from .knowledge import HashedNgramEmbedder, count_tokens
from .masked_eval import PreferenceRecord
from .prompt_forge import POLISH, build_task_prompt

_EPS = 1e-12


class AlignmentError(Exception):
    pass


class DomainError(AlignmentError):
    pass


class DegenerateDataError(AlignmentError):
    pass


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.5
    beta: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise AlignmentError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class LossBreakdown:
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


def pa_loss_and_gradient(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float
) -> tuple[float, np.ndarray, float]:
    """Preference loss of the logistic scorer and its exact gradient."""
    z = X @ w + b
    p = _sigmoid(z)
    value = loss_pa(list(p), list(y))
    dz = (p - y) / len(y)
    return value, X.T @ dz, float(np.sum(dz))


def sft_loss_and_gradient(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float
) -> tuple[float, np.ndarray, float]:
    """Supervised term: mean -log p over hit-labeled examples only."""
    z = X @ w + b
    p = _sigmoid(z)
    value = loss_sft(list(p), list(y))
    dz = -(y * (1.0 - p)) / len(y)
    return value, X.T @ dz, float(np.sum(dz))


def zero_cr(probs, labels, metas) -> tuple[float, np.ndarray]:
    """Default context-rule term: constant zero, zero gradient."""
    return 0.0, np.zeros(len(probs))


def rule_label_cr(probs, labels, metas) -> tuple[float, np.ndarray]:
    """BCE against a rule-applicability flag carried in record meta.

    Examples without the flag contribute nothing; with no flagged example
    the term is zero.
    """
    flagged = [
        (i, int(bool(meta["rule_applicable"])))
        for i, meta in enumerate(metas)
        if meta is not None and "rule_applicable" in meta
    ]
    dz = np.zeros(len(probs))
    if not flagged:
        return 0.0, dz
    total = 0.0
    for i, target in flagged:
        p = min(max(probs[i], _EPS), 1.0 - _EPS)
        total += -(target * math.log(p) + (1 - target) * math.log(1.0 - p))
        dz[i] = (probs[i] - target) / len(flagged)
    return total / len(flagged), dz


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
        self.sft_epochs = 0
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
        with open(path, "wb") as fh:
            fh.write(struct.pack("<Id", self.dim, self.bias))
            fh.write(struct.pack(f"<{self.dim}d", *self.weights))

    @classmethod
    def load(cls, path: Path) -> "PreferenceScorer":
        raw = Path(path).read_bytes()
        dim, bias = struct.unpack_from("<Id", raw, 0)
        weights = np.asarray(struct.unpack_from(f"<{dim}d", raw, 12), dtype=np.float64)
        return cls(HashedNgramEmbedder(dim), weights, bias)


def _training_matrix(records: list[PreferenceRecord], scorer: PreferenceScorer):
    rows = []
    labels = []
    metas = []
    for rec in records:
        rows.append(scorer.features(rec.prompt_text, rec.chosen_text))
        labels.append(1.0)
        metas.append(rec.meta)
        rows.append(scorer.features(rec.prompt_text, rec.rejected_text))
        labels.append(0.0)
        metas.append(rec.meta)
    return np.stack(rows), np.asarray(labels), metas


def train_scorer(
    records: list[PreferenceRecord],
    weights: LossWeights = LossWeights(),
    epochs: int = 10,
    learning_rate: float = 1.0,
    seed: int = 42,
    *,
    epochs_sft: int = 10,
    cr_term=zero_cr,
) -> PreferenceScorer:
    """Two-phase full-batch gradient descent, deterministic under seed.

    Phase one minimizes the supervised term on chosen completions; phase
    two minimizes the combined total with the preference term over all
    examples. Each epoch logs the pre-update loss breakdown.
    """
    if len(records) < 2:
        raise DegenerateDataError("need at least 2 preference records")
    scorer = PreferenceScorer()
    gen = prng.derive(seed, "scorer-init")
    scorer.weights = np.asarray(
        [(gen.uniform() * 2.0 - 1.0) * 0.01 for _ in range(scorer.dim)]
    )
    scorer.bias = (gen.uniform() * 2.0 - 1.0) * 0.01
    X, y, metas = _training_matrix(records, scorer)
    scorer.training_features = X
    if len(set(y.tolist())) < 2:
        raise DegenerateDataError("both labels must be represented")

    def breakdown() -> LossBreakdown:
        p = _sigmoid(X @ scorer.weights + scorer.bias)
        sft = loss_sft(list(p), list(y))
        cr, _ = cr_term(p, y, metas)
        pa = loss_pa(list(p), list(y))
        return loss_total(sft, cr, pa, weights)

    for _ in range(epochs_sft):
        scorer.training_log.append(breakdown())
        _, gw, gb = sft_loss_and_gradient(X, y, scorer.weights, scorer.bias)
        scorer.weights = scorer.weights - learning_rate * gw
        scorer.bias -= learning_rate * gb
    scorer.sft_epochs = epochs_sft

    for _ in range(epochs):
        scorer.training_log.append(breakdown())
        _, gw_s, gb_s = sft_loss_and_gradient(X, y, scorer.weights, scorer.bias)
        p = _sigmoid(X @ scorer.weights + scorer.bias)
        _, dz_cr = cr_term(p, y, metas)
        _, gw_p, gb_p = pa_loss_and_gradient(X, y, scorer.weights, scorer.bias)
        gw = gw_s + weights.alpha * (X.T @ dz_cr) + weights.beta * gw_p
        gb = gb_s + weights.alpha * float(np.sum(dz_cr)) + weights.beta * gb_p
        scorer.weights = scorer.weights - learning_rate * gw
        scorer.bias -= learning_rate * gb
    scorer.training_log.append(breakdown())
    return scorer


def ranking_accuracy(
    scorer: PreferenceScorer,
    records: list[PreferenceRecord],
    features: np.ndarray | None = None,
) -> float:
    """Share of records whose chosen completion outscores the rejected one.

    ``features`` are the records' rows in training order (chosen, then
    rejected, per record), such as ``scorer.training_features`` after
    ``train_scorer(records)``; without them every pair is embedded again.
    Each row is scored on its own, exactly as ``PreferenceScorer.score``.
    """
    if not records:
        return 0.0
    if features is None:
        features = _training_matrix(records, scorer)[0]
    hits = sum(
        1
        for i in range(len(records))
        if scorer.score_features(features[2 * i]) > scorer.score_features(features[2 * i + 1])
    )
    return hits / len(records)


# --- context polishing -----------------------------------------------------------


class ContextLengthStats:
    """Token-length samples before/after polishing, grouped by task kind."""

    def __init__(self):
        self.raw_lengths: dict[str, list[int]] = {}
        self.polished_lengths: dict[str, list[int]] = {}
        self._lock = threading.Lock()

    def add(self, kind: str, raw_tokens: int, polished_tokens: int) -> None:
        with self._lock:
            self.raw_lengths.setdefault(kind, []).append(raw_tokens)
            self.polished_lengths.setdefault(kind, []).append(polished_tokens)

    def _samples(self, kind: str, which: str) -> list[int]:
        table = self.raw_lengths if which == "raw" else self.polished_lengths
        return table.get(kind, [])

    def mean(self, kind: str, which: str = "raw") -> float:
        samples = self._samples(kind, which)
        return sum(samples) / len(samples) if samples else 0.0

    def median(self, kind: str, which: str = "raw") -> float:
        samples = sorted(self._samples(kind, which))
        if not samples:
            return 0.0
        mid = len(samples) // 2
        if len(samples) % 2:
            return float(samples[mid])
        return (samples[mid - 1] + samples[mid]) / 2.0

    def histogram(self, kind: str, which: str = "raw") -> dict[int, int]:
        hist: dict[int, int] = {}
        for v in self._samples(kind, which):
            hist[v] = hist.get(v, 0) + 1
        return dict(sorted(hist.items()))

    def to_json(self) -> str:
        payload = {
            "raw": {
                k: {
                    "samples": v,
                    "mean": self.mean(k, "raw"),
                    "median": self.median(k, "raw"),
                }
                for k, v in sorted(self.raw_lengths.items())
            },
            "polished": {
                k: {
                    "samples": v,
                    "mean": self.mean(k, "polished"),
                    "median": self.median(k, "polished"),
                }
                for k, v in sorted(self.polished_lengths.items())
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def polish_context(
    gateway, task_kind: str, raw_text: str, stats: ContextLengthStats
) -> str:
    """Send raw prompt sections through the polishing prompt; track lengths."""
    prompt = build_task_prompt(POLISH, raw_text)
    polished = gateway.complete(prompt.system_text, prompt.user_text)
    stats.add(task_kind, count_tokens(raw_text), count_tokens(polished))
    return polished
