"""Attribute analyses of a schedule: pairwise Pearson r over integer-coded
columns and cosine similarity of hashed-n-gram column summaries.

Only ``scripts/attribute_analysis.py`` and the tests use this module, so no
CLI stage imports numpy through it.
"""

from __future__ import annotations

from datetime import date

import numpy as np

from . import Struct
from .knowledge import HashedNgramEmbedder
from .schedule import COL_FINISH, COL_START, Schedule, canonical_row
from .synthetic import SyntheticError

DEFAULT_ANALYSIS_ATTRIBUTES = (
    "Activity Status",
    "Level",
    "Area",
    "Discipline",
    "Zone",
    "Current Start",
    "Current Finish",
    "Project Phase",
    "Subcontractor",
    "Superintendent",
    "Predecessor Details",
    "Successor Details",
)


class TooFewRowsError(SyntheticError):
    pass


class EmptyColumnError(SyntheticError):
    pass


class AttributeMatrix(Struct):
    _fields = __slots__ = ("labels", "values", "kind", "constant_labels")

    def __init__(
        self,
        labels: tuple[str, ...],
        values: np.ndarray,
        kind: str,
        constant_labels: tuple[str, ...] = (),
    ):
        self.labels = labels
        self.values = values
        self.kind = kind
        self.constant_labels = constant_labels

    def render(self) -> str:
        lines = ["\t" + "\t".join(self.labels)]
        for label, row in zip(self.labels, self.values):
            lines.append(label + "\t" + "\t".join(f"{v:.4f}" for v in row))
        return "\n".join(lines) + "\n"


def _attribute_cells(schedule: Schedule, attribute: str) -> list[str]:
    cells = []
    for act in schedule.activities:
        row = canonical_row(schedule, act)
        if attribute not in row:
            raise EmptyColumnError(f"attribute {attribute!r} missing from schedule")
        cells.append(row[attribute])
    return cells


def _encode(attribute: str, cells: list[str]) -> np.ndarray:
    if attribute in (COL_START, COL_FINISH):
        return np.asarray([date.fromisoformat(c).toordinal() for c in cells], float)
    codes: dict[str, int] = {}
    out = []
    for cell in cells:
        if cell not in codes:
            codes[cell] = len(codes)  # first-appearance coding
        out.append(codes[cell])
    return np.asarray(out, dtype=float)


def pearson(xs: np.ndarray, ys: np.ndarray) -> float:
    """Plain Pearson r; 0.0 when either side is constant."""
    xd = xs - xs.mean()
    yd = ys - ys.mean()
    denom = float(np.sqrt(np.sum(xd * xd) * np.sum(yd * yd)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xd * yd) / denom)


def pearson_matrix(schedule: Schedule, attributes=DEFAULT_ANALYSIS_ATTRIBUTES) -> AttributeMatrix:
    """Pairwise Pearson r over integer-coded attribute columns."""
    if len(schedule.activities) < 2:
        raise TooFewRowsError("need at least 2 rows for correlation")
    labels = tuple(attributes)
    encoded = [_encode(a, _attribute_cells(schedule, a)) for a in labels]
    constant = tuple(
        label for label, col in zip(labels, encoded) if np.all(col == col[0])
    )
    k = len(labels)
    values = np.zeros((k, k))
    for i in range(k):
        values[i, i] = 1.0
        for j in range(i + 1, k):
            r = pearson(encoded[i], encoded[j])
            values[i, j] = values[j, i] = r
    return AttributeMatrix(labels, values, "pearson", constant)


def cosine_matrix(schedule: Schedule, attributes=DEFAULT_ANALYSIS_ATTRIBUTES) -> AttributeMatrix:
    """Pairwise cosine similarity of attribute summary embeddings.

    Each attribute is represented by its column name followed by its
    distinct values in first-appearance order.
    """
    embedder = HashedNgramEmbedder()
    labels = tuple(attributes)
    reps = []
    for attribute in labels:
        cells = _attribute_cells(schedule, attribute)
        distinct: list[str] = []
        seen = set()
        for cell in cells:
            if cell and cell not in seen:
                seen.add(cell)
                distinct.append(cell)
        if not distinct:
            raise EmptyColumnError(f"attribute {attribute!r} has no values to embed")
        reps.append(embedder.embed(attribute + " " + " ".join(distinct)))
    k = len(labels)
    values = np.zeros((k, k))
    for i in range(k):
        values[i, i] = 1.0
        for j in range(i + 1, k):
            sim = float(reps[i] @ reps[j])
            values[i, j] = values[j, i] = sim
    return AttributeMatrix(labels, values, "cosine")
