"""Seeded synthetic construction schedules plus attribute analyses.

Generation is acyclic by construction: nodes take positions in a random
permutation and edges only point forward, attaching within a bounded
window so long dependency chains emerge. Dates follow links (a successor
never starts before an FS predecessor finishes), and categorical
attributes draw from weighted taxonomies. Everything derives from one
seed, so equal params mean byte-identical schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from . import rng as prng
from .knowledge import HashedNgramEmbedder
from .schedule import (
    COL_FINISH,
    COL_START,
    Activity,
    DependencyLink,
    Schedule,
    canonical_row,
)

DEFAULT_DISCIPLINES = (
    ("CSA.Arch.Arch-D", 3.0),
    ("CSA.Arch.Metal", 3.0),
    ("CSA.Arch.RF", 2.0),
    ("CSA.Civil.Earthwork", 4.0),
    ("CSA.Struc.Concrete", 5.0),
    ("CSA.Struc.Modules", 4.0),
    ("CSA.Struc.Piers", 2.0),
    ("CSA.Struc.Steel", 5.0),
    ("CSA.Struc.Strut", 2.0),
    ("MEP.Mech.Dry", 3.0),
    ("MEP.Mech.Wet", 1.0),
    ("MEP.Proc.HP", 3.0),
    ("MEP.Proc.LP", 3.0),
    ("MEP.Proc.Vac", 2.0),
    ("MEP.Proc.Waste", 3.0),
    ("MEP.Proc.Water", 3.0),
)
DEFAULT_LEVELS = (("EQ", 2.0), ("UL", 3.0), ("SF", 4.0), ("RF", 1.0))
DEFAULT_AREAS = (("6E", 3.0), ("9E", 3.0), ("SU", 2.0), ("10E", 2.0))
DEFAULT_STATUSES = (("Not Started", 5.0), ("In Progress", 3.0), ("Completed", 2.0))
RELATION_MIX = (("FS", 0.80), ("SS", 0.10), ("FF", 0.08), ("SF", 0.02))

_PHASE_BY_STATUS = {
    "Completed": "Phase 1",
    "In Progress": "Phase 2",
    "Not Started": "Phase 3",
}

_NAME_VERBS = ("install", "erect", "rough-in", "pour", "fit-out", "test", "inspect")

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


class SyntheticError(Exception):
    pass


class InfeasibleParamsError(SyntheticError):
    pass


class TooFewRowsError(SyntheticError):
    pass


class EmptyColumnError(SyntheticError):
    pass


@dataclass(frozen=True)
class GeneratorParams:
    n_activities: int = 200
    disciplines: tuple = DEFAULT_DISCIPLINES
    levels: tuple = DEFAULT_LEVELS
    areas: tuple = DEFAULT_AREAS
    statuses: tuple = DEFAULT_STATUSES
    target_mean_degree: float = 3.86
    attach_window: int = 20
    seed: int = 42

    def __post_init__(self):
        if self.n_activities < 1:
            raise InfeasibleParamsError("need at least one activity")
        if self.target_mean_degree < 0:
            raise InfeasibleParamsError("target mean degree must be >= 0")
        # A single activity has no edges to sample, so the target is moot.
        if self.n_activities > 1 and self.target_mean_degree > self.n_activities - 1:
            raise InfeasibleParamsError(
                f"target degree {self.target_mean_degree} exceeds n-1"
            )
        for group in (self.disciplines, self.levels, self.areas, self.statuses):
            for _, w in group:
                if not w > 0:
                    raise InfeasibleParamsError("weights must be positive")
        if self.attach_window < 1:
            raise InfeasibleParamsError("attach window must be >= 1")


def _pick(gen: prng.Rng, table) -> str:
    return gen.weighted_choice([t[0] for t in table], [t[1] for t in table])


def generate_schedule(params: GeneratorParams) -> Schedule:
    gen = prng.derive(params.seed, "generate")
    n = params.n_activities
    ids = [f"A{i + 1:04d}" for i in range(n)]
    order = list(range(n))
    gen.shuffle(order)
    position = {node: pos for pos, node in enumerate(order)}

    # Forward-only edges keep the graph acyclic; the attach window keeps
    # chains long instead of scattering edges across the whole horizon.
    edges: list[tuple[int, int, str, int]] = []
    for pos, node in enumerate(order):
        available = list(range(pos + 1, min(pos + 1 + params.attach_window, n)))
        if not available:
            continue
        want = gen.poisson(params.target_mean_degree / 2.0)
        take = min(want, len(available))
        if take == 0:
            continue
        for succ_pos in sorted(gen.sample(available, take)):
            rel = _pick(gen, RELATION_MIX)
            lag = gen.randint(3) if rel == "FS" else 0
            edges.append((node, order[succ_pos], rel, lag))

    traits = []
    for i in range(n):
        discipline = _pick(gen, params.disciplines)
        status = _pick(gen, params.statuses)
        area = _pick(gen, params.areas)
        traits.append(
            {
                "discipline": discipline,
                "status": status,
                "area": area,
                "level": _pick(gen, params.levels),
                "zone": f"Z{gen.randint(4) + 1}",
                "duration": 1 + gen.randint(20),
                "slack": gen.randint(5),
                "verb": gen.choice(_NAME_VERBS),
            }
        )

    # Dates assigned in permutation order so every FS predecessor is dated
    # before its successors.
    base = date(2024, 1, 1)
    start_of: dict[int, date] = {}
    finish_of: dict[int, date] = {}
    preds_of: dict[int, list[tuple[int, str, int]]] = {i: [] for i in range(n)}
    for u, v, rel, lag in edges:
        preds_of[v].append((u, rel, lag))
    for node in order:
        earliest = base
        for pred, rel, lag in preds_of[node]:
            if rel == "FS":
                earliest = max(earliest, finish_of[pred] + timedelta(days=lag))
            elif rel == "SS":
                earliest = max(earliest, start_of[pred] + timedelta(days=lag))
        start = earliest + timedelta(days=traits[node]["slack"])
        start_of[node] = start
        finish_of[node] = start + timedelta(days=traits[node]["duration"])

    activities = []
    for i in range(n):
        t = traits[i]
        family = t["discipline"].split(".")[0]
        leaf = t["discipline"].split(".")[-1]
        activities.append(
            Activity(
                activity_id=ids[i],
                name=f"{leaf} {t['verb']} {t['area']}",
                status=t["status"],
                wbs=(t["area"], family, t["discipline"]),
                discipline=t["discipline"],
                level=t["level"],
                area=t["area"],
                zone=t["zone"],
                current_start=start_of[i],
                current_finish=finish_of[i],
                extra_attributes={
                    "Project Phase": _PHASE_BY_STATUS[t["status"]],
                    "Subcontractor": f"SUB-{t['discipline'].split('.')[1]}",
                    "Superintendent": f"SUPT-{t['area']}",
                },
            )
        )

    links = tuple(
        DependencyLink(ids[u], ids[v], rel, lag)
        for u, v, rel, lag in sorted(
            edges, key=lambda e: (position[e[0]], position[e[1]], e[2])
        )
    )
    return Schedule(
        activities=tuple(activities),
        links=links,
        source_label=f"synthetic(n={n}, seed={params.seed})",
    )


# --- attribute analyses -----------------------------------------------------------


@dataclass
class AttributeMatrix:
    labels: tuple[str, ...]
    values: np.ndarray
    kind: str
    constant_labels: tuple[str, ...] = ()

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
