"""Seeded synthetic construction schedules.

Generation is acyclic by construction: nodes take positions in a random
permutation and edges only point forward, attaching within a bounded
window so long dependency chains emerge. Dates follow links (a successor
never starts before an FS predecessor finishes), and categorical
attributes draw from weighted taxonomies. Everything derives from one
seed, so equal params mean byte-identical schedules.
"""

from __future__ import annotations

from datetime import date, timedelta
from types import MappingProxyType

from . import DataError, Struct
from . import rng as prng
from .schedule import Activity, DependencyLink, Schedule

DISCIPLINES = (
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
LEVELS = (("EQ", 2.0), ("UL", 3.0), ("SF", 4.0), ("RF", 1.0))
AREAS = (("6E", 3.0), ("9E", 3.0), ("SU", 2.0), ("10E", 2.0))
STATUSES = (("Not Started", 5.0), ("In Progress", 3.0), ("Completed", 2.0))
RELATION_MIX = (("FS", 0.80), ("SS", 0.10), ("FF", 0.08), ("SF", 0.02))
# Each activity draws Poisson(TARGET_MEAN_DEGREE / 2) successors, at most
# as many as follow it within ATTACH_WINDOW positions of the permutation.
TARGET_MEAN_DEGREE = 3.86
ATTACH_WINDOW = 20

_PHASE_BY_STATUS = {
    "Completed": "Phase 1",
    "In Progress": "Phase 2",
    "Not Started": "Phase 3",
}

# A generated activity's extra columns, in the order of its cells.
_EXTRA_COLUMNS = ("Project Phase", "Subcontractor", "Superintendent")

_NAME_VERBS = ("install", "erect", "rough-in", "pour", "fit-out", "test", "inspect")


class SyntheticError(DataError):
    pass


class InfeasibleParamsError(SyntheticError):
    pass


class GeneratorParams(Struct):
    _fields = __slots__ = ("n_activities", "seed")

    def __init__(self, n_activities: int = 200, seed: int = 42):
        if n_activities < 1:
            raise InfeasibleParamsError("need at least one activity")
        self.n_activities = n_activities
        self.seed = seed


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
        available = list(range(pos + 1, min(pos + 1 + ATTACH_WINDOW, n)))
        if not available:
            continue
        want = gen.poisson(TARGET_MEAN_DEGREE / 2.0)
        take = min(want, len(available))
        if take == 0:
            continue
        for succ_pos in sorted(gen.sample(available, take)):
            rel = _pick(gen, RELATION_MIX)
            lag = gen.randint(3) if rel == "FS" else 0
            edges.append((node, order[succ_pos], rel, lag))

    traits = []
    for i in range(n):
        discipline = _pick(gen, DISCIPLINES)
        status = _pick(gen, STATUSES)
        area = _pick(gen, AREAS)
        traits.append(
            {
                "discipline": discipline,
                "status": status,
                "area": area,
                "level": _pick(gen, LEVELS),
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
    extras = {}  # one read-only mapping per distinct content, by its cells
    for i in range(n):
        t = traits[i]
        family, trade, leaf = t["discipline"].split(".")
        cells = (_PHASE_BY_STATUS[t["status"]], f"SUB-{trade}", f"SUPT-{t['area']}")
        if cells not in extras:
            extras[cells] = MappingProxyType(dict(zip(_EXTRA_COLUMNS, cells)))
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
                extra_attributes=extras[cells],
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
