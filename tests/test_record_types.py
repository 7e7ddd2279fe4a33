"""The contracts of the package's record types. Immutable records are
``NamedTuple``s; the classes that are mutable, validate what they are given
or keep a cache derive from ``schedkit.Struct`` and write their own
``__init__``. Both keep what frozen dataclasses gave: a record's fields
cannot be assigned, equal values are equal and hash alike, a path sorts by
its fields, each config rejects a bad value with its own error, and a
``Struct`` compares and shows its fields.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import pytest

from schedkit import Struct
from schedkit.alignment import AlignmentError, LossBreakdown, LossWeights
from schedkit.context import ContextBundle, ContextPieces, SamplerConfig, SequentialPath
from schedkit.gateway import GatewayConfig
from schedkit.graph import GraphStats, ScheduleGraph
from schedkit.knowledge import CHUNK_FIELDS, TERM_FIELDS, KnowledgeChunk, TermEntry
from schedkit.masked_eval import Completion, EvalInstance, MaskSpec, UnknownTaskKindError
from schedkit.preferences import PREFERENCE_FIELDS, PreferenceRecord
from schedkit.prompt_forge import TaskPrompt
from schedkit.records import record_fields
from schedkit.report import ScoreReport, TaskScore
from schedkit.schedule import Activity, DependencyLink, Schedule, ValidationReport, Violation
from schedkit.synthetic import GeneratorParams, InfeasibleParamsError

from conftest import chain_schedule

RECORDS = (
    Activity,
    DependencyLink,
    Violation,
    ValidationReport,
    ScheduleGraph,
    SequentialPath,
    ContextBundle,
    ContextPieces,
    Completion,
    TaskPrompt,
    PreferenceRecord,
    TermEntry,
    KnowledgeChunk,
    LossBreakdown,
)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_records_fields_cannot_be_assigned(cls):
    assert issubclass(cls, tuple) and cls.__bases__ == (tuple,)
    record = cls._make(range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
    with pytest.raises(AttributeError):
        record.other = "added"
    assert tuple(record) == tuple(range(len(cls._fields)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: SequentialPath("forward", ("A", "B", "C")),
        lambda: DependencyLink("A", "B", "SS", 2),
        lambda: ContextBundle(
            "B",
            frozenset({"A", "C"}),
            (1, ("P",)),
            frozenset({SequentialPath("forward", ("B", "C"))}),
            42,
        ),
    ],
    ids=["SequentialPath", "DependencyLink", "ContextBundle"],
)
def test_records_keep_value_equality_and_hashing(make):
    """Equal values give equal records with equal hashes, and the hash is
    that of the field tuple, as a frozen dataclass's was, so sets and
    frozensets of records iterate in the order they did."""
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, name) for name in a._fields))
    assert len({a, b}) == 1
    other = a._replace(**{a._fields[0]: "Z"})
    assert other != a and len({a, other}) == 2


def test_sequential_paths_sort_by_direction_then_nodes():
    paths = [
        SequentialPath("forward", ("A", "C")),
        SequentialPath("backward", ("B", "A")),
        SequentialPath("forward", ("A", "B", "C")),
        SequentialPath("backward", ("A",)),
    ]
    assert sorted(paths) == sorted(paths, key=lambda p: (p.direction, p.nodes))
    assert sorted(paths)[0] == SequentialPath("backward", ("A",))
    assert SequentialPath("backward", ("Z",)) < SequentialPath("forward", ("A",))


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: SamplerConfig(max_sequential_hops=17), ValueError, "max_sequential_hops capped at 16"),
        (lambda: SamplerConfig(max_wbs_levels=-1), ValueError, "sampler counts must be >= 0"),
        (lambda: SamplerConfig(paths_per_direction=-1), ValueError, "sampler counts must be >= 0"),
        (lambda: GatewayConfig(retry_limit=6), ValueError, r"retry_limit must be in \[0, 5\]"),
        (lambda: GatewayConfig(temperature=-0.5), ValueError, "temperature must be finite and >= 0, got -0.5"),
        (lambda: GatewayConfig(timeout_seconds=math.inf), ValueError, "timeout_seconds must be finite and > 0, got inf"),
        (lambda: GeneratorParams(n_activities=0), InfeasibleParamsError, "need at least one activity"),
        (lambda: LossWeights(alpha=math.nan), AlignmentError, "alpha must be finite and >= 0"),
        (lambda: LossWeights(beta=-1.0), AlignmentError, "beta must be finite and >= 0"),
        (lambda: MaskSpec("A", "XX", (), {}), UnknownTaskKindError, "unknown task kind 'XX'"),
    ],
)
def test_each_config_rejects_a_bad_value_with_its_error(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


def test_configs_take_their_fields_by_keyword_and_default_them():
    assert SamplerConfig() == SamplerConfig(3, 2, 5, 42)
    assert GatewayConfig(model_name="m").model_name == "m"
    assert GatewayConfig().retry_limit == 3
    assert GeneratorParams(seed=7) == GeneratorParams(200, 7)
    assert LossWeights() == LossWeights(0.5, 1.0)
    with pytest.raises(TypeError):
        SamplerConfig(rng_sed=1)


def test_a_struct_compares_and_shows_its_fields():
    score = TaskScore(3, 2, 1, 1)
    assert score == TaskScore(3, 2, 1, 1) != TaskScore(3, 1, 1, 1)
    assert score != (3, 2, 1, 1)
    assert repr(score) == "TaskScore(cells_total=3, cells_correct=2, rows_total=1, rows_correct=1)"
    assert repr(SamplerConfig()) == (
        "SamplerConfig(max_sequential_hops=3, max_wbs_levels=2, paths_per_direction=5, rng_seed=42)"
    )
    with pytest.raises(TypeError):
        hash(score)
    assert ScoreReport() == ScoreReport({}, {}, True)
    assert ScoreReport().per_task is not ScoreReport().per_task
    assert GraphStats().degree_histogram is not GraphStats().degree_histogram
    for cls in (Schedule, GraphStats, TaskScore, ScoreReport, SamplerConfig, GatewayConfig,
                GeneratorParams, LossWeights, MaskSpec, EvalInstance):
        assert issubclass(cls, Struct) and cls.__dictoffset__ == 0, cls  # slots, no __dict__


def test_an_instance_compares_without_its_encoded_prompt():
    mask = MaskSpec("A", "AP", ("Current Start",), {"Current Start": "2024-01-01"})
    inst = EvalInstance(mask, "sys", "user", "r", True, (True,))
    encoded = EvalInstance(mask, "sys", "user", "r", True, (True,), prompt_user_json='"user"')
    assert inst == encoded and "prompt_user_json" not in repr(encoded)
    encoded.parse_ok = False
    assert inst != encoded


def test_a_schedule_compares_its_fields_and_builds_its_index_once():
    a, b = chain_schedule(), chain_schedule()
    assert a == b
    assert a.index is a.index
    assert a == b  # the index built is no field
    assert a != Schedule(a.activities, a.links)  # another source label
    assert a != Schedule(a.activities[:2], a.links[:1], a.source_label)


def test_field_tables_come_from_the_records_annotations():
    assert TERM_FIELDS == (("term", str, False), ("definition", str, False))
    assert CHUNK_FIELDS == (
        ("doc_id", str, False),
        ("chunk_index", int, False),
        ("text", str, False),
        ("token_count", int, False),
    )
    assert [name for name, _, _ in PREFERENCE_FIELDS] == list(PreferenceRecord._fields)
    assert PREFERENCE_FIELDS[-1] == ("meta", dict, False)

    class Pair(NamedTuple):
        name: str
        counts: dict

    assert record_fields(Pair) == (("name", str, False), ("counts", dict, False))
