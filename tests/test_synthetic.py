from __future__ import annotations

import numpy as np
import pytest

from schedkit.graph import build_graph, detect_cycles, degree_distribution
from schedkit.schedule import (
    Schedule,
    validate,
)
from schedkit.attributes import (
    AttributeMatrix,
    EmptyColumnError,
    TooFewRowsError,
    cosine_matrix,
    pearson,
    pearson_matrix,
)
from schedkit.synthetic import GeneratorParams, InfeasibleParamsError, generate_schedule

from conftest import csv_text, make_activity


def test_single_activity():
    sched = generate_schedule(GeneratorParams(n_activities=1))
    assert len(sched.activities) == 1
    assert sched.links == ()


def test_seed_determinism_byte_identical():
    a = csv_text(generate_schedule(GeneratorParams(n_activities=150, seed=42)))
    b = csv_text(generate_schedule(GeneratorParams(n_activities=150, seed=42)))
    assert a == b
    c = csv_text(generate_schedule(GeneratorParams(n_activities=150, seed=7)))
    assert a != c


def test_structural_targets_at_1000():
    sched = generate_schedule(GeneratorParams(n_activities=1000, seed=42))
    assert validate(sched).ok()
    graph = build_graph(sched)
    assert detect_cycles(graph) == []
    mean_degree = degree_distribution(graph).degree_mean
    assert 3.86 * 0.85 <= mean_degree <= 3.86 * 1.15


def test_dates_respect_fs_links():
    sched = generate_schedule(GeneratorParams(n_activities=300, seed=11))
    by_id = sched.by_id()
    for link in sched.links:
        pred = by_id[link.predecessor_id]
        succ = by_id[link.successor_id]
        if link.relation == "FS":
            assert (succ.current_start - pred.current_finish).days >= link.lag_days
        if link.relation == "SS":
            assert (succ.current_start - pred.current_start).days >= link.lag_days


def test_generated_schedules_parse_back():
    from schedkit.schedule import parse_schedule

    sched = generate_schedule(GeneratorParams(n_activities=60, seed=3))
    reparsed = parse_schedule(csv_text(sched))
    assert {a.activity_id for a in reparsed.activities} == {
        a.activity_id for a in sched.activities
    }
    assert set(reparsed.links) == set(sched.links)


def test_infeasible_params():
    with pytest.raises(InfeasibleParamsError):
        GeneratorParams(n_activities=0)


def test_wbs_tree_keyed_by_area_and_discipline():
    sched = generate_schedule(GeneratorParams(n_activities=40, seed=2))
    for act in sched.activities:
        assert len(act.wbs) == 3
        assert act.wbs[0] == act.area
        assert act.wbs[1] == act.discipline.split(".")[0]
        assert act.wbs[2] == act.discipline


# --- pearson ---------------------------------------------------------------------


def test_pearson_hand_computed_reversal():
    assert pearson(np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.0, 0.0])) == pytest.approx(
        -1.0, abs=1e-12
    )


def test_pearson_self_correlation():
    sched = generate_schedule(GeneratorParams(n_activities=50, seed=5))
    m = pearson_matrix(sched, ("Level", "Level"))
    assert m.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_pearson_aligned_copies():
    acts = tuple(
        make_activity(f"A{i}", level=lvl, extra={"Mirror": f"m-{lvl}"})
        for i, lvl in enumerate(["EQ", "UL", "EQ", "SF", "UL"])
    )
    sched = Schedule(acts, ())
    m = pearson_matrix(sched, ("Level", "Mirror"))
    assert m.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_pearson_matrix_shape_and_flags():
    sched = generate_schedule(GeneratorParams(n_activities=80, seed=5))
    attrs = ("Activity Status", "Project Phase", "Level", "Current Start", "Current Finish")
    m = pearson_matrix(sched, attrs)
    assert m.values.shape == (5, 5)
    assert np.allclose(m.values, m.values.T, atol=1e-9)
    assert np.all(m.values >= -1.0 - 1e-12) and np.all(m.values <= 1.0 + 1e-12)
    assert np.allclose(np.diag(m.values), 1.0)
    # Phase is a deterministic recode of status in generated data.
    assert m.values[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert m.constant_labels == ()


def test_pearson_needs_two_rows():
    sched = generate_schedule(GeneratorParams(n_activities=1))
    with pytest.raises(TooFewRowsError):
        pearson_matrix(sched, ("Level",))


def test_pearson_constant_column_flagged():
    acts = tuple(make_activity(f"A{i}", status="Same") for i in range(4))
    m = pearson_matrix(Schedule(acts, ()), ("Activity Status", "Level"))
    assert "Activity Status" in m.constant_labels
    assert m.values[0, 1] == 0.0


# --- cosine ----------------------------------------------------------------------


def test_cosine_matrix_properties():
    sched = generate_schedule(GeneratorParams(n_activities=60, seed=8))
    m = cosine_matrix(sched)
    assert m.kind == "cosine"
    assert np.allclose(m.values, m.values.T, atol=1e-9)
    assert np.allclose(np.diag(m.values), 1.0)
    assert np.all(m.values >= -1.0 - 1e-9) and np.all(m.values <= 1.0 + 1e-9)


def test_cosine_deterministic():
    sched = generate_schedule(GeneratorParams(n_activities=60, seed=8))
    a = cosine_matrix(sched, ("Discipline", "Zone"))
    b = cosine_matrix(sched, ("Discipline", "Zone"))
    assert a.values[0, 1] == b.values[0, 1]


def test_cosine_missing_attribute():
    sched = generate_schedule(GeneratorParams(n_activities=5, seed=8))
    with pytest.raises(EmptyColumnError):
        cosine_matrix(sched, ("Nonexistent Column",))


def test_matrix_render_is_square_table():
    sched = generate_schedule(GeneratorParams(n_activities=20, seed=8))
    m = cosine_matrix(sched, ("Level", "Area", "Zone"))
    lines = m.render().rstrip("\n").splitlines()
    assert len(lines) == 4
    assert lines[0].split("\t") == ["", "Level", "Area", "Zone"]
    assert lines[1].startswith("Level\t1.0000\t")
