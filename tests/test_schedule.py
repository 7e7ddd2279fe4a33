from __future__ import annotations

import csv
import io
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedkit import schedule as sm
from schedkit.cli import _read_schedule, main
from schedkit.schedule import (
    COL_FINISH,
    COL_START,
    DanglingReferenceError,
    DependencyLink,
    DuplicateIdError,
    MalformedDateError,
    MalformedDependencyError,
    MissingColumnError,
    Schedule,
    ScheduleError,
    canonical_row,
    duration_days,
    parse_dependency_cell,
    parse_schedule,
    validate,
)

from conftest import csv_text, make_activity, records_text

HEADER = (
    "Activity ID,Activity Name,Activity Status,WBS,Discipline,Level,Area,Zone,"
    "Current Start,Current Finish,Predecessor Details,Successor Details"
)


def row(
    aid: str,
    start: str = "2024-01-01",
    finish: str = "2024-01-08",
    pred: str = "",
    succ: str = "",
    wbs: str = "P.A",
) -> str:
    return (
        f"{aid},Task {aid},Not Started,{wbs},CSA.Struc.Steel,SF,6E,,"
        f"{start},{finish},{pred},{succ}"
    )


def test_single_row_no_links():
    sched = parse_schedule("\n".join([HEADER, row("A1")]))
    assert len(sched.activities) == 1
    assert sched.links == ()


def test_predecessor_cell_grammar_hand_trace():
    # "A100:FS+2" on row A200 reads: A100 precedes A200, FS relation, lag 2.
    text = "\n".join([HEADER, row("A100"), row("A200", pred="A100:FS+2")])
    sched = parse_schedule(text)
    assert sched.links == (DependencyLink("A100", "A200", "FS", 2),)


def test_grammar_defaults_and_negative_lag():
    assert parse_dependency_cell("A100", row=2) == [("A100", "FS", 0)]
    assert parse_dependency_cell("A:SS-3;B:FF", row=2) == [
        ("A", "SS", -3),
        ("B", "FF", 0),
    ]


def test_bad_relation_rejected_at_parse():
    with pytest.raises(MalformedDependencyError):
        parse_dependency_cell("A100:XX+1", row=2)
    with pytest.raises(MalformedDependencyError):
        parse_dependency_cell("A100:FS+x", row=2)


def test_defects_are_raised_in_row_order(tmp_path, capsys):
    """A bad dependency cell on row 3 is raised before a bad date on row 4,
    though links are resolved only once every row is read; ingest exits 2
    naming row 3."""
    text = "\n".join([HEADER, row("A"), row("B", pred="A:XX"), row("C", finish="2024-13-01")])
    with pytest.raises(MalformedDependencyError, match="^row 3: bad dependency cell 'A:XX': "):
        parse_schedule(text)
    path = tmp_path / "rows.csv"
    path.write_text(text + "\n", "utf-8")
    assert main(["--out", str(tmp_path / "o"), "ingest", "--schedule", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "data error: row 3: bad dependency cell 'A:XX': unknown relation 'XX'\n"


def test_date_ordering_is_a_parse_error():
    text = "\n".join([HEADER, row("A1", start="2024-03-02", finish="2024-03-01")])
    with pytest.raises(MalformedDateError):
        parse_schedule(text)


def test_missing_mandatory_column():
    header = HEADER.replace("Current Finish,", "")
    with pytest.raises(MissingColumnError) as err:
        parse_schedule("\n".join([header, "x"]))
    assert "Current Finish" in str(err.value)


def test_duplicate_id_raises():
    with pytest.raises(DuplicateIdError):
        parse_schedule("\n".join([HEADER, row("A1"), row("A1")]))


def test_dangling_reference_raises():
    with pytest.raises(DanglingReferenceError):
        parse_schedule("\n".join([HEADER, row("A1", pred="ZZZ")]))


def test_tab_separated_autodetect():
    text = "\n".join(ln.replace(",", "\t") for ln in [HEADER, row("A1")])
    sched = parse_schedule(text)
    assert sched.activities[0].activity_id == "A1"


def test_unknown_columns_land_in_extras():
    header = HEADER + ",Project Phase,Subcontractor"
    text = "\n".join([header, row("A1") + ",Phase 2,SUB-7"])
    act = parse_schedule(text).activities[0]
    assert act.extra_attributes == {"Project Phase": "Phase 2", "Subcontractor": "SUB-7"}


def test_a_repeated_header_keeps_its_first_column():
    """A later column under a name already seen, canonical or not, is
    dropped: the canonical row shows the value the activity holds, and the
    serialized schedule parses back to the same schedule."""
    header = HEADER + ",Activity Status,Phase,Phase"
    sched = parse_schedule("\n".join([header, row("A1") + ",Completed,p1,p2"]))
    act = sched.activities[0]
    assert (act.status, act.extra_attributes) == ("Not Started", {"Phase": "p1"})
    assert canonical_row(sched, act)["Activity Status"] == "Not Started"
    assert parse_schedule(csv_text(sched)) == sched


def test_rows_with_equal_extra_cells_share_one_read_only_mapping():
    """Each distinct row of extra cells is one read-only mapping, and a
    schedule without extras shares one empty one; the schedule serializes
    as it did with a dict per activity."""
    header = HEADER + ",Project Phase,Subcontractor"
    cells = ["Phase 1,SUB-1", "Phase 2,SUB-1", "Phase 1,SUB-1", "Phase 2,SUB-1", ",SUB-1"]
    text = "\n".join([header, *(row(f"A{i}") + f",{c}" for i, c in enumerate(cells))])
    sched = parse_schedule(text)
    extras = [act.extra_attributes for act in sched.activities]
    assert [dict(e) for e in extras] == [
        dict(zip(("Project Phase", "Subcontractor"), c.split(","))) for c in cells
    ]
    assert extras[0] is extras[2] and extras[1] is extras[3]
    assert len({id(e) for e in extras}) == 3
    assert extras[0]["Subcontractor"] is extras[1]["Subcontractor"]
    with pytest.raises(TypeError):
        extras[0]["Project Phase"] = "Phase 3"
    assert dict(extras[2]) == {"Project Phase": "Phase 1", "Subcontractor": "SUB-1"}

    plain = Schedule(
        tuple(act._replace(extra_attributes=dict(act.extra_attributes)) for act in sched.activities),
        sched.links,
    )
    assert csv_text(sched) == csv_text(plain)
    assert records_text(sched) == records_text(plain)

    bare = parse_schedule("\n".join([HEADER, row("A1"), row("A2")]))
    assert bare.activities[0].extra_attributes is bare.activities[1].extra_attributes
    assert bare.activities[0].extra_attributes is sm.NO_EXTRAS
    assert sm.Activity(*bare.activities[0][:10]).extra_attributes is sm.NO_EXTRAS
    with pytest.raises(TypeError):
        sm.NO_EXTRAS["Phase"] = "p1"


def test_row_errors_come_before_link_errors():
    """Every row is read before any link is checked: a bad date in row 5
    is reported although row 3 names an unknown activity."""
    text = "\n".join(
        [HEADER, row("A"), row("B", pred="ZZZ"), row("C"), row("D", finish="2024-13-01")]
    )
    with pytest.raises(MalformedDateError, match="row 5"):
        parse_schedule(text)
    with pytest.raises(DanglingReferenceError, match="row 3"):
        parse_schedule(text.replace("2024-13-01", "2024-01-08"))


def test_parsed_schedule_holds_each_distinct_value_once():
    """Equal cell values, WBS segments and WBS paths of a parsed schedule
    are one object, and each link's endpoints are its activities' own id
    strings."""
    from schedkit.synthetic import GeneratorParams, generate_schedule

    text = csv_text(generate_schedule(GeneratorParams(n_activities=300, seed=1)))
    sched = parse_schedule(text)
    values = [
        (attr, getattr(act, attr))
        for act in sched.activities
        for attr in ("status", "discipline", "level", "area", "wbs")
    ]
    values += [("segment", seg) for act in sched.activities for seg in act.wbs]
    values += [("relation", link.relation) for link in sched.links]
    first: dict = {}
    for key in values:
        assert first.setdefault(key, key[1]) is key[1], key
    assert len(first) < len(values) / 10  # the values do repeat
    ids = {act.activity_id: act.activity_id for act in sched.activities}
    assert sched.links
    for link in sched.links:
        assert link.predecessor_id is ids[link.predecessor_id]
        assert link.successor_id is ids[link.successor_id]


# --- validate ---------------------------------------------------------------


def test_validate_clean_chain_is_empty(chain):
    assert validate(chain).ok()


def test_validate_duplicate_id_reported_once():
    acts = (make_activity("A1"), make_activity("A1"))
    report = validate(Schedule(acts, ()))
    kinds = [v.kind for v in report.violations]
    assert kinds == ["DuplicateId"]


def test_validate_dangling_link():
    sched = Schedule((make_activity("A1"),), (DependencyLink("A1", "ZZZ"),))
    report = validate(sched)
    assert [v.kind for v in report.violations] == ["DanglingReference"]


def test_validate_is_pure(chain):
    assert validate(chain) == validate(chain)


# --- duration ---------------------------------------------------------------


def test_duration_identity():
    act = make_activity("A", start=date(2024, 1, 1), finish=date(2024, 1, 1))
    assert duration_days(act) == 0


def test_duration_week():
    act = make_activity("A", start=date(2024, 1, 1), finish=date(2024, 1, 8))
    assert duration_days(act) == 7


def test_duration_across_leap_day():
    # Civil calendar: 2024-02-27 -> 28 -> 29 -> 03-01 -> 03-02 is 4 steps.
    act = make_activity("A", start=date(2024, 2, 27), finish=date(2024, 3, 2))
    assert duration_days(act) == 4


# --- serialization round trip ------------------------------------------------

_ids = st.text(
    alphabet="ABCDEFGHJKMNPQRSTUVWXYZ0123456789_-",
    min_size=1,
    max_size=6,
)
_cell = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" -_/"
    ),
    max_size=12,
).map(str.strip)


@st.composite
def schedules(draw) -> Schedule:
    n = draw(st.integers(min_value=1, max_value=6))
    ids = draw(
        st.lists(_ids, min_size=n, max_size=n, unique=True),
    )
    acts = []
    for aid in ids:
        start_off = draw(st.integers(min_value=0, max_value=60))
        dur = draw(st.integers(min_value=0, max_value=30))
        start = date(2024, 1, 1).fromordinal(date(2024, 1, 1).toordinal() + start_off)
        finish = start.fromordinal(start.toordinal() + dur)
        wbs_depth = draw(st.integers(min_value=1, max_value=3))
        wbs = tuple(
            draw(st.text(alphabet="PQRSTUV", min_size=1, max_size=2))
            for _ in range(wbs_depth)
        )
        extra_val = draw(_cell)
        acts.append(
            make_activity(
                aid,
                name=draw(_cell) or "task",
                wbs=wbs,
                zone=draw(st.sampled_from([None, "Z1", "Z2"])),
                start=start,
                finish=finish,
                extra={"Project Phase": extra_val} if draw(st.booleans()) else {},
            )
        )
    links = []
    seen = set()
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        pred = draw(st.sampled_from(ids))
        succ = draw(st.sampled_from(ids))
        rel = draw(st.sampled_from(["FS", "SS", "FF", "SF"]))
        if pred == succ or (pred, succ, rel) in seen:
            continue
        seen.add((pred, succ, rel))
        links.append(
            DependencyLink(pred, succ, rel, draw(st.integers(min_value=-5, max_value=9)))
        )
    return Schedule(tuple(acts), tuple(links))


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_parse_serialize_parse_fixed_point(sched):
    first = parse_schedule(csv_text(sched))
    second = parse_schedule(csv_text(first))
    assert first == second
    # First normalization already preserves content.
    assert {a.activity_id for a in first.activities} == {
        a.activity_id for a in sched.activities
    }
    assert set(first.links) == set(sched.links)


# Characters ``str.splitlines`` breaks on (a lone "\r" aside, which
# ``csv.writer`` leaves unquoted), with "\n" to make blank lines inside a
# quoted cell; ``n`` at both ends since cells are stripped.
_line_breaking = st.text(
    alphabet='ab ,"\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029', max_size=8
).map(lambda t: f"n{t}n")


@settings(max_examples=60, deadline=None)
@given(schedules(), st.data())
def test_cells_holding_line_boundaries_round_trip(sched, data):
    acts = tuple(
        act._replace(
            name=data.draw(_line_breaking),
            extra_attributes={"Project Phase": data.draw(_line_breaking)},
        )
        for act in sched.activities
    )
    text = csv_text(Schedule(acts, sched.links))
    assert csv_text(parse_schedule(text)) == text


def test_blank_lines_are_skipped_and_take_no_row_number():
    text = "\n".join(["", HEADER, "  ", row("A"), "\t", "", row("B", finish="2023-01-01"), ""])
    with pytest.raises(MalformedDateError, match="row 3"):
        parse_schedule(text)
    sched = parse_schedule(text.replace("2023-01-01", "2024-01-08"))
    assert [a.activity_id for a in sched.activities] == ["A", "B"]
    with pytest.raises(ScheduleError, match="row 3: empty activity id"):
        parse_schedule("\n".join([HEADER, row("A"), ",,,", ""]))
    # No record but blank ones: no header either.
    for text in ("", " \n\t\n", '"  "\n'):
        with pytest.raises(MissingColumnError):
            parse_schedule(text)


@settings(max_examples=60, deadline=None)
@given(schedules(), st.data())
def test_every_parsed_row_has_three_maskable_columns(sched, data):
    """A parsed row holds its WBS and both dates, whatever else is blank, so
    an MVP mask of a parsed schedule never raises ``TooFewColumnsError``:
    only a schedule built in memory can."""
    from schedkit.masked_eval import maskable_columns

    blank = dict(status="", discipline="", level="", area="", zone=None, extra_attributes={})
    acts = tuple(
        act._replace(**blank) if data.draw(st.booleans()) else act for act in sched.activities
    )
    parsed = parse_schedule(csv_text(Schedule(acts, sched.links)))
    for act in parsed.activities:
        assert len(maskable_columns(parsed.index.rows[act.activity_id])) >= 3, act


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_canonical_row_covers_all_columns(sched):
    for act in sched.activities:
        r = canonical_row(sched, act)
        for col in sm.CANONICAL_COLUMNS:
            assert col in r


def test_records_export_shape(chain):
    lines = records_text(chain).strip().splitlines()
    assert len(lines) == 3
    import json

    rec = json.loads(lines[1])
    assert rec["activity_id"] == "B"
    assert rec["predecessors"] == [{"id": "A", "relation": "FS", "lag_days": 0}]
    assert rec["successors"] == [{"id": "C", "relation": "FS", "lag_days": 0}]


# --- fuzzed headers and dependency cells, through ingest --------------------

_FUZZ_IDS = ("A1", "B2", "C3")
_pad = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def _dependency_cells(draw, own: str) -> str:
    """Tokens of the grammar in odd case and spacing, and now and then one
    that breaks it: an unknown id or relation, a bad lag, the row's own id,
    or a comma for a separator."""
    others = [aid for aid in _FUZZ_IDS if aid != own]
    tokens = []
    for _ in range(draw(st.integers(0, 2))):
        rel = draw(st.sampled_from(["", ":FS", ":ss", ":Ff", ":SF", " :sf"]))
        lag = draw(st.sampled_from(["", "+2", "-3", "+0", "-0"])) if rel else ""
        tokens.append(f"{draw(_pad)}{draw(st.sampled_from(others))}{rel}{lag}{draw(_pad)}")
    if draw(st.integers(0, 11)) == 0:
        broken = ["ZZ", own, "A1:XX", "B2:", "C3:FS+", "C3:FS+x", "A1,B2", ":FS", "B2:FS 2"]
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(broken)))
    seps = st.sampled_from([";", "; ", " ;", ";;", " ; "])
    return "".join(token + draw(seps) for token in tokens)


_FUZZ_VALUES = {
    sm.COL_STATUS: st.sampled_from(["Not Started", "In Progress", "", "done"]),
    sm.COL_WBS: st.sampled_from(["P.A", "P.B", "Q", "P..A", ".P."]),
    sm.COL_START: st.just("2024-01-01"),
    sm.COL_FINISH: st.sampled_from(["2024-01-08", "2024-01-01"]),
}


@st.composite
def fuzzed_schedule_texts(draw) -> str:
    """Three activities under a header that shuffles, repeats and leaves
    out canonical columns (names padded with whitespace), with fuzzed
    dependency cells, comma- or tab-separated."""
    every = [*sm.CANONICAL_COLUMNS, "Phase"]
    names = [name for name in draw(st.permutations(every)) if draw(st.integers(0, 24))]
    for name in draw(st.lists(st.sampled_from(every), max_size=2)):
        names.insert(draw(st.integers(0, len(names))), name)
    other = st.sampled_from(["", "x", "SF", "6E", "Phase 2"])
    rows = [[f"{draw(_pad)}{name}{draw(_pad)}" for name in names]]
    for aid in _FUZZ_IDS:
        values = {
            sm.COL_ID: st.just(aid),
            sm.COL_PRED: _dependency_cells(aid),
            sm.COL_SUCC: _dependency_cells(aid),
        }
        rows.append([draw({**_FUZZ_VALUES, **values}.get(name, other)) for name in names])
    buf = io.StringIO()
    csv.writer(buf, delimiter=draw(st.sampled_from([",", "\t"])), lineterminator="\n").writerows(rows)
    return buf.getvalue()


@settings(max_examples=50, deadline=None)
@given(fuzzed_schedule_texts())
def test_fuzzed_headers_and_dependency_cells_through_ingest(text):
    """``ingest`` of a fuzzed schedule exits 0, 1, 2 or 3, never 4; when
    the text parses, the schedule it writes parses back to the same
    schedule."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "schedule.csv"
        path.write_text(text, "utf-8")
        out = Path(tmp) / "out"
        code = main(["--out", str(out), "ingest", "--schedule", str(path)])
        assert code in {0, 1, 2, 3}
        if code == 0:
            written = (out / "schedule.csv").read_text("utf-8")
            assert parse_schedule(written) == parse_schedule(text)


# --- reading a schedule file a line at a time ------------------------------------


def _parsed(read, path: Path):
    """What ``read(path)`` gives: the schedule, or the type and message of
    its error."""
    try:
        return read(path)
    except ScheduleError as exc:
        return type(exc), str(exc)


def _read_whole(path: Path) -> Schedule:
    """The schedule of ``path``'s whole text, its line ends translated."""
    return parse_schedule(path.read_text("utf-8"), source_label=str(path))


def _read_lines(path: Path) -> Schedule:
    """The schedule of ``path`` as ``--schedule`` reads it, a line at a time."""
    return _read_schedule(str(path))


_line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=100, deadline=None)
@given(
    fuzzed_schedule_texts(),
    st.integers(0, 2),
    _line_ends,
    st.sampled_from(["", "\n", " \n\t\n", "\r\n\r\n", "\r \r"]),
)
def test_reading_a_file_equals_parsing_its_whole_text(text, boms, eol, lead):
    """A file read a line at a time parses as its whole text does, to the
    same schedule or the same error, with leading BOMs, any line ends and
    blank lines before the header."""
    text = "\ufeff" * boms + lead + text.replace("\n", eol)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "schedule.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _parsed(_read_lines, path) == _parsed(_read_whole, path)


@settings(max_examples=60, deadline=None)
@given(schedules(), st.data(), _line_ends)
def test_line_breaks_in_cells_read_as_in_the_whole_text(sched, data, eol):
    """Cells holding line breaks, lone CRs among them, in a file whose
    line ends (inside quoted cells too) are LF, CRLF or CR, read a line at
    a time as from the whole text."""
    breaking = st.text(alphabet='ab ,"\n\r\x0b\x1c\x85\u2028', max_size=8).map(lambda t: f"n{t}n")
    acts = tuple(
        act._replace(name=data.draw(breaking), extra_attributes={"Project Phase": data.draw(breaking)})
        for act in sched.activities
    )
    text = csv_text(Schedule(acts, sched.links)).replace("\n", eol)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "schedule.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _parsed(_read_lines, path) == _parsed(_read_whole, path)


@pytest.mark.parametrize("variant", ["plain", "bom", "crlf", "cr", "blank-lines", "tabs"])
def test_a_schedule_file_in_each_variant_parses_to_its_schedule(tmp_path, variant):
    """A generated schedule far longer than one read of the file (so a CRLF
    may fall across two reads), written with a BOM, CRLF or CR line ends,
    blank lines before the header or tabs, parses from the file to the
    schedule its plain text gives."""
    from schedkit.synthetic import GeneratorParams, generate_schedule

    plain = csv_text(generate_schedule(GeneratorParams(n_activities=300, seed=1)))
    text = {
        "plain": plain,
        "bom": "\ufeff" + plain,
        "crlf": plain.replace("\n", "\r\n"),
        "cr": plain.replace("\n", "\r"),
        "blank-lines": "\n \n" + plain,
    }.get(variant)
    if variant == "tabs":
        buf = io.StringIO()
        csv.writer(buf, delimiter="\t", lineterminator="\n").writerows(csv.reader(io.StringIO(plain)))
        text = buf.getvalue()
    path = tmp_path / "schedule.csv"
    path.write_bytes(text.encode("utf-8"))
    assert len(text) > 4 * io.DEFAULT_BUFFER_SIZE
    assert _read_lines(path) == parse_schedule(plain, source_label=str(path))
