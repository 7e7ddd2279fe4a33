from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedkit import prompt_forge as pf
from schedkit.prompt_forge import (
    AP,
    DA,
    MVP,
    POLISH,
    MissingSectionError,
    UnknownCategoryError,
    build_rule_prompt,
    build_task_prompt,
    category_template,
    verify_registry,
)

# Pins every template byte-for-byte; regenerate only on a deliberate edit.
TEMPLATE_SHA256 = {
    "activity_sequence_and_timing.txt": "03aa89d30da2e506208d671c2671a359bf53a56d115163e54b18e6481e074c77",
    "analyze_time_relationships.txt": "1152bcd4b8c9210bf7fd177882122a386fb8d8bba34b68c621ab40283feaa9c7",
    "area_based_dependencies.txt": "0dce1a8ede46584a097c9cdded51e48cd003b72e082de531f4e77fbaec7508d0",
    "assess_sequence_reconstruction.txt": "33bc0b9f537480b36d4b52314dca2ca12cf7469516896ca7f880b0aa1587eaf2",
    "calculate_activity_duration.txt": "8a648f7d6c12202ccb9f7f198f25cc0492cee6e386037182ad8569649ac98a2a",
    "hierarchical_tree_structure.txt": "10e3778f6ce2993e8e959997ece63800f013dfe0d2046e40f9dfbed637172813",
    "inter_disciplinary_dependencies.txt": "d1167f36b47740d5e477d1ecb43a2a446ef7d5de7f609daf2a502c4f6b9a6c80",
    "overlapping_disciplines.txt": "6ffe2ad5dc4e29f353cb5fbb14ad04ca5f670b2e6d75c5d1409815c6b02c1015",
    "task_ap.txt": "f9a0c1f135d47bc6d2e38f0271dd59806f06c91b140c566bf02ef5bb19dcac64",
    "task_da.txt": "76c0b38510f92a9dc369ce97515702905ee16f796e394815d379c1b6ae128234",
    "task_mvp.txt": "f53496edd3df85d5c0953bb3af73758bbc784d11e9fcb14d02c2562633d3daaa",
    "task_polish.txt": "c1036a19e9157bcab49ce9b753ae97c3cd49cf24d824b3653fbde18ad449d416",
}

KEY_PHRASES = {
    "ActivitySequenceAndTiming": "sequence of construction activities",
    "CalculateActivityDuration": "calculate the duration for each activity",
    "HierarchicalTreeStructure": "hierarchical tree structure",
    "AssessSequenceReconstruction": "sequence can be recovered",
    "AnalyzeTimeRelationships": "time domain relationship",
    "OverlappingDisciplines": "overlapping disciplines",
    "InterDisciplinaryDependencies": "inter-dependency between different disciplines",
    "AreaBasedDependencies": "area-based dependencies",
}


def test_registry_verifies():
    verify_registry()


def test_templates_pinned_byte_for_byte():
    prompt_dir = Path(pf.__file__).parent / "prompts"
    found = {p.name for p in prompt_dir.glob("*.txt")}
    assert found == set(TEMPLATE_SHA256)
    for name, digest in TEMPLATE_SHA256.items():
        assert hashlib.sha256((prompt_dir / name).read_bytes()).hexdigest() == digest, name


def test_every_category_contains_key_phrase():
    for category, phrase in KEY_PHRASES.items():
        assert phrase.lower() in category_template(category).lower(), category


def test_rule_prompt_empty_context():
    text = build_rule_prompt("AnalyzeTimeRelationships", "")
    assert text.startswith(category_template("AnalyzeTimeRelationships"))
    assert "CONTEXT:\n\n" in text


def test_rule_prompt_deterministic():
    a = build_rule_prompt("AreaBasedDependencies", "ctx block")
    b = build_rule_prompt("AreaBasedDependencies", "ctx block")
    assert a == b


def test_rule_prompt_unknown_category():
    with pytest.raises(UnknownCategoryError):
        build_rule_prompt("NotACategory", "")


def test_mvp_prompt_has_all_four_headers_once():
    p = build_task_prompt(MVP, "row text", "knowledge", "context", "rules")
    for header in ("ROW:", "STATIC KNOWLEDGE:", "CONTEXT:", "RULES:"):
        assert p.user_text.count(header) == 1
    assert p.expected_values == 3
    assert "exactly three values" in p.system_text


def test_ap_prompt_mentions_date_columns():
    p = build_task_prompt(AP, "row", "k", "c", "r")
    joined = p.system_text + p.user_text
    assert "'Current Start'" in joined
    assert "'Current Finish'" in joined
    assert p.expected_values == 2


def test_da_prompt_mentions_dependency_columns():
    p = build_task_prompt(DA, "row", "k", "c", "r")
    assert "'Predecessor Details'" in p.system_text
    assert "'Successor Details'" in p.system_text
    assert p.expected_values == 4


def test_polish_prompt_lists_three_primary_tasks():
    p = build_task_prompt(POLISH, "raw completion to refine")
    for bullet in ("Missing Value Prediction", "Dependency Analysis", "Schedule Automation"):
        assert bullet in p.system_text
    assert p.user_text.startswith("RAW OUTPUT:\n")
    assert p.answer_format == ""


def test_missing_row_raises():
    with pytest.raises(MissingSectionError):
        build_task_prompt(MVP, "   ", "k", "c", "r")


def test_answer_format_demands_exact_arity_and_top2():
    p = build_task_prompt(DA, "row", masked_columns=["Level", "Area"])
    assert p.expected_values == 2
    assert "exactly 2 value(s)" in p.answer_format
    assert "'|'" in p.answer_format
    single = build_task_prompt(DA, "row", masked_columns=["Level"], top_k=1)
    assert "|" not in single.answer_format


def test_assembly_is_pure():
    a = build_task_prompt(MVP, "r", "k", "c", "x")
    b = build_task_prompt(MVP, "r", "k", "c", "x")
    assert a == b


# Arbitrary Unicode, with whitespace of every kind str.split() knows drawn often.
SPLIT_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0 　ab"))
)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([MVP, DA, AP, POLISH]),
    row=SPLIT_TEXT.filter(lambda t: t.strip()),
    knowledge=SPLIT_TEXT,
    context=SPLIT_TEXT,
    rules=SPLIT_TEXT,
    columns=st.none() | st.lists(SPLIT_TEXT, min_size=1, max_size=4),
    top_k=st.integers(1, 3),
)
def test_prompt_tokens_add_up_from_the_pieces(kind, row, knowledge, context, rules, columns, top_k):
    p = build_task_prompt(
        kind, row, knowledge, context, rules, masked_columns=columns, top_k=top_k
    )
    assert "".join(p.pieces) == p.user_text
    whole = len(p.system_text.split()) + len(p.user_text.split())
    assert pf.prompt_tokens(p) == whole
    memo: dict[str, int] = {}

    def memo_count(text: str) -> int:
        return memo.setdefault(text, pf.word_count(text))

    assert pf.prompt_tokens(p, memo_count) == pf.prompt_tokens(p, memo_count) == whole
