from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedkit.rng as prng
from schedkit.alignment import (
    AlignmentError,
    DegenerateDataError,
    DomainError,
    LossBreakdown,
    LossWeights,
    PreferenceScorer,
    loss_pa,
    loss_sft,
    loss_total,
    pa_loss_and_gradient,
    ranking_accuracy,
    train_scorer,
)
from schedkit.gateway import (
    ConstantWrongGateway,
    IdentityGateway,
    MalformedResponseError,
    StopwordStripperGateway,
    TranscriptLog,
    load_transcript,
)
from schedkit.polish import ContextLengthStats, polish_context
from schedkit.preferences import PreferenceRecord

# --- loss fixtures (hand-computed) ---------------------------------------------


def test_sft_perfect_prediction_is_zero():
    assert loss_sft([1.0], [1]) == 0.0


def test_sft_hand_computed_pair():
    # -(ln 0.5 + ln 0.25) / 2
    assert loss_sft([0.5, 0.25], [1, 1]) == pytest.approx(1.039721, abs=1e-6)


def test_sft_zero_indicators():
    assert loss_sft([0.9, 0.0001], [0, 0]) == 0.0


def test_sft_domain_error():
    with pytest.raises(DomainError):
        loss_sft([0.0], [1])


def test_pa_even_odds():
    assert loss_pa([0.5], [1]) == pytest.approx(math.log(2), abs=1e-12)


def test_pa_hand_computed():
    assert loss_pa([0.9], [1]) == pytest.approx(0.105361, abs=1e-6)
    assert loss_pa([0.9], [0]) == pytest.approx(2.302585, abs=1e-6)


def test_pa_clamps_boundaries():
    assert math.isfinite(loss_pa([1.0], [0]))
    assert math.isfinite(loss_pa([0.0], [1]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=1, max_size=8),
    st.data(),
)
def test_pa_label_flip_symmetry(probs, data):
    labels = [data.draw(st.integers(0, 1)) for _ in probs]
    flipped = loss_pa([1 - p for p in probs], [1 - y for y in labels])
    assert loss_pa(probs, labels) == pytest.approx(flipped, abs=1e-12)


def test_losses_match_independent_recomputation():
    gen = prng.derive(13, "loss-recompute")
    for _ in range(20):
        n = 1 + gen.randint(6)
        probs = [0.01 + 0.98 * gen.uniform() for _ in range(n)]
        labels = [gen.randint(2) for _ in range(n)]
        # Independent vectorized recomputation.
        p = np.asarray(probs)
        y = np.asarray(labels, dtype=float)
        sft_ref = float(np.sum(-y * np.log(p)) / n)
        pa_ref = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
        assert loss_sft(probs, labels) == pytest.approx(sft_ref, abs=1e-9)
        assert loss_pa(probs, labels) == pytest.approx(pa_ref, abs=1e-9)


def test_total_simple_sum():
    bd = loss_total(1.0, 0.0, 0.5, LossWeights(alpha=0.5, beta=1.0))
    assert bd.l_total == 1.5


def test_total_zero_weights_degenerate():
    bd = loss_total(0.7, 9.0, 9.0, LossWeights(alpha=0.0, beta=0.0))
    assert bd.l_total == 0.7


def test_total_hand_computed():
    bd = loss_total(1.039721, 0.2, 0.693147, LossWeights(alpha=0.5, beta=1.0))
    assert bd.l_total == pytest.approx(1.832868, abs=1e-6)


def test_total_exact_identity_on_random_triples():
    gen = prng.derive(3, "triples")
    for _ in range(50):
        s, c, p = (gen.uniform() * 3 for _ in range(3))
        w = LossWeights(alpha=gen.uniform(), beta=gen.uniform())
        bd = loss_total(s, c, p, w)
        assert bd.l_total == s + w.alpha * c + w.beta * p


def test_weights_validate():
    with pytest.raises(Exception):
        LossWeights(alpha=-1.0)
    with pytest.raises(Exception):
        LossWeights(beta=float("nan"))


# --- gradients -------------------------------------------------------------------


def _random_problem(gen, n, dim):
    X = np.asarray([[gen.uniform() * 2 - 1 for _ in range(dim)] for _ in range(n)])
    y = np.asarray([float(gen.randint(2)) for _ in range(n)])
    return X, y


def test_pa_gradient_matches_central_finite_differences():
    gen = prng.derive(17, "fd-check")
    step = 1e-6
    X, y = _random_problem(gen, 16, 10)
    for _ in range(100):
        w = np.asarray([gen.uniform() * 2 - 1 for _ in range(10)])
        b = gen.uniform() * 2 - 1
        _, gw, gb = pa_loss_and_gradient(X, y, w, b)
        fd = np.empty(10)
        for j in range(10):
            delta = np.zeros(10)
            delta[j] = step
            up, _, _ = pa_loss_and_gradient(X, y, w + delta, b)
            dn, _, _ = pa_loss_and_gradient(X, y, w - delta, b)
            fd[j] = (up - dn) / (2 * step)
        fd_b = (
            pa_loss_and_gradient(X, y, w, b + step)[0]
            - pa_loss_and_gradient(X, y, w, b - step)[0]
        ) / (2 * step)
        analytic = np.append(gw, gb)
        numeric = np.append(fd, fd_b)
        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
        )
        assert rel < 1e-5


# --- training --------------------------------------------------------------------

GOOD_WORDS = "install torque inspect anchor survey hoist align brace rig weld".split()
BAD_WORDS = "unicorn nebula sonnet glacier mango violin parrot comet waffle dune".split()


def separable_records(n=20, seed=5) -> list[PreferenceRecord]:
    gen = prng.derive(seed, "separable")
    records = []
    for i in range(n):
        prompt = f"task {i} evaluate the following completion"
        chosen = " ".join(gen.choice(GOOD_WORDS) for _ in range(6))
        rejected = " ".join(gen.choice(BAD_WORDS) for _ in range(6))
        records.append(PreferenceRecord(prompt, chosen, rejected, "MVP", f"A{i}", 8))
    return records


def test_separable_pairs_reach_95_percent_ranking():
    records = separable_records(20)
    scorer = train_scorer(records, epochs=190, learning_rate=5.0, epochs_sft=10)
    assert ranking_accuracy(scorer, scorer.training_features) >= 0.95


def test_ranking_accuracy_from_training_features_matches_rescoring():
    records = separable_records(20)
    scorer = train_scorer(records, epochs=30, learning_rate=5.0, epochs_sft=3)
    assert scorer.training_features.shape == (40, scorer.dim)
    for rec, chosen, rejected in zip(
        records, scorer.training_features[0::2], scorer.training_features[1::2]
    ):
        assert scorer.score_features(chosen) == scorer.score(rec.prompt_text, rec.chosen_text)
        assert scorer.score_features(rejected) == scorer.score(rec.prompt_text, rec.rejected_text)
    rescored = sum(
        scorer.score(r.prompt_text, r.chosen_text) > scorer.score(r.prompt_text, r.rejected_text)
        for r in records
    )
    assert ranking_accuracy(scorer, scorer.training_features) == rescored / len(records)


def test_zero_learning_rate_freezes_weights():
    records = separable_records(4)
    scorer = train_scorer(records, epochs=5, learning_rate=0.0, epochs_sft=5, seed=9)
    expected = prng.derive(9, "scorer-init")
    init = np.asarray([(expected.uniform() * 2 - 1) * 0.01 for _ in range(scorer.dim)])
    assert np.array_equal(scorer.weights, init)
    totals = [bd.l_total for bd in scorer.training_log]
    assert len(set(totals)) == 1


def test_training_loss_non_increasing_at_small_lr():
    records = separable_records(10)
    scorer = train_scorer(records, epochs=30, learning_rate=0.05, epochs_sft=10)
    log = scorer.training_log
    sft_phase = [bd.l_sft for bd in log[: scorer.sft_epochs]]
    total_phase = [bd.l_total for bd in log[scorer.sft_epochs :]]
    for a, b in zip(sft_phase, sft_phase[1:]):
        assert b <= a + 1e-12
    for a, b in zip(total_phase, total_phase[1:]):
        assert b <= a + 1e-12


def test_training_deterministic_under_seed():
    records = separable_records(8)
    a = train_scorer(records, epochs=20, learning_rate=1.0, seed=42)
    b = train_scorer(records, epochs=20, learning_rate=1.0, seed=42)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert a.training_log == b.training_log
    c = train_scorer(records, epochs=20, learning_rate=1.0, seed=43)
    assert not np.array_equal(a.weights, c.weights)


def test_training_log_breakdown_identity():
    records = separable_records(6)
    w = LossWeights(alpha=0.5, beta=1.0)
    scorer = train_scorer(records, weights=w, epochs=5, learning_rate=0.5)
    for bd in scorer.training_log:
        assert bd.l_cr == 0.0
        assert bd.l_total == bd.l_sft + w.alpha * bd.l_cr + w.beta * bd.l_pa


def test_degenerate_data_rejected():
    with pytest.raises(DegenerateDataError):
        train_scorer(separable_records(1), epochs=1)


class _MiscountedRecords:
    """Records whose ``len`` is ``counted`` although iterating yields
    ``records``, as a preference file that changes between its count and
    its read does."""

    def __init__(self, records, counted):
        self.records, self.counted = records, counted

    def __len__(self):
        return self.counted

    def __iter__(self):
        return iter(self.records)


@pytest.mark.parametrize("counted, held, read", [(6, 5, 5), (4, 5, "more than 4"), (4, 0, 0)])
def test_records_that_do_not_match_their_count_are_rejected(counted, held, read):
    """Neither is a row of the preallocated matrix left unwritten nor is one
    written past its end: the mismatch is a data error."""
    records = _MiscountedRecords(separable_records(held), counted)
    with pytest.raises(AlignmentError, match=f"^preference records: {counted} record\\(s\\) counted, then {read} read;"):
        train_scorer(records, epochs=1)


def test_scorer_save_load_round_trip(tmp_path):
    records = separable_records(6)
    scorer = train_scorer(records, epochs=15, learning_rate=1.0)
    scorer.save(tmp_path / "scorer.bin")
    loaded = PreferenceScorer.load(tmp_path / "scorer.bin")
    for rec in records:
        assert loaded.score(rec.prompt_text, rec.chosen_text) == scorer.score(
            rec.prompt_text, rec.chosen_text
        )


# --- polish stats ------------------------------------------------------------------


def test_stopword_stripper_never_grows_context():
    stats = ContextLengthStats()
    gateway = StopwordStripperGateway()
    gen = prng.derive(23, "polish")
    filler = "the quick crew will pour the slab and bolt the frame on the deck".split()
    for i in range(100):
        kind = ("AP", "DA", "MVP")[i % 3]
        raw = " ".join(gen.choice(filler) for _ in range(5 + gen.randint(20)))
        polished = polish_context(gateway, kind, raw, stats)
        assert len(polished.split()) <= len(raw.split())
    for kind in ("AP", "DA", "MVP"):
        raws = stats.raw_lengths[kind]
        pols = stats.polished_lengths[kind]
        assert len(raws) == len(pols)
        assert all(p <= r for p, r in zip(pols, raws))
        assert stats.mean(kind, "polished") < stats.mean(kind, "raw")


def test_identity_polish_keeps_distribution():
    stats = ContextLengthStats()
    gateway = IdentityGateway()
    for i in range(10):
        raw = f"section body {i} with content words"
        polish_context(gateway, "DA", raw, stats)
    assert stats.raw_lengths["DA"] == stats.polished_lengths["DA"]


def test_alignment_binds_the_polish_objects():
    """``polish`` owns them; ``alignment`` binds the same objects, which the
    benchmark's tracer names and wraps wherever they are bound."""
    import schedkit.alignment
    import schedkit.polish

    assert schedkit.alignment.polish_context is schedkit.polish.polish_context
    assert schedkit.alignment.ContextLengthStats is schedkit.polish.ContextLengthStats


# Text with every kind of whitespace that ``str.split`` splits at drawn often.
# No lone surrogate: ``polish`` reads its prompts through ``read_jsonl``,
# which rejects them, and so does the transcript read back here.
POLISH_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=["Cs"]),
        st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\u2028\u3000a"),
    ),
    min_size=1,
).filter(str.strip)


@settings(max_examples=200, deadline=None)
@given(st.lists(POLISH_TEXT, min_size=1, max_size=3))
def test_polish_record_counts_equal_whole_prompt_split(raws):
    """``polish_context`` writes each exchange's token counts from the raw
    and polished counts that ``stats`` takes; they equal the counts of the
    whole prompt and response."""
    stats = ContextLengthStats()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        with TranscriptLog(path) as log:
            polished = [
                polish_context(StopwordStripperGateway(), "DA", raw, stats, log) for raw in raws
            ]
        records = list(load_transcript(path))
    assert [r["response_text"] for r in records] == polished
    for rec in records:
        prompt = rec["system_text"].split() + rec["user_text"].split()
        assert rec["prompt_tokens"] == len(prompt)
        assert rec["completion_tokens"] == len(rec["response_text"].split())
    assert stats.raw_lengths["DA"] == [len(raw.split()) for raw in raws]


def test_failed_polish_is_recorded_before_it_raises(tmp_path):
    stats = ContextLengthStats()
    with TranscriptLog(tmp_path / "t.jsonl") as log:
        polish_context(IdentityGateway(), "DA", "the slab", stats, log)
        # The polishing prompt names no missing columns.
        with pytest.raises(MalformedResponseError):
            polish_context(ConstantWrongGateway(), "DA", "the deck", stats, log)
    ok, failed = load_transcript(tmp_path / "t.jsonl")
    assert ok["error"] is None and ok["response_text"] == "the slab\n"
    assert failed["response_text"] is None and failed["completion_tokens"] == 0
    assert failed["error"].startswith("MalformedResponseError: ")
    assert failed["transcript_id"] == 1
    # The failed exchange adds no length sample.
    assert stats.raw_lengths["DA"] == [2]


def test_stats_match_recount_oracle():
    stats = ContextLengthStats()
    samples = [3, 9, 9, 4, 12]
    for s in samples:
        stats.add("MVP", s, max(1, s - 2))
    assert stats.mean("MVP", "raw") == pytest.approx(sum(samples) / len(samples), abs=1e-9)
    assert stats.median("MVP", "raw") == 9
    recount: dict[int, int] = {}
    for s in samples:
        recount[s] = recount.get(s, 0) + 1
    assert stats.histogram("MVP", "raw") == dict(sorted(recount.items()))
