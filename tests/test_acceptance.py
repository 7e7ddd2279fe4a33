"""Acceptance suite: ten structural criteria, one test per criterion.

Each test prints an `ACCEPTANCE nn <name>: PASS|FAIL` line (visible under
``pytest -s``) and enforces its runtime budget.
"""

from __future__ import annotations

import os
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import schedkit.rng as prng
from schedkit.alignment import (
    LossWeights,
    loss_pa,
    loss_sft,
    loss_total,
    pa_loss_and_gradient,
    ranking_accuracy,
    train_scorer,
)
from schedkit.cli import EXIT_OK, main
from schedkit.context import SamplerConfig, first_order, sample_hierarchical, sample_sequential
from schedkit.gateway import (
    ConstantWrongGateway,
    EchoOracleGateway,
    StopwordStripperGateway,
)
from schedkit.graph import build_graph, degree_distribution, detect_cycles, maximal_hop_values
from schedkit.knowledge import HashedNgramEmbedder, GlobalChunkStore
from schedkit.masked_eval import evaluate_tasks, make_mask_tasks
from schedkit.polish import ContextLengthStats, polish_context
from schedkit.schedule import DependencyLink, Schedule, canonical_row, validate
from schedkit.synthetic import GeneratorParams, generate_schedule

from conftest import make_activity


def _report(number: int, name: str, budget_s: float, body) -> None:
    started = time.monotonic()
    try:
        body()
        elapsed = time.monotonic() - started
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s budget"
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s)")


def _random_wbs_dag(seed: int, max_nodes: int = 50) -> Schedule:
    gen = prng.derive(seed, "acceptance-dag")
    n = 2 + gen.randint(max_nodes - 1)
    ids = [f"N{i:02d}" for i in range(n)]
    order = list(ids)
    gen.shuffle(order)
    acts = []
    for aid in ids:
        depth = 1 + gen.randint(3)
        wbs = tuple("PQR"[gen.randint(3)] for _ in range(depth))
        acts.append(make_activity(aid, wbs=wbs))
    links = []
    seen = set()
    for i in range(n):
        for j in range(i + 1, n):
            if gen.uniform() < 0.10 and (order[i], order[j]) not in seen:
                seen.add((order[i], order[j]))
                links.append(DependencyLink(order[i], order[j]))
    return Schedule(tuple(acts), tuple(links))


def _bfs_within(schedule: Schedule, start: str, hops: int, direction: str) -> set[str]:
    nbrs: dict[str, list[str]] = {}
    for link in schedule.links:
        if direction == "forward":
            nbrs.setdefault(link.predecessor_id, []).append(link.successor_id)
        else:
            nbrs.setdefault(link.successor_id, []).append(link.predecessor_id)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if dist[node] == hops:
            continue
        for nxt in nbrs.get(node, []):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return set(dist)


def test_criterion_01_sampler_oracle_equivalence():
    def body():
        cfg = SamplerConfig(max_sequential_hops=3, max_wbs_levels=2, paths_per_direction=5)
        for seed in range(100):
            sched = _random_wbs_dag(seed)
            graph = build_graph(sched)
            raw_out: dict[str, set[str]] = {}
            raw_in: dict[str, set[str]] = {}
            for link in sched.links:
                raw_out.setdefault(link.predecessor_id, set()).add(link.successor_id)
                raw_in.setdefault(link.successor_id, set()).add(link.predecessor_id)
            for act in sched.activities:
                target = act.activity_id
                # Sequential: hop bound against the BFS oracle, zero violations.
                for path in sample_sequential(graph, target, cfg):
                    reachable = _bfs_within(sched, target, 3, path.direction)
                    assert set(path.nodes) <= reachable
                    assert len(set(path.nodes)) == len(path.nodes)
                # Hierarchical: exact match with the brute-force prefix filter.
                twbs = act.wbs
                need = max(0, len(twbs) - 2)
                expected = set()
                for other in sched.activities:
                    if other.activity_id == target:
                        continue
                    shared = 0
                    for a, b in zip(other.wbs, twbs):
                        if a != b:
                            break
                        shared += 1
                    if shared >= need:
                        expected.add(other.activity_id)
                assert sample_hierarchical(sched, target, cfg) == expected
                # First-order: exact neighbor set from raw edges.
                assert first_order(graph, target) == raw_out.get(target, set()) | raw_in.get(
                    target, set()
                )

    _report(1, "sampler/oracle equivalence", 10.0, body)


def test_criterion_02_retrieval_oracle_equivalence():
    def body():
        emb = HashedNgramEmbedder()
        words = (
            "concrete slab rebar deck steel beam grout weld bolt crane conduit "
            "cable duct pipe valve pump fan chiller panel transformer"
        ).split()
        gen = prng.derive(2, "acceptance-retrieval")
        store = GlobalChunkStore(emb)
        doc = 0
        while len(store.chunks) < 500:
            n_chunks = 1 + gen.randint(10)
            text = " ".join(gen.choice(words) for _ in range(6 * n_chunks))
            store.add_document(f"doc{doc:03d}", text, 6)
            doc += 1
        for _ in range(100):
            query = " ".join(gen.choice(words) for _ in range(5))
            q = emb.embed(query).tolist()
            scored = sorted(
                (
                    (-sum(a * b for a, b in zip(q, row)), c.doc_id, c.chunk_index, c)
                    for c, row in zip(store.chunks, store.matrix.tolist())
                ),
                key=lambda t: t[:3],
            )
            assert store.retrieve(query, k=3) == [t[3] for t in scored[:3]]
            assert store.retrieve(query, k=1) == [scored[0][3]]

    _report(2, "retrieval/oracle equivalence", 10.0, body)


def test_criterion_03_loss_fixtures():
    def body():
        assert loss_sft([0.5, 0.25], [1, 1]) == pytest.approx(1.039721, abs=1e-6)
        assert loss_pa([0.9], [1]) == pytest.approx(0.105361, abs=1e-6)
        assert loss_pa([0.9], [0]) == pytest.approx(2.302585, abs=1e-6)
        gen = prng.derive(3, "acceptance-loss")
        for _ in range(50):
            s, c, p = (gen.uniform() * 4 for _ in range(3))
            w = LossWeights(alpha=gen.uniform() * 2, beta=gen.uniform() * 2)
            assert loss_total(s, c, p, w).l_total == s + w.alpha * c + w.beta * p

    _report(3, "loss fixtures", 1.0, body)


def test_criterion_04_gradient_check():
    def body():
        gen = prng.derive(4, "acceptance-grad")
        step = 1e-6
        dim = 10
        X = np.asarray([[gen.uniform() * 2 - 1 for _ in range(dim)] for _ in range(16)])
        y = np.asarray([float(gen.randint(2)) for _ in range(16)])
        for _ in range(100):
            w = np.asarray([gen.uniform() * 2 - 1 for _ in range(dim)])
            b = gen.uniform() * 2 - 1
            _, gw, gb = pa_loss_and_gradient(X, y, w, b)
            numeric = np.empty(dim + 1)
            for j in range(dim):
                delta = np.zeros(dim)
                delta[j] = step
                up = pa_loss_and_gradient(X, y, w + delta, b)[0]
                dn = pa_loss_and_gradient(X, y, w - delta, b)[0]
                numeric[j] = (up - dn) / (2 * step)
            numeric[dim] = (
                pa_loss_and_gradient(X, y, w, b + step)[0]
                - pa_loss_and_gradient(X, y, w, b - step)[0]
            ) / (2 * step)
            analytic = np.append(gw, gb)
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
            )
            assert rel < 1e-5

    _report(4, "gradient check", 5.0, body)


def test_criterion_05_masked_environment_calibration():
    def body():
        sched = generate_schedule(GeneratorParams(n_activities=500, seed=42))
        truth = {a.activity_id: canonical_row(sched, a) for a in sched.activities}
        tasks = (
            list(make_mask_tasks(sched, "MVP"))
            + list(make_mask_tasks(sched, "DA"))
            + list(make_mask_tasks(sched, "AP"))
        )
        echo = evaluate_tasks(sched, tasks, EchoOracleGateway(truth))
        for kind in ("MVP", "DA", "AP"):
            assert echo.accuracy(kind) == 100.0
        wrong = evaluate_tasks(sched, tasks, ConstantWrongGateway())
        for kind in ("MVP", "DA", "AP"):
            assert wrong.accuracy(kind) == 0.0
        # Planted half-correct: corrupt one of AP's two cells on every row.
        half_table = {rid: dict(row) for rid, row in truth.items()}
        for rid in half_table:
            half_table[rid]["Current Start"] = "1900-01-01"
        half = evaluate_tasks(
            sched, make_mask_tasks(sched, "AP"), EchoOracleGateway(half_table)
        )
        assert half.accuracy("AP") == 50.0
        # Group-weighted decomposition reproduces the overall figure.
        for report in (echo, half):
            for kind, overall in report.per_task.items():
                for dim in ("discipline", "level", "area"):
                    groups = report.group_breakdowns[dim]
                    weighted = sum(
                        s[kind].accuracy() * s[kind].cells_total
                        for s in groups.values()
                        if kind in s
                    )
                    assert abs(weighted / overall.cells_total - overall.accuracy()) < 1e-9
                    assert (
                        sum(s[kind].cells_total for s in groups.values() if kind in s)
                        == overall.cells_total
                    )

    _report(5, "masked-environment calibration", 30.0, body)


def test_criterion_06_graph_analytics_oracle():
    def body():
        for seed in range(50):
            gen = prng.derive(seed, "acceptance-graph")
            n = 2 + gen.randint(29)
            ids = [f"G{i:02d}" for i in range(n)]
            order = list(ids)
            gen.shuffle(order)
            pairs = []
            for i in range(n):
                for j in range(i + 1, n):
                    if gen.uniform() < 0.15:
                        pairs.append((order[i], order[j]))
            acts = tuple(make_activity(i) for i in ids)
            links = tuple(DependencyLink(u, v) for u, v in pairs)
            graph = build_graph(Schedule(acts, links))
            # Degree against direct recount.
            for node in ids:
                expect = sum(1 for u, v in pairs if u == node) + sum(
                    1 for u, v in pairs if v == node
                )
                assert graph.degree(node) == expect
            # Maximal hop against exhaustive path enumeration.
            succs: dict[str, list[str]] = {i: [] for i in ids}
            for u, v in pairs:
                succs[u].append(v)
            got = maximal_hop_values(graph)
            for node in ids:
                best = 0
                stack = [(node, frozenset({node}), 0)]
                while stack:
                    cur, seen, depth = stack.pop()
                    best = max(best, depth)
                    for nxt in succs[cur]:
                        if nxt not in seen:
                            stack.append((nxt, seen | {nxt}, depth + 1))
                assert got[node] == best
        # Handshake identity at 200 nodes.
        gen = prng.derive(999, "acceptance-graph-big")
        ids = [f"B{i:03d}" for i in range(200)]
        order = list(ids)
        gen.shuffle(order)
        pairs = [
            (order[i], order[j])
            for i in range(200)
            for j in range(i + 1, 200)
            if gen.uniform() < 0.02
        ]
        graph = build_graph(
            Schedule(tuple(make_activity(i) for i in ids), tuple(DependencyLink(u, v) for u, v in pairs))
        )
        stats = degree_distribution(graph)
        assert stats.degree_mean * 200 == 2 * len(pairs)

    _report(6, "graph analytics oracle", 10.0, body)


def test_criterion_07_pipeline_determinism(tmp_path, monkeypatch):
    def body():
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "manual.txt").write_text(
            " ".join(
                f"chunk{i} concrete steel conduit slab deck install torque" for i in range(40)
            ),
            "utf-8",
        )
        terms = tmp_path / "terms.tsv"
        terms.write_text(
            "WBS\thierarchical decomposition of project scope\n"
            "lag\twaiting period between linked activities\n",
            "utf-8",
        )

        def pipeline(root: Path):
            root.mkdir()
            monkeypatch.chdir(root)
            rel_corpus = os.path.relpath(corpus)
            rel_terms = os.path.relpath(terms)
            for argv in (
                ["--out", "gen", "generate", "--n", "100", "--seed", "42"],
                ["--out", "kb", "build-kb", "--corpus-dir", rel_corpus, "--terms-file", rel_terms],
                ["--out", "ctx", "sample-context", "--schedule", "gen/schedule.csv"],
                [
                    "--out", "eval", "run-eval", "--schedule", "gen/schedule.csv",
                    "--gateway", "mock:wrong", "--kb", "kb", "--tasks", "MVP,DA,AP",
                ],
                [
                    "--out", "prefs", "collect-prefs", "--schedule", "gen/schedule.csv",
                    "--instances", "eval/instances.jsonl",
                ],
                ["--out", "scorer", "train-scorer", "--prefs-db", "prefs/prefs.jsonl"],
            ):
                assert main(argv) == EXIT_OK

        pipeline(tmp_path / "run1")
        pipeline(tmp_path / "run2")
        files1 = {
            p.relative_to(tmp_path / "run1"): p
            for p in sorted((tmp_path / "run1").rglob("*"))
            if p.is_file()
        }
        files2 = {
            p.relative_to(tmp_path / "run2"): p
            for p in sorted((tmp_path / "run2").rglob("*"))
            if p.is_file()
        }
        assert files1.keys() == files2.keys()
        for rel in files1:
            assert files1[rel].read_bytes() == files2[rel].read_bytes(), rel

    _report(7, "pipeline determinism (seeds 42/12345)", 120.0, body)


def test_criterion_08_preference_training():
    def body():
        from schedkit.preferences import PreferenceRecord

        good = "install torque inspect anchor survey hoist align brace rig weld".split()
        bad = "unicorn nebula sonnet glacier mango violin parrot comet waffle dune".split()
        gen = prng.derive(8, "acceptance-pairs")
        records = [
            PreferenceRecord(
                f"task {i} judge the completion",
                " ".join(gen.choice(good) for _ in range(6)),
                " ".join(gen.choice(bad) for _ in range(6)),
                "MVP",
                f"A{i}",
                8,
            )
            for i in range(20)
        ]
        scorer = train_scorer(records, epochs=190, learning_rate=5.0, epochs_sft=10)
        assert ranking_accuracy(scorer, scorer.training_features) >= 0.95
        slow = train_scorer(records, epochs=30, learning_rate=0.05, epochs_sft=10)
        log = slow.training_log
        for a, b in zip(log[: slow.sft_epochs], log[1 : slow.sft_epochs]):
            assert b.l_sft <= a.l_sft + 1e-12
        for a, b in zip(log[slow.sft_epochs :], log[slow.sft_epochs + 1 :]):
            assert b.l_total <= a.l_total + 1e-12

    _report(8, "preference training", 10.0, body)


def test_criterion_09_distillation_statistics():
    def body():
        gateway = StopwordStripperGateway()
        stats = ContextLengthStats()
        gen = prng.derive(9, "acceptance-polish")
        vocab = "the crew will pour the slab and bolt the frame on the deck today".split()
        raw_by_kind: dict[str, list[int]] = {"AP": [], "DA": [], "MVP": []}
        for i in range(100):
            kind = ("AP", "DA", "MVP")[i % 3]
            raw = " ".join(gen.choice(vocab) for _ in range(5 + gen.randint(25)))
            polished = polish_context(gateway, kind, raw, stats)
            assert len(polished.split()) <= len(raw.split())
            raw_by_kind[kind].append(len(raw.split()))
        for kind in ("AP", "DA", "MVP"):
            # Histogram export equals an independent recount of raw samples.
            recount: dict[int, int] = {}
            for v in raw_by_kind[kind]:
                recount[v] = recount.get(v, 0) + 1
            assert stats.histogram(kind, "raw") == dict(sorted(recount.items()))
            assert stats.mean(kind, "raw") == pytest.approx(
                sum(raw_by_kind[kind]) / len(raw_by_kind[kind]), abs=1e-9
            )
            for p, r in zip(stats.polished_lengths[kind], stats.raw_lengths[kind]):
                assert p <= r

    _report(9, "distillation statistics", 10.0, body)


def test_criterion_10_synthetic_structural_targets():
    def body():
        sched = generate_schedule(GeneratorParams(n_activities=1000, seed=42))
        assert validate(sched).ok()
        graph = build_graph(sched)
        assert detect_cycles(graph) == []
        mean_degree = degree_distribution(graph).degree_mean
        assert 3.86 * 0.85 <= mean_degree <= 3.86 * 1.15

    _report(10, "synthetic structural targets", 10.0, body)
