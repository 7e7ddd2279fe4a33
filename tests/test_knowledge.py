from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedkit.rng as prng
from schedkit.knowledge import (
    DimensionMismatchError,
    EmptyDocumentError,
    EmptyStoreError,
    EmptyTextError,
    GlobalChunkStore,
    HashedNgramEmbedder,
    KnowledgeError,
    LocalTermStore,
    chunk_document,
    count_tokens,
    load_chunk_store,
    load_term_store,
    normalize_text,
    save_chunk_store,
    save_term_store,
    tokenize,
)

EMB = HashedNgramEmbedder()

WORDS = (
    "concrete pour slab rebar deck steel beam column grout weld bolt crane "
    "conduit cable tray duct pipe valve pump fan chiller panel switchgear"
).split()


def random_text(gen: prng.Rng, n_words: int) -> str:
    return " ".join(gen.choice(WORDS) for _ in range(n_words))


def brute_force_top_k(store: GlobalChunkStore, query: str, k: int):
    """Oracle: pure-Python cosine scan with the documented tie-break."""
    q = EMB.embed(query).tolist()
    scored = []
    for chunk, row in zip(store.chunks, store.matrix.tolist()):
        sim = sum(a * b for a, b in zip(q, row))
        scored.append((-sim, chunk.doc_id, chunk.chunk_index, chunk))
    scored.sort(key=lambda t: t[:3])
    return [t[3] for t in scored[:k]]


# --- chunking -----------------------------------------------------------------


def test_chunk_exact_boundary():
    text = " ".join(f"w{i}" for i in range(500))
    chunks = chunk_document("d", text, 500)
    assert len(chunks) == 1
    assert chunks[0].token_count == 500


def test_chunk_one_over():
    text = " ".join(f"w{i}" for i in range(501))
    chunks = chunk_document("d", text, 500)
    assert [c.token_count for c in chunks] == [500, 1]
    assert [c.chunk_index for c in chunks] == [0, 1]


def test_chunk_round_trip_10k_tokens():
    gen = prng.derive(9, "chunk-test")
    text = "  " + random_text(gen, 10_000).replace(" pour ", "\n pour\t ")
    chunks = chunk_document("book", text, 500)
    assert len(chunks) == 20
    assert " ".join(c.text for c in chunks) == normalize_text(text)


def test_chunk_rejects_empty():
    with pytest.raises(EmptyDocumentError):
        chunk_document("d", "   \n\t ")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=9))
def test_chunk_round_trip_property(n_words, chunk_tokens):
    gen = prng.derive(n_words * 101 + chunk_tokens, "chunk-prop")
    text = random_text(gen, n_words)
    chunks = chunk_document("d", text, chunk_tokens)
    assert " ".join(c.text for c in chunks) == normalize_text(text)
    assert all(c.token_count == chunk_tokens for c in chunks[:-1])
    assert 1 <= chunks[-1].token_count <= chunk_tokens


# --- embedding ----------------------------------------------------------------


def test_embed_deterministic():
    assert np.array_equal(EMB.embed("pour the slab"), EMB.embed("pour the slab"))


def test_embed_unit_norm():
    for text in ("a", "concrete pour", "x " * 300):
        assert np.linalg.norm(EMB.embed(text)) == pytest.approx(1.0, abs=1e-9)


def test_embed_rejects_empty():
    with pytest.raises(EmptyTextError):
        EMB.embed("  \n ")


def reference_embed(text: str, dim: int = 256) -> tuple[float, ...]:
    """The embedder's definition, one scalar FNV-1a hash per feature."""
    norm_text = normalize_text(text)
    counts = np.zeros(dim, dtype=np.float64)
    for word in norm_text.split(" "):
        counts[prng.fnv1a64(("w:" + word).encode("utf-8")) % dim] += 1.0
    for i in range(len(norm_text) - 2):
        counts[prng.fnv1a64(("c:" + norm_text[i : i + 3]).encode("utf-8")) % dim] += 1.0
    counts /= np.linalg.norm(counts)
    return tuple(float(x) for x in counts)


@settings(max_examples=300, deadline=None)
@given(
    text=st.text(min_size=1, max_size=60).filter(lambda t: normalize_text(t) != ""),
    dim=st.sampled_from([1, 7, 256, 1000]),
)
def test_embed_equals_scalar_reference(text, dim):
    assert tuple(HashedNgramEmbedder(dim).embed(text).tolist()) == reference_embed(text, dim)


# sha256 of embed(text) as little-endian float64, frozen so that a
# change to the embedding space cannot pass unnoticed.
PINNED_EMBEDDINGS = [
    (256, "concrete pour slab", "48e5d043df015aac7be6c6c7b2e77a4b276bfd7b8e38baa8e7375413d22010dc"),
    (
        256,
        "  Pour\tthe\n\nslab,  then CURE it.  ",
        "c56370a92ad43e41f8e3658a0395a38405d51b5f2e68044b371eba7c7d7ef30b",
    ),
    (
        256,
        "Cafe\u0301 cr\u00e8me \u2014 fa\u00e7ade \U0001f3d7\ufe0f \u6771\u4eac",
        "32e6cde82643210415fa7616042b02406e724b1729d65f8d09a3c0e674a7c49c",
    ),
    (256, "ab", "72e24eacea5a53363e76c48dc202d231b26b9b58c7be0d11bf376cf9396c104f"),
    (
        7,
        "\u0394-Level 3 Zone 6E: grout & anchor",
        "95522a73f69b22424bacfb97359533dbf24d89ede6aa46382c4d40585a79729b",
    ),
]


@pytest.mark.parametrize("dim,text,digest", PINNED_EMBEDDINGS)
def test_embed_pinned_digests(dim, text, digest):
    vec = HashedNgramEmbedder(dim).embed(text)
    assert hashlib.sha256(np.asarray(vec, dtype="<f8").tobytes()).hexdigest() == digest


def test_embed_similarity_fixture():
    # Frozen from the shipped embedder: related construction phrases score
    # far above an unrelated trade.
    base = EMB.embed("concrete pour slab")
    near = EMB.embed("concrete pour slab curing")
    far = EMB.embed("electrical conduit rough-in")
    sim_near = float(np.dot(base, near))
    sim_far = float(np.dot(base, far))
    assert sim_near == pytest.approx(0.8622479818365827, abs=1e-9)
    assert sim_far == pytest.approx(0.039840953644479794, abs=1e-9)
    assert sim_near > sim_far


def test_count_tokens_collapses_whitespace():
    assert count_tokens("  a\t b \n c ") == 3


# Every whitespace code point, and combining marks that might join one.
_SPACES = [chr(i) for i in range(0x3001) if chr(i).isspace()]
_MARKS = ["\u0300", "\u0301", "\u0308", "\u0338", "\u20d2", "\u3099"]


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.characters(), st.sampled_from(_SPACES + _MARKS + ["x"]))))
def test_count_tokens_counts_the_tokens_of_the_normalized_text(text):
    assert count_tokens(text) == len(tokenize(text))


# Text with what a join could disturb drawn often: whitespace, combining
# marks, Hangul jamo that NFC composes (U+1100 U+1161 is U+AC00) and CJK.
_JOIN_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=["Cs"]),
        st.sampled_from(_SPACES[:8] + _MARKS + ["\u1100", "\u1161", "\u11a8", "\u6f22", "e", "x"]),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(prefix=_JOIN_TEXT, texts=st.lists(_JOIN_TEXT, max_size=3), dim=st.sampled_from([7, 256]))
def test_embed_joined_equals_embedding_each_joined_text(prefix, texts, dim):
    emb = HashedNgramEmbedder(dim)
    texts = [t for t in texts if normalize_text(prefix + "\n" + t)]
    got = [row.tobytes() for row in emb.embed_joined(prefix, texts)]
    assert got == [emb.embed(prefix + "\n" + t).tobytes() for t in texts]


def test_embed_joined_of_nothing_rejects_it():
    with pytest.raises(EmptyTextError):
        EMB.embed_joined(" \u3000", ["concrete", "\t"])


# --- cosine -------------------------------------------------------------------


def test_cosine_self_is_one():
    v = EMB.embed("structural steel erection")
    assert float(np.dot(v, v)) == pytest.approx(1.0, abs=1e-12)


# --- local retrieval ------------------------------------------------------------


def test_retrieve_local_single_entry():
    store = LocalTermStore(EMB)
    store.add("WBS", "hierarchical decomposition of project scope")
    assert store.retrieve("anything at all").term == "WBS"


def test_retrieve_local_definition_echo():
    store = LocalTermStore(EMB)
    store.add("WBS", "hierarchical decomposition of project scope")
    store.add("lag", "waiting period between dependent activities")
    hit = store.retrieve("waiting period between dependent activities")
    assert hit.term == "lag"


def test_retrieve_local_empty_store():
    with pytest.raises(EmptyStoreError):
        LocalTermStore(EMB).retrieve("x")


def test_retrieve_local_matches_argmax_scan():
    gen = prng.derive(21, "local-scan")
    store = LocalTermStore(EMB)
    for i in range(50):
        store.add(f"term{i}", random_text(gen, 8))
    for _ in range(25):
        query = random_text(gen, 5)
        got = store.retrieve(query)
        q = EMB.embed(query).tolist()
        rows = store.matrix.tolist()
        best = max(
            range(len(store.entries)),
            key=lambda i: (sum(a * b for a, b in zip(q, rows[i])), -i),
        )
        assert got is store.entries[best]


# --- global retrieval -----------------------------------------------------------


def build_store(n_chunks: int, seed: int = 4) -> GlobalChunkStore:
    gen = prng.derive(seed, "global-store")
    store = GlobalChunkStore(EMB)
    doc = 0
    while sum(1 for _ in store.chunks) < n_chunks:
        remaining = n_chunks - len(store.chunks)
        words_per_chunk = 6
        n = min(remaining, 1 + gen.randint(10))
        text = random_text(gen, words_per_chunk * n)
        store.add_document(f"doc{doc:03d}", text, words_per_chunk)
        doc += 1
    return store


def test_retrieve_global_k_clamps():
    store = GlobalChunkStore(EMB)
    store.add_document("d", "alpha beta gamma delta", 2)
    got = store.retrieve("alpha beta", k=3)
    assert len(got) == 2


def test_retrieve_global_k1_is_argmax():
    store = build_store(40)
    gen = prng.derive(77, "queries")
    for _ in range(10):
        query = random_text(gen, 4)
        top1 = store.retrieve(query, k=1)
        assert top1 == brute_force_top_k(store, query, 1)


def test_retrieve_global_matches_scan_500_chunks():
    store = build_store(500)
    gen = prng.derive(5, "queries-500")
    for _ in range(100):
        query = random_text(gen, 5)
        assert store.retrieve(query, k=3) == brute_force_top_k(store, query, 3)


def test_retrieve_global_tie_order_across_documents():
    # Equal similarities rank by (doc_id, chunk_index), not insertion order.
    store = GlobalChunkStore(EMB)
    store.add_document("beta", "pour slab cure deck", 2)
    store.add_document("alpha", "pour slab cure deck", 2)
    store.add_document("gamma", "pour slab pour slab", 2)
    got = [(c.doc_id, c.chunk_index) for c in store.retrieve("pour slab", k=6)]
    assert got == [
        ("alpha", 0),
        ("beta", 0),
        ("gamma", 0),
        ("gamma", 1),
        ("alpha", 1),
        ("beta", 1),
    ]
    assert store.retrieve("pour slab", k=6) == brute_force_top_k(store, "pour slab", 6)


def test_retrieve_local_tie_goes_to_earliest_entry():
    store = LocalTermStore(EMB)
    store.add("later-sorted", "crane lift rigging")
    store.add("another", "crane lift rigging")
    assert store.retrieve("crane lift").term == "later-sorted"


def test_retrieve_accepts_an_embedded_query():
    store = build_store(40)
    local = LocalTermStore(EMB)
    for i, word in enumerate(WORDS):
        local.add(f"t{i}", f"{word} {WORDS[-1 - i]}")
    gen = prng.derive(9, "embedded-queries")
    for _ in range(10):
        query = random_text(gen, 4)
        vec = EMB.embed(query)
        assert store.retrieve(vec, k=3) == store.retrieve(query, k=3)
        assert local.retrieve(vec) is local.retrieve(query)


def test_retrieve_global_empty_store():
    with pytest.raises(EmptyStoreError):
        GlobalChunkStore(EMB).retrieve("x")


# --- persistence ---------------------------------------------------------------


def test_store_round_trip(tmp_path):
    local = LocalTermStore(EMB)
    local.add("WBS", "hierarchical decomposition of project scope")
    local.add("float", "schedule slack of an activity")
    save_term_store(local, tmp_path / "terms.jsonl", tmp_path / "terms.mat")
    loaded = load_term_store(EMB, tmp_path / "terms.jsonl", tmp_path / "terms.mat")
    assert [e.term for e in loaded.entries] == ["WBS", "float"]
    assert np.linalg.norm(loaded.matrix[0]) == pytest.approx(1.0, abs=1e-9)
    assert loaded.retrieve("schedule slack").term == "float"

    glob = build_store(30)
    save_chunk_store(glob, tmp_path / "chunks.jsonl", tmp_path / "chunks.mat")
    loaded_g = load_chunk_store(EMB, tmp_path / "chunks.jsonl", tmp_path / "chunks.mat")
    assert [(c.doc_id, c.chunk_index) for c in loaded_g.chunks] == [
        (c.doc_id, c.chunk_index) for c in glob.chunks
    ]


def test_read_matrix_rejects_corrupt_files(tmp_path):
    local = LocalTermStore(EMB)
    local.add("WBS", "hierarchical decomposition of project scope")
    local.add("float", "schedule slack of an activity")
    save_term_store(local, tmp_path / "terms.jsonl", tmp_path / "terms.mat")
    raw = (tmp_path / "terms.mat").read_bytes()
    nan_row = raw[:12] + struct.pack("<f", float("nan")) + raw[16:]
    inf_row = raw[:12] + struct.pack("<f", float("inf")) + raw[16:]
    zero_row = raw[:12] + bytes(4 * EMB.dim) + raw[12 + 4 * EMB.dim :]
    for bad in (
        raw[:-1],
        raw + b"\0\0\0\0",
        raw[:10],
        b"XKEM" + raw[4:],
        b"",
        nan_row,
        inf_row,
        zero_row,
    ):
        (tmp_path / "terms.mat").write_bytes(bad)
        with pytest.raises(KnowledgeError, match="terms.mat"):
            load_term_store(EMB, tmp_path / "terms.jsonl", tmp_path / "terms.mat")


def test_load_checks_matrix_dim_against_embedder(tmp_path):
    local = LocalTermStore(EMB)
    local.add("WBS", "hierarchical decomposition of project scope")
    save_term_store(local, tmp_path / "terms.jsonl", tmp_path / "terms.mat")
    save_chunk_store(build_store(5), tmp_path / "chunks.jsonl", tmp_path / "chunks.mat")
    other = HashedNgramEmbedder(7)
    with pytest.raises(DimensionMismatchError, match="terms.mat"):
        load_term_store(other, tmp_path / "terms.jsonl", tmp_path / "terms.mat")
    with pytest.raises(DimensionMismatchError, match="chunks.mat"):
        load_chunk_store(other, tmp_path / "chunks.jsonl", tmp_path / "chunks.mat")
    # An empty store is written as dim 0 with 0 rows and loads under any embedder.
    save_chunk_store(GlobalChunkStore(EMB), tmp_path / "empty.jsonl", tmp_path / "empty.mat")
    assert (tmp_path / "empty.mat").read_bytes() == b"SKEM" + struct.pack("<II", 0, 0)
    empty = load_chunk_store(other, tmp_path / "empty.jsonl", tmp_path / "empty.mat")
    assert list(empty.chunks) == [] and empty.matrix.shape == (0, 7)


def test_store_build_idempotent_byte_identical(tmp_path):
    for run in ("a", "b"):
        store = build_store(25, seed=3)
        save_chunk_store(store, tmp_path / f"{run}.jsonl", tmp_path / f"{run}.mat")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.mat").read_bytes() == (tmp_path / "b.mat").read_bytes()
