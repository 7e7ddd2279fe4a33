from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from types import SimpleNamespace

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
    KnowledgeBase,
    KnowledgeChunk,
    KnowledgeError,
    LocalTermStore,
    TermEntry,
    build_stores_from_paths,
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


# --- building and loading stores -------------------------------------------------


def built_kb(out: Path, terms=(), docs=(), chunk_tokens: int = 6) -> Path:
    """``out``, into which ``build_stores_from_paths`` has written the
    knowledge base of ``terms``, (term, definition) pairs in file order,
    and ``docs``, (doc_id, text) pairs."""
    out.mkdir()
    (out / "terms.tsv").write_text("".join(f"{t}\t{d}\n" for t, d in terms), "utf-8")
    (out / "corpus").mkdir()
    for doc_id, text in docs:
        (out / "corpus" / f"{doc_id}.txt").write_text(text, "utf-8")
    build_stores_from_paths(EMB, out / "corpus", out / "terms.tsv", out, chunk_tokens)
    return out


def term_store(out: Path, terms) -> LocalTermStore:
    kb = built_kb(out, terms=terms)
    return load_term_store(EMB, kb / "terms.jsonl", kb / "terms.mat")


def chunk_store(out: Path, docs, chunk_tokens: int = 6) -> GlobalChunkStore:
    kb = built_kb(out, docs=docs, chunk_tokens=chunk_tokens)
    return load_chunk_store(EMB, kb / "chunks.jsonl", kb / "chunks.mat")


def saved_chunks_in_order(out: Path, chunks, embedded=None) -> GlobalChunkStore:
    """A chunk store whose manifest holds ``chunks`` in the given order,
    which ``build-kb`` would sort by document, each embedded as its text or
    as ``embedded``: saved, then loaded."""
    out.mkdir()
    rows = np.array([EMB.embed(embedded or c.text) for c in chunks])
    save_chunk_store(SimpleNamespace(chunks=chunks, matrix=rows), out / "chunks.jsonl", out / "chunks.mat")
    return load_chunk_store(EMB, out / "chunks.jsonl", out / "chunks.mat")


def random_docs(n_chunks: int, seed: int = 4) -> list[tuple[str, str]]:
    """Documents of 6-word chunks, ``n_chunks`` in all, named in sorted order."""
    gen = prng.derive(seed, "global-store")
    docs, total = [], 0
    while total < n_chunks:
        n = min(n_chunks - total, 1 + gen.randint(10))
        docs.append((f"doc{len(docs):03d}", random_text(gen, 6 * n)))
        total += n
    return docs


def test_terms_file_lines_break_only_at_line_ends(tmp_path):
    """A line of the terms file ends only at \n, \r\n or \r: other
    characters that ``str.splitlines`` breaks at stay in the definition."""
    terms = tmp_path / "terms.tsv"
    terms.write_text("WBS\tscope\u2028into parts\r\nlag\twait\x0bperiod\rfloat\tslack\x85days\n", "utf-8")
    assert build_stores_from_paths(EMB, None, terms, tmp_path) == (3, 0)
    store = load_term_store(EMB, tmp_path / "terms.jsonl", tmp_path / "terms.mat")
    assert list(store.entries) == [
        TermEntry("WBS", "scope\u2028into parts"),
        TermEntry("lag", "wait\x0bperiod"),
        TermEntry("float", "slack\x85days"),
    ]


@pytest.mark.parametrize(
    "text,line_no,detail",
    [
        ("WBS\tscope\n\nLag\nfloat\tslack\n", 3, "term line without definition: 'Lag'"),
        ("WBS\tscope\r\n \tslack\n", 2, "term must be non-empty"),
        ("WBS\tscope\nLag\t   \n", 2, "term line without definition: 'Lag\\t   '"),
    ],
)
def test_a_bad_terms_line_names_path_and_line(tmp_path, text, line_no, detail):
    terms = tmp_path / "terms.tsv"
    terms.write_bytes(text.encode())
    with pytest.raises(KnowledgeError) as err:
        build_stores_from_paths(EMB, None, terms, tmp_path)
    assert str(err.value) == f"{terms}:{line_no}: {detail}"


# --- local retrieval ------------------------------------------------------------


def test_retrieve_local_single_entry(tmp_path):
    store = term_store(tmp_path / "kb", [("WBS", "hierarchical decomposition of project scope")])
    assert store.retrieve(EMB.embed("anything at all")).term == "WBS"


def test_retrieve_local_definition_echo(tmp_path):
    store = term_store(
        tmp_path / "kb",
        [
            ("WBS", "hierarchical decomposition of project scope"),
            ("lag", "waiting period between dependent activities"),
        ],
    )
    hit = store.retrieve(EMB.embed("waiting period between dependent activities"))
    assert hit.term == "lag"


def test_retrieve_local_empty_store(tmp_path):
    kb = built_kb(tmp_path / "kb")
    with pytest.raises(EmptyStoreError):
        load_term_store(EMB, kb / "terms.jsonl", kb / "terms.mat").retrieve(EMB.embed("x"))


def test_retrieve_local_matches_argmax_scan(tmp_path):
    gen = prng.derive(21, "local-scan")
    store = term_store(tmp_path / "kb", [(f"term{i}", random_text(gen, 8)) for i in range(50)])
    for _ in range(25):
        query = random_text(gen, 5)
        got = store.retrieve(EMB.embed(query))
        q = EMB.embed(query).tolist()
        rows = store.matrix.tolist()
        best = max(
            range(len(store.entries)),
            key=lambda i: (sum(a * b for a, b in zip(q, rows[i])), -i),
        )
        assert got is store.entries[best]


def test_retrieve_local_tie_goes_to_earliest_entry(tmp_path):
    store = term_store(
        tmp_path / "kb", [("later-sorted", "crane lift rigging"), ("another", "crane lift rigging")]
    )
    assert store.retrieve(EMB.embed("crane lift")).term == "later-sorted"


# --- global retrieval -----------------------------------------------------------


def test_retrieve_global_k_clamps(tmp_path):
    store = chunk_store(tmp_path / "kb", [("d", "alpha beta gamma delta")], chunk_tokens=2)
    got = store.retrieve(EMB.embed("alpha beta"), k=3)
    assert len(got) == 2


def test_retrieve_global_k1_is_argmax(tmp_path):
    store = chunk_store(tmp_path / "kb", random_docs(40))
    gen = prng.derive(77, "queries")
    for _ in range(10):
        query = random_text(gen, 4)
        top1 = store.retrieve(EMB.embed(query), k=1)
        assert top1 == brute_force_top_k(store, query, 1)


def test_retrieve_global_matches_scan_500_chunks(tmp_path):
    store = chunk_store(tmp_path / "kb", random_docs(500))
    gen = prng.derive(5, "queries-500")
    for _ in range(100):
        query = random_text(gen, 5)
        assert store.retrieve(EMB.embed(query), k=3) == brute_force_top_k(store, query, 3)


def test_retrieve_global_tie_order_across_documents(tmp_path):
    # Equal similarities rank by (doc_id, chunk_index), not manifest order.
    chunks = [
        *chunk_document("beta", "pour slab cure deck", 2),
        *chunk_document("alpha", "pour slab cure deck", 2),
        *chunk_document("gamma", "pour slab pour slab", 2),
    ]
    store = saved_chunks_in_order(tmp_path / "kb", chunks)
    assert list(store.chunks) == chunks
    got = [(c.doc_id, c.chunk_index) for c in store.retrieve(EMB.embed("pour slab"), k=6)]
    assert got == [
        ("alpha", 0),
        ("beta", 0),
        ("gamma", 0),
        ("gamma", 1),
        ("alpha", 1),
        ("beta", 1),
    ]
    assert store.retrieve(EMB.embed("pour slab"), k=6) == brute_force_top_k(store, "pour slab", 6)


def test_retrieve_global_empty_store(tmp_path):
    kb = built_kb(tmp_path / "kb")
    with pytest.raises(EmptyStoreError):
        load_chunk_store(EMB, kb / "chunks.jsonl", kb / "chunks.mat").retrieve(EMB.embed("x"))


# --- the knowledge base ------------------------------------------------------------

KB_TERMS = [("slab", "concrete pour"), ("crane", "lift rigging")]
KB_DOCS = [("a", "pour slab cure deck crane lift"), ("b", "weld bolt")]


def stores_retrieve(kb: Path, text: str) -> tuple[str, ...]:
    """What the loaded stores of ``kb`` retrieve for ``text``, each that has
    a row: the top term as ``term: definition``, then the top 3 chunks."""
    query = EMB.embed(text)
    parts = []
    terms = load_term_store(EMB, kb / "terms.jsonl", kb / "terms.mat")
    if terms.entries:
        entry = terms.retrieve(query)
        parts.append(f"{entry.term}: {entry.definition}")
    chunks = load_chunk_store(EMB, kb / "chunks.jsonl", kb / "chunks.mat")
    if chunks.chunks:
        parts.extend(c.text for c in chunks.retrieve(query, k=3))
    return tuple(parts)


def test_knowledge_base_of_terms_only(tmp_path):
    kb = built_kb(tmp_path / "kb", terms=KB_TERMS)
    assert KnowledgeBase(kb).retrieve("pour slab") == ("slab: concrete pour",)
    # A store whose files are missing is skipped like an empty one.
    (kb / "chunks.jsonl").unlink()
    (kb / "chunks.mat").unlink()
    assert KnowledgeBase(kb).retrieve("pour slab") == ("slab: concrete pour",)


def test_knowledge_base_of_chunks_only(tmp_path):
    kb = built_kb(tmp_path / "kb", docs=KB_DOCS, chunk_tokens=2)
    got = KnowledgeBase(kb).retrieve("pour slab")
    assert len(got) == 3 and got[0] == "pour slab"
    assert got == stores_retrieve(kb, "pour slab")


def test_knowledge_base_puts_the_term_before_the_chunks_in_rank_order(tmp_path):
    kb = built_kb(tmp_path / "kb", terms=KB_TERMS, docs=KB_DOCS, chunk_tokens=2)
    for text in ("pour slab", "crane lift rigging", "weld bolt deck"):
        got = KnowledgeBase(kb).retrieve(text)
        assert len(got) == 4
        assert got == stores_retrieve(kb, text)
    assert KnowledgeBase(kb).retrieve("pour slab")[:2] == ("slab: concrete pour", "pour slab")


def test_knowledge_base_whose_texts_join_to_nothing_retrieves_nothing(tmp_path):
    kb = tmp_path / "kb"
    empty_text = saved_chunks_in_order(kb, [KnowledgeChunk("d", 0, "", 0)], embedded="slab")
    assert [c.text for c in empty_text.retrieve(EMB.embed("pour slab"))] == [""]
    assert KnowledgeBase(kb).retrieve("pour slab") == ()


# --- persistence ---------------------------------------------------------------


def test_store_round_trip(tmp_path):
    terms = [
        ("WBS", "hierarchical decomposition of project scope"),
        ("float", "schedule slack of an activity"),
    ]
    kb = built_kb(tmp_path / "kb", terms=terms, docs=random_docs(30))
    loaded = load_term_store(EMB, kb / "terms.jsonl", kb / "terms.mat")
    assert [e.term for e in loaded.entries] == ["WBS", "float"]
    assert np.linalg.norm(loaded.matrix[0]) == pytest.approx(1.0, abs=1e-9)
    assert loaded.retrieve(EMB.embed("schedule slack")).term == "float"
    loaded_g = load_chunk_store(EMB, kb / "chunks.jsonl", kb / "chunks.mat")
    assert len(loaded_g.chunks) == 30

    # Saving a loaded store writes its manifest byte for byte.
    again = tmp_path / "again"
    again.mkdir()
    save_term_store(loaded, again / "terms.jsonl", again / "terms.mat")
    save_chunk_store(loaded_g, again / "chunks.jsonl", again / "chunks.mat")
    for name in ("terms.jsonl", "chunks.jsonl"):
        assert (again / name).read_bytes() == (kb / name).read_bytes()
    reloaded = load_chunk_store(EMB, again / "chunks.jsonl", again / "chunks.mat")
    assert reloaded.chunks.keys == loaded_g.chunks.keys


def test_read_matrix_rejects_corrupt_files(tmp_path):
    kb = built_kb(
        tmp_path / "kb",
        terms=[
            ("WBS", "hierarchical decomposition of project scope"),
            ("float", "schedule slack of an activity"),
        ],
    )
    raw = (kb / "terms.mat").read_bytes()
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
        (kb / "terms.mat").write_bytes(bad)
        with pytest.raises(KnowledgeError, match="terms.mat"):
            load_term_store(EMB, kb / "terms.jsonl", kb / "terms.mat")


def test_load_checks_matrix_dim_against_embedder(tmp_path):
    kb = built_kb(
        tmp_path / "kb",
        terms=[("WBS", "hierarchical decomposition of project scope")],
        docs=random_docs(5),
    )
    other = HashedNgramEmbedder(7)
    with pytest.raises(DimensionMismatchError, match="terms.mat"):
        load_term_store(other, kb / "terms.jsonl", kb / "terms.mat")
    with pytest.raises(DimensionMismatchError, match="chunks.mat"):
        load_chunk_store(other, kb / "chunks.jsonl", kb / "chunks.mat")
    # An empty store is written as dim 0 with 0 rows and loads under any embedder.
    empty = built_kb(tmp_path / "empty")
    assert (empty / "chunks.mat").read_bytes() == b"SKEM" + struct.pack("<II", 0, 0)
    store = load_chunk_store(other, empty / "chunks.jsonl", empty / "chunks.mat")
    assert list(store.chunks) == [] and store.matrix.shape == (0, 7)


def test_store_build_idempotent_byte_identical(tmp_path):
    for run in ("a", "b"):
        built_kb(tmp_path / run, terms=[("WBS", "scope decomposition")], docs=random_docs(25, seed=3))
    for name in ("terms.jsonl", "terms.mat", "chunks.jsonl", "chunks.mat"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
