"""Embedding-backed retrieval stores for terms and chunked documents.

Two stores share one embedding space: a local store of term definitions
and a global store of fixed-size document chunks. The default embedder is
fully deterministic (feature-hashed unigram + character-trigram counts,
FNV-1a into 256 buckets, L2-normalized), so every retrieval result is
reproducible offline; an HTTP embedder with the same contract can be
swapped in. The trigram hashes of a text are computed together with numpy
uint64 arithmetic and equal, bit for bit, hashing each trigram on its own
with ``rng.fnv1a64``. A token is a maximal run of non-whitespace
characters after NFC normalization.
"""

from __future__ import annotations

import functools
import json
import struct
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import _FNV_PRIME, fnv1a64

DEFAULT_DIM = 256
DEFAULT_CHUNK_TOKENS = 500
_NORM_TOL = 1e-9


class KnowledgeError(Exception):
    pass


class EmptyTextError(KnowledgeError):
    pass


class EmptyDocumentError(KnowledgeError):
    pass


class EmptyStoreError(KnowledgeError):
    pass


class DimensionMismatchError(KnowledgeError):
    pass


def normalize_text(text: str) -> str:
    """NFC-normalize and collapse all whitespace runs to single spaces."""
    return " ".join(unicodedata.normalize("NFC", text).split())


def tokenize(text: str) -> list[str]:
    return normalize_text(text).split(" ") if normalize_text(text) else []


def count_tokens(text: str) -> int:
    return len(tokenize(text))


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]
    norm: float

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise KnowledgeError("embedding has non-finite components")
        if abs(float(np.linalg.norm(arr)) - self.norm) > _NORM_TOL:
            raise KnowledgeError("cached norm does not match values")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "EmbeddingVector":
        arr = np.asarray(arr, dtype=np.float64)
        return cls(values=tuple(arr.tolist()), norm=float(np.linalg.norm(arr)))

    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    @property
    def dim(self) -> int:
        return len(self.values)


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim {a.dim} vs {b.dim}")
    denom = a.norm * b.norm
    if denom == 0.0:
        return 0.0
    return float(np.dot(a.array(), b.array()) / denom)


_PRIME = np.uint64(_FNV_PRIME)
# FNV-1a state after the "c:" prefix that every trigram feature starts with.
_TRIGRAM_STATE = fnv1a64(b"c:")


def _word_hash(word: str) -> int:
    return fnv1a64(("w:" + word).encode("utf-8"))


def _trigram_hashes(data: bytes) -> np.ndarray:
    """fnv1a64(b"c:" + gram) for every character trigram of UTF-8 ``data``.

    All trigrams advance together, one character at a time: each folds in
    its character's lead byte, then byte k of the character wherever the
    character is longer than k bytes. So ASCII text takes three vectorized
    steps, and only multi-byte characters take more. Unsigned 64-bit
    multiplication wraps mod 2**64, exactly as FNV-1a does.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    starts = np.flatnonzero((raw & 0xC0) != 0x80)
    n = len(starts) - 2
    if n < 1:
        return np.empty(0, dtype=np.uint64)
    lengths = np.diff(starts, append=len(raw))
    longest = int(lengths.max())
    h = np.full(n, _TRIGRAM_STATE, dtype=np.uint64)
    for j in range(3):
        first = starts[j : j + n]
        h ^= raw[first]
        h *= _PRIME
        for k in range(1, longest):
            more = np.flatnonzero(lengths[j : j + n] > k)
            h[more] = (h[more] ^ raw[first[more] + k]) * _PRIME
    return h


def _bucket_counts(hashes: np.ndarray, dim: int) -> np.ndarray:
    """Count of each bucket ``hash % dim``; reuses ``hashes`` for the buckets."""
    hashes %= np.uint64(dim)
    return np.bincount(hashes.view(np.int64), minlength=dim)


class HashedNgramEmbedder:
    """Deterministic stand-in for a sentence encoder.

    Features are word unigrams plus character trigrams of the normalized
    text; each feature's count lands in bucket fnv1a64(feature) % dim, and
    the bucket vector is L2-normalized. Word hashes are memoised; the
    trigrams of one text are hashed as one uint64 array (see
    ``_trigram_hashes``) and counted with ``np.bincount``. The vector
    equals, bit for bit, the one from hashing every feature separately.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = dim
        self._word_hash = functools.lru_cache(maxsize=1 << 14)(_word_hash)

    def embed(self, text: str) -> EmbeddingVector:
        norm_text = normalize_text(text)
        if not norm_text:
            raise EmptyTextError("cannot embed empty text")
        words = np.fromiter(map(self._word_hash, norm_text.split(" ")), dtype=np.uint64)
        trigrams = _trigram_hashes(norm_text.encode("utf-8"))
        counts = _bucket_counts(words, self.dim) + _bucket_counts(trigrams, self.dim)
        counts = counts.astype(np.float64)
        counts /= np.linalg.norm(counts)
        return EmbeddingVector.from_array(counts)

    def embed_batch(self, texts: list[str]) -> list[EmbeddingVector]:
        return [self.embed(t) for t in texts]


class HttpEmbedder:
    """Embeddings-endpoint client honoring the same contract.

    Posts {"model", "input": [...]} and expects {"data": [{"embedding":
    [...]}]} in input order. Vectors are re-normalized on ingest so the
    unit-norm invariant holds regardless of the server.
    """

    def __init__(
        self,
        endpoint_url: str,
        model: str,
        dim: int,
        *,
        api_key: str | None = None,
        timeout: float = 30.0,
    ):
        self.endpoint_url = endpoint_url
        self.model = model
        self.dim = dim
        self.api_key = api_key
        self.timeout = timeout

    def embed_batch(self, texts: list[str]) -> list[EmbeddingVector]:
        import requests

        from .gateway import GatewayError

        for t in texts:
            if not normalize_text(t):
                raise EmptyTextError("cannot embed empty text")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = requests.post(
                self.endpoint_url,
                json={"model": self.model, "input": texts},
                headers=headers,
                timeout=self.timeout,
            )
            resp.raise_for_status()
            payload = resp.json()
            rows = [item["embedding"] for item in payload["data"]]
        except Exception as exc:
            raise GatewayError(f"embeddings endpoint failed: {exc}") from exc
        out = []
        for row in rows:
            arr = np.asarray(row, dtype=np.float64)
            if arr.shape != (self.dim,):
                raise DimensionMismatchError(
                    f"endpoint returned dim {arr.shape}, expected {self.dim}"
                )
            norm = np.linalg.norm(arr)
            if norm == 0 or not np.all(np.isfinite(arr)):
                raise KnowledgeError("endpoint returned a degenerate vector")
            out.append(EmbeddingVector.from_array(arr / norm))
        return out

    def embed(self, text: str) -> EmbeddingVector:
        return self.embed_batch([text])[0]


@dataclass(frozen=True)
class TermEntry:
    term: str
    definition: str
    embedding: EmbeddingVector


@dataclass(frozen=True)
class KnowledgeChunk:
    doc_id: str
    chunk_index: int
    text: str
    token_count: int
    embedding: EmbeddingVector | None = None


def chunk_document(
    doc_id: str, text: str, chunk_tokens: int = DEFAULT_CHUNK_TOKENS
) -> list[KnowledgeChunk]:
    """Split into chunks of exactly chunk_tokens tokens (last may be short)."""
    if chunk_tokens < 1:
        raise KnowledgeError("chunk_tokens must be >= 1")
    tokens = tokenize(text)
    if not tokens:
        raise EmptyDocumentError(f"document {doc_id!r} is empty after normalization")
    chunks = []
    for index, start in enumerate(range(0, len(tokens), chunk_tokens)):
        piece = tokens[start : start + chunk_tokens]
        chunks.append(
            KnowledgeChunk(
                doc_id=doc_id,
                chunk_index=index,
                text=" ".join(piece),
                token_count=len(piece),
            )
        )
    return chunks


def _query_array(embedder, query: str | EmbeddingVector) -> np.ndarray:
    if isinstance(query, EmbeddingVector):
        return query.array()
    return embedder.embed(query).array()


class LocalTermStore:
    """Term -> definition entries with argmax retrieval over definitions."""

    def __init__(self, embedder):
        self.embedder = embedder
        self.entries: list[TermEntry] = []
        self._matrix: np.ndarray | None = None

    def add(self, term: str, definition: str) -> TermEntry:
        if not term:
            raise KnowledgeError("term must be non-empty")
        entry = TermEntry(term, definition, self.embedder.embed(definition))
        self.entries.append(entry)
        self._matrix = None
        return entry

    def _embeddings(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.stack([e.embedding.array() for e in self.entries])
        return self._matrix

    def retrieve(self, query: str | EmbeddingVector) -> TermEntry:
        """Highest-cosine entry; earliest insertion wins ties.

        ``query`` is a text, or its embedding when it was already embedded.
        """
        if not self.entries:
            raise EmptyStoreError("local term store is empty")
        sims = self._embeddings() @ _query_array(self.embedder, query)
        return self.entries[int(np.argmax(sims))]


class GlobalChunkStore:
    """Chunked reference documents with top-k cosine retrieval."""

    def __init__(self, embedder):
        self.embedder = embedder
        self.chunks: list[KnowledgeChunk] = []
        self._matrix: np.ndarray | None = None
        # Each chunk's position in (doc_id, chunk_index) order; built with
        # the matrix.
        self._rank: np.ndarray | None = None

    def add_document(
        self, doc_id: str, text: str, chunk_tokens: int = DEFAULT_CHUNK_TOKENS
    ) -> list[KnowledgeChunk]:
        pieces = chunk_document(doc_id, text, chunk_tokens)
        embeddings = self.embedder.embed_batch([c.text for c in pieces])
        stored = [
            KnowledgeChunk(c.doc_id, c.chunk_index, c.text, c.token_count, emb)
            for c, emb in zip(pieces, embeddings)
        ]
        self.chunks.extend(stored)
        self._matrix = None
        return stored

    def _embeddings(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.stack([c.embedding.array() for c in self.chunks])
            order = sorted(
                range(len(self.chunks)),
                key=lambda i: (self.chunks[i].doc_id, self.chunks[i].chunk_index),
            )
            self._rank = np.argsort(order)
        return self._matrix

    def retrieve(self, query: str | EmbeddingVector, k: int = 3) -> list[KnowledgeChunk]:
        """k most similar chunks, ties broken by (doc_id, chunk_index).

        ``query`` is a text, or its embedding when it was already embedded.
        """
        if not self.chunks:
            raise EmptyStoreError("global chunk store is empty")
        if k < 1:
            raise KnowledgeError("k must be >= 1")
        sims = self._embeddings() @ _query_array(self.embedder, query)
        ranked = np.lexsort((self._rank, -sims))
        return [self.chunks[i] for i in ranked[:k]]


def retrieve_local(store: LocalTermStore, query_text: str) -> TermEntry:
    return store.retrieve(query_text)


def retrieve_global(
    store: GlobalChunkStore, query_text: str, k: int = 3
) -> list[KnowledgeChunk]:
    return store.retrieve(query_text, k)


# --- persistence ---------------------------------------------------------------

_MAGIC = b"SKEM"


def _write_matrix(path: Path, vectors: list[EmbeddingVector]) -> None:
    dim = vectors[0].dim if vectors else 0
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", dim, len(vectors)))
        for vec in vectors:
            fh.write(struct.pack(f"<{dim}f", *vec.values))


def _read_matrix(path: Path) -> list[EmbeddingVector]:
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise KnowledgeError(f"{path}: not an embedding matrix file")
    if len(raw) < 12:
        raise KnowledgeError(f"{path}: truncated matrix header")
    dim, count = struct.unpack_from("<II", raw, 4)
    if len(raw) != 12 + 4 * dim * count:
        raise KnowledgeError(
            f"{path}: header declares {count} rows of dim {dim} "
            f"({4 * dim * count} data bytes), file has {len(raw) - 12}"
        )
    rows = np.frombuffer(raw, dtype="<f4", offset=12).reshape(count, dim)
    out = []
    for row in rows:
        row = row.astype(np.float64)
        norm = np.linalg.norm(row)
        if norm == 0:
            raise KnowledgeError(f"{path}: zero vector in matrix")
        out.append(EmbeddingVector.from_array(row / norm))
    return out


def save_term_store(store: LocalTermStore, manifest_path: Path, matrix_path: Path) -> None:
    lines = [
        json.dumps({"term": e.term, "definition": e.definition}, sort_keys=True)
        for e in store.entries
    ]
    Path(manifest_path).write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
    _write_matrix(Path(matrix_path), [e.embedding for e in store.entries])


def load_term_store(embedder, manifest_path: Path, matrix_path: Path) -> LocalTermStore:
    store = LocalTermStore(embedder)
    records = [
        json.loads(ln)
        for ln in Path(manifest_path).read_text("utf-8").splitlines()
        if ln.strip()
    ]
    vectors = _read_matrix(Path(matrix_path))
    if len(records) != len(vectors):
        raise KnowledgeError("manifest/matrix length mismatch")
    store.entries = [
        TermEntry(r["term"], r["definition"], v) for r, v in zip(records, vectors)
    ]
    return store


def save_chunk_store(store: GlobalChunkStore, manifest_path: Path, matrix_path: Path) -> None:
    lines = [
        json.dumps(
            {
                "doc_id": c.doc_id,
                "chunk_index": c.chunk_index,
                "text": c.text,
                "token_count": c.token_count,
            },
            sort_keys=True,
        )
        for c in store.chunks
    ]
    Path(manifest_path).write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
    _write_matrix(Path(matrix_path), [c.embedding for c in store.chunks])


def load_chunk_store(embedder, manifest_path: Path, matrix_path: Path) -> GlobalChunkStore:
    store = GlobalChunkStore(embedder)
    records = [
        json.loads(ln)
        for ln in Path(manifest_path).read_text("utf-8").splitlines()
        if ln.strip()
    ]
    vectors = _read_matrix(Path(matrix_path))
    if len(records) != len(vectors):
        raise KnowledgeError("manifest/matrix length mismatch")
    store.chunks = [
        KnowledgeChunk(r["doc_id"], r["chunk_index"], r["text"], r["token_count"], v)
        for r, v in zip(records, vectors)
    ]
    return store


def build_stores_from_paths(
    embedder,
    corpus_dir: Path | None,
    terms_file: Path | None,
    chunk_tokens: int = DEFAULT_CHUNK_TOKENS,
) -> tuple[LocalTermStore, GlobalChunkStore]:
    """Index a directory of .txt documents and a two-column term file.

    The term file is tab-separated ``term<TAB>definition``, one per line.
    Files are visited in sorted order so indexing is idempotent.
    """
    local = LocalTermStore(embedder)
    if terms_file is not None:
        for line in Path(terms_file).read_text("utf-8").splitlines():
            if not line.strip():
                continue
            term, _, definition = line.partition("\t")
            if not definition:
                raise KnowledgeError(f"term line without definition: {line!r}")
            local.add(term.strip(), definition.strip())
    glob = GlobalChunkStore(embedder)
    if corpus_dir is not None:
        for path in sorted(Path(corpus_dir).glob("*.txt")):
            glob.add_document(path.stem, path.read_text("utf-8"), chunk_tokens)
    return local, glob
