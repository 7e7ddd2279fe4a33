"""Embedding-backed retrieval stores for terms and chunked documents.

Two stores share one embedding space: a local store of term definitions
and a global store of fixed-size document chunks. An embedding is a 1-D
float64 unit vector, and each store keeps one ``(len, dim)`` float64
matrix whose row i embeds its entry or chunk i. The embedder is fully
deterministic (feature-hashed unigram + character-trigram counts, FNV-1a
into 256 buckets, L2-normalized), so every retrieval result is
reproducible offline. The trigram hashes of a text are computed together
with numpy uint64 arithmetic and equal, bit for bit, hashing each trigram
on its own with ``rng.fnv1a64``. A token is a maximal run of non-whitespace
characters after NFC normalization.
"""

from __future__ import annotations

import functools
import struct
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import DataError, read_utf8, streamed
from .gateway import dataclass_fields, encode_fields, object_parts, read_jsonl
from .prompt_forge import word_count
from .rng import _FNV_PRIME, fnv1a64

DEFAULT_DIM = 256
DEFAULT_CHUNK_TOKENS = 500


class KnowledgeError(DataError):
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
    normalized = normalize_text(text)
    return normalized.split(" ") if normalized else []


def count_tokens(text: str) -> int:
    """``len(tokenize(text))``: NFC normalization never joins or splits a
    whitespace run, so the count skips it."""
    return word_count(text)


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

    def embed(self, text: str) -> np.ndarray:
        norm_text = normalize_text(text)
        if not norm_text:
            raise EmptyTextError("cannot embed empty text")
        words = np.fromiter(map(self._word_hash, norm_text.split(" ")), dtype=np.uint64)
        trigrams = _trigram_hashes(norm_text.encode("utf-8"))
        counts = _bucket_counts(words, self.dim) + _bucket_counts(trigrams, self.dim)
        counts = counts.astype(np.float64)
        counts /= np.linalg.norm(counts)
        return counts


@dataclass(frozen=True)
class TermEntry:
    term: str
    definition: str


@dataclass(frozen=True)
class KnowledgeChunk:
    doc_id: str
    chunk_index: int
    text: str
    token_count: int


# The fields of a line of ``terms.jsonl`` and of ``chunks.jsonl``.
TERM_FIELDS = dataclass_fields(TermEntry)
CHUNK_FIELDS = dataclass_fields(KnowledgeChunk)


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


class _MatrixStore:
    """Items with one embedding each: row i of ``matrix`` embeds item i."""

    def __init__(self, embedder, matrix: np.ndarray | None = None):
        self.embedder = embedder
        # The matrix, then the rows added since it was last stacked, so a
        # build stacks once rather than on every add.
        self._blocks = [np.empty((0, embedder.dim)) if matrix is None else matrix]

    @property
    def matrix(self) -> np.ndarray:
        if len(self._blocks) > 1:
            self._blocks = [np.vstack(self._blocks)]
        return self._blocks[0]

    def _similarities(self, query: str | np.ndarray) -> np.ndarray:
        """Cosine of every row with ``query``, a text or its embedding."""
        if isinstance(query, str):
            query = self.embedder.embed(query)
        return self.matrix @ query


class LocalTermStore(_MatrixStore):
    """Term -> definition entries with argmax retrieval over definitions."""

    def __init__(self, embedder, matrix: np.ndarray | None = None):
        super().__init__(embedder, matrix)
        self.entries: list[TermEntry] = []

    def add(self, term: str, definition: str) -> TermEntry:
        if not term:
            raise KnowledgeError("term must be non-empty")
        entry = TermEntry(term, definition)
        self._blocks.append(self.embedder.embed(definition))
        self.entries.append(entry)
        return entry

    def retrieve(self, query: str | np.ndarray) -> TermEntry:
        """Highest-cosine entry; earliest insertion wins ties."""
        if not self.entries:
            raise EmptyStoreError("local term store is empty")
        return self.entries[int(np.argmax(self._similarities(query)))]


class GlobalChunkStore(_MatrixStore):
    """Chunked reference documents with top-k cosine retrieval."""

    def __init__(self, embedder, matrix: np.ndarray | None = None):
        super().__init__(embedder, matrix)
        self.chunks: list[KnowledgeChunk] = []
        # Each chunk's position in (doc_id, chunk_index) order.
        self._rank: np.ndarray | None = None

    def add_document(
        self, doc_id: str, text: str, chunk_tokens: int = DEFAULT_CHUNK_TOKENS
    ) -> list[KnowledgeChunk]:
        pieces = chunk_document(doc_id, text, chunk_tokens)
        self._blocks.extend([self.embedder.embed(c.text) for c in pieces])
        self.chunks.extend(pieces)
        self._rank = None
        return pieces

    def retrieve(self, query: str | np.ndarray, k: int = 3) -> list[KnowledgeChunk]:
        """k most similar chunks, ties broken by (doc_id, chunk_index)."""
        if not self.chunks:
            raise EmptyStoreError("global chunk store is empty")
        if k < 1:
            raise KnowledgeError("k must be >= 1")
        if self._rank is None:
            order = sorted(
                range(len(self.chunks)),
                key=lambda i: (self.chunks[i].doc_id, self.chunks[i].chunk_index),
            )
            self._rank = np.argsort(order)
        ranked = np.lexsort((self._rank, -self._similarities(query)))
        return [self.chunks[i] for i in ranked[:k]]


# --- persistence ---------------------------------------------------------------

_MAGIC = b"SKEM"


def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    count, dim = matrix.shape
    with streamed(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", dim if count else 0, count))
        fh.write(matrix.astype("<f4").tobytes())


def _read_matrix(path: Path) -> np.ndarray:
    """The file's float32 rows as float64, each renormalized to unit length."""
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
    matrix = np.frombuffer(raw, dtype="<f4", offset=12).reshape(count, dim).astype(np.float64)
    if not np.isfinite(matrix).all():
        raise KnowledgeError(f"{path}: non-finite value in matrix")
    # One np.linalg.norm per row: norm(axis=1) rounds some norms differently,
    # which would change the stored vectors and so retrieval.
    norms = np.array([np.linalg.norm(row) for row in matrix])
    if not norms.all():
        raise KnowledgeError(f"{path}: zero vector in matrix")
    matrix /= norms[:, None]
    return matrix


def _write_manifest(path: Path, fields, items: list) -> None:
    """One ``fields`` line per item, written in its pieces."""
    with streamed(path) as fh:
        for item in items:
            fh.writelines(object_parts(encode_fields(fields, functools.partial(getattr, item))))
            fh.write("\n")


def _read_store(
    embedder, manifest_path: Path, matrix_path: Path, fields, make
) -> tuple[list, np.ndarray]:
    """The manifest items (``make`` of each record's ``fields``) and the
    matrix of a saved store. A line that is not a JSON object with those
    fields, of their types, raises ``KnowledgeError`` naming ``path:line``."""
    items = list(read_jsonl(manifest_path, fields, make, KnowledgeError))
    matrix = _read_matrix(Path(matrix_path))
    if len(items) != len(matrix):
        raise KnowledgeError(
            f"{matrix_path}: {len(matrix)} rows for {len(items)} manifest records"
        )
    if not items:
        return items, np.empty((0, embedder.dim))
    if matrix.shape[1] != embedder.dim:
        raise DimensionMismatchError(
            f"{matrix_path}: rows have dim {matrix.shape[1]}, the embedder's is {embedder.dim}"
        )
    return items, matrix


def save_term_store(store: LocalTermStore, manifest_path: Path, matrix_path: Path) -> None:
    _write_manifest(manifest_path, TERM_FIELDS, store.entries)
    _write_matrix(Path(matrix_path), store.matrix)


def load_term_store(embedder, manifest_path: Path, matrix_path: Path) -> LocalTermStore:
    entries, matrix = _read_store(embedder, manifest_path, matrix_path, TERM_FIELDS, TermEntry)
    store = LocalTermStore(embedder, matrix)
    store.entries = entries
    return store


def save_chunk_store(store: GlobalChunkStore, manifest_path: Path, matrix_path: Path) -> None:
    _write_manifest(manifest_path, CHUNK_FIELDS, store.chunks)
    _write_matrix(Path(matrix_path), store.matrix)


def load_chunk_store(embedder, manifest_path: Path, matrix_path: Path) -> GlobalChunkStore:
    chunks, matrix = _read_store(embedder, manifest_path, matrix_path, CHUNK_FIELDS, KnowledgeChunk)
    store = GlobalChunkStore(embedder, matrix)
    store.chunks = chunks
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
        for line in read_utf8(terms_file, KnowledgeError).splitlines():
            if not line.strip():
                continue
            term, _, definition = line.partition("\t")
            if not definition:
                raise KnowledgeError(f"term line without definition: {line!r}")
            local.add(term.strip(), definition.strip())
    glob = GlobalChunkStore(embedder)
    if corpus_dir is not None:
        for path in sorted(Path(corpus_dir).glob("*.txt")):
            glob.add_document(path.stem, read_utf8(path, KnowledgeError), chunk_tokens)
    return local, glob
