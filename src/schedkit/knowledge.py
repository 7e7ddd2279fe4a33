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

A saved store is a JSON-lines manifest and a float32 matrix. Building one
writes each row as it is embedded (``build_stores_from_paths``); loading
one keeps the matrix and where each manifest line starts, and reads a
line's text only when it is retrieved (``records.LineIndex``). A store is
made only by loading it. ``KnowledgeBase`` is the one reader of a
knowledge base directory and holds the rule for what a row retrieves.
"""

from __future__ import annotations

import functools
import operator
import struct
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import DataError, read_utf8, streamed, utf8_lines
from .records import LineIndex, dataclass_fields, write_line
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
        return _unit(self._counts(norm_text))

    def embed_joined(self, prefix: str, texts) -> list[np.ndarray]:
        """``embed(prefix + "\\n" + text)`` for each of ``texts``, with the
        prefix's features counted once.

        NFC never composes across a newline, so ``prefix + "\\n" + text``
        normalizes to the normalized prefix ``p`` and text ``t`` joined by
        one space.
        Its bucket counts are integers: those of the prefix, plus those of
        the text, plus those of the trigrams that span the space, which are
        the trigrams of ``p[-2:] + " " + t[:2]``. So each vector equals
        ``embed``'s bit for bit. If either side normalizes to nothing, the
        joined text is embedded whole.
        """
        p = normalize_text(prefix)
        head = self._counts(p) if p else None
        rows = []
        for text in texts:
            t = normalize_text(text)
            if head is None or not t:
                rows.append(self.embed(prefix + "\n" + text))
            else:
                rows.append(_unit(head + self._counts(t) + self._trigram_counts(p[-2:] + " " + t[:2])))
        return rows

    def _counts(self, norm_text: str) -> np.ndarray:
        """The word and trigram bucket counts of normalized, non-empty text."""
        words = np.fromiter(map(self._word_hash, norm_text.split(" ")), dtype=np.uint64)
        return _bucket_counts(words, self.dim) + self._trigram_counts(norm_text)

    def _trigram_counts(self, text: str) -> np.ndarray:
        return _bucket_counts(_trigram_hashes(text.encode("utf-8")), self.dim)


def _unit(counts: np.ndarray) -> np.ndarray:
    """Integer bucket counts as a float64 unit vector."""
    vector = counts.astype(np.float64)
    vector /= np.linalg.norm(vector)
    return vector


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


# What a loaded manifest keeps of each line to find it changed: a term's
# term, a chunk's (doc_id, chunk_index), which also orders ties.
_TERM_KEY = operator.attrgetter("term")
_CHUNK_KEY = operator.attrgetter("doc_id", "chunk_index")


def _sort_rank(keys: list) -> np.ndarray:
    """Each position's place in the order of ``keys``, ties by position."""
    return np.argsort(sorted(range(len(keys)), key=keys.__getitem__))


class LocalTermStore:
    """Term -> definition entries with argmax retrieval over definitions:
    row i of ``matrix`` embeds the definition of ``entries[i]``, which is
    read from the manifest when it is retrieved (``records.LineIndex``)."""

    def __init__(self, entries: LineIndex, matrix: np.ndarray):
        self.entries = entries
        self.matrix = matrix

    def retrieve(self, query: np.ndarray) -> TermEntry:
        """Highest-cosine entry with the embedded ``query``; the earliest
        entry wins ties."""
        if not self.entries:
            raise EmptyStoreError("local term store is empty")
        return self.entries[int(np.argmax(self.matrix @ query))]


class GlobalChunkStore:
    """Chunked reference documents with top-k cosine retrieval: row i of
    ``matrix`` embeds ``chunks[i]``, which is read from the manifest when
    it is retrieved (``records.LineIndex``)."""

    def __init__(self, chunks: LineIndex, matrix: np.ndarray):
        self.chunks = chunks
        self.matrix = matrix
        # Each chunk's position in (doc_id, chunk_index) order, from the
        # keys the index keeps, so no chunk text is read to rank.
        self._rank = _sort_rank(chunks.keys)

    def retrieve(self, query: np.ndarray, k: int = 3) -> list[KnowledgeChunk]:
        """The k chunks of highest cosine with the embedded ``query``, ties
        broken by (doc_id, chunk_index)."""
        if not self.chunks:
            raise EmptyStoreError("global chunk store is empty")
        if k < 1:
            raise KnowledgeError("k must be >= 1")
        ranked = np.lexsort((self._rank, -(self.matrix @ query)))
        return [self.chunks[i] for i in ranked[:k]]


# --- persistence ---------------------------------------------------------------

_MAGIC = b"SKEM"


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
    if count and not dim:  # no data bytes, however many rows
        raise KnowledgeError(f"{path}: header declares {count} rows of dim 0")
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


@contextmanager
def _store_writer(manifest_path: Path, matrix_path: Path, fields):
    """``add(item, row)``, which writes the ``fields`` line of ``item`` to the
    manifest and ``row`` as float32 to the matrix as it is called, and
    returns the number of rows written. Both files go through ``streamed``;
    the matrix header's dim (0 for no row) and row count are patched in
    when the block ends."""
    with streamed(manifest_path) as manifest, streamed(matrix_path, "wb") as matrix:
        matrix.write(_MAGIC + bytes(8))
        dim = count = 0

        def add(item, row: np.ndarray) -> int:
            nonlocal dim, count
            write_line(manifest, fields, functools.partial(getattr, item))
            matrix.write(row.astype("<f4").tobytes())
            dim, count = len(row), count + 1
            return count

        yield add
        matrix.seek(4)
        matrix.write(struct.pack("<II", dim, count))


def _save_store(items, matrix: np.ndarray, manifest_path: Path, matrix_path: Path, fields) -> None:
    with _store_writer(manifest_path, matrix_path, fields) as add:
        for item, row in zip(items, matrix, strict=True):
            add(item, row)


def _read_store(
    embedder, manifest_path: Path, matrix_path: Path, fields, make, key
) -> tuple[LineIndex, np.ndarray]:
    """The manifest (``LineIndex`` of ``make`` of each record's ``fields``)
    and the matrix of a saved store. A line that is not a JSON object with
    those fields, of their types, raises ``KnowledgeError`` naming
    ``path:line``."""
    items = LineIndex(manifest_path, fields, make, key, KnowledgeError)
    matrix = _read_matrix(Path(matrix_path))
    if len(items) != len(matrix):
        raise KnowledgeError(
            f"{manifest_path}: {len(items)} records, but {matrix_path} holds {len(matrix)} rows"
        )
    if not items:
        return items, np.empty((0, embedder.dim))
    if matrix.shape[1] != embedder.dim:
        raise DimensionMismatchError(
            f"{matrix_path}: rows have dim {matrix.shape[1]}, the embedder's is {embedder.dim}"
        )
    return items, matrix


def save_term_store(store: LocalTermStore, manifest_path: Path, matrix_path: Path) -> None:
    _save_store(store.entries, store.matrix, manifest_path, matrix_path, TERM_FIELDS)


def load_term_store(embedder, manifest_path: Path, matrix_path: Path) -> LocalTermStore:
    return LocalTermStore(
        *_read_store(embedder, manifest_path, matrix_path, TERM_FIELDS, TermEntry, _TERM_KEY)
    )


def save_chunk_store(store: GlobalChunkStore, manifest_path: Path, matrix_path: Path) -> None:
    _save_store(store.chunks, store.matrix, manifest_path, matrix_path, CHUNK_FIELDS)


def load_chunk_store(embedder, manifest_path: Path, matrix_path: Path) -> GlobalChunkStore:
    return GlobalChunkStore(
        *_read_store(embedder, manifest_path, matrix_path, CHUNK_FIELDS, KnowledgeChunk, _CHUNK_KEY)
    )


def build_stores_from_paths(
    embedder,
    corpus_dir: Path | None,
    terms_file: Path | None,
    out_dir: Path,
    chunk_tokens: int = DEFAULT_CHUNK_TOKENS,
) -> tuple[int, int]:
    """Index a two-column term file and a directory of .txt documents into
    the knowledge base in ``out_dir``; the numbers of terms and chunks.

    The term file is tab-separated ``term<TAB>definition``, one per line,
    where a line ends only at ``\n``, ``\r\n`` or ``\r`` (``utf8_lines``).
    Files are visited in sorted order so indexing is idempotent. Each term
    and chunk is written as soon as it is embedded, to ``terms.jsonl`` and
    ``terms.mat`` or ``chunks.jsonl`` and ``chunks.mat``, byte for byte as
    ``save_term_store`` and ``save_chunk_store`` write them, so one document
    is held at a time. The four files are renamed into place together at
    the end, so a bad input leaves an earlier knowledge base whole.
    """
    out = Path(out_dir)
    terms = chunks = 0
    with (
        _store_writer(out / "terms.jsonl", out / "terms.mat", TERM_FIELDS) as add_term,
        _store_writer(out / "chunks.jsonl", out / "chunks.mat", CHUNK_FIELDS) as add_chunk,
    ):
        if terms_file is not None:
            with open(terms_file, "rb") as raw:
                for line_no, line in enumerate(utf8_lines(raw, terms_file, KnowledgeError), 1):
                    line = line.removesuffix("\n")
                    if not line.strip():
                        continue
                    term, _, definition = line.partition("\t")
                    if not definition:
                        raise KnowledgeError(
                            f"{terms_file}:{line_no}: term line without definition: {line!r}"
                        )
                    if not term.strip():
                        raise KnowledgeError(f"{terms_file}:{line_no}: term must be non-empty")
                    entry = TermEntry(term.strip(), definition.strip())
                    terms = add_term(entry, embedder.embed(entry.definition))
        if corpus_dir is not None:
            for path in sorted(Path(corpus_dir).glob("*.txt")):
                for chunk in chunk_document(path.stem, read_utf8(path, KnowledgeError), chunk_tokens):
                    chunks = add_chunk(chunk, embedder.embed(chunk.text))
    return terms, chunks


class KnowledgeBase:
    """The knowledge base that ``build-kb`` wrote into ``kb_dir``, and the
    rule for what a row retrieves from it.

    It loads whichever of the term store (``terms.jsonl``, ``terms.mat``)
    and the chunk store (``chunks.jsonl``, ``chunks.mat``) the directory
    holds, and keeps one only if it has a row; if neither is kept it raises
    ``KnowledgeError``.
    """

    def __init__(self, kb_dir):
        kb = Path(kb_dir)
        self.embedder = HashedNgramEmbedder()

        def load(name: str, loader):
            if (kb / f"{name}.jsonl").is_file():
                store = loader(self.embedder, kb / f"{name}.jsonl", kb / f"{name}.mat")
                return store if len(store.matrix) else None

        self.term_store = load("terms", load_term_store)
        self.chunk_store = load("chunks", load_chunk_store)
        if self.term_store is None and self.chunk_store is None:
            raise KnowledgeError(f"{kb_dir}: the knowledge stores hold no term and no chunk")

    def retrieve(self, text: str) -> tuple[str, ...]:
        """What a row whose context is ``text`` retrieves: the top term as
        ``term: definition``, then the texts of the top 3 chunks, from the
        one embedding of ``text``; ``()`` if they join to the empty
        string."""
        query = self.embedder.embed(text)
        parts = []
        if self.term_store is not None:
            entry = self.term_store.retrieve(query)
            parts.append(f"{entry.term}: {entry.definition}")
        if self.chunk_store is not None:
            parts.extend(chunk.text for chunk in self.chunk_store.retrieve(query, k=3))
        return tuple(parts) if "\n".join(parts) else ()
