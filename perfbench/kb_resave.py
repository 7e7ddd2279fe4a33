"""Reload a built knowledge base and save it again, for the byte-identity check.

Usage (with ``schedkit`` importable): python kb_resave.py KB_DIR OUT_DIR

Writes the re-saved ``terms.*`` and ``chunks.*`` to OUT_DIR.  Beside each
re-saved matrix it writes ``<name>.renorm.mat``: the input matrix with every
float32 row renormalised in float64 and rounded back to float32.  That is
what a re-save gives while the reader renormalises on load (a known defect),
so the check can tell that change apart from any other.
"""

import struct
import sys
from pathlib import Path

import numpy as np

from schedkit import knowledge


def renormalised(raw: bytes) -> bytes:
    """A matrix file with each row divided by its float64 norm."""
    dim, count = struct.unpack_from("<II", raw, 4)
    out = [raw[:12]]
    for i in range(count):
        row = np.asarray(struct.unpack_from(f"<{dim}f", raw, 12 + 4 * dim * i), dtype=np.float64)
        out.append(struct.pack(f"<{dim}f", *(float(x) for x in row / np.linalg.norm(row))))
    return b"".join(out)


def main(kb_dir: str, out_dir: str) -> None:
    kb, out = Path(kb_dir), Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    embedder = knowledge.HashedNgramEmbedder()
    terms = knowledge.load_term_store(embedder, kb / "terms.jsonl", kb / "terms.mat")
    knowledge.save_term_store(terms, out / "terms.jsonl", out / "terms.mat")
    chunks = knowledge.load_chunk_store(embedder, kb / "chunks.jsonl", kb / "chunks.mat")
    knowledge.save_chunk_store(chunks, out / "chunks.jsonl", out / "chunks.mat")
    for name in ("terms", "chunks"):
        (out / f"{name}.renorm.mat").write_bytes(renormalised((kb / f"{name}.mat").read_bytes()))


if __name__ == "__main__":
    main(*sys.argv[1:])
