"""Construction-schedule toolkit: graph context sampling, retrieval stores,
masked-cell evaluation, and preference alignment.

The package root holds what every stage shares and the CLI needs before it
knows its command: the error bases it maps to exit codes, and the reading
and writing of whole files. It imports only the standard library."""

import os
from contextlib import contextmanager
from pathlib import Path

__version__ = "0.1.0"


class DataError(Exception):
    """Base of each module's error for input data it cannot use: a schedule,
    knowledge store, record, prompt or training set. The CLI maps it to
    exit 2."""


class CorruptRecordError(DataError):
    """A line of a JSON-lines record file, of preference pairs or of
    evaluation instances, that does not read back as its record."""


class GatewayError(Exception):
    """Base of every failed chat-completion exchange (``gateway``). The CLI
    maps it to exit 3."""


def read_utf8(path: Path, error) -> str:
    """The text of ``path``; bytes that are not UTF-8 raise ``error`` naming
    the file."""
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {type(exc).__name__}: {exc}") from None


@contextmanager
def streamed(path: Path, mode: str = "w"):
    """A file (``mode`` "w" for UTF-8 text, "wb" for bytes) written into a
    temporary sibling of ``path`` and renamed into place when the block
    ends, so a killed stage leaves no half-written artifact and the previous
    one stays whole; the sibling is deleted if an exception escapes."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_artifact(path: Path, text: str) -> None:
    """``text`` as the whole UTF-8 file ``path``, through ``streamed``."""
    with streamed(path) as fh:
        fh.write(text)
