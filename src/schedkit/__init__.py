"""Construction-schedule toolkit: graph context sampling, retrieval stores,
masked-cell evaluation, and preference alignment.

The package root holds what every stage shares and the CLI needs before it
knows its command: the error bases it maps to exit codes, the reading and
writing of files, the interpreter's own SHA-256, and the base of the
classes that are not plain records (``Struct``). It imports only the
standard library."""

import io
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

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


class Struct:
    """Base of the package's classes that are mutable, validate what they
    are given or keep a cache; its immutable records are ``NamedTuple``s.
    Each subclass names its fields in ``_fields``, lists its slots, and
    writes its own ``__init__``. Two instances of a class are equal when
    their fields are, and one shows as ``Name(field=value, ...)``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


def builtin_sha256():
    """The SHA-256 constructor that CPython builds in (``_sha2`` from 3.12,
    ``_sha256`` before), which loads no OpenSSL, or ``hashlib``'s where the
    interpreter has neither. All give the same digests."""
    # By version, as ``gateway`` calls this for each hash and a failed
    # import costs about 50 us.
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256


def read_utf8(path: Path, error) -> str:
    """The text of ``path``, as ``utf8_lines`` reads it."""
    with open(path, "rb") as raw:
        return "".join(utf8_lines(raw, path, error))


def utf8_lines(raw: BinaryIO, path, error) -> Iterator[str]:
    """The lines of ``raw``, a binary file opened from ``path``, decoded one
    at a time with the line ends of text mode (``\\r\\n`` and a lone
    ``\\r`` read as ``\\n``), so the file is never held whole and a pipe
    works. Bytes that are not UTF-8 raise ``error`` naming the file, with
    their byte offset in it, in the words of ``UnicodeDecodeError``."""
    offset = 0
    # No UTF-8 sequence holds a \n byte, so each line decodes on its own.
    for line in raw:
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            start, end = offset + exc.start, offset + exc.end
            where = (
                f"byte 0x{line[exc.start]:02x} in position {start}"
                if end - start == 1
                else f"bytes in position {start}-{end - 1}"
            )
            raise error(
                f"{path}: UnicodeDecodeError: 'utf-8' codec can't decode {where}: {exc.reason}"
            ) from None
        offset += len(line)
        if "\r" in text:
            yield from io.StringIO(text, newline=None)
        else:
            yield text


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
