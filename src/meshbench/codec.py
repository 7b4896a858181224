"""The one on-disk encoding shared by datasets, prediction bundles and models.

Arrays are stored as raw little-endian IEEE-754 doubles or signed 64-bit
integers; the manifest records dtype, shape and blob filename, so every
array round-trips losslessly.  Real scalars embedded in text files use the
shortest decimal form that restores the exact double (Python ``repr``).
All text files are UTF-8 with LF line endings; a file that does not decode
as UTF-8 is malformed.

YAML documents are parsed and emitted by libyaml when the installed PyYAML
carries its bindings, and by PyYAML's pure-Python loader and dumper
otherwise.  The two dumpers write the same bytes except for strings with
one of these, which libyaml writes in an escaped form that loads back to
the same value:

- U+0085 (next line) becomes the ``\\N`` escape in a double-quoted scalar
  (the pure dumper writes it raw, and loaders fold a raw one into a space);
- characters beyond U+FFFF become ``\\U`` escapes;
- a mapping key of more than 128 UTF-8 bytes, but at most 128 characters,
  is written as an explicit ``? key`` entry.

Readers report malformed content as :class:`FormatError` carrying the file
path, and an unsupported ``format_version`` as :class:`VersionMismatch`.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np
import yaml

from .errors import FormatError, IoFailure, VersionMismatch

FORMAT_VERSION = 1

_DTYPES = {"float64": np.dtype("<f8"), "int64": np.dtype("<i8")}

# libyaml's loader and dumper when PyYAML was built with it
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def format_real(x: float) -> str:
    """Shortest decimal string restoring the exact double."""
    return repr(float(x))


def parse_real(s: str) -> float:
    return float(s)


@contextmanager
def decoding(path: Path):
    """Report a missing key, wrong type or unparsable or out-of-range value
    met while decoding ``path`` as a FormatError on it."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, IndexError,
            OverflowError) as exc:
        raise FormatError(f"malformed content: {type(exc).__name__}: {exc}",
                          path=path) from exc


# ---------------------------------------------------------------------------
# blobs

class BlobWriter:
    """Writes arrays as sibling blob files with deterministic names."""

    def __init__(self, directory: Path, prefix: str):
        self.directory = directory
        self.prefix = prefix
        self.counter = 0

    def write(self, array: np.ndarray) -> dict:
        dtype = array.dtype.name
        if dtype not in _DTYPES:
            raise IoFailure(f"unsupported array dtype {array.dtype}")
        name = f"{self.prefix}_{self.counter:03d}.blob"
        self.counter += 1
        data = np.ascontiguousarray(array, dtype=_DTYPES[dtype]).tobytes()
        (self.directory / name).write_bytes(data)
        return {"blob": name, "dtype": dtype, "shape": list(array.shape)}


def read_blob_array(entry: dict, manifest_path: Path, dtype: str
                    ) -> np.ndarray:
    """Load one array entry of a manifest from the blob beside it; the
    entry's dtype must be ``dtype``, and size and shape must agree."""
    with decoding(manifest_path):
        blob_name = entry["blob"]
        dtype_name = entry["dtype"]
        shape = tuple(int(s) for s in entry["shape"])
    if dtype_name != dtype:
        raise FormatError(f"array dtype {dtype_name!r}, expected {dtype}",
                          path=manifest_path)
    blob_path = manifest_path.parent / blob_name
    data = _read_bytes(blob_path)
    if data is None:
        raise FormatError("referenced blob missing", path=blob_path)
    expected = int(np.prod(shape, dtype=np.int64)) * 8
    if len(data) != expected:
        raise FormatError(
            f"blob holds {len(data)} bytes, expected {expected}",
            path=blob_path, offset=min(len(data), expected))
    array = np.frombuffer(data, dtype=_DTYPES[dtype]).reshape(shape)
    array.setflags(write=False)
    return array


# ---------------------------------------------------------------------------
# text, YAML documents and CSV tables

def _read_bytes(path: Path) -> Optional[bytes]:
    """The content of ``path``, or None when no file is there."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        return None


def _read_text(path: Path) -> Optional[str]:
    """The UTF-8 text of ``path``, or None when no file is there."""
    data = _read_bytes(path)
    if data is None:
        return None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc.reason}", path=path,
                          offset=exc.start) from None


def write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_yaml(path: Path, doc: dict, sort_keys: bool = True) -> None:
    write_text(path, yaml.dump(doc, Dumper=_DUMPER, sort_keys=sort_keys,
                               allow_unicode=True))


def read_yaml(path: Path) -> dict:
    """The mapping a YAML file holds; anything else is a FormatError."""
    text = _read_text(path)
    if text is None:
        raise FormatError("file missing", path=path)
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise FormatError(f"invalid YAML: {exc}", path=path)
    if not isinstance(doc, dict):
        raise FormatError(f"expected a mapping, found {type(doc).__name__}",
                          path=path)
    return doc


def check_version(doc: dict, path: Path) -> None:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"format_version {version!r} not supported "
                              f"(expected {FORMAT_VERSION}) [file: {path}]")


def write_table(path: Path, header: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """A CSV table; one without columns is an empty file."""
    buf = io.StringIO()
    if header:
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    write_text(path, buf.getvalue())


def read_table(path: Path, header: Optional[Sequence[str]] = None
               ) -> Optional[tuple[list[str], list[list[str]]]]:
    """(header, rows) of a CSV table, or None when the file does not exist.

    An empty file is a table without columns.  A given ``header`` must
    equal the first row; every row must be as wide as the header.
    """
    text = _read_text(path)
    if text is None:
        return None
    rows = list(csv.reader(io.StringIO(text)))
    found, rows = (rows[0], rows[1:]) if rows else ([], [])
    if header is not None and found != list(header):
        raise FormatError(f"table header must be {','.join(header)}", path=path)
    for row in rows:
        if len(row) != len(found):
            raise FormatError(f"row {row!r} does not match header {found!r}",
                              path=path)
    return found, rows
