"""The one on-disk encoding shared by datasets, prediction bundles and models.

Every artifact file is a JSON manifest or the blob beside it.  The arrays
of one manifest are packed, in the order written, into that one blob,
named like the manifest with the suffix ``.blob``, as raw little-endian
IEEE-754 doubles or signed 64-bit integers; the manifest records each
array's byte offset, dtype and shape, so every array round-trips
losslessly.  The spans of a manifest's arrays must tile its blob exactly:
no gap, no overlap and no trailing byte (an empty array takes a
zero-length span).  A manifest without arrays has no blob.

Manifests, ``infos.yaml`` and ``problem_infos.yaml`` are strict JSON
documents (no NaN or infinity), each written on one line with a trailing
LF.  Non-ASCII characters, lone surrogates included, are written as
``\\u`` escapes, so these files are ASCII.  Real scalars embedded in
manifests are strings holding the shortest decimal form that restores the
exact double (Python ``repr``).  A file that does not decode as UTF-8 is
malformed.

Readers report malformed content as :class:`FormatError` carrying the file
path, and an unsupported ``format_version`` as :class:`VersionMismatch`.
This is format version 4.  Versions 1 and 2 wrote YAML manifests, which
fail to parse as JSON; version 3 wrote CSV tables beside them.  Their
datasets, bundles and models must be regenerated or refit.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigInvalid, FormatError, IoFailure, VersionMismatch

FORMAT_VERSION = 4

_DTYPES = {"float64": np.dtype("<f8"), "int64": np.dtype("<i8")}


def format_real(x: float) -> str:
    """Shortest decimal string restoring the exact double."""
    return repr(float(x))


def parse_real(s: str) -> float:
    return float(s)


def parse_name(value) -> str:
    """A stored name, which is a JSON string and nothing else."""
    if type(value) is not str:
        raise TypeError(f"name {value!r} is not a string")
    return value


@contextmanager
def decoding(path: Path):
    """Report a missing key, wrong type or unparsable or out-of-range value
    met while decoding ``path`` as a FormatError on it."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, IndexError,
            OverflowError, ConfigInvalid) as exc:
        raise FormatError(f"malformed content: {type(exc).__name__}: {exc}",
                          path=path) from exc


# ---------------------------------------------------------------------------
# blobs

class BlobWriter:
    """Packs the arrays of one manifest into the blob beside it, which has
    the manifest's name with the suffix ``.blob``.

    :meth:`write` returns an array's manifest entry; :meth:`write_manifest`
    writes the blob, then the manifest, so that no manifest with arrays is
    ever on disk without its blob.
    """

    def __init__(self, manifest_path: Path):
        self.manifest_path = manifest_path
        self.path = manifest_path.with_suffix(".blob")
        self.chunks: list[bytes] = []
        self.offset = 0

    def write(self, array: np.ndarray) -> dict:
        dtype = array.dtype.name
        if dtype not in _DTYPES:
            raise IoFailure(f"unsupported array dtype {array.dtype}")
        data = np.ascontiguousarray(array, dtype=_DTYPES[dtype]).tobytes()
        entry = {"offset": self.offset, "dtype": dtype,
                 "shape": list(array.shape)}
        self.chunks.append(data)
        self.offset += len(data)
        return entry

    def write_manifest(self, doc: dict) -> None:
        """The blob (none when no array was written), then ``doc``."""
        if self.chunks:
            with open(self.path, "wb") as fh:
                fh.writelines(self.chunks)
        write_manifest(self.manifest_path, doc)


class BlobReader:
    """Reads the array entries of one manifest from the blob beside it,
    reading the blob file once.

    Use it as a context manager around the reads: on leaving it without an
    error, the spans read must tile the blob exactly, with no gap, overlap
    or trailing byte.
    """

    def __init__(self, manifest_path: Path):
        self.manifest_path = manifest_path
        self.path = manifest_path.with_suffix(".blob")
        self.data: Optional[bytes] = None
        self.spans: list[tuple[int, int]] = []

    def __enter__(self) -> "BlobReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None or self.data is None:
            return
        size, position = len(self.data), 0
        for start, end in sorted(self.spans) + [(size, size)]:
            if start != position:
                at = min(start, position)
                raise FormatError(
                    f"the arrays of {self.manifest_path.name} do not tile "
                    f"the {size}-byte blob: "
                    f"{'overlap' if start < position else 'gap'} at byte {at}",
                    path=self.path, offset=at)
            position = end

    def read(self, entry: dict, dtype: str) -> np.ndarray:
        """The read-only array of one entry; its dtype must be ``dtype``."""
        manifest = self.manifest_path
        with decoding(manifest):
            offset = entry["offset"]
            dtype_name = entry["dtype"]
            shape = tuple(int(s) for s in entry["shape"])
        if dtype_name != dtype:
            raise FormatError(f"array dtype {dtype_name!r}, expected {dtype}",
                              path=manifest)
        if type(offset) is not int or offset < 0:
            raise FormatError(f"blob {self.path.name} offset {offset!r} is "
                              f"not an integer >= 0", path=manifest)
        if any(s < 0 for s in shape):
            raise FormatError(f"negative array shape {list(shape)}",
                              path=manifest)
        if self.data is None:
            self.data = _read_bytes(self.path)
            if self.data is None:
                raise FormatError(f"blob missing (needed by {manifest.name})",
                                  path=self.path)
        count = math.prod(shape)
        end = offset + count * 8
        if end > len(self.data):
            raise FormatError(
                f"{manifest.name} places an array at bytes {offset}..{end} "
                f"of a {len(self.data)}-byte blob", path=self.path,
                offset=min(offset, len(self.data)))
        self.spans.append((offset, end))
        return np.frombuffer(self.data, dtype=_DTYPES[dtype], count=count,
                             offset=offset).reshape(shape)


# ---------------------------------------------------------------------------
# JSON manifests

def _read_bytes(path: Path) -> Optional[bytes]:
    """The content of ``path``, or None when no file is there."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        return None


def write_manifest(path: Path, doc: dict) -> None:
    """``doc`` as one line of strict, ASCII-only JSON, keys in dict order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, allow_nan=False) + "\n")


def read_manifest(path: Path) -> dict:
    """The object a JSON manifest holds; anything else is a FormatError."""
    data = _read_bytes(path)
    if data is None:
        raise FormatError("file missing", path=path)
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc.reason}", path=path,
                          offset=exc.start) from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"not JSON ({exc}); manifests are JSON since format"
                          f" 3: regenerate or refit older artifacts", path=path)
    if not isinstance(doc, dict):
        raise FormatError(f"expected a JSON object, found "
                          f"{type(doc).__name__}", path=path)
    return doc


def check_version(doc: dict, path: Path) -> None:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"format_version {version!r} not supported "
                              f"(expected {FORMAT_VERSION}) [file: {path}]")
