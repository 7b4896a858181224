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
``\\u`` escapes, so these files are ASCII.  A file that does not decode as
UTF-8 is malformed.

Readers take each stored value, through the ``decode_*`` accessors, in the
one JSON type its writer gives it, so no value loads in another spelling:
an integer is a JSON integer >= 0, never a bool or a float; a real is a
string holding exactly the shortest decimal form restoring the double
(``repr``: ``"1.5"``, never ``"1.50"`` or ``1.5``); a name is a string; a
shape is a list of integers; a kind is one of its known words; sample ids
increase strictly.  Every key the writer writes is required.

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

from .errors import FormatError, IoFailure, MeshBenchError, VersionMismatch

FORMAT_VERSION = 4

_DTYPES = {"float64": np.dtype("<f8"), "int64": np.dtype("<i8")}


def format_real(x: float) -> str:
    """Shortest decimal string restoring the exact double."""
    return repr(float(x))


def decode_int(value) -> int:
    """A stored integer: a JSON integer >= 0, never a bool or a float."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{value!r} is not an integer >= 0")
    return value


def decode_real(value) -> float:
    """A stored real: exactly the string ``format_real`` writes for it."""
    if type(value) is not str or format_real(x := float(value)) != value:
        raise ValueError(f"{value!r} is not a real as format_real writes it")
    return x


def decode_name(value) -> str:
    """A stored name, which is a JSON string and nothing else."""
    if type(value) is not str:
        raise TypeError(f"name {value!r} is not a string")
    return value


def decode_kind(value, kinds):
    """One of the words ``kinds`` lists, or the member of the Enum class
    ``kinds`` whose value it is."""
    enum = isinstance(kinds, type)
    if type(value) is not str or not (enum or value in kinds):
        raise ValueError(f"kind {value!r} is not one of {list(kinds)}")
    return kinds(value) if enum else value


def decode_list(value, item=None) -> list:
    """A JSON array, each entry decoded by ``item`` when given."""
    if type(value) is not list:
        raise TypeError(f"{value!r} is not a list")
    return value if item is None else [item(entry) for entry in value]


def decode_shape(value) -> tuple[int, ...]:
    """An array shape: a list of integers >= 0."""
    return tuple(decode_list(value, decode_int))


def decode_ids(value) -> list[int]:
    """Sample ids: integers >= 0 in strictly increasing order, as written."""
    if (ids := decode_list(value, decode_int)) != sorted(set(ids)):
        raise ValueError(f"sample ids {ids} are not strictly increasing")
    return ids


@contextmanager
def decoding(path: Path):
    """Report a missing key or a bad value met while decoding ``path``, or
    an invalid object built from it, as a FormatError on it."""
    try:
        yield
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError,
            OverflowError, MeshBenchError) as exc:
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

    def read(self, entry: dict, dtype: str = "float64") -> np.ndarray:
        """The read-only ``dtype`` array of one entry; call inside ``decoding``."""
        manifest = self.manifest_path
        offset = decode_int(entry["offset"])
        decode_kind(entry["dtype"], (dtype,))
        shape = decode_shape(entry["shape"])
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
    with decoding(path):
        version = decode_int(doc["format_version"])
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"format_version {version!r} not supported "
                              f"(expected {FORMAT_VERSION}) [file: {path}]")
