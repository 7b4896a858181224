"""The one on-disk encoding shared by datasets, prediction bundles and models.

Every artifact is one file: its manifest as one line of strict JSON (no
NaN or infinity), LF, then the payload, the manifest's arrays packed in
the order of the document as raw little-endian IEEE-754 doubles or signed
64-bit integers.  The manifest records each array's byte offset, counted
from the byte after the LF, its dtype and its shape, so every array
round-trips losslessly.  Each array must start where the one before it
ends (an empty one takes a zero-length span there), and no byte may follow
the last; ``infos.yaml`` and ``problem_infos.yaml`` have no arrays and an
empty payload.  The JSON line writes non-ASCII characters, lone surrogates
included, as ``\\u`` escapes, so it is ASCII; a line that does not decode
as UTF-8 is malformed.

Readers take each stored value, through the ``decode_*`` accessors, in the
one JSON type its writer gives it, so no value loads in another spelling: an
integer is a JSON integer >= 0, never a bool or a float; a real is a string
holding exactly the shortest decimal form restoring the double (``repr``:
``"1.5"``, never ``"1.50"`` or ``1.5``); a name is a string; a shape is a
list of integers; a kind is one of its known words; sample ids increase
strictly; no object repeats a key.  Every key the writer writes is required,
and an object whose keys the writer fixes holds no other key and holds its
keys in the writer's order; a map keyed by names (scalars, fields,
regressors, splits) holds its names in increasing order, as the writer sorts
them.  Only free metadata (``infos``) is open, kept in document order.

Readers report malformed content as :class:`FormatError` carrying the file
path, and an unsupported ``format_version`` as :class:`VersionMismatch`.
This is format version 5.  Versions 1 and 2 wrote YAML manifests, which
fail to parse as JSON; version 3 wrote CSV tables beside them; version 4
put a manifest's arrays in a ``.blob`` file beside it.  Their datasets,
bundles and models must be regenerated or refit.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import FormatError, IoFailure, MeshBenchError, VersionMismatch

FORMAT_VERSION = 5

_DTYPES = {"float64": np.dtype("<f8"), "int64": np.dtype("<i8")}
#: the stored name of each dtype written, in either byte order: a lookup,
#: as numpy builds ``dtype.name`` in Python on each call
_NAMES = {d.newbyteorder(o): name for name, d in _DTYPES.items() for o in "<>"}


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


def decode_object(value, *keys: str) -> dict:
    """A JSON object with no key but ``keys``, in that order, which is the
    writer's; a key it lacks fails when it is read, unless the reader takes
    it as optional."""
    if type(value) is not dict:
        raise TypeError(f"{value!r} is not a JSON object")
    if tuple(value) == keys:  # every key, as the writer writes them
        return value
    if unknown := value.keys() - set(keys):
        raise ValueError(f"unknown keys {sorted(unknown)}, expected {keys}")
    if list(value) != [key for key in keys if key in value]:
        raise ValueError(f"keys {list(value)} are not in the order {keys}")
    return value


def decode_map(value, item) -> dict:
    """A map keyed by names, in the increasing order the writer sorts them
    in, each value decoded by ``item``."""
    if type(value) is not dict:
        raise TypeError(f"{value!r} is not a JSON object")
    if list(value) != sorted(value):
        raise ValueError(f"keys {list(value)} are not in increasing order")
    return {name: item(entry) for name, entry in value.items()}


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; ``json.loads`` would keep a repeated
    key's last value, so a repeated key is an error."""
    if len(doc := dict(pairs)) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {max(keys, key=keys.count)!r}")
    return doc


class decoding:
    """Context manager reporting a missing key or a bad value met while
    decoding ``path``, or an invalid object built from it, as a FormatError
    on it."""

    def __init__(self, path: Path):
        self.path = path

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if isinstance(exc, (KeyError, TypeError, ValueError, AttributeError,
                            IndexError, OverflowError, MeshBenchError)) \
                and not isinstance(exc, FormatError):
            raise FormatError(f"malformed content: {type(exc).__name__}: "
                              f"{exc}", path=self.path) from exc


# ---------------------------------------------------------------------------
# artifact files

class ArtifactWriter:
    """Writes one artifact file: :meth:`write` packs an array into the
    payload and returns its manifest entry; :meth:`write_manifest` writes
    the manifest line, then the payload, written from the arrays themselves
    viewed as contiguous little-endian: an array already so is not copied,
    and must not change before ``write_manifest``."""

    def __init__(self, path: Path):
        self.path = path
        self.chunks: list[np.ndarray] = []
        self.offset = 0

    def write(self, array: np.ndarray) -> dict:
        dtype = _NAMES.get(array.dtype)
        if dtype is None:
            raise IoFailure(f"unsupported array dtype {array.dtype}")
        data = np.ascontiguousarray(array, dtype=_DTYPES[dtype])
        entry = {"offset": self.offset, "dtype": dtype,
                 "shape": list(array.shape)}
        self.chunks.append(data)
        self.offset += data.nbytes
        return entry

    def write_manifest(self, doc: dict) -> None:
        """``doc`` as one line of strict, ASCII-only JSON, keys in dict
        order, then LF and the arrays written."""
        with open(self.path, "wb") as fh:
            fh.write(json.dumps(doc, allow_nan=False).encode() + b"\n")
            fh.writelines(self.chunks)


class ArtifactReader(decoding):
    """One artifact file, read by one ``open``: its manifest as :attr:`doc`
    and read-only views of its arrays into the payload that follows.  With
    ``versioned``, the manifest's ``format_version`` must be this one.

    Use it as a context manager around the decoding, which takes the arrays
    in the order the writer packed them: an error met inside is reported as
    :class:`decoding` reports it, and on leaving without an error no payload
    byte may remain unread.
    """

    def __init__(self, path: Path, versioned: bool = False):
        self.path = path
        try:
            with open(path, "rb") as fh:
                line = fh.readline()
                # read(size) fills one bytes object; read() would join two,
                # whose freed parts fragment the heap (1 MB per 500 samples)
                self.payload = fh.read(os.fstat(fh.fileno()).st_size
                                       - len(line))
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            raise FormatError("file missing", path=path) from None
        try:
            self.doc = json.loads(line.decode("utf-8"),
                                  object_pairs_hook=_unique_keys)
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc.reason}", path=path,
                              offset=exc.start) from None
        except json.JSONDecodeError as exc:
            raise FormatError(f"not JSON ({exc}); manifests are JSON since "
                              f"format 3: regenerate or refit older artifacts",
                              path=path)
        except ValueError as exc:  # a repeated key, or too many digits
            raise FormatError(str(exc), path=path) from None
        if not isinstance(self.doc, dict):
            raise FormatError(f"expected a JSON object, found "
                              f"{type(self.doc).__name__}", path=path)
        if versioned:
            with decoding(path):
                version = decode_int(self.doc["format_version"])
            if version != FORMAT_VERSION:
                raise VersionMismatch(f"format_version {version!r} not "
                                      f"supported (expected {FORMAT_VERSION})"
                                      f" [file: {path}]")
        self.start = len(line)  # the file offset of payload byte 0
        self.position = 0

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.position != len(self.payload):
            self._fail(f"{len(self.payload) - self.position} bytes follow the"
                       f" last array", self.position)
        super().__exit__(exc_type, exc, tb)

    def _fail(self, message: str, at: int):
        raise FormatError(f"the arrays do not tile the {len(self.payload)}-"
                          f"byte payload: {message}", path=self.path,
                          offset=self.start + at)

    def read(self, entry: dict, dtype: str = "float64") -> np.ndarray:
        """The read-only ``dtype`` array of one entry."""
        decode_object(entry, "offset", "dtype", "shape")
        offset = decode_int(entry["offset"])
        decode_kind(entry["dtype"], (dtype,))
        shape = decode_shape(entry["shape"])
        if offset != self.position:
            self._fail(f"an array at byte {offset}, where the one before it "
                       f"ends at byte {self.position}", self.position)
        count = math.prod(shape)
        if (end := offset + count * 8) > len(self.payload):
            self._fail(f"an array ends at byte {end}", len(self.payload))
        self.position = end
        return np.frombuffer(self.payload, dtype=_DTYPES[dtype], count=count,
                             offset=offset).reshape(shape)
