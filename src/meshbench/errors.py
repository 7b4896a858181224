"""Exception hierarchy shared by all meshbench modules.

Every failure raised by the library derives from :class:`MeshBenchError`, so
callers (and the CLI) can distinguish domain errors from programming errors.
"""


class MeshBenchError(Exception):
    """Base class for all meshbench domain errors."""


# --- mesh tree construction / validation ---

class DuplicateName(MeshBenchError):
    """Two siblings (bases, zones, fields, tags) share a name."""


class InvalidName(MeshBenchError):
    """Identifier is empty or contains the path separator '/'."""


class DimensionMismatch(MeshBenchError):
    """Array shape, dimension or dtype inconsistent with its container."""


class IndexOutOfRange(MeshBenchError):
    """Connectivity or tag id outside the valid entity range."""


class NotStructured(MeshBenchError):
    """Operation requires a structured zone."""


class MissingLinkTarget(MeshBenchError):
    """A link cannot be satisfied: no provider tree, no such path, or a
    content gap that no link covers."""


# --- sample queries ---

class NoSuchTime(MeshBenchError):
    """No stored mesh time within tolerance of the requested time."""


class AmbiguousDefault(MeshBenchError):
    """A default time cannot be chosen (several times, none at 0)."""


class AmbiguousQuery(MeshBenchError):
    """An omitted selector argument matches more than one candidate."""


class NotFound(MeshBenchError):
    """Requested named entity does not exist."""


class FieldNotFound(NotFound):
    """No field matches the selector."""


# --- dataset store ---

class IoFailure(MeshBenchError):
    """Filesystem-level failure while reading or writing a dataset."""


class InvalidDataset(MeshBenchError):
    """Dataset violates its invariants; refusing to write."""


class FormatError(MeshBenchError):
    """On-disk content does not conform to the format.

    Carries the offending file path and, when meaningful, a byte offset.
    """

    def __init__(self, message, path=None, offset=None):
        self.path = str(path) if path is not None else None
        self.offset = offset
        detail = message
        if self.path is not None:
            detail += f" [file: {self.path}"
            if offset is not None:
                detail += f", byte offset: {offset}"
            detail += "]"
        super().__init__(detail)


class VersionMismatch(MeshBenchError):
    """On-disk format version is not supported by this reader."""


class NoSuchSplit(MeshBenchError):
    """Requested split name absent from the problem definition."""


class IdOutOfRange(MeshBenchError):
    """Sample id outside [0, n_samples)."""


# --- metrics ---

class ShapeMismatch(MeshBenchError):
    """Paired arrays differ in length or keys."""


class DegenerateReference(MeshBenchError):
    """Reference norm below threshold; relative error undefined."""


class MissingOutput(MeshBenchError):
    """A required output name is absent from the prediction bundle."""


class NoPartition(MeshBenchError):
    """Hidden public/private partition requested but not defined."""


# --- morphing / interpolation ---

class NotDiskTopology(MeshBenchError):
    """Triangulation is not a manifold disk (holes, pinches, no boundary)."""


class SolveFailure(MeshBenchError):
    """Linear solve did not converge or produced an invalid embedding."""


class PointOutsideDomain(MeshBenchError):
    """Target point lies outside the source mesh beyond tolerance."""


# --- reduction / regression ---

class RankDeficient(MeshBenchError):
    """Requested mode count exceeds the numerical rank of the snapshots."""


class SingularKernel(MeshBenchError):
    """Kernel matrix plus nugget has no Cholesky factor; no jitter is added."""


class DegenerateInputs(MeshBenchError):
    """Training data carries no signal (e.g. constant targets)."""


class ConfigInvalid(MeshBenchError):
    """Configuration value missing, unparsable, or out of range."""
