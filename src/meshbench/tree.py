"""Hierarchical mesh datamodel: bases, zones, element blocks, fields, tags.

A :class:`MeshTree` describes one physical configuration at one simulation
time.  It contains bases (which fix a cell dimension and an ambient physical
dimension), each holding zones (one mesh each: coordinates, connectivity,
located fields, tags).  Trees are immutable after construction: the
``make_*`` helpers normalize arrays to little-endian double (coordinates,
field values) or int64 (connectivity, tag ids), the only dtypes the store
holds, and mark them read-only, so a tree can be shared freely across
threads; validation reports an array of any other dtype.  They hold a
read-only input array as it is and copy a writable one, which stays the
caller's.

A tree may leave geometric content (coordinates, element blocks) absent and
declare a :class:`LinkSpec` pointing at an earlier-time tree that carries the
actual arrays.  A link may only target content that is absent here; anything
already materialized cannot be overridden.  :func:`resolve_links` produces a
self-contained tree.

One check collects every violation, with its error class, into a
:class:`ValidationReport`; :func:`build_tree` raises the first of them.  One
bit-exact comparison, :func:`structurally_equal`, backs every ``*_equal``.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateName,
    IndexOutOfRange,
    InvalidName,
    MeshBenchError,
    MissingLinkTarget,
    NotStructured,
)


class ZoneType(enum.Enum):
    Structured = "Structured"
    Unstructured = "Unstructured"


class Location(enum.Enum):
    Vertex = "Vertex"
    CellCenter = "CellCenter"
    FaceCenter = "FaceCenter"


class TagKind(enum.Enum):
    NodalTag = "NodalTag"
    ElementTag = "ElementTag"


class ElementType(enum.Enum):
    NODE = "NODE"
    BAR_2 = "BAR_2"
    TRI_3 = "TRI_3"
    QUAD_4 = "QUAD_4"
    TETRA_4 = "TETRA_4"
    HEXA_8 = "HEXA_8"

    @property
    def nodes_per_element(self) -> int:
        return _NODES_PER_ELEMENT[self]


_NODES_PER_ELEMENT = {
    ElementType.NODE: 1,
    ElementType.BAR_2: 2,
    ElementType.TRI_3: 3,
    ElementType.QUAD_4: 4,
    ElementType.TETRA_4: 4,
    ElementType.HEXA_8: 8,
}


def _freeze(values, dtype) -> np.ndarray:
    """Normalize to a read-only contiguous ``dtype`` array.  Read-only input
    is kept as it is; writable memory the caller may hold is copied, so the
    caller's arrays stay writable and later writes to them leave the tree
    as it was built."""
    a = np.ascontiguousarray(values, dtype=dtype)
    if a.flags.writeable and (a is values or not a.flags.owndata):
        a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ElementBlock:
    """One homogeneous batch of elements.

    ``global_range`` is the half-open interval of element ids this block
    occupies within its zone; blocks partition [0, total_elements).
    """

    element_type: ElementType
    connectivity: np.ndarray  # (n_elements, nodes_per_element) int64
    global_range: tuple[int, int]

    @property
    def n_elements(self) -> int:
        return self.connectivity.shape[0]


@dataclass(frozen=True)
class FieldArray:
    """A named real-valued field attached to a mesh location.

    CellCenter values are ordered by global element id across the zone's
    blocks (block order), not per-block.
    """

    name: str
    location: Location
    values: np.ndarray  # 1-D float64


@dataclass(frozen=True)
class TagSet:
    """A named set of node or element ids (sorted, unique)."""

    name: str
    kind: TagKind
    ids: np.ndarray  # 1-D int64, sorted unique


@dataclass(frozen=True)
class Zone:
    """One mesh: coordinates plus connectivity, fields and tags.

    ``coordinates`` may be None when a link supplies it; ``structured_dims``
    is set only for structured zones (implicit connectivity).
    """

    name: str
    zone_type: ZoneType
    n_vertices: int
    coordinates: Optional[np.ndarray]  # (n_vertices, phys_dim) float64
    element_blocks: tuple[ElementBlock, ...] = ()
    fields: tuple[FieldArray, ...] = ()
    tags: tuple[TagSet, ...] = ()
    structured_dims: Optional[tuple[int, ...]] = None

    @property
    def total_elements(self) -> int:
        if self.zone_type is ZoneType.Structured:
            if self.structured_dims is None:
                return 0
            n = 1
            for d in self.structured_dims:
                n *= max(d - 1, 0)
            return n
        return sum(b.n_elements for b in self.element_blocks)


@dataclass(frozen=True)
class Base:
    """A family of zones sharing cell and physical dimensions.

    Names follow the ``Base_{cell_dim}_{phys_dim}`` convention but any
    identifier is accepted.
    """

    name: str
    cell_dim: int
    phys_dim: int
    zones: tuple[Zone, ...] = ()


@dataclass(frozen=True)
class LinkSpec:
    """Borrow geometric content from the tree at an earlier time.

    Each target path is ``base/zone/coordinates``, ``base/zone/elements``,
    or ``base/zone`` (shorthand for both components).
    """

    target_time: float
    target_paths: tuple[str, ...]


@dataclass(frozen=True)
class MeshTree:
    bases: tuple[Base, ...]
    time: float
    links: tuple[LinkSpec, ...] = ()

    def base(self, name: str) -> Base:
        for b in self.bases:
            if b.name == name:
                return b
        raise KeyError(name)


@dataclass
class ValidationReport:
    """Outcome of a conformance check.

    ``violations`` are hard invariant breaches (path, message), and
    ``error_classes`` holds the error each one raises, in the same order;
    ``notes`` record accepted-but-unchecked content (e.g. FaceCenter field
    lengths).
    """

    violations: list[tuple[str, str]] = field(default_factory=list)
    error_classes: list[type[MeshBenchError]] = field(default_factory=list)
    notes: list[tuple[str, str]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.violations

    def add(self, error: type[MeshBenchError], path: str, message: str) -> None:
        self.violations.append((path, message))
        self.error_classes.append(error)

    def note(self, path: str, message: str) -> None:
        self.notes.append((path, message))

    def extend_prefixed(self, prefix: str, other: "ValidationReport") -> None:
        self.violations.extend((f"{prefix}/{p}", m) for p, m in other.violations)
        self.error_classes.extend(other.error_classes)
        self.notes.extend((f"{prefix}/{p}", m) for p, m in other.notes)

    def lines(self) -> list[str]:
        out = [f"violation: {p}: {m}" for p, m in self.violations]
        out += [f"note: {p}: {m}" for p, m in self.notes]
        return out


# ---------------------------------------------------------------------------
# construction helpers

def make_element_block(element_type: ElementType, connectivity,
                       global_start: int = 0) -> ElementBlock:
    conn = _freeze(connectivity, np.int64)
    if conn.ndim != 2 or conn.shape[1] != element_type.nodes_per_element:
        raise DimensionMismatch(
            f"{element_type.value} connectivity must be (n, "
            f"{element_type.nodes_per_element}), got {conn.shape}")
    return ElementBlock(element_type, conn,
                        (global_start, global_start + conn.shape[0]))


def make_field(name: str, values, location: Location = Location.Vertex) -> FieldArray:
    vals = _freeze(values, np.float64)
    if vals.ndim != 1:
        raise DimensionMismatch(f"field '{name}' values must be 1-D, got {vals.shape}")
    return FieldArray(name, location, vals)


def make_tag(name: str, ids, kind: TagKind = TagKind.NodalTag) -> TagSet:
    arr = np.unique(np.asarray(ids, dtype=np.int64))
    arr.setflags(write=False)
    return TagSet(name, kind, arr)


def make_unstructured_zone(name: str, coordinates,
                           blocks: Sequence[tuple[ElementType, object]] = (),
                           fields: Sequence[FieldArray] = (),
                           tags: Sequence[TagSet] = (),
                           n_vertices: Optional[int] = None) -> Zone:
    """Build an unstructured zone, assigning contiguous global ranges.

    ``n_vertices`` must be given explicitly when coordinates are left to a
    link (coordinates=None); field lengths validate against it.
    """
    coords = None if coordinates is None else _freeze(coordinates, np.float64)
    if n_vertices is None:
        n_vertices = 0 if coords is None else coords.shape[0]
    eb = []
    start = 0
    for etype, conn in blocks:
        block = make_element_block(etype, conn, start)
        start = block.global_range[1]
        eb.append(block)
    return Zone(name, ZoneType.Unstructured,
                n_vertices=n_vertices, coordinates=coords,
                element_blocks=tuple(eb), fields=tuple(fields), tags=tuple(tags))


def make_structured_zone(name: str, coordinates, dims,
                         fields: Sequence[FieldArray] = (),
                         tags: Sequence[TagSet] = ()) -> Zone:
    """Build a structured zone; connectivity stays implicit."""
    coords = None if coordinates is None else _freeze(coordinates, np.float64)
    dims = tuple(int(d) for d in dims)
    n_vertices = int(np.prod(dims))
    return Zone(name, ZoneType.Structured,
                n_vertices=n_vertices, coordinates=coords,
                fields=tuple(fields), tags=tuple(tags),
                structured_dims=dims)


# ---------------------------------------------------------------------------
# link paths

_LINK_COMPONENTS = ("coordinates", "elements")


def _parse_link_path(path: str) -> tuple[str, str, tuple[str, ...]]:
    """Split a link path into (base, zone, components)."""
    parts = path.split("/")
    if len(parts) == 2:
        return parts[0], parts[1], _LINK_COMPONENTS
    if len(parts) == 3 and parts[2] in _LINK_COMPONENTS:
        return parts[0], parts[1], (parts[2],)
    raise MissingLinkTarget(
        f"malformed link path '{path}' (expected base/zone[/coordinates|/elements])")


def _find_zone(tree: MeshTree, base_name: str, zone_name: str) -> Optional[tuple[Base, Zone]]:
    for b in tree.bases:
        if b.name == base_name:
            for z in b.zones:
                if z.name == zone_name:
                    return b, z
    return None


def _gap_components(zone: Zone) -> set[str]:
    gaps = set()
    if zone.coordinates is None:
        gaps.add("coordinates")
    if zone.zone_type is ZoneType.Unstructured and not zone.element_blocks:
        gaps.add("elements")
    return gaps


def _linked_components(tree: MeshTree) -> dict[tuple[str, str], set[str]]:
    """Map (base, zone) -> set of components claimed by links."""
    claimed: dict[tuple[str, str], set[str]] = {}
    for link in tree.links:
        for path in link.target_paths:
            base_name, zone_name, comps = _parse_link_path(path)
            claimed.setdefault((base_name, zone_name), set()).update(comps)
    return claimed


# ---------------------------------------------------------------------------
# operations

def build_tree(bases: Sequence[Base], time: float = 0.0,
               links: Sequence[LinkSpec] = ()) -> MeshTree:
    """Assemble and validate an immutable mesh tree.

    Raises the first invariant violation instead of collecting a report:
    DuplicateName, DimensionMismatch, IndexOutOfRange, or MissingLinkTarget
    (a coordinates gap that no link covers, or a link at a non-gap).
    """
    links = tuple(LinkSpec(float(l.target_time), tuple(l.target_paths))
                  for l in links)
    tree = MeshTree(bases=tuple(bases), time=float(time), links=links)
    report = validate_tree(tree)
    if report.violations:
        path, message = report.violations[0]
        raise report.error_classes[0](f"{path}: {message}")
    return tree


def validate_tree(tree: MeshTree) -> ValidationReport:
    """Check every datamodel invariant; report violations with tree paths.

    Never raises: violations are report entries.  FaceCenter field lengths
    are not validated (no face datamodel) and surface as 'unchecked' notes.
    """
    out = ValidationReport()
    if not 0 <= tree.time < np.inf:
        out.add(DimensionMismatch, "time",
                f"tree time must be finite and non-negative, got {tree.time}")
    for link in tree.links:
        if not link.target_time < tree.time:
            out.add(MissingLinkTarget, "links",
                    f"link target time {link.target_time!r} must be strictly "
                    f"earlier than tree time {tree.time!r}")
    try:
        claimed = _linked_components(tree)
    except MissingLinkTarget as exc:
        out.add(MissingLinkTarget, "links", str(exc))
        claimed = {}

    seen_bases = set()
    for b in tree.bases:
        if b.name in seen_bases:
            out.add(DuplicateName, b.name, f"duplicate base name '{b.name}'")
            continue
        seen_bases.add(b.name)
        _validate_base(b, claimed, out)

    # links must target gaps that exist, in zones that exist
    for (base_name, zone_name), comps in claimed.items():
        found = _find_zone(tree, base_name, zone_name)
        if found is None:
            out.add(MissingLinkTarget, f"{base_name}/{zone_name}",
                    "link targets a zone absent from this tree")
            continue
        _, zone = found
        gaps = _gap_components(zone)
        for comp in comps:
            if comp not in gaps:
                out.add(MissingLinkTarget, f"{base_name}/{zone_name}/{comp}",
                        "link shadows materialized content")
    return out


def is_identifier(name) -> bool:
    """The rule for every name in a tree: a non-empty str without '/'."""
    return isinstance(name, str) and bool(name) and "/" not in name


def _check_identifier(name: str, path: str, out: ValidationReport) -> None:
    if not is_identifier(name):
        out.add(InvalidName, path,
                f"invalid identifier {name!r} (empty or contains '/')")


def _validate_base(b: Base, claimed, out: ValidationReport) -> None:
    _check_identifier(b.name, b.name, out)
    if b.cell_dim > b.phys_dim:
        out.add(DimensionMismatch, b.name,
                f"cell_dim {b.cell_dim} exceeds phys_dim {b.phys_dim}")
    if b.cell_dim not in (0, 1, 2, 3) or b.phys_dim not in (1, 2, 3):
        out.add(DimensionMismatch, b.name,
                f"dimensions out of range: cell {b.cell_dim}, phys {b.phys_dim}")
    seen_zones = set()
    for z in b.zones:
        path = f"{b.name}/{z.name}"
        if z.name in seen_zones:
            out.add(DuplicateName, path, f"duplicate zone name '{z.name}'")
            continue
        seen_zones.add(z.name)
        _validate_zone(z, b.phys_dim, claimed.get((b.name, z.name), set()), out, path)


def _check_dtype(array: np.ndarray, dtype, path: str,
                 out: ValidationReport) -> None:
    if array.dtype != dtype:
        out.add(DimensionMismatch, path, f"dtype {array.dtype} is not "
                f"{np.dtype(dtype)}, the one the store holds")


def _validate_zone(z: Zone, phys_dim: int, linked: set, out: ValidationReport,
                   path: str) -> None:
    _check_identifier(z.name, path, out)
    if z.coordinates is None:
        if "coordinates" not in linked:
            out.add(MissingLinkTarget, f"{path}/coordinates",
                    "coordinates absent and not covered by a link")
    else:
        if z.coordinates.ndim != 2 or z.coordinates.shape[1] != phys_dim:
            out.add(DimensionMismatch, f"{path}/coordinates",
                    f"coordinates shape {z.coordinates.shape} does not match "
                    f"phys_dim {phys_dim}")
        elif z.coordinates.shape[0] != z.n_vertices:
            out.add(DimensionMismatch, f"{path}/coordinates",
                    f"coordinate row count {z.coordinates.shape[0]} differs "
                    f"from n_vertices {z.n_vertices}")
        _check_dtype(z.coordinates, np.float64, f"{path}/coordinates", out)

    if z.zone_type is ZoneType.Structured:
        dims = z.structured_dims
        if dims is None or len(dims) not in (2, 3) or any(d < 1 for d in dims):
            out.add(DimensionMismatch, path,
                    f"structured zone needs 2 or 3 positive dims, got {dims}")
        elif int(np.prod(dims)) != z.n_vertices:
            out.add(DimensionMismatch, path,
                    f"product of dims {dims} differs from n_vertices {z.n_vertices}")
        if z.element_blocks:
            out.add(DimensionMismatch, path,
                    "structured zone must not carry element blocks")
    else:
        if z.structured_dims is not None:
            out.add(DimensionMismatch, path,
                    "unstructured zone must not carry structured_dims")
        expected_start = 0
        for k, blk in enumerate(z.element_blocks):
            bpath = f"{path}/elements[{k}]"
            _check_dtype(blk.connectivity, np.int64, bpath, out)
            npe = blk.element_type.nodes_per_element
            if blk.connectivity.ndim != 2 or blk.connectivity.shape[1] != npe:
                out.add(DimensionMismatch, bpath,
                        f"connectivity shape {blk.connectivity.shape} invalid "
                        f"for {blk.element_type.value}")
                continue
            lo, hi = blk.global_range
            if hi - lo != blk.n_elements or lo != expected_start:
                out.add(DimensionMismatch, bpath,
                        f"global_range {blk.global_range} not contiguous from "
                        f"{expected_start} for {blk.n_elements} elements")
            expected_start = hi
            if blk.n_elements and (blk.connectivity.min() < 0
                                   or blk.connectivity.max() >= z.n_vertices):
                out.add(IndexOutOfRange, bpath,
                        f"connectivity index out of range [0, {z.n_vertices})")

    total_elements = z.total_elements
    # element-count checks are deferred while a link still owns the blocks
    elements_pending = (z.zone_type is ZoneType.Unstructured
                        and not z.element_blocks and "elements" in linked)
    seen_fields = set()
    for f in z.fields:
        fpath = f"{path}/fields/{f.name}"
        key = (f.name, f.location)
        if key in seen_fields:
            out.add(DuplicateName, fpath,
                    f"duplicate field '{f.name}' at {f.location.value}")
            continue
        seen_fields.add(key)
        _check_dtype(f.values, np.float64, fpath, out)
        if f.values.ndim != 1:
            out.add(DimensionMismatch, fpath,
                    f"field values must be 1-D, got shape {f.values.shape}")
        elif f.location is Location.Vertex:
            if f.values.shape[0] != z.n_vertices:
                out.add(DimensionMismatch, fpath,
                        f"Vertex field length {f.values.shape[0]} differs from "
                        f"n_vertices {z.n_vertices}")
        elif f.location is Location.CellCenter:
            if elements_pending:
                out.note(fpath, "CellCenter length unchecked (elements linked)")
            elif f.values.shape[0] != total_elements:
                out.add(DimensionMismatch, fpath,
                        f"CellCenter field length {f.values.shape[0]} differs "
                        f"from element count {total_elements}")
        else:
            out.note(fpath, "FaceCenter field length unchecked")

    seen_tags = set()
    for t in z.tags:
        tpath = f"{path}/tags/{t.name}"
        if (t.name, t.kind) in seen_tags:
            out.add(DuplicateName, tpath, f"duplicate tag '{t.name}'")
            continue
        seen_tags.add((t.name, t.kind))
        _check_dtype(t.ids, np.int64, tpath, out)
        if t.ids.ndim != 1:
            out.add(DimensionMismatch, tpath,
                    f"tag ids must be 1-D, got shape {t.ids.shape}")
            continue
        if t.kind is TagKind.ElementTag and elements_pending:
            out.note(tpath, "ElementTag range unchecked (elements linked)")
            continue
        limit = z.n_vertices if t.kind is TagKind.NodalTag else total_elements
        if t.ids.size and (t.ids.min() < 0 or t.ids.max() >= limit):
            out.add(IndexOutOfRange, tpath, f"tag id out of range [0, {limit})")
        if t.ids.size > 1 and np.any(np.diff(t.ids) <= 0):
            out.add(IndexOutOfRange, tpath, "tag ids must be sorted and unique")


def resolve_links(tree: MeshTree,
                  provider: Callable[[float], Optional[MeshTree]]) -> MeshTree:
    """Materialize every linked path by copying from the provider's tree.

    The provider maps a time to the tree holding the target content (or
    None).  Linked arrays are shared by reference; they are immutable, so
    sharing has copy semantics.  Idempotent: a tree without links is
    returned unchanged.
    """
    if not tree.links:
        return tree

    patches: dict[tuple[str, str], dict[str, object]] = {}
    for link in tree.links:
        source = provider(link.target_time)
        if source is None:
            raise MissingLinkTarget(
                f"no tree available at linked time {link.target_time!r}")
        for path in link.target_paths:
            base_name, zone_name, comps = _parse_link_path(path)
            found = _find_zone(source, base_name, zone_name)
            if found is None:
                raise MissingLinkTarget(
                    f"link path '{path}' absent from tree at time "
                    f"{link.target_time!r}")
            _, src_zone = found
            patch = patches.setdefault((base_name, zone_name), {})
            for comp in comps:
                if comp == "coordinates":
                    if src_zone.coordinates is None:
                        raise MissingLinkTarget(
                            f"link path '{path}': provider zone has no coordinates")
                    patch["coordinates"] = src_zone.coordinates
                else:
                    if not src_zone.element_blocks:
                        raise MissingLinkTarget(
                            f"link path '{path}': provider zone has no element blocks")
                    patch["element_blocks"] = src_zone.element_blocks

    new_bases = []
    for b in tree.bases:
        new_zones = []
        for z in b.zones:
            patch = patches.get((b.name, z.name))
            if patch:
                coords = patch.get("coordinates", z.coordinates)
                blocks = patch.get("element_blocks", z.element_blocks)
                n_vertices = coords.shape[0] if coords is not None else z.n_vertices
                z = dataclasses.replace(z, coordinates=coords,
                                        element_blocks=blocks,
                                        n_vertices=n_vertices)
            new_zones.append(z)
        new_bases.append(Base(b.name, b.cell_dim, b.phys_dim, tuple(new_zones)))
    return build_tree(new_bases, tree.time, links=())


def implicit_connectivity(zone: Zone) -> list[ElementBlock]:
    """Derive the implicit cells of a structured zone.

    2-D dims yield one QUAD_4 block, 3-D dims one HEXA_8 block, elements
    emitted in lexicographic i-fastest order with vertex ids numbered the
    same way.
    """
    if zone.zone_type is not ZoneType.Structured:
        raise NotStructured(f"zone '{zone.name}' is not structured")
    dims = zone.structured_dims
    if dims is None or len(dims) not in (2, 3):
        raise NotStructured(f"zone '{zone.name}' lacks usable structured dims")

    n = len(dims)
    # cell origins, i fastest
    cells = np.stack([c.ravel(order="F")
                      for c in np.indices([d - 1 for d in dims])], axis=1)
    # corner k takes bit d of k as its offset along axis d, except that the
    # i offset is xored with the j offset: each i-j face is then walked
    # counter-clockwise, (0,0) (1,0) (1,1) (0,1)
    corners = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    corners[:, 0] ^= corners[:, 1]
    strides = np.cumprod((1,) + tuple(dims[:-1]))
    conn = (cells[:, None, :] + corners) @ strides
    if conn.shape[0] == 0:
        return []
    conn.setflags(write=False)  # held as it is, not copied
    etype = ElementType.QUAD_4 if n == 2 else ElementType.HEXA_8
    return [make_element_block(etype, conn, 0)]


# ---------------------------------------------------------------------------
# structural equality

def structurally_equal(a, b) -> bool:
    """Bit-exact structural equality of datamodel values.

    Arrays compare by shape, dtype and bytes; reals (Python or numpy) by
    their float64 bytes, so -0.0 differs from 0.0 and equal NaNs match;
    integers, enums and strings by value; dataclasses, sequences and
    mappings member by member, mappings in key order.
    """
    return _bits(a) == _bits(b)


def _bits(value):
    """A form of ``value`` that ``==`` compares as structurally_equal does."""
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.dtype, value.tobytes())
    if isinstance(value, (float, np.floating)):
        return ("real", np.float64(value).tobytes())
    if dataclasses.is_dataclass(value):
        return (type(value), [_bits(getattr(value, f.name))
                              for f in dataclasses.fields(value)])
    if isinstance(value, Mapping):
        items = [(_bits(k), _bits(v)) for k, v in value.items()]
        return ("mapping", sorted(items, key=lambda item: item[0]))
    if isinstance(value, (list, tuple)):
        return ("sequence", [_bits(item) for item in value])
    return value


def trees_equal(a: MeshTree, b: MeshTree) -> bool:
    return structurally_equal(a, b)
