"""Sample container: time-indexed mesh trees plus scalars and time series.

A sample is the unit of learning data.  Getters resolve omitted arguments
automatically: an omitted base or zone is accepted when exactly one
candidate exists, the default location is Vertex, and the default time is
the smallest stored time (requiring a single stored time or a time at 0).
Stored times are matched with an absolute tolerance of 1e-12 and are never
re-quantized.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import (
    AmbiguousDefault,
    AmbiguousQuery,
    DimensionMismatch,
    FieldNotFound,
    NotFound,
    NoSuchTime,
)
from .tree import (
    Location,
    MeshTree,
    TagKind,
    Zone,
    ZoneType,
    implicit_connectivity,
    resolve_links,
    structurally_equal,
)

TIME_TOLERANCE = 1e-12


class Sample:
    """Immutable bundle of mesh trees (by time), scalars and time series.

    Parameters
    ----------
    trees : mapping time -> MeshTree; each tree is stored under its own
        time, which must lie within TIME_TOLERANCE of its finite key
    scalars : mapping name -> float
    time_series : mapping name -> sequence of (time, value) pairs, strictly
        increasing in time
    """

    def __init__(self, trees=None, scalars=None, time_series=None):
        trees = dict(trees or {})
        for t, tree in trees.items():
            if not abs(tree.time - t) <= TIME_TOLERANCE:  # false for nan, inf
                raise DimensionMismatch(
                    f"tree stored at time {t!r} carries time {tree.time!r}; "
                    f"both must be finite and within {TIME_TOLERANCE}")
        by_time = sorted(trees.values(), key=lambda tree: tree.time)
        for a, b in zip(by_time, by_time[1:]):
            if b.time - a.time <= TIME_TOLERANCE:
                raise DimensionMismatch(
                    f"tree times {a.time!r} and {b.time!r} lie within "
                    f"{TIME_TOLERANCE} of each other")
        self._trees: dict[float, MeshTree] = {
            tree.time: tree for tree in by_time}
        self._scalars: dict[str, float] = {
            k: float(v) for k, v in (scalars or {}).items()}
        self._time_series: dict[str, tuple[tuple[float, float], ...]] = {}
        for name, pairs in (time_series or {}).items():
            pairs = tuple((float(a), float(b)) for a, b in pairs)
            times = [a for a, _ in pairs]
            if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
                raise DimensionMismatch(
                    f"time series '{name}' times must be strictly increasing")
            self._time_series[name] = pairs
        self._resolved_cache: dict[float, MeshTree] = {}

    # -- plain accessors ---------------------------------------------------

    @property
    def trees(self) -> dict[float, MeshTree]:
        return dict(self._trees)

    @property
    def scalars(self) -> dict[str, float]:
        return dict(self._scalars)

    @property
    def time_series(self) -> dict[str, tuple[tuple[float, float], ...]]:
        return dict(self._time_series)

    def get_all_mesh_times(self) -> list[float]:
        """Ascending, duplicate-free times of the stored trees."""
        return sorted(self._trees)

    # -- time resolution ---------------------------------------------------

    def _match_time(self, time: float) -> Optional[float]:
        for t in self._trees:
            if abs(t - time) <= TIME_TOLERANCE:
                return t
        return None

    def _default_time(self) -> float:
        times = self.get_all_mesh_times()
        if not times:
            raise NoSuchTime("sample holds no meshes")
        if len(times) == 1:
            return times[0]
        if abs(times[0]) <= TIME_TOLERANCE:
            return times[0]
        raise AmbiguousDefault(
            f"cannot pick a default among times {times}; pass time explicitly")

    def _resolve_time(self, time: Optional[float]) -> float:
        if time is None:
            return self._default_time()
        matched = self._match_time(float(time))
        if matched is None:
            raise NoSuchTime(
                f"no stored mesh within {TIME_TOLERANCE} of time {time!r}; "
                f"stored times: {self.get_all_mesh_times()}")
        return matched

    # -- mesh access -------------------------------------------------------

    def get_mesh(self, time: Optional[float] = None,
                 apply_links: bool = False) -> MeshTree:
        """Tree at the resolved time, optionally with links materialized.

        With ``apply_links`` the sample's own earlier trees act as the link
        provider (resolved recursively).
        """
        t = self._resolve_time(time)
        if not apply_links:
            return self._trees[t]
        return self._resolved(t)

    def _resolved(self, t: float) -> MeshTree:
        cached = self._resolved_cache.get(t)
        if cached is None:
            cached = self._resolved_cache[t] = resolve_links(self._trees[t],
                                                             self._provider)
        return cached

    def _provider(self, target_time: float) -> Optional[MeshTree]:
        matched = self._match_time(target_time)
        if matched is None:
            return None
        return self._resolved(matched)

    # -- scope resolution ----------------------------------------------------

    def _resolve_scope(self, base_name, zone_name, time) -> Zone:
        tree = self.get_mesh(time=time, apply_links=True)
        base = _pick(tree.bases, base_name, "base", "tree")
        return _pick(base.zones, zone_name, "zone", f"base '{base.name}'")

    # -- field and geometry getters ------------------------------------------

    def get_field(self, name: str, base_name: Optional[str] = None,
                  zone_name: Optional[str] = None,
                  location: Optional[Location] = None,
                  time: Optional[float] = None) -> np.ndarray:
        """Values of the unique field matching the selector.

        Omitted base/zone resolve when unambiguous; omitted location
        defaults to Vertex; omitted time follows get_mesh's default.
        """
        zone = self._resolve_scope(base_name, zone_name, time)
        loc = location or Location.Vertex
        for f in zone.fields:
            if f.name == name and f.location is loc:
                return f.values
        raise FieldNotFound(
            f"no field '{name}' at {loc.value} in zone '{zone.name}'")

    def get_scalar(self, name: str) -> float:
        try:
            return self._scalars[name]
        except KeyError:
            raise NotFound(f"no scalar named '{name}'") from None

    def get_scalar_names(self) -> list[str]:
        return sorted(self._scalars)

    def get_time_series(self, name: str) -> tuple[tuple[float, float], ...]:
        try:
            return self._time_series[name]
        except KeyError:
            raise NotFound(f"no time series named '{name}'") from None

    def get_field_names(self, time: Optional[float] = None) -> list[str]:
        """Sorted unique field names across the whole tree at that time."""
        tree = self.get_mesh(time=time, apply_links=True)
        names = {f.name for b in tree.bases for z in b.zones for f in z.fields}
        return sorted(names)

    def get_nodes(self, base_name: Optional[str] = None,
                  zone_name: Optional[str] = None,
                  time: Optional[float] = None) -> np.ndarray:
        zone = self._resolve_scope(base_name, zone_name, time)
        if zone.coordinates is None:
            raise NotFound(f"zone '{zone.name}' has no materialized coordinates")
        return zone.coordinates

    def get_elements(self, base_name: Optional[str] = None,
                     zone_name: Optional[str] = None,
                     time: Optional[float] = None) -> dict[str, np.ndarray]:
        """Connectivity per element type, blocks merged in global-id order."""
        zone = self._resolve_scope(base_name, zone_name, time)
        blocks = list(zone.element_blocks)
        if zone.zone_type is ZoneType.Structured:
            blocks = implicit_connectivity(zone)
        merged: dict[str, list[np.ndarray]] = {}
        for blk in sorted(blocks, key=lambda b: b.global_range[0]):
            merged.setdefault(blk.element_type.value, []).append(blk.connectivity)
        return {etype: np.vstack(parts) if len(parts) > 1 else parts[0]
                for etype, parts in merged.items()}

    def get_nodal_tags(self, base_name: Optional[str] = None,
                       zone_name: Optional[str] = None,
                       time: Optional[float] = None) -> dict[str, np.ndarray]:
        zone = self._resolve_scope(base_name, zone_name, time)
        return {t.name: t.ids for t in zone.tags if t.kind is TagKind.NodalTag}


def _pick(candidates, name: Optional[str], kind: str, owner: str):
    """The candidate called ``name`` or, when name is None, the only one."""
    if name is not None:
        for c in candidates:
            if c.name == name:
                return c
        raise NotFound(f"no {kind} named '{name}' in {owner}")
    if len(candidates) == 1:
        return candidates[0]
    names = [c.name for c in candidates]
    raise AmbiguousQuery(
        f"{kind}_name omitted but {owner} has {len(names)} {kind}s: {names}")


def find_reference_field(sample: Sample, name: str) -> np.ndarray:
    """Locate the unique field named ``name`` in the sample's default tree.

    Scans every base/zone/location; exactly one match is required, which
    also pins the entity count used as N in the field RRMSE.
    """
    tree = sample.get_mesh(apply_links=True)
    matches = []
    for b in tree.bases:
        for z in b.zones:
            for f in z.fields:
                if f.name == name:
                    matches.append((b.name, z.name, f))
    if not matches:
        raise NotFound(f"reference sample defines no field '{name}'")
    if len(matches) > 1:
        where = [(b, z) for b, z, _ in matches]
        raise AmbiguousQuery(f"field '{name}' appears in several zones: {where}")
    return matches[0][2].values


def samples_equal(a: Sample, b: Sample) -> bool:
    """Structural equality, bit-exact on arrays and on every real."""
    return structurally_equal((a.trees, a.scalars, a.time_series),
                              (b.trees, b.scalars, b.time_series))
