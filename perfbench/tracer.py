"""Span tracer that wraps meshbench's public functions from the outside.

The benchmark installs a wrapper around each layer function at every name
under which a meshbench module holds it (``meshbench.mmgp.build_transfer``
as well as ``meshbench.transfer.build_transfer``), so calls resolve to the
wrapper wherever the caller looks the name up.  Nothing in the package is
edited; ``uninstall`` puts every original object back.

Spans hold name, start, end, parent span id and thread id.  They are kept in
memory and written out by the caller when the run ends.  ``parallel_map``
worker threads get the pool span as their parent, because the executor does
not carry the caller's span stack across threads.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

#: wrapped functions as (module, function); the module is the one that
#: defines the function, the metric prefix is ``<module>.<function>``
LAYER_FUNCTIONS = (
    ("transfer", "build_transfer"),
    ("transfer", "apply_transfer"),
    ("morphing", "build_surface_mesh"),
    ("morphing", "tutte_embed"),
    ("gp", "gp_fit"),
    ("gp", "gp_predict"),
    ("pod", "pod_fit"),
    ("pod", "numerical_rank"),
    ("pod", "pod_project"),
    ("pod", "pod_reconstruct"),
    ("parallel", "parallel_map"),
    ("mmgp", "mmgp_fit"),
    ("mmgp", "mmgp_predict"),
    ("mmgp", "extract_triangle_geometry"),
    ("mmgp", "save_model"),
    ("mmgp", "load_model"),
    ("storage", "save_dataset"),
    ("storage", "read_sample"),
    ("storage", "participant_export"),
    ("dataset", "validate_dataset"),
    ("metrics", "load_bundle"),
    ("metrics", "save_bundle"),
    ("metrics", "total_error"),
    ("metrics", "score_hidden"),
)

#: a percentile is reported as the tail only when at least this many calls
#: lie beyond it
TAIL_CALLS_BEYOND = 10
_TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = float("nan")


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = {"transfer.targets": 0, "gp.fit_points": 0,
                       "pod.modes_requested": 0, "pod.modes_kept": 0,
                       "parallel.pool_calls": 0, "parallel.worker_busy_s": 0.0,
                       "parallel.pool_capacity_s": 0.0}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1] if stack else None,
                    threading.get_ident(), time.perf_counter())
        self.spans.append(span)
        stack.append(span.span_id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, amount) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name == "parallel.parallel_map":
            return self._wrap_parallel_map(fn)
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_parallel_map(self, fn):
        def traced(work_fn, items, threads=1):
            work = list(items)
            pool = self.open("parallel.parallel_map")

            def in_worker(item):
                # the pool span is passed in explicitly: a fresh worker
                # thread has an empty span stack
                stack = self._stack()
                saved = list(stack)
                stack[:] = [pool.span_id]
                t0 = time.perf_counter()
                try:
                    return work_fn(item)
                finally:
                    stack[:] = saved
                    self.add("parallel.worker_busy_s", time.perf_counter() - t0)

            try:
                return fn(in_worker, work, threads=threads)
            finally:
                self.close(pool)
                used = threads if threads > 1 and len(work) > 1 else 1
                self.add("parallel.pool_capacity_s",
                         (pool.end - pool.start) * used)
                if used > 1:
                    self.add("parallel.pool_calls", 1)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every meshbench-held reference to each layer function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "meshbench"
                                         or key.startswith("meshbench."))]
        for module_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"meshbench.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting ---------------------------------------------------------

    def layer_stats(self) -> dict[str, dict]:
        """calls, total_s, self_s, p50_s and tail per wrapped function."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        per_name: dict[str, list[tuple[float, float]]] = {
            f"{m}.{f}": [] for m, f in LAYER_FUNCTIONS}
        for span in self.spans:
            total = span.end - span.start
            covered = _union_length(
                [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(span.span_id, ())])
            per_name[span.name].append((total, total - covered))
        stats = {}
        for name, rows in per_name.items():
            durations = np.array([r[0] for r in rows])
            tail_pct, tail_s = tail_percentile(durations)
            stats[name] = {
                "calls": len(rows),
                "total_s": float(durations.sum()),
                "self_s": float(sum(r[1] for r in rows)),
                "p50_s": float(np.median(durations)) if rows else 0.0,
                "tail_pct": tail_pct,
                "tail_s": tail_s,
            }
        return stats

    def span_records(self) -> list[dict]:
        return [{"id": s.span_id, "name": s.name, "parent": s.parent,
                 "thread": s.thread, "start": s.start, "end": s.end}
                for s in self.spans]


def tail_percentile(durations: np.ndarray) -> tuple[float | None, float]:
    """Highest of p99.9/p99/p90/p50 with TAIL_CALLS_BEYOND calls beyond it.

    Returns ``(None, 0.0)`` when there are too few calls for any of them.
    """
    n = len(durations)
    for pct in _TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= TAIL_CALLS_BEYOND:
            return pct, float(np.percentile(durations, pct))
    return None, 0.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _count_targets(tracer, args, kwargs, result):
    targets = args[2] if len(args) > 2 else kwargs["targets"]
    tracer.add("transfer.targets", len(targets))


def _count_fit_points(tracer, args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    tracer.add("gp.fit_points", len(np.atleast_2d(x)))


def _count_modes(tracer, args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    n_fields = len(result.field_bases)
    tracer.add("pod.modes_requested",
               config.shape_modes + config.field_modes * n_fields)
    tracer.add("pod.modes_kept", result.shape_basis.n_modes
               + sum(b.n_modes for b in result.field_bases.values()))


_COUNTERS = {
    "transfer.build_transfer": _count_targets,
    "gp.gp_fit": _count_fit_points,
    "mmgp.mmgp_fit": _count_modes,
}
