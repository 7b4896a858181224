"""Thread-pool helper with deterministic, order-preserving results.

Only the per-regressor GP fits of ``mmgp_fit`` run on it; every other stage
runs sequentially.  The fits' LAPACK and BLAS calls release the GIL, so the
factorisations of several fits run at the same time; with more than one
worker, pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``), or BLAS threads
and workers oversubscribe the cores.  Results are collected positionally,
so a run with N threads is bitwise identical to a sequential run.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 threads: int = 1) -> list[R]:
    work: Sequence[T] = list(items)
    if threads <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, work))
