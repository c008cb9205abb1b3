"""Shared machinery of the exhaustive finite-field scans.

HOMBRAX_THREADS caps the threads of a scan, and never exceeds
``os.cpu_count()``; ``digit_matrices`` decodes candidate indices into
matrices.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Thread cap for the exhaustive scans: HOMBRAX_THREADS, at most
    ``os.cpu_count()``; defaults to 1 (serial), also for a malformed value."""
    raw = os.environ.get("HOMBRAX_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, min(n, os.cpu_count() or 1))


def map_chunks(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Apply fn to every item, threaded when HOMBRAX_THREADS > 1.

    The scan chunks are numpy-heavy, so threads genuinely overlap; results
    come back in input order either way.
    """
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def digit_matrices(idx: np.ndarray, n: int, p: int) -> np.ndarray:
    """Row-major base-p digits of candidate indices as (count, n, n) matrices."""
    n2 = n * n
    A = np.empty((idx.shape[0], n2), dtype=np.int64)
    for e in range(n2):
        A[:, e] = (idx // p ** (n2 - 1 - e)) % p
    return A.reshape(-1, n, n)
