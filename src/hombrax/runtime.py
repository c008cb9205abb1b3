"""The exhaustive finite-field scan engine.

``scan_matrices(n, p, keep)`` is the one scan loop behind every brute-force
oracle: it decodes all p^(n*n) matrices over F_p from their indices, in
chunks of ``_CHUNK``, and keeps, in index order, those a vectorised
predicate accepts.  Its guard ``scan_size`` refuses a modulus that is not an
odd prime and a scan of more than ``_MAX_CANDIDATES`` candidates with
ValueError (exit 2 on the command line), before anything sized by n or p is
allocated.  HOMBRAX_THREADS caps the threads the chunks are spread over, and
never exceeds the CPUs this process may run on.  numpy and the thread pool
are imported inside the scan functions, so a process that never scans (every
exact identity check) does not load them.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Sequence

from hombrax.scalars import is_odd_prime

if TYPE_CHECKING:
    import numpy as np

# Candidates decoded per chunk: bounds the memory of one predicate call.
_CHUNK = 200_000
# 2^26 = 67,108,864 candidates, 1.66 times the largest scan in use (all 3x3
# matrices over F_7, 7^9 = 40,353,607).
_MAX_CANDIDATES = 1 << 26


def worker_count() -> int:
    """Thread cap for the exhaustive scans: HOMBRAX_THREADS, at most the CPUs
    this process may run on; defaults to 1 (serial), also for a malformed value."""
    raw = os.environ.get("HOMBRAX_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(n, cpus))


def map_chunks(fn: Callable, items: Sequence) -> list:
    """Apply fn to every item, threaded when HOMBRAX_THREADS > 1.

    The scan chunks are numpy-heavy, so threads genuinely overlap; results
    come back in input order either way.
    """
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def scan_size(n: int, p: int) -> int:
    """p^(n*n), the number of n x n matrices over F_p, or ValueError.  As
    p >= 2^(bit_length - 1), an oversized scan is refused from the bit lengths
    before p ** (n*n) is formed, so the primality test sees a bounded p."""
    if n < 1:
        raise ValueError(f"need a matrix size n >= 1, got {n}")
    if (n * n * (p.bit_length() - 1) >= _MAX_CANDIDATES.bit_length()
            or p ** (n * n) > _MAX_CANDIDATES):
        raise ValueError(f"scanning {n}x{n} matrices over F_{p} exceeds the limit "
                         f"of {_MAX_CANDIDATES} candidates")
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return p ** (n * n)


def _decode(idx: np.ndarray, n: int, p: int) -> np.ndarray:
    """Row-major base-p digits of candidate indices as (count, n, n) matrices."""
    import numpy as np
    return np.stack(np.unravel_index(idx, (p,) * (n * n)), axis=-1,
                    dtype=np.int64).reshape(-1, n, n)


def scan_matrices(n: int, p: int, keep: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The n x n matrices over F_p that ``keep`` accepts, in index order.  ``keep``
    maps a (count, n, n) int64 array of entries in 0..p-1 to a boolean mask of
    length count, and must be safe to call from threads."""
    import numpy as np
    total = scan_size(n, p)

    def scan(start: int) -> np.ndarray:
        A = _decode(np.arange(start, min(start + _CHUNK, total), dtype=np.int64), n, p)
        return A[keep(A)]

    return np.concatenate(map_chunks(scan, range(0, total, _CHUNK)))
