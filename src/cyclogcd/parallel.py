"""Deterministic work splitting.

Scans over primes, pairs and polynomial ranges are partitioned into
contiguous blocks; block results are merged in block order (sums, ordered
concatenation), so the final result is independent of how many workers ran.
"""

import os
from concurrent.futures import ProcessPoolExecutor

ENV_JOBS = "CYCLOGCD_JOBS"


def effective_jobs(requested: int | None = None) -> int:
    """Resolve the parallelism width; the environment variable wins.

    Widths below 1 are rejected and widths above the CPU count are clamped
    to it, so no setting can ask for more worker processes than CPUs.
    """
    env = os.environ.get(ENV_JOBS)
    if env is not None:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"{ENV_JOBS} = {env!r} is not an integer") from None
    else:
        jobs = 1 if requested is None else requested
    if jobs < 1:
        raise ValueError(f"the parallelism width must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def split_range(lo: int, hi: int, pieces: int) -> list[tuple[int, int]]:
    """Split [lo, hi) into at most `pieces` contiguous nonempty blocks."""
    total = hi - lo
    if total <= 0:
        return []
    pieces = max(1, min(pieces, total))
    size, extra = divmod(total, pieces)
    blocks = []
    start = lo
    for i in range(pieces):
        end = start + size + (1 if i < extra else 0)
        blocks.append((start, end))
        start = end
    return blocks


def pmap(fn, items, jobs: int = 1) -> list:
    """Map `fn` over `items`, preserving order.

    With jobs <= 1 this is a plain loop (no pool overhead); otherwise a
    process pool is used and results are collected in input order, which is
    what keeps merged output schedule-independent.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as ex:
        return list(ex.map(fn, items))
