"""Deterministic work splitting.

Integer scans, over primes or over ranges of n, are partitioned into
contiguous blocks; block results are merged in block order (sums, ordered
concatenation), so the final result is independent of how many workers ran.
"""

import os
from functools import partial


def effective_jobs(requested: int = 1) -> int:
    """Resolve the parallelism width.

    Widths below 1 are rejected and widths above the CPU count are clamped
    to it, so no setting can ask for more worker processes than CPUs.
    """
    if requested < 1:
        raise ValueError(f"the parallelism width must be at least 1, got {requested}")
    return min(requested, os.cpu_count() or 1)


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


def map_blocks(fn, cfg, lo: int, hi: int, jobs: int = 1) -> list:
    """[fn(cfg, block) for each block of [lo, hi)], in block order.

    The range is cut into four contiguous blocks per worker, so a slow block
    does not leave the other workers idle.  With jobs <= 1 this is a plain
    loop (no pool overhead, and the pool machinery is not even imported);
    otherwise a process pool of at most one worker per CPU runs the blocks
    and the results are collected in block order, which is what keeps
    merged output schedule-independent.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    task = partial(fn, cfg)
    blocks = split_range(lo, hi, max(jobs * 4, 1))
    if jobs <= 1 or len(blocks) <= 1:
        return [task(block) for block in blocks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(blocks))) as ex:
        return list(ex.map(task, blocks))
