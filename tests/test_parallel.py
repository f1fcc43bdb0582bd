import concurrent.futures

import pytest

from cyclogcd import parallel
from cyclogcd.density import empirical_density
from cyclogcd.parallel import effective_jobs


def test_effective_jobs_clamped_to_cpu_count(monkeypatch):
    # resolved as a pure function: no pool is started at any of these widths
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    assert effective_jobs() == 1
    assert effective_jobs(1) == 1
    assert effective_jobs(2) == 2
    assert effective_jobs(8) == 2
    assert effective_jobs(100000) == 2
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
    assert effective_jobs(1) == 1


@pytest.mark.parametrize("requested", [0, -3])
def test_effective_jobs_rejects_bad_widths(requested):
    with pytest.raises(ValueError):
        effective_jobs(requested)


def test_map_blocks_pool_clamped_to_cpu_count(monkeypatch):
    # a library call that asks for more workers than CPUs gets one per CPU, and the same result
    seq = empirical_density(20000, 2, 1, 2, 3, jobs=1)
    widths = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            widths.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    assert empirical_density(20000, 2, 1, 2, 3, jobs=4) == seq
    assert widths and max(widths) <= 2
