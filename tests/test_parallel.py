import pytest

from cyclogcd import parallel
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

