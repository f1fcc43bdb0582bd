import pytest

from cyclogcd import parallel
from cyclogcd.parallel import ENV_JOBS, effective_jobs


def test_effective_jobs_clamped_to_cpu_count(monkeypatch):
    # resolved as a pure function: no pool is started at any of these widths
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    monkeypatch.delenv(ENV_JOBS, raising=False)
    assert effective_jobs() == 1
    assert effective_jobs(1) == 1
    assert effective_jobs(2) == 2
    assert effective_jobs(8) == 2
    monkeypatch.setenv(ENV_JOBS, "100000")
    assert effective_jobs(1) == 2
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
    assert effective_jobs(1) == 1


@pytest.mark.parametrize("env, requested", [(None, 0), (None, -3), ("0", 1), ("-1", 1), ("four", 1)])
def test_effective_jobs_rejects_bad_widths(env, requested, monkeypatch):
    if env is None:
        monkeypatch.delenv(ENV_JOBS, raising=False)
    else:
        monkeypatch.setenv(ENV_JOBS, env)
    with pytest.raises(ValueError):
        effective_jobs(requested)

