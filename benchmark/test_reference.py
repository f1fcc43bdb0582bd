"""Tests of the benchmark's reference checks and input generator.

    python3 -m pytest benchmark -q

Each check must accept the program's own report on a small input and
reject the same report with one field perturbed.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import reference as R

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_report(*argv: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CYCLOGCD_JOBS"}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run([sys.executable, "-m", "cyclogcd.cli", *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)["report"]


def rejects(check, report: dict, mutate) -> bool:
    bad = copy.deepcopy(report)
    mutate(bad)
    try:
        check(bad)
    except R.CheckError:
        return True
    return False


@pytest.fixture(scope="module")
def champion():
    a, b, N, x, delta = 2, 3, 2, 3000, 0.9
    report = cli_report("champion", "--a", "2", "--b", "3", "--N", "2", "--x", str(x))
    exp = R.expected_champion(a, b, N, x, delta)
    return report, lambda r: R.check_champion(r, exp, a, b, N)


@pytest.fixture(scope="module")
def champion_mixed():
    report = cli_report("champion", "--a", "2", "--b", "3", "--M", "1", "--N", "2",
                        "--x", "2000", "--delta", "0.5")
    exp = R.expected_champion(2, 3, 2, 2000, 0.5, M=1)
    return report, lambda r: R.check_champion(r, exp, 2, 3, 2, M=1)


def _drop_representation(r: dict) -> None:
    r["representations"].pop()
    r["distinct_primes"].pop()
    r["representation_count"] -= 1


def test_champion_accepts_program_report(champion, champion_mixed):
    for report, check in (champion, champion_mixed):
        check(report)


@pytest.mark.parametrize("mutate", [
    lambda r: r.update(n=r["n"] + r["kernel"]),
    _drop_representation,
    lambda r: r.update(pair_count=r["pair_count"] - 1),
    lambda r: r.update(pigeonhole_floor=r["pigeonhole_floor"] + 1),
    lambda r: r.update(verified=False),
], ids=["n_off_by_K", "dropped_representation", "pair_count", "floor", "unverified"])
def test_champion_rejects(champion, champion_mixed, mutate):
    for report, check in (champion, champion_mixed):
        assert rejects(check, report, mutate)


def test_champion_rejects_wrong_prime(champion):
    report, check = champion

    def swap_prime(r):
        m, p = r["representations"][0]
        r["representations"][0] = [m, p + 2]
        r["distinct_primes"][0] = p + 2

    assert rejects(check, report, swap_prime)


@pytest.fixture(scope="module")
def density():
    N, d, a, b, x = 6, 1, 2, 5, 200000
    report = cli_report("density", "--N", "6", "--a", "2", "--b", "5", "--x", str(x))
    exp = R.expected_density(N, d, a, b, x)
    return report, lambda r: R.check_density(r, exp)


@pytest.fixture(scope="module")
def lemma():
    report = cli_report("verify-lemma", "--N", "3", "--a", "2", "--b", "5", "--p-max", "20000")
    exp = R.expected_lemma(3, 2, 5, 20000, 20)
    return report, lambda r: R.check_lemma(r, exp)


def test_density_checks_accept_program_reports(density, lemma):
    for report, check in (density, lemma):
        check(report)


@pytest.mark.parametrize("mutate", [
    lambda r: r.update(count=r["count"] + 1),
    lambda r: r.update(ratio="1/53"),
    lambda r: r.update(exponents=[[2, 2], [3, 3]]),
], ids=["count_plus_1", "ratio", "exponents"])
def test_density_rejects(density, mutate):
    report, check = density
    assert rejects(check, report, mutate)


@pytest.mark.parametrize("mutate", [
    lambda r: r.update(qualified_primes=r["qualified_primes"] + 1),
    lambda r: r.update(cases_checked=r["cases_checked"] - 2),
    lambda r: r.update(failures=1, all_verified=False),
], ids=["qualified_plus_1", "cases", "failures"])
def test_lemma_rejects(lemma, mutate):
    report, check = lemma
    assert rejects(check, report, mutate)


FF_CASES = [
    (2, ["0", "1"], ["1", "1"], 4),
    (7, ["2", "1"], ["3", "1"], 3),
]


@pytest.fixture(scope="module", params=FF_CASES, ids=["Q4", "Q7"])
def ff(request):
    q, a_poly, b_poly, deg_max = request.param
    report = cli_report("ff-verify", "--q", str(q), "--k", "1", "--n0", "1", "--m", "3",
                        "--a-poly", ",".join(a_poly), "--b-poly", ",".join(b_poly),
                        "--deg-max", str(deg_max))
    exp = R.expected_ff(q, 1, 1, 3, [int(c) for c in a_poly], [int(c) for c in b_poly], deg_max)
    return report, lambda r: R.check_ff(r, exp, q, 1, 1)


def test_ff_accepts_program_report(ff):
    report, check = ff
    check(report)


def _last(field, delta):
    def mutate(r):
        r["per_N"][-1][field] += delta
    return mutate


@pytest.mark.parametrize("mutate", [
    _last("deg_gcd", -1),
    _last("pi_count", 1),
    _last("total_irreducible", 1),
    lambda r: r.update(Q=r["Q"] + 1),
], ids=["deg_gcd_minus_1", "pi_count_plus_1", "total_irreducible", "Q"])
def test_ff_rejects(ff, mutate):
    report, check = ff
    assert rejects(check, report, mutate)


def test_formula_holds_excludes_entangled_cases():
    assert not inputs.formula_holds(8, 1, 2, 3)    # 2 is a square mod every p = 1 mod 8
    assert not inputs.formula_holds(12, 1, 2, 5)   # (2/p) = -1 forced by p = 13 mod 24
    assert not inputs.formula_holds(2, 3, 2, 3)    # (3/p) fixed by p mod 12
    assert not inputs.formula_holds(6, 1, 2, 3)
    assert inputs.formula_holds(6, 1, 2, 5)
    assert inputs.formula_holds(3, 1, 2, 3)


def test_entangled_cases_miss_the_formula():
    x = 300000
    ratio, _ = R.predicted_ratio(8, 1, 2, 3)
    assert ratio > 0 and R.count_qualifying(x, 8, 2, 3) == 0
    ratio, _ = R.predicted_ratio(12, 1, 2, 5)
    li = R.expected_density(12, 1, 2, 5, x).li
    assert R.count_qualifying(x, 12, 2, 5) > 1.7 * float(ratio) * li


@pytest.mark.parametrize("workload", ["champion", "density", "ff"])
def test_inputs_depend_only_on_the_seed(workload):
    assert inputs.make_ops(workload, 3) == inputs.make_ops(workload, 3)
    draws = {tuple(op.argv for op in inputs.make_ops(workload, s)) for s in range(1, 6)}
    assert len(draws) > 1
