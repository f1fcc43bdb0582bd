"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and bounds are fixed here, not calibrated elsewhere.
"""

import itertools
import math
import time

import pytest
from sympy import divisors, factorint, primerange

from cyclogcd import __version__
from cyclogcd.arith import factorize, li
from cyclogcd.champion import ChampionParams, build_kernel, run_champion
from cyclogcd.cli import main
from cyclogcd.cyclotomic import eval_mod_prime
from cyclogcd.density import empirical_density, predicted_density
from cyclogcd.errors import HypothesisError
from cyclogcd.ffield import (
    ff_construction,
    ff_direct_verify,
    ff_scan,
    fq_context,
)
from cyclogcd.fqpoly import FqPolynomial
from cyclogcd.oracles import delta_count_range, delta_squarefree_range, gcd_seq_exact
from cyclogcd.residues import lemma_scan
from ffield_oracle import ff_equivalence_check

BASES = (2, 3, 5, 6, 7, 10)

# modulus -> the base c whose quadratic field Q(sqrt c) lies in Q(zeta_modulus):
# c is a square mod every p = 1 (mod modulus), so no prime can qualify
SQUARE_FORCED = {8: 2, 10: 5, 12: 3}

# (modulus, c, c') whose quadratic characters are tied on every p the congruences leave:
# at N = 4 and 12, p = 5 (mod 8) makes 2 a non-square, so one of c, 2c is a square; at
# N = 6, p = 7 (mod 12) makes 3 a non-square, so one of 2, 6 is.  No prime qualifies.
NO_PRIME = {(N, a, b) for N, c, c2 in ((4, 3, 6), (4, 5, 10), (6, 2, 6), (12, 5, 10))
            for a, b in ((c, c2), (c2, c))}


def _ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_lemma_exhaustivity():
    start = time.perf_counter()
    cases = 0
    qualified = 0
    refused = empty = 0
    for modulus in range(1, 13):
        for a in BASES:
            for b in BASES:
                if SQUARE_FORCED.get(modulus) in (a, b):
                    with pytest.raises(HypothesisError, match="is a square mod every prime"):
                        lemma_scan(modulus, a, b, 20000, 20, jobs=1)
                    refused += 1
                    continue
                if (modulus, a, b) in NO_PRIME:
                    with pytest.raises(ValueError, match="no prime p <= p_max = 20000 qualifies"):
                        lemma_scan(modulus, a, b, 20000, 20, jobs=1)
                    empty += 1
                    continue
                result = lemma_scan(modulus, a, b, 20000, 20, jobs=1)
                cases += result.cases_checked
                qualified += result.qualified_primes
    elapsed = time.perf_counter() - start
    assert refused == 33 and empty == len(NO_PRIME) == 8
    assert cases > 10**6
    assert elapsed < 60.0, f"lemma exhaustivity took {elapsed:.1f}s"
    _ok(1, f"{cases} divisibility cases over N <= 12, p <= 20000, zero failures, "
           f"{refused} square-forced and {empty} prime-free triples refused, {elapsed:.1f}s")


def test_criterion_2_champion_pipeline():
    start = time.perf_counter()
    params = ChampionParams(a=2, b=3, N=2, x=10**4, delta=0.9)
    report = run_champion(params)
    kernel = build_kernel(10**4, 0.9, 2)
    assert (report.kernel, report.kernel_omega) == (kernel, len(factorize(kernel).factors)) == (105, 3)
    assert report.n <= 10**8 and report.n % kernel == 0 and report.n % 2 == 1
    for m, p in report.representations:
        assert m * (p - 1) // 2 == report.n
    assert len(report.representations) == len(set(report.distinct_primes))
    slots = 10**8 // kernel
    assert report.pigeonhole_floor == -(-report.pair_count // slots)
    assert len(report.distinct_primes) >= report.pigeonhole_floor
    assert report.verified
    for p in report.distinct_primes:
        assert eval_mod_prime(2, 2, report.n, p) == 0
        assert eval_mod_prime(2, 3, report.n, p) == 0

    # small-n configuration: certified bound must sit below the exact gcd
    small = run_champion(ChampionParams(a=2, b=3, N=2, x=50, delta=0.9))
    assert small.n <= 2500
    exact = gcd_seq_exact(2, 3, 2, 2, small.n)[small.n - 1].gcd_value
    assert exact % math.prod(small.distinct_primes) == 0
    assert small.log_gcd_lower_bound <= math.log(exact) + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _ok(2, f"champion n={report.n} with {len(report.distinct_primes)} certified primes, "
           f"|A|={report.pair_count}, small-n bound below exact gcd, {elapsed:.1f}s")


def test_criterion_3_density():
    start = time.perf_counter()
    pred = predicted_density(2, 1, 2, 3)
    assert pred.ratio == (1, 8)
    check = empirical_density(10**6, 2, 1, 2, 3)
    assert check.relative_error < 0.15
    pred8 = predicted_density(2, 1, 2, 8)
    assert pred8.ratio == (1, 4)    # dependent case, exponent 2
    check8 = empirical_density(10**6, 2, 1, 2, 8)
    assert check8.relative_error < 0.15
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _ok(3, f"1/8 case: count={check.count} err={check.relative_error:.4f}; "
           f"1/4 case: count={check8.count} err={check8.relative_error:.4f}; {elapsed:.1f}s")


def group_complement_count(l, factors):
    # size of (Z/l)^factors minus the union of the coordinate subgroups
    # H_i = {tuples with coordinate i trivial}, by brute force
    everything = set(itertools.product(range(l), repeat=factors))
    union = set()
    for i in range(factors):
        union |= {t for t in everything if t[i] == 0}
    return len(everything - union)


def test_criterion_4_group_claim():
    for l in (2, 3, 5, 7, 11, 13):
        for f in (2, 3):
            assert group_complement_count(l, f) == (l - 1) ** f
    _ok(4, "brute-force complement counts equal (l-1)^f for all l <= 13, f in {2, 3}")


def test_criterion_5_function_field_equivalence():
    start = time.perf_counter()
    base = fq_context(2, 1)
    constr = ff_construction(base, 1, 1, 3)
    a = FqPolynomial.of(base, (0, 1))
    b = FqPolynomial.of(base, (1, 1))
    expected_n = {1: 1, 2: 5, 3: 21, 4: 85}
    for N in range(1, 5):
        scan = ff_scan(constr, N, a, b)
        assert scan.n == expected_n[N]
        assert scan.n % 2 == 1                    # n = n0 = 1 mod q^k
        checked, mismatches = ff_equivalence_check(scan)
        assert mismatches == [], f"scan/divisibility mismatch at N={N}"
        res = ff_direct_verify(scan)
        assert res.deg_gcd >= N * scan.count
        assert abs(scan.count - scan.predicted) <= 5 * 4 ** (N / 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _ok(5, f"scan = divisibility for every pi of degree 1..4 over F_4, {elapsed:.1f}s")


def test_criterion_6_linear_growth_and_stability(tmp_path):
    base = fq_context(2, 1)
    constr = ff_construction(base, 1, 1, 3)
    a = FqPolynomial.of(base, (0, 1))
    b = FqPolynomial.of(base, (1, 1))
    ratios = [ff_direct_verify(ff_scan(constr, N, a, b)).ratio_to_n for N in (2, 3, 4)]
    assert min(ratios) > 0
    args = ["ff-verify", "--q", "2", "--k", "1", "--n0", "1", "--m", "3",
            "--a-poly", "0,1", "--b-poly", "1,1", "--deg-max", "4"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _ok(6, f"deg gcd / n over N=2..4: {[round(r, 4) for r in ratios]}, "
           f"min {min(ratios):.4f} > 0, repeated reports byte-identical")


def test_criterion_7_delta_oracles():
    table = delta_count_range(10**5)       # dual-path agreement asserted inside
    sf = delta_squarefree_range(10**5)
    assert all(sf[n] <= table[n] for n in range(1, 10**5 + 1))
    # every n from the definition, by sympy: d | n with d + 1 prime, d squarefree or not
    squarefree = {p - 1: all(e == 1 for e in factorint(p - 1).values())
                  for p in primerange(2, 10**5 + 2)}
    for n in range(1, 10**5 + 1):
        ds = [d for d in divisors(n) if d in squarefree]
        assert table[n] == len(ds), n
        assert sf[n] == sum(squarefree[d] for d in ds), n
    assert table[1] == 1 and table[12] == 5 and table[7] == 1
    assert sf[12] == 3
    _ok(7, "dual-path delta tables equal sympy's divisor counts for all n <= 1e5; "
           "goldens delta(1)=1, delta(12)=5, delta(7)=1")


def test_criterion_8_upper_bound_monitor():
    # max log gcd(2^n - 1, 3^n - 1) / n, read off the (M, N) = (1, 1) gcd-seq rows
    rows = gcd_seq_exact(2, 3, 1, 1, 2000)[99:]
    best = max(rows, key=lambda r: r.log_gcd / r.n)
    ratio, arg = best.log_gcd / best.n, best.n
    assert ratio < 0.7
    # the epsilon-for-all-large-n statement is asymptotic: reported, not asserted
    _ok(8, f"max log gcd(2^n-1, 3^n-1)/n over [100, 2000] = {ratio:.4f} at n={arg} "
           f"(< 0.7; the asymptotic claim itself is not desk-verifiable)")


CASES_9 = [
    ["gcd-seq", "--a", "2", "--b", "3", "--N", "2", "--n-max", "25"],
    ["champion", "--a", "2", "--b", "3", "--N", "2", "--x", "300", "--delta", "0.9"],
    ["champion", "--a", "2", "--b", "3", "--N", "2", "--M", "1", "--x", "120", "--delta", "0.5"],
    ["density", "--N", "2", "--d", "1", "--a", "2", "--b", "3", "--x", "20000"],
    ["delta", "--limit", "500", "--squarefree"],
    ["verify-lemma", "--N", "2", "--a", "3", "--b", "5", "--p-max", "2000", "--m-max", "10"],
    ["ff", "--q", "2", "--k", "1", "--n0", "1", "--m", "3",
     "--a-poly", "0,1", "--b-poly", "1,1", "--deg-max", "2"],
    ["ff-verify", "--q", "2", "--k", "1", "--n0", "1", "--m", "3",
     "--a-poly", "0,1", "--b-poly", "1,1", "--deg-max", "3"],
]


def test_criterion_9_determinism_across_parallelism(tmp_path):
    for fmt in ("json", "csv"):
        for i, case in enumerate(CASES_9):
            outputs = []
            for jobs in ("1", "8"):
                out = tmp_path / f"{fmt}-{i}-{jobs}"
                code = main(case + ["--format", fmt, "--jobs", jobs, "--out", str(out)])
                assert code == 0, f"{case} failed with jobs={jobs}"
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"jobs=1 vs jobs=8 differ for {case} ({fmt})"
    _ok(9, f"{len(CASES_9)} subcommand configurations x json/csv byte-identical at widths 1 and 8")


def test_version_embedded():
    assert __version__ == "0.1.0"
