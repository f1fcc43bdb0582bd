import math

import pytest
from sympy import divisors, factorint, isprime

from cyclogcd.oracles import delta_count_range, delta_squarefree_range, gcd_seq_exact


def monitor(a, b, n_min, n_max):
    # max of log gcd(a^n - 1, b^n - 1) / n over [n_min, n_max], read off the
    # (M, N) = (1, 1) gcd-seq rows; max keeps the first, so ties go to the smallest n
    best = max(gcd_seq_exact(a, b, 1, 1, n_max)[n_min - 1:], key=lambda r: r.log_gcd / r.n)
    return best.log_gcd / best.n, best.n


def test_gcd_seq_basic():
    rows = gcd_seq_exact(2, 3, 1, 1, 4)
    assert [(r.n, r.gcd_value) for r in rows] == [(1, 1), (2, 1), (3, 1), (4, 5)]
    assert rows[3].log_gcd == pytest.approx(math.log(5))
    assert rows[3].distinct_prime_count == 1


def test_gcd_seq_cyclotomic_indices():
    rows = gcd_seq_exact(3, 5, 2, 2, 3)
    # gcd(3^n + 1, 5^n + 1): n = 3 gives gcd(28, 126) = 14
    assert [(r.n, r.gcd_value) for r in rows] == [(1, 2), (2, 2), (3, 14)]


def test_gcd_seq_size_cap():
    with pytest.raises(ValueError, match="bits"):
        gcd_seq_exact(2, 3, 1, 1, 10**7)
    with pytest.raises(ValueError):
        gcd_seq_exact(1, 3, 1, 1, 5)
    # a delta table is refused before it is allocated
    with pytest.raises(ValueError, match="at most"):
        delta_count_range(10**12)
    with pytest.raises(ValueError, match="at most"):
        delta_squarefree_range(10**12)


def test_gcd_seq_parallel_matches():
    assert gcd_seq_exact(2, 3, 2, 2, 40, jobs=3) == gcd_seq_exact(2, 3, 2, 2, 40)


def test_cyclotomic_rows_divide_full_rows():
    # Phi_N(x) | x^N - 1, so the (N, N) row at n divides the (1, 1) row at N*n
    for idx in (2, 3, 4):
        small = gcd_seq_exact(2, 3, idx, idx, 40)
        full = gcd_seq_exact(2, 3, 1, 1, 40 * idx)
        for row in small:
            assert full[idx * row.n - 1].gcd_value % row.gcd_value == 0


def test_delta_goldens():
    table = delta_count_range(12)
    sf = delta_squarefree_range(12)
    assert table[1] == 1
    assert table[12] == 5     # d in {1, 2, 4, 6, 12}
    assert table[7] == 1      # only d = 1 (7 + 1 = 8 is composite)
    assert sf[12] == 3        # d = 4 and d = 12 are not squarefree
    assert sf[1] == 1


def test_delta_range_agrees_with_single_calls():
    # every n from the definition, by sympy
    table = delta_count_range(2000)
    sf = delta_squarefree_range(2000)
    for n in range(1, 2001):
        ds = [d for d in divisors(n) if isprime(d + 1)]
        assert table[n] == len(ds), n
        assert sf[n] == sum(1 for d in ds if all(e == 1 for e in factorint(d).values())), n


def test_delta_squarefree_never_exceeds_delta():
    table = delta_count_range(5000)
    sf = delta_squarefree_range(5000)
    for n in range(1, 5001):
        assert sf[n] <= table[n]


def test_upper_bound_monitor_examples():
    assert monitor(2, 3, 1, 1) == (0.0, 1)
    ratio, arg = monitor(2, 3, 1, 10)
    assert arg == 4 and ratio == pytest.approx(math.log(5) / 4)
    # the rows against gcd(a^n - 1, b^n - 1) computed directly
    for a, b, n_min, n_max in ((2, 3, 1, 400), (2, 3, 100, 400), (5, 7, 1, 300), (6, 10, 50, 200)):
        direct = max(math.log(math.gcd(a**n - 1, b**n - 1)) / n for n in range(n_min, n_max + 1))
        assert monitor(a, b, n_min, n_max)[0] == direct


def test_upper_bound_monitor_range_nesting():
    inner, _ = monitor(2, 3, 100, 400)
    outer, _ = monitor(2, 3, 1, 400)
    assert inner <= outer
