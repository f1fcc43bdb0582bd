import math

import pytest

from cyclogcd.arith import factorize, sieve_primes
from cyclogcd.cyclotomic import eval_mod_prime
from cyclogcd.errors import HypothesisError
from cyclogcd.residues import (
    check_squares_not_forced,
    is_lth_power_mod,
    lemma_divides,
    lemma_scan,
    order_exact,
    qualifies_prime,
    qualifying_primes,
)


def test_is_lth_power_mod_examples():
    assert is_lth_power_mod(2, 2, 7)       # 4^2 = 16 = 2 mod 7
    assert not is_lth_power_mod(3, 2, 7)   # squares mod 7 are {1, 2, 4}
    assert is_lth_power_mod(1, 3, 7)
    with pytest.raises(ValueError):
        is_lth_power_mod(2, 5, 7)          # 5 does not divide 6
    with pytest.raises(ValueError):
        is_lth_power_mod(7, 2, 7)


def test_is_lth_power_mod_matches_enumeration():
    for p in sieve_primes(500):
        for l in factorize(p - 1).primes():
            powers = {pow(t, l, p) for t in range(1, p)}
            for a in range(1, p):
                assert is_lth_power_mod(a, l, p) == (a in powers)


def test_qualifies_prime_examples():
    assert qualifies_prime(7, 2, 3, 5).qualified
    assert not qualifies_prime(5, 2, 3, 7).qualified   # 5 = 1 mod 4
    assert not qualifies_prime(7, 2, 2, 3).qualified   # 2 is a square mod 7
    with pytest.raises(ValueError):
        qualifies_prime(7, 2, 14, 3)
    with pytest.raises(ValueError):
        qualifies_prime(8, 2, 3, 5)


def test_qualifies_prime_congruence_recorded():
    qp = qualifies_prime(11, 3, 2, 5)  # 11 != 1 mod 3
    assert not qp.congruent and not qp.qualified
    qp = qualifies_prime(13, 3, 2, 3)  # 2, 3 are non-cubes mod 13; 13 != 1 mod 9
    assert qp.congruent and qp.qualified


def test_lemma_divides_examples():
    assert lemma_divides(qualifies_prime(7, 2, 3, 5), 3)
    assert lemma_divides(qualifies_prime(7, 1, 2, 3), 6)
    assert lemma_divides(qualifies_prime(13, 3, 2, 3), 4)


def test_lemma_divides_preconditions_distinct():
    qp = qualifies_prime(7, 2, 3, 5)
    with pytest.raises(ValueError, match="does not divide"):
        lemma_divides(qp, 4)
    qp13 = qualifies_prime(13, 3, 2, 3)
    assert qp13.qualified
    with pytest.raises(ValueError, match="not coprime"):
        lemma_divides(qp13, 12)  # (13-1)/3 = 4 divides 12 but gcd(12, 3) = 3
    bad = qualifies_prime(5, 2, 3, 7)
    with pytest.raises(ValueError, match="not qualified"):
        lemma_divides(bad, 2)


def test_order_exact_examples():
    assert order_exact(3, 3, 7, 2)
    assert order_exact(2, 0, 7, 1)
    assert not order_exact(2, 1, 7, 6)
    with pytest.raises(ValueError):
        order_exact(2, 1, 7, 4)  # 4 does not divide 6


def test_divisibility_iff_order():
    # p | Phi_N(a^n) <=> ord_p(a^n) = N, for p not dividing N*a
    for p in sieve_primes(200):
        for n_idx in factorize(p - 1).divisors():
            for a in (2, 3, 10):
                if a % p == 0:
                    continue
                for n in (1, 2, 5, 12):
                    divides = eval_mod_prime(n_idx, a, n, p) == 0
                    assert divides == order_exact(a, n, p, n_idx)


def test_lemma_scan_small():
    result = lemma_scan(2, 3, 5, 500, 10)
    assert result.failures == 0
    assert result.qualified_primes > 0
    assert result.cases_checked > result.qualified_primes


def test_lemma_scan_rejects_power_bases():
    with pytest.raises(HypothesisError, match="l-th power in Q"):
        lemma_scan(2, 4, 3, 100, 5)


def test_constructed_n_coprimality():
    # for qualified p, n = m (p-1)/N with gcd(m, N) = 1 is coprime to N
    for p in sieve_primes(2000):
        if (p - 1) % 3 == 0:
            qp = qualifies_prime(p, 3, 2, 5)
            if not qp.qualified:
                continue
            w = (p - 1) // 3
            for m in (1, 2, 4, 5):
                assert math.gcd(m * w, 3) == 1


def test_qualifying_primes_matches_explainer():
    for modulus, a, b in ((1, 2, 3), (2, 2, 3), (3, 2, 5), (6, 5, 7), (4, 3, 5)):
        ells = factorize(modulus).primes()
        for d in (1, 5, 7):
            got = list(qualifying_primes(2, 3000, modulus, a, b, ells, ells, d))
            want = [p for p in sieve_primes(2999)
                    if a % p and b % p and qualifies_prime(p, modulus, a, b).qualified
                    and (p - 1) // modulus % d == 0]
            assert got == [(p, (p - 1) // modulus) for p in want]


def test_squares_forced_by_the_modulus():
    # rejected exactly when every p = 1 (mod modulus) up to 5000 has c as a square
    for modulus in (2, 4, 6, 8, 10, 12, 24, 40):
        for c in (2, 3, 5, 6, 7, 10, 12, 18):
            primes = [p for p in sieve_primes(5000) if p % modulus == 1 and c % p]
            always = all(is_lth_power_mod(c, 2, p) for p in primes)
            try:
                check_squares_not_forced(modulus, (("a", c),))
                rejected = False
            except HypothesisError as exc:
                rejected = True
                assert f"a = {c}" in str(exc) and f"(mod {modulus})" in str(exc)
            assert rejected == always, (modulus, c)
