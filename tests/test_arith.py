import math
import random
import tracemalloc

import pytest
import sympy
from sympy.external.gmpy import jacobi as sympy_jacobi  # the kernel of sympy's jacobi_symbol

from cyclogcd.arith import (
    FactoredInt,
    euler_phi,
    factorize,
    is_prime,
    jacobi,
    li,
    moebius,
    primes_in_range,
)
from cyclogcd.parallel import split_range


def trial_division_primes(limit):
    # independent oracle: naive trial division
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def test_sieve_examples():
    assert primes_in_range(2, 2) == []
    assert primes_in_range(2, 1) == []
    assert primes_in_range(2, 11) == [2, 3, 5, 7]
    thirty = primes_in_range(2, 31)
    assert thirty[-1] == 29 and len(thirty) == 10


def test_sieve_matches_trial_division():
    oracle = trial_division_primes(2000)
    assert primes_in_range(2, 2001) == oracle
    for limit in (0, 1, 2, 3, 4, 24, 25, 26, 48, 49, 50, 121, 1369, 1681):
        assert primes_in_range(2, limit + 1) == [p for p in oracle if p <= limit], limit


def test_primes_in_range_segmented():
    assert primes_in_range(2, 101) == trial_division_primes(100)
    assert primes_in_range(90, 114) == [97, 101, 103, 107, 109, 113]
    assert primes_in_range(50, 50) == []


def test_primes_in_range_matches_trial_division():
    oracle = trial_division_primes(20000)

    def want(lo, hi):
        return [p for p in oracle if lo <= p < hi]

    ranges = [(0, 100), (1, 100), (2, 100), (0, 3), (1, 2), (2, 3), (3, 4),
              (100, 121), (100, 122), (120, 169), (168, 170), (169, 170), (10000, 10201),
              (10201, 10202), (7, 7), (50, 40), (5, 0)]
    for lo, hi in ranges:
        assert primes_in_range(lo, hi) == want(lo, hi), (lo, hi)
    for pieces in (1, 3, 4, 8, 37):
        blocks = split_range(2, 20000, pieces)
        for lo, hi in blocks:
            assert primes_in_range(lo, hi) == want(lo, hi), (lo, hi)
        assert [p for lo, hi in blocks for p in primes_in_range(lo, hi)] == oracle


def test_primes_in_range_progression_matches_sympy():
    # primes p = 1 (mod step); 7 (step 6) and 13 (step 12) lie in their own
    # progression and sieve the ranges past their squares, but must survive
    def want(lo, hi, step):
        return [p for p in sympy.primerange(lo, hi) if (p - 1) % step == 0]

    ranges = [(0, 200), (1, 200), (2, 200), (0, 3), (1, 2), (2, 3), (7, 8), (13, 14), (7, 7),
              (50, 40), (5, 0), (40, 50), (48, 50), (168, 170), (100, 5000), (10000, 12000)]
    for step in (1, 2, 4, 6, 12, 18, 30):
        for lo, hi in ranges:
            assert primes_in_range(lo, hi, step) == want(lo, hi, step), (lo, hi, step)
        oracle = want(0, 20000, step)
        for pieces in (1, 3, 4, 8, 37):
            blocks = split_range(0, 20000, pieces)
            assert [p for lo, hi in blocks for p in primes_in_range(lo, hi, step)] == oracle
    with pytest.raises(ValueError):
        primes_in_range(2, 100, 0)


def test_primes_in_range_wheel_matches_sympy():
    # the wheel entry of p = 1 + step*k is wheel[k % len(wheel)] for the global k, and so is
    # each struck m | k, so a lo off the period and every block split keep the same primes;
    # 30011 strikes no k of these ranges.  Up to 70000, steps 1 and 2 clear the classes of
    # the smallest strides in more than one run of 2^14 flags
    primes = list(sympy.primerange(2, 70000))

    def want(lo, hi, step, wheel, strike):
        return [p for p in primes if lo <= p < hi
                and (p - 1) % step == 0 and wheel[(p - 1) // step % len(wheel)]
                and all((p - 1) // step % m for m in strike)]

    wheels = (b"\x01", b"\x00", b"\x00\x01", b"\x01\x00\x00", bytes([1, 0, 1, 1, 0, 0, 1]),
              bytes(k % 3 != 0 and k % 5 != 2 for k in range(60)))
    for step in (1, 2, 6, 12, 30):
        for wheel in wheels:
            for strike in ((), (1,), (2,), (3, 5), (2, 3, 5, 7), (30011,)):
                for lo, hi in ((0, 200), (2, 3), (7, 8), (13, 14), (50, 40), (97, 5003), (1001, 70000)):
                    assert primes_in_range(lo, hi, step, wheel, strike) == want(lo, hi, step, wheel, strike), \
                        (lo, hi, step, wheel, strike)
                oracle = want(37, 20000, step, wheel, strike)
                for pieces in (4, 8):
                    blocks = split_range(37, 20000, pieces)
                    assert [p for lo, hi in blocks for p in primes_in_range(lo, hi, step, wheel, strike)] == oracle
    assert primes_in_range(2, 100, 1, bytearray(b"\x01")) == primes_in_range(2, 100)
    with pytest.raises(ValueError):
        primes_in_range(2, 100, 2, b"")
    with pytest.raises(ValueError):   # the sieve keeps the entries that are 1
        primes_in_range(2, 100, 2, b"\x01\x02")
    for strike in ((0,), (-2,)):
        with pytest.raises(ValueError, match="every modulus struck must be positive"):
            primes_in_range(2, 100, 2, b"\x01", strike)


def test_primes_in_range_clears_in_bounded_runs():
    # the zero wheel sets no flag, so no list of primes is built: beyond the 2*10^6 flags,
    # the sieve holds only its sieving primes below 2001 and one run of zeros at a time
    tracemalloc.start()
    try:
        assert primes_in_range(2, 4 * 10**6 + 2, 2, b"\x00", (2,)) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6 + 128 * 1024, peak


def test_jacobi_matches_sympy():
    for n in range(1, 1000, 2):
        for a in range(-20, 201):
            assert jacobi(a, n) == sympy_jacobi(a, n), (a, n)
    for n in (0, -3, 2, 10):
        with pytest.raises(ValueError):
            jacobi(3, n)


def test_factorize_matches_sympy_past_the_trial_bound():
    # factors above 10^6 are split by Pollard rho, not trial division
    rng = random.Random(7)
    large = [sympy.nextprime(rng.randrange(10**6, 10**9)) for _ in range(12)]
    cases = [p * q for p, q in zip(large, large[1:])]
    cases += [large[0] ** 2, 2**5 * 3 * large[1] * large[2], large[3] * large[4] * large[5]]
    for n in cases:
        assert factorize(n).factors == sympy.factorint(n), n


def test_factorize_matches_sympy_past_the_trial_primes():
    # trial division stops at the primes below 2^12, so each prime here and
    # every power or product of them is left to Pollard rho
    above = [4099, 4111, 10007, 65537]
    assert min(above) > 2**12 > max(primes_in_range(2, 2**12 + 1))
    cases = [p**e for p in above for e in (1, 2, 3)]
    cases += [p * q for p in above for q in above if p < q]
    cases += [2**k * p * q for k in (1, 7, 20) for p, q in zip(above, above[1:])]
    cases += [4093 * 4099, 4093**2 * 4099, 3**5 * 4099**2 * 65537]
    rng = random.Random(11)
    cases += [rng.randrange(2**24, 10**12) for _ in range(200)]
    cases += [2**24, 2**24 + 1, 10**12 - 1, 10**12]
    for n in cases:
        assert factorize(n).factors == sympy.factorint(n), n


def test_factorize_examples():
    assert factorize(1).factors == {}
    assert factorize(12).factors == {2: 2, 3: 1}
    assert factorize(9973).factors == {9973: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_round_trip():
    for n in range(1, 10**5 + 1):
        fac = factorize(n)
        assert fac.value == n
        assert math.prod(p**e for p, e in fac.factors.items()) == n


def test_factorize_large_semiprime():
    n = 10007 * 10009 * 65537
    assert factorize(n).factors == {10007: 1, 10009: 1, 65537: 1}


def test_factorize_two_13_digit_primes_by_brent():
    # found by probe: walking x -> x^2 + 1 from 2 mod each prime from 10^12 up, both primes
    # here evade Floyd's x_i = x_2i past 2^20 steps, where Floyd's rho gave up, while Brent's
    # cycle finding meets 1000000000169 after 1,770,750 counted steps, inside _RHO_STEPS
    p, q = 1000000000121, 1000000000169
    assert factorize(p * q).factors == {p: 1, q: 1}


def test_factored_int_invariants_enforced():
    with pytest.raises(ValueError):
        FactoredInt(12, {2: 1, 3: 1})
    with pytest.raises(ValueError):
        FactoredInt(8, {8: 1})


def test_divisors():
    assert factorize(12).divisors() == [1, 2, 3, 4, 6, 12]
    assert factorize(1).divisors() == [1]


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0
    with pytest.raises(ValueError):
        moebius(0)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    for p in (2, 3, 97, 9973):
        assert euler_phi(p) == p - 1
    # direct count oracle
    for n in (1, 2, 12, 36, 100):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_divisor_sum_identities():
    for n in range(1, 10**4 + 1):
        divs = factorize(n).divisors()
        assert sum(moebius(d) for d in divs) == (1 if n == 1 else 0)
        assert sum(euler_phi(d) for d in divs) == n


# frozen from mpmath.li(x, offset=True) at 50 digits
LI_ORACLE = {
    10: 5.1204357246747,
    1000: 176.56449942160,
    10**5: 9628.7638372716,
    10**6: 78626.503995683,
}


def test_li_values():
    assert li(2) == 0.0
    for x, expected in LI_ORACLE.items():
        assert li(x) == pytest.approx(expected, rel=1e-6)
    with pytest.raises(ValueError):
        li(1.5)


def test_li_monotone_and_close_to_prime_count():
    values = [li(x) for x in (2, 10, 100, 10**4, 10**6)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # pi(10**6) = 78498
    assert abs(li(10**6) / 78498 - 1) < 0.005


def test_is_prime_against_sieve():
    flags = set(primes_in_range(2, 5001))
    for n in range(5000):
        assert is_prime(n) == (n in flags)


def test_is_prime_strong_pseudoprime_to_first_twelve_primes():
    n = 318665857834031151167461   # 399165290221 * 798330580441
    assert not is_prime(n)
    assert not sympy.isprime(n)


def test_is_prime_refuses_above_its_exact_range():
    bound = 3317044064679887385961981   # 1287836182261 * 2575672364521
    assert not sympy.isprime(bound)
    with pytest.raises(ValueError, match="passes every Miller-Rabin witness"):
        is_prime(bound)
    for n in range(bound + 1, bound + 3000):
        if sympy.isprime(n):
            with pytest.raises(ValueError):
                is_prime(n)
        else:
            assert is_prime(n) is False, n


@pytest.mark.parametrize("centre", [2**64, 33 * 10**23])
def test_is_prime_matches_sympy_near_large_centres(centre):
    for n in range(centre - 3000, centre + 3000):
        assert is_prime(n) == sympy.isprime(n), n
