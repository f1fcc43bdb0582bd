import itertools
import math
from fractions import Fraction

import pytest

from cyclogcd.arith import euler_phi, li, primes_in_range
from cyclogcd.density import dependence_exponent, empirical_density, predicted_density
from cyclogcd.errors import HypothesisError


def empirical_tolerance(count):
    # statistical tolerance of the accuracy checks: max(0.15, 3/sqrt(count))
    return max(0.15, 3.0 / math.sqrt(count)) if count > 0 else math.inf


def test_dependence_exponent_examples():
    assert dependence_exponent(2, 3, 2) == 3
    assert dependence_exponent(2, 4, 3) == 2   # vectors (1), (2) over F_3
    assert dependence_exponent(12, 18, 5) == 3
    assert dependence_exponent(2, 8, 2) == 2   # 8 = 2^3, (1) and (3) agree mod 2
    with pytest.raises(HypothesisError):
        dependence_exponent(4, 3, 2)           # 4 is a square


def test_dependence_exponent_symmetric():
    for a, b, l in ((2, 3, 2), (2, 8, 2), (12, 18, 5), (6, 10, 3), (2, 4, 3)):
        assert dependence_exponent(a, b, l) == dependence_exponent(b, a, l)


def test_predicted_density_examples():
    assert predicted_density(2, 1, 2, 3).ratio == (1, 8)
    # (3-1)^3 / (phi(3) * 3^3) = 8/54 = 4/27, in lowest terms
    assert predicted_density(3, 1, 2, 3).ratio == (4, 27)
    assert predicted_density(2, 1, 2, 8).ratio == (1, 4)
    assert predicted_density(1, 1, 2, 3).ratio == (1, 1)


def test_predicted_density_monotone_in_d():
    last = Fraction(2)
    for d in (1, 3, 5, 15, 105):
        ratio = Fraction(*predicted_density(2, d, 2, 3).ratio)
        assert ratio < last
        last = ratio


def test_predicted_density_hypotheses():
    with pytest.raises(HypothesisError):
        predicted_density(2, 4, 2, 3)   # d not squarefree
    with pytest.raises(HypothesisError):
        predicted_density(2, 2, 3, 5)   # d shares a factor with N
    with pytest.raises(HypothesisError):
        predicted_density(2, 1, 4, 3)   # base is a square


def brute_count(x, modulus, d, a, b, ells):
    count = 0
    for p in primes_in_range(2, x + 1):
        if (p - 1) % (modulus * d) or a % p == 0 or b % p == 0:
            continue
        ok = True
        for l in ells:
            if (p - 1) % (modulus * l) == 0:
                ok = False
                break
            if pow(a, (p - 1) // l, p) == 1:
                ok = False
                break
            if pow(b, (p - 1) // l, p) == 1:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_empirical_density_matches_brute_force():
    for modulus, d, a, b, ells in ((2, 1, 2, 3, (2,)), (2, 3, 2, 3, (2,)), (3, 1, 2, 3, (3,)), (1, 1, 2, 3, ())):
        check = empirical_density(10**4, modulus, d, a, b)
        assert check.count == brute_count(10**4, modulus, d, a, b, ells)


def test_empirical_density_no_conditions_for_index_one():
    check = empirical_density(1000, 1, 1, 2, 3)
    assert check.count == 166          # pi(1000) without 2 and 3: p | ab never counts
    assert check.expected == pytest.approx(li(1000), rel=1e-9)


def test_empirical_density_accuracy_medium():
    check = empirical_density(10**5, 2, 1, 2, 3)
    assert check.relative_error < empirical_tolerance(check.count)
    check = empirical_density(10**5, 3, 1, 2, 3)  # the 4/27 case
    assert check.relative_error < empirical_tolerance(check.count)
    check = empirical_density(10**5, 2, 5, 2, 3)  # d sharing no factor with a, b
    assert check.relative_error < empirical_tolerance(check.count)


def test_empirical_density_entangled_d():
    # When a base shares a prime with d the independence behind the ratio
    # formula breaks: for (N, d, a, b) = (2, 3, 2, 3), p = 1 mod 6 with
    # p != 1 mod 4 forces p = 7 mod 12, where 3 is automatically a
    # non-square by quadratic reciprocity.  The true count is twice the
    # formula value; the empirical scan is the authority here.
    check = empirical_density(10**5, 2, 3, 2, 3)
    assert check.count / check.expected == pytest.approx(2.0, rel=0.1)


def test_empirical_density_parallel_agrees():
    # every block sieves its own progression, seeded from the wheel aligned on k
    for modulus, d, a, b in ((2, 1, 2, 3), (6, 1, 5, 7), (2, 1, 12, 45), (2, 5, 2, 3)):
        seq = empirical_density(2 * 10**4, modulus, d, a, b, jobs=1)
        for jobs in (2, 4):
            assert empirical_density(2 * 10**4, modulus, d, a, b, jobs=jobs) == seq, (modulus, d, a, b, jobs)


def test_empirical_density_rejects_tiny_x():
    with pytest.raises(ValueError):
        empirical_density(50, 2, 1, 2, 3)


def test_group_complement_count():
    # predicted_density's factor (l-1)^e / l^e is the share of (Z/l)^e outside
    # the coordinate subgroups, counted here as the tuples with no zero entry
    for l, a, b, e in ((2, 2, 3, 3), (2, 2, 8, 2), (3, 2, 3, 3), (3, 2, 4, 2),
                       (5, 2, 3, 3), (5, 12, 18, 3), (5, 2, 4, 2), (7, 2, 3, 3)):
        prediction = predicted_density(l, 1, a, b)
        assert prediction.exponents == ((l, e),)
        complement = sum(1 for t in itertools.product(range(l), repeat=e) if all(t))
        assert Fraction(*prediction.ratio) * euler_phi(l) * l**e == complement
