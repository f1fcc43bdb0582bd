import pytest
from sympy import cyclotomic_poly
from sympy.ntheory import n_order

from cyclogcd.arith import euler_phi, primes_in_range
from cyclogcd.cyclotomic import (
    _divexact_by_x_pow_minus_1,
    build_cyclotomic,
    eval_int,
    eval_mod_prime,
    eval_poly_fq,
)
from cyclogcd.errors import VerificationError
from cyclogcd.ffield import fq_context
from cyclogcd.fqpoly import FqPolynomial


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def test_first_polynomials():
    assert build_cyclotomic(1) == (-1, 1)   # x - 1
    assert build_cyclotomic(2) == (1, 1)    # x + 1
    assert build_cyclotomic(6) == (1, -1, 1)
    with pytest.raises(ValueError):
        build_cyclotomic(0)


def test_structure_invariants():
    for n in range(1, 121):
        phi = build_cyclotomic(n)
        assert len(phi) - 1 == euler_phi(n)
        assert phi[-1] == 1
        assert phi[0] == (-1 if n == 1 else 1)


def test_product_identity():
    # prod_{d | N} Phi_d(x) == x^N - 1 as exact integer polynomials
    from cyclogcd.arith import factorize

    for n in range(1, 101):
        prod = [1]
        for d in factorize(n).divisors():
            prod = poly_mul(prod, list(build_cyclotomic(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected


def test_coefficients_leave_unit_range():
    # the first index with a coefficient of magnitude > 1
    assert min(build_cyclotomic(105)) == -2
    for n in range(1, 105):
        coeffs = build_cyclotomic(n)
        assert all(abs(c) <= 1 for c in coeffs)


def test_coefficients_match_sympy():
    # 105 and 385 are the first indices with a coefficient of magnitude 2 and 3
    for n in range(1, 401):
        assert build_cyclotomic(n) == tuple(cyclotomic_poly(n, polys=True).all_coeffs()[::-1]), n


def test_eval_int():
    assert eval_int(build_cyclotomic(1), 64) == 63
    assert eval_int(build_cyclotomic(2), 27) == 28
    assert eval_int(build_cyclotomic(6), 2) == 3


def test_eval_mod_prime_examples():
    assert eval_mod_prime(2, 3, 3, 7) == 0
    assert eval_mod_prime(1, 2, 6, 7) == 0
    assert eval_mod_prime(2, 2, 3, 7) == 2
    with pytest.raises(ValueError):
        eval_mod_prime(2, 7, 3, 7)


def test_eval_mod_prime_commutes_with_reduction():
    # exhaustive: N <= 12, a <= 10, n <= 50, p <= 100
    primes = primes_in_range(2, 101)
    polys = {n_idx: build_cyclotomic(n_idx) for n_idx in range(1, 13)}
    for a in range(2, 11):
        power = 1
        for n in range(0, 51):
            for n_idx, phi in polys.items():
                value = eval_int(phi, power)
                for p in primes:
                    if a % p == 0:
                        continue
                    assert eval_mod_prime(n_idx, a, n, p) == value % p
            power *= a


def test_root_iff_multiplicative_order():
    # Phi_N(t) = 0 mod p with p not dividing N <=> ord_p(t) = N
    for p in primes_in_range(2, 501):
        from cyclogcd.arith import factorize

        orders = {t: n_order(t, p) for t in range(1, p)}
        for n_idx in factorize(p - 1).divisors():
            phi = build_cyclotomic(n_idx)
            reduced = [c % p for c in phi]
            for t in range(1, p):
                acc = 0
                for c in reversed(reduced):
                    acc = (acc * t + c) % p
                assert (acc == 0) == (orders[t] == n_idx)


def test_eval_poly_fq():
    f2 = fq_context(2, 1)
    f3 = fq_context(3, 1)
    t = FqPolynomial.variable(f2)
    assert eval_poly_fq(3, t).coeffs == (1, 1, 1)
    assert eval_poly_fq(1, t).coeffs == (1, 1)  # x - 1 == x + 1 in characteristic 2
    assert eval_poly_fq(2, FqPolynomial.of(f3, (1, 1))).coeffs == (2, 1)
    with pytest.raises(ValueError):
        eval_poly_fq(2, t)  # characteristic divides the index


def test_eval_poly_fq_degree():
    f5 = fq_context(5, 1)
    for m in (1, 2, 3, 4, 6, 12):
        for coeffs in ((0, 1), (1, 2, 1), (3, 0, 0, 1)):
            a = FqPolynomial.of(f5, coeffs)
            assert eval_poly_fq(m, a).degree == euler_phi(m) * a.degree


def test_inexact_division_is_a_verification_error():
    # x^2 = (x + 1)(x - 1) + 1: the remainder must fail the certificate even under -O
    assert _divexact_by_x_pow_minus_1([-1, 0, 1], 1) == [1, 1]
    with pytest.raises(VerificationError, match="inexact cyclotomic division"):
        _divexact_by_x_pow_minus_1([0, 0, 1], 1)
