"""Cyclotomic polynomials: exact construction over Z, evaluation over Z,
modulo a prime, and over polynomial rings with finite-field coefficients.

Phi_N is built from the Moebius product of (x^d - 1) factors with all
divisions performed last, each one exact (zero remainder checked).
Coefficients are arbitrary-precision: beyond index 104 they leave {-1, 0, 1}
and grow without bound in general.
"""

from functools import lru_cache

from .arith import euler_phi, factorize, moebius
from .errors import VerificationError


def _mul_by_x_pow_minus_1(coeffs: list[int], d: int) -> list[int]:
    # f * (x^d - 1) == shift(f, d) - f
    out = [0] * (len(coeffs) + d)
    for i, c in enumerate(coeffs):
        out[i] -= c
        out[i + d] += c
    return out


def _divexact_by_x_pow_minus_1(coeffs: list[int], d: int) -> list[int]:
    # Synthetic division by the monic binomial x^d - 1; remainder must vanish.
    work = list(coeffs)
    quot = [0] * (len(work) - d)
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            quot[i - d] = c
            work[i] = 0
            work[i - d] += c
    if any(work[:d]):
        raise VerificationError(f"inexact cyclotomic division by x^{d} - 1")
    return quot


@lru_cache(maxsize=None)
def build_cyclotomic(index: int) -> tuple[int, ...]:
    """The integer coefficients of Phi_index, constant term first, of degree
    euler_phi(index); Phi_1 = x - 1 is (-1, 1), Phi_2 = x + 1 is (1, 1)."""
    if index < 1:
        raise ValueError("cyclotomic index must be positive")
    numerator_degrees = []
    denominator_degrees = []
    for d in factorize(index).divisors():
        mu = moebius(index // d)
        if mu == 1:
            numerator_degrees.append(d)
        elif mu == -1:
            denominator_degrees.append(d)
    coeffs = [1]
    for d in numerator_degrees:
        coeffs = _mul_by_x_pow_minus_1(coeffs, d)
    for d in denominator_degrees:
        coeffs = _divexact_by_x_pow_minus_1(coeffs, d)
    if len(coeffs) != euler_phi(index) + 1 or coeffs[-1] != 1:
        raise VerificationError(f"Phi_{index} is not monic of degree phi({index})")
    return tuple(coeffs)


def eval_int(coeffs: tuple[int, ...], v: int) -> int:
    """Exact Horner evaluation at an integer of the polynomial with these
    coefficients, constant term first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def eval_mod_prime(index: int, a: int, n: int, p: int) -> int:
    """Phi_index(a**n) mod p, computed without forming a**n.

    Reduction commutes with evaluation, so this equals
    eval_int(build_cyclotomic(index), a**n) % p.  Requires p not dividing a.
    """
    if a % p == 0:
        raise ValueError(f"{p} divides the base {a}")
    t = pow(a, n, p)
    acc = 0
    for c in reversed(build_cyclotomic(index)):
        acc = (acc * t + c) % p
    return acc


def eval_poly_fq(index: int, value):
    """Phi_index(value) where value is a polynomial over a finite field.

    The characteristic must not divide the index.  Degree of the result is
    euler_phi(index) * deg(value) whenever deg(value) >= 1.
    """
    ctx = value.ctx
    if index % ctx.p == 0:
        raise ValueError(f"characteristic {ctx.p} divides the cyclotomic index {index}")
    constant = type(value).constant
    acc = constant(ctx, 0)
    for c in reversed(build_cyclotomic(index)):
        acc = acc * value + constant(ctx, c % ctx.p)
    return acc
