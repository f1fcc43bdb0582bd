"""Predicted splitting densities of qualifying primes and empirical checks.

The predicted proportion of qualifying primes (among all primes) is the
exact rational

    prod_i (l_i - 1)^(e_i) / (phi(N*d) * prod_i l_i^(e_i)),

where l_i runs over the prime divisors of N and e_i is 3 when a, b are
multiplicatively independent modulo l_i-th powers in Q, else 2.  Empirical
counts against ratio * li(x) stand in for any analytic error term.
"""

import math
from typing import NamedTuple

from .arith import euler_phi, factorize, li
from .errors import VerificationError
from .parallel import map_blocks
from .residues import check_bases, qualifying_primes


def dependence_exponent(a: int, b: int, l: int) -> int:
    """2 if a, b are multiplicatively dependent mod l-th powers in Q, else 3.

    Dependence means the prime-exponent vectors of a and b are linearly
    dependent over the field with l elements.  Bases that are l-th powers
    in Q, with a zero vector, are refused.
    """
    check_bases(a, b, l, l)
    fa, fb = factorize(a), factorize(b)
    support = sorted(set(fa.factors) | set(fb.factors))
    va = [fa.factors.get(p, 0) % l for p in support]
    vb = [fb.factors.get(p, 0) % l for p in support]
    # Both vectors nonzero: dependence over F_l <=> every 2x2 minor vanishes.
    k = len(va)
    dependent = all(
        (va[i] * vb[j] - va[j] * vb[i]) % l == 0 for i in range(k) for j in range(i + 1, k)
    )
    return 2 if dependent else 3


class DensityPrediction(NamedTuple):
    exponents: tuple[tuple[int, int], ...]  # (l, e) pairs, l ascending
    ratio: tuple[int, int]  # (numerator, denominator) in lowest terms


def predicted_density(modulus: int, d: int, a: int, b: int) -> DensityPrediction:
    """Exact density of qualifying primes with the extra filter d | (p-1)/N."""
    check_bases(a, b, modulus, modulus, d)
    exponents = []
    num, den = 1, euler_phi(modulus * d)
    for l in factorize(modulus).primes():
        e = dependence_exponent(a, b, l)
        exponents.append((l, e))
        num, den = num * (l - 1) ** e, den * l**e
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if not 0 < num <= den:
        raise VerificationError(f"density ratio {num}/{den} left (0, 1]")
    return DensityPrediction(tuple(exponents), (num, den))


class DensityCheck(NamedTuple):
    count: int
    expected: float
    relative_error: float
    prediction: DensityPrediction


def _count_block(params, block) -> int:
    modulus, d, a, b = params
    return sum(1 for _ in qualifying_primes(*block, a, b, modulus, modulus, d))


def empirical_density(x: int, modulus: int, d: int, a: int, b: int, jobs: int = 1) -> DensityCheck:
    """Count qualifying primes up to x and compare with ratio * li(x)."""
    if x < 100:
        raise ValueError(f"x must be at least 100, got {x}")
    prediction = predicted_density(modulus, d, a, b)
    count = sum(map_blocks(_count_block, (modulus, d, a, b), 2, x + 1, jobs))
    # the ratio lies in (0, 1] and li(x) > 0 for x >= 100, so expected > 0
    num, den = prediction.ratio
    expected = num / den * li(x)
    return DensityCheck(count, expected, abs(count / expected - 1.0), prediction)
