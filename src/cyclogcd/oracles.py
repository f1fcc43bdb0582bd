"""Brute-force ground truth.

Exact gcd sequences of cyclotomic values over Z and the divisor counters
delta(n) = #{d | n : d + 1 prime} (optionally with d squarefree).  These
exist to check the constructive machinery, so they stay deliberately naive;
the upper-bound monitor max_n log gcd(a^n - 1, b^n - 1) / n is read off the
gcd_seq_exact rows with M = N = 1.
"""

import math
from typing import NamedTuple

from .arith import euler_phi, factorize, primes_in_range
from .cyclotomic import build_cyclotomic, eval_int
from .errors import VerificationError
from .parallel import map_blocks

# factor the gcd for the report only while it stays cheap
_FACTOR_REPORT_CAP = 10**15
# refuse a gcd sequence whose values would grow past this many bits
_BIT_CAP = 10**6
# refuse a delta table past this limit: a run holds about 250 bytes per n
_LIMIT_CAP = 10**7


class GcdSeqRow(NamedTuple):
    n: int
    gcd_value: int
    log_gcd: float
    distinct_prime_count: int | None


def _gcd_rows_block(cfg, block) -> list[GcdSeqRow]:
    a, b, idx_a, idx_b = cfg
    lo, hi = block
    phi_a = build_cyclotomic(idx_a)
    phi_b = build_cyclotomic(idx_b)
    rows = []
    va, vb = a ** lo, b ** lo
    for n in range(lo, hi):
        g = math.gcd(eval_int(phi_a, va), eval_int(phi_b, vb))
        dpc = len(factorize(g).factors) if 1 <= g <= _FACTOR_REPORT_CAP else None
        rows.append(GcdSeqRow(n, g, math.log(g), dpc))
        va *= a
        vb *= b
    return rows


def gcd_seq_exact(a: int, b: int, idx_a: int, idx_b: int, n_max: int, jobs: int = 1) -> list[GcdSeqRow]:
    """Rows gcd(Phi_M(a^n), Phi_N(b^n)) for n = 1..n_max, exactly."""
    if a < 2 or b < 2:
        raise ValueError(f"bases must be at least 2, got a = {a}, b = {b}")
    if idx_a < 1 or idx_b < 1:
        raise ValueError(f"indices must be at least 1, got M = {idx_a}, N = {idx_b}")
    if n_max < 0:
        raise ValueError(f"n_max must be at least 0, got {n_max}")
    estimated_bits = int(
        n_max * math.log2(max(a, b)) * max(euler_phi(idx_a), euler_phi(idx_b))
    )
    if estimated_bits > _BIT_CAP:
        raise ValueError(
            f"values would reach about {estimated_bits} bits, over the cap {_BIT_CAP}"
        )
    rows: list[GcdSeqRow] = []
    for chunk in map_blocks(_gcd_rows_block, (a, b, idx_a, idx_b), 1, n_max + 1, jobs):
        rows.extend(chunk)
    return rows


def _check_limit(limit: int) -> None:
    """Refuse a limit below 1 or over the cap, before any table is built."""
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if limit > _LIMIT_CAP:
        raise ValueError(f"limit must be at most {_LIMIT_CAP}, got {limit}")


def delta_count_range(limit: int) -> list[int]:
    """delta(n) for every n in 1..limit (index 0 unused), dual-path.

    Path A enumerates divisors per n from a smallest-prime-factor table and
    reads the primality of d + 1 off the same table; path B walks, for each
    prime p from the sieve, the multiples of p - 1.  The two tables must
    agree entry by entry.
    """
    _check_limit(limit)
    # path B: for each prime p <= limit + 1 mark multiples of p - 1
    table_b = [0] * (limit + 1)
    for p in primes_in_range(2, limit + 2):
        step = p - 1
        for j in range(step, limit + 1, step):
            table_b[j] += 1
    # path A: smallest prime factor -> divisors -> primality of d + 1 from the same table
    spf = list(range(limit + 2))
    for p in range(2, math.isqrt(limit + 1) + 1):
        if spf[p] == p:
            for j in range(p * p, limit + 2, p):
                if spf[j] == j:
                    spf[j] = p
    table_a = [0] * (limit + 1)
    for n in range(1, limit + 1):
        divs = [1]
        rest = n
        while rest > 1:
            p = spf[rest]
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            divs = [d * p**i for d in divs for i in range(e + 1)]
        table_a[n] = sum(1 for d in divs if spf[d + 1] == d + 1)
    if table_a != table_b:
        raise VerificationError("delta range paths disagree")
    return table_a


def delta_squarefree_range(limit: int) -> list[int]:
    """delta(n) counting squarefree d only, for every n in 1..limit (index 0 unused)."""
    _check_limit(limit)
    table = [0] * (limit + 1)
    for p in primes_in_range(2, limit + 2):
        d = p - 1
        if d >= 1 and all(e == 1 for e in factorize(d).factors.values()):
            for j in range(d, limit + 1, d):
                table[j] += 1
    return table
