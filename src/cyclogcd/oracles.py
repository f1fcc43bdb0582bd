"""Brute-force ground truth.

Exact gcd sequences of cyclotomic values over Z, the divisor counters
delta(n) = #{d | n : d + 1 prime} (optionally with d squarefree), and the
upper-bound monitor max_n log gcd(a^n - 1, b^n - 1) / n.  These exist to
check the constructive machinery, so they stay deliberately naive.
"""

import math
from dataclasses import dataclass
from functools import partial

from .arith import euler_phi, factorize, is_prime, primes_up_to, sieve_primes
from .cyclotomic import build_cyclotomic, eval_int
from .errors import HypothesisError, VerificationError
from .parallel import pmap, split_range

# factor the gcd for the report only while it stays cheap
_FACTOR_REPORT_CAP = 10**15


@dataclass(frozen=True)
class GcdSeqRow:
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


def gcd_seq_exact(a: int, b: int, idx_a: int, idx_b: int, n_max: int, bit_cap: int = 10**6, jobs: int = 1) -> list[GcdSeqRow]:
    """Rows gcd(Phi_M(a^n), Phi_N(b^n)) for n = 1..n_max, exactly."""
    if a < 2 or b < 2:
        raise ValueError("bases must be at least 2")
    estimated_bits = int(
        n_max * math.log2(max(a, b)) * max(euler_phi(idx_a), euler_phi(idx_b))
    )
    if estimated_bits > bit_cap:
        raise ValueError(
            f"values would reach about {estimated_bits} bits, over the cap {bit_cap}"
        )
    blocks = split_range(1, n_max + 1, max(jobs * 2, 1))
    rows: list[GcdSeqRow] = []
    for chunk in pmap(partial(_gcd_rows_block, (a, b, idx_a, idx_b)), blocks, jobs):
        rows.extend(chunk)
    return rows


def delta_count(n: int) -> int:
    """Number of divisors d of n with d + 1 prime.

    Computed two independent ways (divisor enumeration with a primality
    test; a scan over primes p <= n + 1 with (p - 1) | n) and cross-checked.
    """
    if n < 1:
        raise ValueError("n must be positive")
    by_divisors = sum(1 for d in factorize(n).divisors() if is_prime(d + 1))
    by_primes = sum(1 for p in primes_up_to(n + 1) if n % (p - 1) == 0)
    if by_divisors != by_primes:
        raise VerificationError(f"delta paths disagree at n = {n}")
    return by_divisors


def delta_squarefree_count(n: int) -> int:
    """Like delta_count but restricted to squarefree divisors d."""
    if n < 1:
        raise ValueError("n must be positive")
    count = 0
    for d in factorize(n).divisors():
        if is_prime(d + 1) and all(e == 1 for e in factorize(d).factors.values()):
            count += 1
    return count


def delta_count_range(limit: int) -> list[int]:
    """delta_count for every n in 1..limit (index 0 unused), dual-path.

    Path A enumerates divisors per n from a smallest-prime-factor table and
    checks d + 1 against a sieve; path B walks, for each prime p, the
    multiples of p - 1.  The two tables must agree entry by entry.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    # path B: for each prime p <= limit + 1 mark multiples of p - 1
    table_b = [0] * (limit + 1)
    for p in sieve_primes(limit + 1):
        step = p - 1
        for j in range(step, limit + 1, step):
            table_b[j] += 1
    # path A: smallest prime factor -> divisors -> sieve-backed primality
    spf = list(range(limit + 2))
    for p in range(2, math.isqrt(limit + 1) + 1):
        if spf[p] == p:
            for j in range(p * p, limit + 2, p):
                if spf[j] == j:
                    spf[j] = p
    prime_flags = bytearray(limit + 2)
    for p in sieve_primes(limit + 1):
        prime_flags[p] = 1
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
        table_a[n] = sum(1 for d in divs if prime_flags[d + 1])
    if table_a != table_b:
        raise VerificationError("delta range paths disagree")
    return table_a


def delta_squarefree_range(limit: int) -> list[int]:
    """delta_squarefree_count for every n in 1..limit (index 0 unused)."""
    if limit < 1:
        raise ValueError("limit must be positive")
    table = [0] * (limit + 1)
    for p in sieve_primes(limit + 1):
        d = p - 1
        if d >= 1 and all(e == 1 for e in factorize(d).factors.values()):
            for j in range(d, limit + 1, d):
                table[j] += 1
    return table


def multiplicatively_independent(a: int, b: int) -> bool:
    """True iff no relation a^i = b^j with (i, j) != (0, 0) holds in Q."""
    fa, fb = factorize(a), factorize(b)
    support = sorted(set(fa.factors) | set(fb.factors))
    va = [fa.factors.get(p, 0) for p in support]
    vb = [fb.factors.get(p, 0) for p in support]
    if not any(va) or not any(vb):
        return False  # a or b equals 1
    k = len(support)
    return any(va[i] * vb[j] != va[j] * vb[i] for i in range(k) for j in range(i + 1, k))


def upper_bound_monitor(a: int, b: int, n_min: int, n_max: int) -> tuple[float, int]:
    """max over n in [n_min, n_max] of log gcd(a^n - 1, b^n - 1) / n.

    Requires multiplicatively independent bases; returns (max ratio, argmax).
    """
    if not multiplicatively_independent(a, b):
        raise HypothesisError(
            f"a = {a}, b = {b} are multiplicatively dependent; the monitor "
            f"requires multiplicatively independent positive integers"
        )
    if n_min < 1 or n_max < n_min:
        raise ValueError("need 1 <= n_min <= n_max")
    best, arg = -1.0, n_min
    va, vb = a**n_min, b**n_min
    for n in range(n_min, n_max + 1):
        ratio = math.log(math.gcd(va - 1, vb - 1)) / n
        if ratio > best:
            best, arg = ratio, n
        va *= a
        vb *= b
    return best, arg
