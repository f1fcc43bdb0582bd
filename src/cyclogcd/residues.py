"""Power-residue hypotheses, the qualifying primes and the lemma scan.

A prime p qualifies for (N, a, b) when p = 1 mod N, p != 1 mod N*l for every
prime l | N, and neither a nor b is an l-th power mod p.  For such p and any
n coprime to N divisible by (p-1)/N, p divides both Phi_N(a^n) and
Phi_N(b^n); `lemma_scan` re-verifies that divisibility numerically rather
than trusting it.  A mixed run takes a to the index M and b to N, the
congruences to L = lcm(M, N), and asks that a^((p-1)/L) have order exactly M
and b^((p-1)/L) order exactly N.  `check_bases` states the hypotheses on
the bases and indices that every integer run rests on.
"""

import functools
import math
from typing import NamedTuple

from .arith import factorize, jacobi, primes_in_range
from .cyclotomic import build_cyclotomic
from .errors import HypothesisError, VerificationError
from .parallel import map_blocks

# The longest wheel of admissible classes qualifying_primes builds, in classes of k
_WHEEL_CAP = 1 << 12
# The most values of k in p = 1 + L*d*k that qualifying_primes sieves at once, so a
# block's memory is bounded and a large step still sieves many k per segment
_SEGMENT = 1 << 21


def _quadratic_field(c: int) -> tuple[int, int]:
    """The squarefree part of c and the discriminant of Q(sqrt c)."""
    core = math.prod(q for q, e in factorize(c).factors.items() if e % 2)
    return core, core if core % 4 == 1 else 4 * core


def check_bases(a: int, b: int, M: int, N: int, d: int = 1) -> None:
    """The hypotheses on the bases of an integer run, with a taken to the
    index M and b to the index N and the filter d | (p-1)/lcm(M, N): d
    squarefree and prime to lcm(M, N), bases at least 2, indices at least 1,
    neither base an l-th power in Q for a prime l | lcm(M, N), no base of
    even index a square mod every prime p = 1 (mod lcm(M, N)*d), and
    gcd(M/D, D) = gcd(N/D, D) = 1 for D = gcd(M, N).

    A base c is such a square when the discriminant of Q(sqrt c) divides
    the modulus: then Q(sqrt c) lies in Q(zeta_modulus), so c is a square
    mod every prime p = 1 (mod modulus) and no prime can qualify.  The last
    gives a prime l | M or l | N the same power there as in lcm(M, N), which
    the order test of `qualifying_primes` rests on.
    """
    modulus = math.lcm(M, N)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if any(e > 1 for e in factorize(d).factors.values()):
        raise HypothesisError(f"d = {d} must be squarefree")
    if math.gcd(d, modulus) != 1:
        raise HypothesisError(f"d = {d} must be coprime to the modulus {modulus}")
    if a < 2 or b < 2:
        raise ValueError(f"bases must be at least 2, got a = {a}, b = {b}")
    if M < 1 or N < 1:
        got = f"N = {N}" if M == N else f"M = {M}, N = {N}"
        raise ValueError(f"indices must be at least 1, got {got}")
    for l in factorize(modulus).primes():
        for name, v in (("a", a), ("b", b)):
            if factorize(v).is_lth_power(l):
                raise HypothesisError(
                    f"{name} = {v} is an l-th power in Q for l = {l}; the bases must "
                    f"not be l-th powers in Q for any prime l dividing the modulus"
                )
    modulus *= d
    for name, c, index in (("a", a, M), ("b", b, N)):
        if index % 2:
            continue
        core, disc = _quadratic_field(c)
        if core != 1 and modulus % disc == 0:
            raise HypothesisError(
                f"{name} = {c} is a square mod every prime p = 1 (mod {modulus}): the "
                f"discriminant {disc} of Q(sqrt {core}) divides {modulus}, so no prime qualifies"
            )
    D = math.gcd(M, N)
    if math.gcd(M // D, D) != 1 or math.gcd(N // D, D) != 1:
        raise HypothesisError(
            f"indices M = {M}, N = {N} need gcd(M/D, D) = gcd(N/D, D) = 1 "
            f"for D = gcd(M, N) = {D}"
        )


@functools.lru_cache(maxsize=64)
def _admissible_wheel(step: int, period: int, tests: tuple[tuple[int, int], ...]) -> bytes:
    """Entry k of the wheel, for k mod period, is set iff the Jacobi symbol
    (core / p) of p = 1 + step*k equals sign for each (squarefree core,
    sign) test; `period` is a period in k of p mod each core's discriminant."""
    return bytes(all(jacobi(core, 1 + step * k) == sign for core, sign in tests) for k in range(period))


def qualifying_primes(lo: int, hi: int, a: int, b: int, M: int, N: int, d: int = 1):
    """Yield (p, w, u_a, u_b) for each prime p in [lo, hi) with p = 1 (mod L),
    p != 1 (mod L*l) for every prime l | L, d | w, and a^w of order exactly
    M and b^w of order exactly N mod p, where L = lcm(M, N), w = (p-1)/L.
    u_c is c^w mod p, or None for a base c whose every test the wheel below
    settles, which takes no power.  This is the one statement of the
    conditions that champion, density and the lemma scan share; check_bases
    states the hypotheses they rest on.

    The orders are tested as: p divides neither base, a is not an l-th
    power mod p for any prime l | M nor b for any prime l | N, and
    c^(w*I) = 1 for each base c whose index I is below L.  Under the index
    hypothesis each prime l | I has the same power in I as in L, so once the
    order of c^w divides I, c^((p-1)/l) != 1 says it does not divide I/l.
    Each base takes its power u_c once and reads these tests off it with
    small exponents: c^((p-1)/l) = u_c^(L/l) and c^(w*I) = u_c^I.

    Only p = 1 + L*d*k is sieved, which covers both congruences, in
    segments of at most _SEGMENT values of k.  The sieve strikes each k
    with l | w = d*k, that is with l / gcd(l, d) | k, for each l, and
    starts from a wheel of the classes of k that pass the quadratic tests:
    each square test (l = 2) of a base c, which asks (c/p) = -1, and each
    order test with L/I = 2, c^((p-1)/2) = 1, which asks (c/p) = +1.  For
    an odd prime p not dividing c, (c/p) is the Jacobi symbol
    (core(c) / p), core(c) the squarefree part of c, and by quadratic
    reciprocity it depends only on p mod the discriminant of Q(sqrt c).  A
    test whose discriminant would stretch the wheel past _WHEEL_CAP classes
    or past the range is read off u_c per prime instead, like every odd l.
    """
    modulus = math.lcm(M, N)
    step = modulus * d
    strike = tuple(l // math.gcd(l, d) for l in factorize(modulus).primes())
    period = 1
    # (base, sign) -> (squarefree core, sign) for each test the wheel decides:
    # sign -1 for a square test, +1 for an order test with L/I = 2
    settled = {}
    # the wheel costs one Jacobi symbol per class and settled test, and p must be odd
    limit = min(_WHEEL_CAP, (hi - lo) // step) if step % 2 == 0 else 0
    bases = ((a, M), (b, N))
    for c, sign in sorted({(c, -1) for c, index in bases if index % 2 == 0}
                          | {(c, 1) for c, index in bases if modulus // index == 2}):
        core, disc = _quadratic_field(c)
        grown = math.lcm(step * period, disc) // step
        if grown <= limit:
            period, settled[c, sign] = grown, (core, sign)
    # the tests the wheel leaves to each base c of index I, read off u = c^w: u^I = 1
    # for I < L (order 0 for none), then u^(L/l) != 1 for each prime l | I, smallest first
    tests = []
    for c, index in bases:
        order = index if index < modulus and (modulus // index != 2 or (c, 1) not in settled) else 0
        powers = tuple(modulus // l for l in factorize(index).primes() if l != 2 or (c, -1) not in settled)
        tests.append((order, powers, bool(order or powers)))
    (a_order, a_powers, a_tested), (b_order, b_powers, b_tested) = tests
    wheel = _admissible_wheel(step, period, tuple(settled.values()))
    top = max(a, b)
    for start in range(lo, hi, _SEGMENT * step):
        for p in primes_in_range(start, min(start + _SEGMENT * step, hi), step, wheel, strike):
            if p <= top and (a % p == 0 or b % p == 0):
                continue
            w = (p - 1) // modulus
            u_a = pow(a, w, p) if a_tested else None
            if a_order and pow(u_a, a_order, p) != 1:
                continue
            for e in a_powers:
                if pow(u_a, e, p) == 1:
                    break
            else:
                u_b = pow(b, w, p) if b_tested else None
                if b_order and pow(u_b, b_order, p) != 1:
                    continue
                for e in b_powers:
                    if pow(u_b, e, p) == 1:
                        break
                else:
                    yield p, w, u_a, u_b


class LemmaScanResult(NamedTuple):
    qualified_primes: int
    cases_checked: int


def _lemma_scan_block(cfg, block) -> tuple[int, int]:
    a, b, modulus, classes, coeffs = cfg
    descending = coeffs[::-1]  # Horner's order; its % p keeps raw coefficients exact
    qualified = checked = 0
    for p, w, u_a, u_b in qualifying_primes(*block, a, b, modulus, modulus):
        qualified += 1
        for base, u in ((a, u_a), (b, u_b)):
            if u is None:  # the wheel settled every test of base, which took no power
                u = pow(base, w, p)
            # u^N = base^(p-1) = 1 by Fermat; each class below rests on it
            if pow(u, modulus, p) != 1:
                raise VerificationError(
                    f"divisibility lemma scan failed at p = {p}, base = {base}: "
                    f"u = {base}^{w} has u^{modulus} != 1 (mod {p})"
                )
            for m, count in classes:
                t = pow(u, m, p)
                acc = 0
                for c in descending:
                    acc = (acc * t + c) % p
                if acc != 0:
                    raise VerificationError(
                        f"divisibility lemma failed at p = {p}, base = {base}, "
                        f"n = {m}*{w} for modulus {modulus}"
                    )
                checked += count
    return qualified, checked


def lemma_scan(modulus: int, a: int, b: int, p_max: int, m_max: int, jobs: int = 1) -> LemmaScanResult:
    """Exhaustively verify the divisibility lemma for every qualified prime
    p <= p_max and every admissible n = m(p-1)/modulus with m <= m_max.

    Each case (p, base, m) is settled exactly but evaluated once per class of
    m mod modulus, after u = base^((p-1)/modulus), the power the
    qualification took, is checked to have u^modulus = 1.  Any counterexample
    raises VerificationError; the result records how much ground was covered;
    a scan of no prime or no m is refused, since it would certify nothing.
    """
    if p_max < 2:
        raise ValueError(f"p_max must be at least 2, got {p_max}")
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    check_bases(a, b, modulus, modulus)
    # (smallest member, member count) of each class mod N of admissible m <= m_max
    firsts = [m for m in range(1, min(modulus, m_max) + 1) if math.gcd(m, modulus) == 1]
    classes = [(m, (m_max - m) // modulus + 1) for m in firsts]
    cfg = (a, b, modulus, classes, build_cyclotomic(modulus))
    qualified = checked = 0
    for q, c in map_blocks(_lemma_scan_block, cfg, 2, p_max + 1, jobs):
        qualified += q
        checked += c
    if qualified == 0:
        raise ValueError(f"no prime p <= p_max = {p_max} qualifies for N = {modulus}, a = {a}, b = {b}: "
                         f"a scan of no prime certifies nothing")
    return LemmaScanResult(qualified, checked)
