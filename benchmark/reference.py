"""Independent reference computations for the benchmark's checks.

Nothing here imports cyclogcd.  Primes come from a numpy sieve, cyclotomic
polynomials and multiplicative orders from sympy, the logarithmic integral
from mpmath and polynomial arithmetic over F_p from sympy's galoistools.
Each `expected_*` function computes what a correct report must contain;
each `check_*` function compares one parsed report against it and raises
CheckError naming the first field that disagrees.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import sympy
from sympy.ntheory import n_order
from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ


class CheckError(AssertionError):
    """A report disagrees with the independent computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (sieve of Eratosthenes)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return np.flatnonzero(flags).astype(np.int64)


def qualifying(primes: np.ndarray, modulus: int, a: int, b: int,
               ells_a, ells_b, d: int = 1) -> list[int]:
    """Primes p with p = 1 mod modulus*d, p != 1 mod modulus*l for every prime
    l | modulus, p not dividing ab, a not an l-th power mod p for l in ells_a
    and b not an l-th power mod p for l in ells_b."""
    mask = (primes % (modulus * d) == 1) & (a % primes != 0) & (b % primes != 0)
    for l in sympy.primefactors(modulus):
        mask &= primes % (modulus * l) != 1
    out = []
    for p in primes[mask].tolist():
        if any(pow(a, (p - 1) // l, p) == 1 for l in ells_a):
            continue
        if any(pow(b, (p - 1) // l, p) == 1 for l in ells_b):
            continue
        out.append(p)
    return out


def _cyclotomic_mod(index: int, t: int, p: int) -> int:
    acc = 0
    for c in sympy.cyclotomic_poly(index, polys=True).all_coeffs():
        acc = (acc * t + int(c)) % p
    return acc


# ---------------------------------------------------------------- champion

@dataclass(frozen=True)
class ChampionExpected:
    kernel: int
    kernel_omega: int
    pair_count: int
    n: int
    representations: tuple[tuple[int, int], ...]  # (m, p), p ascending
    pigeonhole_floor: int


def build_kernel(x: int, delta: float, L: int) -> tuple[int, int]:
    """K, the product of the primes q <= delta*log(x) not dividing L, and
    their number."""
    bound = delta * math.log(x)
    primes = [q for q in sympy.primerange(2, int(bound) + 2) if q <= bound and L % q != 0]
    return math.prod(primes), len(primes)


def champion_pairs(a: int, b: int, N: int, x: int, delta: float, M: int | None = None):
    """The admissible pairs (m, p) as arrays m, p, n = m(p-1)/L, p ascending.

    Single index (M is None): p <= x qualifies for (N, a, b), m <= x is
    coprime to N and K divides m(p-1)/N.  Mixed index: p qualifies at
    L = lcm(M, N) with the power tests of a at the primes of M and of b at
    the primes of N, and a^n, b^n must have orders exactly M and N mod p,
    with the orders of a^w, b^w taken from sympy.n_order.
    """
    idx_a = N if M is None else M
    L = math.lcm(idx_a, N)
    kernel, _ = build_kernel(x, delta, L)
    ps = qualifying(primes_upto(x), L, a, b, sympy.primefactors(idx_a), sympy.primefactors(N))
    ms = np.arange(1, x + 1, dtype=np.int64)
    coprime = np.gcd(ms, L) == 1
    chunks_m, chunks_p, chunks_n = [], [], []
    for p in ps:
        w = (p - 1) // L
        step = kernel // math.gcd(kernel, w)
        keep = coprime & (ms % step == 0)
        if M is not None:
            ord_a = n_order(pow(a, w, p), p)
            ord_b = n_order(pow(b, w, p), p)
            keep &= (ord_a // np.gcd(ord_a, ms) == idx_a) & (ord_b // np.gcd(ord_b, ms) == N)
        m_ok = ms[keep]
        chunks_m.append(m_ok)
        chunks_p.append(np.full(m_ok.size, p, dtype=np.int64))
        chunks_n.append(m_ok * w)
    empty = np.zeros(0, dtype=np.int64)
    return tuple(np.concatenate(c) if c else empty for c in (chunks_m, chunks_p, chunks_n))


def expected_champion(a: int, b: int, N: int, x: int, delta: float,
                      M: int | None = None) -> ChampionExpected:
    """Rebuild the pair set as an n-histogram and take its argmax, ties to the
    smallest n."""
    L = math.lcm(N if M is None else M, N)
    kernel, omega = build_kernel(x, delta, L)
    all_m, all_p, all_n = champion_pairs(a, b, N, x, delta, M)
    _require(all_n.size > 0, "reference: the admissible pair set is empty")
    values, counts = np.unique(all_n, return_counts=True)
    champ = int(values[int(np.argmax(counts))])  # argmax takes the first maximum
    hit = all_n == champ
    reps = sorted(zip(all_m[hit].tolist(), all_p[hit].tolist()), key=lambda mp: mp[1])
    return ChampionExpected(
        kernel=kernel,
        kernel_omega=omega,
        pair_count=int(all_n.size),
        n=champ,
        representations=tuple(reps),
        pigeonhole_floor=-(-int(all_n.size) // (x * x // kernel)),
    )


def check_champion(report: dict, exp: ChampionExpected, a: int, b: int, N: int,
                   M: int | None = None) -> None:
    """Compare a champion report with the reference and re-certify every
    representation by evaluating the cyclotomic values mod p."""
    idx_a = N if M is None else M
    L = math.lcm(idx_a, N)
    for key in ("kernel", "kernel_omega", "pair_count", "n", "pigeonhole_floor"):
        _require(report[key] == getattr(exp, key),
                 f"champion {key}: report {report[key]} != reference {getattr(exp, key)}")
    reps = tuple(tuple(mp) for mp in report["representations"])
    _require(report["representation_count"] == len(exp.representations),
             f"champion representation_count: report {report['representation_count']} "
             f"!= reference {len(exp.representations)}")
    _require(reps == exp.representations, "champion representations differ from the reference")
    _require(report["distinct_primes"] == [p for _, p in reps],
             "champion distinct_primes do not list the representations' primes")
    _require(len(reps) >= exp.pigeonhole_floor, "champion multiplicity below the pigeonhole floor")
    log_bound = math.fsum(math.log(p) for _, p in reps)
    _require(math.isclose(report["log_gcd_lower_bound"], log_bound, rel_tol=1e-12),
             "champion log_gcd_lower_bound is not the sum of log p")
    n = report["n"]
    for m, p in reps:
        _require(m * (p - 1) == n * L, f"champion pair ({m}, {p}): m(p-1)/L != n")
        _require(_cyclotomic_mod(idx_a, pow(a, n, p), p) == 0,
                 f"champion: {p} does not divide Phi_{idx_a}({a}^{n})")
        _require(_cyclotomic_mod(N, pow(b, n, p), p) == 0,
                 f"champion: {p} does not divide Phi_{N}({b}^{n})")
    _require(report["verified"] is True, "champion report is not marked verified")


# ----------------------------------------------------------------- density

def count_qualifying(limit: int, N: int, a: int, b: int, d: int = 1) -> int:
    ells = sympy.primefactors(N)
    return len(qualifying(primes_upto(limit), N, a, b, ells, ells, d))


def predicted_ratio(N: int, d: int, a: int, b: int) -> tuple[Fraction, list[list[int]]]:
    """The density formula: prod (l-1)^e / l^e over primes l | N, divided by
    phi(N d), with e = 2 when a, b are dependent modulo l-th powers, else 3."""
    ratio = Fraction(1)
    exponents = []
    for l in sympy.primefactors(N):
        # dependent: some a^i b^j with (i, j) != (0, 0) mod l is an l-th power in Q
        dependent = any(
            all(e % l == 0 for e in sympy.factorint(a ** i * b ** j).values())
            for i in range(l) for j in range(l) if (i, j) != (0, 0)
        )
        e = 2 if dependent else 3
        exponents.append([l, e])
        ratio *= Fraction((l - 1) ** e, l ** e)
    return ratio / int(sympy.totient(N * d)), exponents


@dataclass(frozen=True)
class DensityExpected:
    count: int
    ratio: Fraction
    exponents: list
    li: float  # li(x) - li(2) from mpmath
    primes_examined: int


def expected_density(N: int, d: int, a: int, b: int, x: int) -> DensityExpected:
    primes = primes_upto(x)
    ells = sympy.primefactors(N)
    count = len(qualifying(primes, N, a, b, ells, ells, d))
    ratio, exponents = predicted_ratio(N, d, a, b)
    li = float(mpmath.li(x) - mpmath.li(2))
    return DensityExpected(count, ratio, exponents, li, int(primes.size))


def check_density(report: dict, exp: DensityExpected) -> None:
    _require(report["count"] == exp.count,
             f"density count: report {report['count']} != reference {exp.count}")
    ratio = Fraction(report["ratio"])
    _require(ratio == exp.ratio, f"density ratio: report {ratio} != formula {exp.ratio}")
    _require(report["exponents"] == exp.exponents,
             f"density exponents: report {report['exponents']} != reference {exp.exponents}")
    expected = float(exp.ratio) * exp.li
    _require(math.isclose(report["expected"], expected, rel_tol=1e-6),
             f"density expected: report {report['expected']} != ratio * li = {expected}")
    tolerance = max(0.15, 3.0 / math.sqrt(exp.count)) if exp.count else math.inf
    rel = abs(exp.count / expected - 1.0)
    _require(rel <= tolerance,
             f"density: relative error {rel:.4f} against mpmath li exceeds {tolerance:.4f}")
    _require(math.isclose(report["relative_error"], rel, rel_tol=1e-4, abs_tol=1e-6),
             f"density relative_error: report {report['relative_error']} != {rel}")


@dataclass(frozen=True)
class LemmaExpected:
    qualified_primes: int
    cases_checked: int
    primes_examined: int


def expected_lemma(N: int, a: int, b: int, p_max: int, m_max: int) -> LemmaExpected:
    primes = primes_upto(p_max)
    ells = sympy.primefactors(N)
    qualified = len(qualifying(primes, N, a, b, ells, ells))
    per_base = sum(1 for m in range(1, m_max + 1) if math.gcd(m, N) == 1)
    return LemmaExpected(qualified, qualified * 2 * per_base, int(primes.size))


def check_lemma(report: dict, exp: LemmaExpected) -> None:
    for key in ("qualified_primes", "cases_checked"):
        _require(report[key] == getattr(exp, key),
                 f"verify-lemma {key}: report {report[key]} != reference {getattr(exp, key)}")
    _require(report["failures"] == 0 and report["all_verified"] is True,
             "verify-lemma reports failures")


# ------------------------------------------------------------------ ff

def choose_params(q: int, k: int, n0: int, m: int) -> tuple[int, int, int]:
    """(r, t, Q): the least r coprime to m with r m n0 = -1 mod q^k, then the
    least t >= k with q^t = 1 mod m r."""
    qk = q ** k
    r = next(c for c in range(1, qk * m + 2) if math.gcd(c, m) == 1 and (c * m * n0 + 1) % qk == 0)
    t = k
    while pow(q, t, m * r) != 1 % (m * r):
        t += 1
    return r, t, q ** t


def _gf(coeffs_low_first: list[int], p: int) -> list:
    return gt.gf_strip([ZZ(c % p) for c in reversed(coeffs_low_first)])


@dataclass(frozen=True)
class FFEntry:
    N: int
    n: int
    total_irreducible: int
    deg_gcd: int
    pi_count: int
    predicted: float
    predicted_alt: float


@dataclass(frozen=True)
class FFExpected:
    r: int
    t: int
    Q: int
    per_N: tuple[FFEntry, ...]

    @property
    def candidates(self) -> int:
        return sum(self.Q ** e.N for e in self.per_N)


def expected_ff(q: int, k: int, n0: int, m: int, a_poly: list[int], b_poly: list[int],
                deg_max: int) -> FFExpected:
    """Exact gcd degrees over F_q (q prime) and the number of degree-N monic
    irreducible factors over F_Q of that gcd, by Moebius inversion of
    deg gcd(g, T^(Q^d) - T)."""
    _require(sympy.isprime(q), "reference: the ff check handles prime q only")
    r, t, Q = choose_params(q, k, n0, m)
    phi = [ZZ(int(c) % q) for c in sympy.cyclotomic_poly(m, polys=True).all_coeffs()]
    a, b = _gf(a_poly, q), _gf(b_poly, q)
    T = [ZZ(1), ZZ(0)]
    entries = []
    dens = Fraction(1, r * r)
    dens_alt = Fraction(1, r * r)
    for l, e in sympy.factorint(m).items():
        dens *= Fraction(l - 1, l) ** 2
        dens_alt *= Fraction(l - 1, l) ** e
    for N in range(1, deg_max + 1):
        n = (Q ** N - 1) // (m * r)
        g = gt.gf_gcd(gt.gf_compose(phi, gt.gf_pow(a, n, q, ZZ), q, ZZ),
                      gt.gf_compose(phi, gt.gf_pow(b, n, q, ZZ), q, ZZ), q, ZZ)
        weighted = 0
        for dd in sympy.divisors(N):
            mu = sympy.mobius(N // dd)
            if mu:
                frob = gt.gf_sub(gt.gf_pow_mod(T, Q ** dd, g, q, ZZ), gt.gf_rem(T, g, q, ZZ), q, ZZ)
                weighted += mu * gt.gf_degree(gt.gf_gcd(g, frob, q, ZZ))
        total = sum(sympy.mobius(N // dd) * Q ** dd for dd in sympy.divisors(N))
        scale = Fraction(Q ** N, N)
        entries.append(FFEntry(N, n, total // N, gt.gf_degree(g), weighted // N,
                               float(dens * scale), float(dens_alt * scale)))
    return FFExpected(r, t, Q, tuple(entries))


def check_ff(report: dict, exp: FFExpected, q: int, k: int, n0: int) -> None:
    for key in ("r", "t", "Q"):
        _require(report[key] == getattr(exp, key),
                 f"ff {key}: report {report[key]} != reference {getattr(exp, key)}")
    _require(len(report["per_N"]) == len(exp.per_N), "ff: wrong number of degrees")
    for got, want in zip(report["per_N"], exp.per_N):
        where = f"ff N={want.N}"
        for key in ("N", "n", "total_irreducible", "deg_gcd", "pi_count"):
            _require(got[key] == getattr(want, key),
                     f"{where} {key}: report {got[key]} != reference {getattr(want, key)}")
        _require(got["n"] % q ** k == n0 % q ** k, f"{where}: n left the class n0 mod q^k")
        _require(got["certified_bound"] == want.N * want.pi_count,
                 f"{where}: certified_bound != N * pi_count")
        _require(got["deg_gcd"] >= got["certified_bound"], f"{where}: deg_gcd below the bound")
        _require(math.isclose(got["ratio_to_n"], want.deg_gcd / want.n, rel_tol=1e-12),
                 f"{where}: ratio_to_n != deg_gcd / n")
        for key in ("predicted", "predicted_alt"):
            _require(math.isclose(got[key], getattr(want, key), rel_tol=1e-9),
                     f"{where} {key}: report {got[key]} != formula {getattr(want, key)}")
        _require(got["verified"] is True, f"{where}: not marked verified")
