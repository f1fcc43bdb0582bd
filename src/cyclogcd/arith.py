"""Exact integer primitives shared by every other module.

Sieving, deterministic primality, factorization (trial division then Pollard
rho), the Jacobi symbol, the classical multiplicative functions and the
offset logarithmic integral.  Everything here is pure and deterministic, so
the functions are safe to call from any number of workers.
"""

import functools
import math
import re
from typing import NamedTuple

from .errors import VerificationError

# Deterministic Miller-Rabin witnesses: exact for every n below
# _MR_EXACT_LIMIT, the least strong pseudoprime to all thirteen bases
# (without 41 the bound is 318,665,857,834,031,151,167,461).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_LIMIT = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Pollard rho steps, over all c, before a factorization is refused (1-2 s):
# a prime factor p takes a small multiple of sqrt(p) steps, so factors up to
# ~10^12 are found
_RHO_STEPS = 1 << 22
# Pollard rho steps whose differences share one gcd
_RHO_BATCH = 128

# a set flag of _sieve; the scan for them runs in C and makes no int for a struck k
_SET_FLAG = re.compile(b"\x01")
# _sieve clears a class of k in runs of at most _RUN flags, each from a cut of this one zero
# buffer as long as the run, so no temporary grows with the range
_RUN = 1 << 14
_ZEROS = bytes(_RUN)


def _sieve(lo: int, hi: int, step: int = 1, wheel: bytes = b"\x01",
           strike: tuple[int, ...] = ()) -> list[int]:
    """Primes p = 1 (mod step) in [lo, hi) for lo >= 2 whose k in
    p = 1 + step*k has wheel[k % len(wheel)] set and no m in strike
    dividing k, ascending.

    A flag stands for k and starts as its wheel entry; the wheel and the
    classes m | k are aligned on k itself, so the blocks of a split range
    agree.  A sieving prime q up to sqrt(hi - 1), from the same sieve one
    level down, divides no such p when q | step; otherwise q | p exactly
    when k = -step^-1 (mod q), and those k are struck from the first
    p >= q^2, so q itself survives; each m | k is struck throughout.
    """
    k_lo, k_hi = -(-(lo - 1) // step), -(-(hi - 1) // step)
    if k_hi <= k_lo:
        return []
    period, count = len(wheel), k_hi - k_lo
    shift = k_lo % period
    # one allocation of the flags: the wheel turned to start at k_lo, repeated, and the tail cut
    flags = bytearray(wheel[shift:] + wheel[:shift]) * -(-count // period)
    del flags[count:]

    def clear(stride, start):
        for i in range(start, count, stride * _RUN):
            flags[i:i + stride * _RUN:stride] = _ZEROS[:len(range(i, count, stride))]
    for m in strike:
        clear(m, -k_lo % m)
    for q in _sieve(2, math.isqrt(hi - 1) + 1):
        if step % q:
            k_first = max(k_lo, -(-(q * q - 1) // step))
            clear(q, k_first - k_lo + (-pow(step, -1, q) - k_first) % q)
    first = 1 + step * k_lo
    return [first + step * m.start() for m in _SET_FLAG.finditer(flags)]


def primes_in_range(lo: int, hi: int, step: int = 1, wheel: bytes = b"\x01",
                    strike: tuple[int, ...] = ()) -> list[int]:
    """Primes p = 1 (mod step) in [lo, hi) by segmented sieve, kept only
    where wheel[k % len(wheel)] is set and no m in strike divides k, for
    p = 1 + step*k; workers use this on their block."""
    if step < 1:
        raise ValueError(f"step must be positive, got {step}")
    if not wheel or wheel.strip(b"\x00\x01"):
        raise ValueError("the wheel must have at least one entry, each 0 or 1")
    if any(m < 1 for m in strike):
        raise ValueError(f"every modulus struck must be positive, got {strike}")
    return _sieve(max(lo, 2), hi, step, wheel, strike)


# factorize trial-divides by these; Pollard rho splits what is left
_TRIAL_PRIMES = tuple(primes_in_range(2, 1 << 12))


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n >= 1: 0 when gcd(a, n) > 1, else
    +-1, and the Legendre symbol when n is prime."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"the Jacobi symbol needs an odd positive n, got {n}")
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        # reciprocity: (a/n) = -(n/a) exactly when a = n = 3 (mod 4)
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.317e24.

    A failed witness proves n composite at any size; a larger n that passes
    every witness is refused with ValueError rather than called prime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_LIMIT:
        raise ValueError(
            f"{n} passes every Miller-Rabin witness, which proves primality only below {_MR_EXACT_LIMIT}"
        )
    return True


class _Factorization(NamedTuple):
    value: int
    factors: dict[int, int]


class FactoredInt(_Factorization):
    """A positive integer together with its full prime factorization,
    checked when it is constructed."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        prod = 1
        for p, e in self.factors.items():
            if e < 1 or not is_prime(p):
                raise ValueError(f"bad factor entry {p}^{e}")
            prod *= p**e
        if prod != self.value or self.value < 1:
            raise ValueError(f"factorization does not multiply back to {self.value}")
        return self

    def primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.factors))

    def divisors(self) -> list[int]:
        """All positive divisors, ascending."""
        divs = [1]
        for p, e in sorted(self.factors.items()):
            divs = [d * p**i for d in divs for i in range(e + 1)]
        return sorted(divs)

    def is_lth_power(self, l: int) -> bool:
        """True iff value is an l-th power in Q (all exponents divisible by l)."""
        return all(e % l == 0 for e in self.factors.values())


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n: Pollard rho with Brent's cycle
    finding (Brent, BIT 20, 1980), whose differences are multiplied together
    so that one gcd serves _RHO_BATCH steps.

    Every step of every c counts against _RHO_STEPS.  The parameter sequence
    is fixed, so results are deterministic.
    """
    steps = _RHO_STEPS

    def spend(count):
        nonlocal steps
        if count > steps:
            raise ValueError(f"cannot factor {n}: Pollard rho found no factor in {_RHO_STEPS} steps")
        steps -= count

    for c in range(1, 100):
        y, r, g = 2, 1, 1
        while g == 1:
            # x stays at the start of the round while y walks 2r steps, the last r compared to it
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, _RHO_BATCH):
                ys, batch, q = y, min(_RHO_BATCH, r - k), 1
                spend(batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:  # the batch met every factor at once: step it again, one gcd per step
            g = 1
            while g == 1:
                spend(1)
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise VerificationError(f"rho failed on {n}")  # every c met g = n within the budget


@functools.lru_cache(maxsize=128)
def factorize(n: int) -> FactoredInt:
    """Full prime factorization of n >= 1 (n = 1 gives the empty map): trial
    division by the primes below 2^12 while p^2 <= n, then Pollard rho
    (refused with ValueError past _RHO_STEPS).  The last 128 results are
    kept and shared by every caller, which must not change them."""
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    value = n
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return FactoredInt(value, factors)


def moebius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    fac = factorize(n)
    if any(e > 1 for e in fac.factors.values()):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler's totient."""
    fac = factorize(n)
    result = 1
    for p, e in fac.factors.items():
        result *= (p - 1) * p ** (e - 1)
    return result


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, eps, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(f, a, m, fa, flm, fm, left, eps / 2.0, depth - 1) + _adaptive_simpson(
        f, m, b, fm, frm, fb, right, eps / 2.0, depth - 1
    )


def li(x) -> float:
    """Offset logarithmic integral: the integral of dt/log t from 2 to x.

    Adaptive Simpson with relative target 1e-7 and absolute floor 1e-9; the
    integrand is smooth on [2, x] (the singularity at t = 1 is outside).
    """
    x = float(x)
    if x < 2.0:
        raise ValueError("li is defined for x >= 2")
    if x == 2.0:
        return 0.0

    def f(t):
        return 1.0 / math.log(t)

    a, b = 2.0, x
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    eps = max(1e-7 * abs(whole), 1e-9)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, eps, 60)
