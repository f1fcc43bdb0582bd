"""Seeded input generator.

The seed picks each workload's inputs from a fixed family; the program sees
only the resulting CLI arguments.  Families are chosen so that every draw
costs about the same: the indices and the polynomial degrees are fixed and
the seed picks the bases.  For `champion` the pair count, which sets the
cost, swings twofold between bases at a fixed x, so x is the least bound
at which the pair set reaches a fixed size.  Every draw satisfies the
program's hypotheses, and the density draws also satisfy the independence
assumption behind the density formula (see `formula_holds`).
"""

import math
import random
from dataclasses import dataclass

import numpy as np
import sympy

import reference


# Pair-set sizes of the champion runs; over seeds 1-10 they are reached at
# x = 32,900-36,400 (single, delta = 0.9) and x = 7,300-7,800 (mixed, delta = 0.5).
CHAMPION_PAIRS = 600_000
CHAMPION_MIXED_PAIRS = 300_000


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a label for the trace, the arguments, and the
    parameters the reference check needs."""

    label: str
    argv: tuple[str, ...]
    params: dict


def _squarefree_part(c: int) -> int:
    return math.prod(p for p, e in sympy.factorint(c).items() if e % 2)


def _quadratic_discriminant(c: int) -> int:
    # |discriminant| of Q(sqrt(c')) for c' the squarefree part of c > 0
    s = _squarefree_part(c)
    return s if s % 4 == 1 else 4 * s


def is_lth_power(c: int, l: int) -> bool:
    return all(e % l == 0 for e in sympy.factorint(c).values())


def formula_holds(N: int, d: int, a: int, b: int) -> bool:
    """True when no quadratic subfield from a, b or ab lies in the cyclotomic
    field that fixes the congruence conditions on p.

    Those conditions read p mod lcm(N d, N rad N).  For odd l the Kummer
    field Q(zeta_l, c^(1/l)) meets every abelian field only in Q(zeta_l), so
    the only possible entanglement is Q(sqrt(c)) lying inside
    Q(zeta_lcm), i.e. its discriminant dividing that lcm.  Then the
    Legendre symbol (c/p) is fixed by the congruence class of p and the
    density formula is wrong: for 8 | N and c = 2 no prime qualifies, and
    for N = 12, c = 2 the count is about twice the prediction.
    """
    if any(is_lth_power(c, l) for c in (a, b) for l in sympy.primefactors(N)):
        return False
    if N % 2:
        return True
    field = math.lcm(N * d, N * math.prod(sympy.primefactors(N)))
    for c in (a, b, a * b):
        if _squarefree_part(c) != 1 and field % _quadratic_discriminant(c) == 0:
            return False
    return True


def independent(N: int, a: int, b: int) -> bool:
    """True when a, b are multiplicatively independent modulo l-th powers for
    every prime l | N (all exponents 3, so every draw has the same density)."""
    return not any(
        is_lth_power(a ** i * b ** j, l)
        for l in sympy.primefactors(N) for i in range(l) for j in range(l) if (i, j) != (0, 0)
    )


def _draw_bases(rng: random.Random, N: int, d: int, hi: int) -> tuple[int, int]:
    pool = [(a, b) for a in range(2, hi + 1) for b in range(2, hi + 1)
            if a != b and formula_holds(N, d, a, b) and independent(N, a, b)]
    return rng.choice(pool)


def _champion_draw(rng: random.Random, M: int | None, delta: float, target: int,
                   x_hi: int) -> tuple[int, int, int]:
    """Bases (a, b) for N = 2 and the least x <= x_hi whose pair set holds at
    least `target` pairs.  Below x_hi the pair set at x is the set at x_hi
    cut to m, p <= x, provided the kernel K is the same at both bounds.

    A prime's step K/gcd(K, (p-1)/2) is fixed by p mod 2K.  Drawing the bases
    as for the density formula with d = K keeps their quadratic characters
    independent of p mod 4K, so qualification does not favour or shun the
    small steps and every draw scans about as many (m, p) per admitted pair.
    """
    L = 2
    kernel, _ = reference.build_kernel(x_hi, delta, L)
    while True:
        a, b = _draw_bases(rng, 2, kernel, 30)
        m, p, _ = reference.champion_pairs(a, b, 2, x_hi, delta, M)
        if m.size < target:
            continue
        x = int(np.sort(np.maximum(m, p))[target - 1])
        if reference.build_kernel(x, delta, L) == reference.build_kernel(x_hi, delta, L):
            return a, b, x


# Base polynomials as coefficient lists, constant term first.  Over F_2 the
# bases are T and T + 1 in either order: a quadratic base changes the gcd
# degree, and with it the cost, by up to a fifth from one draw to the next.
_F2_PAIRS = (((0, 1), (1, 1)), ((1, 1), (0, 1)))


def _poly(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def make_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one round of `workload`; every round repeats them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "champion":
        a, b, x = _champion_draw(rng, None, 0.9, CHAMPION_PAIRS, 50000)
        delta = 0.5
        ma, mb, mx = _champion_draw(rng, 1, delta, CHAMPION_MIXED_PAIRS, 20000)
        return [
            Op("champion", ("champion", "--a", str(a), "--b", str(b), "--N", "2", "--x", str(x)),
               dict(a=a, b=b, N=2, x=x, delta=0.9, M=None)),
            Op("champion.mixed",
               ("champion", "--a", str(ma), "--b", str(mb), "--M", "1", "--N", "2",
                "--x", str(mx), "--delta", str(delta)),
               dict(a=ma, b=mb, N=2, x=mx, delta=delta, M=1)),
        ]
    if workload == "density":
        a, b = _draw_bases(rng, 6, 1, 30)
        x = 10 ** 7
        la, lb = _draw_bases(rng, 3, 1, 30)
        p_max, m_max = 10 ** 6, 20
        return [
            Op("density", ("density", "--N", "6", "--d", "1", "--a", str(a), "--b", str(b),
                           "--x", str(x)),
               dict(N=6, d=1, a=a, b=b, x=x)),
            Op("verify-lemma", ("verify-lemma", "--N", "3", "--a", str(la), "--b", str(lb),
                                "--p-max", str(p_max), "--m-max", str(m_max)),
               dict(N=3, a=la, b=lb, p_max=p_max, m_max=m_max)),
        ]
    if workload == "ff":
        ext_a, ext_b = rng.choice(_F2_PAIRS)
        c1, c2 = rng.sample(range(7), 2)
        prime_a, prime_b = (c1, 1), (c2, 1)
        ops = []
        for label, q, a_poly, b_poly, deg_max in (
            ("ffield.ext", 2, ext_a, ext_b, 5),
            ("ffield.prime", 7, prime_a, prime_b, 4),
        ):
            ops.append(Op(label, ("ff-verify", "--q", str(q), "--k", "1", "--n0", "1", "--m", "3",
                                  "--a-poly", _poly(a_poly), "--b-poly", _poly(b_poly),
                                  "--deg-max", str(deg_max)),
                          dict(q=q, k=1, n0=1, m=3, a_poly=list(a_poly), b_poly=list(b_poly),
                               deg_max=deg_max)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
