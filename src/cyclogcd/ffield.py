"""The field tower and the linear degree-growth construction over F_q[T].

The fields (`fields.FieldContext`) form one tower F_p ⊂ F_q ⊂ F_Q ⊂ F_{Q^N}:
each level is `extension(base, N)` = base[y]/(mu), with mu the first monic
irreducible of degree N by index in which y is primitive (see
`_primitive_modulus`), so every run and every implementation of this
convention agrees on element encodings, and each subfield is the set of
elements below its size.  The search skips, before any powmod, each mu
whose norm (-1)^N mu(0) is not primitive in F_Q, each mu in F_Q[T^d] for
some d > 1, and for N >= 2 each mu with a root in F_Q.  All three are
necessary conditions for T to be primitive modulo mu, so they never skip
the modulus the unfiltered search would find.

The construction machinery picks (r, t, Q) from (q, k, n_0, m) so that
n = (Q^N - 1)/(mr) is forced into the congruence class n_0 mod q^k, scans
the monic irreducible pi of degree N over F_Q as the Frobenius orbits of
F_{Q^N}, one coset leader L each, qualifies pi when a^n and b^n both have
order exactly m modulo pi (read off the logarithms at its root y^L), and
certifies deg gcd(Phi_m(a^n), Phi_m(b^n)) >= N * (their number) by exact
polynomial arithmetic over F_q (`fqpoly`), with one division by their
product.  That product lies in F_q[T]: it is taken there, as the product of
the minimal polynomials over F_q of the orbits of z -> z^q on their roots.
The Moebius formula checks the scan's orbit count; the tests rebuild the
qualifying set over F_Q by exact divisibility alone, as an independent
oracle (`tests/ffield_oracle.py`).
"""

import itertools
import math
from array import array
from functools import cached_property, lru_cache
from typing import NamedTuple

from .arith import factorize, moebius
from .cyclotomic import eval_poly_fq
from .errors import HypothesisError, VerificationError
from .fields import FieldContext
from .fqpoly import FqPolynomial, _powmod, poly_gcd, poly_pow

_FIELD_CAP = 2**20  # the largest field whose exp/log/Zech tables are built


@lru_cache(maxsize=None)
def fq_context(p: int, e: int) -> FieldContext:
    """The canonical F_{p^e}: the prime field, or its degree-e extension."""
    if e < 1:
        raise ValueError("extension degree must be at least 1")
    return FieldContext(p) if e == 1 else extension(fq_context(p, 1), e)


def check_table_cap(s: int, degree: int) -> None:
    """Refuse a field of s^degree elements above _FIELD_CAP."""
    if s**degree > _FIELD_CAP:
        raise ValueError(f"a field of {s}^{degree} elements exceeds the table cap {_FIELD_CAP}")


@lru_cache(maxsize=None)
def extension(base: FieldContext, degree: int) -> FieldContext:
    """base[y]/(mu) for the first monic mu of the given degree by index in
    which y has order |base|^degree - 1, which makes mu irreducible and y
    primitive (see _primitive_modulus; cached); refused above _FIELD_CAP
    elements."""
    check_table_cap(base.q, degree)
    return FieldContext(base, _primitive_modulus(base, degree))


def irreducible_count(q: int, n: int) -> int:
    """Number of monic irreducible polynomials of degree n over F_q."""
    total = sum(moebius(d) * q ** (n // d) for d in factorize(n).divisors())
    if total % n:
        raise VerificationError(f"irreducible count {total}/{n} over F_{q} is not an integer")
    return total // n


def is_lth_power_poly(f: FqPolynomial, l: int) -> bool:
    """True iff monic f equals g**l for some g in the same polynomial ring.

    Solves for the monic candidate root g of degree d from the top
    coefficient down: the coefficient of T^((l-1)d + j) in g**l is l*g_j
    plus terms in the higher coefficients of g, and l is invertible in the
    field.  Then checks g**l == f exactly.
    """
    ctx = f.ctx
    if not f.is_monic:
        raise ValueError("the l-th power test expects a monic polynomial")
    if l % ctx.p == 0:
        raise ValueError("l must be invertible in the coefficient field")
    if f.degree % l != 0:
        return False
    d = f.degree // l
    g = [0] * d + [1]
    l_inv = ctx.inv(l % ctx.p)
    for j in range(d - 1, -1, -1):
        # g_j, ..., g_0 are still 0 here, so this is the higher terms' part
        have = poly_pow(FqPolynomial(ctx, tuple(g)), l).coeffs[(l - 1) * d + j]
        g[j] = ctx.mul(ctx.sub(f.coeffs[(l - 1) * d + j], have), l_inv)
    return poly_pow(FqPolynomial(ctx, tuple(g)), l) == f


def choose_params(q: int, k: int, n0: int, m: int) -> tuple[int, int, int]:
    """Pick (r, t, Q): r minimal with gcd(r, m) = 1 and r*m*n0 = -1 mod q^k;
    t minimal with t >= k and q^t = 1 mod mr; Q = q^t, refused above
    _FIELD_CAP, the largest field any scan can build."""
    if k < 1 or m < 1:
        raise ValueError(f"k and m must be at least 1, got k = {k}, m = {m}")
    if math.gcd(n0, q) != 1:
        raise HypothesisError(
            f"n_0 = {n0} shares a factor with q = {q}; only congruence classes "
            f"prime to q are handled"
        )
    if math.gcd(m, q) != 1:
        raise HypothesisError(f"m = {m} must be prime to q = {q}")
    qk = q**k
    # r = -(m n_0)^-1 mod q^k; the class holds an r prime to m within m steps,
    # as q^k is prime to m
    r = -pow(m * n0, -1, qk) % qk
    while math.gcd(r, m) != 1:
        r += qk
    mr = m * r
    t = k
    while q**t <= _FIELD_CAP and pow(q, t, mr) != 1 % mr:
        t += 1
    if q**t > _FIELD_CAP:
        raise ValueError(f"no Q = {q}^t up to the table cap {_FIELD_CAP} has t >= {k} and "
                         f"Q = 1 mod mr = {mr}")
    return r, t, q**t


class FFConstruction(NamedTuple):
    """Parameter bundle (q, k, n_0, m) -> (r, t, Q) with the field tower."""

    base: FieldContext
    big: FieldContext
    k: int
    n0: int
    m: int
    r: int
    t: int
    Q: int

    def n_for(self, N: int) -> int:
        """n = (Q^N - 1)/(mr); lands in the class n_0 mod q^k by construction."""
        total = self.Q**N - 1
        if total % (self.m * self.r) != 0:
            raise VerificationError(f"mr does not divide Q^{N} - 1")
        n = total // (self.m * self.r)
        qk = self.base.q**self.k
        if n % qk != self.n0 % qk:
            raise VerificationError(f"n = {n} escaped the class {self.n0} mod {qk}")
        return n

    def lift(self, f: FqPolynomial) -> FqPolynomial:
        """Reinterpret a base-field polynomial over the big field, whose
        elements below q are the base field."""
        if f.ctx is not self.base:
            raise ValueError("polynomial is not over the base field")
        return FqPolynomial(self.big, f.coeffs)


def ff_construction(base: FieldContext, k: int, n0: int, m: int) -> FFConstruction:
    r, t, Q = choose_params(base.q, k, n0, m)
    big = extension(base, t) if t > 1 else base
    if not (big.q == Q and math.gcd(r, m) == 1 and (r * m * n0 + 1) % base.q**k == 0
            and (Q - 1) % (m * r) == 0 and t >= k):
        raise VerificationError(f"construction invariants fail for r = {r}, t = {t}, Q = {Q}")
    return FFConstruction(base, big, k, n0, m, r, t, Q)


def _monic_by_index(q: int, degree: int):
    """The coefficient tuples, constant first, of the monic polynomials of
    the given degree over F_q in index order: index i holds the low
    coefficients as the base-q digits of i, constant digit first."""
    return (low[::-1] + (1,) for low in itertools.product(range(q), repeat=degree))


def coset_leaders(ext: FieldContext):
    """The least exponent L of each cyclotomic coset L Q^i mod (Q^N - 1) of
    size exactly N, ascending, for F_{Q^N} = ext over F_Q.

    The monic irreducibles of degree N over F_Q are the minimal polynomials
    of the orbits of z -> z^Q on the elements of degree exactly N, one orbit
    each (Lidl & Niederreiter, *Finite Fields*, ch. 3).  The orbit of y^L is
    y to the powers of the coset of L, so each such pi but T has exactly one
    leader, and the walk needs the exponents alone.
    """
    Q, N, order = ext.base.q, ext.degree, ext.order
    seen = bytearray(order)
    L = seen.find(0)
    while L >= 0:
        seen[L] = size = 1
        j = L * Q % order
        while j != L:
            seen[j] = 1
            size += 1
            j = j * Q % order
        if size == N:
            yield L
        L = seen.find(0, L)


def conjugates(ext: FieldContext, z: int, s: int) -> tuple[int, ...]:
    """z, z^s, z^(s^2), ... up to the first repeat: the conjugates of z over
    the subfield F_s of ext (read off its logarithm), and (0,) for z = 0."""
    if not z:
        return (0,)
    L = j = ext.log[z]
    orbit = []
    while True:
        orbit.append(ext.exp[j])
        j = j * s % ext.order
        if j == L:
            return tuple(orbit)


def min_poly(ext: FieldContext, orbit: tuple[int, ...], s: int) -> tuple[int, ...]:
    """The coefficients of prod (X - z) over an orbit of z -> z^s in ext,
    refused outside the subfield F_s; summed as logarithms (None for 0)."""
    zech, order = ext.zech, ext.order
    logs = [0]  # the monic 1
    for z in orbit:
        shifted = [None] + logs  # X * logs - z * logs
        if z:
            lw = (ext.log[z] + ext.half) % order  # -z = y^half z
            for j, c in enumerate(logs):
                if c is not None:
                    b, a = (c + lw) % order, shifted[j]
                    if a is None:
                        shifted[j] = b
                    else:
                        k = zech[b - a]  # y^a + y^b = y^a (1 + y^(b - a))
                        shifted[j] = (a + k) % order if k >= 0 else None
        logs = shifted
    coeffs = [0 if c is None else ext.exp[c] for c in logs]
    if any(c >= s for c in coeffs):
        raise VerificationError(f"the orbit of {orbit[0]} in F_{{{ext.base.q}^{ext.degree}}} has a "
                                f"coefficient outside F_{s}")
    return tuple(coeffs)


def _log_terms(ext: FieldContext, coeffs) -> list[tuple[int, int]]:
    """(log c_i, i) for the nonzero coefficients c_i of f over a subfield."""
    return [(ext.log[c], i) for i, c in enumerate(coeffs) if c]


def _log_at(ext: FieldContext, terms: list[tuple[int, int]], L: int) -> int | None:
    """log f(y^L) for f given by _log_terms, None where f(y^L) = 0: the
    terms are y^(log c_i + L i), summed by Zech logarithms."""
    zech, order = ext.zech, ext.order
    acc = None
    for lc, i in terms:
        t = (lc + L * i) % order
        if acc is None:
            acc = t
        else:
            z = zech[t - acc]  # y^acc + y^t = y^acc (1 + y^(t - acc))
            acc = (acc + z) % order if z >= 0 else None
    return acc


class _FFScanFields(NamedTuple):
    constr: FFConstruction
    N: int
    a: FqPolynomial
    b: FqPolynomial
    n: int
    predicted: float
    predicted_alt: float
    total_irreducible: int
    roots: array  # one root in F_{Q^N} of each qualifying pi: y^L, or 0 for pi = T


class FFScanResult(_FFScanFields):
    """The qualifying pi of degree N and what they were computed from:
    ff_direct_verify certifies from the roots alone, over F_q, and the tests'
    exact-divisibility oracle reads the rest here.  A copy made by `_replace`
    computes its own `qualifying` and `count`."""

    @property
    def count(self) -> int:
        return len(self.roots)

    @cached_property
    def qualifying(self) -> tuple[tuple[int, ...], ...]:
        """The coefficient tuples over F_Q of the qualifying pi, sorted: the
        minimal polynomials of the roots, computed on first read.  Only
        ff_direct_verify reads them, when it names the pi that fails, and
        the tests' exact-divisibility oracle."""
        ext, Q = extension(self.constr.big, self.N), self.constr.Q
        return tuple(sorted(min_poly(ext, conjugates(ext, z, Q), Q) for z in self.roots))


def _t_is_primitive(base: FieldContext, mu: tuple[int, ...]) -> bool:
    """True iff T has order Q^N - 1 modulo the monic mu of degree N over F_Q.

    (F_Q[T]/mu)^* has Q^N - 1 elements when mu is irreducible and fewer
    otherwise, so T has that order exactly when mu is irreducible and T is
    primitive in the field F_Q[T]/(mu) (Lidl & Niederreiter, Thm 3.16): no
    irreducibility test is needed.  T is a unit iff mu(0) != 0, and then
    T^(Q^N - 1) = 1 iff T^(Q^N) = T, a power that takes only squarings
    when Q is a power of 2.
    """
    if not mu[0]:
        return False
    N = len(mu) - 1
    order = base.q**N - 1
    neg_low = [base.sub(0, c) for c in mu[:-1]]
    t = [0, 1] + [0] * (N - 2) if N > 1 else neg_low  # T mod mu
    one = [1] + [0] * (N - 1)
    return _powmod(base, t, order + 1, neg_low) == t and all(
        _powmod(base, t, order // l, neg_low) != one for l in factorize(order).primes())


def _primitive_modulus(base: FieldContext, N: int) -> tuple[int, ...]:
    """The first monic mu of degree N by index in which T has order Q^N - 1:
    the first monic irreducible in which T is primitive (see _t_is_primitive).

    Three necessary conditions reject most mu before any powmod, so none
    can change the modulus found.  The norm of T, T^((Q^N-1)/(Q-1)) =
    (-1)^N mu(0), is primitive in F_Q if T is primitive modulo mu, since the
    norm maps F_{Q^N}^* onto F_Q^* (Lidl & Niederreiter, *Finite Fields*,
    ch. 2-3); for N = 1 that is the whole test.  With mu = mu_0 + h, an h
    whose terms all lie at multiples of some d > 1 (then d | N) puts every
    mu_0 + h in F_Q[T^d]: T^d is a root of a polynomial of degree N/d, so T
    has order at most d (Q^(N/d) - 1) < Q^N - 1, and the h is skipped whole
    (over F_{1021^2} the h = T^2 alone cost 256 failed powmods).  An
    irreducible mu of degree N >= 2 has no root in F_Q: the mu_0 = -h(x),
    x in F_Q^*, are out.  That root test takes Q - 1 evaluations of h for
    all the mu_0 of one h, so it runs for every N >= 2: measured over every
    field below the table cap, it never cost more than a few ms or 1.8x the
    search without it, and over F_{2^k}, where each T^2 + mu_0 has a root,
    it saves most of the search (F_{1024^2}: 62 ms without it, 7 ms with
    it).
    """
    Q = base.q
    if base.zech is None:
        ls = factorize(Q - 1).primes()

        def primitive(c: int) -> bool:
            return all(pow(c, (Q - 1) // l, Q) != 1 for l in ls)
    else:
        def primitive(c: int) -> bool:
            return math.gcd(base.log[c], Q - 1) == 1
    sign = base.sub(0, 1) if N % 2 else 1
    lows = (c for c in range(1, Q) if primitive(base.mul(sign, c)))  # mu_0 passing the norm test
    if N == 1:
        return next(lows), 1
    lows = list(lows)
    for g in _monic_by_index(Q, N - 1):  # in index order of mu
        h = (0,) + g  # mu - mu_0
        if math.gcd(*(i for i, c in enumerate(h) if c)) > 1:  # mu in F_Q[T^d]
            continue
        roots = {base.sub(0, base.eval(h, x)) for x in range(1, Q)}
        for c in lows:
            mu = (c,) + h[1:]
            if c not in roots and _t_is_primitive(base, mu):
                return mu
    raise VerificationError(f"no monic polynomial of degree {N} over F_{Q} has T primitive")


def check_ff_bases(constr: FFConstruction, a: FqPolynomial, b: FqPolynomial) -> None:
    """Hypothesis gate for the base polynomials a, b entering Phi_m."""
    for name, f in (("a", a), ("b", b)):
        if f.ctx is not constr.base:
            raise ValueError(f"{name} is not over the base field")
        if f.degree < 1 or not f.is_monic:
            raise HypothesisError(f"{name} must be a nonconstant monic polynomial")
        for l in factorize(constr.m).primes():
            if is_lth_power_poly(f, l):
                raise HypothesisError(
                    f"{name} = {f} is an l-th power in the polynomial ring for l = {l}; the "
                    f"bases must not be l-th powers for any prime l dividing the index {constr.m}"
                )


def ff_scan(constr: FFConstruction, N: int, a: FqPolynomial, b: FqPolynomial) -> FFScanResult:
    """Count the monic irreducible pi of degree N over F_Q at which a^n and
    b^n both have order exactly m; report the density predictions next to
    it.  The bases pass the gate check_ff_bases here, once for every
    certificate of the scan.

    Each pi but T is the minimal polynomial of the orbit of y^L for one
    coset leader L (see coset_leaders), and F_Q[T]/(pi) = F_Q(y^L): a base
    f with f(y^L) = y^lg (lg from _log_at, None at a root of f: no order)
    has f^n of order (Q^N - 1)/gcd(n lg, Q^N - 1) mod pi, and as Q^N - 1 =
    nmr with gcd(m, r) = 1, that is m iff r | lg and no prime l | m divides
    lg: the lemma's form.  The scan keeps a root of each qualifying pi, and
    the certificates compute minimal polynomials from the roots.
    F_{Q^N} = extension(F_Q, N) caps Q^N at _FIELD_CAP.

    `predicted` assumes the r-th/l-th power conditions for a and b are
    jointly independent: Q^N/(N r^2) * prod_{l | m} (1 - 1/l)^2.
    `predicted_alt` weights each l by its multiplicity e in m instead:
    Q^N/(N r^2) * prod (l-1)^e / l^e.  The empirical count is authoritative.
    """
    if N < 1:
        raise ValueError(f"the degree must be at least 1, got N = {N}")
    check_ff_bases(constr, a, b)
    n = constr.n_for(N)
    ext = extension(constr.big, N)
    order, m = ext.order, constr.m

    def qualifies(lg: int | None) -> bool:  # (y^lg)^n has order exactly m
        return lg is not None and order // math.gcd(n * lg, order) == m

    log_a, log_b = (_log_terms(ext, f.coeffs) for f in (a, b))  # F_q is the elements below q
    total = 0
    roots = array("i")  # 4 bytes a root: at the table cap a scan keeps about 50,000
    if N == 1:  # pi = T, at its root 0 each base is its constant term
        total += 1
        if all(f.coeffs[0] and qualifies(ext.log[f.coeffs[0]]) for f in (a, b)):
            roots.append(0)
    for L in coset_leaders(ext):
        total += 1
        if qualifies(_log_at(ext, log_a, L)) and qualifies(_log_at(ext, log_b, L)):
            roots.append(ext.exp[L])
    expected = irreducible_count(constr.Q, N)
    if total != expected:
        raise VerificationError(
            f"the scan found {total} monic irreducibles of degree {N} over F_{constr.Q}, "
            f"the Moebius count is {expected}"
        )
    density = 1.0 / constr.r**2
    density_alt = 1.0 / constr.r**2
    for l, e in sorted(factorize(constr.m).factors.items()):
        density *= (1.0 - 1.0 / l) ** 2
        density_alt *= (l - 1.0) ** e / l**e
    scale = constr.Q**N / N
    return FFScanResult(constr, N, a, b, n, density * scale, density_alt * scale, total, roots)


def _product(polys: list[FqPolynomial], ctx: FieldContext) -> FqPolynomial:
    """The product of polys, by a pairwise product tree."""
    polys = polys or [FqPolynomial.one(ctx)]
    while len(polys) > 1:
        odd = polys[-1:] if len(polys) % 2 else []
        polys = [f * g for f, g in zip(polys[::2], polys[1::2])] + odd
    return polys[0]


class FFVerifyResult(NamedTuple):
    deg_gcd: int
    certified_bound: int
    ratio_to_n: float


def _norms(scan: FFScanResult) -> list[FqPolynomial]:
    """The minimal polynomials over F_q of the orbits O of z -> z^q on the
    scan's roots, refused unless each O holds one root of each of its pi:
    as Q = q^t, the conjugates over F_Q of z = O[0] are the O[j] with s | j,
    s = gcd(|O|, t), so O holds s pi, of degree N iff |O| = N s."""
    constr, N, q = scan.constr, scan.N, scan.constr.base.q
    ext = extension(constr.big, N)
    pis, norms = set(), {}  # the least root of each pi; by the least element of O: [its norm, its pi unseen]
    for z in scan.roots:
        orbit = conjugates(ext, z, q)
        s, key = math.gcd(len(orbit), constr.t), min(orbit)
        pis.add(min(orbit[::s]))
        if key not in norms:  # -1 marks a root of degree below N over F_Q
            norms[key] = [FqPolynomial(constr.base, min_poly(ext, orbit, q)),
                          s if len(orbit) == N * s else -1]
        norms[key][1] -= 1
    if len(pis) < scan.count or any(left for _, left in norms.values()):
        raise VerificationError(f"the product of the qualifying pi is no product over F_{q}: an orbit of "
                                f"z -> z^{q} on their roots misses or repeats one of its pi")
    return [norm for norm, _ in norms.values()]


def ff_direct_verify(scan: FFScanResult, n_cap: int = 5000) -> FFVerifyResult:
    """Compute gcd(Phi_m(a^n), Phi_m(b^n)) exactly over the base field and
    certify deg gcd >= N * (number of qualifying pi of the scan).

    The bases lie in F_q[T] and gcd(q, mr) = 1, so z -> z^q keeps the
    qualifying set, and the product of its pi is that of `_norms`, distinct
    irreducibles over F_q of total degree N * count: all divide g iff their
    product does.  Only a failure lifts g to F_Q, to name a culprit pi.
    """
    constr, n = scan.constr, scan.n
    if n > n_cap:
        raise ValueError(f"n = {n} exceeds the exact-computation cap {n_cap}")
    # the values are freed before the product is formed
    g = poly_gcd(*(eval_poly_fq(constr.m, poly_pow(f, n)) for f in (scan.a, scan.b)))
    try:
        if not (g % _product(_norms(scan), constr.base)).is_zero:
            raise VerificationError("the product of the qualifying pi does not divide the gcd")
    except VerificationError:
        g_big = constr.lift(g)
        for coeffs in scan.qualifying:
            pi = FqPolynomial(constr.big, coeffs)
            if not (g_big % pi).is_zero:
                raise VerificationError(f"qualifying pi = {pi} does not divide the gcd") from None
        raise
    certified = scan.N * scan.count
    if g.degree < certified:
        raise VerificationError(f"deg gcd = {g.degree} is below the certified bound {certified}")
    return FFVerifyResult(deg_gcd=g.degree, certified_bound=certified, ratio_to_n=g.degree / n)
