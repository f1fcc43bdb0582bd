import functools
import itertools
import math
import random
import re
from array import array
from functools import lru_cache

import pytest
from sympy import primefactors, primerange
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_add, gf_div, gf_gcd, gf_irreducible_p, gf_mul, gf_pow, gf_pow_mod, gf_rem, gf_strip, gf_sub,
)

from cyclogcd import fqpoly
from cyclogcd.cyclotomic import eval_poly_fq
from cyclogcd.errors import HypothesisError, VerificationError
from cyclogcd.ffield import (
    _FIELD_CAP,
    _log_at,
    _log_terms,
    _norms,
    _primitive_modulus,
    _product,
    _t_is_primitive,
    choose_params,
    conjugates,
    coset_leaders,
    extension,
    ff_construction,
    ff_direct_verify,
    ff_scan,
    fq_context,
    irreducible_count,
    is_lth_power_poly,
    min_poly,
)
from cyclogcd.fields import FieldContext
from cyclogcd.fqpoly import (
    _pack,
    _planes_of,
    _unpack,
    FqPolynomial,
    poly_gcd,
    poly_pow,
)
from ffield_oracle import ff_equivalence_check, irreducible_test, poly_powmod

F2 = fq_context(2, 1)
F3 = fq_context(3, 1)
F4 = fq_context(2, 2)
F9 = fq_context(3, 2)


def P(ctx, *coeffs):
    return FqPolynomial.of(ctx, coeffs)


def monic_polys(ctx, degree):
    for low in itertools.product(range(ctx.q), repeat=degree):
        yield FqPolynomial(ctx, low + (1,))


def frobenius_orbits(ext):
    # the orbits of z -> z^Q on the elements of degree exactly N, each as its
    # conjugates, by walking every exponent; for N = 1 the orbit of 0 comes first
    if ext.degree == 1:
        yield (0,)
    Q, order = ext.base.q, ext.order
    seen = bytearray(order)
    for L in range(order):
        if not seen[L]:
            coset = [L]
            while coset[-1] * Q % order != L:
                coset.append(coset[-1] * Q % order)
            for j in coset:
                seen[j] = 1
            if len(coset) == ext.degree:
                yield tuple(ext.exp[j] for j in coset)


def test_context_moduli_deterministic():
    assert F4.modulus == (1, 1, 1)             # u^2 + u + 1, the only choice
    assert F9.modulus == (2, 1, 1)             # u^2 + 1 is first, but u has order 4 there
    assert fq_context(2, 3).modulus == (1, 1, 0, 1)     # u^3 + u + 1
    assert fq_context(2, 4).modulus == (1, 1, 0, 0, 1)  # u^4 + u + 1
    assert fq_context(2, 1).base is None                # F_2 computes modulo 2
    assert fq_context(2, 4) is extension(F2, 4) and F4.base is F2
    with pytest.raises(ValueError):
        fq_context(4, 1)


def test_context_moduli_are_the_first_irreducibles_by_index():
    # first by index among the monic irreducibles in which u is primitive;
    # index order: the low coefficients read as base-p digits, constant first
    def u_is_primitive(f, p, order):
        return all(gf_pow_mod([1, 0], order // l, f, p, ZZ) != [1] for l in primefactors(order))

    for p, e in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)):
        modulus = fq_context(p, e).modulus
        index = sum(c * p**i for i, c in enumerate(modulus[:-1]))
        assert modulus[-1] == 1 and len(modulus) == e + 1
        high_first = list(reversed(modulus))
        assert gf_irreducible_p(high_first, p, ZZ) and u_is_primitive(high_first, p, p**e - 1)
        for earlier in range(index):
            low = [earlier // p**i % p for i in range(e)]
            f = [1] + low[::-1]
            assert not (gf_irreducible_p(f, p, ZZ) and u_is_primitive(f, p, p**e - 1)), (p, e, low)


def test_field_arithmetic_of_f4():
    # elements 0, 1, g = 2, g^2 = 3 with g^2 = g + 1
    assert F4.mul(2, 2) == 3
    assert F4.mul(2, 3) == 1
    assert F4.add(2, 1) == 3
    assert F4.inv(2) == 3 and F4.inv(3) == 2
    for x in range(1, 4):
        assert F4.mul(x, F4.mul(x, x)) == 1


def _digits(v, p, e):
    # the element v of F_{p^e} over F_p as a sympy dense polynomial, leading digit first
    return gf_strip([v // p**i % p for i in reversed(range(e))])


def test_field_kernel_matches_sympy():
    # every field of at most 81 elements: its arithmetic as polynomials over
    # F_p modulo its modulus, by sympy's galoistools
    for p in primerange(82):
        e = 1
        while p**e <= 81:
            ctx = fq_context(p, e)
            mod = list(reversed(ctx.modulus)) if e > 1 else [1, 0]  # F_p = F_p[u]/(u)
            assert gf_irreducible_p(mod, p, ZZ), (p, e)
            poly = functools.partial(_digits, p=p, e=e)
            for x in range(p**e):
                for y in range(p**e):
                    assert poly(ctx.add(x, y)) == gf_add(poly(x), poly(y), p, ZZ), (p, e, x, y)
                    assert poly(ctx.sub(x, y)) == gf_sub(poly(x), poly(y), p, ZZ), (p, e, x, y)
                    assert poly(ctx.mul(x, y)) == gf_rem(gf_mul(poly(x), poly(y), p, ZZ), mod, p, ZZ)
                if x:
                    assert gf_rem(gf_mul(poly(x), poly(ctx.inv(x)), p, ZZ), mod, p, ZZ) == [1]
            e += 1


def test_tower_exp_tables_are_powers_of_y():
    # exp[k] = y^k as T^k mod mu over the subfield, digits constant first
    for base, N in ((F4, 2), (F4, 3), (F9, 2)):
        ext = extension(base, N)
        mu, t = FqPolynomial(base, ext.modulus), FqPolynomial.variable(base)
        for k in range(ext.order):
            coeffs = poly_powmod(t, k, mu).coeffs
            assert ext.exp[k] == sum(c * base.q**i for i, c in enumerate(coeffs)), (base, N, k)


def test_field_axioms_sampled():
    for ctx in (F4, F9, fq_context(5, 1), extension(F4, 2)):
        q = ctx.q
        for x in range(q):
            for y in range(q):
                assert ctx.add(x, y) == ctx.add(y, x)
                assert ctx.mul(x, y) == ctx.mul(y, x)
            if x:
                assert ctx.mul(x, ctx.inv(x)) == 1


def test_polynomial_basics():
    f = P(F2, 1, 1, 1)
    assert f.degree == 2 and f.is_monic and not f.is_zero
    zero = FqPolynomial.zero(F2)
    assert zero.degree == -1 and zero.is_zero
    assert P(F2, 1).degree == 0
    assert P(F2, 0, 0, 1) % P(F2, 1, 1) == P(F2, 1)  # T^2 = (T+1)(T+1) + 1
    assert P(F2, 1, 1) * P(F2, 1, 1) + P(F2, 1) == P(F2, 0, 0, 1)


def test_poly_gcd_examples():
    assert poly_gcd(P(F2, 0, 1, 1), P(F2, 1, 1)) == P(F2, 1, 1)  # T^2+T = T(T+1)
    assert poly_gcd(P(F2, 1, 1), FqPolynomial.zero(F2)) == P(F2, 1, 1)
    assert poly_gcd(P(F2, 1, 1), P(F2, 0, 1)).degree == 0
    with pytest.raises(ValueError):
        poly_gcd(FqPolynomial.zero(F2), FqPolynomial.zero(F2))
    with pytest.raises(ValueError):
        poly_gcd(P(F2, 1, 1), P(F3, 1, 1))


def _sympy(f):
    # a polynomial as a sympy dense list, leading coefficient first
    return list(reversed(f.coeffs))


def _full(ctx, n, lead=1):
    # n coefficients whose digits are all p - 1 below the leading one, so every
    # slot of a product or an elimination step is at its bound
    return P(ctx, *[ctx.q - 1] * (n - 1), lead)


def _ones(ctx, n):
    # n coefficients whose base-p digits are all 1: as the quotient by a monic
    # divisor, every elimination step adds (p - 1) (e_k B) for every digit k
    return P(ctx, *[(ctx.q - 1) // (ctx.p - 1)] * n)


def _random(ctx, n, rng):
    # n coefficients, the leading one nonzero
    return P(ctx, *[rng.randrange(ctx.q) for _ in range(n - 1)], rng.randrange(1, ctx.q))


def _width_edges(ctx, most):
    # the operand lengths on both sides of each step up of a product's slot
    # width: min(len) (p - 1)^2 fan-in against 256^w
    growth = _planes_of(ctx).growth
    return sorted({n for w in (1, 2, 3) for n in ((256**w - 1) // growth, (256**w - 1) // growth + 1)
                   if 1 <= n <= most})


def _division_cases(ctx, rng, divisor_lengths, most):
    # (dividend, divisor): quotients of all-1 digits under monic all-(p-1)
    # divisors, on both sides of the renormalisation interval `lazy` and the
    # 128-coefficient window, then non-monic and random divisors
    lazy = _planes_of(ctx).lazy
    for m in divisor_lengths:  # m >= 2
        for b in (_full(ctx, m), _full(ctx, m, ctx.q - 1), _random(ctx, m, rng)):
            for k in sorted({1, 2, lazy - 1, lazy, lazy + 1, 129} | ({most - m} if b.is_monic else set())):
                if 1 <= k <= most - m:
                    yield _ones(ctx, k) * b + _random(ctx, m - 1, rng), b
        yield _random(ctx, m - 1, rng), _full(ctx, m)  # a dividend below the divisor
        yield FqPolynomial.zero(ctx), _random(ctx, m, rng)


def test_packed_kernel_matches_sympy_galoistools():
    # *, % and poly_gcd against sympy over prime fields whose division
    # slots take one byte (F_2, F_3, F_7), two (F_127) and five (p = 65537):
    # zero, constant, monic and non-monic operands; products at the lengths
    # where the slot width steps up; divisors of degree 1 to 40 (and 300 over
    # F_2, whose interval between renormalisations is 254 steps) against
    # dividends up to 2,000 coefficients
    rng = random.Random(15)
    for p, most in ((2, 2000), (3, 2000), (7, 2000), (127, 700), (65537, 700)):
        ctx = fq_context(p, 1)
        operands = [FqPolynomial.zero(ctx), P(ctx, 1), P(ctx, rng.randrange(1, p))]
        for n in _width_edges(ctx, 300) + [2, 9, 40]:
            operands += [_full(ctx, n), _full(ctx, n, p - 1), _random(ctx, n, rng)]
        for i, f in enumerate(operands):
            for g in (f, operands[i - 1], operands[i // 2]):
                assert _sympy(f * g) == gf_mul(_sympy(f), _sympy(g), p, ZZ), (p, f.degree, g.degree)
        lengths = (2, 3, 5, 9, 17, 41) + ((301,) if p == 2 else ())
        for f, g in _division_cases(ctx, rng, lengths, most):
            assert _sympy(f % g) == gf_div(_sympy(f), _sympy(g), p, ZZ)[1], (p, f.degree, g.degree)
        with pytest.raises(ZeroDivisionError):
            P(ctx, 1, 1) % FqPolynomial.zero(ctx)
        for d in (0, 1, 5, 20):
            h = _random(ctx, d + 1, rng)
            for x, y in ((rng.randrange(1, 150), rng.randrange(1, 150)), (1, 40), (40, 0)):
                f, g = h * _random(ctx, x, rng), h * _random(ctx, y, rng) if y else FqPolynomial.zero(ctx)
                assert _sympy(poly_gcd(f, g)) == gf_gcd(_sympy(f), _sympy(g), p, ZZ), (p, d, x, y)
                assert poly_gcd(f, g) == poly_gcd(g, f)


def _schoolbook_mul(f, g):
    # the reference product, one add_scaled pass per coefficient of f
    ctx = f.ctx
    if f.is_zero or g.is_zero:
        return FqPolynomial.zero(ctx)
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, u in enumerate(f.coeffs):
        if u:
            ctx.add_scaled(out, i, u, g.coeffs)
    return P(ctx, *out)


def _schoolbook_mod(f, g):
    # the reference remainder: eliminate the top coefficient by add_scaled
    ctx = f.ctx
    rem = list(f.coeffs)
    neg_lead_inv = ctx.sub(0, ctx.inv(g.coeffs[-1]))
    for i in range(len(rem) - 1, len(g.coeffs) - 2, -1):
        if rem[i]:
            ctx.add_scaled(rem, i - (len(g.coeffs) - 1), ctx.mul(rem[i], neg_lead_inv), g.coeffs)
    return P(ctx, *rem)


def _schoolbook_gcd(f, g):
    while not g.is_zero:
        f, g = g, _schoolbook_mod(f, g)
    return f.monic()


def test_packed_kernel_matches_the_schoolbook_over_extension_fields():
    # over F_{p^E}, E > 1, the planes combine by the structure constants
    # C[i][j] = mul(p^i, p^j), read off each encoding: F_4, F_8, F_9, F_16
    # built over F_4, whose C comes from a two-level tower, and F_{257^2},
    # whose digits take more than one byte (no tower over it fits the cap)
    rng = random.Random(16)
    for ctx in (F4, fq_context(2, 3), F9, extension(F4, 2), fq_context(257, 2)):
        operands = [FqPolynomial.zero(ctx), P(ctx, 1), P(ctx, ctx.q - 1)]
        for n in _width_edges(ctx, 120) + [2, 9]:
            operands += [_full(ctx, n), _full(ctx, n, ctx.q - 1), _random(ctx, n, rng)]
        for i, f in enumerate(operands):
            for g in (f, operands[i - 1], operands[i // 2]):
                assert f * g == _schoolbook_mul(f, g), (ctx, f.degree, g.degree)
        for f, g in _division_cases(ctx, rng, (2, 3, 6, 17, 41), 400):
            assert f % g == _schoolbook_mod(f, g), (ctx, f.degree, g.degree)
        for d in (0, 1, 6):
            h = _random(ctx, d + 1, rng)
            f, g = h * _random(ctx, rng.randrange(1, 60), rng), h * _random(ctx, rng.randrange(1, 60), rng)
            assert poly_gcd(f, g) == _schoolbook_gcd(f, g), (ctx, d)
    # the product tree of the 92 qualifying pi at N = 5 over F_4, and the gcd it divides
    pis = [FqPolynomial(CONSTR.big, c) for c in scan_of(5).qualifying]
    level = pis
    while len(level) > 1:
        level = [_schoolbook_mul(f, g) for f, g in zip(level[::2], level[1::2])] + level[len(level) // 2 * 2:]
    product = _product(pis, CONSTR.big)
    assert product == level[0] and product.degree == 460
    values = [eval_poly_fq(3, poly_pow(f, CONSTR.n_for(5))) for f in (A_POLY, B_POLY)]
    g = CONSTR.lift(poly_gcd(*values))
    assert g.degree == 462 and _schoolbook_mod(g, product) == g % product
    assert (g % product).is_zero


def test_slot_packing_round_trips_at_every_width():
    # _pack and _unpack at one to twelve bytes a slot, past the 8-byte words
    rng = random.Random(17)
    for w in range(1, 13):
        values = [rng.randrange(min(256**w, 2**64)) for _ in range(50)] + [0, min(256**w, 2**64) - 1]
        x = _pack(values, w)
        assert x.bit_length() <= 8 * w * len(values)
        assert list(_unpack(x.to_bytes(w * len(values), "little"), w)) == values, w
        assert _pack(bytes(v % 256 for v in values), w) == _pack([v % 256 for v in values], w)


def test_renormalisation_comes_within_lazy_steps():
    # one quotient of lazy + 1 (and 2 lazy + 1) nonzero steps, within one
    # window since the divisor is longer: every step adds (p - 1) times a
    # divisor whose digits below the lead are all p - 1, so the slots under
    # lazy + 1 steps and away from the lead pass 256^width unless the
    # window is reduced in time.  For the gcd both sides take the factor
    # h = T^(2k) + (q - 1), which keeps the quotient and puts a copy of the
    # divisor above a scaled one, so a wrong first remainder loses h.
    rng = random.Random(18)
    for ctx in (F3, fq_context(7, 1), fq_context(251, 1), F4):
        lazy = _planes_of(ctx).lazy
        for k in (lazy + 1, 2 * lazy + 1) if lazy < 100 else (lazy + 1,):
            b, h = _full(ctx, 2 * k), P(ctx, ctx.q - 1, *[0] * (2 * k - 1), 1)
            f = _ones(ctx, k) * b + _random(ctx, 2 * k - 1, rng)
            g = poly_gcd(f * h, b * h)
            assert g.degree >= 2 * k, (ctx, k)
            if ctx.e == 1:
                p = ctx.p
                assert _sympy(f % b) == gf_rem(_sympy(f), _sympy(b), p, ZZ), (ctx, k)
                assert _sympy(g) == gf_gcd(_sympy(f * h), _sympy(b * h), p, ZZ), (ctx, k)
            else:
                assert f % b == _schoolbook_mod(f, b) and g == _schoolbook_gcd(f * h, b * h), (ctx, k)


def test_digits_reduce_slots_of_every_width():
    # digits against v % p over _unpack: one to four bytes a slot, every
    # two-byte value, and the first width at which the byte planes' images
    # could sum past 255 (w (p - 1) > 255: two bytes for p = 131 and 251);
    # p = 257 keeps the per-slot path
    rng = random.Random(19)
    for p in (2, 3, 7, 131, 251, 257):
        kernel = _planes_of(fq_context(p, 1))
        widths = sorted({1, 2, 3, 4, 255 // (p - 1) + 1} - ({1} if p > 256 else set()))
        for w in widths:
            values = [v % 256**w for v in (0, p - 1, p, 2 * p - 1, -1)] + [rng.randrange(256**w) for _ in range(300)]
            if w == 2:
                values += range(65536)
            raw = b"".join(v.to_bytes(w, "little") for v in values)
            expected = [v % p for v in _unpack(raw, w)]
            assert list(kernel.digits(int.from_bytes(raw, "little"), len(values), w)) == expected, (p, w)


def test_no_slot_is_unpacked_below_p_256(monkeypatch):
    # slots of two bytes and more reduce by translate below p = 256, so
    # neither a product over F_7 at two-byte slots nor a remainder over
    # F_251 at three-byte slots unpacks a slot as an int
    rng = random.Random(20)
    calls = []
    monkeypatch.setattr(fqpoly, "_unpack", lambda raw, w: calls.append(w) or _unpack(raw, w))
    F7 = fq_context(7, 1)
    f, g = _random(F7, 10, rng), _random(F7, 800, rng)
    assert _sympy(f * g) == gf_mul(_sympy(f), _sympy(g), 7, ZZ)
    F251 = fq_context(251, 1)
    f, g = _random(F251, 60, rng), _random(F251, 20, rng)
    assert _planes_of(F251).width == 3
    assert _sympy(f % g) == gf_rem(_sympy(f), _sympy(g), 251, ZZ)
    assert calls == []


def test_poly_powmod():
    t = FqPolynomial.variable(F2)
    mod = P(F2, 1, 1, 1)
    assert poly_powmod(t, 0, mod) == FqPolynomial.one(F2)
    assert poly_powmod(t, 4, mod) == t          # T^3 = 1 mod T^2+T+1
    with pytest.raises(ValueError):
        poly_powmod(t, 3, P(F2, 1))


def _sample_polys(ctx, rng):
    # zero, a nonzero constant and one polynomial of each degree 1 to 3, monic or not
    return [FqPolynomial.zero(ctx)] + [
        P(ctx, *[rng.randrange(ctx.q) for _ in range(d)], rng.randrange(1, ctx.q)) for d in range(4)]


def _exponents(q, rng, count):
    # the digit boundaries of base q, plus `count` random exponents up to 3000
    return sorted({0, 1, q - 1, q, q + 1, q**2 - 1, q**3} | {rng.randrange(3001) for _ in range(count)})


def test_poly_pow_matches_sympy_gf_pow():
    # poly_pow multiplies f^(d_i)(T^(p^i)) over the base-p digits d_i of n; the
    # random exponents go to the f of degree up to 1, where sympy is fast
    rng = random.Random(11)
    for p in (2, 3, 7):
        ctx = fq_context(p, 1)
        for f in _sample_polys(ctx, rng):
            for n in _exponents(p, rng, 3 if f.degree <= 1 else 0):
                want = gf_pow(list(reversed(f.coeffs)), n, p, ZZ)
                assert list(reversed(poly_pow(f, n).coeffs)) == want, (p, f.coeffs, n)


def test_poly_pow_matches_repeated_multiplication():
    # over F_4 and F_9 the digits are base 4 and 9, not base p; the random
    # exponents go to the linear f, where repeated multiplication is cheap
    rng = random.Random(12)
    for ctx in (F4, F9):
        for f in _sample_polys(ctx, rng):
            acc, k = FqPolynomial.one(ctx), 0
            for n in _exponents(ctx.q, rng, 2 if f.degree <= 1 else 0):
                while k < n:
                    acc, k = f * acc, k + 1
                assert poly_pow(f, n) == acc, (ctx, f.coeffs, n)


def test_poly_powmod_matches_sympy_gf_pow_mod():
    # moduli of degree 1 up, most of them not monic over F_3 and F_7, bases
    # of degree up to 2 deg mu, and the exponent 0
    rng = random.Random(13)
    for p in (2, 3, 7):
        ctx = fq_context(p, 1)
        for deg_mu in (1, 2, 3, 5):
            for _ in range(3):
                mu = [rng.randrange(p) for _ in range(deg_mu)] + [rng.randrange(1, p)]
                base = [rng.randrange(p) for _ in range(rng.randrange(2 * deg_mu + 2))]
                for e in (0, 1, 2, p, p**deg_mu - 1, rng.randrange(3, 10**6)):
                    got = poly_powmod(P(ctx, *base), e, P(ctx, *mu))
                    want = gf_pow_mod(gf_strip(base[::-1]), e, mu[::-1], p, ZZ)
                    assert list(reversed(got.coeffs)) == want, (p, base, e, mu)
    F7 = fq_context(7, 1)
    f, mu = P(F7, 3, 0, 5, 1, 2), P(F7, 1, 4, 3)   # the monic associate of 3T^2 + 4T + 1 reduces
    assert poly_powmod(f, 100, mu) == poly_powmod(f, 100, mu.monic()) == poly_pow(f, 100) % mu


def test_poly_powmod_over_extension_fields_is_the_reduced_power():
    rng = random.Random(14)
    for ctx in (F4, F9):
        for deg_mu in (1, 2, 4):
            mu = P(ctx, *[rng.randrange(ctx.q) for _ in range(deg_mu)], rng.randrange(1, ctx.q))
            for f in _sample_polys(ctx, rng) + [P(ctx, *[rng.randrange(ctx.q) for _ in range(9)], 1)]:
                for e in (0, 1, 5, ctx.q, 37):
                    assert poly_powmod(f, e, mu) == poly_pow(f, e) % mu, (ctx, f.coeffs, e, mu.coeffs)


def test_full_order_of_t_is_irreducible_with_t_primitive():
    # (F_q[T]/mu)^* has q^N - 1 elements only when mu is irreducible, so T of
    # that order needs no irreducibility test; modulo a mu with mu(0) = 0, T
    # is no unit at all
    for p in (2, 3):
        ctx = fq_context(p, 1)
        for N in (1, 2, 3, 4):
            order = p**N - 1
            for mu in monic_polys(ctx, N):
                high = list(reversed(mu.coeffs))
                want = mu.coeffs[0] != 0 and gf_irreducible_p(high, p, ZZ) and all(
                    gf_pow_mod([1, 0], order // l, high, p, ZZ) != [1] for l in primefactors(order))
                assert _t_is_primitive(ctx, mu.coeffs) == want, mu.coeffs


def test_poly_powmod_frobenius_fixes_residue_field():
    # f^(Q^N) = f mod pi for irreducible pi of degree N over F_Q
    for pi in monic_polys(F4, 2):
        if not irreducible_test(pi):
            continue
        for f in (P(F4, 2, 1), P(F4, 1, 3)):
            assert poly_powmod(f, 4**2, pi) == f % pi


def test_irreducible_examples():
    assert irreducible_test(P(F2, 1, 1, 1))
    assert not irreducible_test(P(F2, 1, 0, 1))   # (T+1)^2
    assert irreducible_test(P(F2, 0, 1))
    assert irreducible_test(P(F2, 1, 1))
    with pytest.raises(ValueError):
        irreducible_test(P(F2, 1))


def test_irreducible_test_matches_sympy():
    for p in (2, 3, 5):
        for degree in (1, 2, 3, 4):
            for f in monic_polys(fq_context(p, 1), degree):
                assert irreducible_test(f) == gf_irreducible_p(list(reversed(f.coeffs)), p, ZZ), f


def test_irreducible_counts_match_necklace_formula():
    for ctx in (F2, F3, F4):
        for degree in (1, 2, 3, 4):
            found = sum(1 for f in monic_polys(ctx, degree) if irreducible_test(f))
            assert found == irreducible_count(ctx.q, degree)


def test_is_lth_power_poly_matches_all_powers():
    # every monic f of degree <= D against the set of g**l over monic g
    for p, e, l, D in ((3, 1, 2, 6), (2, 2, 3, 6), (5, 1, 2, 4), (5, 1, 3, 3)):
        ctx = fq_context(p, e)
        powers = {poly_pow(g, l) for d in range(D // l + 1) for g in monic_polys(ctx, d)}
        for degree in range(D + 1):
            for f in monic_polys(ctx, degree):
                assert is_lth_power_poly(f, l) == (f in powers), (ctx, l, f)


def test_is_lth_power_poly():
    b = P(F2, 1, 1)
    assert is_lth_power_poly(poly_pow(b, 3), 3)
    assert not is_lth_power_poly(P(F2, 1, 1, 1), 3)
    assert is_lth_power_poly(poly_pow(P(F3, 1, 2, 1), 2), 2)
    assert not is_lth_power_poly(P(F3, 2, 1), 2)
    with pytest.raises(ValueError):
        is_lth_power_poly(poly_pow(b, 2), 2)  # l equals the characteristic


def test_subfields_are_the_elements_below_their_size():
    # F_q inside F_Q = F_q[y]/(mu) is the constants, the elements below q
    for small, big in ((F2, F4), (F4, extension(F4, 2)), (F4, ff_construction(F4, 1, 1, 5).big),
                       (F2, extension(F4, 3)), (F3, F9), (F9, extension(F9, 2))):
        for x in range(small.q):
            for y in range(small.q):
                assert big.add(x, y) == small.add(x, y), (small, big, x, y)
                assert big.mul(x, y) == small.mul(x, y), (small, big, x, y)


def test_choose_params_examples():
    assert choose_params(2, 1, 1, 3) == (1, 2, 4)
    assert choose_params(3, 1, 1, 2) == (1, 1, 3)
    r, t, Q = choose_params(2, 2, 3, 5)
    assert (r * 5 * 3 + 1) % 4 == 0 and Q == 2**t and pow(2, t, 5 * r) == 1
    # minimality of t
    for tp in range(2, t):
        assert pow(2, tp, 5 * r) != 1
    with pytest.raises(HypothesisError):
        choose_params(2, 1, 2, 3)   # n0 shares a factor with q
    with pytest.raises(HypothesisError):
        choose_params(2, 1, 1, 2)   # m not prime to q
    with pytest.raises(ValueError, match="table cap"):
        choose_params(4, 1, 1, 47)  # the order of 4 mod 47 is 23, and 4^23 = 2^46


def test_choose_params_matches_the_linear_scan():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for k in (1, 2, 3):
            qk = q**k
            for n0 in range(1, qk):
                for m in range(1, 16):
                    if math.gcd(n0, q) != 1 or math.gcd(m, q) != 1:
                        continue
                    r = next(c for c in itertools.count(1)
                             if (c * m * n0 + 1) % qk == 0 and math.gcd(c, m) == 1)
                    # the first t >= k with q^t = 1 mod mr, or the first past the cap
                    t = next(t for t in itertools.count(k)
                             if q**t > _FIELD_CAP or pow(q, t, m * r) == 1 % (m * r))
                    if q**t > _FIELD_CAP:
                        with pytest.raises(ValueError, match="table cap"):
                            choose_params(q, k, n0, m)
                    else:
                        assert choose_params(q, k, n0, m) == (r, t, q**t), (q, k, n0, m)


CONSTR = ff_construction(F2, 1, 1, 3)
A_POLY = P(F2, 0, 1)
B_POLY = P(F2, 1, 1)

# N: (irreducibles, qualifying pi, deg gcd), frozen by the exhaustive
# candidate scan (cross-validated against the exact divisibility route in
# test_ff_equivalence below) and the exact gcd
FROZEN_SCAN = {1: (4, 2, 2), 2: (6, 2, 6), 3: (20, 10, 30), 4: (60, 26, 110), 5: (204, 92, 462),
               6: (670, 296, 1806), 7: (2340, 1044, 7310)}


@lru_cache(maxsize=None)
def scan_of(N):
    return ff_scan(CONSTR, N, A_POLY, B_POLY)


def test_construction_invariants():
    assert (CONSTR.r, CONSTR.t, CONSTR.Q) == (1, 2, 4)
    for N in range(1, 7):
        n = CONSTR.n_for(N)
        assert (4**N - 1) == n * 3
        assert n % 2 == 1          # n = n0 = 1 mod q^k


def _power_criterion(pi, f, constr):
    # the criterion as powmods mod pi: f^((Q^N-1)/r) = 1 and f^((Q^N-1)/l) != 1
    if (f % pi).is_zero:
        return False
    total = constr.Q**pi.degree - 1
    one = FqPolynomial.one(pi.ctx)
    return (poly_powmod(f, total // constr.r, pi) == one
            and all(poly_powmod(f, total // l, pi) != one for l in primefactors(constr.m)))


def _order_criterion(pi, f, constr):
    # the definition as powmods mod pi: f^n has order exactly m, that is
    # f^(nm) = 1 and f^(nm/l) != 1, at n = constr.n_for(deg pi)
    if (f % pi).is_zero:
        return False
    nm = constr.n_for(pi.degree) * constr.m
    one = FqPolynomial.one(pi.ctx)
    return (poly_powmod(f, nm, pi) == one
            and all(poly_powmod(f, nm // l, pi) != one for l in primefactors(constr.m)))


def _horner_scan(constr, N, a, b):
    # the scan before the exponent walk: every orbit, each base at a root by
    # Horner, and the minimal polynomial of each orbit that qualifies
    ext = extension(constr.big, N)

    def qualifies(v):
        return v != 0 and ext.log[v] % constr.r == 0 and all(ext.log[v] % l for l in primefactors(constr.m))

    bases = (constr.lift(a).coeffs, constr.lift(b).coeffs)
    return tuple(sorted(min_poly(ext, orbit, constr.Q) for orbit in frobenius_orbits(ext)
                        if all(qualifies(ext.eval(f, orbit[0])) for f in bases)))


def test_ff_scan_matches_the_power_criterion():
    # every monic irreducible pi tested by powmods, once by the lemma's power
    # criterion and once by the order definition: odd p, Q != p, r > 1 with
    # k = 2, m = 15 with two primes l | m, bases over F_4 \ F_2, and pi = T
    # qualifying at N = 1 (bases T + 2, T + 4 over F_7); one base twice where
    # no pi makes two distinct bases r-th powers
    T, T1 = (0, 1), (1, 1)
    cases = [(F2, 2, 1, 1, 1, T, T), (F2, 2, 1, 1, 2, T, T), (F2, 1, 1, 3, 2, T, T1),
             (F2, 1, 1, 15, 1, T, T1), (F2, 1, 1, 15, 2, T, T1), (F2, 2, 1, 5, 2, T, T1),
             (F2, 2, 3, 3, 2, T, T1), (F3, 1, 1, 2, 4, T, T1), (F3, 2, 4, 2, 3, T, T1),
             (F3, 2, 1, 2, 2, T, T), (fq_context(7, 1), 1, 1, 3, 3, (3, 1), (5, 1)),
             (F4, 1, 1, 3, 3, (2, 1), (3, 1)), (F4, 1, 1, 5, 2, T, T1),
             (fq_context(7, 1), 1, 1, 3, 1, (2, 1), (4, 1))]
    seen = set()
    for base, k, n0, m, N, a, b in cases:
        constr = ff_construction(base, k, n0, m)
        assert constr.Q**N <= 4096
        a, b = P(base, *a), P(base, *b)
        a_big, b_big = constr.lift(a), constr.lift(b)
        pis = [pi for pi in monic_polys(constr.big, N) if irreducible_test(pi)]
        expected = [pi.coeffs for pi in pis
                    if _power_criterion(pi, a_big, constr) and _power_criterion(pi, b_big, constr)]
        defined = [pi.coeffs for pi in pis
                   if _order_criterion(pi, a_big, constr) and _order_criterion(pi, b_big, constr)]
        scan = ff_scan(constr, N, a, b)
        assert defined == expected, (base, k, n0, m, N)
        assert scan.qualifying == tuple(sorted(expected)) == _horner_scan(constr, N, a, b), (base, k, n0, m, N)
        assert scan.count == len(scan.qualifying) > 0, (base, k, n0, m, N)
        if T in scan.qualifying:
            assert scan.qualifying == (T,) and ff_equivalence_check(scan)[1] == []
        seen |= {("odd p", base.p > 2), ("Q != p", constr.Q != base.p),
                 ("r > 1", constr.r > 1 and k == 2), ("m = 15", m == 15), ("pi = T", T in scan.qualifying)}
    assert {label for label, hit in seen if hit} == {"odd p", "Q != p", "r > 1", "m = 15", "pi = T"}


def test_norm_is_the_product_of_the_conjugates():
    # Norm(T mod pi) = T^((Q^N-1)/(Q-1)) mod pi by a powmod is the product of
    # the orbit of roots read off the tables, and (-1)^N pi(0)
    for base, N in ((F4, 1), (F4, 2), (F4, 3), (F3, 1), (F3, 2), (F3, 3)):
        ext = extension(base, N)
        t = FqPolynomial.variable(base)
        sign = 1 if N % 2 == 0 else base.sub(0, 1)
        for orbit in frobenius_orbits(ext):
            pi = FqPolynomial(base, min_poly(ext, orbit, base.q))
            norm = functools.reduce(ext.mul, orbit, 1)
            assert norm == base.mul(sign, pi.coeffs[0]) and norm < base.q
            assert poly_powmod(t, (base.q**N - 1) // (base.q - 1), pi).coeffs == ((norm,) if norm else ())


F5, F7 = fq_context(5, 1), fq_context(7, 1)
ORBIT_FIELDS = ((F2, 1), (F2, 2), (F2, 3), (F2, 4), (F2, 5), (F2, 6), (F3, 1), (F3, 2), (F3, 3),
                (F3, 4), (F5, 1), (F5, 2), (F7, 1), (F7, 2), (F7, 3), (F7, 4), (F4, 1), (F4, 2),
                (F4, 3), (F4, 4), (F4, 5), (F9, 1), (F9, 2))
# and three over odd p whose step tables split the digits: R = 1, 4 and 2
STEP_FIELDS = ORBIT_FIELDS + ((fq_context(257, 1), 2), (F9, 3), (fq_context(5, 2), 2))


def test_orbit_tables_use_the_first_primitive_modulus():
    # y generates F_{Q^N}^*, so exp is a bijection onto the nonzero elements,
    # and no monic irreducible earlier by index has that property; the fields
    # F_{p^e} of fq_context are the extensions of F_p
    for base, N in ORBIT_FIELDS:
        ext = extension(base, N)
        order = base.q**N - 1
        assert sorted(ext.exp) == list(range(1, order + 1))
        assert all(ext.log[ext.exp[k]] == k for k in range(order))
        t, one = FqPolynomial.variable(base), FqPolynomial.one(base)

        def primitive(mu):
            return mu.coeffs[0] != 0 and all(poly_powmod(t, order // l, mu) != one for l in primefactors(order))
        # index order: the low coefficients as base-q digits, constant first
        by_index = (FqPolynomial(base, tuple(i // base.q**j % base.q for j in range(N)) + (1,))
                    for i in range(base.q**N))
        first = next(mu for mu in by_index if irreducible_test(mu) and primitive(mu))
        assert ext.modulus == first.coeffs, (base, N)
        if N > 1:   # y is no root of a polynomial over F_Q of degree 1
            with pytest.raises(VerificationError, match="coefficient outside"):
                min_poly(ext, (ext.exp[1],), base.q)


def _tables_one_element_at_a_time(base, mu):
    # the build the step tables replaced: y v digit by digit through base.add
    s, N = base.q, len(mu) - 1
    order, top = s**N - 1, s ** (N - 1)
    wrap = [[(s**i, base.sub(0, base.mul(c, m))) for i, m in enumerate(mu[:N]) if c and m] for c in range(s)]
    exp, log, v = [0] * order, [0] * (order + 1), 1
    for k in range(order):
        exp[k], log[v] = v, k
        c, v = v // top, v % top * s
        for unit, d in wrap[c]:
            digit = v // unit % s
            v += (base.add(digit, d) - digit) * unit
    zech = [-1] * order
    for k, v in enumerate(exp):
        one_more = v - v % s + base.add(v % s, 1)
        if one_more:
            zech[k] = log[one_more]
    return exp, log, zech


def test_step_tables_match_the_per_element_build():
    for base, N in STEP_FIELDS:
        ext = extension(base, N)
        want = _tables_one_element_at_a_time(base, ext.modulus)
        assert (ext.exp.tolist(), ext.log.tolist(), ext.zech.tolist()) == want, (base, N)


def test_primitive_modulus_prefilters_match_the_unfiltered_search():
    # the norm, F_Q[T^d] and root tests only reject mu that _t_is_primitive
    # rejects: every (base, N) with Q^N <= 2^14 over nine small fields, and
    # four large, two of them with every T^2 + c past the norm test irreducible
    smalls = (F2, F3, F4, F5, F7, fq_context(2, 3), F9, fq_context(2, 4), fq_context(5, 2))
    cases = [(base, N) for base in smalls for N in range(1, 15) if base.q**N <= 2**14]
    larges = [(fq_context(p, e), 2) for p, e in ((257, 1), (2, 10), (509, 1), (1021, 1))]
    for base, N in cases + larges:
        Q = base.q
        by_index = (tuple(i // Q**j % Q for j in range(N)) + (1,) for i in range(Q**N))
        assert _primitive_modulus(base, N) == next(mu for mu in by_index if _t_is_primitive(base, mu)), (base, N)


def test_log_at_matches_horner_on_every_orbit():
    # log f(y^L) by Zech additions of the terms, against f(y^L) by Horner,
    # at every coset leader; the modulus vanishes at y and its conjugates
    rng = random.Random(17)
    for base, N in STEP_FIELDS:
        ext = extension(base, N)
        polys = [ext.modulus] + [tuple(rng.randrange(base.q) for _ in range(d)) + (1,) for d in (1, 3)]
        for f in polys:
            terms = _log_terms(ext, f)
            for L in coset_leaders(ext):
                v = ext.eval(f, ext.exp[L])
                assert _log_at(ext, terms, L) == (ext.log[v] if v else None), (base, N, f, L)


def test_orbit_tables_refuse_a_modulus_where_y_is_not_primitive():
    # y^5 = 1 modulo the irreducible T^4 + T^3 + T^2 + T + 1 over F_2
    with pytest.raises(VerificationError, match="order 5 < 15"):
        FieldContext(F2, (1, 1, 1, 1, 1))


def test_ff_scan_refuses_tables_above_the_cap():
    assert 4**10 == _FIELD_CAP   # the last degree under the cap for Q = 4
    with pytest.raises(ValueError, match="table cap"):
        ff_scan(CONSTR, 11, A_POLY, B_POLY)


def test_ff_scan_refuses_a_degree_below_one():
    # a usage error (exit 1), not a certificate failure: there is no degree 0 to scan
    for N in (0, -1):
        with pytest.raises(ValueError, match=f"degree must be at least 1, got N = {N}"):
            ff_scan(CONSTR, N, A_POLY, B_POLY)


def test_ff_scan_frozen_counts():
    for N, (total, count, _) in FROZEN_SCAN.items():
        scan = scan_of(N)
        assert scan.total_irreducible == total
        assert scan.count == count
        assert scan.total_irreducible == irreducible_count(4, N)
        assert scan.count <= scan.total_irreducible
        assert abs(scan.count - scan.predicted) <= 5 * 4 ** (N / 2)


def test_ff_direct_verify_frozen():
    # the certificate reads N, n, the bases and the construction off the scan
    for N, (_, count, deg) in FROZEN_SCAN.items():
        scan = scan_of(N)
        assert (scan.constr, scan.N, scan.a, scan.b, scan.n) == (CONSTR, N, A_POLY, B_POLY, CONSTR.n_for(N))
        res = ff_direct_verify(scan, n_cap=scan.n)
        assert res.deg_gcd == deg
        assert res.certified_bound == N * count == scan.N * scan.count
        assert res.deg_gcd >= res.certified_bound
        assert res.ratio_to_n == deg / scan.n


def test_ff_direct_verify_cap():
    with pytest.raises(ValueError, match="cap"):
        ff_direct_verify(scan_of(4), n_cap=50)


def test_ff_equivalence():
    # scan <=> exact divisibility for every irreducible pi, degrees 1..4
    for N in range(1, 5):
        checked, mismatches = ff_equivalence_check(scan_of(N))
        assert mismatches == []
        assert checked >= FROZEN_SCAN[N][1]
    # the tower F_4 < F_16 < F_256, each a degree-2 extension
    constr, a, b = ff_construction(F4, 1, 1, 5), P(F4, 0, 1), P(F4, 1, 1)
    scan = ff_scan(constr, 2, a, b)
    assert (constr.big.base, scan.count, scan.total_irreducible) == (F4, 4, 120)
    assert ff_equivalence_check(scan) == (120, [])


def root_of(pi, N):
    # a root of the monic irreducible pi over F_Q in F_{Q^N}, by trying every element
    ext = extension(CONSTR.big, N)
    return next(z for z in range(ext.q) if ext.eval(pi, z) == 0)


def test_ff_direct_verify_names_a_qualifying_pi_that_does_not_divide():
    scan = scan_of(3)
    outside = [pi for pi in monic_polys(CONSTR.big, 3)
               if irreducible_test(pi) and pi.coeffs not in scan.qualifying]
    # each irreducible left out, wherever it sorts among the qualifying (one of
    # them first), so a product that loses an end still fails
    places = set()
    for extra in outside:
        doctored = scan._replace(roots=scan.roots + array("i", [root_of(extra.coeffs, 3)]))
        places.add(doctored.qualifying.index(extra.coeffs))
        with pytest.raises(VerificationError, match=re.escape(f"qualifying pi = {extra} does not divide")):
            ff_direct_verify(doctored)
    assert 0 in places and len(places) > 1
    # a qualifying pi listed twice divides the gcd, but its square does not
    twice = scan._replace(roots=scan.roots + scan.roots[:1])
    with pytest.raises(VerificationError, match="product of the qualifying pi"):
        ff_direct_verify(twice)


def test_ff_direct_verify_refuses_a_scan_that_misses_a_conjugate_pi(monkeypatch, capsys):
    # sigma: c -> c^2 on the coefficients maps the qualifying set over F_4 to
    # itself; drop the root of one pi not over F_2 and keep that of sigma(pi):
    # every listed pi divides the gcd, but their product is not over F_2
    from cyclogcd import cli

    scan = scan_of(3)
    ext = extension(CONSTR.big, 3)
    z = next(z for z in scan.roots if len(conjugates(ext, z, 2)) == 6)
    doctored = scan._replace(roots=array("i", (x for x in scan.roots if x != z)))
    assert sum(x in conjugates(ext, z, 2) for x in doctored.roots) == 1
    with pytest.raises(VerificationError, match="product of the qualifying pi is no product over F_2"):
        ff_direct_verify(doctored)
    real = cli.ff_scan
    monkeypatch.setattr(cli, "ff_scan", lambda constr, N, a, b: doctored if N == 3 else real(constr, N, a, b))
    assert cli.main(["ff-verify", "--q", "2", "--k", "1", "--n0", "1", "--m", "3", "--a-poly", "0,1",
                     "--b-poly", "1,1", "--deg-max", "3"]) == 2
    assert "product of the qualifying pi is no product over F_2" in capsys.readouterr().err


def test_norms_multiply_to_the_product_of_the_qualifying_pi():
    # the product over F_q of the norms, lifted, is the product over F_Q of
    # the qualifying pi, at every degree with Q^N < 2^20 and a nonzero count
    # (at Q^N = 2^20 the F_Q tree alone takes tens of seconds); the oracle
    # agrees with the scans where Q^N <= 2^10.  Over F_5 the bases T, T + 1
    # count no pi at N <= 2, and T + 2, T^2 + T + 4 count some at every degree
    cases = 0
    for q, m, t, a, b in ((2, 3, 2, (0, 1), (1, 1)), (2, 5, 4, (0, 1), (1, 1)), (3, 4, 4, (0, 1), (1, 1)),
                          (5, 3, 2, (2, 1), (4, 1, 1))):
        base = fq_context(q, 1)
        constr = ff_construction(base, 1, 1, m)
        assert constr.t == t
        N = 1
        while constr.Q**N < _FIELD_CAP:
            scan = ff_scan(constr, N, P(base, *a), P(base, *b))
            if scan.count:
                cases += 1
                pis = [FqPolynomial(constr.big, c) for c in scan.qualifying]
                assert constr.lift(_product(_norms(scan), base)) == _product(pis, constr.big), (q, m, N)
                if constr.Q**N <= 2**10:
                    assert ff_equivalence_check(scan)[1] == [], (q, m, N)
            N += 1
    assert cases == 19


def test_min_poly_refuses_a_truncated_orbit():
    # the orbit of z -> z^2 through a root of a pi over F_4 not over F_2 has six
    # elements in F_{4^3}: all six give a polynomial over F_2, five or the three
    # conjugates over F_4 do not
    ext = extension(F4, 3)
    z = next(z for z in scan_of(3).roots if len(conjugates(ext, z, 2)) == 6)
    orbit = conjugates(ext, z, 2)
    assert max(min_poly(ext, orbit, 2)) == 1 and orbit[::2] == conjugates(ext, z, 4)
    assert max(min_poly(ext, orbit[::2], 4)) > 1
    for truncated in (orbit[:-1], orbit[::2]):
        with pytest.raises(VerificationError, match="coefficient outside F_2$"):
            min_poly(ext, truncated, 2)


def test_ff_equivalence_names_the_pi_a_doctored_scan_gets_wrong():
    scan = scan_of(3)
    dropped = scan.qualifying[4]
    rest = array("i", (z for z in scan.roots if extension(CONSTR.big, 3).eval(dropped, z)))  # all but its root
    assert len(rest) == len(scan.roots) - 1
    assert ff_equivalence_check(scan._replace(roots=rest))[1] == [dropped]
    extra = next(pi.coeffs for pi in monic_polys(CONSTR.big, 3)
                 if irreducible_test(pi) and pi.coeffs not in scan.qualifying)
    doctored = scan._replace(roots=scan.roots + array("i", [root_of(extra, 3)]))
    assert ff_equivalence_check(doctored)[1] == [extra]
    t = (0, 1)   # T divides the base a, so it never qualifies
    doctored = scan_of(1)._replace(roots=scan_of(1).roots + array("i", [root_of(t, 1)]))
    assert t not in scan_of(1).qualifying and t in doctored.qualifying
    assert ff_equivalence_check(doctored)[1] == [t]


def test_ff_identical_bases_gcd_is_whole_value():
    scan = ff_scan(CONSTR, 1, A_POLY, A_POLY)
    res = ff_direct_verify(scan)
    # gcd = Phi_3(a^n) itself: degree phi(3) * n * deg(a)
    assert res.deg_gcd == 2 * scan.n * A_POLY.degree


def test_ff_hypothesis_gates():
    with pytest.raises(HypothesisError, match="monic"):
        ff_scan(CONSTR, 1, FqPolynomial.one(F2), B_POLY)
    cube = poly_pow(B_POLY, 3)
    with pytest.raises(HypothesisError, match="l-th power"):
        ff_scan(CONSTR, 1, cube, B_POLY)


def test_ff_pair_verify_refuses_a_base_over_another_field():
    # the base gate check_ff_bases, which ff_scan runs once for every
    # certificate that takes the scan
    with pytest.raises(ValueError, match="a is not over the base field"):
        ff_scan(CONSTR, 2, P(F4, 0, 1), B_POLY)


def test_eval_poly_fq_in_extension():
    # Phi_3(T) factors into the two qualifying linears over F_4
    phi3 = eval_poly_fq(3, FqPolynomial.variable(F4))
    roots = [z for z in range(4) if F4.eval(phi3.coeffs, z) == 0]
    assert roots == [2, 3]
