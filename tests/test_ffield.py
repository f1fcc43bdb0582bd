import functools
import itertools
import re
from dataclasses import replace
from functools import lru_cache

import pytest
from sympy import primefactors
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from cyclogcd.cyclotomic import eval_poly_fq
from cyclogcd.errors import HypothesisError, VerificationError
from cyclogcd.ffield import (
    _ORBIT_CAP,
    FqPolynomial,
    _primitive_modulus,
    choose_params,
    embed_subfield,
    ff_construction,
    ff_direct_verify,
    ff_equivalence_check,
    ff_scan,
    fq_context,
    irreducible_count,
    irreducible_test,
    is_lth_power_poly,
    poly_gcd,
    poly_pow,
    poly_powmod,
)
from cyclogcd.orbits import Extension, frobenius_orbits

F2 = fq_context(2, 1)
F3 = fq_context(3, 1)
F4 = fq_context(2, 2)


def P(ctx, *coeffs):
    return FqPolynomial.of(ctx, coeffs)


def monic_polys(ctx, degree):
    for low in itertools.product(range(ctx.q), repeat=degree):
        yield FqPolynomial(ctx, low + (1,))


def test_context_moduli_deterministic():
    assert F4.modulus == (1, 1, 1)             # u^2 + u + 1, the only choice
    assert fq_context(3, 2).modulus == (1, 0, 1)  # u^2 + 1 is first over F_3
    assert fq_context(2, 3).modulus == (1, 1, 0, 1)     # u^3 + u + 1
    assert fq_context(2, 4).modulus == (1, 1, 0, 0, 1)  # u^4 + u + 1
    assert fq_context(2, 1).modulus == (0, 1)
    with pytest.raises(ValueError):
        fq_context(4, 1)


def test_context_moduli_are_the_first_irreducibles_by_index():
    # index order: the low coefficients read as base-p digits, constant first
    for p, e in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)):
        modulus = fq_context(p, e).modulus
        index = sum(c * p**i for i, c in enumerate(modulus[:-1]))
        assert modulus[-1] == 1 and len(modulus) == e + 1
        assert gf_irreducible_p(list(reversed(modulus)), p, ZZ)
        for earlier in range(index):
            low = [earlier // p**i % p for i in range(e)]
            assert not gf_irreducible_p([1] + low[::-1], p, ZZ), (p, e, low)


def test_field_arithmetic_of_f4():
    # elements 0, 1, g = 2, g^2 = 3 with g^2 = g + 1
    assert F4.mul(2, 2) == 3
    assert F4.mul(2, 3) == 1
    assert F4.add(2, 1) == 3
    assert F4.inv(2) == 3 and F4.inv(3) == 2
    for x in range(1, 4):
        assert F4.pow_elem(x, 3) == 1


def test_field_axioms_sampled():
    for ctx in (F4, fq_context(3, 2), fq_context(5, 1)):
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
    q, r = divmod(P(F2, 0, 0, 1), P(F2, 1, 1))
    assert q == P(F2, 1, 1) and r == P(F2, 1)  # T^2 = (T+1)(T+1) + 1


def test_poly_gcd_examples():
    assert poly_gcd(P(F2, 0, 1, 1), P(F2, 1, 1)) == P(F2, 1, 1)  # T^2+T = T(T+1)
    assert poly_gcd(P(F2, 1, 1), FqPolynomial.zero(F2)) == P(F2, 1, 1)
    assert poly_gcd(P(F2, 1, 1), P(F2, 0, 1)).degree == 0
    with pytest.raises(ValueError):
        poly_gcd(FqPolynomial.zero(F2), FqPolynomial.zero(F2))
    with pytest.raises(ValueError):
        poly_gcd(P(F2, 1, 1), P(F3, 1, 1))


def test_poly_powmod():
    t = FqPolynomial.variable(F2)
    mod = P(F2, 1, 1, 1)
    assert poly_powmod(t, 0, mod) == FqPolynomial.one(F2)
    assert poly_powmod(t, 4, mod) == t          # T^3 = 1 mod T^2+T+1
    with pytest.raises(ValueError):
        poly_powmod(t, 3, P(F2, 1))


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


def test_embed_subfield_is_a_homomorphism():
    f16 = fq_context(2, 4)
    table = embed_subfield(F4, f16)
    assert table[0] == 0 and table[1] == 1
    for x in range(4):
        for y in range(4):
            assert table[F4.add(x, y)] == f16.add(table[x], table[y])
            assert table[F4.mul(x, y)] == f16.mul(table[x], table[y])
    with pytest.raises(ValueError):
        embed_subfield(F3, f16)


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


CONSTR = ff_construction(F2, 1, 1, 3)
A_POLY = P(F2, 0, 1)
B_POLY = P(F2, 1, 1)

# N: (irreducibles, qualifying pi, deg gcd), frozen by the exhaustive
# candidate scan (cross-validated against the exact divisibility route in
# test_ff_equivalence below); deg gcd is verified up to N = 5, as the exact
# gcds beyond take seconds
FROZEN_SCAN = {1: (4, 2, 2), 2: (6, 2, 6), 3: (20, 10, 30), 4: (60, 26, 110), 5: (204, 92, 462),
               6: (670, 296, None), 7: (2340, 1044, None)}


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


def test_ff_scan_matches_the_power_criterion():
    # every monic irreducible pi tested by powmods: odd p, Q != p, r > 1 with
    # k = 2, m = 15 with two primes l | m, and bases over F_4 \ F_2; one base
    # twice where no pi makes two distinct bases r-th powers
    T, T1 = (0, 1), (1, 1)
    cases = [(F2, 2, 1, 1, 1, T, T), (F2, 2, 1, 1, 2, T, T), (F2, 1, 1, 3, 2, T, T1),
             (F2, 1, 1, 15, 1, T, T1), (F2, 1, 1, 15, 2, T, T1), (F2, 2, 1, 5, 2, T, T1),
             (F2, 2, 3, 3, 2, T, T1), (F3, 1, 1, 2, 4, T, T1), (F3, 2, 4, 2, 3, T, T1),
             (F3, 2, 1, 2, 2, T, T), (fq_context(7, 1), 1, 1, 3, 3, (3, 1), (5, 1)),
             (F4, 1, 1, 3, 3, (2, 1), (3, 1))]
    seen = set()
    for base, k, n0, m, N, a, b in cases:
        constr = ff_construction(base, k, n0, m)
        assert constr.Q**N <= 4096
        a, b = P(base, *a), P(base, *b)
        a_big, b_big = constr.lift(a), constr.lift(b)
        expected = [pi.coeffs for pi in monic_polys(constr.big, N) if irreducible_test(pi)
                    and _power_criterion(pi, a_big, constr) and _power_criterion(pi, b_big, constr)]
        scan = ff_scan(constr, N, a, b)
        assert scan.qualifying == tuple(sorted(expected)), (base, k, n0, m, N)
        assert scan.count > 0, (base, k, n0, m, N)
        seen |= {("odd p", base.p > 2), ("Q != p", constr.Q != base.p),
                 ("r > 1", constr.r > 1 and k == 2), ("m = 15", m == 15)}
    assert {label for label, hit in seen if hit} == {"odd p", "Q != p", "r > 1", "m = 15"}


def test_norm_is_the_product_of_the_conjugates():
    # Norm(T mod pi) = T^((Q^N-1)/(Q-1)) mod pi by a powmod is the product of
    # the orbit of roots read off the tables, and (-1)^N pi(0)
    for base, N in ((F4, 1), (F4, 2), (F4, 3), (F3, 1), (F3, 2), (F3, 3)):
        ext = Extension(base, _primitive_modulus(base, N))
        t = FqPolynomial.variable(base)
        sign = 1 if N % 2 == 0 else base.sub(0, 1)
        for orbit in frobenius_orbits(ext):
            pi = FqPolynomial(base, ext.min_poly(orbit))
            norm = functools.reduce(ext.mul, orbit, 1)
            assert norm == base.mul(sign, pi.coeffs[0]) and norm < base.q
            assert poly_powmod(t, (base.q**N - 1) // (base.q - 1), pi).coeffs == ((norm,) if norm else ())


def test_orbit_tables_use_the_first_primitive_modulus():
    # y generates F_{Q^N}^*, so exp is a bijection onto the nonzero elements,
    # and no monic irreducible earlier by index has that property
    for base, N in ((F2, 1), (F2, 4), (F3, 1), (F3, 3), (F4, 3), (fq_context(7, 1), 2), (fq_context(3, 2), 2)):
        ext = Extension(base, _primitive_modulus(base, N))
        order = base.q**N - 1
        assert sorted(ext.exp) == list(range(1, order + 1))
        assert all(ext.log[ext.exp[k]] == k for k in range(order))
        t, one = FqPolynomial.variable(base), FqPolynomial.one(base)

        def primitive(mu):
            return mu.coeffs[0] != 0 and all(poly_powmod(t, order // l, mu) != one for l in primefactors(order))
        candidates = [mu for mu in monic_polys(base, N) if irreducible_test(mu) and primitive(mu)]
        # index order: the low coefficients as base-q digits, constant first
        first = min(candidates, key=lambda mu: sum(c * base.q**i for i, c in enumerate(mu.coeffs)))
        assert _primitive_modulus(base, N) == first.coeffs, (base, N)
        if N > 1:   # y is no root of a polynomial over F_Q of degree 1
            with pytest.raises(VerificationError, match="coefficient outside"):
                ext.min_poly((ext.exp[1],))


def test_orbit_tables_refuse_a_modulus_where_y_is_not_primitive():
    # y^5 = 1 modulo the irreducible T^4 + T^3 + T^2 + T + 1 over F_2
    with pytest.raises(VerificationError, match="order 5 < 15"):
        Extension(F2, (1, 1, 1, 1, 1))


def test_ff_scan_refuses_tables_above_the_cap():
    assert 4**10 == _ORBIT_CAP   # the last degree under the cap for Q = 4
    with pytest.raises(ValueError, match="orbit-table cap"):
        ff_scan(CONSTR, 11, A_POLY, B_POLY)


def test_ff_scan_frozen_counts():
    for N, (total, count, _) in FROZEN_SCAN.items():
        scan = scan_of(N)
        assert scan.total_irreducible == total
        assert scan.count == count
        assert scan.total_irreducible == irreducible_count(4, N)
        assert scan.count <= scan.total_irreducible
        assert abs(scan.count - scan.predicted) <= 5 * 4 ** (N / 2)


def test_ff_direct_verify_frozen():
    for N, (_, count, deg) in FROZEN_SCAN.items():
        if deg is None:
            continue
        res = ff_direct_verify(CONSTR, N, A_POLY, B_POLY, scan_of(N))
        assert res.deg_gcd == deg
        assert res.certified_bound == N * count
        assert res.deg_gcd >= res.certified_bound
        assert res.ratio_to_n == deg / res.n


def test_ff_direct_verify_cap():
    with pytest.raises(ValueError, match="cap"):
        ff_direct_verify(CONSTR, 4, A_POLY, B_POLY, scan_of(4), n_cap=50)


def test_ff_equivalence():
    # scan <=> exact divisibility for every irreducible pi, degrees 1..4
    for N in range(1, 5):
        checked, mismatches = ff_equivalence_check(CONSTR, N, A_POLY, B_POLY, scan_of(N))
        assert mismatches == []
        assert checked >= FROZEN_SCAN[N][1]


def test_ff_direct_verify_names_a_qualifying_pi_that_does_not_divide():
    scan = scan_of(3)
    extra = next(pi for pi in monic_polys(CONSTR.big, 3)
                 if irreducible_test(pi) and pi.coeffs not in scan.qualifying)
    # placed first and then last, so a product that loses either end still fails
    for qualifying in ((extra.coeffs,) + scan.qualifying, scan.qualifying + (extra.coeffs,)):
        doctored = replace(scan, qualifying=qualifying, count=scan.count + 1)
        with pytest.raises(VerificationError, match=re.escape(f"qualifying pi = {extra} does not divide")):
            ff_direct_verify(CONSTR, 3, A_POLY, B_POLY, doctored)
    # a qualifying pi listed twice divides the gcd, but its square does not
    twice = replace(scan, qualifying=scan.qualifying + scan.qualifying[:1])
    with pytest.raises(VerificationError, match="product of the qualifying pi"):
        ff_direct_verify(CONSTR, 3, A_POLY, B_POLY, twice)


def test_ff_equivalence_names_the_pi_a_doctored_scan_gets_wrong():
    scan = scan_of(3)
    dropped = scan.qualifying[4]
    rest = tuple(c for c in scan.qualifying if c != dropped)
    assert ff_equivalence_check(CONSTR, 3, A_POLY, B_POLY, replace(scan, qualifying=rest))[1] == [dropped]
    extra = next(pi.coeffs for pi in monic_polys(CONSTR.big, 3)
                 if irreducible_test(pi) and pi.coeffs not in scan.qualifying)
    doctored = replace(scan, qualifying=tuple(sorted(scan.qualifying + (extra,))))
    assert ff_equivalence_check(CONSTR, 3, A_POLY, B_POLY, doctored)[1] == [extra]
    t = (0, 1)   # T divides the base a, so it never qualifies
    doctored = replace(scan_of(1), qualifying=scan_of(1).qualifying + (t,))
    assert ff_equivalence_check(CONSTR, 1, A_POLY, B_POLY, doctored)[1] == [t]


def test_ff_identical_bases_gcd_is_whole_value():
    res = ff_direct_verify(CONSTR, 1, A_POLY, A_POLY, ff_scan(CONSTR, 1, A_POLY, A_POLY))
    # gcd = Phi_3(a^n) itself: degree phi(3) * n * deg(a)
    assert res.deg_gcd == 2 * res.n * A_POLY.degree


def test_ff_hypothesis_gates():
    with pytest.raises(HypothesisError, match="monic"):
        ff_scan(CONSTR, 1, FqPolynomial.one(F2), B_POLY)
    cube = poly_pow(B_POLY, 3)
    with pytest.raises(HypothesisError, match="l-th power"):
        ff_scan(CONSTR, 1, cube, B_POLY)


def test_ff_pair_verify_refuses_a_base_over_another_field():
    # the base gate check_ff_bases, which every ff entry point runs first
    with pytest.raises(ValueError, match="a is not over the base field"):
        ff_scan(CONSTR, 2, P(F4, 0, 1), B_POLY)


def test_eval_poly_fq_in_extension():
    # Phi_3(T) factors into the two qualifying linears over F_4
    phi3 = eval_poly_fq(3, FqPolynomial.variable(F4))
    roots = [z for z in range(4) if _eval(phi3, z) == 0]
    assert roots == [2, 3]


def _eval(f, z):
    acc = 0
    for c in reversed(f.coeffs):
        acc = f.ctx.add(f.ctx.mul(acc, z), c)
    return acc
