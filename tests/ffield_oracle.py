"""The independent exact-divisibility oracle over F_q[T], for the tests.

No command runs it: `ff-verify` finds the qualifying pi as Frobenius orbits
and certifies them by one division.  Here Rabin's test picks the irreducible
pi out of the monic polynomials by index, and `ff_equivalence_check`
rebuilds the qualifying set from exact remainders alone.
"""

from cyclogcd.arith import factorize
from cyclogcd.cyclotomic import eval_poly_fq
from cyclogcd.errors import VerificationError
from cyclogcd.ffield import FFScanResult, _monic_by_index
from cyclogcd.fqpoly import FqPolynomial, _powmod, poly_gcd, poly_pow


def poly_powmod(base: FqPolynomial, exponent: int, modulus: FqPolynomial) -> FqPolynomial:
    """base**exponent mod modulus; exponent may be Q^N sized.  The modulus
    reduces by its monic associate, the base once up front."""
    if modulus.degree < 1:
        raise ValueError("modulus must have degree at least 1")
    ctx, mu = base.ctx, modulus.monic()
    neg_low = [ctx.sub(0, c) for c in mu.coeffs[:-1]]
    return FqPolynomial._trimmed(ctx, _powmod(ctx, (base % mu).coeffs, exponent, neg_low))


def irreducible_test(f: FqPolynomial) -> bool:
    """Rabin irreducibility test for a monic polynomial of degree >= 1."""
    if f.degree < 1:
        raise ValueError("irreducibility is tested on degree >= 1")
    if not f.is_monic:
        raise ValueError("irreducibility test expects a monic polynomial")
    ctx = f.ctx
    n = f.degree
    x = FqPolynomial.variable(ctx)
    minus_x = FqPolynomial(ctx, (0, ctx.sub(0, 1)))
    frob = [x % f]  # frob[j] = T^(q^j) mod f
    for _ in range(n):
        frob.append(poly_powmod(frob[-1], ctx.q, f))
    if frob[n] != x % f:
        return False
    for l in factorize(n).primes():
        if poly_gcd(frob[n // l] + minus_x, f).degree != 0:
            return False
    return True


def ff_equivalence_check(scan: FFScanResult) -> tuple[int, list[tuple[int, ...]]]:
    """Check a scan against exact divisibility, without the power criterion.

    Every monic irreducible pi of degree N over F_Q not dividing ab is tested
    for pi | gcd(Phi_m(a^n), Phi_m(b^n)) by exact remainders of both values.
    Returns (number of pi checked, the sorted coefficient tuples of the pi
    on which the dividing set and scan.qualifying differ).
    """
    constr = scan.constr
    value_a = constr.lift(eval_poly_fq(constr.m, poly_pow(scan.a, scan.n)))
    value_b = constr.lift(eval_poly_fq(constr.m, poly_pow(scan.b, scan.n)))
    a_big, b_big = constr.lift(scan.a), constr.lift(scan.b)
    checked = 0
    dividing = set()
    monics = (FqPolynomial(constr.big, mu) for mu in _monic_by_index(constr.Q, scan.N))
    for pi in filter(irreducible_test, monics):
        divides = (value_a % pi).is_zero and (value_b % pi).is_zero
        if (a_big % pi).is_zero or (b_big % pi).is_zero:
            # pi | base implies Phi_m(base^n) = Phi_m(0) = +-1 mod pi, never 0
            if divides:
                raise VerificationError(f"pi = {pi} divides despite dividing a base")
            continue
        checked += 1
        if divides:
            dividing.add(pi.coeffs)
    return checked, sorted(dividing.symmetric_difference(scan.qualifying))
