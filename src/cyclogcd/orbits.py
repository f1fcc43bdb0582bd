"""The Frobenius orbits of F_{Q^N} and their minimal polynomials.

The monic irreducibles of degree N over F_Q are the minimal polynomials of
the orbits of z -> z^Q on the elements of F_{Q^N} of degree exactly N over
F_Q, one orbit each (Lidl & Niederreiter, *Finite Fields*, ch. 3).  With a
generator y, the orbit of y^L is the cyclotomic coset L Q^i mod (Q^N - 1),
so the orbits are read off the exponents alone and the logarithm tables turn
each power-residue test at a root into a divisibility test on its exponent.
`ext` below is F_{Q^N} as a `ffield.FieldContext` of degree N over F_Q.
"""

from .errors import VerificationError


def min_poly(ext, orbit: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients of prod (X - z) over the orbit, which lie in F_Q."""
    coeffs = [1]
    for z in orbit:
        shifted = [0] + coeffs  # X * coeffs - z * coeffs
        ext.add_scaled(shifted, 0, ext.sub(0, z), coeffs)
        coeffs = shifted
    if any(c >= ext.base.q for c in coeffs):
        raise VerificationError(f"the orbit of {orbit[0]} in F_{{{ext.base.q}^{ext.degree}}} has a "
                                f"coefficient outside F_{ext.base.q}")
    return tuple(coeffs)


def frobenius_orbits(ext):
    """The orbits of z -> z^Q on the elements of degree exactly N over F_Q,
    each as the tuple of its conjugates z, z^Q, ...; for N = 1 the orbit of
    0 comes first."""
    if ext.degree == 1:
        yield (0,)
    Q, order = ext.base.q, ext.order
    seen = bytearray(order)
    for L in range(order):
        if seen[L]:
            continue
        coset = [L]
        j = L * Q % order
        while j != L:
            coset.append(j)
            j = j * Q % order
        for j in coset:
            seen[j] = 1
        if len(coset) == ext.degree:
            yield tuple(ext.exp[j] for j in coset)
