"""F_{Q^N} by exp/log tables of a generator, and its Frobenius orbits.

The monic irreducibles of degree N over F_Q are the minimal polynomials of
the orbits of z -> z^Q on the elements of F_{Q^N} of degree exactly N over
F_Q, one orbit each (Lidl & Niederreiter, *Finite Fields*, ch. 3).  With a
generator y, the orbit of y^L is the cyclotomic coset L Q^i mod (Q^N - 1),
so the orbits are read off the exponents alone and the logarithm tables turn
each power-residue test at a root into a divisibility test on its exponent.
"""

from array import array

from .errors import VerificationError


class Extension:
    """F_{Q^N} as F_Q[y]/(mu) for a monic mu of degree N over the field
    context `base` (F_Q) in which y is primitive.

    Elements are encoded base Q, constant digit first, each digit in the
    encoding of F_Q, so the elements below Q are F_Q itself.  exp[k] = y^k
    for 0 <= k < Q^N - 1 and log inverts it on the nonzero elements.
    """

    def __init__(self, base, mu: tuple[int, ...]):
        Q, N = base.q, len(mu) - 1
        self.base, self.N, self.order = base, N, Q**N - 1
        # y * v moves the digits of v up one place; the top digit c comes
        # back as c * y^N = -c * (mu_0 + ... + mu_{N-1} y^(N-1))
        top = Q ** (N - 1)
        wrap = [sum(base.sub(0, base.mul(c, m)) * Q**i for i, m in enumerate(mu[:N])) for c in range(Q)]
        self.exp = array("l", [0]) * self.order
        self.log = array("l", [0]) * (self.order + 1)
        v = 1
        for k in range(self.order):
            if v == 1 and k:
                raise VerificationError(f"y has order {k} < {self.order} modulo {mu}: it is not primitive")
            self.exp[k] = v
            self.log[v] = k
            v = self.add(v % top * Q, wrap[v // top])

    def _digitwise(self, op, x: int, y: int) -> int:
        Q, out, unit = self.base.q, 0, 1
        while x or y:
            x, dx = divmod(x, Q)
            y, dy = divmod(y, Q)
            out += op(dx, dy) * unit
            unit *= Q
        return out

    def add(self, x: int, y: int) -> int:
        return self._digitwise(self.base.add, x, y)

    def sub(self, x: int, y: int) -> int:
        return self._digitwise(self.base.sub, x, y)

    def mul(self, x: int, y: int) -> int:
        if not x or not y:
            return 0
        return self.exp[(self.log[x] + self.log[y]) % self.order]

    def eval(self, coeffs: tuple[int, ...], theta: int) -> int:
        """f(theta) for f over F_Q given by its coefficients, constant first."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, theta), c)
        return acc

    def min_poly(self, orbit: tuple[int, ...]) -> tuple[int, ...]:
        """The coefficients of prod (X - z) over the orbit, which lie in F_Q."""
        coeffs = [1]
        for z in orbit:
            coeffs = [self.sub(lo, self.mul(z, hi)) for lo, hi in zip([0] + coeffs, coeffs + [0])]
        if any(c >= self.base.q for c in coeffs):
            raise VerificationError(f"the orbit of {orbit[0]} in F_{{{self.base.q}^{self.N}}} has a "
                                    f"coefficient outside F_{self.base.q}")
        return tuple(coeffs)


def frobenius_orbits(ext: Extension):
    """The orbits of z -> z^Q on the elements of degree exactly N over F_Q,
    each as the tuple of its conjugates z, z^Q, ...; for N = 1 the orbit of
    0 comes first."""
    if ext.N == 1:
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
        if len(coset) == ext.N:
            yield tuple(ext.exp[j] for j in coset)
