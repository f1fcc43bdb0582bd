"""Explicit finite fields: the integers in [0, q) with table arithmetic.

`FieldContext(p)` is the prime field F_p, computed modulo p.  Every other
field is `FieldContext(base, mu)` = base[y]/(mu) for a monic irreducible mu
over a subfield `base`, in which y is primitive, with exp/log/Zech tables
built one lookup step per element.  Which mu builds each level of the tower
F_p ⊂ F_q ⊂ F_Q ⊂ F_{Q^N}, and the cap on the table size, are `ffield`'s
(`fq_context`, `extension`).
"""

from array import array

from .arith import is_prime
from .errors import VerificationError


class FieldContext:
    """An explicit finite field; elements are the integers in [0, q).

    `FieldContext(p)` is the prime field F_p, computed modulo p.  Every other
    field is `FieldContext(base, mu)` = F_s[y]/(mu) for a monic irreducible mu
    of degree N over a subfield `base` of size s, in which y is primitive.
    Its elements are encoded base s, constant digit first, each digit in the
    encoding of the base, so the elements below s are the base itself and
    those below p are F_p.  exp[k] = y^k for 0 <= k < q - 1, log inverts it
    on the nonzero elements, and the Zech logarithms zech[k] = log(1 + y^k)
    (-1 where 1 + y^k = 0) make each operation a few table lookups.
    """

    def __init__(self, base: "FieldContext | int", mu: tuple[int, ...] = ()):
        if isinstance(base, int):
            if not is_prime(base):
                raise ValueError(f"characteristic {base} is not prime")
            self.p, self.e, self.q, self.base, self.modulus, self.zech = base, 1, base, None, (), None
            return
        s, N, p = base.q, len(mu) - 1, base.p
        self.p, self.e, self.q = p, base.e * N, s**N
        self.base, self.modulus, self.degree, self.order = base, tuple(mu), N, s**N - 1
        order, top = self.order, s ** (N - 1)
        # y v moves the digits of v up one place, and the top digit c comes
        # back as w[c] = c y^N = -c (mu_0 + ... + mu_{N-1} y^(N-1)), added
        # digit by digit mod p: the encoding is F_p-linear
        w = [sum(base.sub(0, base.mul(c, m)) * s**i for i, m in enumerate(mu[:N])) for c in range(s)]
        exp = self.exp = array("i", [0]) * order
        log = self.log = array("i", [0]) * self.q
        v = 1
        if p == 2 or N == 1:  # the digit-wise sum is xor; for N = 1 the shifted part is 0
            for k in range(order):
                exp[k] = v
                log[v] = k
                v = v % top * s ^ w[v // top]
        else:
            split, hi, lo = _step_tables(p, s, base.e * (N - 1), w)
            for k in range(order):
                exp[k] = v
                log[v] = k
                v = hi[v // split] + lo[v // top * split + v % split]
            del hi, lo  # freed before the Zech table is allocated
        if v != 1 or log[1]:  # y returned to 1 early, or not at all
            early = next((k for k in range(1, order) if exp[k] == 1), None)
            reason = f"y has order {early} < {order}" if early else f"y^{order} != 1"
            raise VerificationError(f"{reason} modulo {mu}: it is not primitive")
        # 1 + y^k differs from y^k in the constant digit only, which is 0
        # again (1 + y^k = 0) exactly at y^k = -1 = y^half
        self.half = order // 2 if p > 2 else 0
        self.zech = zech = array("i")
        for i in range(0, order, 1 << 12):  # in chunks, so no list of q ints is held at once
            zech.fromlist([log[v + 1] if v % p < p - 1 else log[v + 1 - p] for v in exp[i:i + (1 << 12)]])
        zech[self.half] = -1

    def __repr__(self):
        return f"FieldContext(GF({self.q}))"

    # A negative index into exp or zech wraps around modulo q - 1, which
    # reduces the sums and differences of logarithms below.
    def add(self, x: int, y: int) -> int:
        if self.zech is None:
            return (x + y) % self.p
        if not x:
            return y
        if not y:
            return x
        lx = self.log[x]
        z = self.zech[self.log[y] - lx]  # x + y = x (1 + y/x)
        return self.exp[lx + z - self.order] if z >= 0 else 0

    def sub(self, x: int, y: int) -> int:
        if self.zech is None:
            return (x - y) % self.p
        if y:
            y = self.exp[self.log[y] + self.half - self.order]
        return self.add(x, y)

    def mul(self, x: int, y: int) -> int:
        if self.zech is None:
            return x * y % self.p
        if not x or not y:
            return 0
        return self.exp[self.log[x] + self.log[y] - self.order]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self.zech is None:
            return pow(x, -1, self.p)
        return self.exp[-self.log[x]]

    def add_scaled(self, acc: list[int], shift: int, c: int, coeffs) -> None:
        """acc[shift + j] += c * coeffs[j] for every j, in place: the inner
        loop of polynomial arithmetic, without a call per coefficient."""
        if self.zech is None:
            p = self.p
            for j, v in enumerate(coeffs, shift):
                acc[j] = (acc[j] + c * v) % p
            return
        if not c:
            return
        exp, log, zech, order, lc = self.exp, self.log, self.zech, self.order, self.log[c]
        for j, v in enumerate(coeffs, shift):
            if v:
                lw = (lc + log[v]) % order  # w = c v
                a = acc[j]
                if not a:
                    acc[j] = exp[lw]
                else:
                    z = zech[log[a] - lw]  # a + w = w (1 + a/w)
                    acc[j] = exp[lw + z - order] if z >= 0 else 0

    def eval(self, coeffs: tuple[int, ...], x: int) -> int:
        """f(x) for f given by its coefficients, constant first, in this field
        or a subfield."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc


def _plus(w: int, p: int, m: int, unit: int, offset: int) -> list[int]:
    """offset + (x + w) unit, the sum digit by digit mod p, for every x of
    m base-p digits, by x."""
    out = [offset]
    for _ in range(m):
        w, d = divmod(w, p)
        out = [x + (d + t) % p * unit for t in range(p) for x in out]
        unit *= p
    return out


def _step_tables(p: int, s: int, R: int, w: list[int]) -> tuple[int, array, array]:
    """(split, hi, lo) with y v = hi[v // split] + lo[c split + v % split]
    in F_{s^N} over F_s, for the top digit c of v, odd p and the R >= 1
    base-p digits of v below c.

    y v = (v mod s^(N-1)) s + w[c], added digit by digit mod p.  Below the
    place P = split s that sum depends on c and v mod split only, above it
    on v // split, which holds c.  split = p^j for j = R // 2, so the tables
    hold s (p^j + p^(R-j)) entries: fewer than q - 1 once R >= 2, and q + s
    for F_{p^2} over F_p (R = 1).
    """
    j = R // 2
    split, P = p**j, p**j * s
    lo, hi = array("i"), array("i")
    for c in range(s):
        lo.fromlist(_plus(w[c] % P // s, p, j, s, w[c] % s))
        hi.fromlist(_plus(w[c] // P, p, R - j, P, 0))
    return split, hi, lo
