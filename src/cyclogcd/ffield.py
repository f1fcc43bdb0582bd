"""Finite fields F_{p^e}, dense polynomials over them, and the linear
degree-growth construction over F_q[T].

The fields form one tower F_p ⊂ F_q ⊂ F_Q ⊂ F_{Q^N}: each level is
`extension(base, N)` = base[y]/(mu), with mu the first monic irreducible of
degree N by index in which y is primitive (see `_primitive_modulus`), so
every run and every implementation of this convention agrees on element
encodings, and each subfield is the set of elements below its size.  The
search skips, before any powmod, each mu whose norm (-1)^N mu(0) is not
primitive in F_Q, each mu in F_Q[T^d] for some d > 1, and for N >= 2 each
mu with a root in F_Q.  All three are necessary conditions for T to be
primitive modulo mu, so they never skip the modulus the unfiltered search
would find.

The construction machinery picks (r, t, Q) from (q, k, n_0, m) so that
n = (Q^N - 1)/(mr) is forced into the congruence class n_0 mod q^k, scans
the monic irreducible pi of degree N over F_Q as the Frobenius orbits of
F_{Q^N}, one coset leader L each, qualifies each by the discrete
logarithms of the bases at its root y^L, and certifies
deg gcd(Phi_m(a^n), Phi_m(b^n)) >= N * (number of qualifying pi) by exact
polynomial arithmetic, with one division by their product.  The Moebius
formula checks the scan's orbit count; `ff_equivalence_check` rebuilds
the qualifying set by exact divisibility alone, as an oracle.
"""

import itertools
import math
import sys
from array import array
from functools import cached_property, lru_cache
from typing import NamedTuple

from .arith import factorize, is_prime, moebius
from .cyclotomic import eval_poly_fq
from .errors import HypothesisError, VerificationError

_FIELD_CAP = 2**20  # the largest field whose exp/log/Zech tables are built


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


def _width(bound: int) -> int:
    """The bytes per slot that hold every value up to bound."""
    return max(1, (bound.bit_length() + 7) // 8)


def _pack(digits, w: int) -> int:
    """The int whose w-byte slots, lowest first, hold digits: bytes or a
    bytearray, or a sequence of ints below 2^64 (below 256 if w is 1)."""
    if w == 1:
        return int.from_bytes(bytes(digits), "little")
    if isinstance(digits, (bytes, bytearray)):
        buf = bytearray(len(digits) * w)
        buf[::w] = digits
    else:
        words = array("Q", digits)
        if sys.byteorder == "big":
            words.byteswap()
        raw, buf = words.tobytes(), bytearray(len(digits) * w)
        for b in range(min(w, 8)):
            buf[b::w] = raw[b::8]
    return int.from_bytes(buf, "little")


def _unpack(raw: bytes, w: int):
    """The w-byte slots of raw, lowest first, as a sequence of ints."""
    if w == 1:
        return raw
    if w > 8:
        return [int.from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)]
    buf = bytearray(len(raw) // w * 8)
    for b in range(w):
        buf[b::8] = raw[b::w]
    words = array("Q", buf)
    if sys.byteorder == "big":
        words.byteswap()
    return words


# cached here, not on the FieldContext: an attribute set after __init__
# changes the shared instance layout and slows the table scans that follow
@lru_cache(maxsize=None)
def _planes_of(ctx: FieldContext) -> "_DigitPlanes":
    return _DigitPlanes(ctx)


class _DigitPlanes:
    """Polynomial arithmetic over one field F_{p^E} on packed digits.

    The encoding is F_p-linear: the base-p digits of an element are its
    coordinates in the basis e_i = p^i, and addition is digit-wise mod p.  A
    polynomial is packed into one int with one w-byte slot per digit,
    constant first (Kronecker substitution), so big-int arithmetic does the
    per-coefficient work, and no slot carries into the next while every
    slot stays below 256^w.  Division packs the E digits of a coefficient
    side by side; multiplication splits them into E digit planes, the
    polynomials over F_p of the k-th digits.  It is bilinear, e_i e_j =
    sum_k C[i][j][k] e_k with C[i][j] = mul(p^i, p^j), so a product is E^2
    big-int products combined by C, reduced mod p once at the end.
    """

    def __init__(self, ctx: FieldContext):
        p, E = ctx.p, ctx.e
        self.ctx, self.p, self.E = ctx, p, E
        self.powers = [p**k for k in range(E)]
        C = [[[ctx.mul(a, b) // c % p for c in self.powers] for b in self.powers] for a in self.powers]
        # digit k of e_i x is the sum of C[i][j][k] (digit j of x): (i, j, k, C[i][j][k])
        self.mix = [(i, j, k, C[i][j][k]) for i in range(E) for j in range(E) for k in range(E)
                    if C[i][j][k]]
        # a product term of two polynomials with digits below p adds at most
        # this much to a slot
        self.growth = (p - 1) ** 2 * max(sum(c for _, _, k, c in self.mix if k == K) for K in range(E))
        # a division step adds one such product term (see reduce): division
        # slots hold a digit plus at least four steps, and take `lazy` steps
        # before the digits must be reduced
        self.width = _width(p - 1 + 4 * self.growth)
        self.lazy = (256**self.width - p) // self.growth
        self.wq = _width(ctx.q - 1)  # join: sum_k d_k p^k < q, so no slot carries
        self.mod_byte = bytes(v % p for v in range(256))  # one-byte slots reduce by translate
        # digit k of each element of a field of at most 256, by translate
        self.tables = ([bytes(v // c % p for v in range(256)) for c in self.powers]
                       if E > 1 and ctx.q <= 256 else None)
        self.one = 0  # digit 0 of every coefficient, for as many as needed so far (see multiples)

    def planes(self, coeffs) -> list:
        """The digit planes of a sequence of field elements: plane k holds
        their k-th base-p digits (over a prime field, the elements)."""
        if self.E == 1:
            return [coeffs]
        if self.tables:
            raw = bytes(coeffs)
            return [raw.translate(t) for t in self.tables]
        p = self.p
        return [[v // c % p for v in coeffs] for c in self.powers]

    def join(self, planes) -> list[int]:
        """The field elements whose k-th digits are planes[k]."""
        if self.E == 1:
            return list(planes[0])
        wq = self.wq
        x = sum(_pack(d, wq) * c for d, c in zip(planes, self.powers))
        return list(_unpack(x.to_bytes(len(planes[0]) * wq, "little"), wq))

    def digits(self, x: int, count: int, w: int):
        """The first count w-byte slots of x, reduced mod p: bytes when p < 256."""
        raw = x.to_bytes(count * w, "little")
        if w == 1:
            return raw.translate(self.mod_byte)
        d = [v % self.p for v in _unpack(raw, w)]
        return bytes(d) if self.p < 256 else d

    def pack(self, coeffs) -> int:
        """A polynomial as one int at the division width, the E digits of
        each coefficient side by side."""
        E = self.E
        if E == 1:
            return _pack(coeffs, self.width)
        out = [0] * (len(coeffs) * E)
        for k, d in enumerate(self.planes(coeffs)):
            out[k::E] = d
        return _pack(out, self.width)

    def unpack(self, x: int, n: int) -> list[int]:
        """The first n coefficients of a polynomial packed at the division width."""
        d = self.digits(x, n * self.E, self.width)
        return self.join([d[k::self.E] for k in range(self.E)])

    def lead(self, x: int, n: int) -> int:
        """The coefficient n - 1 of a reduced packed polynomial of n coefficients."""
        bits = 8 * self.width
        v = x >> (n - 1) * self.E * bits
        c = 0
        for d in self.powers:
            c += (v & (1 << bits) - 1) * d
            v >>= bits
        return c

    def multiples(self, x: int, n: int) -> list[int]:
        """e_i x for each basis element e_i, packed but not reduced, for the
        packed and reduced x of n coefficients: digit k of e_i x is
        sum_j C[i][j][k] x_j, so f x = sum_i f_i (e_i x) over the digits f_i
        of f adds at most `growth` to a slot."""
        E, w = self.E, self.width
        if E == 1:  # C = [[1]]
            return [x]
        bits = 8 * w
        if self.one >> (n - 1) * E * bits == 0:  # extend the mask, doubling it
            self.one = int.from_bytes((b"\xff" * w + bytes(w * (E - 1))) * (2 * n), "little")
        x = [x >> j * bits & self.one for j in range(E)]
        out = [0] * E
        for i, j, k, c in self.mix:
            out[i] += c * x[j] << k * bits
        return out

    def mul(self, a, b) -> list[int]:
        """The coefficients of a * b, for nonempty coefficient sequences."""
        E = self.E
        n, w = len(a) + len(b) - 1, _width(min(len(a), len(b)) * self.growth)
        A = [_pack(d, w) for d in self.planes(a)]
        B = [_pack(d, w) for d in self.planes(b)]
        if E == 1:  # C = [[1]]: one product
            return list(self.digits(A[0] * B[0], n, w))
        # plane k of the product is sum_i A_i (plane k of e_i B)
        Bx = [[0] * E for _ in range(E)]
        for i, j, k, c in self.mix:
            Bx[i][k] += c * B[j]
        H = [0] * E
        for x, row in zip(A, Bx):
            if x:
                for k, y in enumerate(row):
                    H[k] += x * y
        return self.join([self.digits(h, n, w) for h in H])

    def reduce(self, R: int, n: int, B: int, m: int) -> int:
        """R mod B, packed and reduced, for the packed and reduced R of n
        coefficients and B of m.

        Each step adds -(r / b) B under the top coefficient r of R, b the
        lead of B: one shifted big-int add, over F_p of (p - r / b) B, else
        of sum_k (p - r_k)(e_k M) over the nonzero digits r_k of r, with
        M = B / b and its multiples e_k M built once.  The steps work on a
        window of the top slots, so a step costs O(m), not O(n), and the
        window's digits are reduced after at most `lazy` steps, which keeps
        every slot below 256^width.
        """
        p, E, w, powers = self.p, self.E, self.width, self.powers
        bits = 8 * w
        top, span = (1 << bits) - 1, E * bits
        inv = self.ctx.inv(self.lead(B, m))
        if E > 1 and inv != 1:  # M = sum_k (digit k of 1 / b)(e_k B), reduced
            M = sum(inv // d % p * x for d, x in zip(powers, self.multiples(B, m)))
            B = _pack(self.digits(M, m * E, w), w)
        terms = self.multiples(B, m)
        # a window spans at least 128 steps, so splitting R costs O(n / 128) per step
        lazy, chunk = self.lazy, max(m, 128)
        while n >= m:
            steps = min(chunk, n - m + 1)
            base = n - steps - m + 1  # the lowest coefficient the window's steps touch
            win, R = R >> base * span, R & ((1 << base * span) - 1)
            for first in range(steps + m - 2, m - 2, -lazy):
                for pos in range(first, max(first - lazy, m - 2), -1):
                    v = win >> pos * span
                    if E == 1:
                        c = (v & top) * inv % p
                        if c:
                            win += (p - c) * B << (pos - m + 1) * span
                    else:
                        add = 0
                        for x in terms:
                            d = (v & top) % p
                            v >>= bits
                            if d:
                                add += (p - d) * x
                        if add:
                            win += add << (pos - m + 1) * span
                # the eliminated coefficients reduce to 0
                win = _pack(self.digits(win, (steps + m - 1) * E, w), w)
            R |= win << base * span
            n -= steps
        return R


class FqPolynomial(NamedTuple):
    """Dense polynomial over a FieldContext; coeffs ascending, trimmed.

    Two are equal, and hash alike, exactly when their fields and their
    coefficients are.  The zero polynomial has empty coeffs and degree -1,
    distinct from the nonzero constants of degree 0.  Products and
    remainders run on packed big-int digits (`_DigitPlanes`).
    """

    ctx: FieldContext
    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, ctx: FieldContext, coeffs) -> "FqPolynomial":
        coeffs = list(coeffs)
        if any(not 0 <= c < ctx.q for c in coeffs):
            raise ValueError("coefficient out of field range")
        return cls._trimmed(ctx, coeffs)

    @classmethod
    def _trimmed(cls, ctx: FieldContext, coeffs: list) -> "FqPolynomial":
        # for lists of field elements the arithmetic built, so in range by
        # construction; drops the trailing zeros in place
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(ctx, tuple(coeffs))

    @classmethod
    def constant(cls, ctx: FieldContext, c: int) -> "FqPolynomial":
        # integer constants land in the prime subfield, whose elements encode
        # as themselves
        return cls.of(ctx, (c % ctx.p,))

    @classmethod
    def zero(cls, ctx: FieldContext) -> "FqPolynomial":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldContext) -> "FqPolynomial":
        return cls(ctx, (1,))

    @classmethod
    def variable(cls, ctx: FieldContext) -> "FqPolynomial":
        return cls(ctx, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _require_same_ctx(self, other):
        if self.ctx is not other.ctx:
            raise ValueError("polynomials live over different field contexts")

    def __add__(self, other: "FqPolynomial") -> "FqPolynomial":
        self._require_same_ctx(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        ctx.add_scaled(out, 0, 1, b)
        return FqPolynomial._trimmed(ctx, out)

    def __neg__(self) -> "FqPolynomial":
        ctx = self.ctx
        return FqPolynomial(ctx, tuple(ctx.sub(0, c) for c in self.coeffs))

    def __sub__(self, other: "FqPolynomial") -> "FqPolynomial":
        return self + (-other)

    def __mul__(self, other: "FqPolynomial") -> "FqPolynomial":
        self._require_same_ctx(other)
        ctx = self.ctx
        if self.is_zero or other.is_zero:
            return FqPolynomial.zero(ctx)
        return FqPolynomial._trimmed(ctx, _planes_of(ctx).mul(self.coeffs, other.coeffs))

    def __mod__(self, other: "FqPolynomial") -> "FqPolynomial":
        self._require_same_ctx(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        n, m = len(self.coeffs), len(other.coeffs)
        if n < m:
            return self
        ctx = self.ctx
        kernel = _planes_of(ctx)
        rem = kernel.reduce(kernel.pack(self.coeffs), n, kernel.pack(other.coeffs), m)
        return FqPolynomial._trimmed(ctx, kernel.unpack(rem, m - 1))

    def monic(self) -> "FqPolynomial":
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic associate")
        if self.is_monic:
            return self
        ctx = self.ctx
        inv = ctx.inv(self.coeffs[-1])
        return FqPolynomial(ctx, tuple(ctx.mul(c, inv) for c in self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "1" if i == 0 else ("T" if i == 1 else f"T^{i}")
            if i > 0 and c != 1:
                term = f"{c}*{term}"
            elif i == 0:
                term = str(c)
            parts.append(term)
        return " + ".join(parts)


def poly_pow(f: FqPolynomial, n: int) -> FqPolynomial:
    """Exact n-th power (no reduction), by the base-q digits d_i of n.

    Over F_q, f(T)^q = f(T^q), so f^n is the product over i of
    (f^(d_i))(T^(q^i)): one power below q per digit, by square-and-multiply,
    its coefficients spread q^i places apart.
    """
    ctx = f.ctx
    result, spread = None, 1  # None stands for 1, which is never multiplied
    while n:
        n, d = divmod(n, ctx.q)
        if d:
            g, h = None, f
            while d:
                if d & 1:
                    g = h if g is None else h * g
                d >>= 1
                if d:
                    h = h * h
            coeffs = [0] * (spread * g.degree + 1)
            coeffs[::spread] = g.coeffs
            factor = FqPolynomial(ctx, tuple(coeffs))
            result = factor if result is None else factor * result
        spread *= ctx.q
    return FqPolynomial.one(ctx) if result is None else result


# short moduli stay on lists: on the packed kernel (* then %) the modulus search ran 3-40x slower
def _mulmod(ctx: FieldContext, x, y, neg_low: list) -> list:
    """x * y mod mu for residues x, y: at most deg mu coefficients, constant
    first; neg_low holds -mu_0, ..., -mu_{N-1} of the monic mu.  Each product
    term c T^i at i >= N folds back as c T^(i-N) (-mu_0 - ... - mu_{N-1} T^(N-1)),
    from the top down.  Only the nonzero coefficients of x cost a pass."""
    N = len(neg_low)
    prod = [0] * (2 * N - 1)
    for i, u in enumerate(x):
        if u:
            ctx.add_scaled(prod, i, u, y)
    for i in range(2 * N - 2, N - 1, -1):
        if prod[i]:
            ctx.add_scaled(prod, i - N, prod[i], neg_low)
    del prod[N:]
    return prod


def _powmod(ctx: FieldContext, x, exponent: int, neg_low: list) -> list:
    """x^exponent mod mu on residues, as in _mulmod, by left-to-right binary
    powering; each multiply takes x as the operand whose zeros are skipped."""
    result = [1] + [0] * (len(neg_low) - 1)
    for bit in bin(exponent)[2:]:
        result = _mulmod(ctx, result, result, neg_low)
        if bit == "1":
            result = _mulmod(ctx, x, result, neg_low)
    return result


def poly_powmod(base: FqPolynomial, exponent: int, modulus: FqPolynomial) -> FqPolynomial:
    """base**exponent mod modulus; exponent may be Q^N sized.  The modulus
    reduces by its monic associate, the base once up front."""
    if modulus.degree < 1:
        raise ValueError("modulus must have degree at least 1")
    ctx, mu = base.ctx, modulus.monic()
    neg_low = [ctx.sub(0, c) for c in mu.coeffs[:-1]]
    return FqPolynomial._trimmed(ctx, _powmod(ctx, (base % mu).coeffs, exponent, neg_low))


def poly_gcd(f: FqPolynomial, g: FqPolynomial) -> FqPolynomial:
    """Monic gcd by Euclid's algorithm, on packed digits throughout."""
    f._require_same_ctx(g)
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if g.is_zero:
        return f.monic()
    ctx = f.ctx
    kernel = _planes_of(ctx)
    span = 8 * kernel.width * kernel.E  # bits per coefficient
    F, nf = kernel.pack(f.coeffs), len(f.coeffs)
    G, ng = kernel.pack(g.coeffs), len(g.coeffs)
    while ng:
        R = kernel.reduce(F, nf, G, ng)
        F, nf, G, ng = G, ng, R, (R.bit_length() + span - 1) // span
    return FqPolynomial(ctx, tuple(kernel.unpack(F, nf))).monic()


def irreducible_test(f: FqPolynomial) -> bool:
    """Rabin irreducibility test for a monic polynomial of degree >= 1."""
    if f.degree < 1:
        raise ValueError("irreducibility is tested on degree >= 1")
    if not f.is_monic:
        raise ValueError("irreducibility test expects a monic polynomial")
    ctx = f.ctx
    n = f.degree
    x = FqPolynomial.variable(ctx)
    frob = [x % f]  # frob[j] = T^(q^j) mod f
    for _ in range(n):
        frob.append(poly_powmod(frob[-1], ctx.q, f))
    if frob[n] != x % f:
        return False
    for l in factorize(n).primes():
        if poly_gcd(frob[n // l] - x, f).degree != 0:
            return False
    return True


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


def conjugates(ext: FieldContext, z: int) -> tuple[int, ...]:
    """z, z^Q, ..., z^(Q^(N-1)) for a root z of degree N over F_Q (read
    off its logarithm), and (0,) for z = 0."""
    if not z:
        return (0,)
    L, Q, order = ext.log[z], ext.base.q, ext.order
    return tuple(ext.exp[L * Q**i % order] for i in range(ext.degree))


def min_poly(ext: FieldContext, orbit: tuple[int, ...]) -> tuple[int, ...]:
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
    """The qualifying pi of degree N and what they were computed from: the
    certificates ff_direct_verify and ff_equivalence_check read it all here.
    A copy made by `_replace` computes its own `qualifying` and `count`."""

    @property
    def count(self) -> int:
        return len(self.roots)

    @cached_property
    def qualifying(self) -> tuple[tuple[int, ...], ...]:
        """The coefficient tuples over F_Q of the qualifying pi, sorted: the
        minimal polynomials of the roots, computed on first read."""
        ext = extension(self.constr.big, self.N)
        return tuple(sorted(min_poly(ext, conjugates(ext, z)) for z in self.roots))


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
    for high in itertools.product(range(Q), repeat=N - 1):  # in index order of mu
        h = (0,) + high[::-1] + (1,)  # mu - mu_0
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
    """Count the monic irreducible pi of degree N over F_Q at which both
    bases are r-th powers and neither is an l-th power for a prime l | m;
    report the density predictions next to it.  The bases pass the gate
    check_ff_bases here, once for every certificate of the scan.

    Each pi but T is the minimal polynomial of the orbit of y^L for one
    coset leader L (see coset_leaders), and F_Q[T]/(pi) = F_Q(y^L), so pi
    qualifies iff for both bases f, f(y^L) != 0, r | log_y f(y^L) and no
    prime l | m divides log_y f(y^L); _log_at reads that logarithm off the
    logarithms of the coefficients of f.  The scan keeps one root of each
    qualifying pi; their minimal polynomials are computed only when a
    certificate reads `qualifying`.  F_{Q^N} is the degree-N extension of
    F_Q, so Q^N is capped at _FIELD_CAP.

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
    r, rad = constr.r, math.prod(factorize(constr.m).primes())

    def qualifies(lg: int | None) -> bool:  # r | lg and no prime l | m divides lg
        return lg is not None and lg % r == 0 and math.gcd(lg, rad) == 1

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


def ff_direct_verify(scan: FFScanResult, n_cap: int = 5000) -> FFVerifyResult:
    """Compute gcd(Phi_m(a^n), Phi_m(b^n)) exactly over the base field and
    certify deg gcd >= N * (number of qualifying pi of the scan)."""
    constr, n = scan.constr, scan.n
    if n > n_cap:
        raise ValueError(f"n = {n} exceeds the exact-computation cap {n_cap}")
    pis = [FqPolynomial(constr.big, coeffs) for coeffs in scan.qualifying]
    value_a = eval_poly_fq(constr.m, poly_pow(scan.a, n))
    value_b = eval_poly_fq(constr.m, poly_pow(scan.b, n))
    g = poly_gcd(value_a, value_b)
    # the qualifying pi are distinct monic irreducibles, so all of them divide
    # the lifted gcd iff their product does; the per-pi loop names a culprit
    g_big = constr.lift(g)
    if not (g_big % _product(pis, constr.big)).is_zero:
        for pi in pis:
            if not (g_big % pi).is_zero:
                raise VerificationError(f"qualifying pi = {pi} does not divide the gcd")
        raise VerificationError("the product of the qualifying pi does not divide the gcd")
    certified = scan.N * len(pis)
    if g.degree < certified:
        raise VerificationError(f"deg gcd = {g.degree} is below the certified bound {certified}")
    return FFVerifyResult(deg_gcd=g.degree, certified_bound=certified, ratio_to_n=g.degree / n)


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
