"""Dense polynomials over a finite field, on packed big-int digits.

`FqPolynomial` is a polynomial over a `FieldContext`, coefficients
constant first.  Products, remainders and gcds run on packed integers
(Kronecker substitution, `_DigitPlanes`): the base-p digits of the
coefficients go into one Python int, so CPython's big-int loops do the
per-coefficient work.  Exact powers go by base-q digits (f^q = f(T^q)),
and the modulus search's powers of T by residues on coefficient lists.
"""

import sys
from array import array
from functools import lru_cache
from typing import NamedTuple

from .fields import FieldContext


def _width(bound: int) -> int:
    """The bytes per slot that hold every value up to bound."""
    return max(1, (bound.bit_length() + 7) // 8)


def _pack(digits, w: int) -> int:
    """The int whose w-byte slots, lowest first, hold digits: bytes or a
    bytearray, or a sequence of ints below 2^64."""
    if isinstance(digits, (bytes, bytearray)):
        if w == 1:
            return int.from_bytes(digits, "little")
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
        # a division step adds one such product term (see remainders): division
        # slots hold a digit plus at least four steps, and take `lazy` steps
        # before the digits must be reduced
        self.width = _width(p - 1 + 4 * self.growth)
        self.lazy = (256**self.width - p) // self.growth
        self.wq = _width(ctx.q - 1)  # join: sum_k d_k p^k < q, so no slot carries
        self.mod_byte = bytes(v % p for v in range(256))  # one-byte slots reduce by translate
        self.places = [self.mod_byte]  # places[j][b] = b 256^j mod p, built as wider slots need them
        # digit k of each element of a field of at most 256, by translate
        self.tables = ([bytes(v // c % p for v in range(256)) for c in self.powers]
                       if E > 1 and ctx.q <= 256 else None)
        self.one = 0  # digit 0 of every coefficient, for as many as needed so far (see multiples)

    def planes(self, coeffs) -> list:
        """The digit planes of a sequence of field elements: plane k holds
        their k-th base-p digits (over a prime field, the elements), as
        bytearrays when the elements are below 256."""
        if self.E == 1:
            return [bytearray(coeffs) if self.p < 256 else coeffs]
        if self.tables:
            raw = bytearray(coeffs)
            return [raw.translate(t) for t in self.tables]
        p = self.p
        return [[v // c % p for v in coeffs] for c in self.powers]

    def join(self, planes) -> tuple[int, ...]:
        """The field elements whose k-th digits are planes[k]."""
        if self.E == 1:
            return tuple(planes[0])
        wq = self.wq
        x = sum(_pack(d, wq) * c for d, c in zip(planes, self.powers))
        return tuple(_unpack(x.to_bytes(len(planes[0]) * wq, "little"), wq))

    def digits(self, x: int, count: int, w: int):
        """The first count w-byte slots of x, reduced mod p: bytes when p < 256."""
        raw = x.to_bytes(count * w, "little")
        if w > 1:
            if self.p >= 256:
                return [v % self.p for v in _unpack(raw, w)]
            raw = self._fold(raw, count, w)
        return raw.translate(self.mod_byte)

    def _fold(self, raw: bytes, count: int, w: int) -> bytes:
        """The count w-byte slots of raw, for p < 256, as one-byte slots
        congruent to them mod p.

        A slot is the sum of b_j 256^j over its bytes b_j, so its byte
        planes raw[j::w], each mapped by b -> b 256^j mod p (`places[j]`),
        add up to a value congruent to it.  top bounds every slot: the lower
        planes map below p, the top one to at most (its largest byte)
        256^(w-1) mod p.  The planes add at the width top needs, one byte
        when w (p - 1) fits; a sum of two bytes folds again, and once it is
        below 2p its top byte is 0 or 1, which maps to 256 - p for p > 128,
        so the next sum stays below 256.
        """
        p, places, top = self.p, self.places, 256**w - 1
        while w > 1:
            while len(places) < w:  # b 256^j = (b mod p) 256^j mod p
                c = pow(256, len(places), p)
                places.append(self.mod_byte.translate(bytes(v * c % p for v in range(p)).ljust(256, b"\0")))
            top = (w - 1) * (p - 1) + min(p - 1, (top >> 8 * (w - 1)) * places[w - 1][1])
            to = _width(top)
            s = sum(_pack(raw[j::w].translate(places[j]), to) for j in range(w))
            raw, w = s.to_bytes(count * to, "little"), to
        return raw

    def pack(self, coeffs) -> int:
        """A polynomial as one int at the division width, the E digits of
        each coefficient side by side."""
        E, planes = self.E, self.planes(coeffs)
        if E == 1:
            return _pack(planes[0], self.width)
        out = bytearray(len(coeffs) * E) if self.p < 256 else [0] * (len(coeffs) * E)
        for k, d in enumerate(planes):
            out[k::E] = d
        return _pack(out, self.width)

    def unpack(self, x: int, n: int) -> tuple[int, ...]:
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
        bits = 8 * w
        if self.one >> (n - 1) * E * bits == 0:  # extend the mask, doubling it
            self.one = int.from_bytes((b"\xff" * w + bytes(w * (E - 1))) * (2 * n), "little")
        x = [x >> j * bits & self.one for j in range(E)]
        out = [0] * E
        for i, j, k, c in self.mix:
            out[i] += c * x[j] << k * bits
        return out

    def mul(self, a, b) -> tuple[int, ...]:
        """The coefficients of a * b, for nonempty coefficient sequences."""
        E = self.E
        n, w = len(a) + len(b) - 1, _width(min(len(a), len(b)) * self.growth)
        A, B = self.planes(a), self.planes(b)
        if E == 1:  # C = [[1]]: one product
            return tuple(self.digits(_pack(A[0], w) * _pack(B[0], w), n, w))
        A, B = [_pack(d, w) for d in A], [_pack(d, w) for d in B]
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

    def remainders(self, R: int, n: int, B: int, m: int):
        """Euclid's remainders on the packed and reduced R of n coefficients
        and B of m > 0: R mod B, then B mod (R mod B) and so on, each packed
        and reduced with its number of coefficients, the last one zero.

        Each step adds -(r / b) B under the top coefficient r of R, b the
        lead of B: one shifted big-int add, over F_p of (p - r / b) B, else
        of sum_k (p - r_k)(e_k M) over the nonzero digits r_k of r, with
        M = B / b and its multiples e_k M built once per division.  The
        steps work on a window of the top slots, so a step costs O(m), not
        O(n), and the window's digits are reduced after at most `lazy`
        steps, which keeps every slot below 256^width.  A quotient of at
        most one window, as nearly all of Euclid's are, works on R itself.
        """
        p, E, w, lazy = self.p, self.E, self.width, self.lazy
        bits = 8 * w
        top, span = (1 << bits) - 1, E * bits
        while m:
            inv = self.ctx.inv(self.lead(B, m))
            if E > 1:
                if inv != 1:  # M = sum_k (digit k of 1 / b)(e_k B), reduced
                    M = sum(inv // d % p * x for d, x in zip(self.powers, self.multiples(B, m)))
                    B = _pack(self.digits(M, m * E, w), w)
                terms = self.multiples(B, m)
            # a window spans at least 128 steps, so splitting R costs O(n / 128) per step
            chunk = max(m, 128)
            while n >= m:
                steps = min(chunk, n - m + 1)
                base = n - steps - m + 1  # the lowest coefficient the window's steps touch
                win = R >> base * span if base else R
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
                R = R & (1 << base * span) - 1 | win << base * span if base else win
                n -= steps
            n = (R.bit_length() + span - 1) // span
            yield R, n
            R, n, B, m = B, m, R, n


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

    def __mul__(self, other: "FqPolynomial") -> "FqPolynomial":
        self._require_same_ctx(other)
        ctx = self.ctx
        if self.is_zero or other.is_zero:
            return FqPolynomial.zero(ctx)
        # the lead of a product of nonzero polynomials is the product of their leads
        return FqPolynomial(ctx, _planes_of(ctx).mul(self.coeffs, other.coeffs))

    def __mod__(self, other: "FqPolynomial") -> "FqPolynomial":
        self._require_same_ctx(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        n, m = len(self.coeffs), len(other.coeffs)
        if n < m:
            return self
        ctx = self.ctx
        kernel = _planes_of(ctx)
        rem, r = next(kernel.remainders(kernel.pack(self.coeffs), n, kernel.pack(other.coeffs), m))
        return FqPolynomial(ctx, kernel.unpack(rem, r))

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


def poly_gcd(f: FqPolynomial, g: FqPolynomial) -> FqPolynomial:
    """Monic gcd by Euclid's algorithm, on packed digits throughout."""
    f._require_same_ctx(g)
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if g.is_zero:
        return f.monic()
    ctx = f.ctx
    kernel = _planes_of(ctx)
    G, ng = kernel.pack(g.coeffs), len(g.coeffs)
    for R, r in kernel.remainders(kernel.pack(f.coeffs), len(f.coeffs), G, ng):
        if r:
            G, ng = R, r
    return FqPolynomial(ctx, kernel.unpack(G, ng)).monic()
