"""Champion-number construction over Z.

Pairs (m, p) have m <= x, p <= x prime and p qualifying, all chosen so that
every n = m(p-1)/N is at most x^2 and divisible by the kernel K (the product
of the primes up to delta*log x prime to N).  Since at most x^2/K such n
exist, some n collects many representations, and each representation
certifies a distinct prime divisor of gcd(Phi_N(a^n), Phi_N(b^n)).  The
mixed-index variant gcd(Phi_M(a^n), Phi_N(b^n)) takes its primes from the
same generator, `qualifying_primes`, which tests the exact orders of a^w and
b^w for w = (p-1)/L.

The pairs are never stored: each contributing prime adds one representation
along arithmetic progressions of slots n/K, counted in a byte histogram one
window of cells at a time, and the champion's representations are rebuilt
from the primes afterwards.  Every slot hit is coprime to L = lcm(M, N), so
the histogram keeps one cell per such slot only.
"""

import math
from typing import NamedTuple

from .arith import factorize, primes_in_range
from .cyclotomic import eval_mod_prime
from .errors import VerificationError
from .parallel import map_blocks
from .residues import check_bases, qualifying_primes

# Cells of one histogram window, one byte each: _CELLS_PER_PROGRESSION for
# each progression, rounded up to a power of two between _WINDOW_MIN and
# _WINDOW.  Every window costs one Python step per progression, so a run with
# few progressions takes a small window at about the same cost per cell.  Past
# 2^10 progressions (x >= about 10^5 at N = 2) every window is _WINDOW cells.
_CELLS_PER_PROGRESSION = 1 << 11
_WINDOW_MIN = 1 << 16
_WINDOW = 1 << 22
# The largest count a histogram byte holds; past it, the byte wraps to 0 and
# its cell carries 256 more in a dict.
_CELL_MAX = 255
# bytes.translate table adding 1 to a cell, 255 wrapping to 0.
_INCREMENT = bytes(range(1, 256)) + b"\x00"


class _ChampionInputs(NamedTuple):
    a: int
    b: int
    N: int
    x: int
    delta: float
    M: int  # the index of base a; N in a single-index run


class ChampionParams(_ChampionInputs):
    """Inputs of a champion run, checked at construction, where M = None means M = N."""

    __slots__ = ()

    def __new__(cls, a, b, N, x, delta=0.9, M=None):
        self = super().__new__(cls, a, b, N, x, delta, N if M is None else M)
        check_bases(self.a, self.b, self.M, self.N)
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")
        if self.x < 8:
            raise ValueError(f"scan bound x must be at least 8 (x >= e^2), got {self.x}")
        return self

    @classmethod
    def _make(cls, iterable):  # so _replace checks the hypotheses again
        return cls(*iterable)

    @property
    def lcm_index(self) -> int:
        return math.lcm(self.M, self.N)


def build_kernel(x, delta: float, modulus: int) -> int:
    """The kernel K: the product of the primes q <= delta*log(x) with q not
    dividing modulus."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if x < math.e**2:
        raise ValueError("x must be at least e^2")
    bound = delta * math.log(x)
    return math.prod(q for q in primes_in_range(2, int(bound) + 1) if modulus % q != 0)


def _qualify_block(cfg, block) -> list[tuple[int, int]]:
    # (p, w) for the primes of the block that contribute pairs.  An admissible
    # m is coprime to L, so a^(mw) and b^(mw) keep the orders M and N of a^w, b^w.
    return [(p, w) for p, w, _, _ in qualifying_primes(*block, *cfg)]


def _contributing_primes(params: ChampionParams, jobs: int) -> list[tuple[int, int]]:
    """(p, w = (p-1)/L) for every prime p <= x that contributes pairs, p ascending."""
    cfg = (params.a, params.b, params.M, params.N)
    primes: list[tuple[int, int]] = []
    for chunk in map_blocks(_qualify_block, cfg, 2, params.x + 1, jobs):
        primes.extend(chunk)
    return primes


def enumerate_pairs(params: ChampionParams, jobs: int = 1) -> list[tuple[int, int]]:
    """The admissible pair set, ordered by p ascending then m ascending.

    A contributing prime p pairs with every m <= x that is coprime to L and
    a multiple of its step K/gcd(K, w), so that K divides n = m*w.
    """
    lcm_idx = params.lcm_index
    kernel = build_kernel(params.x, params.delta, lcm_idx)
    pairs = []
    for p, w in _contributing_primes(params, jobs):
        step = kernel // math.gcd(kernel, w)
        pairs.extend((m, p) for m in range(step, params.x + 1, step) if math.gcd(m, lcm_idx) == 1)
    return pairs


def _units(modulus: int) -> list[int]:
    """The residues rho_0 < rho_1 < ... mod `modulus` coprime to it."""
    return [r for r in range(modulus) if math.gcd(r, modulus) == 1]


def _slot_cell(slot: int, modulus: int, position: dict[int, int]) -> int:
    """The histogram cell of a slot coprime to the modulus: slot c*L + rho_i
    is cell c*phi(L) + i, where `position` maps rho_i to i; an increasing
    map onto 0, 1, 2, ..."""
    c, r = divmod(slot, modulus)
    return c * len(position) + position[r]


def _cell_slot(cell: int, modulus: int, units: list[int]) -> int:
    """The slot of a histogram cell; the inverse of `_slot_cell`."""
    c, i = divmod(cell, len(units))
    return c * modulus + units[i]


def _progressions(primes, kernel: int, lcm_idx: int, x: int, units: list[int]) -> list[tuple[int, int, int]]:
    """The cells each prime adds one representation to, as (first, stride, last).

    The pairs of p are m = j*s for j <= x/s with gcd(j, L) = 1, where
    s = K/gcd(K, w) is coprime to L; they land on the slots j*u with
    u = w/gcd(K, w), all coprime to L.  Each class r of j mod L, one of
    `units`, is one progression of slot stride L*u, so of cell stride
    phi(L)*u.
    """
    position = {rho: i for i, rho in enumerate(units)}
    out = []
    for _, w in primes:
        g = math.gcd(kernel, w)
        u, top = w // g, x // (kernel // g)
        stride = len(units) * u
        for r in units:
            r = r or lcm_idx  # L = 1: the one class is j = 1, 2, ...
            if r <= top:
                first = _slot_cell(r * u, lcm_idx, position)
                out.append((first, stride, first + (top - r) // lcm_idx * stride))
    return out


def _window(progression_count: int) -> int:
    """The cells of one histogram window for this many progressions."""
    cells = 1 << (progression_count * _CELLS_PER_PROGRESSION - 1).bit_length()
    return min(_WINDOW, max(_WINDOW_MIN, cells))


def _busiest_slot(progressions) -> tuple[int, int, int]:
    """(count, cell, total): the largest cell count, the smallest cell that
    holds it, and the number of increments made.  The cell is an index of
    `_progressions`'s cell space; `_cell_slot` maps it to its slot.

    Counts live in a byte per cell over one window of cells at a time, its
    size set by `_window` from the number of progressions.  A
    progression adds 1 to each of its cells at most once, so the window's
    maximum rises by one exactly when the progression meets a byte holding
    the current maximum.  Once that maximum is 255, a byte about to wrap
    hands 256 to its cell's carry, and the count of a cell is its byte plus
    its carry; every carried cell counts more than any byte alone.
    """
    end = max((last for _, _, last in progressions), default=-1) + 1
    best = best_cell = total = 0
    window = _window(len(progressions))
    for lo in range(0, end, window):
        hi = min(lo + window, end)
        cells = bytearray(hi - lo)
        top = 0  # the window's maximum while below _CELL_MAX
        carry: dict[int, int] = {}
        for first, stride, last in progressions:
            if last < lo or first >= hi:
                continue
            start = first if first >= lo else first + -(-(lo - first) // stride) * stride
            i, j = start - lo, min(last, hi - 1) - lo + 1
            if i >= j:
                continue
            seg = cells[i:j:stride]
            if top < _CELL_MAX:
                top += top in seg
            else:
                k = seg.find(_CELL_MAX)
                while k >= 0:
                    cell = lo + i + k * stride
                    carry[cell] = carry.get(cell, 0) + 256
                    k = seg.find(_CELL_MAX, k + 1)
            cells[i:j:stride] = seg.translate(_INCREMENT)
            total += len(seg)
        if carry:  # the smallest cell of the largest byte + carry
            count, cell = max((cells[s - lo] + c, -s) for s, c in carry.items())
            cell = -cell
        else:
            count, cell = top, lo + cells.find(top)
        if count > best:
            best, best_cell = count, cell
        del cells  # so the next window is not allocated beside this one
    return best, best_cell, total


class ChampionReport(NamedTuple):
    """A champion n, its representations and the certified gcd lower bound."""

    n: int
    representations: tuple[tuple[int, int], ...]  # (m, p), p ascending
    distinct_primes: tuple[int, ...]
    log_gcd_lower_bound: float
    pigeonhole_floor: int
    pair_count: int
    kernel: int
    kernel_omega: int
    curve_value: float | None
    curve_ratio: float | None
    verified: bool = False

    def to_dict(self) -> dict:
        return {**self._asdict(), "representation_count": len(self.representations)}


def _champion_report(n: int, reps, pair_count: int, kernel: int, modulus: int, x: int) -> ChampionReport:
    # Re-check the champion against the pigeonhole invariants and build its report.
    if n % kernel != 0 or n > x * x or math.gcd(n, modulus) != 1:
        raise VerificationError(f"champion n = {n} violates the kernel/bound/coprimality invariants")
    slots = (x * x) // kernel
    if slots == 0:
        raise VerificationError("kernel exceeds x^2 yet pairs exist")
    floor = -(-pair_count // slots)  # ceil
    reps = sorted(reps, key=lambda mp: mp[1])
    primes = tuple(p for _, p in reps)
    if len(set(primes)) != len(reps):
        raise VerificationError("a prime repeated within one representation group")
    if len(reps) < floor:
        raise VerificationError(
            f"champion multiplicity {len(reps)} is below the pigeonhole floor {floor}"
        )
    log_bound = sum(math.log(p) for p in primes)
    curve_value = curve_ratio = None
    if n >= 3:
        growth = math.log(n) / math.log(math.log(n))
        curve_value = math.exp(growth)
        curve_ratio = math.log(log_bound) / growth
    return ChampionReport(
        n=n,
        representations=tuple(reps),
        distinct_primes=primes,
        log_gcd_lower_bound=log_bound,
        pigeonhole_floor=floor,
        pair_count=pair_count,
        kernel=kernel,
        kernel_omega=len(factorize(kernel).factors),  # K is squarefree
        curve_value=curve_value,
        curve_ratio=curve_ratio,
    )


def pigeonhole_champion(pairs, kernel: int, modulus: int, x: int) -> ChampionReport:
    """Group pairs by n = m(p-1)/modulus and pick the most-represented n.

    Ties break to the smallest n.  All report invariants are re-checked here
    (kernel divides every n, every n <= x^2 and is coprime to the modulus,
    multiplicity of the champion meets the pigeonhole floor).  `run_champion`
    finds the same n from a slot histogram; this stored-pair grouping is kept
    as its reference.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("cannot pigeonhole an empty pair set")
    groups: dict[int, list[tuple[int, int]]] = {}
    for m, p in pairs:
        if (p - 1) % modulus != 0:
            raise VerificationError(f"pair ({m}, {p}): modulus does not divide p - 1")
        n = m * ((p - 1) // modulus)
        groups.setdefault(n, []).append((m, p))
    for n in groups:
        if n % kernel != 0 or n > x * x or math.gcd(n, modulus) != 1:
            raise VerificationError(f"grouped n = {n} violates the kernel/bound/coprimality invariants")
    champ_n, reps = max(groups.items(), key=lambda kv: (len(kv[1]), -kv[0]))
    return _champion_report(champ_n, reps, len(pairs), kernel, modulus, x)


def verify_champion(report: ChampionReport, params: ChampionParams) -> ChampionReport:
    """Certify the report: every distinct prime must divide both cyclotomic values.

    A failed check raises VerificationError; it would mean the pigeonhole
    certificate is unsound, so it is never downgraded.
    """
    for p in report.distinct_primes:
        for index, base in ((params.M, params.a), (params.N, params.b)):
            if base % p == 0:  # then Phi_index(base^n) = Phi_index(0) = +-1 (mod p)
                raise VerificationError(
                    f"{p} divides the base {base}, so it does not divide Phi_{index}({base}^{report.n})"
                )
            if eval_mod_prime(index, base, report.n, p) != 0:
                raise VerificationError(f"{p} does not divide Phi_{index}({base}^{report.n})")
    return report._replace(verified=True)


def run_champion(params: ChampionParams, jobs: int = 1) -> ChampionReport:
    """Full pipeline: qualify primes, count slots, rebuild the champion, certify."""
    lcm_idx, x = params.lcm_index, params.x
    kernel = build_kernel(x, params.delta, lcm_idx)
    primes = _contributing_primes(params, jobs)
    units = _units(lcm_idx)
    progressions = _progressions(primes, kernel, lcm_idx, x, units)
    pair_count = sum((last - first) // stride + 1 for first, stride, last in progressions)
    if pair_count == 0:
        raise ValueError(
            f"no prime p <= x = {x} contributes a pair for indices M = {params.M}, "
            f"N = {params.N}: cannot pigeonhole an empty pair set"
        )
    count, cell, increments = _busiest_slot(progressions)  # a cell, not yet a slot
    if increments != pair_count:
        raise VerificationError(
            f"the cell histogram counted {increments} pairs, the progressions hold {pair_count}"
        )
    n = _cell_slot(cell, lcm_idx, units) * kernel
    reps = []
    for p, w in primes:
        if n % w == 0:
            m = n // w
            if m <= x and math.gcd(m, lcm_idx) == 1:
                reps.append((m, p))
    if len(reps) != count:
        raise VerificationError(
            f"champion n = {n} has {len(reps)} representations, its histogram slot counts {count}"
        )
    report = _champion_report(n, reps, pair_count, kernel, lcm_idx, x)
    return verify_champion(report, params)
