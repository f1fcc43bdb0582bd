import math
import random
import tracemalloc
from collections import Counter

import pytest
from sympy.ntheory import is_nthpow_residue, n_order

from cyclogcd import champion
from cyclogcd.arith import euler_phi, factorize, primes_in_range
from cyclogcd.champion import (
    ChampionParams,
    ChampionReport,
    build_kernel,
    enumerate_pairs,
    pigeonhole_champion,
    run_champion,
    verify_champion,
)
from cyclogcd.errors import HypothesisError, VerificationError


def test_build_kernel_examples():
    def kernel_and_omega(*args):
        kernel = build_kernel(*args)
        return kernel, len(factorize(kernel).factors)

    assert kernel_and_omega(math.exp(10), 0.5, 7) == (30, 3)   # primes 2, 3, 5
    assert kernel_and_omega(math.exp(10), 0.5, 6) == (5, 1)    # 2, 3 divide the modulus
    assert kernel_and_omega(8, 0.2, 1) == (1, 0)               # threshold below 2
    with pytest.raises(ValueError):
        build_kernel(100, 1.5, 1)
    with pytest.raises(ValueError):
        build_kernel(2, 0.5, 1)


def test_enumerate_pairs_index_one():
    # no residue conditions for N = 1; primes dividing a*b are excluded
    params = ChampionParams(a=2, b=3, N=1, x=50, delta=0.3)
    pairs = enumerate_pairs(params)
    usable_primes = [p for p in primes_in_range(2, 51) if p not in (2, 3)]
    assert len(pairs) == 50 * len(usable_primes) == 650
    assert pairs == sorted(pairs, key=lambda mp: (mp[1], mp[0]))


def test_enumerate_pairs_membership():
    params = ChampionParams(a=3, b=5, N=2, x=10, delta=0.5)  # K = 1
    pairs = enumerate_pairs(params)
    assert (5, 7) in pairs
    assert (4, 7) not in pairs            # gcd(4, 2) != 1
    assert all(math.gcd(m, 2) == 1 for m, _ in pairs)


def test_enumerate_pairs_kernel_divisibility():
    params = ChampionParams(a=2, b=3, N=2, x=300, delta=0.9)
    kernel = build_kernel(300, 0.9, 2)
    assert kernel == 15   # 0.9 * log(300) = 5.13, primes 3 and 5
    for m, p in enumerate_pairs(params):
        assert (m * (p - 1) // 2) % kernel == 0


def test_pigeonhole_grouping():
    # both pairs represent n = 24 for N = 1
    report = pigeonhole_champion([(6, 5), (2, 13)], kernel=1, modulus=1, x=13)
    assert report.n == 24
    assert report.distinct_primes == (5, 13)
    assert len(report.representations) == 2
    assert report.pigeonhole_floor == 1


def test_pigeonhole_tie_breaks_to_smallest_n():
    # two singleton groups: n = 4 and n = 8 (N = 1, p = 5)
    report = pigeonhole_champion([(1, 5), (2, 5)], kernel=1, modulus=1, x=8)
    assert report.n == 4


def test_pigeonhole_floor_arithmetic():
    # |A| = 100, slots = x^2 // K = 900 // 30 = 30 -> floor = 4.  Honest pairs always meet the
    # floor, so the report is handed a champion n = 60 with one representation
    with pytest.raises(VerificationError, match="multiplicity 1 is below the pigeonhole floor 4"):
        champion._champion_report(60, [(30, 3)], pair_count=100, kernel=30, modulus=1, x=30)


def test_champion_report_certificates():
    # each invariant of the report, broken alone on a doctored champion: n > x^2, K ∤ n, gcd(n, N) > 1
    for n, kernel, modulus, x in ((61, 1, 1, 7), (10, 3, 1, 30), (9, 3, 3, 30)):
        with pytest.raises(VerificationError, match=f"n = {n} violates the kernel/bound/coprimality"):
            champion._champion_report(n, [(1, 11)], pair_count=1, kernel=kernel, modulus=modulus, x=x)
    with pytest.raises(VerificationError, match=r"kernel exceeds x\^2 yet pairs exist"):
        champion._champion_report(0, [(0, 3)], pair_count=1, kernel=1000, modulus=1, x=30)
    with pytest.raises(VerificationError, match="a prime repeated within one representation group"):
        champion._champion_report(4, [(1, 5), (2, 3), (4, 5)], pair_count=3, kernel=1, modulus=1, x=8)


def test_kernel_omega_read_off_the_kernel():
    # K = 105 = 3 * 5 * 7 has three prime factors, whoever passes it in
    report = pigeonhole_champion([(1, 211)], kernel=105, modulus=2, x=1000)
    assert (report.n, report.kernel, report.kernel_omega) == (105, 105, 3)


def test_run_champion_cross_checks_the_histogram(monkeypatch):
    # the busiest slot is checked against the progressions' pair count and against the
    # representations rebuilt from the primes
    params = ChampionParams(a=2, b=3, N=2, x=300, delta=0.9)
    honest = run_champion(params)
    total, count = honest.pair_count, len(honest.representations)
    real = champion._busiest_slot

    def doctored(extra_count, extra_total):
        def busiest(progressions):
            best, slot, increments = real(progressions)
            return best + extra_count, slot, increments + extra_total
        return busiest

    monkeypatch.setattr(champion, "_busiest_slot", doctored(0, 1))
    with pytest.raises(VerificationError, match=f"counted {total + 1} pairs, the progressions hold {total}"):
        run_champion(params)
    monkeypatch.setattr(champion, "_busiest_slot", doctored(1, 0))
    with pytest.raises(VerificationError, match=f"n = {honest.n} has {count} representations, its histogram "
                                                f"slot counts {count + 1}"):
        run_champion(params)


def test_pigeonhole_rejects_empty():
    with pytest.raises(ValueError):
        pigeonhole_champion([], kernel=1, modulus=1, x=10)


def _report_for(n, reps):
    primes = tuple(p for _, p in reps)
    return ChampionReport(
        n=n, representations=tuple(reps), distinct_primes=primes,
        log_gcd_lower_bound=sum(math.log(p) for p in primes),
        pigeonhole_floor=1, pair_count=len(reps), kernel=1, kernel_omega=0,
        curve_value=None, curve_ratio=None,
    )


def test_verify_champion_examples():
    params = ChampionParams(a=3, b=5, N=2, x=10, delta=0.5)
    verified = verify_champion(_report_for(3, [(1, 7)]), params)
    assert verified.verified
    params1 = ChampionParams(a=2, b=3, N=1, x=10, delta=0.5)
    assert verify_champion(_report_for(4, [(1, 5)]), params1).verified


def test_verify_champion_fails_loudly():
    params = ChampionParams(a=3, b=5, N=2, x=10, delta=0.5)
    with pytest.raises(VerificationError):
        verify_champion(_report_for(3, [(1, 5)]), params)  # 5 does not divide 28
    # 7 divides Phi_1(2^3) = 7 but not Phi_1(13^3) = 2196: the b-side check
    with pytest.raises(VerificationError, match=r"7 does not divide Phi_1\(13\^3\)"):
        verify_champion(_report_for(3, [(1, 7)]), ChampionParams(a=2, b=13, N=1, x=10, delta=0.5))


def test_verify_champion_refuses_a_prime_dividing_a_base():
    # Phi_index(c^n) = +-1 mod a prime dividing c, so such a prime certifies nothing
    params = ChampionParams(a=3, b=5, N=2, x=50, delta=0.5)
    report = run_champion(params)
    assert report.distinct_primes == (7, 43)
    doctored = report._replace(distinct_primes=(3, *report.distinct_primes), verified=False)
    with pytest.raises(VerificationError, match="3 divides the base 3, so it does not divide Phi_2"):
        verify_champion(doctored, params)
    # 7 divides Phi_1(2^3) = 7, so only the b-side check can refuse it
    with pytest.raises(VerificationError, match="7 divides the base 7, so it does not divide Phi_1"):
        verify_champion(_report_for(3, [(1, 7)]), ChampionParams(a=2, b=7, N=1, x=10, delta=0.5))


FROZEN_X50 = dict(n=63, primes=(19, 43), pair_count=50, kernel=1 * 3)


def test_champion_small_run_frozen():
    report = run_champion(ChampionParams(a=2, b=3, N=2, x=50, delta=0.9))
    assert report.n == FROZEN_X50["n"]
    assert report.distinct_primes == FROZEN_X50["primes"]
    assert report.pair_count == FROZEN_X50["pair_count"]
    assert report.kernel == FROZEN_X50["kernel"]
    assert report.verified


def test_champion_certified_bound_below_exact_gcd():
    report = run_champion(ChampionParams(a=2, b=3, N=2, x=50, delta=0.9))
    n = report.n
    exact = math.gcd(2**n + 1, 3**n + 1)
    product = math.prod(report.distinct_primes)
    assert exact % product == 0
    assert report.log_gcd_lower_bound <= math.log(exact) + 1e-9


def test_champion_report_invariants():
    params = ChampionParams(a=2, b=3, N=2, x=300, delta=0.9)
    report = run_champion(params)
    kernel = build_kernel(300, 0.9, 2)
    assert report.kernel == kernel and report.kernel_omega == len(factorize(kernel).factors)
    assert report.n <= 300**2 and report.n % kernel == 0 and report.n % 2 == 1
    for m, p in report.representations:
        assert m * (p - 1) // 2 == report.n
    assert len(report.representations) == len(report.distinct_primes)
    assert len(report.distinct_primes) >= report.pigeonhole_floor
    slots = 300**2 // kernel
    assert report.pigeonhole_floor == -(-report.pair_count // slots)


def test_generalized_bit_identical_when_indices_agree():
    base = ChampionParams(a=2, b=3, N=2, x=300, delta=0.9)
    forced = ChampionParams(a=2, b=3, N=2, M=2, x=300, delta=0.9)
    assert run_champion(base) == run_champion(forced)


def test_generalized_mixed_one_two():
    params = ChampionParams(a=2, b=3, N=2, M=1, x=60, delta=0.5)
    pairs = enumerate_pairs(params)
    assert (1, 7) in pairs            # 2^3 = 1 and 3^3 = -1 mod 7
    assert all(p % 2 == 1 for _, p in pairs)
    report = run_champion(params)
    assert report.verified
    # direct meaning of the certificate: p | a^n - 1 and p | b^n + 1
    for p in report.distinct_primes:
        assert pow(2, report.n, p) == 1
        assert pow(3, report.n, p) == p - 1


def test_generalized_mixed_two_three():
    params = ChampionParams(a=2, b=5, N=3, M=2, x=1600, delta=0.5)
    pairs = enumerate_pairs(params)
    assert pairs, "scan should find contributing primes (499, 1051, 1579)"
    assert all(p % 6 == 1 for _, p in pairs)
    assert {p for _, p in pairs} == {499, 1051, 1579}
    report = run_champion(params)
    for p in report.distinct_primes:
        # a^n has order exactly 2 and b^n has order exactly 3 mod p
        assert pow(2, report.n, p) == p - 1
        assert pow(5, report.n * 3, p) == 1 and pow(5, report.n, p) != 1


def test_hypothesis_gates():
    with pytest.raises(HypothesisError, match="l-th power in Q"):
        ChampionParams(a=4, b=3, N=2, x=100)
    with pytest.raises(HypothesisError, match="gcd"):
        ChampionParams(a=5, b=7, N=4, M=2, x=100)  # D = 2, gcd(M/D, D) fails... (M=2,N=4)
    with pytest.raises(ValueError):
        ChampionParams(a=2, b=3, N=2, x=100, delta=1.2)
    with pytest.raises(ValueError):
        ChampionParams(a=1, b=3, N=1, x=100)


def test_pair_set_lower_bound_by_radical_class():
    # exact count of {m <= x : gcd(m, N0*K) == K/d} dominates phi(N0*d) * floor(x / (N0*K))
    from cyclogcd.arith import euler_phi, factorize

    for modulus, x, delta in ((2, 2000, 0.9), (6, 5000, 0.8), (1, 1000, 0.9)):
        kernel = build_kernel(x, delta, modulus)
        radical = math.prod(factorize(modulus).primes())
        for d in factorize(kernel).divisors():
            target = kernel // d
            count = sum(1 for m in range(1, x + 1) if math.gcd(m, radical * kernel) == target)
            assert count >= euler_phi(radical * d) * (x // (radical * kernel))


# Small single-index and mixed cases: (a, b, N, M, x, delta).
GRID = [
    (2, 3, 1, None, 120, 0.5),
    (2, 3, 2, None, 300, 0.9),
    (2, 3, 2, None, 2000, 0.9),
    (3, 5, 2, None, 900, 0.5),
    (2, 5, 3, None, 1500, 0.9),
    (3, 5, 4, None, 2500, 0.9),
    (5, 7, 6, None, 3000, 0.9),
    (2, 3, 2, 1, 500, 0.5),
    (2, 5, 3, 2, 1600, 0.5),
    (3, 5, 2, 2, 800, 0.9),
    (2, 3, 6, 3, 3000, 0.9),
]


def _oracle(params):
    # the stored pair list, grouped by pigeonhole_champion
    kernel = build_kernel(params.x, params.delta, params.lcm_index)
    pairs = enumerate_pairs(params)
    report = pigeonhole_champion(pairs, kernel, params.lcm_index, params.x)
    assert report.kernel_omega == len(factorize(kernel).factors)
    return verify_champion(report, params), len(pairs)


@pytest.mark.parametrize("window", [None, 7, 64])
def test_histogram_matches_pair_list_oracle(window, monkeypatch):
    if window is not None:
        # many windows, so progressions and ties cross window boundaries
        monkeypatch.setattr(champion, "_WINDOW", window)
    for a, b, N, M, x, delta in GRID:
        params = ChampionParams(a=a, b=b, N=N, M=M, x=x, delta=delta)
        expected, pair_count = _oracle(params)
        report = run_champion(params)
        assert report == expected, (a, b, N, M, x)
        assert report.pair_count == pair_count


def test_cell_map_is_increasing_onto_and_inverted():
    for modulus in range(1, 61):
        units = champion._units(modulus)
        assert len(units) == euler_phi(modulus)
        position = {rho: i for i, rho in enumerate(units)}
        slots = [s for s in range(20 * modulus) if math.gcd(s, modulus) == 1]
        cells = [champion._slot_cell(s, modulus, position) for s in slots]
        assert cells == list(range(len(slots))), modulus
        assert [champion._cell_slot(c, modulus, units) for c in cells] == slots, modulus


def test_progressions_cover_exactly_the_pairs():
    for a, b, N, M, x, delta in GRID:
        params = ChampionParams(a=a, b=b, N=N, M=M, x=min(x, 400), delta=delta)
        L = params.lcm_index
        kernel = build_kernel(params.x, params.delta, L)
        units = champion._units(L)
        position = {rho: i for i, rho in enumerate(units)}
        progressions = champion._progressions(champion._contributing_primes(params, 1), kernel, L, params.x, units)
        covered = Counter(cell for first, stride, last in progressions for cell in range(first, last + 1, stride))
        want = Counter(champion._slot_cell(m * ((p - 1) // L) // kernel, L, position)
                       for m, p in enumerate_pairs(params))
        assert covered == want, (a, b, N, M)


def _progressions_of(params):
    L = params.lcm_index
    kernel = build_kernel(params.x, params.delta, L)
    primes = champion._contributing_primes(params, 1)
    return champion._progressions(primes, kernel, L, params.x, champion._units(L))


def test_histogram_peak_memory_is_one_window():
    # the bench's mixed run, whose cells span many windows: the histogram
    # frees each window before it allocates the next, so its traced peak is
    # one window, of the size the run chooses, plus small slices (the slot
    # histogram traced 8.4 MB, a fixed 2^22-cell window 4.2 MB)
    progressions = _progressions_of(ChampionParams(a=28, b=5, N=2, M=1, x=7563, delta=0.5))
    window = champion._window(len(progressions))
    assert max(last for _, _, last in progressions) >= 8 * window
    tracemalloc.start()
    try:
        count, _, total = champion._busiest_slot(progressions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (count, total) == (7, 300057)
    assert peak < window + (1 << 16), (peak, window)


def test_window_follows_the_progression_count():
    # 2^11 cells a progression, a power of two from 2^16 up to _WINDOW = 2^22
    assert champion._WINDOW == 1 << 22
    assert [champion._window(k) for k in (0, 1, 32, 33, 461, 1 << 10)] == [
        1 << 16, 1 << 16, 1 << 16, 1 << 17, 1 << 20, 1 << 21]
    for k in ((1 << 10) + 1, 1 << 11, 10**6):
        assert champion._window(k) == champion._WINDOW, k
    # the bench's single run (seed 1) counts at most 2^20 cells at a time
    progressions = _progressions_of(ChampionParams(a=24, b=17, N=2, x=34231))
    assert len(progressions) == 461
    assert champion._window(len(progressions)) <= 1 << 20


def _brute_pairs(params):
    # the pair set from its definition, by sympy's power-residue and order tests
    a, b, N, x = params.a, params.b, params.N, params.x
    M, L = params.M, params.lcm_index
    kernel = build_kernel(x, params.delta, L)
    ells = factorize(L).primes()
    pairs = []
    for p in primes_in_range(2, x + 1):
        if a % p == 0 or b % p == 0 or (p - 1) % L:
            continue
        if any((p - 1) % (L * l) == 0 for l in ells):
            continue
        if any(M % l == 0 and is_nthpow_residue(a, l, p) for l in ells):
            continue
        if any(N % l == 0 and is_nthpow_residue(b, l, p) for l in ells):
            continue
        for m in range(1, x + 1):
            n = m * (p - 1) // L
            if math.gcd(m, L) != 1 or n % kernel:
                continue
            if n_order(pow(a, n, p), p) == M and n_order(pow(b, n, p), p) == N:
                pairs.append((m, p))
    return pairs


def test_enumerate_pairs_matches_definition():
    for a, b, N, M, x, delta in GRID:
        params = ChampionParams(a=a, b=b, N=N, M=M, x=min(x, 400), delta=delta)
        assert enumerate_pairs(params) == _brute_pairs(params), (a, b, N, M)


def test_report_independent_of_jobs():
    for params in (
        ChampionParams(a=2, b=3, N=2, x=3000, delta=0.9),
        ChampionParams(a=2, b=5, N=3, M=2, x=1600, delta=0.5),
    ):
        assert run_champion(params, jobs=1) == run_champion(params, jobs=2)


def test_busiest_slot_counts_past_a_byte(monkeypatch):
    # synthetic progressions: random ones, 300 through slot 4620 and 600
    # through slot 9240 (two carries), an exact tie between 1500 and 7500,
    # counted against a Counter, in one window and across many
    rng = random.Random(17)

    def through(slot, count):
        strides = [k % 90 + 1 for k in range(count)]
        return [((slot - 1) % s + 1, s, slot + s * (k % 7)) for k, s in enumerate(strides)]

    noise = []
    for _ in range(800):
        first, stride = rng.randint(1, 60), rng.randint(1, 50)
        noise.append((first, stride, first + stride * rng.randint(0, 10000 // stride)))
    tie = [(1500, 1, 1500)] * 270 + [(7500, 1, 7500)] * 270
    for progressions in (noise + through(4620, 300), noise + through(9240, 600) + through(4620, 300), tie):
        hits = Counter(slot for first, stride, last in progressions for slot in range(first, last + 1, stride))
        count = max(hits.values())
        want = (count, min(slot for slot, c in hits.items() if c == count), sum(hits.values()))
        assert count > 255
        for window in (1 << 22, 1000, 97):
            monkeypatch.setattr(champion, "_WINDOW", window)
            assert champion._busiest_slot(progressions) == want, window


def test_squares_forced_by_the_modulus_rejected():
    # 2 is a square mod every p = 1 (mod 8), 3 mod every p = 1 (mod 12)
    with pytest.raises(HypothesisError, match=r"a = 2 .*\(mod 8\)"):
        ChampionParams(a=2, b=3, N=8, x=100)
    with pytest.raises(HypothesisError, match=r"a = 3 .*\(mod 12\)"):
        ChampionParams(a=3, b=5, N=12, x=100)
    with pytest.raises(HypothesisError, match=r"b = 2 .*\(mod 8\)"):
        ChampionParams(a=3, b=2, N=8, M=1, x=100)
    # with M odd, base a is never tested for squares
    ChampionParams(a=2, b=5, N=8, M=3, x=100)
