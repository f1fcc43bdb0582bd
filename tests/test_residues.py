import collections
import functools
import math

import pytest
from sympy import Poly, cyclotomic_poly, factorint, isprime, primefactors, primerange
from sympy.abc import X
from sympy.external.gmpy import legendre  # the kernel of sympy's legendre_symbol
from sympy.ntheory import is_nthpow_residue, n_order

from cyclogcd import residues
from cyclogcd.arith import factorize, primes_in_range
from cyclogcd.cli import main
from cyclogcd.cyclotomic import eval_mod_prime
from cyclogcd.errors import HypothesisError, VerificationError
from cyclogcd.parallel import split_range
from cyclogcd.residues import check_bases, lemma_scan, qualifying_primes


def qualifies(p, modulus, a, b):
    # the qualifying conditions from their definition, for a prime p dividing neither base
    if (p - 1) % modulus:
        return False
    return all((p - 1) % (modulus * l) and not is_nthpow_residue(a, l, p)
               and not is_nthpow_residue(b, l, p) for l in primefactors(modulus))


def yields(p, a, b, M, N):
    # a block of one prime builds no wheel, so every base takes its power unless L = 1,
    # where neither base has a test
    modulus = math.lcm(M, N)
    w = (p - 1) // modulus
    u_a, u_b = (pow(c, w, p) if modulus > 1 else None for c in (a, b))
    return list(qualifying_primes(p, p + 1, a, b, M, N)) == [(p, w, u_a, u_b)]


def pairs(found, a, b):
    # (p, w) of each yield of qualifying_primes, once each power it carries is c^w mod p
    out = []
    for p, w, u_a, u_b in found:
        assert u_a in (None, pow(a, w, p)) and u_b in (None, pow(b, w, p)), (p, w, u_a, u_b)
        out.append((p, w))
    return out


def test_is_lth_power_mod_examples():
    # the power test of qualifying_primes with b at index 1, so untested: p is yielded iff
    # a is no l-th power mod p
    assert not yields(7, 2, 1, 2, 1)   # 4^2 = 16 = 2 mod 7
    assert yields(7, 3, 1, 2, 1)       # squares mod 7 are {1, 2, 4}
    assert not yields(7, 1, 1, 3, 1)
    assert not yields(7, 2, 1, 5, 1)   # 5 does not divide 6
    assert not yields(7, 7, 1, 2, 1)   # 7 divides a


def test_is_lth_power_mod_matches_enumeration():
    for p in primes_in_range(2, 501):
        for l, e in factorize(p - 1).factors.items():
            powers = {pow(t, l, p) for t in range(1, p)}
            for a in range(1, p):
                # modulus l^e: p = 1 (mod l^e) but not (mod l^(e+1)), so only the power test decides
                assert yields(p, a, 1, l**e, 1) == (a not in powers), (p, l, a)


def test_qualifies_prime_examples():
    def qualified(p, modulus, a, b):
        return yields(p, a, b, modulus, modulus)

    assert qualified(7, 2, 3, 5)
    assert not qualified(5, 2, 3, 7)    # 5 = 1 mod 4
    assert not qualified(7, 2, 2, 3)    # 2 is a square mod 7
    assert not qualified(7, 2, 14, 3)   # 7 divides a base
    assert not qualified(8, 2, 3, 5)    # 8 is not prime


def test_qualifies_prime_congruence_recorded():
    assert not yields(11, 2, 5, 3, 3)   # 11 != 1 mod 3
    assert yields(13, 2, 3, 3, 3)       # 2, 3 are non-cubes mod 13; 13 != 1 mod 9


def test_lemma_divides_examples():
    # p | Phi_N(a^n) and Phi_N(b^n) for qualified p, (p-1)/N | n and gcd(n, N) = 1
    for p, modulus, a, b, n in ((7, 2, 3, 5, 3), (7, 1, 2, 3, 6), (13, 3, 2, 3, 4)):
        assert qualifies(p, modulus, a, b)
        assert eval_mod_prime(modulus, a, n, p) == 0
        assert eval_mod_prime(modulus, b, n, p) == 0


def test_lemma_divides_preconditions_distinct():
    # each hypothesis of the lemma, dropped alone, admits p not dividing Phi_N(a^n)
    assert qualifies(7, 2, 3, 5) and eval_mod_prime(2, 3, 4, 7) != 0      # 3 does not divide 4
    assert qualifies(13, 3, 2, 3) and eval_mod_prime(3, 2, 12, 13) != 0   # gcd(12, 3) = 3
    assert not qualifies(7, 2, 2, 3) and eval_mod_prime(2, 2, 3, 7) != 0  # 2 is a square mod 7


def test_divisibility_iff_order():
    # p | Phi_N(a^n) <=> ord_p(a^n) = N, for p not dividing N*a
    for p in primes_in_range(2, 201):
        for n_idx in factorize(p - 1).divisors():
            for a in (2, 3, 10):
                if a % p == 0:
                    continue
                for n in (1, 2, 5, 12):
                    divides = eval_mod_prime(n_idx, a, n, p) == 0
                    assert divides == (n_order(pow(a, n, p), p) == n_idx)


def test_lemma_scan_small():
    result = lemma_scan(2, 3, 5, 500, 10)
    assert result.qualified_primes > 0
    assert result.cases_checked > result.qualified_primes


def test_lemma_scan_counts_every_admissible_m():
    # each class of m mod N is evaluated once but counts all of its members
    for modulus, a, b in ((1, 2, 3), (2, 3, 5), (3, 2, 5), (6, 5, 7)):
        for m_max in (1, 5, 20):
            result = lemma_scan(modulus, a, b, 3000, m_max)
            admissible = sum(1 for m in range(1, m_max + 1) if math.gcd(m, modulus) == 1)
            assert result.qualified_primes == len(list(qualifying_primes(2, 3001, a, b, modulus, modulus)))
            assert result.cases_checked == result.qualified_primes * 2 * admissible


def test_lemma_scan_refuses_doctored_primes(monkeypatch):
    # 2 is a square mod 7, so Phi_2(2^(1*3)) = 9 is not divisible by 7
    # None takes the power in the lemma, as for a base the wheel settled; the same prime
    # carrying its true powers u = 2^3 = 1 and 3^3 = 6 (mod 7) fails alike
    for doctored in ((7, 3, None, None), (7, 3, 1, 6)):
        monkeypatch.setattr(residues, "qualifying_primes", lambda *args: iter([doctored]))
        with pytest.raises(VerificationError, match=r"p = 7, base = 2, n = 1\*3 "):
            lemma_scan(2, 2, 3, 100, 5)
    # 9 is no prime: u = 2^4 = 7 (mod 9) has u^2 = 4, so the classes of m mod 2 cannot stand in for m
    monkeypatch.setattr(residues, "qualifying_primes", lambda *args: iter([(9, 4, None, None)]))
    with pytest.raises(VerificationError, match=r"p = 9, base = 2: u = 2\^4 has u\^2 != 1"):
        lemma_scan(2, 2, 3, 100, 5)


def test_lemma_scan_takes_each_power_once(monkeypatch):
    # the lemma reads u = base^w from the qualification, so no (base, p) is raised to an
    # exponent above N twice; taking u again would raise both bases of every prime twice
    for modulus, a, b, m_max in ((3, 30, 29, 20), (15, 2, 7, 40)):
        raised = collections.Counter()

        def counted(base, e, mod):
            if e > modulus:
                raised[base, mod] += 1
            return pow(base, e, mod)

        monkeypatch.setattr(residues, "pow", counted, raising=False)
        result = lemma_scan(modulus, a, b, 20000, m_max)
        assert len(raised) >= 2 * result.qualified_primes > 0, modulus
        assert max(raised.values()) == 1, [t for t, n in raised.items() if n > 1][:5]


def test_lemma_scan_with_large_coefficients_matches_sympy(capsys, monkeypatch):
    # Phi_105 has the coefficient -2; the scan's Horner steps reduce the raw
    # coefficients mod p, checked against sympy's Phi_105 at base^(m*w) term by term
    phi = [int(c) for c in Poly(cyclotomic_poly(105, X), X).all_coeffs()[::-1]]
    assert min(phi) == -2
    p_max, m_max = 20000, 120
    qualified = cases = 0
    for p in primerange(2, p_max + 1):
        if p in (2, 3) or not qualifies(p, 105, 2, 3):
            continue
        qualified += 1
        w = (p - 1) // 105
        for base in (2, 3):
            for m in range(1, m_max + 1):
                if math.gcd(m, 105) == 1:
                    t = pow(base, m * w, p)
                    assert sum(c * pow(t, k, p) for k, c in enumerate(phi)) % p == 0, (p, base, m)
                    cases += 1
    assert qualified >= 10
    assert lemma_scan(105, 2, 3, p_max, m_max) == (qualified, cases)
    # 2 is a cube mod 1051: u = 2^10 has order dividing 35, so Phi_105(u) != 0 (mod 1051)
    monkeypatch.setattr(residues, "qualifying_primes", lambda *args: iter([(1051, 10, None, None)]))
    assert main(["verify-lemma", "--N", "105", "--a", "2", "--b", "3", "--p-max", "2000"]) == 2
    assert "divisibility lemma failed at p = 1051, base = 2, n = 1*10 " in capsys.readouterr().err


def test_lemma_scan_rejects_power_bases():
    with pytest.raises(HypothesisError, match="l-th power in Q"):
        lemma_scan(2, 4, 3, 100, 5)


def test_lemma_scan_refuses_vacuous_scans():
    # no prime or no m to check: the result would certify nothing
    with pytest.raises(ValueError, match="p_max must be at least 2, got 1"):
        lemma_scan(3, 2, 5, 1, 20)
    with pytest.raises(ValueError, match="m_max must be at least 1, got 0"):
        lemma_scan(3, 2, 5, 100, 0)


def test_check_bases_refusals():
    with pytest.raises(ValueError, match="bases must be at least 2, got a = 1, b = 3"):
        check_bases(1, 3, 2, 2)
    with pytest.raises(ValueError, match="indices must be at least 1, got N = 0$"):
        check_bases(2, 3, 0, 0)
    with pytest.raises(ValueError, match="indices must be at least 1, got M = 0, N = 2"):
        check_bases(2, 3, 0, 2)
    # 8 is a cube, and 3 | lcm(2, 3) although a sits at index 2
    with pytest.raises(HypothesisError, match="a = 8 is an l-th power in Q for l = 3"):
        check_bases(8, 5, 2, 3)
    # d enters the modulus of the square test: Q(sqrt 5) lies in Q(zeta_10), not Q(zeta_2)
    check_bases(5, 2, 2, 2)
    with pytest.raises(HypothesisError, match=r"a = 5 is a square mod every prime p = 1 \(mod 10\)"):
        check_bases(5, 2, 2, 2, 5)
    # the index hypothesis: D = gcd(4, 6) = 2 divides 4/D, while 6/D = 3 and 2/D = 1 are prime to D
    with pytest.raises(HypothesisError, match=r"indices M = 4, N = 6 need gcd\(M/D, D\) = gcd\(N/D, D\) = 1 "
                                              r"for D = gcd\(M, N\) = 2$"):
        check_bases(5, 7, 4, 6)
    check_bases(5, 7, 2, 6)
    # the filter d is checked first, with the messages density runs have always given
    with pytest.raises(ValueError, match="d must be at least 1, got 0$"):
        check_bases(1, 3, 2, 2, 0)
    with pytest.raises(HypothesisError, match="d = 4 must be squarefree$"):
        check_bases(2, 3, 2, 2, 4)
    with pytest.raises(HypothesisError, match="d = 2 must be coprime to the modulus 2$"):
        check_bases(2, 3, 2, 2, 2)


def test_constructed_n_coprimality():
    # for qualified p, n = m (p-1)/N with gcd(m, N) = 1 is coprime to N
    for p, w, _, _ in qualifying_primes(2, 2000, 2, 5, 3, 3):
        for m in (1, 2, 4, 5):
            assert math.gcd(m * w, 3) == 1


def test_qualifying_primes_matches_explainer():
    for modulus, a, b in ((1, 2, 3), (2, 2, 3), (3, 2, 5), (6, 5, 7), (4, 3, 5)):
        for d in (1, 5, 7):
            got = pairs(qualifying_primes(2, 3000, a, b, modulus, modulus, d), a, b)
            want = [p for p in primes_in_range(2, 3000)
                    if a % p and b % p and qualifies(p, modulus, a, b)
                    and (p - 1) // modulus % d == 0]
            assert got == [(p, (p - 1) // modulus) for p in want]


def test_square_class_memo_matches_legendre():
    # the l = 2 verdicts, kept per class of p mod 4c, against the Legendre symbol of every prime;
    # c even, not squarefree or larger than a block, and the memo is per call, so splits agree.
    # b = 1 sits at index 1, untested; at moduli 6 and 10, a is also tested for the odd l
    primes = list(primerange(2, 10**5))
    for modulus in (2, 4, 6, 10):
        ells = primefactors(modulus)
        for c in (2, 8, 12, 18, 45, 1000003):
            want = [(p, (p - 1) // modulus) for p in primes
                    if p % modulus == 1 and c % p and all((p - 1) % (modulus * l) for l in ells)
                    and legendre(c, p) == -1 and all(pow(c, (p - 1) // l, p) != 1 for l in ells if l > 2)]
            assert pairs(qualifying_primes(2, 10**5, c, 1, modulus, 1), c, 1) == want, (modulus, c)
            for pieces in (4, 8):
                blocks = split_range(2, 10**5, pieces)
                assert pairs([t for block in blocks for t in qualifying_primes(*block, c, 1, modulus, 1)],
                             c, 1) == want, (modulus, c)


def test_qualifying_primes_matches_brute_force(monkeypatch):
    # the definition checked for every prime on its own, with sympy's n_order and no
    # classes: a^w of order M and b^w of order N.  1000003 is too large a discriminant for
    # the wheel and keeps the powmod.  For modulus 2, bases 8 and 1001 need a wheel of 4004
    # classes: the whole range builds it, and its 4 and 8 blocks, shorter than that, test
    # 1001 by the powmod instead.  Base a sits at index M and b at index N: both, one of
    # them, and the power of the smallest l against the rest.  The whole range is sieved
    # in segments of the values of k in 2999 numbers, so ten segments share its wheel.
    # Each yield carries u_c = c^w mod p, or None where the wheel of its call, seen through
    # the (core, sign) tests it was built with, settled every test of c
    hi = 30000
    primes = list(primerange(2, hi))
    order = functools.cache(lambda c, p, w: n_order(pow(c, w, p), p))  # w = (p-1)/lcm(M, N)
    wheels, real_wheel = [], residues._admissible_wheel
    monkeypatch.setattr(residues, "_admissible_wheel", lambda *args: wheels.append(set(args[2])) or real_wheel(*args))

    def want(a, b, M, N, d):
        out = []
        modulus = math.lcm(M, N)
        ells = primefactors(modulus)
        for p in primes:
            w = (p - 1) // modulus
            if ((p - 1) % modulus or w % d or a % p == 0 or b % p == 0
                    or any(w % l == 0 for l in ells)):
                continue
            if order(a, p, w) == M and order(b, p, w) == N:
                out.append((p, w))
        return out

    def settles_all(c, index, modulus, settled):
        # c's tests: l | index for each prime l, and the order test when index < L; the
        # wheel takes only the square test (core, -1) and the order test with L/I = 2 (core, +1)
        core = math.prod(q for q, e in factorint(c).items() if e % 2)
        return (all(l == 2 for l in primefactors(index)) and (index % 2 or (core, -1) in settled)
                and (index == modulus or (modulus == 2 * index and (core, 1) in settled)))

    def check_block(lo, hi, case, oracle):
        # qualifying_primes on [lo, hi) against the oracle's (p, w) there, with their powers
        a, b, M, N, _ = case
        modulus = math.lcm(M, N)
        wheels.clear()
        got = list(qualifying_primes(lo, hi, *case))
        settled = wheels[0] if wheels else set()
        taken = [(c, not settles_all(c, index, modulus, settled)) for c, index in ((a, M), (b, N))]
        assert got == [(p, w, *(pow(c, w, p) if took else None for c, took in taken))
                       for p, w in oracle if lo <= p < hi], (case, lo, hi, settled)

    for modulus in range(1, 13):
        l, e = min(factorint(modulus).items(), default=(1, 0))
        head = l**e  # the power of the smallest prime l | modulus
        for d in (1, 2, 3, 5):
            for a, b in ((8, 12), (18, 45), (45, 1000003), (8, 1001)):
                for M, N in ((modulus, modulus), (modulus, 1), (1, modulus), (head, modulus // head)):
                    case = (a, b, M, N, d)
                    oracle = want(*case)
                    for pieces in (4, 8):
                        for block in split_range(2, hi, pieces):
                            check_block(*block, case, oracle)
                    with monkeypatch.context() as patch:
                        patch.setattr(residues, "_SEGMENT", max(1, 2999 // (math.lcm(M, N) * d)))
                        check_block(2, hi, case, oracle)

    # rad(L) above the range of k of every block, whose sieve strikes the k with l | w all the
    # same: k stays below 143 for 210 to 30000, 433 for 2310 to 10^6, 196 for 510510 to 10^8
    sieved, real_sieve = [], residues.primes_in_range
    monkeypatch.setattr(residues, "primes_in_range", lambda *args: sieved.append(args) or real_sieve(*args))
    for modulus, hi, bases in ((210, 30000, ((3, 7), (2, 3))), (2310, 10**6, ((3, 11), (3, 7))),
                               (510510, 10**8, ((2, 3),))):
        primes = [p for p in range(1 + modulus, hi, modulus) if isprime(p)]
        for a, b in bases:
            for M, N, d in ((modulus, modulus, 1), (modulus, modulus, 19), (1, modulus, 1), (2, modulus // 2, 1)):
                case = (a, b, M, N, d)
                oracle = want(*case)
                for pieces in (1, 4):
                    for block in split_range(2, hi, pieces):
                        sieved.clear()
                        check_block(*block, case, oracle)
                        assert sieved and all(args[4] == tuple(primefactors(modulus)) for args in sieved), block


def test_a_segment_is_counted_in_values_of_k(monkeypatch):
    # a segment holds _SEGMENT values of k, not _SEGMENT numbers: with step 9699690 the
    # 206 values of k below 2*10^9 take one sieve, where 2^22 numbers a segment took 477
    calls, real = [], residues.primes_in_range

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(residues, "primes_in_range", counted)
    found = list(qualifying_primes(2, 2 * 10**9, 2, 3, 9699690, 9699690))
    assert len(calls) == 1
    assert pairs(found, 2, 3) == [(p, (p - 1) // 9699690) for p in range(9699691, 2 * 10**9, 9699690)
                                  if isprime(p) and qualifies(p, 9699690, 2, 3)]


def test_squares_forced_by_the_modulus():
    # rejected exactly when every p = 1 (mod modulus) up to 5000 has c as a square, for c as
    # a at index modulus and as b; the other base, 2 at index 1, is never tested for squares
    for modulus in (2, 4, 6, 8, 10, 12, 24, 40):
        for c in (2, 3, 5, 6, 7, 10, 12, 18):
            primes = [p for p in primes_in_range(2, 5001) if p % modulus == 1 and c % p]
            always = all(is_nthpow_residue(c, 2, p) for p in primes)
            for name, args in (("a", (c, 2, modulus, 1)), ("b", (2, c, 1, modulus))):
                try:
                    check_bases(*args)
                    rejected = False
                except HypothesisError as exc:
                    rejected = True
                    assert f"{name} = {c} is a square" in str(exc) and f"(mod {modulus})" in str(exc)
                assert rejected == always, (modulus, c, name)
