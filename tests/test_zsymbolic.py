"""Symbolic primary spectra of Z and Z x Z."""

import itertools
import random
from collections import Counter
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    factorize_by_trial_division,
    is_prime_by_all_bases,
    passes_strong_test,
    subcover_by_factoring,
)

from primspec import zsymbolic
from primspec.zsymbolic import (
    NotACoverError,
    ZERO_IDEAL,
    ZPrimaryIdeal,
    ZVariety,
    ZxZPrimaryIdeal,
    a2_failure_witness_z,
    closure_equal_z,
    closure_equal_zxz,
    closure_z,
    extract_finite_subcover_z,
    factorize,
    is_probable_prime,
    prim_zxz_closure,
    v_rad_z,
    v_z,
)


def radical_int(n: int) -> int:
    """Product of the distinct prime divisors of |n| (1 for units)."""
    if abs(n) == 1:
        return 1
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


def _trial_division_primes(n):
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(30) == [(2, 1), (3, 1), (5, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(-18) == [(2, 1), (3, 2)]
    assert factorize(1) == []
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(1 << 64)


def test_factorize_accepts_exactly_64_bits():
    expected = [(3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)]
    assert factorize((1 << 64) - 1) == expected
    assert factorize(-((1 << 64) - 1)) == expected
    for n in (1 << 64, -(1 << 64)):
        with pytest.raises(ValueError, match="input exceeds 64 bits"):
            factorize(n)


def _products_of_primes_below_256(rng, count):
    """Seeded products of primes below 256, each as long as 64 bits allow."""
    small = list(sympy.primerange(2, 256))
    values = []
    for _ in range(count):
        n = rng.choice(small)
        while (m := n * rng.choice(small)).bit_length() <= 64:
            n = m
        values.append(n)
    return values


def test_factorize_across_the_trial_division_bound():
    values = [251**2, 251 * 257, 257**2, 241 * 251 * 65521]
    values += [257 << k for k in range(1, 56)]
    values += _products_of_primes_below_256(random.Random(256), 200)
    for n in values:
        got = factorize(n)
        assert got == _as_factorint(n), n
        if n < 1 << 63:
            assert got == factorize_by_trial_division(n), n


def test_factorize_leaves_to_rho_only_factors_above_256(monkeypatch):
    # every prime factor but the largest lies below 256, so trial division
    # leaves a prime, a square of one or nothing, and rho is never needed
    def no_rho(n):
        raise AssertionError(f"rho called on {n}")

    rng = random.Random(43)
    values = [43 * 47 * 10007, 251 * 257, 257**2, 241 * 251 * 65521, 43**5 * (2**31 - 1)]
    values += _products_of_primes_below_256(rng, 50)
    for _ in range(50):
        n = 1
        for _ in range(rng.randint(1, 4)):
            n *= sympy.prime(rng.randint(14, 54))  # 43 ... 251
        values.append(n * _random_prime(rng, 256, 2 ** (64 - n.bit_length())))
    expected = {n: _as_factorint(n) for n in values}
    monkeypatch.setattr(zsymbolic, "_pollard_rho", no_rho)
    for n in values:
        assert factorize(n) == expected[n], n


def test_factorize_matches_all_bases_below_2e5():
    # trial division stops early on small primes (2, 3, 257) and leaves
    # them as the remainder
    assert [factorize(n) for n in (2, 3, 257)] == [[(2, 1)], [(3, 1)], [(257, 1)]]
    prime = [is_prime_by_all_bases(n) for n in range(200_000)]
    for n in range(1, 200_000):
        factors = factorize(n)
        assert (factors == [(n, 1)]) == prime[n], n
        product = 1
        for p, k in factors:
            assert prime[p], (n, p)
            product *= p**k
        assert product == n and factors == sorted(factors), n


@pytest.mark.parametrize("psi", [psi for psi, _ in zsymbolic._MR_ROWS])
def test_miller_rabin_matches_all_bases_at_each_row(psi):
    # each row's bound, its neighbours and the primes beside it, with the
    # row's own bases and the next row's on either side of the bound;
    # is_probable_prime has no trial step, so the rounds alone reject the
    # multiples of the 13 bases among them
    near = [psi - 2, psi - 1, psi, psi + 1, psi + 2, sympy.prevprime(psi), sympy.nextprime(psi)]
    for n in near:
        assert is_probable_prime(n) == is_prime_by_all_bases(n), n
        if n.bit_length() <= 64:
            assert factorize(n) == _as_factorint(n), n


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == [(p, 1), (q, 1)]
    assert factorize(p * p) == [(p, 2)]


def _as_factorint(n):
    return sorted(sympy.factorint(n).items())


def _random_prime(rng, low, high):
    """A prime in (low, high), from a seeded draw."""
    while True:
        p = sympy.nextprime(rng.randrange(low, high))
        if p < high:
            return p


def test_factorize_semiprimes_above_a_million():
    # the factors come from sympy.nextprime, so the expected result is known
    rng = random.Random(14)
    for _ in range(40):
        p, q = sorted((_random_prime(rng, 10**6, 2**31), _random_prime(rng, 10**6, 2**31)))
        expected = [(p, 2)] if p == q else [(p, 1), (q, 1)]
        assert factorize(p * q) == expected, p * q


@pytest.mark.parametrize("bits", [62, 64])
def test_factorize_random_wide_integers_match_sympy(bits):
    rng = random.Random(bits)
    for _ in range(40):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        assert factorize(n) == _as_factorint(n), n


def test_factorize_prime_powers_match_sympy_and_trial_division():
    # no factor below 43, nearly always none below 256, and not squares, so
    # Brent's rho must split them; each value stays below 2^63, where the
    # trial-division oracle runs
    rng = random.Random(3)
    values = []
    for _ in range(12):
        p, q = _random_prime(rng, 41, 10**6), _random_prime(rng, 41, 10**6)
        values += [p**3, _random_prime(rng, 41, 6000) ** 5]
        if q != p:
            values.append(p * p * q)
    for n in values:
        assert factorize(n) == _as_factorint(n) == factorize_by_trial_division(n), n


def test_factorize_small_prime_multiples_match_sympy_and_trial_division():
    rng = random.Random(41)
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for _ in range(30):
        n = _random_prime(rng, 10**6, 10**9)
        for b in rng.sample(small, rng.randint(1, 3)):
            n *= b ** rng.randint(1, 2)
        assert factorize(n) == _as_factorint(n) == factorize_by_trial_division(n), n


@given(st.integers(1, 10**12))
@settings(max_examples=120, deadline=None)
def test_factorize_reconstructs_and_factors_prime(n):
    factors = factorize(n)
    product = 1
    for p, k in factors:
        assert sympy.isprime(p)
        product *= p**k
    assert product == n
    assert [p for p, _ in factors] == sorted(p for p, _ in factors)


@given(st.integers(2, 10**9))
@settings(max_examples=150, deadline=None)
def test_miller_rabin_matches_sympy(n):
    assert is_probable_prime(n) == sympy.isprime(n)


def test_miller_rabin_rejects_strong_pseudoprime_to_bases_through_37():
    # psi_12, the least composite that passes the strong test to every prime
    # base up to 37: from it on the test runs all 13 bases, and base 41
    # keeps it exact below 3.3e24
    psi12 = 399165290221 * 798330580441
    assert not is_probable_prime(psi12)
    assert is_probable_prime(2**61 - 1) and is_probable_prime(2**89 - 1)


# psi_k, the least strong pseudoprime to the first k prime bases
# (Pomerance, Selfridge and Wagstaff 1980; Jaeschke 1993; Jiang and Deng
# 2014; Sorenson and Webster 2017)
PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    8: 341550071728321,
    9: 3825123056546413051,
    10: 3825123056546413051,
    11: 3825123056546413051,
    12: 318665857834031151167461,
}


def test_miller_rabin_matches_all_bases_below_2_to_17():
    disagree = [n for n in range(1 << 17) if is_probable_prime(n) != is_prime_by_all_bases(n)]
    assert disagree == []


def test_miller_rabin_matches_all_bases_on_random_odd_numbers():
    rng = random.Random(24)
    for bits in range(2, 65):
        for _ in range(500):
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            assert is_probable_prime(n) == is_prime_by_all_bases(n), n


@pytest.mark.parametrize("k", sorted(PSI))
def test_miller_rabin_rejects_psi_k_and_accepts_the_primes_beside_it(k):
    psi = PSI[k]
    assert passes_strong_test(psi, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)[:k])
    assert not is_probable_prime(psi) and not is_prime_by_all_bases(psi)
    for p in (sympy.prevprime(psi), sympy.nextprime(psi)):
        assert is_probable_prime(p) and is_prime_by_all_bases(p), p


def test_v_rad_z_examples():
    v = v_rad_z(12)
    assert v == ZVariety(families=frozenset({2, 3}))
    assert str(v) == "{(2^k): k≥1} ∪ {(3^k): k≥1}"
    assert v_rad_z(0) == ZVariety(all_points=True)
    assert v_rad_z(1) == ZVariety()
    assert v_rad_z(-1) == ZVariety()
    assert str(v_rad_z(1)) == "∅"


def test_v_z_contrast():
    assert v_z(12) == [2, 3]
    assert v_z(1) == []
    assert v_z(0) is None


@given(st.integers(2, 10**6))
@settings(max_examples=150, deadline=None)
def test_v_rad_z_matches_trial_division(n):
    assert v_rad_z(n).families == _trial_division_primes(n)


@given(st.integers(2, 10**5), st.integers(2, 10**5))
@settings(max_examples=80, deadline=None)
def test_v_rad_z_coprime_multiplicativity(m, n):
    if gcd(m, n) == 1:
        assert v_rad_z(m * n) == v_rad_z(m).union(v_rad_z(n))


@given(st.integers(2, 10**6))
@settings(max_examples=80, deadline=None)
def test_v_rad_z_radical_invariance(n):
    assert v_rad_z(n) == v_rad_z(radical_int(n))


def test_z_ideal_validation():
    with pytest.raises(ValueError):
        ZPrimaryIdeal(4, 1)
    with pytest.raises(ValueError):
        ZPrimaryIdeal(2, 0)
    assert str(ZPrimaryIdeal(2, 3)) == "(2^3)"
    assert str(ZPrimaryIdeal(5, 1)) == "(5)"
    assert str(ZERO_IDEAL) == "(0)"


def test_z_point_primes_bounded_by_64_bits():
    assert str(ZPrimaryIdeal(2**64 - 59, 2)) == "(18446744073709551557^2)"
    for p in (2**89 - 1, -(2**89 - 1), 1 << 64):
        with pytest.raises(ValueError, match="prime exceeds 64 bits"):
            ZPrimaryIdeal(p, 1)
        with pytest.raises(ValueError, match="prime exceeds 64 bits"):
            a2_failure_witness_z(p)


def test_closure_z_examples():
    q1, q2 = ZPrimaryIdeal(2, 3), ZPrimaryIdeal(2, 5)
    assert closure_equal_z(q1, q2)
    assert q1 != q2  # non-T0 witness
    assert not closure_equal_z(q1, ZPrimaryIdeal(3, 3))
    assert closure_z(ZERO_IDEAL).all_points
    assert closure_z(q1).contains(ZPrimaryIdeal(2, 9))
    assert not closure_z(q1).contains(ZERO_IDEAL)


def test_closure_extensivity():
    for p, k in [(2, 1), (3, 4), (7, 2)]:
        q = ZPrimaryIdeal(p, k)
        assert closure_z(q).contains(q)
    assert closure_z(ZERO_IDEAL).contains(ZERO_IDEAL)


def test_subcover_examples():
    cert = extract_finite_subcover_z(6, [4, 9, 25])
    assert set(cert.delta) <= {4, 9, 25}
    assert cert.verify()
    cert = extract_finite_subcover_z(2, [8])
    assert cert.delta == (8,) and cert.exponent == 3 and cert.coefficients == (1,)
    assert cert.verify()
    with pytest.raises(NotACoverError) as err:
        extract_finite_subcover_z(2, [9])
    assert err.value.uncovered_prime == 3
    with pytest.raises(NotACoverError):
        extract_finite_subcover_z(5, [0])
    with pytest.raises(ValueError):
        extract_finite_subcover_z(0, [2])


def test_subcover_unit_gcd():
    cert = extract_finite_subcover_z(1, [2, 3])
    assert cert.verify()
    cert = extract_finite_subcover_z(7, [10, 21])
    assert cert.verify()


def _is_cover(r, s_values):
    nonzero = [s for s in s_values if s]
    if not nonzero:
        return False
    g = 0
    for s in nonzero:
        g = gcd(g, s)
    return _trial_division_primes(g) <= _trial_division_primes(r)


@given(
    st.integers(-10**6, 10**6).filter(lambda n: n != 0),
    st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_subcover_certificates_verify_or_reject(r, s_values):
    if _is_cover(r, s_values):
        cert = extract_finite_subcover_z(r, s_values)
        assert cert.verify()
        assert set(cert.delta) <= set(s_values)
        assert _is_cover(r, list(cert.delta))
    else:
        with pytest.raises(NotACoverError):
            extract_finite_subcover_z(r, s_values)


def _subcover_value(rng):
    """Zero, or a signed product of prime powers below 10^12, often with a
    cofactor."""
    if rng.random() < 0.1:
        return 0
    v = 1
    for _ in range(rng.randint(0, 4)):
        f = rng.choice((2, 3, 5, 7, 11, 13, 41, 43, 97, 1009, 10007)) ** rng.randint(1, 4)
        if v * f < 10**12:
            v *= f
    if rng.random() < 0.3 and v < 10**8:
        v *= rng.randint(1, 10**4)
    return v * rng.choice((1, -1))


def _subcover_outcome(extract, r, s_values):
    try:
        cert = extract(r, s_values)
    except NotACoverError as err:
        return "not a cover", str(err), err.uncovered_prime
    except ValueError as err:
        return "invalid", str(err)
    return "cover", cert.r, cert.delta, cert.exponent, cert.coefficients


def test_subcover_matches_the_factoring_oracle():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(2000):
        r = _subcover_value(rng)
        s_values = [_subcover_value(rng) for _ in range(rng.randint(1, 6))]
        expected = _subcover_outcome(subcover_by_factoring, r, s_values)
        assert _subcover_outcome(extract_finite_subcover_z, r, s_values) == expected, (r, s_values)
        outcomes.add((expected[0], expected[0] == "cover" and expected[3] > 1))
    assert outcomes == {
        ("cover", True),
        ("cover", False),
        ("not a cover", False),
        ("invalid", False),
    }


def test_subcover_factors_nothing_on_a_cover(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(zsymbolic, "factorize", counted)
    covers = [
        ((6, [4, 9, 25]), 2),
        ((2, [8]), 3),
        ((-12, [0, 18, -27, 32]), 2),
        ((7, [10, 21]), 1),
        ((12, [8]), 2),
        ((-2, [1024]), 10),
    ]
    for (r, s_values), exponent in covers:
        cert = extract_finite_subcover_z(r, s_values)
        assert cert.verify() and cert.exponent == exponent
    assert calls == []
    with pytest.raises(NotACoverError) as err:
        extract_finite_subcover_z(6, [35, 70])
    assert err.value.uncovered_prime == 5
    assert calls == [35]


# pairs of 2-3-5 numbers whose gcds range over covers needing exponents
# up to 7 and non-covers by each prime
_GRID_PAIRS = list(
    itertools.combinations(
        [0, 1, 2**7, 3**5, 5**4, 2**3 * 3**2, 2 * 5**3, 3**3 * 5, 2**6 * 3 * 5**2, 30, 900],
        2,
    )
)


def _grid_values(bound):
    """Every +-2^a * 3^b * 5^c of absolute value at most bound."""
    values = [
        sign * 2**a * 3**b * 5**c
        for a in range(bound.bit_length())
        for b in range(bound.bit_length())
        for c in range(bound.bit_length())
        for sign in (1, -1)
    ]
    return sorted(v for v in values if abs(v) <= bound)


def test_subcover_matches_the_factoring_oracle_on_a_2_3_5_grid():
    outcomes = Counter()
    for r in _grid_values(10**4):
        for s_values in _GRID_PAIRS:
            expected = _subcover_outcome(subcover_by_factoring, r, list(s_values))
            got = _subcover_outcome(extract_finite_subcover_z, r, list(s_values))
            assert got == expected, (r, s_values)
            outcomes[expected[0], expected[0] == "cover" and expected[3] > 1] += 1
    assert set(outcomes) == {("cover", True), ("cover", False), ("not a cover", False)}
    assert outcomes["cover", True] > outcomes["cover", False] / 4
    # the 64-bit bound on r is checked before the cover is
    with pytest.raises(ValueError, match="input exceeds 64 bits") as err:
        extract_finite_subcover_z(2**64, [0])
    assert not isinstance(err.value, NotACoverError)


def test_subcover_accepts_a_gcd_above_63_bits():
    # gcd(s_values) = 3 * 2^64, every prime of which divides r
    s_values = [3 << 64, 9 << 64]
    with pytest.raises(ValueError, match="input exceeds 64 bits"):
        subcover_by_factoring(6, s_values)
    cert = extract_finite_subcover_z(6, s_values)
    assert cert.verify() and cert.exponent == 64
    with pytest.raises(NotACoverError) as err:
        extract_finite_subcover_z(6, [5 << 64, 10 << 64])
    assert err.value.uncovered_prime == 5


def test_a2_failure_witness():
    w = a2_failure_witness_z(2)
    assert w.radical_of_intersection == ZERO_IDEAL
    assert w.intersection_of_radicals == ZPrimaryIdeal(2, 1)
    assert not w.sides_equal
    w3 = a2_failure_witness_z(3)
    assert w3.intersection_of_radicals == ZPrimaryIdeal(3, 1)
    with pytest.raises(ValueError):
        a2_failure_witness_z(4)


def test_zxz_closures():
    l23 = ZxZPrimaryIdeal("left", ZPrimaryIdeal(2, 3))
    l27 = ZxZPrimaryIdeal("left", ZPrimaryIdeal(2, 7))
    assert closure_equal_zxz(l23, l27)
    assert l23 != l27  # non-T0 witness
    assert not closure_equal_zxz(l23, ZxZPrimaryIdeal("right", ZPrimaryIdeal(2, 3)))
    assert not closure_equal_zxz(l23, ZxZPrimaryIdeal("left", ZPrimaryIdeal(3, 3)))
    closure = prim_zxz_closure(l23)
    assert closure.side == "left" and closure.p == 2
    assert str(closure) == "{(2^n)×Z: n≥1}"
    assert str(prim_zxz_closure(ZxZPrimaryIdeal("right", ZPrimaryIdeal(5, 2)))) == (
        "{Z×(5^n): n≥1}"
    )
    with pytest.raises(ValueError):
        ZxZPrimaryIdeal("top", ZPrimaryIdeal(2, 1))


def test_zxz_zero_inner_behind_flagged_representation():
    lz = ZxZPrimaryIdeal("left", ZERO_IDEAL)
    rz = ZxZPrimaryIdeal("right", ZERO_IDEAL)
    assert not closure_equal_zxz(lz, rz)
    assert prim_zxz_closure(lz).p is None
    assert str(lz) == "(0)×Z"
    assert "(0)×Z" in str(prim_zxz_closure(lz))
