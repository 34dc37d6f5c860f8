"""Ideal lattice: generation, enumeration, radicals, classification."""

import itertools

import pytest

from primspec.ideals import enumerate_ideals, ideal_generated_by, mask_of
from primspec.rings import CapExceededError, build_ring, parse_ring_spec, unit_and_nilpotent_flags


def _ring(text):
    return build_ring(parse_ring_spec(text))


def _lattice(text):
    return enumerate_ideals(_ring(text))


def _id(lattice, members):
    return lattice.id_by_mask[mask_of(members)]


def test_generated_by_examples():
    r12 = _ring("Zn(12)")
    assert sorted(ideal_generated_by(r12, {4}).members()) == [0, 4, 8]
    assert ideal_generated_by(r12, set()).members() == [0]
    k8 = _ring("Quot(GF(2), x^3)")
    # x^2 has index 4 (little-endian digits over GF(2))
    assert sorted(ideal_generated_by(k8, {4}).members()) == [0, 4]


def test_generated_ideals_are_closed():
    r = _ring("Prod(Zn(4), Zn(9))")
    for gens in ([], [5], [7, 12], [1]):
        assert ideal_generated_by(r, gens).is_closed()


def test_enumerate_examples():
    lat12 = _lattice("Zn(12)")
    assert [lat12.render(i) for i in range(len(lat12))] == [
        "(0)",
        "(6)",
        "(4)",
        "(3)",
        "(2)",
        "(1)",
    ]
    assert len(_lattice("Quot(Zn(4), x^2+x+1)")) == 3
    assert len(_lattice("GF(7)")) == 2


@pytest.mark.parametrize("n", [2, 6, 8, 12, 16, 30, 36, 72])
def test_zn_ideal_count_is_divisor_count(n):
    divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
    assert len(_lattice(f"Zn({n})")) == divisors


def test_every_enumerated_ideal_is_closed():
    for text in ("Zn(12)", "Quot(GF(2), x^3)", "Prod(GF(2), GF(2))"):
        lat = _lattice(text)
        assert all(ideal.is_closed() for ideal in lat.ideals)


def test_ideal_cap():
    ring = _ring("Zn(30)")
    with pytest.raises(CapExceededError):
        enumerate_ideals(ring, max_ideals=3)


def test_arithmetic_examples():
    lat = _lattice("Zn(12)")
    i4, i3 = _id(lat, [0, 4, 8]), _id(lat, [0, 3, 6, 9])
    assert lat.product_id(i4, i3) == lat.zero_id
    assert lat.intersection_id(i4, i3) == lat.zero_id
    assert lat.sum_id(i4, i3) == lat.unit_id
    lat6 = _lattice("Zn(6)")
    i2, i3 = _id(lat6, [0, 2, 4]), _id(lat6, [0, 3])
    assert lat6.intersection_id(i2, i3) == lat6.zero_id


def test_radical_examples():
    lat8 = _lattice("Zn(8)")
    assert lat8.render(lat8.radical_id(_id(lat8, [0, 4]))) == "(2)"
    lat12 = _lattice("Zn(12)")
    i6 = _id(lat12, [0, 6])
    assert lat12.radical_id(i6) == i6
    assert lat12.radical_id(lat12.unit_id) == lat12.unit_id


def _flags(lattice, i):
    return lattice.prime[i], lattice.maximal[i], lattice.primary[i]


def test_classify_examples():
    lat8 = _lattice("Zn(8)")
    assert _flags(lat8, lat8.zero_id) == (False, False, True)
    lat6 = _lattice("Zn(6)")
    assert _flags(lat6, lat6.zero_id) == (False, False, False)
    lat12 = _lattice("Zn(12)")
    i2 = _id(lat12, [0, 2, 4, 6, 8, 10])
    assert _flags(lat12, i2) == (True, True, True)
    assert _flags(lat12, lat12.unit_id) == (False, False, False)


def test_nilradical_examples():
    lat8 = _lattice("Zn(8)")
    assert sorted(lat8.ideals[lat8.nilradical_id()].members()) == [0, 2, 4, 6]
    lat6 = _lattice("Zn(6)")
    assert lat6.nilradical_id() == lat6.zero_id
    latk = _lattice("Quot(GF(2), x^3)")
    assert latk.render(latk.nilradical_id()) == "(x)"


def test_nilpotent_iff_in_nilradical():
    for text in ("Zn(12)", "Zn(8)", "Quot(Zn(4), x^2+x+1)", "Prod(GF(2), GF(2))"):
        ring = _ring(text)
        lat = enumerate_ideals(ring)
        nil = lat.ideals[lat.nilradical_id()]
        for r in range(ring.size):
            assert unit_and_nilpotent_flags(ring, r)[1] == nil.contains(r)


CHECK_RINGS = ["Zn(8)", "Zn(12)", "Zn(30)", "Quot(GF(2), x^3)", "Prod(GF(2), GF(2))"]


@pytest.mark.parametrize("text", CHECK_RINGS)
def test_flag_sanity_chain(text):
    lat = _lattice(text)
    for i in range(len(lat)):
        if lat.maximal[i]:
            assert lat.prime[i]
        if lat.prime[i]:
            assert lat.primary[i]
        if lat.primary[i]:
            assert lat.prime[lat.radical_ids[i]]


@pytest.mark.parametrize("text", CHECK_RINGS)
def test_radical_laws_exhaustive(text):
    lat = _lattice(text)
    rad = lat.radical_ids
    for i, j in itertools.product(range(len(lat)), repeat=2):
        meet_rad = lat.mask(rad[i]) & lat.mask(rad[j])
        assert lat.mask(rad[lat.intersection_id(i, j)]) == meet_rad
        assert lat.mask(rad[lat.product_id(i, j)]) == meet_rad
        if lat.contains_ideal(i, j):
            assert lat.contains_ideal(rad[i], rad[j])
    for i in range(len(lat)):
        assert rad[rad[i]] == rad[i]
        assert lat.contains_ideal(i, rad[i])
