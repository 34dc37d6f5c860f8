"""Spectra: varieties, basic opens, closures, xi, and the variety laws.

Point sets are bit-masks over point positions."""

import itertools

import pytest

from oracles import ideal_generated_by, variety_of_elements
from primspec.ideals import enumerate_ideals, mask_of
from primspec.rings import build_ring, parse_ring_spec, unit_and_nilpotent_flags
from primspec.spectra import Spectrum

LAW_RINGS = [
    "Zn(8)",
    "Zn(6)",
    "Zn(12)",
    "Zn(30)",
    "Quot(GF(2), x^3)",
    "Quot(Zn(4), x^2+x+1)",
    "Prod(GF(2), GF(2))",
]


def _setup(text):
    ring = build_ring(parse_ring_spec(text))
    lattice = enumerate_ideals(ring)
    return ring, lattice, Spectrum(lattice, "primary")


def _pos(spectrum, members):
    return spectrum.points.index(spectrum.lattice.id_by_mask[mask_of(members)])


def test_prim_z8():
    ring, lat, prim = _setup("Zn(8)")
    assert [prim.render_point(p) for p in range(3)] == ["(0)", "(4)", "(2)"]
    assert prim.closed_sets == [0, prim.full]
    i4 = lat.id_by_mask[mask_of([0, 4])]
    assert prim.variety(i4) == prim.full
    assert prim.variety(lat.unit_id) == 0
    # every proper ideal cuts out the whole space
    for i in range(len(lat)):
        if lat.proper[i]:
            assert prim.variety(i) == prim.full


def test_prim_z6_discrete():
    ring, lat, prim = _setup("Zn(6)")
    assert len(prim.points) == 2
    assert len(prim.closed_sets) == 4
    i2 = lat.id_by_mask[mask_of([0, 2, 4])]
    assert prim.variety(i2) == 1 << prim.points.index(i2)
    assert variety_of_elements(prim, {2}) == prim.variety(i2)


def test_prime_spectrum_examples():
    ring, lat, _ = _setup("Zn(8)")
    spec = Spectrum(lat, "prime")
    assert len(spec.points) == 1
    i4 = lat.id_by_mask[mask_of([0, 4])]
    assert spec.variety(i4) == 0b1
    ring6, lat6, _ = _setup("Zn(6)")
    spec6 = Spectrum(lat6, "prime")
    assert spec6.variety(lat6.zero_id) == spec6.full
    assert spec6.variety(lat6.unit_id) == 0
    _, latg, _ = _setup("Quot(Zn(4), x^2+x+1)")
    assert len(Spectrum(latg, "prime").points) == 1


def test_kind_mismatch_raises():
    _, lat, _ = _setup("Zn(6)")
    with pytest.raises(ValueError):
        Spectrum(lat, "maximal")


def test_basic_open_examples():
    ring, lat, prim = _setup("Zn(8)")
    assert prim.basic_opens[ring.one_index] == prim.full
    assert prim.basic_opens[2] == 0
    ring6, lat6, prim6 = _setup("Zn(6)")
    assert prim6.basic_opens[2] == 1 << _pos(prim6, [0, 3])


def test_xi_examples():
    ring, lat, prim = _setup("Zn(8)")
    y = 1 << _pos(prim, [0, 2, 4, 6]) | 1 << _pos(prim, [0, 4])
    assert lat.render(prim.xi(y)) == "(4)"
    assert prim.xi(1 << _pos(prim, [0, 4])) == lat.id_by_mask[mask_of([0, 4])]
    assert prim.xi(0) == lat.unit_id
    ring6, lat6, prim6 = _setup("Zn(6)")
    assert prim6.xi(0b11) == lat6.zero_id
    # a set past the last point, or a negative int, names its stray bits
    # (Zn(12) has three points), as closure does
    _, _, prim12 = _setup("Zn(12)")
    for reject in (prim12.xi, prim12.render_point_set):
        with pytest.raises(ValueError, match=r"lowest \[40\]"):
            reject(1 << 40)
        with pytest.raises(ValueError, match=r"lowest \[3, 4, 5, 6, 7\]"):
            reject(-1)


def test_closure_examples():
    ring, lat, prim = _setup("Zn(8)")
    assert prim.closure(1 << _pos(prim, [0, 4])) == prim.full
    assert prim.closure(0) == 0
    ring6, lat6, prim6 = _setup("Zn(6)")
    single = 1 << _pos(prim6, [0, 2, 4])
    assert prim6.closure(single) == single
    # a set past the last point (Zn(12) has three) names its stray bits
    _, _, prim12 = _setup("Zn(12)")
    with pytest.raises(ValueError, match=r"lowest \[99\]"):
        prim12.closure(1 << 99)
    with pytest.raises(ValueError, match=r"lowest \[3, 40\]"):
        prim12.closure(0b11 | 1 << 3 | 1 << 40)
    with pytest.raises(ValueError, match=r"lowest \[3, 4, 5, 6, 7\]"):
        prim12.closure(-1)


def test_is_base():
    for text in ("Zn(8)", "Zn(6)"):
        _, _, prim = _setup(text)
        assert prim.is_base == (True, None)
    _, lat30, _ = _setup("Zn(30)")
    assert Spectrum(lat30, "prime").is_base == (True, None)


@pytest.mark.parametrize("text", LAW_RINGS)
def test_variety_extremes(text):
    _, lat, prim = _setup(text)
    assert prim.variety(lat.zero_id) == prim.full
    assert prim.variety(lat.unit_id) == 0


@pytest.mark.parametrize("text", LAW_RINGS)
def test_variety_pair_laws_exhaustive(text):
    _, lat, prim = _setup(text)
    varieties = [prim.variety(i) for i in range(len(lat))]
    sums, products = lat.sum_table, lat.product_table
    for i, j in itertools.product(range(len(lat)), repeat=2):
        union = varieties[i] | varieties[j]
        assert varieties[lat.id_of(lat.mask(i) & lat.mask(j))] == union
        assert varieties[products[i][j]] == union
        assert varieties[sums[i][j]] == varieties[i] & varieties[j]
        if lat.contains_ideal(i, j):
            assert varieties[j] & ~varieties[i] == 0


@pytest.mark.parametrize("text", LAW_RINGS)
def test_variety_radical_and_generator_invariance(text):
    ring, lat, prim = _setup(text)
    for i in range(len(lat)):
        assert prim.variety(i) == prim.variety(lat.radical_ids[i])
        generating = prim.generating_ideals[prim.closed_sets.index(prim.variety(i))]
        assert {i, lat.radical_ids[i]} <= set(generating)
    for size in range(3):
        for subset in itertools.combinations(range(min(ring.size, 6)), size):
            generated = lat.id_of(ideal_generated_by(ring, subset))
            assert variety_of_elements(prim, subset) == prim.variety(generated)


@pytest.mark.parametrize("text", LAW_RINGS)
def test_basic_open_laws_exhaustive(text):
    ring, lat, prim = _setup(text)
    opens = prim.basic_opens
    principal_rad = [
        lat.mask(lat.radical_ids[lat.id_of(ideal_generated_by(ring, [r]))])
        for r in range(ring.size)
    ]
    for r in range(ring.size):
        assert (opens[r] == 0) == unit_and_nilpotent_flags(ring, r)[1]
        for s in range(ring.size):
            assert opens[ring.mul[r][s]] == opens[r] & opens[s]
            assert (opens[r] == opens[s]) == (principal_rad[r] == principal_rad[s])


@pytest.mark.parametrize("text", LAW_RINGS)
def test_point_closure_laws(text):
    _, lat, prim = _setup(text)
    for pos, ideal_id in enumerate(prim.points):
        assert prim.closure(1 << pos) == prim.variety(ideal_id)
        closure = prim.closure(1 << pos)
        for other_pos, other_id in enumerate(prim.points):
            inside = lat.mask(ideal_id) & ~lat.mask(lat.radical_ids[other_id]) == 0
            assert (closure >> other_pos & 1 == 1) == inside


@pytest.mark.parametrize("text", LAW_RINGS)
def test_closure_via_xi_exhaustive(text):
    _, lat, prim = _setup(text)
    n = len(prim.points)
    assert n <= 10
    for y in range(1 << n):
        assert prim.closure(y) == prim.variety(prim.xi(y))


@pytest.mark.parametrize("text", LAW_RINGS)
def test_closed_family_closed_under_ops(text):
    _, _, prim = _setup(text)
    family = set(prim.closed_sets)
    for a, b in itertools.product(prim.closed_sets, repeat=2):
        assert a | b in family
        assert a & b in family
