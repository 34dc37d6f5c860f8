"""Finite-topology checkers: separation, irreducibility, sobriety,
compactness notions, and oracle equivalences."""

import itertools
import random

import pytest
from oracles import is_irreducible_by_relative_scan, is_spectral, least_superset

from primspec.classify import analyze_ring
from primspec.ideals import canonical_key, iter_bits, mask_of
from primspec.topology import (
    CoverageError,
    FiniteTopology,
    TopologyAxiomError,
    irreducible_closed_with_generic_points,
    is_irreducible,
    is_quasi_compact,
    uncovered_open,
)

# point sets are bit-masks: 0b01 is {0}, 0b10 is {1}
SIERPINSKI = FiniteTopology(2, [0, 0b01, 0b11])
DISCRETE2 = FiniteTopology(2, [0, 0b01, 0b10, 0b11])
INDISCRETE3 = FiniteTopology(3, [0, 0b111])
POINT = FiniteTopology(1, [0, 0b1])


def irreducible_open_characterization(t: FiniteTopology, subset: int | None = None) -> bool:
    """Oracle: irreducibility via "any two nonempty relatively-open sets
    intersect"."""
    space = t.full if subset is None else subset
    if not space:
        return False
    rel_opens = [u & space for u in t.opens]
    nonempty = [u for u in rel_opens if u]
    return all(a & b for a in nonempty for b in nonempty)


def _union(sets):
    out = 0
    for s in sets:
        out |= s
    return out


def _random_topology(rng, n_points, n_seeds):
    sets = {0, (1 << n_points) - 1}
    for _ in range(n_seeds):
        size = rng.randint(0, n_points)
        sets.add(mask_of(rng.sample(range(n_points), size)))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(sets), 2):
            for c in (a | b, a & b):
                if c not in sets:
                    sets.add(c)
                    changed = True
    return FiniteTopology(n_points, sets)


RANDOM_TOPOLOGIES = [
    _random_topology(random.Random(seed), points, seeds)
    for seed, points, seeds in [(0, 4, 3), (1, 5, 4), (2, 6, 3), (3, 3, 5), (4, 5, 2)]
]


def _supercompact_by_cover_enumeration(t):
    # exponential oracle: some covering family avoids the full space
    opens = t.opens
    assert len(opens) <= 12
    for size in range(len(opens) + 1):
        for combo in itertools.combinations(opens, size):
            if _union(combo) == t.full and t.full not in combo:
                return False
    return True


def test_axiom_validation():
    with pytest.raises(TopologyAxiomError):
        FiniteTopology(2, [0b11])
    with pytest.raises(TopologyAxiomError):
        FiniteTopology(2, [0, 0b01, 0b10])
    with pytest.raises(TopologyAxiomError):
        FiniteTopology(1, [0, 0b1, 1 << 3])


def _first_axiom_error_by_ordered_scan(point_count, family):
    """The message of the first axiom error a scan over every ordered pair
    of the canonically sorted family raises, or None."""
    full = (1 << point_count) - 1
    members = set(family)
    if 0 not in members:
        return "missing empty closed set"
    if full not in members:
        return "missing full closed set"
    for a in sorted(members, key=canonical_key):
        if a & ~full:
            return "closed set contains unknown points"
        for b in sorted(members, key=canonical_key):
            if a | b not in members:
                return "family not closed under union"
            if a & b not in members:
                return "family not closed under intersection"
    return None


def test_axiom_validation_raises_the_first_error_of_the_ordered_scan():
    # {0}, {1} without their union; {0,1}, {1,2} without their intersection;
    # sets past the last point: 0b100 and 0b1100 fail a union first, 0b111
    # fails only the point range
    families = [
        (3, [0, 0b001, 0b010, 0b111]),
        (3, [0, 0b011, 0b110, 0b111]),
        (2, [0, 0b01, 0b11, 0b100]),
        (2, [0, 0b01, 0b10, 0b11, 0b1100]),
        (2, [0, 0b01, 0b10, 0b11, 0b111]),
    ]
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(1, 4)
        family = {0, (1 << n) - 1}
        family.update(rng.getrandbits(n + 1) for _ in range(rng.randint(0, 5)))
        families.append((n, sorted(family)))
    errors = set()
    for n, family in families:
        expected = _first_axiom_error_by_ordered_scan(n, family)
        try:
            FiniteTopology(n, family)
            got = None
        except TopologyAxiomError as exc:
            got = str(exc)
        assert got == expected, (n, family)
        errors.add(got)
    assert errors == {
        None,
        "closed set contains unknown points",
        "family not closed under union",
        "family not closed under intersection",
    }


def _closures_match_the_scan(topo):
    for y in range(1 << topo.point_count):
        expected = topo.closed_sets[least_superset(topo.closed_sets, y)]
        assert topo.closure(y) == expected, (topo.closed_sets, y)
    assert topo.point_closures == [topo.closure(1 << x) for x in range(topo.point_count)]


def test_closure_matches_the_least_superset_scan(corpus_analyses):
    for topo in RANDOM_TOPOLOGIES + [SIERPINSKI, DISCRETE2, INDISCRETE3, POINT]:
        _closures_match_the_scan(topo)
    for text, a in corpus_analyses.items():
        assert len(a.prim.points) <= 10, text
        _closures_match_the_scan(a.prim)


def test_separation_examples():
    sep = SIERPINSKI.separation
    assert (sep.t0, sep.t1, sep.t2) == (True, False, False)
    assert sep.witness is not None
    sep = INDISCRETE3.separation
    assert (sep.t0, sep.t1, sep.t2) == (False, False, False)
    sep = DISCRETE2.separation
    assert (sep.t0, sep.t1, sep.t2) == (True, True, True)
    assert sep.witness is None


def test_irreducible_examples():
    assert is_irreducible(INDISCRETE3) == (True, None)
    verdict, witness = is_irreducible(DISCRETE2)
    assert verdict is False
    assert witness is not None and witness[0] | witness[1] == 0b11
    assert is_irreducible(DISCRETE2, 0) == (False, None)
    assert is_irreducible(DISCRETE2, 0b01)[0] is True
    # only members of the closed family are decided
    with pytest.raises(ValueError, match="closed sets only"):
        is_irreducible(SIERPINSKI, 0b10)
    with pytest.raises(ValueError, match="closed sets only"):
        is_irreducible(DISCRETE2, 0b100)


def test_irreducible_characterizations_agree():
    for topo in RANDOM_TOPOLOGIES + [SIERPINSKI, DISCRETE2, INDISCRETE3, POINT]:
        assert is_irreducible(topo)[0] == irreducible_open_characterization(topo)
        for closed in topo.closed_sets:
            assert is_irreducible(topo, closed)[0] == irreducible_open_characterization(
                topo, closed
            )


def test_irreducible_matches_the_relative_scan(corpus_analyses):
    spaces = RANDOM_TOPOLOGIES + [SIERPINSKI, DISCRETE2, INDISCRETE3, POINT]
    for a in corpus_analyses.values():
        spaces += [a.prim, a.primes]
    for topo in spaces:
        assert is_irreducible(topo) == is_irreducible_by_relative_scan(topo)
        for closed in topo.closed_sets:
            expected = is_irreducible_by_relative_scan(topo, closed)
            assert is_irreducible(topo, closed) == expected, (topo.closed_sets, closed)


def test_generic_points_examples():
    got = irreducible_closed_with_generic_points(INDISCRETE3)
    assert got == [(0b111, 0b111)]
    assert not INDISCRETE3.sober
    got = irreducible_closed_with_generic_points(DISCRETE2)
    assert got == [(0b01, 0b01), (0b10, 0b10)]
    assert DISCRETE2.sober
    got = irreducible_closed_with_generic_points(SIERPINSKI)
    assert got == [(0b01, 0b01), (0b11, 0b10)]
    assert SIERPINSKI.sober


def test_sober_and_spectral():
    assert POINT.sober and is_spectral(POINT, POINT.opens)
    assert not is_spectral(INDISCRETE3, INDISCRETE3.opens)
    assert is_spectral(DISCRETE2, DISCRETE2.opens)
    # {0} and {1} generate every open of DISCRETE2 but miss their meet
    assert not is_spectral(DISCRETE2, [0b01, 0b10, 0b11])
    assert is_spectral(DISCRETE2, [0, 0b01, 0b10, 0b11])


def test_spectral_matches_the_definitional_oracle(corpus_analyses):
    for text, a in corpus_analyses.items():
        for space in (a.prim, a.primes):
            assert space.spectral == is_spectral(space, space.basic_open_family), text


def test_base_check_failure_names_the_missed_open(monkeypatch):
    # {empty set} generates only the empty open; {1} is the first open it misses
    assert uncovered_open(SIERPINSKI, [0]) == 0b10
    assert uncovered_open(SIERPINSKI, SIERPINSKI.opens) is None
    assert is_spectral(SIERPINSKI, SIERPINSKI.opens) and not is_spectral(SIERPINSKI, [0])
    prim = analyze_ring("Zn(6)").prim
    monkeypatch.setattr(prim, "basic_open_family", [0])
    assert prim.is_base == (False, "open [0] is not a union of basics")
    assert prim.sober and not prim.spectral


def test_quasi_compact_greedy():
    full = DISCRETE2.full
    cover = [0b01, 0b10, 0b11]
    assert is_quasi_compact(DISCRETE2, full, cover) == [2]
    assert is_quasi_compact(DISCRETE2, 0b01, cover[:2]) == [0]
    with pytest.raises(CoverageError, match=r"^family misses points \[1\]$"):
        is_quasi_compact(DISCRETE2, full, [0b01])
    with pytest.raises(CoverageError, match=r"^family misses points \[0, 1\]$"):
        is_quasi_compact(DISCRETE2, full, [])


def test_supercompact_examples():
    verdict, witness = INDISCRETE3.supercompact
    assert verdict is True
    verdict, witness = DISCRETE2.supercompact
    assert verdict is False
    assert sorted(list(iter_bits(u)) for u in witness) == [[0], [1]]
    assert POINT.supercompact[0] is True


def test_supercompact_oracle_equivalence_random():
    for topo in RANDOM_TOPOLOGIES + [SIERPINSKI, DISCRETE2, INDISCRETE3, POINT]:
        if len(topo.opens) <= 12:
            assert topo.supercompact[0] == _supercompact_by_cover_enumeration(topo)


def test_implication_chain():
    for topo in RANDOM_TOPOLOGIES + [SIERPINSKI, DISCRETE2, INDISCRETE3, POINT]:
        sep = topo.separation
        if sep.t2:
            assert sep.t1
        if sep.t1:
            assert sep.t0
        if topo.sober:
            assert sep.t0


SPEC_TOPOLOGIES = ["Zn(8)", "Zn(6)", "Zn(12)", "Zn(30)", "Quot(Zn(4), x^2+x+1)"]


@pytest.mark.parametrize("text", SPEC_TOPOLOGIES)
def test_spectrum_topologies(text):
    topo = analyze_ring(text).prim
    sep = topo.separation
    if sep.t2:
        assert sep.t1
    if sep.t1:
        assert sep.t0
    if topo.sober:
        assert sep.t0
    assert is_irreducible(topo)[0] == irreducible_open_characterization(topo)
    if len(topo.opens) <= 12:
        assert topo.supercompact[0] == _supercompact_by_cover_enumeration(topo)


def test_prim_z8_topology_profile():
    prim = analyze_ring("Zn(8)").prim
    sep = prim.separation
    assert (sep.t0, sep.t1, sep.t2) == (False, False, False)
    assert is_irreducible(prim)[0]
    entries = irreducible_closed_with_generic_points(prim)
    assert len(entries) == 1 and entries[0][1].bit_count() == 3
    assert not prim.sober
    assert not prim.spectral
    assert prim.supercompact[0]


def test_prim_z6_topology_profile():
    prim = analyze_ring("Zn(6)").prim
    sep = prim.separation
    assert (sep.t0, sep.t1, sep.t2) == (True, True, True)
    verdict, witness = is_irreducible(prim)
    assert verdict is False and witness is not None
    assert prim.sober
    assert prim.spectral
    verdict, family = prim.supercompact
    assert verdict is False and len(family) == 2


def test_quasi_compact_basic_open_subcovers():
    prim = analyze_ring("Zn(12)").prim
    cover = prim.basic_opens
    x2 = cover[2]
    chosen = is_quasi_compact(prim, x2, cover)
    covered = _union(cover[i] for i in chosen)
    assert x2 & ~covered == 0
    chosen = is_quasi_compact(prim, prim.full, cover)
    assert len(chosen) <= 2
