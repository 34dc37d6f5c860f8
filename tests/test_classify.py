"""Ring classification, W-rings, the covering condition, uniform exponents,
and the verification suite."""

import copy
import functools
import itertools
import random
from collections import Counter

import pytest

from primspec import classify
from primspec.classify import (
    RingAnalysis,
    _first_failing_fold,
    a_conditions,
    analyze_ring,
    closure_identity_check,
    is_w_ring,
    star_condition,
    verify_theorems,
)
from oracles import (
    a2_by_mode,
    every_spec,
    ideal_generated_by,
    smallest_failing_folds,
    variety_of_elements,
)
from primspec.ideals import enumerate_ideals, mask_of
from primspec.rings import build_ring, check_ring_axioms, parse_ring_spec
from primspec.spectra import Spectrum
from primspec.topology import SeparationResult


def test_classify_examples():
    cls = analyze_ring("Zn(8)").classification
    assert cls.is_local and not cls.is_p_ring and not cls.is_field
    cls = analyze_ring("Zn(6)").classification
    assert not cls.is_local and cls.is_p_ring
    cls = analyze_ring("GF(7)").classification
    assert cls.is_field and cls.is_local and cls.is_p_ring


def test_classification_invariants():
    for text in ("Zn(8)", "Zn(30)", "GF(7)", "Prod(Zn(4), Zn(9))"):
        cls = analyze_ring(text).classification
        if cls.is_field:
            assert cls.is_local
        assert set(cls.maximal_ideals) <= set(cls.prime_ideals)
        assert set(cls.prime_ideals) <= set(cls.primary_ideals)
        assert cls.krull_dimension == 0
        assert cls.is_zero_dimensional


def test_p_ring_flag_matches_definition():
    a = analyze_ring("Zn(8)")
    lat = a.lattice
    primary_not_maximal = [
        i for i in a.classification.primary_ideals if not lat.maximal[i]
    ]
    assert not a.classification.is_p_ring
    assert sorted(lat.render(i) for i in primary_not_maximal) == ["(0)", "(4)"]


@pytest.mark.parametrize("text", ["Zn(12)", "Zn(8)", "Zn(36)"])
def test_w_ring_examples(text):
    a = analyze_ring(text)
    verdict, witness = is_w_ring(a.lattice)
    assert verdict is True, witness


def test_w_ring_counterexample():
    a = analyze_ring("Quot(Zn(4), x^2)")
    verdict, witness = is_w_ring(a.lattice)
    assert verdict is False
    assert "(2x)" in witness


# Slow oracle: the subset scan that the transversal test replaced.


def _w_ring_subset_scan(lattice):
    """Every irredundant primary representation of each proper ideal, found
    by scanning every subset of Prim(R): {ideal id: [rendered families]}."""
    primaries = [i for i in range(len(lattice)) if lattice.primary[i]]
    full = (1 << lattice.ring.size) - 1
    reps = {}
    for size in range(1, len(primaries) + 1):
        for combo in itertools.combinations(primaries, size):
            masks = [lattice.mask(i) for i in combo]
            prefix, suffix = [full], [full]
            for m, n in zip(masks, reversed(masks)):
                prefix.append(prefix[-1] & m)
                suffix.append(suffix[-1] & n)
            meet = prefix[-1]
            if all(prefix[j] & suffix[size - 1 - j] != meet for j in range(size)):
                rendered = "{" + ", ".join(lattice.render(i) for i in combo) + "}"
                reps.setdefault(meet, []).append(rendered)
    return {i: reps.get(lattice.mask(i), []) for i in range(len(lattice)) if lattice.proper[i]}


def _assert_w_ring_matches_scan(lattice, label):
    """is_w_ring agrees with the scan on the verdict and the first failing
    ideal, and its witness names two of that ideal's irredundant
    representations, or none when the scan finds none.  Returns the
    number of representations the scan finds for that ideal, or 1."""
    scan = _w_ring_subset_scan(lattice)
    failing = [i for i, reps in scan.items() if len(reps) != 1]
    verdict, witness = is_w_ring(lattice)
    assert verdict == (not failing), label
    if verdict:
        assert witness is None, label
        return 1
    found = scan[failing[0]]
    head = f"ideal {lattice.render(failing[0])} has "
    if not found:
        assert witness == head + "no irredundant representation", label
        return 0
    prefix = head + "more than one irredundant representation: "
    assert witness.startswith(prefix), (label, witness)
    shown = witness.removeprefix(prefix).split(" and ")
    assert len(shown) == 2 and shown[0] != shown[1], (label, witness)
    assert set(shown) <= set(found), (label, witness, found)
    return len(found)


# The rings of the benchmark's two pools, as literals, and four non-W rings
_W_RING_SPECS = [
    "Zn(64)",
    "Zn(72)",
    "Zn(81)",
    "Zn(125)",
    "Zn(128)",
    "Quot(Zn(8), x^2+x+1)",
    "Quot(Zn(4), x^3+x+1)",
    "Quot(Zn(9), x^2+1)",
    "GF(2^6)",
    "GF(3^4)",
    "Prod(GF(2), Prod(GF(2), Prod(GF(2), Prod(GF(2), GF(2)))))",
    "Prod(Zn(4), Prod(GF(2), Prod(GF(2), GF(2))))",
    "Prod(Zn(6), Zn(6))",
    "Prod(Zn(8), Prod(GF(2), GF(2)))",
    "Prod(Zn(12), Zn(4))",
    "Prod(Zn(4), Prod(Zn(4), Zn(4)))",
    "Quot(Zn(4), x^3)",
    "Prod(Quot(Zn(4), x^2), GF(2))",
    "Quot(Zn(4), x^2)",
    "Quot(Zn(9), x^2)",
    "Quot(Zn(9), x^3)",
    "Prod(Quot(Zn(4), x^2), Quot(Zn(4), x^2))",
]


@pytest.fixture(scope="module")
def w_ring_lattices(corpus_analyses):
    lattices = {text: a.lattice for text, a in corpus_analyses.items()}
    for text in _W_RING_SPECS:
        lattices[text] = enumerate_ideals(build_ring(parse_ring_spec(text)))
    return lattices


def test_w_ring_matches_subset_scan(w_ring_lattices):
    counts = [_assert_w_ring_matches_scan(lat, text) for text, lat in w_ring_lattices.items()]
    assert counts.count(1) >= 49 and max(counts) >= 2


def test_w_ring_matches_subset_scan_without_one_primary(w_ring_lattices):
    """Copies of the lattices of at most 12 points, each with one primary
    flag switched off, reach the ideals with no representation at all."""
    counts = []
    for text, lattice in w_ring_lattices.items():
        primaries = [i for i in range(len(lattice)) if lattice.primary[i]]
        if len(primaries) > 12:
            continue
        for q in primaries:
            lat = copy.copy(lattice)
            lat.primary = list(lattice.primary)
            lat.primary[q] = False
            counts.append(_assert_w_ring_matches_scan(lat, f"{text} without {lat.render(q)}"))
    assert 0 in counts and max(counts) >= 2


@pytest.mark.parametrize(
    "text, points, ideal",
    [("Quot(Zn(4), x^4)", 22, "(2x^3)"), ("Quot(Zn(16), x^2)", 22, "(8x)")],
)
def test_w_ring_decided_above_sixteen_points(text, points, ideal):
    lattice = enumerate_ideals(build_ring(parse_ring_spec(text)))
    assert sum(lattice.primary) == points
    verdict, witness = is_w_ring(lattice)
    assert verdict is False
    assert witness.startswith(f"ideal {ideal} has more than one irredundant representation: ")


def test_star_condition_examples():
    a30 = analyze_ring("Zn(30)")
    verdict, witness = star_condition(a30.lattice, a30.prim)
    assert verdict is False and witness is not None
    a12 = analyze_ring("Zn(12)")
    assert star_condition(a12.lattice, a12.prim) == (True, None)
    a7 = analyze_ring("GF(7)")
    assert star_condition(a7.lattice, a7.prim) == (True, None)


def _star_condition_by_elements(lattice, spectrum):
    """Slow oracle: for each r with a proper non-empty X_r, the union of
    X_s over the nonzero s with X_s not containing X_r, one s at a time."""
    ring = lattice.ring
    opens, full = spectrum.basic_opens, spectrum.full
    for r in range(ring.size):
        xr = opens[r]
        if not xr or xr == full:
            continue
        union, family = 0, []
        for s in range(1, ring.size):
            if xr & ~opens[s]:
                union |= opens[s]
                family.append(s)
        if xr & ~union == 0:
            names = ring.element_names
            shown = [names[s] for s in family if opens[s]]
            return False, f"X_{names[r]} covered by basic opens of {shown}"
    return True, None


@pytest.mark.parametrize(
    "text", ["Zn(12)", "Zn(30)", "Zn(210)", "Prod(Zn(6), Zn(6))", "Prod(Zn(4), Zn(9))"]
)
def test_star_condition_agrees_with_scalar_scan(text):
    # in Zn(30) the first failing basic open is X_2 = X_4 = ..., which is
    # neither the smallest distinct one nor held by one element only
    a = analyze_ring(text)
    assert star_condition(a.lattice, a.prim) == _star_condition_by_elements(a.lattice, a.prim)


def test_star_condition_witness_matches_scalar_scan_on_corrupted_opens(monkeypatch):
    # every way of corrupting one basic open of Zn(12) to another point set
    a = analyze_ring("Zn(12)")
    opens = list(a.prim.basic_opens)
    failures = 0
    for r, v in itertools.product(range(len(opens)), range(a.prim.full + 1)):
        corrupted = opens[:r] + [v] + opens[r + 1 :]
        monkeypatch.setattr(a.prim, "basic_opens", corrupted)
        expected = _star_condition_by_elements(a.lattice, a.prim)
        assert star_condition(a.lattice, a.prim) == expected, (r, v)
        failures += not expected[0]
    assert failures == 24


def test_star_condition_matches_prime_count():
    for text in (
        "Zn(8)",
        "Zn(12)",
        "Zn(30)",
        "Zn(36)",
        "GF(7)",
        "Prod(GF(2), GF(2))",
        "Prod(Zn(4), Zn(9))",
    ):
        a = analyze_ring(text)
        nonzero_primes = [
            i for i in a.classification.prime_ideals if a.lattice.mask(i) != 1
        ]
        verdict, _ = star_condition(a.lattice, a.prim)
        assert verdict == (len(nonzero_primes) <= 2), text


def test_a_conditions_examples():
    a8 = analyze_ring("Zn(8)")
    ids = list(range(len(a8.lattice)))
    for mode in ("A2_original", "A2_radical_form"):
        res = a2_by_mode(a8.lattice, ids, mode)
        assert res.a1 and res.a2
    res = a_conditions(a8.lattice, ids)
    assert res.a1 and res.a2 and res.witness is None
    a6 = analyze_ring("Zn(6)")
    fam = [
        a6.lattice.id_by_mask[mask_of([0, 2, 4])],
        a6.lattice.id_by_mask[mask_of([0, 3])],
    ]
    res = a2_by_mode(a6.lattice, fam, "A2_original")
    assert res.a1 and res.a2
    assert a_conditions(a6.lattice, fam) == res
    res = a2_by_mode(a6.lattice, [a6.lattice.zero_id], "A2_radical_form")
    assert res.a2 and res.a1
    assert a_conditions(a6.lattice, [a6.lattice.zero_id]) == res
    res = a2_by_mode(a6.lattice, [a6.lattice.unit_id], "A2_original")
    assert res.a2 and not res.a1
    assert a_conditions(a6.lattice, [a6.lattice.unit_id]) == res
    with pytest.raises(ValueError):
        a2_by_mode(a6.lattice, [], "A2_original")
    with pytest.raises(ValueError):
        a_conditions(a6.lattice, [])


def test_a2_modes_agree_on_random_families():
    rng = random.Random(3)
    for text in ("Zn(12)", "Zn(72)", "Quot(GF(2), x^3)", "Prod(Zn(4), Zn(9))"):
        lat = analyze_ring(text).lattice
        ids = list(range(len(lat)))
        families = [ids] + [
            sorted(rng.sample(ids, rng.randint(1, len(ids)))) for _ in range(15)
        ]
        for fam in families:
            orig = a2_by_mode(lat, fam, "A2_original")
            radf = a2_by_mode(lat, fam, "A2_radical_form")
            assert orig.a2 == radf.a2
            assert orig.a1 == radf.a1
            res = a_conditions(lat, fam)
            assert (res.a1, res.a2) == (orig.a1, orig.a2 and radf.a2)


def test_closure_identity_sampled_branch():
    a = analyze_ring("Zn(12)")
    ok, witness = closure_identity_check(a.prim)
    assert ok, witness


# Slow oracles: the subset enumerations the exhaustive folds replaced.


def _smallest_a2_failures(lattice, family):
    """Every smallest subfamily whose radical of the intersection differs
    from the intersection of the radicals, in family order; [] if none."""
    full = (1 << lattice.ring.size) - 1
    for size in range(1, len(family) + 1):
        found = []
        for gamma in itertools.combinations(family, size):
            meet = rads = full
            for i in gamma:
                meet &= lattice.mask(i)
                rads &= lattice.mask(lattice.radical_ids[i])
            if lattice.mask(lattice.radical_ids[lattice.id_of(meet)]) != rads:
                found.append(gamma)
        if found:
            return found
    return []


def _smallest_closure_failures(spectrum):
    """Every smallest point set Y with closure(Y) != variety(xi(Y)); [] if none."""
    failing = [
        y
        for y in range(1 << len(spectrum.points))
        if spectrum.closure(y) != spectrum.variety(spectrum.xi(y))
    ]
    smallest = min((y.bit_count() for y in failing), default=None)
    return [y for y in failing if y.bit_count() == smallest]


def test_a2_fold_agrees_with_subfamily_oracle(corpus_analyses):
    for text, a in corpus_analyses.items():
        lat = a.lattice
        assert len(lat) <= 12, text
        for fam in (list(range(len(lat))), a.classification.primary_ideals):
            if fam:
                res = a2_by_mode(lat, fam, "A2_radical_form")
                assert res.a2 == (_smallest_a2_failures(lat, fam) == []), text
                assert a_conditions(lat, fam).a2 == (
                    a2_by_mode(lat, fam, "A2_original").a2 and res.a2
                ), text


def test_closure_fold_agrees_with_subset_oracle(corpus_analyses):
    for text, a in corpus_analyses.items():
        assert len(a.prim.points) <= 10, text
        ok, _ = closure_identity_check(a.prim)
        assert ok == (_smallest_closure_failures(a.prim) == []), text


def test_a2_fold_names_a_smallest_failing_subfamily():
    lat = copy.copy(analyze_ring("Zn(12)").lattice)
    lat.radical_ids = list(lat.radical_ids)
    lat.radical_ids[lat.zero_id] = lat.zero_id  # true radical of (0) is (6)
    family = list(range(len(lat)))
    smallest = [
        "{" + ", ".join(lat.render(i) for i in gamma) + "}"
        for gamma in _smallest_a2_failures(lat, family)
    ]
    assert "{(4), (3)}" in smallest
    res = a2_by_mode(lat, family, "A2_radical_form")
    assert not res.a2
    assert res.witness.removeprefix("radical/intersection mismatch on ") in smallest
    res = a_conditions(lat, family)
    assert not res.a2
    assert res.witness.removesuffix(" disagrees") in smallest


def test_closure_fold_names_a_smallest_failing_set(monkeypatch):
    a = analyze_ring("Zn(12)")
    true_variety = Spectrum.variety

    def variety(self, ideal_id):
        return 0 if ideal_id == self.lattice.zero_id else true_variety(self, ideal_id)

    monkeypatch.setattr(Spectrum, "variety", variety)
    smallest = [a.prim.render_point_set(y) for y in _smallest_closure_failures(a.prim)]
    assert smallest == ["{(4), (3)}"]
    ok, witness = closure_identity_check(a.prim)
    assert not ok and witness in smallest


def _smallest_generator_failures(a, variety=None):
    """Every smallest element set S whose variety differs from that of the
    ideal it generates, as sorted lists; [] if none.  The variety of S is
    the definitional ``oracles.variety_of_elements`` unless another
    function is given."""
    ring, lat, prim = a.ring, a.lattice, a.prim
    variety = variety or functools.partial(variety_of_elements, prim)
    for size in range(ring.size + 1):
        found = [
            list(s)
            for s in itertools.combinations(range(ring.size), size)
            if variety(s)
            != prim.variety(lat.id_of(ideal_generated_by(ring, s)))
        ]
        if found:
            return found
    return []


def _smallest_mode_failures(lattice):
    """Every smallest subfamily on which the two A2 modes disagree, rendered
    in id order; [] if none."""
    ids = range(len(lattice))
    for size in range(1, len(lattice) + 1):
        found = [
            "{" + ", ".join(map(lattice.render, gamma)) + "}"
            for gamma in itertools.combinations(ids, size)
            if a2_by_mode(lattice, list(gamma), "A2_original").a2
            != a2_by_mode(lattice, list(gamma), "A2_radical_form").a2
        ]
        if found:
            return found
    return []


def test_generator_fold_agrees_with_subset_oracle(corpus_suite):
    results, _ = corpus_suite
    checked = 0
    for text, (a, report) in results.items():
        if a.ring.size <= 12:
            entry = report.entry("variety-generators")
            assert entry.passed == (_smallest_generator_failures(a) == []), text
            checked += 1
    assert checked >= 15


def test_mode_fold_agrees_with_subfamily_oracle(corpus_suite):
    results, _ = corpus_suite
    for text, (a, report) in results.items():
        assert len(a.lattice) <= 12, text
        entry = report.entry("uniform-exponent-mode-agreement")
        assert entry.passed == (_smallest_mode_failures(a.lattice) == []), text


def test_generator_fold_names_a_smallest_failing_set(monkeypatch):
    a = analyze_ring("Zn(12)")
    full = a.prim.full
    opens = list(a.prim.basic_opens)
    # 4 and 8 generate the same ideal; claim their basic opens are full, so
    # that they cut out no point
    opens[4] = opens[8] = full
    monkeypatch.setattr(a.prim, "basic_opens", opens)

    def variety(elements):
        # V(S) is the meet of the V({r}), each the complement of r's open
        return functools.reduce(int.__and__, (full & ~opens[r] for r in elements), full)

    smallest = [f"S={s}" for s in _smallest_generator_failures(a, variety)]
    assert smallest == ["S=[4]", "S=[8]"]
    entry = verify_theorems(a).entry("variety-generators")
    assert not entry.passed and entry.witness in smallest


def test_basic_open_product_names_the_last_failing_pair():
    a = analyze_ring("Zn(12)")
    ring = copy.copy(a.ring)
    ring.mul = [list(row) for row in ring.mul]
    ring.mul[2][5] = 3  # 2 * 5 is 10, whose open is D(2), not D(3)
    x = a.prim.basic_opens
    failing = [
        (r, s)
        for r in range(ring.size)
        for s in range(ring.size)
        if x[ring.mul[r][s]] != x[r] & x[s]
    ]
    assert failing == [(2, 5)]
    entry = verify_theorems(RingAnalysis(a.spec, ring, a.lattice)).entry("basic-open-product")
    assert not entry.passed
    assert entry.witness == classify._pair_witness(
        ring.element_names, lambda r, s: x[ring.mul[r][s]] != x[r] & x[s]
    )
    assert entry.witness == "r=2, s=5"


def test_missing_cover_fails_the_quasi_compact_laws(monkeypatch):
    a = analyze_ring("Zn(8)")
    full = a.prim.full
    # without the full open, the units' opens have no cover
    family = [u for u in a.prim.basic_open_family if u != full]
    assert family == [0]
    monkeypatch.setattr(a.prim, "basic_open_family", family)
    report = verify_theorems(a)
    entry = report.entry("basic-open-quasi-compact")
    assert not entry.passed and entry.witness == "7"
    assert not report.entry("space-quasi-compact").passed


def test_mode_fold_names_a_smallest_failing_family():
    a = analyze_ring("Zn(12)")
    lat = copy.copy(a.lattice)
    lat.radical_ids = list(lat.radical_ids)
    lat.radical_ids[lat.zero_id] = lat.zero_id  # true radical of (0) is (6)
    smallest = _smallest_mode_failures(lat)
    assert "{(4), (3)}" in smallest
    entry = verify_theorems(RingAnalysis(a.spec, a.ring, lat)).entry(
        "uniform-exponent-mode-agreement"
    )
    assert not entry.passed
    assert entry.witness.removesuffix(" disagrees") in smallest


def _synthetic_folds(seed):
    """Seeded (start, members, step, holds) folds: OR and AND over random
    8-bit masks plus a last member folded from two of them, in ascending,
    descending and shuffled order.  ``holds`` fails on a few random
    reachable states, or only on the last member's own state: where the
    order puts that member after the two, its state is reached first and
    the member is skipped, yet the member alone is a smallest failing
    family."""
    rng = random.Random(seed)
    masks = [rng.getrandbits(8) for _ in range(7)]
    for start, step in ((0, int.__or__), (0xFF, int.__and__)):
        members = masks + [step(*rng.sample(masks, 2))]
        reachable = sorted(
            functools.reduce(step, gamma, start)
            for size in range(len(members) + 1)
            for gamma in itertools.combinations(members, size)
        )
        shuffled = rng.sample(members, len(members))
        for order in (sorted(members), sorted(members, reverse=True), shuffled):
            for bad in (set(rng.sample(reachable, rng.randint(0, 3))), {members[-1]}):
                yield start, order, step, lambda state, bad=bad: state not in bad


@pytest.mark.parametrize("seed", range(20))
def test_fold_agrees_with_every_subfamily_oracle(seed):
    for start, members, step, holds in _synthetic_folds(seed):
        smallest = smallest_failing_folds(start, members, step, holds)
        found = _first_failing_fold(start, members, step, holds)
        assert (found is None) == (smallest == []), (start, members)
        if found is not None:
            assert len(found) == len(smallest[0]), (start, members, found)
            assert not holds(functools.reduce(step, found, start))
            assert not Counter(found) - Counter(members)


def test_gf2_10_folds_cost_their_states(monkeypatch):
    """Each fold over GF(2)^10's 1024 ideals, or its elements or points,
    steps each member from the start once and each of the 1024 states
    about once, not every state with every member."""
    counts = []
    fold = classify._first_failing_fold

    def counted(start, members, step, holds):
        counts.append(0)

        def counted_step(state, m):
            counts[-1] += 1
            return step(state, m)

        return fold(start, members, counted_step, holds)

    monkeypatch.setattr(classify, "_first_failing_fold", counted)
    a = analyze_ring("Prod(GF(2), " * 9 + "GF(2)" + ")" * 9)
    assert verify_theorems(a).all_passed
    assert a_conditions(a.lattice, list(range(len(a.lattice)))).a2
    assert len(counts) == 4
    assert max(counts) <= 4 * 1024, counts


def test_verify_theorems_z8():
    report = verify_theorems(analyze_ring("Zn(8)"))
    assert report.all_passed
    assert report.entry("irreducible-iff-nilradical-primary").lhs is True
    assert report.entry("irreducible-iff-nilradical-primary").rhs is True
    assert report.entry("local-iff-supercompact").lhs is True
    assert report.entry("p-ring-iff-t0").lhs is False
    assert report.entry("t0-iff-sober").applicable


def test_verify_theorems_z6():
    report = verify_theorems(analyze_ring("Zn(6)"))
    assert report.all_passed
    assert report.entry("p-ring-iff-t0").lhs is True
    assert report.entry("irreducible-iff-nilradical-primary").lhs is False
    assert report.entry("local-iff-supercompact").lhs is False


def test_verify_theorems_chain_ring():
    a = analyze_ring("Quot(GF(2), x^3)")
    report = verify_theorems(a)
    assert report.all_passed
    assert len(a.prim.points) == 3
    for i in range(len(a.lattice)):
        if a.lattice.proper[i]:
            assert a.prim.variety(i) == a.prim.full


def test_verify_theorems_not_applicable_for_non_w_ring():
    report = verify_theorems(analyze_ring("Quot(Zn(4), x^2)"))
    assert report.all_passed
    entry = report.entry("t0-iff-sober")
    assert not entry.applicable
    assert entry.lhs is None and entry.rhs is None
    assert report.entry("spectral-iff-t0").applicable is False


def test_verify_theorems_deterministic():
    r1 = verify_theorems(analyze_ring("Zn(30)"))
    r2 = verify_theorems(analyze_ring("Zn(30)"))
    assert [(e.entry_id, e.lhs, e.rhs, e.passed, e.witness) for e in r1.entries] == [
        (e.entry_id, e.lhs, e.rhs, e.passed, e.witness) for e in r2.entries
    ]


def test_report_entry_shape():
    from primspec.classify import THEOREM_CLAIMS

    report = verify_theorems(analyze_ring("Zn(12)"))
    ids = [e.entry_id for e in report.entries]
    assert ids == list(THEOREM_CLAIMS)
    for e in report.entries:
        if e.applicable:
            assert e.passed == (e.lhs == e.rhs)
        else:
            assert e.passed
    with pytest.raises(KeyError):
        report.entry("no-such-entry")


def _last_failing_pair(ring, fails):
    """Scalar scan over every pair of elements: the witness string of the
    last failing (r, s) in row-major order, or None."""
    names, witness = ring.element_names, None
    for r in range(ring.size):
        for s in range(ring.size):
            if fails(r, s):
                witness = f"r={names[r]}, s={names[s]}"
    return witness


@pytest.mark.parametrize(
    "r, corrupt",
    [
        (5, lambda v, full: 0),
        (2, lambda v, full: full),
        (3, lambda v, full: v ^ 1),
        (4, lambda v, full: v),
    ],
    ids=["unit-emptied", "nilpotent-filled", "point-flipped", "intact"],
)
def test_row_wise_basic_open_laws_name_the_scalar_witness(monkeypatch, r, corrupt):
    # one corrupted basic open of Zn(12) breaks both row-wise laws, and the
    # report names the pair the scan over every pair names
    a = analyze_ring("Zn(12)")
    ring, lat = a.ring, a.lattice
    original = Spectrum.basic_opens.func
    opens = list(original(a.prim))
    opens[r] = corrupt(opens[r], a.prim.full)
    monkeypatch.setattr(
        Spectrum, "basic_opens", property(lambda self: opens if self is a.prim else original(self))
    )
    rads = [
        lat.mask(lat.radical_ids[lat.id_of(ideal_generated_by(ring, [g]))])
        for g in range(ring.size)
    ]
    expected = {
        "basic-open-radical-test": _last_failing_pair(
            ring, lambda g, h: (opens[g] == opens[h]) != (rads[g] == rads[h])
        ),
        "basic-open-product": _last_failing_pair(
            ring, lambda g, h: opens[ring.mul[g][h]] != opens[g] & opens[h]
        ),
    }
    assert all(expected.values()) == (r != 4)
    report = verify_theorems(a)
    for entry_id, witness in expected.items():
        entry = report.entry(entry_id)
        assert (entry.passed, entry.witness) == (witness is None, witness), entry_id


def _uniform_exponent_holds(a, report):
    """Check the uniform-exponent verdicts of one analysis against one
    ``a2_by_mode`` call per family and mode, and against one
    ``a_conditions`` call per family; return the report's verdict."""
    lat = a.lattice
    ids = list(range(len(lat)))
    families = (ids, a.classification.primary_ideals or ids)
    for fam in families:
        members = all(a2_by_mode(lat, [i], "A2_original").a2 for i in fam)
        assert a2_by_mode(lat, fam, "A2_original").a2 == members
    entry = report.entry("uniform-exponent-zero-dimensional")
    assert entry.lhs == all(
        a2_by_mode(lat, fam, mode).a2
        for fam in families
        for mode in ("A2_original", "A2_radical_form")
    )
    assert entry.lhs == all(a_conditions(lat, fam).a2 for fam in families)
    return entry.lhs


def test_uniform_exponent_family_verdict_is_the_and_of_its_members(corpus_suite):
    results, _ = corpus_suite
    for text, (a, report) in results.items():
        assert _uniform_exponent_holds(a, report), text
    # top powers corrupted after the lattice is built: the unit 5 of Zn(12)
    # reads as lying in every radical, and its powers 5, 1 never reach (0)
    a = analyze_ring("Zn(12)")
    top = list(a.ring.top_powers)
    top[5] = 0
    a.ring.top_powers = top
    report = verify_theorems(a)
    assert not _uniform_exponent_holds(a, report)
    assert not report.entry("uniform-exponent-mode-agreement").passed
    # the radical of (0) read as (0): every member passes the power walk, but
    # (4) and (3) meet in (0) while their radicals meet in (6)
    a = analyze_ring("Zn(12)")
    lat = copy.copy(a.lattice)
    lat.radical_ids = list(lat.radical_ids)
    lat.radical_ids[lat.zero_id] = lat.zero_id
    a = RingAnalysis(a.spec, a.ring, lat)
    assert all(a2_by_mode(lat, [i], "A2_original").a2 for i in range(len(lat)))
    assert not _uniform_exponent_holds(a, verify_theorems(a))


def test_basic_open_quasi_compact_names_the_last_failing_element(monkeypatch):
    # a family whose union is empty covers no nonempty basic open
    a = analyze_ring("Zn(12)")
    monkeypatch.setattr(a.prim, "basic_open_family", [0])
    x = a.prim.basic_opens
    last = max(r for r in range(a.ring.size) if x[r])
    entry = verify_theorems(a).entry("basic-open-quasi-compact")
    assert (entry.passed, entry.witness) == (False, a.ring.element_names[last])


def test_every_law_holds_on_every_spec_up_to_32_elements():
    non_w = []
    for spec in every_spec(32):
        a = analyze_ring(spec)
        assert check_ring_axioms(a.ring) == [], str(spec)
        failures = verify_theorems(a).failures()
        assert failures == [], (str(spec), failures)
        if not a.w_ring[0]:
            non_w.append(str(spec))
    # the sweep reaches rings that are not W-rings, so that law is exercised
    assert len(non_w) == 4, non_w


def _copy_with(obj, **attrs):
    """A shallow copy of ``obj`` with ``attrs`` in place of its own
    attributes or cached verdicts; ``obj`` is left as it was."""
    out = copy.copy(obj)
    vars(out).update(attrs)
    return out


def _with_classification(**flags):
    return lambda a: _copy_with(a, classification=a.classification._replace(**flags))


def _with_prim(**attrs):
    return lambda a: _copy_with(a, prim=_copy_with(a.prim, **attrs))


# no two points of the space are told apart, closures untouched
_NOT_SEPARATED = _with_prim(separation=SeparationResult(False, False, False, (0, 1)))


def _second_point_variety_as_first(a):
    varieties = list(a.prim.varieties)
    first, second = a.prim.points[:2]
    varieties[second] = varieties[first]
    return _with_prim(varieties=varieties)(a)


# entry, ring, mutation of one side's input, (lhs, rhs) it must produce;
# each ring passes the entry with both sides true
SIDE_MUTANTS = [
    ("p-ring-iff-t0", "Zn(6)", _with_classification(is_p_ring=False), (False, True)),
    ("p-ring-iff-t0", "Zn(6)", _NOT_SEPARATED, (True, False)),
    ("p-ring-iff-t2", "Zn(6)", _with_classification(is_p_ring=False), (False, True)),
    # no two disjoint opens separate the two points, closures untouched
    ("p-ring-iff-t2", "Zn(6)", _with_prim(opens=[0, 0b11]), (True, False)),
    ("local-iff-supercompact", "Zn(8)", _with_classification(is_local=False), (False, True)),
    # the proper opens {(0)} and {(4), (2)} cover the space
    ("local-iff-supercompact", "Zn(8)", _with_prim(opens=[0, 0b001, 0b110, 0b111]), (True, False)),
    # without the empty open, {(3)} and {(2)} meet outside the family
    ("spectral-iff-t0", "Zn(6)", _with_prim(basic_open_family=[0b01, 0b10, 0b11]), (False, True)),
    ("spectral-iff-t0", "Zn(6)", _NOT_SEPARATED, (True, False)),
    ("t0-iff-sober", "Zn(6)", _NOT_SEPARATED, (False, True)),
    ("t0-iff-sober", "Zn(6)", _with_prim(sober=False), (True, False)),
    ("t0-iff-variety-injective", "Zn(6)", _NOT_SEPARATED, (False, True)),
    ("t0-iff-variety-injective", "Zn(6)", _second_point_variety_as_first, (True, False)),
]


@pytest.mark.parametrize(
    "entry_id, spec, mutate, sides",
    SIDE_MUTANTS,
    ids=[f"{m[0]}-{'lhs' if m[3][1] else 'rhs'}" for m in SIDE_MUTANTS],
)
def test_a_mutant_of_one_side_moves_that_side_only(entry_id, spec, mutate, sides):
    a = analyze_ring(spec)
    entry = verify_theorems(a).entry(entry_id)
    assert (entry.applicable, entry.lhs, entry.rhs, entry.passed) == (True, True, True, True)
    entry = verify_theorems(mutate(analyze_ring(spec))).entry(entry_id)
    assert (entry.lhs, entry.rhs, entry.passed) == (*sides, False)


def _radical_of_zero_shifted(a):
    # the radical of (0) read as the next ideal; the spectrum, built first,
    # keeps the true radicals
    radical_ids = list(a.lattice.radical_ids)
    radical_ids[a.lattice.zero_id] += 1
    return _copy_with(a, prim=a.prim, lattice=_copy_with(a.lattice, radical_ids=radical_ids))


def _with_prim_bit_flipped(attr, index, pos):
    """Point ``pos`` toggled in entry ``index`` of the point-set list
    ``attr`` of Prim."""

    def mutate(a):
        sets = list(getattr(a.prim, attr))
        sets[index] ^= 1 << pos
        return _with_prim(**{attr: sets})(a)

    return mutate


# entry, then the ring, a mutation of the law's input and the witness the
# failed law must name; each ring passes the entry unmutated.  Zn(12) is
# not reduced: its nilradical is (6), and its points are (4), (3), (2)
LAW_MUTANTS = {
    # (0) and (4) cut out {(4), (3), (2)} and {(4), (2)}
    "variety-radical-invariance": ("Zn(12)", _radical_of_zero_shifted, "(0)"),
    # the nilpotent 6 opens {(4)}
    "basic-open-empty-iff-nilpotent": (
        "Zn(12)",
        _with_prim_bit_flipped("basic_opens", 6, 0),
        "6",
    ),
    # (4) read as lying in the closure of (3)
    "point-closure-is-variety": (
        "Zn(12)",
        _with_prim_bit_flipped("point_closures", 1, 0),
        "(3)",
    ),
    # (2) read as lying outside the closure of (4), though (4) is inside (2)
    "specialization-radical-test": (
        "Zn(12)",
        _with_prim_bit_flipped("point_closures", 0, 2),
        "(4), (2)",
    ),
}


@pytest.mark.parametrize("entry_id", LAW_MUTANTS)
def test_a_mutant_of_a_law_input_fails_it_with_a_witness(entry_id):
    spec, mutate, witness = LAW_MUTANTS[entry_id]
    entry = verify_theorems(analyze_ring(spec)).entry(entry_id)
    assert (entry.applicable, entry.passed) == (True, True)
    entry = verify_theorems(mutate(analyze_ring(spec))).entry(entry_id)
    assert (entry.passed, entry.witness) == (False, witness)
