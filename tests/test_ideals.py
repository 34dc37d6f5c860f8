"""Ideal lattice: generation, enumeration, radicals, classification."""

import itertools
import random
from collections import deque

import pytest
from oracles import (
    dot_ideal_lattice_by_scan,
    ideal_generated_by,
    is_maximal_by_scan,
    least_superset,
    upper_covers_by_scan,
)

from primspec.corpus import DEFAULT_CORPUS
from primspec.ideals import (
    _cosets,
    _principal_masks,
    _sum_mask,
    enumerate_ideals,
    iter_bits,
    mask_of,
)
from primspec.report import dot_ideal_lattice
from primspec.rings import (
    CapExceededError,
    FiniteRing,
    build_ring,
    parse_ring_spec,
    unit_and_nilpotent_flags,
)


def _ring(text):
    return build_ring(parse_ring_spec(text))


def _lattice(text):
    return enumerate_ideals(_ring(text))


def _id(lattice, members):
    return lattice.id_by_mask[mask_of(members)]


def _is_closed(ring, mask):
    """Exhaustive check of the ideal axioms on a bit-set of elements."""
    if not mask & 1:
        return False
    for a in iter_bits(mask):
        for b in iter_bits(mask):
            if not (mask >> ring.add[a][b]) & 1:
                return False
        for r in range(ring.size):
            if not (mask >> ring.mul[r][a]) & 1:
                return False
    return True


def test_generated_by_examples():
    r12 = _ring("Zn(12)")
    assert list(iter_bits(ideal_generated_by(r12, {4}))) == [0, 4, 8]
    assert list(iter_bits(ideal_generated_by(r12, set()))) == [0]
    k8 = _ring("Quot(GF(2), x^3)")
    # x^2 has index 4 (little-endian digits over GF(2))
    assert list(iter_bits(ideal_generated_by(k8, {4}))) == [0, 4]


def test_generated_ideals_are_closed():
    r = _ring("Prod(Zn(4), Zn(9))")
    for gens in ([], [5], [7, 12], [1]):
        assert _is_closed(r, ideal_generated_by(r, gens))


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
        assert all(_is_closed(lat.ring, mask) for mask in lat.masks)


def test_ideal_cap():
    ring = _ring("Zn(30)")
    with pytest.raises(CapExceededError):
        enumerate_ideals(ring, max_ideals=3)


@pytest.mark.parametrize(
    "text",
    [
        "Zn(128)",  # a chain
        "Prod(GF(2), Prod(GF(2), Prod(GF(2), Prod(GF(2), GF(2)))))",
        "Prod(Zn(4), Prod(Zn(4), Zn(4)))",
        "Quot(Zn(4), x^3)",  # ideals that are not principal
    ],
)
def test_ideal_cap_fires_exactly_above_the_lattice_size(text):
    ring = _ring(text)
    size = len(enumerate_ideals(ring))
    assert len(enumerate_ideals(ring, max_ideals=size)) == size
    with pytest.raises(CapExceededError):
        enumerate_ideals(ring, max_ideals=size - 1)


def test_arithmetic_examples():
    lat = _lattice("Zn(12)")
    i4, i3 = _id(lat, [0, 4, 8]), _id(lat, [0, 3, 6, 9])
    assert lat.product_table[i4][i3] == lat.zero_id
    assert lat.id_of(lat.mask(i4) & lat.mask(i3)) == lat.zero_id
    assert lat.sum_table[i4][i3] == lat.unit_id
    lat6 = _lattice("Zn(6)")
    i2, i3 = _id(lat6, [0, 2, 4]), _id(lat6, [0, 3])
    assert lat6.id_of(lat6.mask(i2) & lat6.mask(i3)) == lat6.zero_id


def test_radical_examples():
    lat8 = _lattice("Zn(8)")
    assert lat8.render(lat8.radical_ids[_id(lat8, [0, 4])]) == "(2)"
    lat12 = _lattice("Zn(12)")
    i6 = _id(lat12, [0, 6])
    assert lat12.radical_ids[i6] == i6
    assert lat12.radical_ids[lat12.unit_id] == lat12.unit_id


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
    assert list(iter_bits(lat8.mask(lat8.nilradical_id()))) == [0, 2, 4, 6]
    lat6 = _lattice("Zn(6)")
    assert lat6.nilradical_id() == lat6.zero_id
    latk = _lattice("Quot(GF(2), x^3)")
    assert latk.render(latk.nilradical_id()) == "(x)"


def test_nilpotent_iff_in_nilradical():
    for text in ("Zn(12)", "Zn(8)", "Quot(Zn(4), x^2+x+1)", "Prod(GF(2), GF(2))"):
        ring = _ring(text)
        lat = enumerate_ideals(ring)
        nil = lat.mask(lat.nilradical_id())
        for r in range(ring.size):
            assert unit_and_nilpotent_flags(ring, r)[1] == bool(nil >> r & 1)


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
    rad, products = lat.radical_ids, lat.product_table
    for i, j in itertools.product(range(len(lat)), repeat=2):
        meet_rad = lat.mask(rad[i]) & lat.mask(rad[j])
        assert lat.mask(rad[lat.id_of(lat.mask(i) & lat.mask(j))]) == meet_rad
        assert lat.mask(rad[products[i][j]]) == meet_rad
        if lat.contains_ideal(i, j):
            assert lat.contains_ideal(rad[i], rad[j])
    for i in range(len(lat)):
        assert rad[rad[i]] == rad[i]
        assert lat.contains_ideal(i, rad[i])


# -- differential tests against the definitional additive closure ----------


def _additive_closure(ring, mask):
    """Slow oracle: add sums of members breadth-first until none is new."""
    add = ring.add
    queue = deque(iter_bits(mask))
    while queue:
        x = queue.popleft()
        row = add[x]
        for y in list(iter_bits(mask)):
            s = row[y]
            if not (mask >> s) & 1:
                mask |= 1 << s
                queue.append(s)
    return mask


def _closure_of_products(ring, xs, ys):
    """Additive closure of {0} and every product x*y."""
    prods = 1
    for x in xs:
        for y in ys:
            prods |= 1 << ring.mul[x][y]
    return _additive_closure(ring, prods)


def _closure_fixpoint(ring):
    """Every ideal as the closure of the union of two known ideals, starting
    from the closures of the principal ideals."""
    everything = range(ring.size)
    masks = {_closure_of_products(ring, everything, [g]) for g in everything}
    queue = deque(masks)
    while queue:
        m = queue.popleft()
        for other in list(masks):
            joined = _additive_closure(ring, m | other)
            if joined not in masks:
                masks.add(joined)
                queue.append(joined)
    return masks


def _generated(lattice, gens):
    """The lattice's ideal generated by ``gens``: its least member above them."""
    return lattice.mask(least_superset(lattice.masks, mask_of(gens)))


# every default-corpus ring, plus a Quot with non-principal ideals (every
# corpus ring is a principal ideal ring), a GF(p^k) beyond the corpus and a
# nested Prod
DIFFERENTIAL_RINGS = list(DEFAULT_CORPUS) + [
    "Quot(Zn(4), x^3)",
    "GF(2^4)",
    "Prod(GF(2), Prod(Zn(4), GF(3)))",
]

# the rings of the benchmark's two pools, as literals
POOL_RINGS = [
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
]
LATTICE_RINGS = list(dict.fromkeys(DIFFERENTIAL_RINGS + POOL_RINGS))


@pytest.mark.parametrize("text", LATTICE_RINGS)
def test_sums_of_principal_ideals_agree_with_closure_oracle(text):
    ring = _ring(text)
    lat = enumerate_ideals(ring)
    assert set(lat.masks) == _closure_fixpoint(ring)

    everything = range(ring.size)
    rng = random.Random(text)
    gen_sets = [[]] + [[g] for g in everything]
    gen_sets += [rng.sample(everything, rng.randint(2, min(4, ring.size))) for _ in range(20)]
    for gens in gen_sets:
        expected = _closure_of_products(ring, everything, gens)
        assert ideal_generated_by(ring, gens) == expected, gens
        assert _generated(lat, gens) == expected, gens

    sums, products = lat.sum_table, lat.product_table
    for i, j in itertools.product(range(len(lat)), repeat=2):
        expected = _closure_of_products(ring, iter_bits(lat.mask(i)), list(iter_bits(lat.mask(j))))
        assert lat.mask(products[i][j]) == expected, (lat.render(i), lat.render(j))
        expected = _additive_closure(ring, lat.mask(i) | lat.mask(j))
        assert lat.mask(sums[i][j]) == expected, (lat.render(i), lat.render(j))


def _pairwise_sum_mask(ring, a, b):
    """Slow oracle: the set {x + y : x in a, y in b}, one lookup per pair."""
    add = ring.add
    out = 0
    bs = list(iter_bits(b))
    for x in iter_bits(a):
        row = add[x]
        for y in bs:
            out |= 1 << row[y]
    return out


def _column_principal_mask(ring, g):
    """Slow oracle: R*g as the column {r*g : r in R} of the product table."""
    return mask_of(ring.mul[r][g] for r in range(ring.size))


@pytest.mark.parametrize("text", LATTICE_RINGS)
def test_coset_walk_sum_agrees_with_pairwise_sum(text):
    ring = _ring(text)
    masks = enumerate_ideals(ring).masks
    for a, b in itertools.product(masks, repeat=2):
        assert _sum_mask(ring, a, b) == _pairwise_sum_mask(ring, a, b)
    for g, mask in enumerate(_principal_masks(ring)):
        assert mask == _column_principal_mask(ring, g), g


def test_cosets_reject_an_addition_table_that_breaks_the_group_laws():
    # Prod(Zn(6), Zn(6)) with its last addition row rotated one place
    # further, so 35 + 0 is 30; read through islice, so that a walk which
    # never clears 35 fails the test instead of hanging it
    good = _ring("Prod(Zn(6), Zn(6))")
    last = good.add[-1]
    broken = FiniteRing(
        good.size,
        good.add[:-1] + [last[1:] + last[:1]],
        good.mul,
        good.neg,
        good.one_index,
        "broken",
        good.element_names,
    )
    with pytest.raises(ValueError, match="table of broken .* 35 "):
        list(itertools.islice(_cosets(broken, 1, (1 << broken.size) - 1), broken.size + 1))


@pytest.mark.parametrize("text", LATTICE_RINGS)
def test_principal_ids_agree_with_column_oracle(text):
    ring = _ring(text)
    lat = enumerate_ideals(ring)
    for g in range(ring.size):
        assert lat.mask(lat.principal_ids[g]) == _column_principal_mask(ring, g), g
    # the principal masks, looked up among the members, give the same ids
    assert [lat.id_of(m) for m in _principal_masks(ring)] == lat.principal_ids


def _power_masks(ring):
    """Slow oracle: for each element x, the bit-set of all powers x^k,
    k >= 1, walked until they repeat."""
    masks = []
    for x in range(ring.size):
        mask, cur = 0, x
        while not (mask >> cur) & 1:
            mask |= 1 << cur
            cur = ring.mul[cur][x]
        masks.append(mask)
    return masks


@pytest.mark.parametrize("text", LATTICE_RINGS)
def test_top_powers_decide_radicals_like_the_power_walk(text):
    # x is in rad(I) exactly when some power of x lies in I
    ring = _ring(text)
    lat = enumerate_ideals(ring)
    top, powers = ring.top_powers, _power_masks(ring)
    for i, mask in enumerate(lat.masks):
        rad = mask_of(x for x in range(ring.size) if powers[x] & mask)
        for x in range(ring.size):
            assert (mask >> top[x]) & 1 == (rad >> x) & 1, (lat.render(i), ring.element_names[x])
        assert lat.mask(lat.radical_ids[i]) == rad, lat.render(i)


def _flags_by_definition(ring, r):
    """Slow oracle: a unit has 1 somewhere in its product row; r is
    nilpotent when its power walk reaches 0 before it repeats."""
    one = ring.one_index
    is_unit = any(ring.mul[r][s] == one for s in range(ring.size))
    seen, cur, n = set(), r, 1
    while cur not in seen:
        if cur == 0:
            return is_unit, True, n
        seen.add(cur)
        cur = ring.mul[cur][r]
        n += 1
    return is_unit, False, None


@pytest.mark.parametrize("text", LATTICE_RINGS)
def test_unit_and_nilpotent_flags_agree_with_definition(text):
    ring = _ring(text)
    for r in range(ring.size):
        assert unit_and_nilpotent_flags(ring, r) == _flags_by_definition(ring, r), r


def test_unit_and_nilpotent_flags_on_the_zero_ring():
    # in the zero ring 0 = 1 is a unit and nilpotent at once
    zero = FiniteRing(1, [[0]], [[0]], [0], 0, "0", ["0"])
    assert unit_and_nilpotent_flags(zero, 0) == _flags_by_definition(zero, 0) == (True, True, 1)


def _product_mask(ring, a, b):
    """IJ as the sum of the ideals x*J over x in I; their union is the set
    of products."""
    mul = ring.mul
    out = 1  # zero ideal
    bs = list(iter_bits(b))
    for x in iter_bits(a):
        row = mul[x]
        xb = 0
        for y in bs:
            xb |= 1 << row[y]
        if xb | out != out:
            out = _pairwise_sum_mask(ring, out, xb)
    return out


def _assert_sums_and_products_agree(ring, lat):
    sums, products = lat.sum_table, lat.product_table
    for i, j in itertools.product(range(len(lat)), repeat=2):
        a, b = lat.mask(i), lat.mask(j)
        assert lat.mask(sums[i][j]) == _pairwise_sum_mask(ring, a, b), (i, j)
        assert lat.mask(products[i][j]) == _product_mask(ring, a, b), (i, j)


@pytest.mark.parametrize("text", LATTICE_RINGS)
def test_lattice_lookups_agree_with_element_arithmetic(text):
    """Sums, products and generated ideals read off the lattice agree with
    the same operations computed from the ring tables."""
    ring = _ring(text)
    lat = enumerate_ideals(ring)
    _assert_sums_and_products_agree(ring, lat)
    for g in range(ring.size):
        assert _generated(lat, [g]) == ideal_generated_by(ring, [g]), g
        for h in range(g + 1, ring.size):
            assert _generated(lat, [g, h]) == ideal_generated_by(ring, [g, h]), (g, h)


@pytest.mark.parametrize(
    "text",
    # a Boolean lattice of 64 ideals, and local rings of 512 and 256
    # elements whose ideals are not all principal, so that sums and
    # products run down long paths of the sum tree
    ["Prod(GF(2), " * 5 + "GF(2)" + ")" * 5, "Quot(Zn(8), x^3+2x)", "Quot(Zn(4), x^4)"],
)
def test_sum_and_product_tables_agree_with_element_arithmetic(text):
    ring = _ring(text)
    _assert_sums_and_products_agree(ring, enumerate_ideals(ring))


def _pairwise_generated(ring, gens):
    """Slow oracle: the sum of the principal ideals of ``gens``."""
    mask = 1
    for g in gens:
        mask = _pairwise_sum_mask(ring, mask, _column_principal_mask(ring, g))
    return mask


def _generators_by_elements(lattice, ideal_id):
    """The generating set ``IdealLattice.generators`` returns, computed from
    the ring tables: the first single generator, else the greedy set pruned."""
    ring = lattice.ring
    mask = lattice.mask(ideal_id)
    if ideal_id == lattice.zero_id:
        return [0]
    for g in iter_bits(mask):
        if g and _column_principal_mask(ring, g) == mask:
            return [g]
    gens = []
    current = 1
    for g in iter_bits(mask):
        if not (current >> g) & 1:
            gens.append(g)
            current = _pairwise_sum_mask(ring, current, _column_principal_mask(ring, g))
    for g in list(gens):
        rest = [h for h in gens if h != g]
        if _pairwise_generated(ring, rest) == mask:
            gens = rest
    return gens


@pytest.mark.parametrize(
    "text",
    list(
        dict.fromkeys(
            list(DEFAULT_CORPUS)
            + POOL_RINGS
            + ["Quot(Zn(4), x^4)", "Quot(Zn(16), x^2)", "Prod(Zn(16), Zn(16))"]
            # the only rings here where pruning drops a greedy generator
            + ["Quot(Zn(8), x^3+4)", "Quot(Zn(8), x^3+2x)"]
        )
    ),
)
def test_generators_agree_with_element_level_oracle(text):
    # every rendered ideal label is built from these lists
    lat = _lattice(text)
    for i in range(len(lat)):
        assert lat.generators(i) == _generators_by_elements(lat, i), lat.render(i)


def test_product_is_a_sum_of_multiples_not_their_union():
    # in Z8[x]/(x^3), (2, x)^2 = (4, 2x, x^2) is no single x*J, and the union
    # of the x*J over x in (2, x) is not closed under +
    ring = _ring("Quot(Zn(8), x^3)")
    lat = enumerate_ideals(ring)
    index = ring.element_names.index
    m = lat.id_of(ideal_generated_by(ring, [index("2"), index("x")]))
    members = list(iter_bits(lat.mask(m)))
    products = mask_of(ring.mul[x][y] for x in members for y in members)
    expected = _additive_closure(ring, products)
    assert products != expected
    assert expected == ideal_generated_by(ring, [index("4"), index("2x"), index("x^2")])
    assert lat.mask(lat.product_table[m][m]) == expected


def _is_prime_by_elements(lattice, i):
    """Slow oracle: I proper, and no two elements outside I multiply into I."""
    ring, mask = lattice.ring, lattice.mask(i)
    if i == lattice.unit_id:
        return False
    outside = [x for x in range(ring.size) if not (mask >> x) & 1]
    return not any((mask >> ring.mul[r][s]) & 1 for r in outside for s in outside)


def _is_primary_by_elements(lattice, i):
    """Slow oracle: Q proper, and rs in Q with r outside Q puts s in rad(Q)."""
    ring, mask = lattice.ring, lattice.mask(i)
    if i == lattice.unit_id:
        return False
    rad = lattice.mask(lattice.radical_ids[i])
    outside_q = [x for x in range(ring.size) if not (mask >> x) & 1]
    outside_rad = [x for x in range(ring.size) if not (rad >> x) & 1]
    return not any(
        (mask >> ring.mul[r][s]) & 1 for r in outside_q for s in outside_rad
    )


@pytest.mark.parametrize(
    "text",
    list(
        dict.fromkeys(
            LATTICE_RINGS
            # local rings with many ideals that are not principal, where
            # every proper ideal is primary and no coset is scanned
            + ["Quot(Zn(4), x^4)", "Quot(Zn(16), x^2)"]
            + ["Quot(Zn(8), x^3+4)", "Quot(Zn(8), x^3+2x)"]
            # ideals that are neither principal nor primary
            + ["Prod(Quot(Zn(4), x^3), GF(3))"]
        )
    ),
)
def test_prime_and_primary_flags_agree_with_element_pair_scans(text):
    lat = _lattice(text)
    for i in range(len(lat)):
        assert lat.maximal[i] == is_maximal_by_scan(lat, i), lat.render(i)
        assert lat.prime[i] == _is_prime_by_elements(lat, i), lat.render(i)
        assert lat.primary[i] == _is_primary_by_elements(lat, i), lat.render(i)


# -- the cover relation against the pair and triple scans -------------------


@pytest.mark.parametrize(
    "text",
    list(DEFAULT_CORPUS)
    + [
        "Zn(720)",
        "Quot(Zn(4), x^5)",
        "Quot(Zn(8), x^3+2x)",
        # a ring that is no Prod but splits into local factors
        "Quot(Zn(2), x^10+x)",
        "Zn(1024)",
        # 448 ideals, neither all principal nor a chain
        "Prod(Quot(Zn(4), x^2), " + "Prod(GF(2), " * 5 + "GF(2)" + ")" * 6,
    ],
)
def test_upper_covers_and_maximal_flags_agree_with_scans(text):
    lat = _lattice(text)
    assert lat.upper_covers == upper_covers_by_scan(lat)
    for i in range(len(lat)):
        assert lat.maximal[i] == is_maximal_by_scan(lat, i), lat.render(i)
    assert dot_ideal_lattice(lat) == dot_ideal_lattice_by_scan(lat)


@pytest.mark.parametrize("k", range(1, 7))
def test_boolean_lattice_covers_add_one_factor(k):
    # the ideals of GF(2)^k are the 2^k subsets of its factors, and each
    # one is covered by adding one factor it lacks: k 2^(k-1) edges
    lat = _lattice("Prod(GF(2), " * (k - 1) + "GF(2)" + ")" * (k - 1))
    assert sum(len(covers) for covers in lat.upper_covers) == k * 2 ** (k - 1)
    for i, covers in enumerate(lat.upper_covers):
        # the ideal of s factors has 2^s elements
        factors = lat.mask(i).bit_count().bit_length() - 1
        assert len(covers) == k - factors


@pytest.mark.parametrize("n", [2, 8, 27, 125, 1024])
def test_chain_ring_ideals_have_one_upper_cover(n):
    # the ideals of Zn(p^k) form a chain, so every proper ideal is covered
    # by the next one and only the last proper ideal is maximal
    lat = _lattice(f"Zn({n})")
    assert lat.upper_covers == [[i + 1] for i in range(len(lat) - 1)] + [[]]
    assert lat.maximal == [i == len(lat) - 2 for i in range(len(lat))]
