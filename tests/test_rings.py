"""Ring construction: parsing, tables, arithmetic, axioms."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import every_spec, oracle_ring, power
from test_ideals import POOL_RINGS

from primspec.rings import (
    CapExceededError,
    FiniteRing,
    GFSpec,
    ProdSpec,
    QuotSpec,
    RingSpecError,
    ZnSpec,
    build_ring,
    check_ring_axioms,
    parse_ring_spec,
    prime_power,
    spec_size,
    unit_and_nilpotent_flags,
)

SAMPLE_SPECS = [
    "Zn(8)",
    "Zn(12)",
    "GF(7)",
    "GF(2^3)",
    "GF(3^2)",
    "Quot(GF(2), x^3)",
    "Quot(Zn(4), x^2+x+1)",
    "Prod(Zn(2), Zn(3))",
    "Prod(Zn(4), Zn(9))",
]


def test_parse_literals():
    assert parse_ring_spec("Zn(8)") == ZnSpec(8)
    assert parse_ring_spec("GF(4)") == GFSpec(2, 2)
    assert parse_ring_spec("GF(2^3)") == GFSpec(2, 3)
    gr = parse_ring_spec("Quot(Zn(4), x^2+x+1)")
    assert isinstance(gr, QuotSpec) and gr.modulus == (1, 1, 1)
    assert gr.is_galois_ring()
    prod = parse_ring_spec("Prod(Zn(2), Zn(3))")
    assert prod == ProdSpec(ZnSpec(2), ZnSpec(3))


def test_parse_whitespace_insensitive():
    a = parse_ring_spec(" Quot( Zn( 4 ) ,  x^2 + x + 1 ) ")
    assert a == parse_ring_spec("Quot(Zn(4), x^2+x+1)")


def test_parse_negative_coefficients_normalized():
    spec = parse_ring_spec("Quot(Zn(5), x^2-1)")
    assert spec.modulus == (4, 0, 1)
    assert str(spec) == "Quot(Zn(5), x^2+4)"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("Zn(1)", "at least 2"),
        ("Zn(0)", "at least 2"),
        ("GF(6)", "prime power"),
        ("GF(4^2)", "not prime"),
        ("Quot(Zn(4), 2x^2+1)", "monic"),
        ("Quot(Zn(4), 3)", "degree"),
        ("Quot(Prod(Zn(2), Zn(3)), x^2)", "base"),
        ("Zn(", "integer"),
        ("Foo(3)", "unknown constructor"),
        ("Zn(8) junk", "trailing"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(RingSpecError) as err:
        parse_ring_spec(text)
    assert fragment in str(err.value)
    assert err.value.position is not None


def test_parse_cap():
    with pytest.raises(CapExceededError):
        parse_ring_spec("Zn(2000)")
    with pytest.raises(CapExceededError):
        parse_ring_spec("Quot(Zn(4), x^10)", max_elements=1024)
    parse_ring_spec("Zn(2000)", max_elements=4096)


def test_prime_power_matches_trial_division():
    for q in range(2000):
        factors = [p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]
        expected = None
        if len(factors) == 1:
            p, k = factors[0], 1
            while p**k != q:
                k += 1
            expected = (p, k)
        assert prime_power(q) == expected, q


M61, M31 = 2**61 - 1, 2**31 - 1  # Mersenne primes


@pytest.mark.parametrize(
    "text, expected",
    [
        (f"GF({M61})", GFSpec(M61, 1)),
        (f"GF({M61}^2)", GFSpec(M61, 2)),
        (f"GF({M61**2})", GFSpec(M61, 2)),
        (f"GF({M31 * M61})", "not a prime power"),
        (f"GF({M31 * M61}^2)", "not prime"),
    ],
    ids=["prime", "prime-squared", "prime-power-literal", "composite", "composite-squared"],
)
def test_parse_large_gf_decided_fast(text, expected):
    # parse only: a ring this large must never be built
    started = time.perf_counter()
    if isinstance(expected, str):
        with pytest.raises(RingSpecError, match=expected):
            parse_ring_spec(text, max_elements=10**60)
    else:
        assert parse_ring_spec(text, max_elements=10**60) == expected
    assert time.perf_counter() - started < 2.0


@pytest.mark.parametrize(
    "text, cap, expected",
    [
        ("GF(3215031751)", 10**10, "3215031751 is not a prime power"),
        ("GF(3215031767)", 10**10, GFSpec(3215031767, 1)),
        ("GF(1373653^2)", 2 * 10**12, "1373653 is not prime"),
        ("GF(1373677^2)", 2 * 10**12, GFSpec(1373677, 2)),
        ("GF(25326001)", 10**8, "25326001 is not a prime power"),
        ("GF(25326023)", 10**8, GFSpec(25326023, 1)),
    ],
    ids=["psi4", "prime-past-psi4", "psi2-squared", "prime-past-psi2-squared", "psi3", "prime-past-psi3"],
)
def test_parse_gf_near_strong_pseudoprimes(text, cap, expected):
    # parse only; psi_k is the least strong pseudoprime to the first k prime
    # bases, so a primality test that stopped after k bases at psi_k would
    # take it for a prime
    if isinstance(expected, str):
        with pytest.raises(RingSpecError, match=expected):
            parse_ring_spec(text, max_elements=cap)
    else:
        assert parse_ring_spec(text, max_elements=cap) == expected


@pytest.mark.parametrize("text", SAMPLE_SPECS)
def test_round_trip(text):
    expr = parse_ring_spec(text)
    assert str(expr) == text
    assert parse_ring_spec(str(expr)) == expr


def _spec_strategy():
    base = st.one_of(
        st.integers(2, 30).map(ZnSpec),
        st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 3)).map(
            lambda t: GFSpec(*t)
        ),
    )

    def extend(children):
        quot = st.tuples(base, st.integers(1, 3)).map(
            lambda t: QuotSpec(t[0], (0,) * t[1] + (1,))
        )
        prod = st.tuples(children, children).map(lambda t: ProdSpec(*t))
        return st.one_of(quot, prod)

    return st.recursive(base, extend, max_leaves=3)


@given(_spec_strategy())
@settings(max_examples=60, deadline=None)
def test_round_trip_generated(expr):
    assert parse_ring_spec(str(expr), max_elements=2**63) == expr


def test_build_sizes_and_identity():
    r8 = build_ring(parse_ring_spec("Zn(8)"))
    assert r8.size == 8 and r8.one_index == 1 and r8.zero_index == 0
    k8 = build_ring(parse_ring_spec("Quot(GF(2), x^3)"))
    assert k8.size == 8
    assert k8.element_names[:4] == ["0", "1", "x", "x+1"]
    gr = build_ring(parse_ring_spec("Quot(Zn(4), x^2+x+1)"))
    assert gr.size == 16
    p6 = build_ring(parse_ring_spec("Prod(Zn(2), Zn(3))"))
    assert p6.size == 6


def test_quotient_and_product_size_laws():
    for base, degree in [("Zn(4)", 2), ("GF(3)", 2), ("GF(2)", 3)]:
        spec = parse_ring_spec(f"Quot({base}, x^{degree})")
        ring = build_ring(spec)
        assert ring.size == build_ring(parse_ring_spec(base)).size ** degree
    prod = build_ring(parse_ring_spec("Prod(Zn(4), Zn(9))"))
    assert prod.size == 36


def _find_isomorphism(r1, r2):
    if r1.size != r2.size:
        return None
    rest1 = [i for i in range(r1.size) if i not in (r1.zero_index, r1.one_index)]
    rest2 = [i for i in range(r2.size) if i not in (r2.zero_index, r2.one_index)]
    for images in itertools.permutations(rest2):
        phi = {r1.zero_index: r2.zero_index, r1.one_index: r2.one_index}
        phi.update(zip(rest1, images))
        if all(
            phi[r1.add[a][b]] == r2.add[phi[a]][phi[b]]
            and phi[r1.mul[a][b]] == r2.mul[phi[a]][phi[b]]
            for a in range(r1.size)
            for b in range(r1.size)
        ):
            return phi
    return None


def test_prod_z2_z3_isomorphic_to_z6():
    prod = build_ring(parse_ring_spec("Prod(Zn(2), Zn(3))"))
    z6 = build_ring(parse_ring_spec("Zn(6)"))
    assert _find_isomorphism(prod, z6) is not None


def test_element_arithmetic_examples():
    r8 = build_ring(parse_ring_spec("Zn(8)"))
    assert power(r8, 2, 3) == 0
    r12 = build_ring(parse_ring_spec("Zn(12)"))
    assert r12.mul[4][3] == 0
    gr = build_ring(parse_ring_spec("Quot(Zn(4), x^2+x+1)"))
    assert power(gr, 2, 2) == 0
    assert r8.add[5][6] == 3
    assert r8.neg[3] == 5


def test_quotient_arithmetic_against_residue_oracle():
    # independent oracle: coefficient tuples multiplied mod (x^2+x+1) over Z4
    gr = build_ring(parse_ring_spec("Quot(Zn(4), x^2+x+1)"))

    def decode(i):
        return (i % 4, i // 4)

    def encode(c0, c1):
        return c0 % 4 + 4 * (c1 % 4)

    def oracle_mul(a, b):
        a0, a1 = decode(a)
        b0, b1 = decode(b)
        c0, c1, c2 = a0 * b0, a0 * b1 + a1 * b0, a1 * b1
        # x^2 = -x - 1
        return encode(c0 - c2, c1 - c2)

    for a in range(16):
        for b in range(16):
            assert gr.mul[a][b] == oracle_mul(a, b)


# GF/Quot specs of the benchmark's two ring pools, as literals
_BENCH_POOL_QUOTIENTS = [
    "Quot(Zn(8), x^2+x+1)",
    "Quot(Zn(4), x^3+x+1)",
    "Quot(Zn(9), x^2+1)",
    "GF(2^6)",
    "GF(3^4)",
    "Quot(Zn(4), x^3)",
    "Quot(Zn(4), x^2)",
]

# degree-1 moduli, field and non-prime-power bases, nilpotent moduli
_EDGE_QUOTIENTS = [
    "Quot(Zn(5), x+3)",
    "Quot(Zn(6), x)",
    "Quot(GF(4), x^3+x+1)",
    "Quot(GF(8), x^2+x+1)",
    "Quot(Zn(6), x^3+5x+1)",
    "Quot(Zn(12), x^2)",
    "Quot(Zn(2), x^2)",
    "Quot(Zn(4), x^4)",
]


def test_quotient_tables_match_polynomial_oracle():
    from primspec.corpus import DEFAULT_CORPUS

    corpus = [t for t in DEFAULT_CORPUS if t.startswith(("GF(", "Quot("))]
    for text in corpus + _BENCH_POOL_QUOTIENTS + _EDGE_QUOTIENTS:
        spec = parse_ring_spec(text)
        if isinstance(spec, GFSpec) and spec.k == 1:
            continue  # prime fields are built as Zn tables
        ring, oracle = build_ring(spec), oracle_ring(spec)
        assert ring.add == oracle.add, text
        assert ring.mul == oracle.mul, text
        assert ring.neg == oracle.neg, text
        assert ring.one_index == oracle.one_index, text
        assert ring.element_names == oracle.element_names, text


def test_quotients_at_the_cap_build_fast_and_satisfy_the_axioms():
    specs = [
        parse_ring_spec(text)
        for text in ("GF(2^10)", "Quot(Zn(4), x^5)", "Quot(GF(2), x^10+x^3+1)")
    ]
    started = time.perf_counter()
    rings = [build_ring(spec) for spec in specs]
    assert time.perf_counter() - started < 5.0
    for ring in rings:
        assert ring.size == 1024
        assert check_ring_axioms(ring) == [], ring.label


@pytest.mark.parametrize("text", POOL_RINGS + ["Prod(Zn(32), Zn(32))"])
def test_zn_and_product_tables_match_index_formula(text):
    spec = parse_ring_spec(text)
    ring, oracle = build_ring(spec), oracle_ring(spec)
    assert (ring.add, ring.mul, ring.neg) == (oracle.add, oracle.mul, oracle.neg)


def test_every_spec_lists_each_kind_once_in_a_fixed_order():
    specs = every_spec(32)
    assert specs == every_spec(32)
    assert len(specs) == len(set(specs)) == 2957
    texts = [str(spec) for spec in specs]
    for text in (
        "Zn(32)",
        "GF(2^5)",
        "Quot(Zn(2), x^5+x^2+1)",
        "Quot(GF(2^2), x^2+x)",
        "Prod(Zn(2), Prod(GF(2), Prod(Zn(2), Prod(GF(2), Zn(2)))))",
    ):
        assert text in texts, text
    assert all(spec_size(spec) <= 32 for spec in specs)


def test_tables_match_the_slow_builders_on_every_spec_up_to_32_elements():
    for spec in every_spec(32):
        text = str(spec)
        assert parse_ring_spec(text) == spec, text
        ring, oracle = build_ring(spec), oracle_ring(spec)
        assert ring.add == oracle.add, text
        assert ring.mul == oracle.mul, text
        assert ring.neg == oracle.neg, text
        assert ring.one_index == oracle.one_index, text
        assert ring.element_names == oracle.element_names, text
        # rows are lists, as hand-built tables are
        assert all(type(row) is list for row in ring.add + ring.mul), text


def test_unit_and_nilpotent_flags_examples():
    r8 = build_ring(parse_ring_spec("Zn(8)"))
    assert unit_and_nilpotent_flags(r8, 2) == (False, True, 3)
    r12 = build_ring(parse_ring_spec("Zn(12)"))
    assert unit_and_nilpotent_flags(r12, 5) == (True, False, None)
    r6 = build_ring(parse_ring_spec("Zn(6)"))
    assert unit_and_nilpotent_flags(r6, 3) == (False, False, None)


@pytest.mark.parametrize("text", SAMPLE_SPECS)
def test_ring_axioms(text):
    ring = build_ring(parse_ring_spec(text))
    assert check_ring_axioms(ring) == []


def test_axioms_sampled_above_limit():
    ring = build_ring(parse_ring_spec("Zn(72)"))
    assert check_ring_axioms(ring) == []


def test_ring_axioms_whole_corpus():
    from primspec.corpus import DEFAULT_CORPUS

    for text in DEFAULT_CORPUS:
        ring = build_ring(parse_ring_spec(text))
        assert check_ring_axioms(ring) == [], text


def _definitional_violations(ring):
    """Slow oracle: every axiom straight from its definition, the triple
    laws on all n^3 triples; stops at the first violation."""
    n, add, mul = ring.size, ring.add, ring.mul
    if ring.one_index == ring.zero_index:
        return ["identity equals zero"]
    for a, b in itertools.product(range(n), repeat=2):
        if (
            add[0][a] != a
            or add[a][ring.neg[a]] != 0
            or mul[ring.one_index][a] != a
            or add[a][b] != add[b][a]
            or mul[a][b] != mul[b][a]
        ):
            return [f"pairwise law on {a}, {b}"]
    for a, b, c in itertools.product(range(n), repeat=3):
        if (
            add[add[a][b]][c] != add[a][add[b][c]]
            or mul[mul[a][b]][c] != mul[a][mul[b][c]]
            or mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]
        ):
            return [f"triple law on {a}, {b}, {c}"]
    return []


def _with_entry(ring, table, i, j, value):
    """A copy of ``ring`` with ``table[i][j]`` and ``table[j][i]`` set to value."""
    tables = {"add": [list(row) for row in ring.add], "mul": [list(row) for row in ring.mul]}
    tables[table][i][j] = tables[table][j][i] = value
    return FiniteRing(
        ring.size, tables["add"], tables["mul"], ring.neg, ring.one_index, ring.label,
        ring.element_names,
    )


def test_ring_axioms_agree_with_triple_oracle_on_corpus():
    from primspec.corpus import DEFAULT_CORPUS

    for text in DEFAULT_CORPUS:
        ring = build_ring(parse_ring_spec(text))
        assert check_ring_axioms(ring) == _definitional_violations(ring) == [], text


@pytest.mark.parametrize("text", ["Zn(6)", "Quot(GF(2), x^3)", "Prod(GF(2), GF(2))"])
@pytest.mark.parametrize("table", ["add", "mul"])
def test_ring_axioms_agree_with_triple_oracle_on_defects(text, table):
    ring = build_ring(parse_ring_spec(text))
    n = ring.size
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        for value in range(n):
            broken = _with_entry(ring, table, i, j, value)
            assert bool(check_ring_axioms(broken)) == bool(
                _definitional_violations(broken)
            ), (table, i, j, value)


def test_ring_axioms_catch_one_symmetric_defect_in_gf256():
    # a defect too rare for 4000 sampled triples: only triples touching
    # 7*9 see it
    ring = build_ring(parse_ring_spec("GF(2^8)"))
    broken = _with_entry(ring, "mul", 7, 9, ring.mul[7][9] + 1)
    assert check_ring_axioms(broken) == ["7*(1+8) not distributive"]
    assert _definitional_violations(broken) != []


def test_ring_axioms_exhaustive_at_scale():
    rings = [
        build_ring(parse_ring_spec(text))
        for text in ("GF(2^8)", "Quot(Zn(4), x^4)", "Prod(Zn(16), Zn(16))")
    ]
    started = time.perf_counter()
    for ring in rings:
        assert check_ring_axioms(ring) == [], ring.label
    assert time.perf_counter() - started < 3.0


def test_pow_additivity_sampled():
    import random

    rng = random.Random(1)
    for text in ("Zn(12)", "Quot(Zn(4), x^2+x+1)", "GF(3^2)"):
        ring = build_ring(parse_ring_spec(text))
        for _ in range(100):
            r = rng.randrange(ring.size)
            a, b = rng.randint(1, 6), rng.randint(1, 6)
            assert power(ring, r, a + b) == ring.mul[power(ring, r, a)][power(ring, r, b)]


def test_characteristic():
    assert build_ring(parse_ring_spec("Zn(12)")).characteristic() == 12
    assert build_ring(parse_ring_spec("GF(3^2)")).characteristic() == 3
    assert build_ring(parse_ring_spec("Prod(Zn(2), Zn(3))")).characteristic() == 6


def test_galois_flag_variants():
    assert parse_ring_spec("Quot(Zn(8), x^2+x+1)").is_galois_ring()
    # reducible mod 2: accepted as a ring, not flagged
    not_galois = parse_ring_spec("Quot(Zn(4), x^2)")
    assert not not_galois.is_galois_ring()
    assert check_ring_axioms(build_ring(not_galois)) == []
