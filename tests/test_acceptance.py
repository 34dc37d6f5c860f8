"""Acceptance criteria: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines inline).
"""

import itertools
import json
import random
import time
from math import gcd

import sympy

from primspec.classify import (
    a_conditions,
    analyze_ring,
    closure_identity_check,
    star_condition,
)
from primspec.cli import main
from oracles import ideal_generated_by
from primspec.ideals import enumerate_ideals, mask_of
from primspec.rings import build_ring, parse_ring_spec
from primspec.topology import is_supercompact
from primspec.zsymbolic import (
    ZERO_IDEAL,
    ZPrimaryIdeal,
    ZxZPrimaryIdeal,
    a2_failure_witness_z,
    closure_equal_z,
    closure_equal_zxz,
    extract_finite_subcover_z,
    factorize,
    prim_zxz_closure,
    v_rad_z,
    v_z,
)


def _verdict(number, name):
    print(f"criterion {number:2d} [PASS] {name}")


def _timed(limit_s):
    class Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.start
            if exc == (None, None, None):
                assert self.elapsed < limit_s, f"took {self.elapsed:.2f}s"
            return False

    return Timer()


def test_criterion_01_chain_rings_zn_p_m():
    for n, p, m in [(8, 2, 3), (27, 3, 3)]:
        with _timed(1.0):
            a = analyze_ring(f"Zn({n})")
            ring, lat = a.ring, a.lattice
            expected_prim = {mask_of([0])} | {
                ideal_generated_by(ring, [pow(p, i, n)]) for i in range(1, m)
            }
            assert {lat.mask(i) for i in a.prim.points} == expected_prim
            assert {lat.mask(i) for i in a.primes.points} == {
                ideal_generated_by(ring, [p])
            }
            for i in range(len(lat)):
                if lat.proper[i]:
                    assert a.prim.variety(i) == a.prim.full
                    assert a.primes.variety(i) == a.primes.full
    _verdict(1, "Zn(8)/Zn(27): Prim, Spec and both variety collapses exact")


def test_criterion_02_galois_ring():
    with _timed(1.0):
        a = analyze_ring("Quot(Zn(4), x^2+x+1)")
        lat = a.lattice
        assert [lat.render(i) for i in range(len(lat))] == ["(0)", "(2)", "(1)"]
        assert all(lat.primary[i] for i in range(len(lat)) if lat.proper[i])
        assert [lat.render(i) for i in a.primes.points] == ["(2)"]
        for i in range(len(lat)):
            if lat.proper[i]:
                assert a.prim.variety(i) == a.prim.full
    _verdict(2, "GR(4,16): ideals (0),(2),(1); all proper primary; collapses exact")


def test_criterion_03_truncated_polynomial_ring():
    with _timed(1.0):
        a = analyze_ring("Quot(GF(2), x^3)")
        lat = a.lattice
        assert [lat.render(i) for i in range(len(lat))] == ["(0)", "(x^2)", "(x)", "(1)"]
        for i in range(len(lat) - 1):
            assert lat.contains_ideal(i, i + 1)
            assert lat.mask(i) != lat.mask(i + 1)
        proper = [i for i in range(len(lat)) if lat.proper[i]]
        assert sorted(a.prim.points) == proper
        for i in proper:
            assert a.prim.variety(i) == a.prim.full
    _verdict(3, "GF(2)[x]/(x^3): full ideal chain; Prim = proper ideals; collapse exact")


def test_criterion_04_symbolic_z():
    with _timed(1.0):
        v = v_rad_z(12)
        assert v.families == frozenset({2, 3})
        assert not v.all_points and not v.includes_zero
        assert v_z(12) == [2, 3]
        q1, q2 = ZPrimaryIdeal(2, 3), ZPrimaryIdeal(2, 5)
        assert closure_equal_z(q1, q2)
        assert q1 != q2
    _verdict(4, "Z: v_rad(12) power families vs V(12)={(2),(3)}; non-T0 witness")


def test_criterion_05_symbolic_zxz():
    with _timed(1.0):
        for p in (2, 5):
            for i, j in [(1, 2), (3, 7)]:
                qi = ZxZPrimaryIdeal("left", ZPrimaryIdeal(p, i))
                qj = ZxZPrimaryIdeal("left", ZPrimaryIdeal(p, j))
                closure = prim_zxz_closure(qi)
                assert closure.side == "left" and closure.p == p
                assert str(closure) == f"{{({p}^n)×Z: n≥1}}"
                assert closure_equal_zxz(qi, qj)
                assert qi != qj
    _verdict(5, "Z x Z: closure of (p^i)xZ is the full left power family; non-T0")


CRIT6_ENTRIES = [
    "variety-extremes",
    "variety-product-union",
    "variety-sum-intersection",
    "variety-generators",
    "variety-antitone",
    "variety-radical-invariance",
    "basic-opens-form-base",
    "basic-open-radical-test",
    "basic-open-product",
    "basic-open-empty-iff-nilpotent",
    "basic-open-quasi-compact",
    "space-quasi-compact",
    "point-closure-is-variety",
    "specialization-radical-test",
    "point-varieties-irreducible",
]


def test_criterion_06_variety_law_suite(corpus_suite):
    results, elapsed = corpus_suite
    assert len(results) >= 25
    for text, (_, report) in results.items():
        for entry_id in CRIT6_ENTRIES:
            entry = report.entry(entry_id)
            assert entry.passed, f"{text}: {entry_id}: {entry.witness}"
    assert elapsed < 60, f"suite took {elapsed:.1f}s"
    _verdict(6, f"variety/base/compactness laws over {len(results)} rings in {elapsed:.1f}s")


def test_criterion_07_equivalence_theorems(corpus_suite):
    results, _ = corpus_suite
    for text, (analysis, report) in results.items():
        for entry_id in (
            "t0-iff-variety-injective",
            "p-ring-iff-t0",
            "p-ring-iff-t2",
            "separation-equivalence",
            "irreducible-iff-nilradical-primary",
            "local-iff-supercompact",
        ):
            entry = report.entry(entry_id)
            assert entry.applicable and entry.passed, f"{text}: {entry_id}"
            assert entry.lhs == entry.rhs, f"{text}: {entry_id}"
        for entry_id in ("t0-iff-sober", "spectral-iff-t0"):
            entry = report.entry(entry_id)
            assert entry.applicable == (analysis.classification.is_w_ring is True)
            if entry.applicable:
                assert entry.lhs == entry.rhs, f"{text}: {entry_id}"
    _verdict(7, "separation/irreducibility/supercompact/sober equivalences, both sides")


def test_criterion_08_star_condition(corpus_suite):
    results, _ = corpus_suite
    a30 = results["Zn(30)"][0]
    assert star_condition(a30.lattice, a30.prim)[0] is False
    a12 = results["Zn(12)"][0]
    assert star_condition(a12.lattice, a12.prim)[0] is True
    for text, (analysis, report) in results.items():
        nonzero_primes = [
            i
            for i in analysis.classification.prime_ideals
            if analysis.lattice.mask(i) != 1
        ]
        verdict, _ = star_condition(analysis.lattice, analysis.prim)
        assert verdict == (len(nonzero_primes) <= 2), text
        assert report.entry("single-member-cover-two-primes").passed, text
    _verdict(8, "single-member covering holds exactly for <= 2 nonzero primes")


def test_criterion_09_uniform_exponents(corpus_suite):
    results, _ = corpus_suite
    for text, (analysis, report) in results.items():
        ids = list(range(len(analysis.lattice)))
        orig = a_conditions(analysis.lattice, ids, "A2_original")
        radf = a_conditions(analysis.lattice, ids, "A2_radical_form")
        assert orig.a2 and radf.a2 and orig.a2 == radf.a2, text
        assert report.entry("uniform-exponent-mode-agreement").passed, text
        assert report.entry("uniform-exponent-zero-dimensional").passed, text
    witness = a2_failure_witness_z(2)
    assert witness.radical_of_intersection == ZERO_IDEAL
    assert witness.intersection_of_radicals == ZPrimaryIdeal(2, 1)
    assert not witness.sides_equal
    _verdict(9, "uniform exponents hold on every finite corpus ring, fail for Z at 2")


def test_criterion_10_closure_identity(corpus_analyses):
    with _timed(30.0) as timer:
        for text, analysis in corpus_analyses.items():
            n = len(analysis.prim.points)
            ok, witness = closure_identity_check(analysis.prim)
            assert ok, f"{text}: {witness}"
            assert n <= 10  # small enough for the subset oracle in test_classify.py
        # Zn(72), the corpus ring with the most ideals, once more on its own
        big = corpus_analyses["Zn(72)"]
        ok, witness = closure_identity_check(big.prim)
        assert ok, witness
    _verdict(10, f"closure(Y) = variety(xi(Y)) exhaustively, {timer.elapsed:.1f}s")


def _supercompact_by_cover_enumeration(topo):
    opens = topo.opens
    for size in range(len(opens) + 1):
        for combo in itertools.combinations(opens, size):
            union = 0
            for u in combo:
                union |= u
            if union == topo.full and topo.full not in combo:
                return False
    return True


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


def test_criterion_11_oracle_equivalences(corpus_analyses):
    checked = 0
    for text, analysis in corpus_analyses.items():
        topo = analysis.prim
        if len(topo.opens) <= 12:
            assert is_supercompact(topo)[0] == _supercompact_by_cover_enumeration(topo)
            checked += 1
    assert checked >= 25
    prod = build_ring(parse_ring_spec("Prod(Zn(2), Zn(3))"))
    z6 = build_ring(parse_ring_spec("Zn(6)"))
    assert _find_isomorphism(prod, z6) is not None
    for r, s_values in [
        (6, [4, 9, 25]),
        (2, [8]),
        (1, [2, 3]),
        (30, [4, 9]),
        (12, [8, 9, 5]),
        (-6, [4, -9]),
    ]:
        cert = extract_finite_subcover_z(r, s_values)
        total = sum(c * s for c, s in zip(cert.coefficients, cert.delta))
        assert r**cert.exponent - total == 0
        nonzero = [s for s in cert.delta if s]
        g = 0
        for s in nonzero:
            g = gcd(g, s)
        assert g != 0 and r**cert.exponent % g == 0
    _verdict(
        11,
        f"supercompact oracle x{checked}, product/Zn(6) isomorphism, exact certificates",
    )


def test_criterion_12_export_at_scale(capsys):
    # 256-element rings under the default cap: a chain ring with 9 ideals
    # and a field built as a quotient; both exports together within 5 s
    with _timed(5.0):
        reports = {}
        for text in ("Zn(256)", "GF(2^8)"):
            assert main(["export", text]) == 0
            reports[text] = json.loads(capsys.readouterr().out)
    assert [len(r["ideals"]) for r in reports.values()] == [9, 2]
    for report in reports.values():
        assert report["elements"] == 256
        assert all(entry["pass"] for entry in report["theorems"])
    _verdict(12, "Zn(256) and GF(2^8) exported within 5 s, every law passing")


def test_criterion_13_export_quotient_at_the_cap(capsys):
    # a 1024-element field built as a quotient, exported within 10 s
    with _timed(10.0):
        assert main(["export", "GF(2^10)"]) == 0
        report = json.loads(capsys.readouterr().out)
    assert report["elements"] == 1024
    assert len(report["ideals"]) == 2
    assert all(entry["pass"] for entry in report["theorems"])
    _verdict(13, "GF(2^10) exported within 10 s, every law passing")


def test_criterion_14_export_local_quotient_at_the_cap(capsys):
    # a 1024-element local ring that is not a W-ring, with 37 ideals, not
    # all principal, exported within 5 s
    with _timed(5.0):
        assert main(["export", "Quot(Zn(4), x^5)"]) == 0
        report = json.loads(capsys.readouterr().out)
    assert report["elements"] == 1024
    assert len(report["ideals"]) == 37
    assert report["classification"]["is_w_ring"] is False
    assert all(entry["pass"] for entry in report["theorems"])
    _verdict(14, "Quot(Zn(4), x^5) exported within 5 s, every law passing")


def test_criterion_15_export_at_the_cap_in_seconds(capsys):
    # a 1024-element chain ring and a 729-element field, both exported
    # within 5 s together
    with _timed(5.0):
        reports = {}
        for text in ("Zn(1024)", "GF(3^6)"):
            assert main(["export", text]) == 0
            reports[text] = json.loads(capsys.readouterr().out)
    assert [r["elements"] for r in reports.values()] == [1024, 729]
    assert [len(r["ideals"]) for r in reports.values()] == [11, 2]
    for report in reports.values():
        assert all(entry["pass"] for entry in report["theorems"])
    _verdict(15, "Zn(1024) and GF(3^6) exported within 5 s, every law passing")


def test_criterion_16_boolean_lattice_at_the_cap():
    # GF(2)^10 has 1024 ideals, the most of any ring the default cap
    # admits, and every one is principal; the lattice within 5 s
    ring = build_ring(parse_ring_spec("Prod(GF(2), " * 9 + "GF(2)" + ")" * 9))
    with _timed(5.0):
        lat = enumerate_ideals(ring)
    assert len(lat) == 1024
    assert len(set(lat.principal_ids)) == 1024
    _verdict(16, "GF(2)^10: all 1024 ideals enumerated within 5 s")


def test_criterion_17_boolean_lattice_export(capsys):
    # GF(2)^9 has 512 ideals, so the variety laws ask for 2 * 512^2 sums
    # and products of ideals; the whole export within 5 s
    with _timed(5.0):
        assert main(["export", "Prod(GF(2), " * 8 + "GF(2)" + ")" * 8]) == 0
        report = json.loads(capsys.readouterr().out)
    assert report["elements"] == 512
    assert len(report["ideals"]) == 512
    assert all(entry["pass"] for entry in report["theorems"])
    _verdict(17, "GF(2)^9 exported within 5 s, every law passing")


def test_criterion_18_symbolic_factorization_at_64_bits():
    # semiprimes whose factors both lie above the old 10^6 trial-division
    # bound, and random 62-bit integers: factored within 1 s together
    rng = random.Random(18)
    values = []
    while len(values) < 15:
        p, q = (sympy.nextprime(rng.randrange(10**6, 2**31 - 100)) for _ in range(2))
        if p < 2**31 and q < 2**31:
            values.append(p * q)
    values += [rng.getrandbits(62) | 1 << 61 for _ in range(15)]
    with _timed(1.0):
        results = [factorize(n) for n in values]
    for n, got in zip(values, results):
        assert got == sorted(sympy.factorint(n).items()), n
    _verdict(18, "15 semiprimes above 10^6 and 15 random 62-bit integers factored within 1 s")


def test_criterion_19_boolean_lattice_hasse_diagram_at_the_cap(capsys):
    # the Hasse diagram of GF(2)^10's 1024 ideals: each ideal is covered by
    # adding one of the factors it lacks, 10 * 2^9 edges; within 5 s
    with _timed(5.0):
        code = main(["export", "Prod(GF(2), " * 9 + "GF(2)" + ")" * 9, "--graph", "ideal-lattice"])
        out = capsys.readouterr().out
    assert code == 0
    assert out.count("label=") == 1024
    assert out.count(" -> ") == 5120
    _verdict(19, "GF(2)^10: Hasse diagram of 1024 ideals exported within 5 s")


def test_criterion_20_boolean_lattice_export_at_the_cap(capsys):
    # GF(2)^10 has 1024 ideals, the most of any ring tried under the default
    # cap, so the exhaustive folds of the theorem suite meet their largest
    # state spaces; the whole export within 10 s
    with _timed(10.0) as timer:
        assert main(["export", "Prod(GF(2), " * 9 + "GF(2)" + ")" * 9]) == 0
        report = json.loads(capsys.readouterr().out)
    assert report["elements"] == 1024
    assert len(report["ideals"]) == 1024
    assert all(entry["pass"] for entry in report["theorems"])
    _verdict(20, f"GF(2)^10 exported in {timer.elapsed:.2f} s (bound 10 s), every law passing")
