"""The finite engine against the symbolic one, by the correspondence theorem.

For an ideal I of R the primary ideals of R/I are the Q/I with Q primary
and Q containing I, and rad(Q/I) = rad(Q)/I (Atiyah-Macdonald, Prop. 1.1).
So Prim(Z/(n)) is the subspace of Prim(Z) made of the (p^k) with p^k | n,
and Prim(Z/(m) x Z/(n)) the subspace of Prim(Z x Z) made of the
(p^k) x Z with p^k | m and the Z x (p^k) with p^k | n.  Each check takes
one side from ``zsymbolic`` and the other from the ring tables, and each
has a test below showing that it catches a broken map or a broken query.

The same theorem over F_p[x]: if f = prod g_i^(e_i) with the g_i distinct
monic irreducibles, the primaries of F_p[x]/(f) are the (g_i^j)/(f) with
1 <= j <= e_i, and the primes are the (g_i)/(f).  There the factorization
comes from trial division, not from ``zsymbolic``.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

from oracles import every_spec
from primspec.classify import a_conditions
from primspec.ideals import enumerate_ideals, mask_of
from primspec.rings import (
    QuotSpec,
    ZnSpec,
    _fp_divmod,
    _fp_is_irreducible,
    build_ring,
    parse_ring_spec,
    prime_power,
    spec_characteristic,
    spec_size,
)
from primspec.spectra import Spectrum
from primspec.zsymbolic import (
    NotACoverError,
    ZPrimaryIdeal,
    ZVariety,
    ZxZPrimaryIdeal,
    a2_failure_witness_z,
    closure_z,
    extract_finite_subcover_z,
    factorize,
    prim_zxz_closure,
    v_rad_z,
)

COVERS_PER_RING = 20


def _prim(spec: str) -> Spectrum:
    return Spectrum(enumerate_ideals(build_ring(parse_ring_spec(spec))), "primary")


def _prime_powers(n: int) -> list[ZPrimaryIdeal]:
    return [ZPrimaryIdeal(p, k) for p, e in factorize(n) for k in range(1, e + 1)]


def _positions(prim: Spectrum, images: dict[int, object]) -> list[object]:
    """The symbolic point behind each point of ``prim``, in point order,
    after checking that the images are exactly the points, one each."""
    assert len(images) == len(prim.points), images
    assert set(images) == set(prim.points), images
    return [images[i] for i in prim.points]


def _restricted(points, holds) -> int:
    return mask_of(pos for pos, q in enumerate(points) if holds(q))


def zn_image(n: int, q: ZPrimaryIdeal) -> int:
    """The image of (p^k) in Zn(n), as an element mask."""
    return mask_of(range(0, n, gcd(q.p**q.k, n)))


def zn_cover(r: int, s_values: list[int], n: int):
    """The cover query for Zn(n): D(r) lies in the union of the D(s) in
    Zn(n) exactly when it lies in their union with D(n) in Z.  The points
    outside D(n) are the (p^k) with p | n, and a basic open holds (p^k)
    exactly when it holds (p), which is a point of Zn(n)."""
    return extract_finite_subcover_z(r, s_values + [n])


def check_zn(n: int, v_rad=v_rad_z, cover=zn_cover) -> None:
    prim = _prim(f"Zn({n})")
    ring, lat = prim.lattice.ring, prim.lattice
    points = _positions(prim, {lat.id_of(zn_image(n, q)): q for q in _prime_powers(n)})
    for pos, q in enumerate(points):
        assert prim.closure(1 << pos) == _restricted(points, closure_z(q).contains), (n, q)
    opens = prim.basic_opens()
    for r in range(n):
        v = v_rad(r)
        assert opens[r] == _restricted(points, lambda q: not v.contains(q)), (n, r)
    rng = random.Random(n)
    for _ in range(COVERS_PER_RING):
        r = rng.randrange(1, n)
        s_values = rng.sample(range(n), rng.randint(1, min(3, n)))
        union = 0
        for s in s_values:
            union |= opens[s]
        holds = opens[r] & ~union == 0
        try:
            cert = cover(r, s_values, n)
        except NotACoverError:
            assert not holds, (n, r, s_values)
            continue
        assert holds, (n, r, s_values)
        # r^e = sum c*s in Z, so the same identity holds mod n in the tables
        power = ring.one_index
        for _ in range(cert.exponent):
            power = ring.mul[power][r]
        combination = 0
        for c, s in zip(cert.coefficients, cert.delta):
            combination = ring.add[combination][ring.mul[c % n][s % n]]
        assert power == combination, (n, cert)


def zxz_image(m: int, n: int, q: ZxZPrimaryIdeal) -> int:
    """The image of (p^k) x Z or Z x (p^k) in Prod(Zn(m), Zn(n)), whose
    element (a, b) has index a * n + b."""
    pk = q.inner.p**q.inner.k
    if q.side == "left":
        return mask_of(a * n + b for a in range(0, m, gcd(pk, m)) for b in range(n))
    return mask_of(a * n + b for a in range(m) for b in range(0, n, gcd(pk, n)))


def _in_zxz_closure(closure, q: ZxZPrimaryIdeal) -> bool:
    return closure.side == q.side and closure.p in (None, q.inner.p)


def check_zxz(m: int, n: int, image=zxz_image) -> None:
    prim = _prim(f"Prod(Zn({m}), Zn({n}))")
    lat = prim.lattice
    symbolic = [ZxZPrimaryIdeal("left", q) for q in _prime_powers(m)]
    symbolic += [ZxZPrimaryIdeal("right", q) for q in _prime_powers(n)]
    points = _positions(prim, {lat.id_of(image(m, n, q)): q for q in symbolic})
    for pos, q in enumerate(points):
        closure = prim_zxz_closure(q)
        expected = _restricted(points, lambda p: _in_zxz_closure(closure, p))
        assert prim.closure(1 << pos) == expected, (m, n, q)


ZN_MODULI = range(2, 257)
ZXZ_PAIRS = [(m, n) for m in range(2, 129) for n in range(2, 256 // m + 1)]


def test_prim_of_zn_is_the_subspace_of_prim_z_above_n():
    for n in ZN_MODULI:
        check_zn(n)


def test_prim_of_a_product_of_zn_is_the_subspace_of_prim_zxz_above_it():
    for m, n in ZXZ_PAIRS:
        check_zxz(m, n)


def _catches(check, *cases) -> bool:
    for case in cases:
        try:
            check(*case)
        except AssertionError:
            return True
    return False


def test_the_zxz_check_catches_swapped_sides():
    def swapped(m, n, q):
        side = "right" if q.side == "left" else "left"
        return zxz_image(m, n, ZxZPrimaryIdeal(side, q.inner))

    assert _catches(lambda m, n: check_zxz(m, n, image=swapped), *ZXZ_PAIRS)


def test_the_cover_check_catches_a_query_without_the_kernel():
    def without_kernel(r, s_values, n):
        return extract_finite_subcover_z(r, s_values)

    assert _catches(lambda n: check_zn(n, cover=without_kernel), *[(n,) for n in ZN_MODULI])


def test_the_basic_open_check_catches_a_lost_repeated_prime():
    def v_rad_of_squarefree_part(r):
        if r == 0:
            return v_rad_z(r)
        return ZVariety(families=frozenset(p for p, e in factorize(r) if e == 1))

    assert _catches(
        lambda n: check_zn(n, v_rad=v_rad_of_squarefree_part), *[(n,) for n in ZN_MODULI]
    )



def fp_factorization(f: list[int], p: int) -> dict[tuple[int, ...], int]:
    """The monic irreducible factors of the monic f over F_p, with their
    multiplicities, by trial division in order of degree."""
    factors: dict[tuple[int, ...], int] = {}
    d = 1
    while len(f) > 1:
        if 2 * d > len(f) - 1:
            g = tuple(f)  # no factor of degree at most half its own is left
            factors[g] = factors.get(g, 0) + 1
            break
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _fp_is_irreducible(g, p):
                continue
            quot, rem = _fp_divmod(f, g, p)
            while not rem:
                factors[tuple(g)] = factors.get(tuple(g), 0) + 1
                f = quot
                quot, rem = _fp_divmod(f, g, p)
        d += 1
    return factors


def _over_a_prime_field(spec) -> bool:
    return prime_power(spec_size(spec.base)) == (spec_characteristic(spec.base), 1)


FP_QUOTIENTS = [s for s in every_spec(64) if isinstance(s, QuotSpec) and _over_a_prime_field(s)]


def check_fp_quotient(spec: QuotSpec, prim_kind: str = "primary") -> None:
    lat = enumerate_ideals(build_ring(spec))
    factors = fp_factorization(list(spec.modulus), spec_characteristic(spec.base))
    assert len(Spectrum(lat, prim_kind).points) == sum(factors.values()), (str(spec), factors)
    assert len(Spectrum(lat, "prime").points) == len(factors), (str(spec), factors)


def test_prim_of_an_fp_quotient_counts_the_prime_powers_of_its_modulus():
    assert len(FP_QUOTIENTS) == 1470
    for spec in FP_QUOTIENTS:
        check_fp_quotient(spec)


def test_the_fp_check_catches_prim_built_from_the_prime_flags():
    assert _catches(lambda spec: check_fp_quotient(spec, "prime"), *[(s,) for s in FP_QUOTIENTS])


def least_uniform_exponent(ring, a: int, masks: list[int]) -> int:
    """The least n with a^n in every member, by walking a's powers in
    ``ring.mul``; a must be nilpotent modulo each member."""
    n, power = 1, a
    while any(not m >> power & 1 for m in masks):
        n, power = n + 1, ring.mul[power][a]
    return n


def test_the_finite_shadow_of_the_a2_failure_in_z():
    # in Zn(p^K) the family {(p^k) : 1 <= k <= K} passes A2, but the least
    # uniform exponent of p is K: it grows without bound, which is why the
    # whole power family in Z fails A2
    shadows = 0
    for q in range(2, 257):
        if prime_power(q) is None:
            continue
        p, big_k = prime_power(q)
        lat = enumerate_ideals(build_ring(ZnSpec(q)))
        family = [lat.id_of(zn_image(q, ZPrimaryIdeal(p, k))) for k in range(1, big_k + 1)]
        res = a_conditions(lat, family)
        assert res.a1 and res.a2, q
        masks = [lat.mask(i) for i in family]
        a = p % q
        assert least_uniform_exponent(lat.ring, a, masks) == big_k, q
        if big_k > 1:
            assert least_uniform_exponent(lat.ring, a, masks[:-1]) == big_k - 1, q
        # the meet (0) has radical (p), as the radicals' meet does; in Z the
        # meet is (0), a prime, and the two sides part
        radical = lat.mask(lat.radical_ids[lat.zero_id])
        witness = a2_failure_witness_z(p)
        assert radical == zn_image(q, witness.intersection_of_radicals), q
        assert witness.radical_of_intersection != witness.intersection_of_radicals
        shadows += big_k > 1
    assert shadows == 16
