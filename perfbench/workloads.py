"""The benchmark's workloads: the inputs of each pass, drawn from a seed with
the benchmark's own RNG, and the operation each input runs.

A pass is the unit a run repeats.  Every pass of a workload has the same
composition, so percentiles over whole passes do not drift with speed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import oracle

RING_POOLS = {
    # 64-128 elements, at most 12 ideals: the ideal closure dominates.
    "large-rings": [
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
    ],
    # At most 72 elements, 13-32 ideals: the subfamily scans dominate.
    "ideal-rich": [
        "Prod(GF(2), Prod(GF(2), Prod(GF(2), Prod(GF(2), GF(2)))))",
        "Prod(Zn(4), Prod(GF(2), Prod(GF(2), GF(2))))",
        "Prod(Zn(6), Zn(6))",
        "Prod(Zn(8), Prod(GF(2), GF(2)))",
        "Prod(Zn(12), Zn(4))",
        "Prod(Zn(4), Prod(Zn(4), Zn(4)))",
        "Quot(Zn(4), x^3)",
        "Prod(Quot(Zn(4), x^2), GF(2))",
    ],
}

WORKLOADS = ("large-rings", "ideal-rich", "z-queries")

# The op_tail_ms percentile of each workload, fixed so that it never drifts
# with speed; a run has at least enough passes to leave 10 samples beyond it.
# p95 and p99 are the highest whole percentiles that a typical run leaves 10
# samples beyond.  p85 is lower than that (p87-p88 at 8-9 passes): with one
# sample per ring per pass, it stays in the middle of the second-heaviest
# ring's cluster whatever the pass count, where a higher one moves towards
# the boundary with the heaviest ring.
TAIL_PCT = {"large-rings": 85, "ideal-rich": 95, "z-queries": 99}

# z-queries pass composition: 30 heavy factorizations, 45 subcover
# certificates, 25 trivial queries.
Z_HEAVY_SEMIPRIME = (("v_rad_z", 8), ("v_z", 7))
Z_HEAVY_RANDOM = (("v_rad_z", 8), ("v_z", 7))
Z_CERTIFICATES = 45
Z_TRIVIAL = (("closure_z", 6), ("prim_zxz_closure", 6), ("a2_failure_witness_z", 6), ("smooth", 7))

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@dataclass
class Op:
    """One timed call and the untimed check of its result.

    ``check`` returns (mismatches, sizes); sizes are ring counts the traced
    run reports per op.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict]]


def pass_size(workload: str) -> int:
    if workload in RING_POOLS:
        return len(RING_POOLS[workload])
    return (
        sum(k for _, k in Z_HEAVY_SEMIPRIME + Z_HEAVY_RANDOM + Z_TRIVIAL)
        + Z_CERTIFICATES
    )


def make_pass(workload: str, rng: random.Random, export_path: str) -> list[Op]:
    if workload in RING_POOLS:
        return _ring_pass(RING_POOLS[workload], rng, export_path)
    return _z_pass(rng)


def _ring_pass(pool: list[str], rng: random.Random, export_path: str) -> list[Op]:
    """Every ring once, in a seeded order, exported with a seeded ``--seed``
    (which draws verify_theorems' sampled families)."""
    from primspec import cli

    export_seed = str(rng.randrange(1 << 31))

    def op(spec: str) -> Op:
        argv = ["export", spec, "--seed", export_seed, "--out", export_path]
        return Op(
            spec,
            lambda: cli.main(argv),
            lambda rc: oracle.check_export(spec, rc, export_path),
        )

    return [op(spec) for spec in rng.sample(pool, len(pool))]


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    n = rng.randrange(lo, hi) | 1
    while not oracle.is_prime(n):
        n += 2
    return n


def _z_pass(rng: random.Random) -> list[Op]:
    from primspec import zsymbolic as z

    ops: list[Op] = []

    def divisors_op(fn: str, n: int, expected: set[int] | None) -> Op:
        def check(result):
            primes = sorted(result.families) if fn == "v_rad_z" else result
            errors = oracle.check_prime_divisors(n, primes)
            if expected is not None and set(primes) != expected:
                errors.append(f"{fn}({n}) = {primes}, expected {sorted(expected)}")
            return errors, {}

        return Op(f"{fn}({n})", lambda: getattr(z, fn)(n), check)

    # heavy: both factors above the 10^6 trial-division limit, or 62 random bits
    for fn, count in Z_HEAVY_SEMIPRIME:
        for _ in range(count):
            p = _random_prime(rng, 10**6, 1 << 31)
            q = _random_prime(rng, 10**6, 1 << 31)
            ops.append(divisors_op(fn, p * q, {p, q}))
    for fn, count in Z_HEAVY_RANDOM:
        for _ in range(count):
            ops.append(divisors_op(fn, rng.randrange(1 << 61, 1 << 62), None))

    # certificates: 9 covering values up to 10^9
    for _ in range(Z_CERTIFICATES):
        while True:
            r = rng.randrange(2, 10**9)
            s_values = [rng.randrange(2, 10**9) for _ in range(9)]
            if oracle.covers(r, s_values):
                break
        ops.append(
            Op(
                f"subcover({r})",
                lambda r=r, s=s_values: z.extract_finite_subcover_z(r, s),
                lambda cert, r=r, s=s_values: (oracle.check_certificate(r, s, cert), {}),
            )
        )

    # trivial: single points of Prim(Z) and Prim(Z x Z), and smooth numbers
    for fn, count in Z_TRIVIAL:
        for _ in range(count):
            if fn == "smooth":
                primes = set(rng.sample(_SMALL_PRIMES, rng.randint(1, 4)))
                n = 1
                for p in primes:
                    n *= p ** rng.randint(1, 3)  # below 2^56
                ops.append(divisors_op("v_rad_z", n, primes))
                continue
            p, k = _random_prime(rng, 3, 10**6), rng.randint(1, 5)
            ops.append(_point_op(z, fn, p, k, rng.choice(("left", "right"))))
    rng.shuffle(ops)
    return ops


def _point_op(z, fn: str, p: int, k: int, side: str) -> Op:
    if fn == "closure_z":

        def call():
            return z.closure_z(z.ZPrimaryIdeal(p, k))

        def check(v):
            ok = v.families == {p} and not v.all_points and not v.includes_zero
            return ([] if ok else [f"closure of ({p}^{k}) = {v}"]), {}

    elif fn == "prim_zxz_closure":

        def call():
            return z.prim_zxz_closure(z.ZxZPrimaryIdeal(side, z.ZPrimaryIdeal(p, k)))

        def check(c):
            ok = c.side == side and c.p == p
            return ([] if ok else [f"{side} closure of ({p}^{k}) = {c}"]), {}

    else:

        def call():
            return z.a2_failure_witness_z(p)

        def check(w):
            ok = (
                w.p == p
                and w.radical_of_intersection.is_zero
                and (w.intersection_of_radicals.p, w.intersection_of_radicals.k) == (p, 1)
            )
            return ([] if ok else [f"a2 witness for {p}: {w}"]), {}

    return Op(f"{fn}({p}^{k})", call, check)
