"""Slow oracles shared by several test modules."""

import functools
import itertools
from math import gcd, isqrt

from primspec.ideals import _sum_mask, canonical_key, iter_bits
from primspec.rings import FiniteRing
from primspec.zsymbolic import (
    NotACoverError,
    SubcoverCertificate,
    _bezout_chain,
    _pollard_rho,
    is_probable_prime,
)


def _principal_mask(ring: FiniteRing, g: int) -> int:
    """The principal ideal R*g, which is closed under + because R has 1;
    R is commutative, so it is the set of entries of the row mul[g]."""
    mask = 0
    for x in set(ring.mul[g]):
        mask |= 1 << x
    return mask


def ideal_generated_by(ring: FiniteRing, gens) -> int:
    """Mask of the smallest ideal containing ``gens`` (element indices)."""
    mask = 1  # zero ideal
    for g in gens:
        if not (mask >> g) & 1:
            mask = _sum_mask(ring, mask, _principal_mask(ring, g))
    return mask


def least_superset(family: list[int], subset: int) -> int:
    """Index of the least member of ``family`` (ascending by size, closed
    under intersection, ending with the whole set) containing ``subset``,
    by a scan of the family."""
    for i, member in enumerate(family):
        if subset & ~member == 0:
            return i
    stray = list(itertools.islice(iter_bits(subset & ~family[-1]), 5))
    raise ValueError(f"set has bits outside the largest member, lowest {stray}")


def smallest_failing_folds(start, members, step, holds) -> list[tuple]:
    """Slow oracle for ``classify._first_failing_fold``: every smallest
    subfamily of ``members`` whose state, ``start`` folded by ``step`` over
    it, breaks ``holds``, as tuples in member order; [] if none."""
    for size in range(len(members) + 1):
        found = [
            gamma
            for gamma in itertools.combinations(members, size)
            if not holds(functools.reduce(step, gamma, start))
        ]
        if found:
            return found
    return []


def is_irreducible_by_relative_scan(t, subset: int | None = None):
    """Slow oracle: irreducibility of a subspace (default: the whole space)
    from its relative closed family, rebuilt and sorted canonically; the
    witness is the first pair of proper members covering the subspace."""
    space = t.full if subset is None else subset
    if not space:
        return False, None
    relative = sorted({c & space for c in t.closed_sets}, key=canonical_key)
    proper = [c for c in relative if c != space]
    for i, a in enumerate(proper):
        for b in proper[i + 1 :]:
            if a | b == space:
                return False, (a, b)
    return True, None


def factorize_by_trial_division(n: int) -> list[tuple[int, int]]:
    """Sorted prime factorization of |n| for nonzero |n| < 2^63: a 2-3-5
    wheel of trial divisions up to 10^6, then Miller-Rabin and Brent's rho
    on the cofactor."""
    if n == 0:
        raise ValueError("zero has no prime factorization")
    n = abs(n)
    if n >= 1 << 63:
        raise ValueError("input exceeds 64 bits")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f <= 1_000_000 and f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % len(wheel)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = isqrt(m)
        if root * root == m:
            stack += [root, root]
            continue
        d = _pollard_rho(m)
        stack += [d, m // d]
    return sorted(factors.items())


def subcover_by_factoring(r: int, s_values: list[int]) -> SubcoverCertificate:
    """``extract_finite_subcover_z`` by factoring every gcd it tests: the
    same certificate or error, at several factorizations per call."""
    if r == 0:
        raise ValueError("r must be nonzero")
    nonzero = [s for s in s_values if s != 0]
    r_primes = {p for p, _ in factorize_by_trial_division(r)}
    if not nonzero:
        raise NotACoverError(
            "no nonzero covering elements: the zero ideal stays uncovered"
        )

    def covered(x: int) -> bool:
        return all(p in r_primes for p, _ in factorize_by_trial_division(x))

    g = 0
    for s in nonzero:
        g = gcd(g, s)
    for p, _ in factorize_by_trial_division(g):
        if p not in r_primes:
            raise NotACoverError(
                f"power family of {p} lies in X_{r} but in no X_s",
                uncovered_prime=p,
            )
    delta: list[int] = []
    for s in nonzero:
        delta.append(s)
        g_d = 0
        for v in delta:
            g_d = gcd(g_d, v)
        if covered(g_d):
            break
    i = 0
    while i < len(delta):
        rest = delta[:i] + delta[i + 1 :]
        if rest:
            g_rest = 0
            for w in rest:
                g_rest = gcd(g_rest, w)
            if covered(g_rest):
                delta = rest
                continue
        i += 1
    g_d, coeffs = _bezout_chain(delta)
    exponent = 1
    if abs(g_d) != 1:
        r_exponents = dict(factorize_by_trial_division(r))
        exponent = max(-(-k // r_exponents[p]) for p, k in factorize_by_trial_division(g_d))
    scale = r**exponent // g_d
    return SubcoverCertificate(
        r=r,
        delta=tuple(delta),
        exponent=exponent,
        coefficients=tuple(scale * c for c in coeffs),
    )


def is_maximal_by_scan(lattice, i: int) -> bool:
    """Slow oracle: ideal i is proper and lies in no other proper ideal, by
    a scan of every ideal."""
    if not lattice.proper[i]:
        return False
    mask = lattice.masks[i]
    for j, other in enumerate(lattice.masks):
        if j != i and lattice.proper[j] and other | mask == other:
            return False
    return True


def upper_covers_by_scan(lattice) -> list[list[int]]:
    """Slow oracle: j covers i when i is strictly inside j and no ideal lies
    strictly between them, by a scan of every triple of ideals."""
    n = len(lattice)
    contains = [[i != j and lattice.contains_ideal(i, j) for j in range(n)] for i in range(n)]
    return [
        [
            j
            for j in range(n)
            if contains[i][j] and not any(contains[i][k] and contains[k][j] for k in range(n))
        ]
        for i in range(n)
    ]


def dot_ideal_lattice_by_scan(lattice) -> str:
    """The Hasse diagram ``report.dot_ideal_lattice`` draws, with its edges
    from ``upper_covers_by_scan``."""
    lines = ["digraph ideal_lattice {", "  rankdir=BT;"]
    for i in range(len(lattice)):
        lines.append(f'  n{i} [label="{lattice.render(i)}"];')
    for i, covers in enumerate(upper_covers_by_scan(lattice)):
        for j in covers:
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
