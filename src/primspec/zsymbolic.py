"""Exact symbolic primary spectra of Z and Z x Z.

Primary ideals of Z are the zero ideal and the prime-power ideals (p^k);
the variety of a nonzero n is the union of full power families
{(p^k) : k >= 1} over the distinct prime divisors p of n.  Everything here
is exact integer arithmetic; certificates are re-verified before they are
returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, k): psi_k is the least strong pseudoprime to the first k prime
# bases, so those k bases decide primality below it.  psi_8 = psi_7 and
# psi_10 = psi_11 = psi_9, so 8, 10 and 11 bases never help; all 13 bases
# are exact below psi_13 = 3317044064679887385961981 (about 3.3e24).
_MR_ROWS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
)
# psi_13: from here on a number that passes all 13 bases may be composite
MR_EXACT_BELOW = 3317044064679887385961981
# the 54 primes below 256, which factorize divides out before rho
_TRIAL_PRIMES = tuple(p for p in range(2, 256) if all(p % q for q in range(2, isqrt(p) + 1)))


class NotACoverError(ValueError):
    """The named basic opens do not cover the target basic open."""

    def __init__(self, message: str, uncovered_prime: int | None = None):
        super().__init__(message)
        self.uncovered_prime = uncovered_prime


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the fewest of the first 13 prime bases proven exact
    for n (one base below 2047, four below 3.2e9, all 13 from psi_12 on):
    exact below 3.3e24, so for every 64-bit input."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    count = next((k for psi, k in _MR_ROWS if n < psi), len(_MR_BASES))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:count]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Sorted prime factorization of |n| for nonzero |n| < 2^64: trial
    division by the primes below 256 until p^2 exceeds what is left, then
    Miller-Rabin, a square test and Brent's rho on the rest.  Rho runs only
    on a cofactor with no prime factor below 256, and its cost follows that
    cofactor's smallest prime factor."""
    if n == 0:
        raise ValueError("zero has no prime factorization")
    n = abs(n)
    if n.bit_length() > 64:
        raise ValueError("input exceeds 64 bits")
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
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


# ---------------------------------------------------------------------------
# Primary ideals and varieties of Z


@dataclass(frozen=True)
class ZPrimaryIdeal:
    """The zero ideal (p=None) or the prime-power ideal (p^k)."""

    p: int | None
    k: int = 0

    def __post_init__(self):
        if self.p is not None:
            if self.p.bit_length() > 64:
                raise ValueError("prime exceeds 64 bits")
            if not is_probable_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
            if self.k < 1:
                raise ValueError("exponent must be at least 1")

    @property
    def is_zero(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return f"({self.p})" if self.k == 1 else f"({self.p}^{self.k})"


ZERO_IDEAL = ZPrimaryIdeal(None)


@dataclass(frozen=True)
class ZVariety:
    """Either all of Prim(Z), or a finite union of prime power families
    {(p^k) : k >= 1} with an optional zero ideal."""

    all_points: bool = False
    families: frozenset[int] = frozenset()
    includes_zero: bool = False

    def __str__(self) -> str:
        if self.all_points:
            return "Prim(Z)"
        parts = [f"{{({p}^k): k≥1}}" for p in sorted(self.families)]
        if self.includes_zero:
            parts.append("{(0)}")
        return " ∪ ".join(parts) if parts else "∅"

    def contains(self, q: ZPrimaryIdeal) -> bool:
        if self.all_points:
            return True
        if q.is_zero:
            return self.includes_zero
        return q.p in self.families

    def union(self, other: ZVariety) -> ZVariety:
        if self.all_points or other.all_points:
            return ZVariety(all_points=True)
        return ZVariety(
            families=self.families | other.families,
            includes_zero=self.includes_zero or other.includes_zero,
        )


def v_rad_z(n: int) -> ZVariety:
    """Variety of the principal ideal (n) in Prim(Z)."""
    if n == 0:
        return ZVariety(all_points=True)
    if abs(n) == 1:
        return ZVariety()
    return ZVariety(families=frozenset(p for p, _ in factorize(n)))


def v_z(n: int) -> list[int] | None:
    """Classical prime variety of (n): the prime divisors; None means all of
    Spec(Z) (n = 0)."""
    if n == 0:
        return None
    if abs(n) == 1:
        return []
    return [p for p, _ in factorize(n)]


def closure_z(q: ZPrimaryIdeal) -> ZVariety:
    """Topological closure of one point of Prim(Z)."""
    if q.is_zero:
        return ZVariety(all_points=True)
    return ZVariety(families=frozenset({q.p}))


def closure_equal_z(q1: ZPrimaryIdeal, q2: ZPrimaryIdeal) -> bool:
    return closure_z(q1) == closure_z(q2)


# ---------------------------------------------------------------------------
# Finite subcovers with Bezout certificates


@dataclass(frozen=True)
class SubcoverCertificate:
    """Witness that the basic open of r is covered by finitely many of the
    basic opens of S: r**exponent equals the integer combination
    sum(coefficients[i] * delta[i])."""

    r: int
    delta: tuple[int, ...]
    exponent: int
    coefficients: tuple[int, ...]

    def verify(self) -> bool:
        return self.r**self.exponent == sum(
            c * s for c, s in zip(self.coefficients, self.delta)
        )

    def __str__(self) -> str:
        combo = " + ".join(
            f"{c}*{s}" for c, s in zip(self.coefficients, self.delta)
        )
        return f"{self.r}^{self.exponent} = {combo}"


def _bezout_chain(values: list[int]) -> tuple[int, list[int]]:
    """gcd of ``values`` plus coefficients expressing it as their combination."""
    g, coeffs = values[0], [1]
    for v in values[1:]:
        new_g, a, b = _ext_gcd(g, v)
        coeffs = [a * c for c in coeffs] + [b]
        g = new_g
    return g, coeffs


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _strip(v: int, r: int) -> int:
    """|v| with every prime dividing r divided out: 1 exactly when every
    prime of v divides r."""
    v = abs(v)
    while (d := gcd(v, r)) != 1:
        v //= d
    return v


def extract_finite_subcover_z(r: int, s_values: list[int]) -> SubcoverCertificate:
    """Finite subcover of the basic open X_r from the basic opens of s_values.

    Requires X_r to be covered, i.e. every prime dividing gcd(s_values)
    must divide r; otherwise NotACoverError carries an uncovered prime
    family.  The certificate is re-verified in exact arithmetic.  Only r
    is factored; coverage is decided by stripping gcds with r.
    """
    if r == 0:
        raise ValueError("r must be nonzero")
    nonzero = [s for s in s_values if s != 0]
    r_factors = factorize(r)
    if not nonzero:
        raise NotACoverError(
            "no nonzero covering elements: the zero ideal stays uncovered"
        )
    left = _strip(gcd(*nonzero), r)
    if left != 1:
        p = factorize(left)[0][0]
        raise NotACoverError(
            f"power family of {p} lies in X_{r} but in no X_s",
            uncovered_prime=p,
        )
    delta: list[int] = []
    g_d = 0
    for s in nonzero:
        delta.append(s)
        g_d = gcd(g_d, s)
        if _strip(g_d, r) == 1:
            break
    i = 0
    while i < len(delta):
        rest = delta[:i] + delta[i + 1 :]
        if rest and _strip(gcd(*rest), r) == 1:
            delta = rest
            continue
        i += 1
    g_d, coeffs = _bezout_chain(delta)
    exponent = 1
    for p, e in r_factors:
        k, v = 0, g_d
        while v % p == 0:
            v //= p
            k += 1
        exponent = max(exponent, -(-k // e))
    power = r**exponent
    scale = power // g_d
    cert = SubcoverCertificate(
        r=r,
        delta=tuple(delta),
        exponent=exponent,
        coefficients=tuple(scale * c for c in coeffs),
    )
    if not cert.verify():
        raise AssertionError(f"certificate failed to verify: {cert}")
    return cert


# ---------------------------------------------------------------------------
# Uniform-exponent failure for Z


@dataclass(frozen=True)
class A2FailureWitness:
    """The family {(p^k) : k >= 1} separates the radical of the intersection
    from the intersection of the radicals."""

    p: int
    radical_of_intersection: ZPrimaryIdeal
    intersection_of_radicals: ZPrimaryIdeal

    @property
    def sides_equal(self) -> bool:
        return self.radical_of_intersection == self.intersection_of_radicals

    def __str__(self) -> str:
        return (
            f"radical of intersection of {{({self.p}^k)}} is "
            f"{self.radical_of_intersection}; intersection of radicals is "
            f"{self.intersection_of_radicals}"
        )


def a2_failure_witness_z(p: int) -> A2FailureWitness:
    """Certify that the full power family of p violates the
    radical/intersection exchange: any nonzero m lies outside (p^(v+1)) for
    v the p-adic valuation of m, so the intersection of all (p^k) is (0).
    Raises ValueError unless p is a prime of at most 64 bits."""
    return A2FailureWitness(
        p=p,
        radical_of_intersection=ZERO_IDEAL,
        intersection_of_radicals=ZPrimaryIdeal(p, 1),
    )


# ---------------------------------------------------------------------------
# Z x Z


@dataclass(frozen=True)
class ZxZPrimaryIdeal:
    """(p^k) x Z or Z x (p^k); the zero inner ideal gives (0) x Z / Z x (0),
    which are prime (hence primary) but absent from the usual power-family
    enumeration -- they are carried behind this explicit representation."""

    side: str  # "left" | "right"
    inner: ZPrimaryIdeal

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")

    def __str__(self) -> str:
        return f"{self.inner}×Z" if self.side == "left" else f"Z×{self.inner}"


@dataclass(frozen=True)
class ZxZClosure:
    """Closure of one point of Prim(Z x Z): the full power family of one
    prime on one side, or (for a zero inner ideal) that whole side."""

    side: str
    p: int | None  # None: closure of the zero-inner point, the whole side

    def __str__(self) -> str:
        def wrap(ideal: str) -> str:
            return f"{ideal}×Z" if self.side == "left" else f"Z×{ideal}"

        if self.p is None:
            return (
                "{" + wrap("(q^n)") + ": q prime, n≥1} ∪ "
                "{" + wrap("(0)") + "}"
            )
        return "{" + wrap(f"({self.p}^n)") + ": n≥1}"


def prim_zxz_closure(q: ZxZPrimaryIdeal) -> ZxZClosure:
    """Closure of a point of Prim(Z x Z); stays on the point's side."""
    if q.inner.is_zero:
        return ZxZClosure(q.side, None)
    return ZxZClosure(q.side, q.inner.p)


def closure_equal_zxz(q1: ZxZPrimaryIdeal, q2: ZxZPrimaryIdeal) -> bool:
    return prim_zxz_closure(q1) == prim_zxz_closure(q2)
