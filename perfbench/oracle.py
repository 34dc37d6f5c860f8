"""Known answers and independent checks for the benchmark's outputs.

Nothing here imports primspec.  Ring answers are written down from ring
theory; the symbolic answers are checked with this module's own integer
arithmetic.  Each check returns a list of mismatch descriptions, empty when
the output is right.
"""

from __future__ import annotations

import json
from math import gcd

# spec -> (elements, ideals, |Prim|, |Spec|, is_local, is_p_ring)
#
# Zn(n): ideals are (d) for d | n, so there are d(n) of them.  The primary
#   ideals are (p^k) for p^k | n, k >= 1, so |Prim| = Omega(n), and the primes
#   are the (p), so |Spec| = omega(n).  Zn(n) is local iff n is a prime power,
#   and a P-ring (every primary ideal maximal) iff n is squarefree.
# Galois rings GR(p^s, r) = Quot(Zn(p^s), h), h irreducible mod p, are chain
#   rings (p^0) > (p) > ... > (p^s) = 0: s + 1 ideals, s of them primary, one
#   prime.  Fields have the two ideals 0 and R.
# Quot(Zn(4), x^k) is local Artinian with maximal ideal (2, x), so every
#   proper ideal is primary; it has 7 ideals for k = 2 and 13 for k = 3.
# A product R1 x R2 has the ideals I1 x I2, and its primary (prime) ideals are
#   Q x R2 and R1 x Q for Q primary (prime) in one factor, so the counts
#   multiply for ideals and add for Prim and Spec.  A product of two nonzero
#   rings is never local; it is a P-ring iff both factors are.
RING_FACTS: dict[str, tuple[int, int, int, int, bool, bool]] = {
    # large-rings
    "Zn(64)": (64, 7, 6, 1, True, False),
    "Zn(72)": (72, 12, 5, 2, False, False),
    "Zn(81)": (81, 5, 4, 1, True, False),
    "Zn(125)": (125, 4, 3, 1, True, False),
    "Zn(128)": (128, 8, 7, 1, True, False),
    "Quot(Zn(8), x^2+x+1)": (64, 4, 3, 1, True, False),
    "Quot(Zn(4), x^3+x+1)": (64, 3, 2, 1, True, False),
    "Quot(Zn(9), x^2+1)": (81, 3, 2, 1, True, False),
    "GF(2^6)": (64, 2, 1, 1, True, True),
    "GF(3^4)": (81, 2, 1, 1, True, True),
    # ideal-rich
    "Prod(GF(2), Prod(GF(2), Prod(GF(2), Prod(GF(2), GF(2)))))": (32, 32, 5, 5, False, True),
    "Prod(Zn(4), Prod(GF(2), Prod(GF(2), GF(2))))": (32, 24, 5, 4, False, False),
    "Prod(Zn(6), Zn(6))": (36, 16, 4, 4, False, True),
    "Prod(Zn(8), Prod(GF(2), GF(2)))": (32, 16, 5, 3, False, False),
    "Prod(Zn(12), Zn(4))": (48, 18, 5, 3, False, False),
    "Prod(Zn(4), Prod(Zn(4), Zn(4)))": (64, 27, 6, 3, False, False),
    "Quot(Zn(4), x^3)": (64, 13, 12, 1, True, False),
    "Prod(Quot(Zn(4), x^2), GF(2))": (32, 14, 7, 2, False, False),
}


def check_export(spec: str, rc, path) -> tuple[list[str], dict]:
    """Mismatches of one ``export`` run against RING_FACTS, plus the sizes
    the trace reports (ideals, Prim points, Prim closed sets)."""
    if rc != 0:
        return [f"{spec}: exit code {rc!r}"], {}
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    cls = report["classification"]
    got = (
        report["elements"],
        len(report["ideals"]),
        len(report["prim"]["points"]),
        len(report["prime_spectrum"]["points"]),
        cls["is_local"],
        cls["is_p_ring"],
    )
    errors = []
    if got != RING_FACTS[spec]:
        errors.append(f"{spec}: got {got}, expected {RING_FACTS[spec]}")
    errors += [
        f"{spec}: theorem {t['id']} failed: {t['witness']}"
        for t in report["theorems"]
        if not t["pass"]
    ]
    sizes = {
        "ideals.lattice_size": len(report["ideals"]),
        "spectra.prim_points": len(report["prim"]["points"]),
        "spectra.closed_sets": len(report["prim"]["closed_sets"]),
    }
    return errors, sizes


# -- integers -------------------------------------------------------------

# Deterministic for n < 2^64 (Sinclair's bases); a different base set from
# the program's own Miller-Rabin, so the two do not share a blind spot.
_SPRP_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SPRP_BASES:
        a %= n
        if a == 0:
            continue
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


def check_prime_divisors(n: int, primes) -> list[str]:
    """``primes`` must be exactly the distinct prime divisors of n: each one
    prime, and dividing every one of them out of |n| as often as it goes
    (its exact exponent) must leave 1."""
    primes = list(primes)
    errors = [f"{n}: {p} is not prime" for p in primes if not is_prime(p)]
    if len(set(primes)) != len(primes):
        errors.append(f"{n}: repeated primes {primes}")
    rest = abs(n)
    for p in set(primes):
        if p < 2 or rest % p:
            errors.append(f"{n}: {p} does not divide it")
            continue
        while rest % p == 0:
            rest //= p
    if rest != 1:
        errors.append(f"{n}: primes {sorted(primes)} leave cofactor {rest}")
    return errors


def check_certificate(r: int, s_values, cert) -> list[str]:
    """Recompute r^e = sum(c_i * delta_i) with delta drawn from s_values."""
    errors = []
    if cert.r != r or cert.exponent < 1:
        errors.append(f"subcover of {r}: bad header r={cert.r} e={cert.exponent}")
    if not cert.delta or any(d not in s_values or d == 0 for d in cert.delta):
        errors.append(f"subcover of {r}: delta {cert.delta} not drawn from {s_values}")
    if len(cert.coefficients) != len(cert.delta):
        errors.append(f"subcover of {r}: {len(cert.coefficients)} coefficients")
    combo = sum(c * d for c, d in zip(cert.coefficients, cert.delta))
    if r**cert.exponent != combo:
        errors.append(f"subcover of {r}: {r}^{cert.exponent} != {combo}")
    return errors


def covers(r: int, s_values) -> bool:
    """Every prime of gcd(s_values) divides r (g < 2^30, so exponents <= 30)."""
    g = 0
    for s in s_values:
        g = gcd(g, s)
    return g == 1 or pow(r, 32, g) == 0
