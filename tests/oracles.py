"""Slow oracles shared by several test modules."""

import functools
import itertools
from math import gcd, isqrt

from primspec.classify import AConditionsResult, _first_failing_fold
from primspec.ideals import _cosets, _sum_mask, iter_bits, mask_of
from primspec.rings import (
    FiniteRing,
    GFSpec,
    ProdSpec,
    QuotSpec,
    ZnSpec,
    _poly_element_name,
    find_irreducible_poly,
    prime_power,
    spec_characteristic,
    spec_size,
)
from primspec.zsymbolic import (
    NotACoverError,
    SubcoverCertificate,
    _bezout_chain,
    _pollard_rho,
)


def _principal_mask(ring: FiniteRing, g: int) -> int:
    """The principal ideal R*g, which is closed under + because R has 1;
    R is commutative, so it is the set of entries of the row mul[g]."""
    mask = 0
    for x in set(ring.mul[g]):
        mask |= 1 << x
    return mask


def canonical_key_by_members(mask: int) -> tuple[int, tuple[int, ...]]:
    """The canonical order of bit-sets, spelled out: cardinality, then the
    sorted member tuple."""
    return mask.bit_count(), tuple(iter_bits(mask))


def radical_mask_by_elements(ring: FiniteRing, mask: int) -> int:
    """rad(I), one top-power test per element: the x whose top power x^N
    (``FiniteRing.top_powers``) is in I."""
    out = 0
    for x, t in enumerate(ring.top_powers):
        if (mask >> t) & 1:
            out |= 1 << x
    return out


def primary_flags_by_coset_scan(ring: FiniteRing, masks: list[int], rads: list[int]) -> list[bool]:
    """Whether each ideal of ``masks``, with its radical in ``rads``, is
    primary: proper, and no pair of coset representatives r, s of R/Q, both
    in cosets of non-units, has rs in Q with s outside rad(Q).  Every
    representative is gathered before any pair is tested, and every pair
    is tested."""
    full, one = (1 << ring.size) - 1, ring.one_index
    non_units = mask_of(x for x, row in enumerate(ring.mul) if one not in row)
    flags = []
    for mask, rad in zip(masks, rads):
        reps = [y for y, coset in _cosets(ring, mask, non_units) if coset & ~non_units == 0]
        outside_rad = [s for s in reps if not (rad >> s) & 1]
        flags.append(
            mask != full
            and not any((mask >> ring.mul[r][s]) & 1 for r in reps for s in outside_rad)
        )
    return flags


def variety_by_points(spectrum, element_mask: int) -> int:
    """The points whose radical holds ``element_mask``, one subset test per
    point (a prime is its own radical, so this serves both spectrum kinds)."""
    lattice = spectrum.lattice
    out = 0
    for pos, q in enumerate(spectrum.points):
        if element_mask & ~lattice.mask(lattice.radical_ids[q]) == 0:
            out |= 1 << pos
    return out


def ideal_generated_by(ring: FiniteRing, gens) -> int:
    """Mask of the smallest ideal containing ``gens`` (element indices)."""
    mask = 1  # zero ideal
    for g in gens:
        if not (mask >> g) & 1:
            mask = _sum_mask(ring, mask, _principal_mask(ring, g))
    return mask


def power(ring: FiniteRing, a: int, exp: int) -> int:
    """a**exp for exp >= 1, by exp - 1 lookups in the product table."""
    result = a
    for _ in range(exp - 1):
        result = ring.mul[result][a]
    return result


def variety_of_elements(spectrum, elements) -> int:
    """V(S) = {Q : S inside rad(Q)} as a point mask, from the definition
    (a prime is its own radical, so this serves both spectrum kinds)."""
    lattice = spectrum.lattice
    out = 0
    for pos, q in enumerate(spectrum.points):
        radical = lattice.mask(lattice.radical_ids[q])
        if all(radical >> s & 1 for s in elements):
            out |= 1 << pos
    return out


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


def a2_by_mode(lattice, family: list[int], mode: str):
    """Slow reference for ``classify.a_conditions``: A1 and A2 in one named
    form, each by its own route.

    ``A2_original``: every element admits one exponent n with a^n in I for
    every family member I whose radical contains a.  ``A2_radical_form``:
    the radical of the intersection is the intersection of the radicals on
    every subfamily, folded exhaustively; a failure names a smallest one.
    """
    if not family:
        raise ValueError("family must be nonempty")
    ring = lattice.ring
    full = (1 << ring.size) - 1
    meet = full
    for i in family:
        meet &= lattice.masks[i]
    a1 = meet == 1
    if mode == "A2_original":
        # once a^n lands in an ideal all later powers stay, so a uniform
        # exponent exists exactly when a per-ideal exponent exists for
        # every family member whose radical contains a
        top = ring.top_powers
        for a in range(ring.size):
            for i in family:
                imask = lattice.masks[i]
                if not (imask >> top[a]) & 1:
                    continue  # a outside the radical of I
                cur = a
                seen = set()
                while not (imask >> cur) & 1:
                    seen.add(cur)
                    cur = ring.mul[cur][a]
                    if cur in seen:
                        return AConditionsResult(
                            a1,
                            False,
                            f"element {ring.element_names[a]} in the radical of "
                            f"{lattice.render(i)} with no power inside",
                        )
        return AConditionsResult(a1, True, None)
    if mode == "A2_radical_form":
        rad = [lattice.mask(r) for r in lattice.radical_ids]
        gamma = _first_failing_fold(
            (full, full),
            sorted(family, reverse=True),
            lambda s, i: (s[0] & lattice.masks[i], s[1] & rad[i]),
            lambda s: rad[lattice.id_of(s[0])] == s[1],
        )
        if gamma is None:
            return AConditionsResult(a1, True, None)
        shown = ", ".join(lattice.render(i) for i in sorted(gamma, key=family.index))
        return AConditionsResult(a1, False, f"radical/intersection mismatch on {{{shown}}}")
    raise ValueError(f"unknown A2 mode {mode!r}")


def is_irreducible_by_relative_scan(t, subset: int | None = None):
    """Slow oracle: irreducibility of a subspace (default: the whole space)
    from its relative closed family, rebuilt and sorted canonically; the
    witness is the first pair of proper members covering the subspace."""
    space = t.full if subset is None else subset
    if not space:
        return False, None
    relative = sorted({c & space for c in t.closed_sets}, key=canonical_key_by_members)
    proper = [c for c in relative if c != space]
    for i, a in enumerate(proper):
        for b in proper[i + 1 :]:
            if a | b == space:
                return False, (a, b)
    return True, None


def is_spectral(t, base) -> bool:
    """Slow oracle: the definition of a spectral space, for a finite space
    ``t`` and a candidate ``base``.  Every finite space and every open of it
    is quasi-compact, so it asks for sobriety (each irreducible closed set,
    by the relative scan, is the closure of exactly one point, by a scan of
    the closed family) and for ``base`` to be a family of opens closed under
    pairwise intersection whose unions give every open."""
    closures = [
        t.closed_sets[least_superset(t.closed_sets, 1 << x)] for x in range(t.point_count)
    ]
    for c in t.closed_sets:
        if is_irreducible_by_relative_scan(t, c)[0] and closures.count(c) != 1:
            return False
    opens = set(t.opens)
    family = set(base)
    if not family <= opens or any(a & b not in family for a in family for b in family):
        return False

    def union_inside(u):
        return functools.reduce(int.__or__, (b for b in family if b & ~u == 0), 0)

    return all(union_inside(u) == u for u in opens)


def passes_strong_test(n: int, bases) -> bool:
    """Odd n > 1 coprime to each base is a strong probable prime to all of
    ``bases``."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
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


def is_prime_by_all_bases(n: int) -> bool:
    """Miller-Rabin to all of the first 13 prime bases, whatever the size of
    n: exact below psi_13 = 3317044064679887385961981 (about 3.3e24)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    return passes_strong_test(n, bases)


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
        if is_prime_by_all_bases(m):
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


def zn_tables_by_entry(n: int):
    """Slow oracle for the Z/n tables: every entry reduced mod n."""
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    neg = [(-i) % n for i in range(n)]
    return add, mul, neg


def by_rows_by_entry(left_table: list[list[int]], right_table: list[list[int]], rs: int):
    """Slow oracle for a product-ring table, the pair (i, j) having index
    i * rs + j: every entry left[i][k] * rs + right[j][m] computed on its
    own."""
    out = []
    for left_row in left_table:
        shifted = [x * rs for x in left_row]
        out += [[a + b for a in shifted for b in right_row] for right_row in right_table]
    return out


def polynomial_quotient(base, modulus, var, label):
    """Slow oracle for the quotient builder: every product multiplied out as
    a polynomial and reduced by the modulus, n^2 times."""
    deg = len(modulus) - 1
    b = base.size
    size = b**deg
    coeffs_of = []
    for idx in range(size):
        c, i = [], idx
        for _ in range(deg):
            c.append(i % b)
            i //= b
        coeffs_of.append(c)

    def encode(coeffs):
        idx = 0
        for pos in range(deg - 1, -1, -1):
            idx = idx * b + coeffs[pos]
        return idx

    badd, bmul, bneg = base.add, base.mul, base.neg

    def reduce(prod):
        for e in range(len(prod) - 1, deg - 1, -1):
            c = prod[e]
            if c:
                prod[e] = 0
                shift = e - deg
                for j in range(deg):
                    mc = modulus[j]
                    if mc:
                        prod[shift + j] = badd[prod[shift + j]][bneg[bmul[c][mc]]]
        return prod[:deg]

    add = [
        [encode([badd[x][y] for x, y in zip(ca, coeffs_of[j])]) for j in range(size)]
        for ca in coeffs_of
    ]
    neg = [encode([bneg[x] for x in c]) for c in coeffs_of]
    mul = []
    for ca in coeffs_of:
        row = []
        for j in range(size):
            cb = coeffs_of[j]
            prod = [0] * (2 * deg - 1)
            for i, ci in enumerate(ca):
                if ci:
                    for k, cj in enumerate(cb):
                        if cj:
                            prod[i + k] = badd[prod[i + k]][bmul[ci][cj]]
            row.append(encode(reduce(prod)))
        mul.append(row)
    one = encode([base.one_index] + [0] * (deg - 1))
    names = [_poly_element_name(c, base.element_names, var) for c in coeffs_of]
    return FiniteRing(size, add, mul, neg, one, label, names)


def oracle_ring(spec) -> FiniteRing:
    """The ring ``build_ring`` makes from ``spec``, from the slow builders
    alone: ``zn_tables_by_entry`` for Zn and prime fields,
    ``polynomial_quotient`` for GF and Quot (over the same modulus that
    ``build_ring`` picks) and ``by_rows_by_entry`` for Prod."""
    label = str(spec)
    if isinstance(spec, ZnSpec) or (isinstance(spec, GFSpec) and spec.k == 1):
        n = spec_size(spec)
        add, mul, neg = zn_tables_by_entry(n)
        return FiniteRing(n, add, mul, neg, 1, label, [str(i) for i in range(n)])
    if isinstance(spec, GFSpec):
        base = oracle_ring(ZnSpec(spec.p))
        return polynomial_quotient(base, find_irreducible_poly(spec.p, spec.k), "a", label)
    if isinstance(spec, QuotSpec):
        return polynomial_quotient(oracle_ring(spec.base), spec.modulus, "x", label)
    left, right = oracle_ring(spec.left), oracle_ring(spec.right)
    rs = right.size
    add = by_rows_by_entry(left.add, right.add, rs)
    mul = by_rows_by_entry(left.mul, right.mul, rs)
    neg = [x * rs + y for x in left.neg for y in right.neg]
    one = left.one_index * rs + right.one_index
    names = [f"({a},{b})" for a in left.element_names for b in right.element_names]
    return FiniteRing(left.size * rs, add, mul, neg, one, label, names)


def every_spec(limit: int) -> list:
    """Every ring spec of at most ``limit`` elements of these kinds, in a
    fixed order with no randomness:

    - every ``Zn(n)`` and ``GF(q)``;
    - every ``Quot(base, poly)`` over a Zn or GF base with a monic ``poly``
      of degree at least 1, its lower coefficients the integers
      0, ..., char - 1 that a spec string can write;
    - every ``Prod(left, right)`` whose factors are Zn, GF or Prod specs
      from this list, nested to any depth."""
    fields = [GFSpec(*prime_power(q)) for q in range(2, limit + 1) if prime_power(q)]
    atoms = [ZnSpec(n) for n in range(2, limit + 1)] + fields
    quotients = []
    for base in atoms:
        b, char = spec_size(base), spec_characteristic(base)
        deg = 1
        while b**deg <= limit:
            quotients += [
                QuotSpec(base, tail + (1,))
                for tail in itertools.product(range(char), repeat=deg)
            ]
            deg += 1
    factors: dict[int, list] = {}
    for spec in atoms:
        factors.setdefault(spec_size(spec), []).append(spec)
    products = []
    for size in range(4, limit + 1):
        made = [
            ProdSpec(left, right)
            for ls in range(2, size // 2 + 1)
            if size % ls == 0
            for left in factors.get(ls, [])
            for right in factors.get(size // ls, [])
        ]
        factors.setdefault(size, []).extend(made)
        products += made
    return atoms + quotients + products
