"""Ring-level predicates and the property-verification suite.

``analyze_ring`` bundles ring and ideal lattice, built at once, with both
spectra, the classification record and the W-ring verdict, each built on
first read;
``verify_theorems`` evaluates every checked law on that bundle, reporting
each biconditional with both sides computed independently.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

from .ideals import (
    DEFAULT_IDEAL_CAP,
    IdealLattice,
    enumerate_ideals,
    iter_bits,
    mask_of,
)
from .rings import (
    DEFAULT_ELEMENT_CAP,
    FiniteRing,
    RingSpecExpr,
    build_ring,
    parse_ring_spec,
    unit_and_nilpotent_flags,
)
from .records import record
from .spectra import Spectrum
from .topology import is_irreducible


class RingClassification(
    record(
        "RingClassification",
        "is_field is_local is_zero_dimensional is_p_ring krull_dimension"
        " maximal_ideals prime_ideals primary_ideals",
    )
):
    """Ring-level flags, the Krull dimension, and the maximal, prime and
    primary ideal ids as lists."""

    __slots__ = ()


def classify_ring(lattice: IdealLattice) -> RingClassification:
    """Field/local/zero-dimensional/P-ring flags plus ideal id lists, all
    read off the lattice's flags; the W-ring verdict is ``is_w_ring``."""
    primes = [i for i in range(len(lattice)) if lattice.prime[i]]
    maximals = [i for i in range(len(lattice)) if lattice.maximal[i]]
    primaries = [i for i in range(len(lattice)) if lattice.primary[i]]
    return RingClassification(
        is_field=len(lattice) == 2,
        is_local=len(maximals) == 1,
        is_zero_dimensional=all(lattice.maximal[i] for i in primes),
        is_p_ring=all(lattice.maximal[i] for i in primaries),
        krull_dimension=_krull_dimension(lattice, primes),
        maximal_ideals=maximals,
        prime_ideals=primes,
        primary_ideals=primaries,
    )


def _krull_dimension(lattice: IdealLattice, primes: list[int]) -> int:
    longest = {p: 0 for p in primes}
    for p in sorted(primes, key=lambda i: lattice.mask(i).bit_count(), reverse=True):
        for q in primes:
            if q != p and lattice.contains_ideal(p, q):
                longest[p] = max(longest[p], longest[q] + 1)
    return max(longest.values(), default=0)


def is_w_ring(lattice: IdealLattice) -> tuple[bool, str | None]:
    """Does every proper ideal have exactly one irredundant representation
    as an intersection of primary ideals?

    For an ideal I and each x outside it, let E_x be the set of primaries
    above I that miss x.  A family of primaries above I meets to I exactly
    when it hits every E_x, and is irredundant exactly when it is a minimal
    such hitting set.  So (Berge: Tr(Tr(H)) = min H) the representation is
    unique exactly when every E_x holds a one-member E_y.  The unit ideal
    has no E_x and passes as the empty intersection.  A failure names the
    first failing ideal and two of its representations, if it has any.
    """
    primaries = [i for i in range(len(lattice)) if lattice.primary[i]]
    masks = [lattice.mask(q) for q in primaries]
    # the elements grouped by the primaries they miss, one split per primary
    members = {0: (1 << lattice.ring.size) - 1}
    for k, q in enumerate(masks):
        members = {
            missing | bit: part
            for missing, xs in members.items()
            for bit, part in ((0, xs & q), (1 << k, xs & ~q))
            if part
        }
    for ideal_id in range(len(lattice)):
        mask = lattice.mask(ideal_id)
        above = mask_of(k for k, q in enumerate(masks) if mask & ~q == 0)
        edges = {missing & above for missing, xs in members.items() if xs & ~mask}
        # the one-member edges are distinct bits, so their sum is their union
        forced = sum(e for e in edges if e & (e - 1) == 0)
        failing = [e for e in edges if not e & forced]
        if not failing:
            continue
        # a smallest failing E is a minimal edge, so each member v of it
        # extends the members outside E to a hitting set that meets E in v
        smallest = min(failing, key=lambda e: (e.bit_count(), e))
        reps = []
        for v in list(iter_bits(smallest))[:2]:
            rep = above & ~smallest | 1 << v
            for k in iter_bits(rep):
                if all(e & rep & ~(1 << k) for e in edges):
                    rep &= ~(1 << k)
            reps.append("{" + ", ".join(lattice.render(primaries[k]) for k in iter_bits(rep)) + "}")
        name = lattice.render(ideal_id)
        if not reps:
            return False, f"ideal {name} has no irredundant representation"
        shown = " and ".join(reps)
        return False, f"ideal {name} has more than one irredundant representation: {shown}"
    return True, None


def star_condition(
    lattice: IdealLattice, spectrum: Spectrum
) -> tuple[bool, str | None]:
    """Single-member covering property of the basic opens.

    For each nonunit r with a nonempty basic open X_r, the only candidate
    violating family is F(r) = {nonzero s : X_s does not contain X_r}; the
    property fails exactly when the union of F(r)'s basic opens covers X_r.
    Units have X_r equal to the whole space and are skipped.

    F(r) and its union depend on X_r alone, so each distinct X_r is tested
    once, in first-occurrence order, against the distinct X_s, s nonzero; a
    failing X_r names its first element r and the members of F(r).
    """
    ring = lattice.ring
    opens = spectrum.basic_opens
    full = spectrum.full
    others = list(dict.fromkeys(opens[1:]))
    for xr in dict.fromkeys(opens):
        if not xr or xr == full:
            continue
        union = 0
        for v in others:
            if xr & ~v:
                union |= v
        if xr & ~union == 0:
            r = opens.index(xr)
            names = ring.element_names
            shown = [names[s] for s in range(1, ring.size) if xr & ~opens[s] and opens[s]]
            return False, f"X_{names[r]} covered by basic opens of {shown}"
    return True, None


class AConditionsResult(record("AConditionsResult", "a1 a2 witness")):
    """A1 and A2 verdicts; the witness names a failing subfamily, or is None."""

    __slots__ = ()


def _first_failing_fold(start, members, step, holds):
    """Members of a smallest subfamily whose folded state breaks ``holds``,
    or None.  ``step`` must be idempotent and order-free, so a member whose
    own state is some state(F0) already reached moves each state(F) to the
    reached state(F + F0) and is skipped, as in ``enumerate_ideals``.  Only
    a failure is named, by a breadth-first walk over every member."""
    states = {start}
    for m in members:
        if step(start, m) not in states:
            states |= {step(s, m) for s in states}
    if all(map(holds, states)):
        return None
    paths = {start: ()}
    queue = [start]
    for state in queue:
        if not holds(state):
            return paths[state]
        for m in members:
            new = step(state, m)
            if new not in paths:
                paths[new] = paths[state] + (m,)
                queue.append(new)
    return None


def a_conditions(lattice: IdealLattice, family: list[int]) -> AConditionsResult:
    """A1 (the family meets in zero) and A2, decided in both its forms.

    A2 asks for one exponent n per element a with a^n in every member whose
    radical holds a; its radical form asks that the radical of the meet be
    the meet of the radicals, on every subfamily.  Once a^n lands in an
    ideal all later powers stay, so a uniform exponent exists exactly when
    each member passes alone: every a in its radical has a power inside,
    found by walking a's powers in ``ring.mul``.  Every subfamily is then
    folded as (meet, meet of radicals, every member passes the walk), and
    A2 holds exactly when the two forms agree on every state.  A singleton
    {i} agrees exactly when i passes the walk, since the radical of i's
    mask is rad(i); once every member passes, the fold agrees exactly where
    the radical form holds.  So ``a2`` is true exactly when both forms hold
    on every subfamily, and a failure names a smallest subfamily where they
    disagree, in family order.
    """
    if not family:
        raise ValueError("family must be nonempty")
    ring = lattice.ring
    masks = lattice.masks
    full = (1 << ring.size) - 1
    meet = full
    for i in family:
        meet &= masks[i]
    top = ring.top_powers

    def powers_land(imask):
        for a in range(ring.size):
            if not (imask >> top[a]) & 1:
                continue  # a outside the radical of I
            cur = a
            seen = set()
            while not (imask >> cur) & 1:
                seen.add(cur)
                cur = ring.mul[cur][a]
                if cur in seen:
                    return False
        return True

    walk = {i: powers_land(masks[i]) for i in family}
    rad = [lattice.mask(r) for r in lattice.radical_ids]
    gamma = _first_failing_fold(
        (full, full, True),
        sorted(family, reverse=True),
        lambda st, i: (st[0] & masks[i], st[1] & rad[i], st[2] and walk[i]),
        lambda st: st[2] == (rad[lattice.id_of(st[0])] == st[1]),
    )
    if gamma is None:
        return AConditionsResult(meet == 1, True, None)
    shown = ", ".join(lattice.render(i) for i in sorted(gamma, key=family.index))
    return AConditionsResult(meet == 1, False, f"{{{shown}}} disagrees")


def closure_identity_check(spectrum: Spectrum) -> tuple[bool, str | None]:
    """closure(Y) == variety(xi(Y)) for every set Y of points, folded over
    the (closure, xi mask) pairs, at most |closed sets| * |ideals| of them.
    The closure side comes from the closed family alone (closure(Y + p) =
    closure(Y) + closure(p)), the other from the lattice, so the two are
    computed independently.  A failure names a smallest failing Y.
    """
    lattice = spectrum.lattice
    masks = [lattice.mask(i) for i in spectrum.points]
    point_closures = spectrum.point_closures
    y = _first_failing_fold(
        (0, (1 << lattice.ring.size) - 1),
        range(len(masks)),
        lambda s, pos: (s[0] | point_closures[pos], s[1] & masks[pos]),
        lambda s: s[0] == spectrum.variety(lattice.id_of(s[1])),
    )
    return (True, None) if y is None else (False, spectrum.render_point_set(mask_of(y)))


# ---------------------------------------------------------------------------
# Analysis bundle and the verification suite


class RingAnalysis:
    """A ring with its ideal lattice; the spectra, the classification and
    the W-ring verdict are built on first read and kept."""

    def __init__(self, spec: RingSpecExpr, ring: FiniteRing, lattice: IdealLattice):
        self.spec = spec
        self.ring = ring
        self.lattice = lattice

    @cached_property
    def prim(self) -> Spectrum:
        return Spectrum(self.lattice, "primary")

    @cached_property
    def primes(self) -> Spectrum:
        return Spectrum(self.lattice, "prime")

    @cached_property
    def classification(self) -> RingClassification:
        return classify_ring(self.lattice)

    @cached_property
    def w_ring(self) -> tuple[bool, str | None]:
        return is_w_ring(self.lattice)


def analyze_ring(
    spec: RingSpecExpr | str,
    max_elements: int = DEFAULT_ELEMENT_CAP,
    max_ideals: int = DEFAULT_IDEAL_CAP,
) -> RingAnalysis:
    """Parse, build the ring and enumerate its ideals, so a cap is hit
    here; the spectra and the classification wait for their first read."""
    if isinstance(spec, str):
        spec = parse_ring_spec(spec, max_elements)
    ring = build_ring(spec, max_elements)
    return RingAnalysis(spec, ring, enumerate_ideals(ring, max_ideals))


class TheoremEntry(
    record(
        "TheoremEntry",
        "entry_id claim applicable lhs rhs passed witness",
        defaults=(None,),
    )
):
    """One checked law: its two sides (None when not applicable), the
    verdict and an optional witness."""

    __slots__ = ()


# entry ids and claims, in report order
THEOREM_CLAIMS: dict[str, str] = {
    "variety-extremes": "the zero ideal cuts out every point, the unit ideal none",
    "variety-product-union": (
        "varieties of intersections and products equal the union of varieties"
    ),
    "variety-sum-intersection": (
        "varieties of sums equal the intersection of varieties"
    ),
    "variety-generators": (
        "an element set and the ideal it generates cut out the same variety"
    ),
    "variety-antitone": "larger ideals cut out smaller varieties",
    "variety-radical-invariance": (
        "an ideal and its radical cut out the same variety"
    ),
    "basic-opens-form-base": (
        "single-element opens form a base; zero gives the empty open and "
        "units the full one"
    ),
    "basic-open-radical-test": (
        "two elements open the same basic set exactly when their principal "
        "ideals share a radical"
    ),
    "basic-open-product": (
        "the basic open of a product is the intersection of basic opens"
    ),
    "basic-open-empty-iff-nilpotent": (
        "a basic open is empty exactly for nilpotent elements"
    ),
    "basic-open-quasi-compact": (
        "every cover of a basic open by basic opens admits a finite subcover"
    ),
    "space-quasi-compact": "the whole space is quasi-compact",
    "single-member-cover-two-primes": (
        "basic-open covers collapse to a single member exactly when there "
        "are at most two nonzero prime ideals"
    ),
    "uniform-exponent-mode-agreement": (
        "the uniform-exponent condition matches the radical-intersection "
        "formulation on every family"
    ),
    "uniform-exponent-zero-dimensional": (
        "the uniform-exponent condition on the all-ideal and all-primary "
        "families holds exactly for zero-dimensional rings"
    ),
    "closure-via-ideal-intersection": (
        "closures agree with the variety of the intersected ideals "
        "(zero-dimensional rings)"
    ),
    "point-closure-is-variety": "a point's closure is the variety of its ideal",
    "specialization-radical-test": (
        "one point lies in another's closure exactly when the ideal sits "
        "inside the other's radical"
    ),
    "t0-iff-variety-injective": (
        "the space is T0 exactly when distinct points cut out distinct varieties"
    ),
    "p-ring-iff-t0": "every primary ideal is maximal exactly when the space is T0",
    "p-ring-iff-t2": "every primary ideal is maximal exactly when the space is T2",
    "separation-equivalence": (
        "T0, T1, T2 and the all-primary-maximal property coincide"
    ),
    "point-varieties-irreducible": "the variety of every point is irreducible",
    "irreducible-iff-nilradical-primary": (
        "the space is irreducible exactly when the nilradical is primary"
    ),
    "t0-iff-sober": (
        "under unique primary-intersection representations, T0 and sobriety "
        "coincide"
    ),
    "spectral-iff-t0": (
        "under unique primary-intersection representations, spectrality and "
        "T0 coincide"
    ),
    "local-iff-supercompact": (
        "the ring is local exactly when the space is supercompact"
    ),
}


class TheoremReport:
    """The entries of ``verify_theorems`` for one ring, in report order."""

    def __init__(self, ring_label: str):
        self.ring_label = ring_label
        self.entries: list[TheoremEntry] = []

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[TheoremEntry]:
        return [e for e in self.entries if not e.passed]

    def entry(self, entry_id: str) -> TheoremEntry:
        for e in self.entries:
            if e.entry_id == entry_id:
                return e
        raise KeyError(entry_id)


def _pair_witness(names: list[str], fails) -> str | None:
    """"r=..., s=..." for the last pair of elements (r, s), in row-major
    order, with ``fails(r, s)``; None when no pair fails."""
    witness = None
    for r in range(len(names)):
        for s in range(len(names)):
            if fails(r, s):
                witness = f"r={names[r]}, s={names[s]}"
    return witness


def _iff(report, entry_id, lhs, rhs=True, witness=None, applicable=True):
    """Record one entry; a law is a biconditional whose rhs is True."""
    passed = (not applicable) or lhs == rhs
    report.entries.append(
        TheoremEntry(
            entry_id,
            THEOREM_CLAIMS[entry_id],
            applicable,
            lhs if applicable else None,
            rhs if applicable else None,
            passed,
            witness if not passed or not applicable else None,
        )
    )


def verify_theorems(a: RingAnalysis) -> TheoremReport:
    """Evaluate every checked law for one ring; THEOREM_CLAIMS lists them."""
    ring, lattice, prim = a.ring, a.lattice, a.prim
    cls = a.classification
    w_ring, w_witness = a.w_ring
    report = TheoremReport(ring.label)
    n_ideals = len(lattice)
    all_pts = prim.full
    varieties = prim.varieties
    x = prim.basic_opens
    masks, id_by_mask = lattice.masks, lattice.id_by_mask
    sums, products = lattice.sum_table, lattice.product_table
    principal = lattice.principal_ids
    # unit/nilpotent side of the basic-open laws, from ring.mul alone
    flags = [unit_and_nilpotent_flags(ring, r) for r in range(ring.size)]
    names = ring.element_names

    # variety laws ---------------------------------------------------------
    _iff(
        report,
        "variety-extremes",
        varieties[lattice.zero_id] == all_pts
        and varieties[lattice.unit_id] == 0,
    )

    # the next two laws compare whole rows; only a failing row is scanned,
    # for its first (product law) or last (sum law) failing pair
    witness = None
    for i, (vi, mi) in enumerate(zip(varieties, masks)):
        unions = [vi | vj for vj in varieties]
        meets = [varieties[id_by_mask[mi & mj]] for mj in masks]
        prods = [varieties[k] for k in products[i]]
        if meets != unions or prods != unions:
            j = next(j for j, u in enumerate(unions) if meets[j] != u or prods[j] != u)
            witness = f"{lattice.render(i)}, {lattice.render(j)}"
            break
    _iff(report, "variety-product-union", witness is None, witness=witness)

    witness = None
    for i, vi in enumerate(varieties):
        sides = [vi & vj for vj in varieties]
        row = [varieties[k] for k in sums[i]]
        if row != sides:
            j = max(j for j in range(n_ideals) if row[j] != sides[j])
            witness = f"{lattice.render(i)}, {lattice.render(j)}"
    _iff(report, "variety-sum-intersection", witness is None, witness=witness)

    # every element set S, folded as (ideal generated by S, variety of S);
    # V({r}) is the complement of r's basic open, which the spectrum reads
    # off the points, not the lattice
    element_varieties = [all_pts & ~xr for xr in x]
    found = _first_failing_fold(
        (lattice.zero_id, all_pts),
        sorted(range(ring.size), key=principal.__getitem__),
        lambda state, r: (sums[state[0]][principal[r]], state[1] & element_varieties[r]),
        lambda state: state[1] == varieties[state[0]],
    )
    witness = None if found is None else f"S={sorted(found)}"
    _iff(report, "variety-generators", found is None, witness=witness)

    # i lies in j exactly when i + j is j
    holds, witness = True, None
    for i, vi in enumerate(varieties):
        for j, s in enumerate(sums[i]):
            if s == j and varieties[j] & ~vi:
                holds, witness = False, f"{lattice.render(i)} in {lattice.render(j)}"
    _iff(report, "variety-antitone", holds, witness=witness)

    holds, witness = True, None
    for i in range(n_ideals):
        if varieties[i] != varieties[lattice.radical_ids[i]]:
            holds, witness = False, lattice.render(i)
    _iff(report, "variety-radical-invariance", holds, witness=witness)

    # basic opens ------------------------------------------------------------
    base_ok, base_witness = prim.is_base
    unit_laws = x[0] == 0 and x[ring.one_index] == all_pts
    for r in range(ring.size):
        if flags[r][0] and x[r] != all_pts:
            unit_laws = False
    _iff(report, "basic-opens-form-base", base_ok and unit_laws, witness=base_witness)

    # the next two laws are decided by whole rows: the two partitions of the
    # elements agree when pairing them adds no class, and row r of the
    # product law is one list comparison; only a failure scans every pair,
    # to name the last failing one
    rads = [lattice.radical_ids[p] for p in principal]
    witness = None
    if not len(set(zip(x, rads))) == len(set(x)) == len(set(rads)):
        witness = _pair_witness(names, lambda r, s: (x[r] == x[s]) != (rads[r] == rads[s]))
    _iff(report, "basic-open-radical-test", witness is None, witness=witness)

    meets = {v: tuple([v & w for w in x]) for v in set(x)}
    witness = None
    if not all(itemgetter(*row)(x) == meets[v] for row, v in zip(ring.mul, x)):
        witness = _pair_witness(names, lambda r, s: x[ring.mul[r][s]] != x[r] & x[s])
    _iff(report, "basic-open-product", witness is None, witness=witness)

    holds, witness = True, None
    for r in range(ring.size):
        if (x[r] == 0) != flags[r][1]:
            holds, witness = False, names[r]
    _iff(report, "basic-open-empty-iff-nilpotent", holds, witness=witness)

    # a finite family covers a set exactly when the set lies in the family's
    # union; a failure names the last element whose open is not covered
    covered = 0
    for u in prim.basic_open_family:
        covered |= u
    bad = [names[r] for r in range(ring.size) if x[r] & ~covered]
    _iff(report, "basic-open-quasi-compact", not bad, witness=bad[-1] if bad else None)
    _iff(report, "space-quasi-compact", all_pts & ~covered == 0)

    # star condition ---------------------------------------------------------
    nonzero_primes = [i for i in cls.prime_ideals if lattice.mask(i) != 1]
    hypothesis = all(lattice.maximal[i] for i in nonzero_primes)
    star, star_witness = star_condition(lattice, prim)
    _iff(
        report,
        "single-member-cover-two-primes",
        star,
        len(nonzero_primes) <= 2,
        star_witness,
        applicable=hypothesis,
    )

    # uniform exponents ---------------------------------------------------
    # every family of primaries is a family of ideals, so their conjunct
    # adds nothing to the all-ideal family's verdict
    a2 = a_conditions(lattice, list(range(n_ideals)))
    _iff(report, "uniform-exponent-mode-agreement", a2.a2, witness=a2.witness)
    _iff(report, "uniform-exponent-zero-dimensional", a2.a2, cls.is_zero_dimensional)

    # closures --------------------------------------------------------------
    holds, witness = closure_identity_check(prim)
    _iff(
        report,
        "closure-via-ideal-intersection",
        holds,
        True,
        witness,
        applicable=cls.is_zero_dimensional,
    )

    point_closures = prim.point_closures
    holds, witness = True, None
    for pos, ideal_id in enumerate(prim.points):
        if point_closures[pos] != varieties[ideal_id]:
            holds, witness = False, prim.render_point(pos)
    _iff(report, "point-closure-is-variety", holds, witness=witness)

    holds, witness = True, None
    for pos_i, i in enumerate(prim.points):
        closure_i = point_closures[pos_i]
        for pos_j, j in enumerate(prim.points):
            expected = lattice.mask(i) & ~lattice.mask(lattice.radical_ids[j]) == 0
            if (closure_i >> pos_j & 1 == 1) != expected:
                holds, witness = False, f"{lattice.render(i)}, {lattice.render(j)}"
    _iff(report, "specialization-radical-test", holds, witness=witness)

    # separation ------------------------------------------------------------
    sep = prim.separation
    injective = all(
        varieties[i] != varieties[j] for i in prim.points for j in prim.points if i < j
    )
    _iff(report, "t0-iff-variety-injective", sep.t0, injective)
    _iff(report, "p-ring-iff-t0", cls.is_p_ring, sep.t0)
    _iff(report, "p-ring-iff-t2", cls.is_p_ring, sep.t2)
    four = {cls.is_p_ring, sep.t0, sep.t1, sep.t2}
    _iff(
        report,
        "separation-equivalence",
        len(four) == 1,
        witness=f"t0={sep.t0} t1={sep.t1} t2={sep.t2}",
    )

    holds, witness = True, None
    for pos, ideal_id in enumerate(prim.points):
        if not is_irreducible(prim, varieties[ideal_id])[0]:
            holds, witness = False, prim.render_point(pos)
    _iff(report, "point-varieties-irreducible", holds, witness=witness)

    nil = lattice.nilradical_id()
    _iff(
        report,
        "irreducible-iff-nilradical-primary",
        is_irreducible(prim)[0],
        lattice.primary[nil],
    )

    _iff(report, "t0-iff-sober", sep.t0, prim.sober, w_witness, applicable=w_ring)
    _iff(report, "spectral-iff-t0", prim.spectral, sep.t0, w_witness, applicable=w_ring)

    supercompact, sc_witness = prim.supercompact
    if not supercompact:
        sc_witness = ", ".join(map(prim.render_point_set, sc_witness))
    _iff(
        report,
        "local-iff-supercompact",
        cls.is_local,
        supercompact,
        str(sc_witness),
    )
    return report
