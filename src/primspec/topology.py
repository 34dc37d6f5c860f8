"""Property checkers for finite topological spaces given by closed sets.

Point sets are int bit-masks: bit i stands for point i.  The closed family
is the single source of truth: open sets are its complements, and each
point's closure is the meet of the members that hold it, found once.  The
closure of any point set is the union of its points' closures, since the
family is closed under finite unions.  Each point's least open is found
the same way, and two points have disjoint neighbourhoods exactly when
their least opens are disjoint.  All checkers are pure functions over
immutable inputs.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .ideals import canonical_key, iter_bits
from .records import record


class TopologyAxiomError(RuntimeError):
    """The supplied family violates the closed-set axioms."""


class CoverageError(ValueError):
    """A purported cover does not cover the target subset."""


class SeparationResult(record("SeparationResult", "t0 t1 t2 witness")):
    """T0/T1/T2 verdicts and a violating point pair (x, y), or None."""

    __slots__ = ()


class FiniteTopology:
    """Finite topological space: ``point_count`` points plus closed sets.

    The closed family is validated once, here; ``closed_sets`` and ``opens``
    (built on first read) are deduplicated and in canonical order.  The
    verdicts ``separation``, ``sober`` and ``supercompact`` are computed on
    first read and kept.
    """

    def __init__(self, point_count: int, closed_sets):
        self.point_count = point_count
        self.full = (1 << point_count) - 1
        self._closed_set_set = set(closed_sets)
        self.closed_sets = sorted(self._closed_set_set, key=canonical_key)
        self._validate()
        self.point_closures = self._least_members(self.closed_sets)

    def _validate(self):
        if 0 not in self._closed_set_set:
            raise TopologyAxiomError("missing empty closed set")
        if self.full not in self._closed_set_set:
            raise TopologyAxiomError("missing full closed set")
        # | and & are symmetric and a | a == a & a == a, so unordered pairs suffice
        for i, a in enumerate(self.closed_sets):
            if a & ~self.full:
                raise TopologyAxiomError("closed set contains unknown points")
            for b in self.closed_sets[i + 1 :]:
                if a | b not in self._closed_set_set:
                    raise TopologyAxiomError("family not closed under union")
                if a & b not in self._closed_set_set:
                    raise TopologyAxiomError("family not closed under intersection")

    def _least_members(self, family) -> list[int]:
        """Per point, the meet of the members of ``family`` holding it,
        the least such member when ``family`` is closed under meets."""
        out = [self.full] * self.point_count
        for c in family:
            for x in iter_bits(c):
                out[x] &= c
        return out

    @cached_property
    def opens(self) -> list[int]:
        return sorted({self.full ^ c for c in self.closed_sets}, key=canonical_key)

    def is_closed(self, subset: int) -> bool:
        return subset in self._closed_set_set

    def _checked(self, subset: int) -> int:
        """``subset`` itself; ValueError naming its lowest stray bits if it
        holds a bit past the last point (a negative int holds infinitely
        many)."""
        if subset & ~self.full:
            stray = list(itertools.islice(iter_bits(subset & ~self.full), 5))
            raise ValueError(f"set has bits outside the space, lowest {stray}")
        return subset

    def closure(self, subset: int) -> int:
        """Smallest closed superset: the union of its points' closures, which
        is closed since the family is closed under finite unions."""
        out = 0
        for x in iter_bits(self._checked(subset)):
            out |= self.point_closures[x]
        return out

    @cached_property
    def separation(self) -> SeparationResult:
        """T0/T1/T2 by exhaustive point-pair scan.

        The witness is a violating pair for the first failed axiom in
        (T0, T1, T2) order.
        """
        closures = self.point_closures
        t0_witness = t1_witness = None
        for x in range(self.point_count):
            for y in range(x + 1, self.point_count):
                if closures[x] == closures[y] and t0_witness is None:
                    t0_witness = (x, y)
        for x in range(self.point_count):
            if not self.is_closed(1 << x):
                other = next(iter_bits(closures[x] & ~(1 << x)), x)
                t1_witness = (x, other)
                break
        least_opens = self._least_members(self.opens)
        pairs = itertools.combinations(range(self.point_count), 2)
        t2_witness = next(((x, y) for x, y in pairs if least_opens[x] & least_opens[y]), None)
        witness = t0_witness or t1_witness or t2_witness
        return SeparationResult(
            t0_witness is None, t1_witness is None, t2_witness is None, witness
        )

    @cached_property
    def sober(self) -> bool:
        """Every irreducible closed set has exactly one generic point."""
        return all(
            generics.bit_count() == 1
            for _, generics in irreducible_closed_with_generic_points(self)
        )

    @cached_property
    def supercompact(self):
        """Every open cover of the space contains the space itself.

        Equivalent linear criterion: the proper opens do not cover the space.
        (True, uncovered point) or (False, covering family of proper opens).
        """
        proper = [u for u in self.opens if u != self.full]
        union = 0
        for u in proper:
            union |= u
        if union != self.full:
            return True, next(iter_bits(self.full & ~union))
        chosen = is_quasi_compact(self, self.full, proper)
        return False, [proper[i] for i in chosen]


def is_irreducible(
    t: FiniteTopology, closed: int | None = None
) -> tuple[bool, tuple[int, int] | None]:
    """Irreducibility of a closed set (default: the whole space).

    Returns the verdict plus, when reducible, the first pair of proper
    closed subsets covering it.  The empty set is not irreducible.
    """
    space = t.full if closed is None else closed
    if not t.is_closed(space):
        raise ValueError("irreducibility is decided for closed sets only")
    if not space:
        return False, None
    # relative to a closed C the closed sets are those inside C, kept in order
    proper = [c for c in t.closed_sets if c & ~space == 0 and c != space]
    for a, b in itertools.combinations(proper, 2):
        if a | b == space:
            return False, (a, b)
    return True, None


def irreducible_closed_with_generic_points(t: FiniteTopology) -> list[tuple[int, int]]:
    """Each irreducible member of the closed family with its generic points.

    A generic point of a closed set C is a point whose closure equals C.
    """
    closures = t.point_closures
    out = []
    for c in t.closed_sets:
        if is_irreducible(t, c)[0]:
            generics = 0
            for x in range(t.point_count):
                if closures[x] == c:
                    generics |= 1 << x
            out.append((c, generics))
    return out


def is_quasi_compact(t: FiniteTopology, subset: int, cover: list[int]) -> list[int]:
    """Greedy finite subcover of ``subset`` from ``cover`` (a list of opens).

    Returns indices into ``cover``; raises CoverageError when the family
    does not cover the subset, that is exactly when the subset does not lie
    in the family's union.  The search then stops where no member meets the
    points left uncovered, and those are the points of the subset that no
    member holds.
    """
    remaining = subset
    chosen: list[int] = []
    while remaining:
        best, best_gain = -1, 0
        for i, c in enumerate(cover):
            gain = (c & remaining).bit_count()
            if gain > best_gain:
                best, best_gain = i, gain
        if best < 0:
            raise CoverageError(f"family misses points {list(iter_bits(remaining))}")
        chosen.append(best)
        remaining &= ~cover[best]
    return chosen


def uncovered_open(t: FiniteTopology, family) -> int | None:
    """First open, in canonical order, that is not the union of the members
    of ``family`` inside it; None when the family generates every open."""
    for u in t.opens:
        union = 0
        for b in family:
            if b & ~u == 0:
                union |= b
        if union != u:
            return u
    return None
