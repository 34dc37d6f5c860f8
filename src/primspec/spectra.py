"""Prime and primary spectra of finite rings as explicit topological spaces.

The primary spectrum has point set Prim(R) (all primary ideals) and closed
sets ``variety(I) = {Q : I contained in the radical of Q}``; the prime
spectrum uses the classical ``{P : I contained in P}``.  A point enters a
variety through its radical alone (a prime is its own radical), so the
points are grouped by radical once, and a variety or a basic open makes one
subset test per distinct radical, adding every point of a radical that
holds the ideal or the element.  Point sets are int bit-masks over point
positions: bit i stands for ``points[i]``.  A spectrum is itself a
``FiniteTopology``, so the ``topology`` checkers take it directly, and its
verdicts are cached attributes.  Closed sets are stored deduplicated, each
with back-references to every generating ideal.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .ideals import IdealLattice, canonical_key, iter_bits
from .topology import FiniteTopology, uncovered_open


class Spectrum(FiniteTopology):
    """The finite space of one variety kind, validated as a
    ``FiniteTopology``, plus the ideals behind its points and closed sets."""

    def __init__(self, lattice: IdealLattice, kind: str):
        if kind not in ("prime", "primary"):
            raise ValueError(f"unknown spectrum kind {kind!r}")
        self.lattice = lattice
        flags = lattice.prime if kind == "prime" else lattice.primary
        self.points = [i for i in range(len(lattice)) if flags[i]]
        # a prime is its own radical, so both kinds test I against rad(Q);
        # (radical mask, positions of the points with that radical)
        by_radical: dict[int, int] = {}
        for pos, i in enumerate(self.points):
            rad = lattice.mask(lattice.radical_ids[i])
            by_radical[rad] = by_radical.get(rad, 0) | 1 << pos
        self._radical_classes = list(by_radical.items())
        self.varieties = [self._variety_of_mask(m) for m in lattice.masks]
        by_set: dict[int, list[int]] = {}
        for ideal_id, closed in enumerate(self.varieties):
            by_set.setdefault(closed, []).append(ideal_id)
        super().__init__(len(self.points), by_set.keys())
        self.generating_ideals = [by_set[s] for s in self.closed_sets]

    # -- varieties -----------------------------------------------------------

    def _variety_of_mask(self, element_mask: int) -> int:
        """The points whose radical holds ``element_mask``: a point enters
        the variety through its radical alone, so one subset test decides
        every point with the same radical."""
        out = 0
        for rad, positions in self._radical_classes:
            if element_mask & ~rad == 0:
                out |= positions
        return out

    def variety(self, ideal_id: int) -> int:
        """Closed set of an ideal, as a point mask."""
        return self.varieties[ideal_id]

    @cached_property
    def basic_opens(self) -> list[int]:
        """The basic open of every element, its variety's complement."""
        return [self.full ^ self._variety_of_mask(1 << r) for r in range(self.lattice.ring.size)]

    @cached_property
    def basic_open_family(self) -> list[int]:
        """Deduplicated basic opens, canonically ordered."""
        return sorted(set(self.basic_opens), key=canonical_key)

    @cached_property
    def is_base(self) -> tuple[bool, str | None]:
        """Do the basic opens generate every open set by union?  On failure
        the witness names the first open they miss."""
        missed = uncovered_open(self, self.basic_open_family)
        if missed is None:
            return True, None
        return False, f"open {list(iter_bits(missed))} is not a union of basics"

    @cached_property
    def spectral(self) -> bool:
        """Sober, with the basic opens a base of quasi-compact opens closed
        under pairwise intersection.  Every open of a finite space, the space
        itself too, is quasi-compact, so only sobriety and the base are
        checked."""
        family = set(self.basic_open_family)
        return (
            self.sober
            and family <= set(self.opens)
            and all(a & b in family for a, b in itertools.combinations(family, 2))
            and self.is_base[0]
        )

    # -- point sets ----------------------------------------------------------

    def xi(self, point_set: int) -> int:
        """Lattice id of the intersection of the ideals underlying the points.

        The empty set yields the unit ideal (empty-intersection convention).
        """
        mask = (1 << self.lattice.ring.size) - 1
        for pos in iter_bits(self._checked(point_set)):
            mask &= self.lattice.mask(self.points[pos])
        return self.lattice.id_of(mask)

    def render_point(self, pos: int) -> str:
        return self.lattice.render(self.points[pos])

    def render_point_set(self, point_set: int) -> str:
        inner = ", ".join(self.render_point(p) for p in iter_bits(self._checked(point_set)))
        return "{" + inner + "}"
