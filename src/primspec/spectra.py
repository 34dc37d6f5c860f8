"""Prime and primary spectra of finite rings as explicit topological spaces.

The primary spectrum has point set Prim(R) (all primary ideals) and closed
sets ``variety(I) = {Q : I contained in the radical of Q}``; the prime
spectrum uses the classical ``{P : I contained in P}``.  Point sets are int
bit-masks over point positions: bit i stands for ``points[i]``.  A spectrum
is itself a ``FiniteTopology``, so the ``topology`` checkers take it
directly.  Closed sets are stored deduplicated, each with back-references to
every generating ideal.
"""

from __future__ import annotations

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
        # a prime is its own radical, so both kinds test I against rad(Q)
        self._point_masks = [lattice.mask(lattice.radical_ids[i]) for i in self.points]
        self.varieties = [self._variety_of_mask(m) for m in lattice.masks]
        by_set: dict[int, list[int]] = {}
        for ideal_id, closed in enumerate(self.varieties):
            by_set.setdefault(closed, []).append(ideal_id)
        super().__init__(len(self.points), by_set.keys())
        self.generating_ideals = [by_set[s] for s in self.closed_sets]

    # -- varieties -----------------------------------------------------------

    def _variety_of_mask(self, element_mask: int) -> int:
        out = 0
        for pos, pm in enumerate(self._point_masks):
            if element_mask & ~pm == 0:
                out |= 1 << pos
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

    # -- point sets ----------------------------------------------------------

    def xi(self, point_set: int) -> int:
        """Lattice id of the intersection of the ideals underlying the points.

        The empty set yields the unit ideal (empty-intersection convention).
        """
        mask = (1 << self.lattice.ring.size) - 1
        for pos in iter_bits(point_set):
            mask &= self.lattice.mask(self.points[pos])
        return self.lattice.id_of(mask)

    def is_base(self) -> tuple[bool, int | None]:
        """Do the basic opens generate every open set by union?  On failure
        the second value is the first open they miss."""
        missed = uncovered_open(self, self.basic_open_family)
        return missed is None, missed

    def render_point(self, pos: int) -> str:
        return self.lattice.render(self.points[pos])

    def render_point_set(self, point_set: int) -> str:
        inner = ", ".join(self.render_point(p) for p in iter_bits(point_set))
        return "{" + inner + "}"
