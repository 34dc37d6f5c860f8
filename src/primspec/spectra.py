"""Prime and primary spectra of finite rings as explicit topological spaces.

The primary spectrum has point set Prim(R) (all primary ideals) and closed
sets ``variety(I) = {Q : I contained in the radical of Q}``; the prime
spectrum uses the classical ``{P : I contained in P}``.  Point sets are int
bit-masks over point positions: bit i stands for ``points[i]``.  Closed sets
are stored deduplicated, each with back-references to every generating
ideal.
"""

from __future__ import annotations

from .ideals import IdealLattice, canonical_key, iter_bits, mask_of
from .topology import FiniteTopology, uncovered_open


class Spectrum:
    """Point set plus the closed-set family of one variety kind, held as a
    single validated ``FiniteTopology``."""

    def __init__(self, lattice: IdealLattice, kind: str):
        if kind not in ("prime", "primary"):
            raise ValueError(f"unknown spectrum kind {kind!r}")
        self.lattice = lattice
        self.kind = kind
        flags = lattice.prime if kind == "prime" else lattice.primary
        self.points = [i for i in range(len(lattice)) if flags[i]]
        self.position = {ideal_id: pos for pos, ideal_id in enumerate(self.points)}
        if kind == "prime":
            self._point_masks = [lattice.mask(i) for i in self.points]
        else:
            self._point_masks = [
                lattice.mask(lattice.radical_ids[i]) for i in self.points
            ]
        varieties = [self._variety_of_mask(lattice.mask(i)) for i in range(len(lattice))]
        by_set: dict[int, list[int]] = {}
        for ideal_id, closed in enumerate(varieties):
            by_set.setdefault(closed, []).append(ideal_id)
        self.topology = FiniteTopology(len(self.points), by_set.keys())
        self.closed_sets = self.topology.closed_sets
        closed_index = {s: i for i, s in enumerate(self.closed_sets)}
        self.generating_ideals = [by_set[s] for s in self.closed_sets]
        self.variety_index_by_ideal = [closed_index[v] for v in varieties]
        self._element_opens: list[int] | None = None
        self._basic_opens: list[int] | None = None

    # -- varieties -----------------------------------------------------------

    def _variety_of_mask(self, element_mask: int) -> int:
        out = 0
        for pos, pm in enumerate(self._point_masks):
            if element_mask & ~pm == 0:
                out |= 1 << pos
        return out

    def variety(self, ideal_id: int) -> int:
        """Closed set of an ideal, as a point mask."""
        return self.closed_sets[self.variety_index_by_ideal[ideal_id]]

    def variety_of_elements(self, elements) -> int:
        """Closed set of an arbitrary element subset, straight from the definition."""
        return self._variety_of_mask(mask_of(elements))

    def basic_open(self, r: int) -> int:
        """Complement of the variety of a single element."""
        return self.basic_opens()[r]

    def basic_opens(self) -> list[int]:
        """The basic open of every element, computed once."""
        if self._element_opens is None:
            full = self.topology.full
            self._element_opens = [
                full ^ self._variety_of_mask(1 << r) for r in range(self.lattice.ring.size)
            ]
        return self._element_opens

    def all_points(self) -> int:
        return self.topology.full

    def basic_open_family(self) -> list[int]:
        """Deduplicated basic opens, canonically ordered."""
        if self._basic_opens is None:
            self._basic_opens = sorted(set(self.basic_opens()), key=canonical_key)
        return self._basic_opens

    # -- topology ------------------------------------------------------------

    def closure(self, point_set: int) -> int:
        """Smallest closed superset; computed from the closed family alone."""
        return self.topology.closure(point_set)

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
        missed = uncovered_open(self.topology, self.basic_open_family())
        return missed is None, missed

    def render_point(self, pos: int) -> str:
        return self.lattice.render(self.points[pos])

    def render_point_set(self, point_set: int) -> str:
        inner = ", ".join(self.render_point(p) for p in iter_bits(point_set))
        return "{" + inner + "}"
