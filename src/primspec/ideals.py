"""Ideal enumeration and classification for finite commutative rings.

Ideals are bit-sets over element indices.  Every ideal is built as a sum
of principal ideals: in a ring with 1, R*g is already an ideal and I + J
is one too, so no additive closure is ever computed.  The complete
lattice is built in one pass over the distinct principal ideals, smallest
first: one already in the lattice is a sum of smaller ones and is
skipped, and each other one is added to every member found so far.  The
principal ideals kept are the join-irreducible ideals, and every ideal of
a finite ring is a finite sum of them, so the pass reaches all of them.
A sum I + J walks cosets: it starts from the larger ideal and adds one coset
I + y for each y of the other not yet covered, so it costs the size of
I + J in lookups.  Ids are assigned canonically: sorted by cardinality,
then by the sorted member tuple, so id 0 is always the zero ideal and the
last id the unit ideal.

Whether rs lies in I depends only on r and s mod I, and rad(I) is a union
of I-cosets, so the primary test of I scans pairs of coset
representatives of R/I rather than pairs of elements, and only cosets of
non-units, since a coset holding a unit never fails the test.  A prime
ideal is a primary ideal that is its own radical.

Once built, the lattice answers sums, products and generators as
least-superset lookups: the ideal generated by a set is its least member
containing that set (``_least_superset``, also the topology's closure).
The least member containing one element g is R*g, kept as the element's
principal id.
"""

from __future__ import annotations

import itertools

from .rings import CapExceededError, FiniteRing

DEFAULT_IDEAL_CAP = 4096


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def canonical_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key of the canonical order of bit-sets: cardinality, then members."""
    return mask.bit_count(), tuple(iter_bits(mask))


def _least_superset(family: list[int], subset: int, start: int = 0) -> int:
    """Index of the least member of ``family`` (ascending by size, closed
    under intersection, ending with the whole set) containing ``subset``,
    searched from index ``start``, below which no member may contain it."""
    for i in range(start, len(family)):
        if subset & ~family[i] == 0:
            return i
    stray = list(itertools.islice(iter_bits(subset & ~family[-1]), 5))
    raise ValueError(f"set has bits outside the largest member, lowest {stray}")


def _principal_masks(ring: FiniteRing) -> list[int]:
    """R*g for every element g.  R is commutative and has 1, so R*g is the
    set of entries of the row mul[g], already closed under +; a row that
    holds 1 belongs to a unit, whose principal ideal is R."""
    full, one = (1 << ring.size) - 1, ring.one_index
    return [full if one in row else mask_of(set(row)) for row in ring.mul]


def _cosets(ring: FiniteRing, a: int, b: int):
    """Yield (y, mask) for each coset y + a other than a that meets ``b``,
    y its least element in ``b``; ``a`` is an additive subgroup, and each
    coset costs |a| lookups."""
    left = b & ~a
    if not left:
        return
    add = ring.add
    xs = list(iter_bits(a))
    while left:
        y = (left & -left).bit_length() - 1
        row = add[y]
        coset = 0
        for x in xs:
            coset |= 1 << row[x]
        yield y, coset
        left &= ~coset


def _sum_mask(ring: FiniteRing, a: int, b: int) -> int:
    """The set {x + y : x in a, y in b}, as the union of the cosets of the
    larger argument that meet the other, so the cost is the size of the
    result in lookups.  Precondition: the larger argument is an additive
    subgroup and the other contains 0 (two ideals do)."""
    if a.bit_count() < b.bit_count():
        a, b = b, a
    out = a
    for _, coset in _cosets(ring, a, b):
        out |= coset
    return out


def _radical_mask(ring: FiniteRing, mask: int) -> int:
    """rad(I): the x whose top power x^N (``FiniteRing.top_powers``) is in I."""
    out = 0
    for x, t in enumerate(ring.top_powers()):
        if (mask >> t) & 1:
            out |= 1 << x
    return out


class IdealLattice:
    """All ideals of a finite ring, with prime/maximal/primary flags."""

    def __init__(self, ring: FiniteRing, masks: list[int], principals: list[int]):
        """``principals`` is R*g for every element g, as ``_principal_masks``
        computes it."""
        self.ring = ring
        self.masks = sorted(masks, key=canonical_key)
        self.id_by_mask = {m: i for i, m in enumerate(self.masks)}
        # the id of R*g for each element g
        self.principal_ids = [self.id_by_mask[m] for m in principals]
        full = (1 << ring.size) - 1
        self.proper = [m != full for m in self.masks]
        self.radical_ids = [self.id_by_mask[_radical_mask(ring, m)] for m in self.masks]
        self.maximal = [self._is_maximal(i) for i in range(len(self.masks))]
        non_units = 0
        for m, flag in zip(self.masks, self.maximal):
            if flag:
                non_units |= m
        self.primary = [self._is_primary(i, non_units) for i in range(len(self.masks))]
        # a prime ideal is a primary ideal that is its own radical
        self.prime = [
            self.primary[i] and self.radical_ids[i] == i for i in range(len(self.masks))
        ]
        self._generators: dict[int, list[int]] = {self.zero_id: [0]}

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def zero_id(self) -> int:
        return 0

    @property
    def unit_id(self) -> int:
        return len(self.masks) - 1

    def mask(self, ideal_id: int) -> int:
        return self.masks[ideal_id]

    def id_of(self, mask: int) -> int:
        return self.id_by_mask[mask]

    def _is_maximal(self, i: int) -> bool:
        if not self.proper[i]:
            return False
        mask = self.masks[i]
        for j, other in enumerate(self.masks):
            if j != i and self.proper[j] and other | mask == other:
                return False
        return True

    def _is_primary(self, i: int, non_units: int) -> bool:
        """Whether rs in Q, r outside Q, forces s into rad(Q).

        That depends only on r and s mod Q, and rad(Q) is a union of cosets,
        so the scan runs over the least element of each non-zero coset of
        R/Q.  A coset holding a unit u never fails (us in Q puts s in Q), so
        only cosets inside ``non_units`` (the union of the maximal ideals)
        are scanned."""
        if not self.proper[i]:
            return False
        mask = self.masks[i]
        rad = self.masks[self.radical_ids[i]]
        mul = self.ring.mul
        reps = [y for y, coset in _cosets(self.ring, mask, non_units) if coset & ~non_units == 0]
        outside_rad = [s for s in reps if not (rad >> s) & 1]
        for r in reps:
            row = mul[r]
            for s in outside_rad:
                if (mask >> row[s]) & 1:
                    return False
        return True

    # -- lattice operations ------------------------------------------------

    def sum_id(self, a: int, b: int) -> int:
        return _least_superset(self.masks, self.mask(a) | self.mask(b), max(a, b))

    def product_id(self, a: int, b: int) -> int:
        """IJ is generated by the products gh of generators g of I, h of J."""
        mul, hs = self.ring.mul, self.generators(b)
        products = mask_of(mul[g][h] for g in self.generators(a) for h in hs)
        return _least_superset(self.masks, products)

    def intersection_id(self, a: int, b: int) -> int:
        return self.id_by_mask[self.mask(a) & self.mask(b)]

    def radical_id(self, a: int) -> int:
        return self.radical_ids[a]

    def nilradical_id(self) -> int:
        return self.radical_ids[self.zero_id]

    def contains_ideal(self, a: int, b: int) -> bool:
        """True when ideal a is a subset of ideal b."""
        return self.mask(a) | self.mask(b) == self.mask(b)

    # -- rendering ----------------------------------------------------------

    def generators(self, ideal_id: int) -> list[int]:
        """A small (greedily pruned) generating set of element indices."""
        if ideal_id not in self._generators:
            self._generators[ideal_id] = self._find_generators(ideal_id)
        return self._generators[ideal_id]

    def _find_generators(self, ideal_id: int) -> list[int]:
        masks = self.masks
        mask = masks[ideal_id]
        for g in iter_bits(mask):
            if g and self.principal_ids[g] == ideal_id:
                return [g]
        gens: list[int] = []
        current = 1
        for g in iter_bits(mask):
            if not (current >> g) & 1:
                gens.append(g)
                current = masks[_least_superset(masks, current | 1 << g)]
        for g in list(gens):
            rest = [h for h in gens if h != g]
            if _least_superset(masks, mask_of(rest)) == ideal_id:
                gens = rest
        return gens

    def render(self, ideal_id: int) -> str:
        names = self.ring.element_names
        return "(" + ", ".join(names[g] for g in self.generators(ideal_id)) + ")"


def enumerate_ideals(ring: FiniteRing, max_ideals: int = DEFAULT_IDEAL_CAP) -> IdealLattice:
    """Complete ideal lattice, in one pass over the distinct principal
    ideals by size.  One already a member is a sum of smaller ones; each
    other p is added to every member found so far.  The members stay closed
    under sums, as (m + p) + m' = (m + m') + p."""
    principals = _principal_masks(ring)
    masks = {1}  # the zero ideal
    for p in sorted(set(principals), key=int.bit_count):
        if p in masks:
            continue
        for m in list(masks):
            s = _sum_mask(ring, m, p)
            if s not in masks:
                if len(masks) >= max_ideals:
                    raise CapExceededError(
                        f"ideal count exceeds cap {max_ideals} for {ring.label}"
                    )
                masks.add(s)
    return IdealLattice(ring, list(masks), principals)
