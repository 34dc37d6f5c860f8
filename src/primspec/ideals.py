"""Ideal enumeration and classification for finite commutative rings.

Ideals are bit-sets over element indices.  Every ideal is built as a sum
of principal ideals: in a ring with 1, R*g is already an ideal and I + J
is one too, so no additive closure is ever computed.  The complete
lattice is the fixpoint of pairwise sums of principal ideals, which
reaches every ideal of a finite ring.  Ids are assigned canonically:
sorted by cardinality, then by the sorted member tuple, so id 0 is always
the zero ideal and the last id the unit ideal.

Once built, the lattice answers sums, products and generators as
least-superset lookups: the ideal generated by a set is its least member
containing that set (``_least_superset``, also the topology's closure).
"""

from __future__ import annotations

import itertools
from collections import deque

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


def _least_superset(family: list[int], subset: int) -> int:
    """Index of the least member of ``family`` (ascending by size, closed
    under intersection, ending with the whole set) containing ``subset``."""
    for i, member in enumerate(family):
        if subset & ~member == 0:
            return i
    stray = list(itertools.islice(iter_bits(subset & ~family[-1]), 5))
    raise ValueError(f"set has bits outside the largest member, lowest {stray}")


def _principal_mask(ring: FiniteRing, g: int) -> int:
    """The principal ideal R*g, which is closed under + because R has 1."""
    mask = 0
    for r in range(ring.size):
        mask |= 1 << ring.mul[r][g]
    return mask


def ideal_generated_by(ring: FiniteRing, gens) -> int:
    """Mask of the smallest ideal containing ``gens`` (element indices)."""
    mask = 1  # zero ideal
    for g in gens:
        if not (mask >> g) & 1:
            mask = _sum_mask(ring, mask, _principal_mask(ring, g))
    return mask


def _sum_mask(ring: FiniteRing, a: int, b: int) -> int:
    add = ring.add
    out = 0
    bs = list(iter_bits(b))
    for x in iter_bits(a):
        row = add[x]
        for y in bs:
            out |= 1 << row[y]
    return out


def _radical_mask(ring: FiniteRing, mask: int) -> int:
    power_masks = ring.power_masks()
    out = 0
    for x in range(ring.size):
        if power_masks[x] & mask:
            out |= 1 << x
    return out


class IdealLattice:
    """All ideals of a finite ring, with prime/maximal/primary flags."""

    def __init__(self, ring: FiniteRing, masks: list[int]):
        self.ring = ring
        self.masks = sorted(masks, key=canonical_key)
        self.id_by_mask = {m: i for i, m in enumerate(self.masks)}
        full = (1 << ring.size) - 1
        self.proper = [m != full for m in self.masks]
        self.radical_ids = [self.id_by_mask[_radical_mask(ring, m)] for m in self.masks]
        self.prime = [self._is_prime(i) for i in range(len(self.masks))]
        self.maximal = [self._is_maximal(i) for i in range(len(self.masks))]
        self.primary = [self._is_primary(i) for i in range(len(self.masks))]
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

    def _is_prime(self, i: int) -> bool:
        if not self.proper[i]:
            return False
        mask = self.masks[i]
        mul = self.ring.mul
        outside = [x for x in range(self.ring.size) if not (mask >> x) & 1]
        for r in outside:
            row = mul[r]
            for s in outside:
                if (mask >> row[s]) & 1:
                    return False
        return True

    def _is_maximal(self, i: int) -> bool:
        if not self.proper[i]:
            return False
        mask = self.masks[i]
        for j, other in enumerate(self.masks):
            if j != i and self.proper[j] and other | mask == other:
                return False
        return True

    def _is_primary(self, i: int) -> bool:
        if not self.proper[i]:
            return False
        mask = self.masks[i]
        rad = self.masks[self.radical_ids[i]]
        mul = self.ring.mul
        outside_q = [x for x in range(self.ring.size) if not (mask >> x) & 1]
        outside_rad = [x for x in range(self.ring.size) if not (rad >> x) & 1]
        for r in outside_q:
            row = mul[r]
            for s in outside_rad:
                if (mask >> row[s]) & 1:
                    return False
        return True

    # -- lattice operations ------------------------------------------------

    def sum_id(self, a: int, b: int) -> int:
        return _least_superset(self.masks, self.mask(a) | self.mask(b))

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
            if g and _least_superset(masks, 1 << g) == ideal_id:
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
    """Complete ideal lattice: fixpoint of pairwise sums of principal ideals."""
    masks: set[int] = set()

    def register(mask: int) -> bool:
        if mask in masks:
            return False
        if len(masks) >= max_ideals:
            raise CapExceededError(
                f"ideal count exceeds cap {max_ideals} for {ring.label}"
            )
        masks.add(mask)
        return True

    for g in range(ring.size):
        register(_principal_mask(ring, g))
    queue = deque(masks)
    while queue:
        m = queue.popleft()
        for other in list(masks):
            s = _sum_mask(ring, m, other)
            if register(s):
                queue.append(s)
    return IdealLattice(ring, list(masks))

