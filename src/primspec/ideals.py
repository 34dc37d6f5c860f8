"""Ideal enumeration and classification for finite commutative rings.

Ideals are bit-sets over element indices.  Every ideal is built as a sum
of principal ideals: in a ring with 1, R*g is already an ideal and I + J
is one too, so no additive closure is ever computed.  The complete
lattice is the fixpoint of pairwise sums of principal ideals, which
reaches every ideal of a finite ring.  Ids are assigned canonically:
sorted by cardinality, then by the sorted member tuple, so id 0 is always
the zero ideal and the last id the unit ideal.
"""

from __future__ import annotations

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


def _product_mask(ring: FiniteRing, a: int, b: int) -> int:
    """IJ as the sum of the ideals x*J over x in I; their union is the set
    of products."""
    mul = ring.mul
    out = 1  # zero ideal
    bs = list(iter_bits(b))
    for x in iter_bits(a):
        row = mul[x]
        xb = 0
        for y in bs:
            xb |= 1 << row[y]
        if xb | out != out:
            out = _sum_mask(ring, out, xb)
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
        self._render_cache: dict[int, str] = {}

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
        return self.id_by_mask[_sum_mask(self.ring, self.mask(a), self.mask(b))]

    def product_id(self, a: int, b: int) -> int:
        return self.id_by_mask[_product_mask(self.ring, self.mask(a), self.mask(b))]

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
        mask = self.mask(ideal_id)
        if ideal_id == self.zero_id:
            return [0]
        for g in iter_bits(mask):
            if g and _principal_mask(self.ring, g) == mask:
                return [g]
        gens: list[int] = []
        current = 1
        for g in iter_bits(mask):
            if not (current >> g) & 1:
                gens.append(g)
                current = _sum_mask(self.ring, current, _principal_mask(self.ring, g))
        for g in list(gens):
            rest = [h for h in gens if h != g]
            if ideal_generated_by(self.ring, rest) == mask:
                gens = rest
        return gens

    def render(self, ideal_id: int) -> str:
        if ideal_id not in self._render_cache:
            names = self.ring.element_names
            gens = self.generators(ideal_id)
            self._render_cache[ideal_id] = "(" + ", ".join(names[g] for g in gens) + ")"
        return self._render_cache[ideal_id]


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

