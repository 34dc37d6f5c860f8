"""Slow oracles shared by several test modules."""

from primspec.ideals import _sum_mask
from primspec.rings import FiniteRing


def _principal_mask(ring: FiniteRing, g: int) -> int:
    """The principal ideal R*g, which is closed under + because R has 1;
    R is commutative, so it is the set of entries of the row mul[g]."""
    mask = 0
    for x in set(ring.mul[g]):
        mask |= 1 << x
    return mask


def ideal_generated_by(ring: FiniteRing, gens) -> int:
    """Mask of the smallest ideal containing ``gens`` (element indices)."""
    mask = 1  # zero ideal
    for g in gens:
        if not (mask >> g) & 1:
            mask = _sum_mask(ring, mask, _principal_mask(ring, g))
    return mask
