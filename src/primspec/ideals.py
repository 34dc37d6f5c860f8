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

The pass is kept as a sum tree: every member after the zero ideal was
first made as m + p, m an earlier member and p a join-irreducible, and
each p keeps the column of the sums m + p it made.  The lattice fills its
sum and product tables from that tree, row by row in creation order, at
one lookup per entry: a + (m + p) = (a + m) + p, and a(m + p) = am + ap,
where ap is read off the row of p, itself filled from the principal ideals
R*gh of the products of two generators.  Generating sets are folds over
the sum table, through each element's principal id R*g.

The order of the lattice is kept as one cover relation, read off the same
columns without the sum table.  If J covers I, take a join-irreducible p
below J and not below I: then I < I + p <= J, so J = I + p.  The upper
covers of I are therefore the minimal sums I + p other than I, at most
|J(L)|^2 mask tests per ideal.  The maximal ideals are the ideals whose one
upper cover is R, and the Hasse diagram draws the relation as it stands.
"""

from __future__ import annotations

from functools import cached_property

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


def _principal_masks(ring: FiniteRing) -> list[int]:
    """R*g for every element g.  R is commutative and has 1, so R*g is the
    set of entries of the row mul[g], already closed under +; a row that
    holds 1 belongs to a unit, whose principal ideal is R."""
    full, one = (1 << ring.size) - 1, ring.one_index
    return [full if one in row else mask_of(set(row)) for row in ring.mul]


def _cosets(ring: FiniteRing, a: int, b: int):
    """Yield (y, mask) for each coset y + a other than a that meets ``b``,
    y its least element in ``b``; ``a`` is an additive subgroup, and each
    coset costs |a| lookups.  A coset that misses its own y shows that the
    addition table breaks the group laws, and raises ValueError."""
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
        if not (coset >> y) & 1:
            raise ValueError(
                f"addition table of {ring.label} breaks the group laws: "
                f"{y} + the subgroup misses {y}"
            )
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
    for x, t in enumerate(ring.top_powers):
        if (mask >> t) & 1:
            out |= 1 << x
    return out


class IdealLattice:
    """All ideals of a finite ring, with prime/maximal/primary flags.

    ``upper_covers[i]`` lists, in ascending id order, the ideals that cover
    ideal i: the minimal members of {i + p : p join-irreducible} other than
    i, read off the join-irreducibles' columns.  A proper ideal is maximal
    exactly when its only upper cover is the unit ideal."""

    def __init__(
        self,
        ring: FiniteRing,
        masks: list[int],
        principals: list[int],
        parents: list[tuple[int, int]],
        joins: list[tuple[int, list[int]]],
    ):
        """The sum tree ``enumerate_ideals`` records: ``masks`` are the
        members in creation order, the zero ideal first; member k > 0 is
        member m plus the t-th join-irreducible, for (m, t) = parents[k - 1];
        joins[t] = (g, column), where R*g is the t-th join-irreducible and
        column[m] is member m plus R*g for each member m made before it.
        ``principals`` is R*g for every element g, as ``_principal_masks``
        computes it."""
        self.ring = ring
        self.masks = sorted(masks, key=canonical_key)
        self.id_by_mask = {m: i for i, m in enumerate(self.masks)}
        # the id of R*g for each element g
        self.principal_ids = [self.id_by_mask[m] for m in principals]
        # the tree in lattice ids: (member, parent member, t) in creation
        # order, and each join-irreducible's sums with every member
        ids = [self.id_by_mask[m] for m in masks]
        self._steps = [(ids[k], ids[m], t) for k, (m, t) in enumerate(parents, 1)]
        self._join_gens = [g for g, _ in joins]
        self._join_columns = []
        for column in _join_columns(parents, joins):
            by_id = [0] * len(ids)
            for k, s in enumerate(column):
                by_id[ids[k]] = ids[s]
            self._join_columns.append(by_id)
        full = (1 << ring.size) - 1
        self.proper = [m != full for m in self.masks]
        self.radical_ids = [self.id_by_mask[_radical_mask(ring, m)] for m in self.masks]
        self.upper_covers = [self._upper_covers(i) for i in range(len(self.masks))]
        self.maximal = [
            proper and covers == [self.unit_id]
            for proper, covers in zip(self.proper, self.upper_covers)
        ]
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

    def _upper_covers(self, i: int) -> list[int]:
        """The minimal sums i + p over the join-irreducibles p, other than i.
        Ids ascend with size, so a sum strictly inside j comes before j,
        and j is minimal when no cover kept so far lies inside it."""
        masks = self.masks
        covers: list[int] = []
        for j in sorted({column[i] for column in self._join_columns} - {i}):
            if all(masks[c] & ~masks[j] for c in covers):
                covers.append(j)
        return covers

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

    def _tree_row(self, start: int, columns: list[list[int]]) -> list[int]:
        """The row of ids x with row[0] = start and, for each member k made
        as m + p_t, row[k] = columns[t][row[m]], filled in creation order."""
        row = [0] * len(self.masks)
        row[0] = start
        for k, m, t in self._steps:
            row[k] = columns[t][row[m]]
        return row

    @cached_property
    def sum_table(self) -> list[list[int]]:
        """sums[a][b] is the id of a + b: row a starts at a and joins in one
        join-irreducible per member, a + (m + p) = (a + m) + p."""
        return [self._tree_row(a, self._join_columns) for a in range(len(self))]

    @cached_property
    def product_table(self) -> list[list[int]]:
        """products[a][b] is the id of ab, by a(m + p) = am + ap.  With
        p = R*g, row p is filled the same way from (R*g)(R*h) = R*gh, and
        ap is entry a of row p."""
        sums, mul, principal = self.sum_table, self.ring.mul, self.principal_ids
        gens = self._join_gens
        join_rows = [self._tree_row(0, [sums[principal[mul[g][h]]] for h in gens]) for g in gens]
        return [self._tree_row(0, [sums[row[a]] for row in join_rows]) for a in range(len(self))]

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
        """The first single generator, else the elements the greedy walk
        adds (each one outside the ideal generated so far), pruned of each
        one the others still generate the ideal without; the ideal that a
        set generates is the sum of the principal ideals of its members."""
        masks, principal, sums = self.masks, self.principal_ids, self.sum_table
        mask = masks[ideal_id]
        for g in iter_bits(mask):
            if g and principal[g] == ideal_id:
                return [g]
        gens: list[int] = []
        current = self.zero_id
        for g in iter_bits(mask):
            if not (masks[current] >> g) & 1:
                gens.append(g)
                current = sums[current][principal[g]]
        for g in list(gens):
            rest = [h for h in gens if h != g]
            generated = self.zero_id
            for h in rest:
                generated = sums[generated][principal[h]]
            if generated == ideal_id:
                gens = rest
        return gens

    def render(self, ideal_id: int) -> str:
        names = self.ring.element_names
        return "(" + ", ".join(names[g] for g in self.generators(ideal_id)) + ")"


def enumerate_ideals(ring: FiniteRing, max_ideals: int = DEFAULT_IDEAL_CAP) -> IdealLattice:
    """Complete ideal lattice, in one pass over the distinct principal
    ideals by size.  One already a member is a sum of smaller ones; each
    other p is added to every member found so far.  The members stay closed
    under sums, as (m + p) + m' = (m + m') + p.  Each new member s = m + p
    records its parents (m, p), and each p the sums m + p it made: the sum
    tree ``IdealLattice`` reads its tables from."""
    principals = _principal_masks(ring)
    masks = [1]  # the zero ideal, then the members in creation order
    index = {1: 0}
    parents: list[tuple[int, int]] = []
    joins: list[tuple[int, list[int]]] = []
    first_gen: dict[int, int] = {}
    for g, p in enumerate(principals):
        first_gen.setdefault(p, g)
    for p in sorted(first_gen, key=int.bit_count):
        if p in index:
            continue
        column = []
        for m in range(len(masks)):
            s = _sum_mask(ring, masks[m], p)
            k = index.get(s)
            if k is None:
                if len(masks) >= max_ideals:
                    raise CapExceededError(
                        f"ideal count exceeds cap {max_ideals} for {ring.label}"
                    )
                k = index[s] = len(masks)
                masks.append(s)
                parents.append((m, len(joins)))
            column.append(k)
        joins.append((first_gen[p], column))
    return IdealLattice(ring, masks, principals, parents, joins)


def _join_columns(parents: list[tuple[int, int]], joins) -> list[list[int]]:
    """Each join-irreducible's column m -> m + p over every member, in
    creation indices.  A member k made after p was taken, as m + q, has
    k + p = k when q is p, and else (m + p) + q, where m + p was already a
    member when q was taken, so q's recorded column holds it."""
    out = []
    for t, (_, recorded) in enumerate(joins):
        column = recorded[:]
        for k in range(len(column), len(parents) + 1):
            m, q = parents[k - 1]
            column.append(k if q == t else joins[q][1][column[m]])
        out.append(column)
    return out
