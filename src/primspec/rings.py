"""Finite commutative rings with identity, built from a small constructor grammar.

Grammar (ASCII, whitespace-insensitive)::

    spec := "Zn(" n ")"                       integers mod n, n >= 2
          | "GF(" q ")" | "GF(" p "^" k ")"   field with q = p^k elements
          | "Quot(" spec "," poly ")"         base[x]/(poly), base one of Zn/GF
          | "Prod(" spec "," spec ")"         direct product, componentwise ops
    poly := term (("+" | "-") term)*          e.g.  x^2+x+1,  2x^3-1
    term := int | int "*"? ["x" ["^" int]] | "x" ["^" int]

Quotient moduli must be monic of degree >= 1; integer coefficients are
reduced mod the base characteristic.  Elements of every constructed ring
are indexed 0..size-1 with index 0 the zero element; addition,
multiplication and negation are fully materialized tables.
"""

from __future__ import annotations

import functools
import itertools
import sys
from operator import itemgetter

from .records import record
from .zsymbolic import MR_EXACT_BELOW, is_probable_prime

DEFAULT_ELEMENT_CAP = 1024
# a chain of this many Prods has more than 2^64 elements; deeper nesting is
# rejected whatever the cap, so every recursion over a spec stays shallow
MAX_PROD_DEPTH = 64


class RingSpecError(ValueError):
    """Malformed or invalid ring-spec string."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class CapExceededError(RuntimeError):
    """A construction would exceed a configured cap."""


def _over_cap(size: int, cap: int, bound: str = "element cap") -> CapExceededError:
    # a size past 64 bits is shown by magnitude: formatting an unbounded int
    # costs time and fails past the interpreter's digit limit
    shown = size if size.bit_length() <= 64 else f"at least 2^{size.bit_length() - 1}"
    return CapExceededError(f"ring of size {shown} exceeds {bound} {cap}")


def _iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n, for n >= 1 and k >= 1 (Newton from above)."""
    r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q == p**k and p prime, or None.

    Takes the largest k for which q is a perfect k-th power; q is a prime
    power exactly when that root is prime.  The root is tested with
    ``is_probable_prime`` (exact below 3.3e24), not by trial division, so
    this stays cheap however large q is.
    """
    if q < 2:
        return None
    for k in range(q.bit_length(), 0, -1):
        r = _iroot(q, k)
        if r >= 2 and r**k == q:
            return (r, k) if is_probable_prime(r) else None
    return None


# ---------------------------------------------------------------------------
# Spec expressions


class ZnSpec(record("ZnSpec", "n")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"Zn({self.n})"


class GFSpec(record("GFSpec", "p k")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"


class QuotSpec(record("QuotSpec", "base modulus")):
    """base[x]/(modulus) for a ZnSpec or GFSpec base; the modulus is a monic
    tuple of little-endian base-element indices."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"Quot({self.base}, {render_poly(self.modulus)})"

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def is_galois_ring(self) -> bool:
        """True when this is Z_{p^s}[x]/(h) with h irreducible mod p."""
        if isinstance(self.base, GFSpec):
            if self.base.k != 1:
                return False
            p = self.base.p
        else:
            pk = prime_power(self.base.n)
            if pk is None:
                return False
            p = pk[0]
        reduced = [c % p for c in self.modulus]
        if reduced[-1] != 1:
            return False
        return _fp_is_irreducible(reduced, p)


class ProdSpec(record("ProdSpec", "left right")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"Prod({self.left}, {self.right})"


RingSpecExpr = ZnSpec | GFSpec | QuotSpec | ProdSpec


def spec_size(spec: RingSpecExpr) -> int:
    if isinstance(spec, ZnSpec):
        return spec.n
    if isinstance(spec, GFSpec):
        return spec.p**spec.k
    if isinstance(spec, QuotSpec):
        return spec_size(spec.base) ** spec.degree
    return spec_size(spec.left) * spec_size(spec.right)


def spec_characteristic(spec: ZnSpec | GFSpec) -> int:
    return spec.n if isinstance(spec, ZnSpec) else spec.p


def render_poly(coeffs: tuple[int, ...]) -> str:
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}x" if e == 1 else f"{head}x^{e}")
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# Parsing


class _Parser:
    def __init__(self, text: str, max_elements: int):
        self.text = text
        self.pos = 0
        self.cap = max_elements

    def error(self, message: str):
        raise RingSpecError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def _digits(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error("expected integer")
        return self.text[start : self.pos]

    def parse_size_bound(self, exponent: bool = False) -> int:
        """An integer the ring size is at least (with ``exponent``, a k with
        2^k at most the size); a literal with more digits than the cap is
        rejected before it is converted."""
        digits = self._digits().lstrip("0") or "0"
        if len(digits) > len(str(self.cap)):
            bound = f"10^{len(digits) - 1}"
            raise CapExceededError(
                f"ring of size at least {f'2^({bound})' if exponent else bound} "
                f"exceeds element cap {self.cap}"
            )
        return int(digits)

    def parse_coefficient(self, char: int) -> int:
        """A coefficient literal of any length, reduced exactly mod ``char``
        without converting the whole literal."""
        digits = self._digits()
        value = 0
        for start in range(0, len(digits), 18):
            chunk = digits[start : start + 18]
            value = (value * 10 ** len(chunk) + int(chunk)) % char
        return value

    def parse_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            self.error("expected constructor name")
        return self.text[start : self.pos]

    def parse_expr(self, depth: int = 0) -> RingSpecExpr:
        """One ring expression inside ``depth`` enclosing Prods."""
        name = self.parse_name()
        if name == "Zn":
            self.expect("(")
            n = self.parse_size_bound()
            self.expect(")")
            if n < 2:
                self.error("Zn modulus must be at least 2")
            self._check_cap(n)
            return ZnSpec(n)
        if name == "GF":
            self.expect("(")
            first = self.parse_size_bound()
            if self.peek() == "^":
                self.pos += 1
                if first < 2:  # the exponent bound below needs first >= 2
                    self.error(f"{first} is not prime")
                k = self.parse_size_bound(exponent=True)
                self.expect(")")
                if k < 1:
                    self.error("GF exponent must be at least 1")
                self._check_power_cap(first, k)
                if not is_probable_prime(first):
                    self.error(f"{first} is not prime")
                p = first
            else:
                self.expect(")")
                self._check_cap(first)
                pk = prime_power(first)
                if pk is None:
                    self.error(f"{first} is not a prime power")
                p, k = pk
            if p >= MR_EXACT_BELOW:
                self.error(f"characteristic {p} is not below {MR_EXACT_BELOW}: primality unproven")
            return GFSpec(p, k)
        if name == "Quot":
            self.expect("(")
            start = self.pos
            # checked before parsing the base, so no Quot nests in another
            if self.parse_name() not in ("Zn", "GF"):
                self.error("Quot base must be Zn or GF")
            self.pos = start
            base = self.parse_expr()
            self.expect(",")
            coeffs = self.parse_poly(spec_characteristic(base))
            self.expect(")")
            degree = max(coeffs)
            self._check_power_cap(spec_size(base), degree)
            return QuotSpec(base, tuple(coeffs.get(e, 0) for e in range(degree + 1)))
        if name == "Prod":
            # every factor has at least 2 elements, so a chain of depth + 1
            # Prods has at least 2^(depth + 2): the nesting is bounded by the cap
            self._check_power_cap(2, depth + 2)
            if depth >= MAX_PROD_DEPTH:
                self.error(f"Prod nested deeper than {MAX_PROD_DEPTH}")
            self.expect("(")
            left = self.parse_expr(depth + 1)
            self.expect(",")
            right = self.parse_expr(depth + 1)
            self.expect(")")
            self._check_cap(spec_size(left) * spec_size(right))
            return ProdSpec(left, right)
        self.error(f"unknown constructor '{name}'")

    def parse_poly(self, char: int) -> dict[int, int]:
        """Monic polynomial of degree >= 1, as {exponent: nonzero coefficient
        mod char}."""
        coeffs: dict[int, int] = {}
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        while True:
            coef, exp = self.parse_term(char)
            coeffs[exp] = coeffs.get(exp, 0) + sign * coef
            nxt = self.peek()
            if nxt == "+":
                sign = 1
            elif nxt == "-":
                sign = -1
            else:
                break
            self.pos += 1
        reduced = {e: c % char for e, c in coeffs.items() if c % char}
        degree = max(reduced, default=0)
        if degree < 1:
            self.error("modulus must have degree at least 1")
        if reduced[degree] != 1:
            self.error("modulus must be monic")
        return reduced

    def parse_term(self, char: int) -> tuple[int, int]:
        """One term as (coefficient mod char, exponent).  An exponent literal
        longer than the cap is rejected as over cap, even in a term that
        would cancel."""
        ch = self.peek()
        if ch.isdecimal():
            coef = self.parse_coefficient(char)
            if self.peek() == "*":
                self.pos += 1
                if self.peek() != "x":
                    self.error("expected 'x' after '*'")
        elif ch == "x":
            coef = 1
        else:
            self.error("expected polynomial term")
        if self.peek() != "x":
            return coef, 0
        self.pos += 1
        if self.peek() == "^":
            self.pos += 1
            return coef, self.parse_size_bound(exponent=True)
        return coef, 1

    def expect_end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")

    def _check_cap(self, size: int):
        if size > self.cap:
            raise _over_cap(size, self.cap)

    def _check_power_cap(self, base: int, exp: int):
        """Cap check on a size base^exp with base >= 2 that never builds a
        power beyond the square of the cap."""
        low_bits = exp * (base.bit_length() - 1)  # base^exp >= 2^low_bits
        if low_bits >= self.cap.bit_length():
            raise CapExceededError(
                f"ring of size at least 2^{low_bits} exceeds element cap {self.cap}"
            )
        self._check_cap(base**exp)


def parse_ring_spec(text: str, max_elements: int = DEFAULT_ELEMENT_CAP) -> RingSpecExpr:
    """Parse a ring-spec string into a validated expression."""
    parser = _Parser(text, max_elements)
    expr = parser.parse_expr()
    parser.expect_end()
    return expr


# ---------------------------------------------------------------------------
# Polynomials over F_p (for finding GF moduli and the Galois-ring flag)


def _fp_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    num = num[:]
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(len(num) - dd, 0)
    for e in range(len(num) - 1, dd - 1, -1):
        c = num[e] * inv_lead % p
        if c:
            quot[e - dd] = c
            for j, dc in enumerate(den):
                num[e - dd + j] = (num[e - dd + j] - c * dc) % p
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _fp_is_irreducible(poly: list[int], p: int) -> bool:
    degree = len(poly) - 1
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            _, rem = _fp_divmod(list(poly), den, p)
            if not rem:
                return False
    return True


@functools.cache
def find_irreducible_poly(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible polynomial of degree k over F_p, in lex order;
    the answer depends on (p, k) alone, so each pair is searched once."""
    for tail in itertools.product(range(p), repeat=k):
        cand = list(tail) + [1]
        if _fp_is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible polynomial of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# Ring construction


class FiniteRing:
    """A finite commutative ring with identity, as materialized tables."""

    def __init__(
        self,
        size: int,
        add: list[list[int]],
        mul: list[list[int]],
        neg: list[int],
        one_index: int,
        label: str,
        element_names: list[str],
    ):
        self.size = size
        self.add = add
        self.mul = mul
        self.neg = neg
        self.zero_index = 0
        self.one_index = one_index
        self.label = label
        self.element_names = element_names

    def __repr__(self) -> str:
        return f"FiniteRing({self.label}, size={self.size})"

    def characteristic(self) -> int:
        c, acc = 1, self.one_index
        while acc != 0:
            acc = self.add[acc][self.one_index]
            c += 1
        return c

    @functools.cached_property
    def top_powers(self) -> list[int]:
        """For each element x, x^N for N the least power of two >= size,
        by squaring every element ceil(log2 size) times.

        The powers of x repeat by x^(size + 1), so if some power of x lies
        in an ideal I, one of exponent at most size does, and every later
        power stays in I: x is in rad(I) exactly when x^N is in I."""
        mul = self.mul
        top = list(range(self.size))
        for _ in range((self.size - 1).bit_length()):
            top = [mul[t][t] for t in top]
        return top


def unit_and_nilpotent_flags(ring: FiniteRing, r: int) -> tuple[bool, bool, int | None]:
    """(is_unit, is_nilpotent, least n with r^n = 0 or None)."""
    if not 0 <= r < ring.size:
        raise IndexError(f"element index {r} out of range")
    one = ring.one_index
    is_unit = one in ring.mul[r]
    if is_unit and one != 0:
        return True, False, None  # a unit of a non-zero ring is not nilpotent
    seen = set()
    cur, n = r, 1
    while cur not in seen:
        if cur == 0:
            return is_unit, True, n
        seen.add(cur)
        cur = ring.mul[cur][r]
        n += 1
    return is_unit, False, None


def _build_zn_tables(n: int):
    """Tables of Z/n from slices.  In ``cycle``, 0, 1, ..., n - 1 repeated n
    times, entry k is k mod n, so row i of the product table is the stepped
    slice cycle[: i * n : i] (entry j is i*j mod n).  Row i of the addition
    table is 0, ..., n - 1 rotated left by i, a slice of that list written
    twice, and the negatives 0, n - 1, ..., 1 are a reversed slice."""
    r = list(range(n))
    cycle = r * n
    mul = [[0] * n] + [cycle[: i * n : i] for i in range(1, n)]
    del cycle  # n^2 entries, freed before the addition table is made
    twice = r * 2
    add = [twice[i : i + n] for i in range(n)]
    neg = [0] + r[:0:-1]
    return add, mul, neg


def _poly_element_name(coeffs: list[int], coeff_names: list[str], var: str) -> str:
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        name = coeff_names[c]
        if e == 0:
            terms.append(name)
            continue
        var_part = var if e == 1 else f"{var}^{e}"
        if name == "1":
            terms.append(var_part)
        elif name.isdigit():
            terms.append(f"{name}{var_part}")
        else:
            terms.append(f"({name}){var_part}")
    return "+".join(terms) if terms else coeff_names[0]


def _build_quotient(base: FiniteRing, modulus: tuple[int, ...], var: str, label: str) -> FiniteRing:
    """Tables of base[var]/(modulus) for a monic modulus of degree d.

    The element c0 + c1 x + ... + c_{d-1} x^{d-1} has index
    idx = c0 + b*(c1 + b*(...)), b the base size, so idx % b is its constant
    coefficient and idx // b the element c1 + c2 x + ... (whose top digit
    is 0).  The tables are made from C-level list operations (slices,
    ``itemgetter`` gathers and ``chain``s of prebuilt blocks), with one
    interpreted step per entry only in the first b columns of ``mul``:

    - add: digits add without carry, so the additive group is base^d, and
      the index t*b^(d-1) + rest is the pair (t, rest) of a product ring:
      add is ``_by_rows`` applied d - 1 times, from badd.
    - neg[a] = bneg[a % b] + b*neg[a // b].
    - xshift[a] = x*a shifts the digits up and folds the top digit t back
      through x^d = -(modulus - x^d): with top = b^(d-1) and fold[t] the
      index of -t*(modulus - x^d), xshift[a] = add[(a % top)*b][fold[a // top]].
      Its k-fold composite xk[a] = x^k * a is k gathers of xshift.
    - mul: the scalar columns c < b of row a follow the digit recurrence
      mul[a][c] = bmul[a % b][c] + b*mul[a // b][c].  For k = 1, ..., d-1
      an index c + b^k*h with c < b^k and a scalar h is the element
      c + x^k h, so a*(c + x^k h) = x^k (a*h) + a*c and, addition being
      commutative, mul[a][c + b^k*h] = add[xk[mul[a][h]]][mul[a][c]]: for
      each scalar h the next b^k columns are row xk[mul[a][h]] of add
      gathered through the first b^k.

    Rows are filled in increasing a, so every row read is finished.
    """
    deg = len(modulus) - 1
    b = base.size
    size = b**deg
    top = size // b  # b^(d-1): the indices below it have top digit 0
    badd, bmul, bneg = base.add, base.mul, base.neg
    add = badd
    while len(add) < size:
        add = _by_rows(badd, add, len(add))
    neg = [0]
    for a in range(1, size):
        neg.append(bneg[a % b] + b * neg[a // b])

    fold = [
        sum(bneg[bmul[t][mc]] * b**e for e, mc in enumerate(modulus[:-1])) for t in range(b)
    ]
    xshift = [add[(a % top) * b][fold[a // top]] for a in range(size)]
    xpowers = []  # xk for k = 1, ..., d-1
    xk = range(size)
    for _ in range(deg - 1):
        xk = itemgetter(*xk)(xshift)
        xpowers.append(xk)

    mul = [[0] * size]
    for a in range(1, size):
        row = [x + b * h for x, h in zip(bmul[a % b], mul[a // b])]
        for xk in xpowers:
            gather = itemgetter(*row)
            for v in row[1:b]:
                row += gather(add[xk[v]])
        mul.append(row)

    names = []
    for idx in range(size):
        coeffs, rest = [], idx
        for _ in range(deg):
            rest, c = divmod(rest, b)
            coeffs.append(c)
        names.append(_poly_element_name(coeffs, base.element_names, var))
    return FiniteRing(size, add, mul, neg, base.one_index, label, names)


def _by_rows(left_table: list[list[int]], right_table: list[list[int]], rs: int):
    """A product-ring table from its factors' tables, the pair (i, j)
    having index i * rs + j: row (i, j) holds left[i][k] * rs + right[j][m]
    at column (k, m).  For each right row j and left value v the block of
    v * rs + y over y in right[j] is the slice of indices v * rs, ...,
    v * rs + rs - 1 gathered through right[j], and row (i, j) is the
    ``chain`` of the blocks of j over the entries v of left[i].  A factor
    of a spec has at least 2 elements, so every gather yields a tuple."""
    r = list(range(len(left_table) * rs))
    slices = [r[v : v + rs] for v in range(0, len(r), rs)]
    blocks = [list(map(itemgetter(*right_row), slices)) for right_row in right_table]
    return [
        list(itertools.chain.from_iterable(map(row_blocks.__getitem__, left_row)))
        for left_row in left_table
        for row_blocks in blocks
    ]


def _build_product(left: FiniteRing, right: FiniteRing, label: str) -> FiniteRing:
    rs = right.size
    size = left.size * rs
    add = _by_rows(left.add, right.add, rs)
    mul = _by_rows(left.mul, right.mul, rs)
    neg = [left.neg[i] * rs + right.neg[j] for i in range(left.size) for j in range(rs)]
    one = left.one_index * rs + right.one_index
    names = [
        f"({ln},{rn})" for ln in left.element_names for rn in right.element_names
    ]
    return FiniteRing(size, add, mul, neg, one, label, names)


def _checked_size(spec: RingSpecExpr, max_elements: int) -> int:
    """The size of ``spec``; CapExceededError past the cap, or past
    sys.maxsize, beyond which no table can be indexed whatever the cap."""
    size = spec_size(spec)
    if size > max_elements:
        raise _over_cap(size, max_elements)
    if size > sys.maxsize:
        raise _over_cap(size, sys.maxsize, "the index bound sys.maxsize =")
    return size


def build_ring(spec: RingSpecExpr, max_elements: int = DEFAULT_ELEMENT_CAP) -> FiniteRing:
    """Materialize the ring described by a validated spec expression.  The
    size is checked before anything is allocated; no factor is larger than
    the whole, so the check guards every factor too."""
    size = _checked_size(spec, max_elements)
    if isinstance(spec, ZnSpec) or isinstance(spec, GFSpec) and spec.k == 1:
        if size < 2:
            raise RingSpecError("Zn modulus must be at least 2")
        add, mul, neg = _build_zn_tables(size)
        return FiniteRing(size, add, mul, neg, 1, str(spec), [str(i) for i in range(size)])
    if isinstance(spec, GFSpec):
        base = build_ring(ZnSpec(spec.p), max_elements)
        modulus = find_irreducible_poly(spec.p, spec.k)
        return _build_quotient(base, modulus, "a", str(spec))
    if isinstance(spec, QuotSpec):
        base = build_ring(spec.base, max_elements)
        return _build_quotient(base, spec.modulus, "x", str(spec))
    if isinstance(spec, ProdSpec):
        left = build_ring(spec.left, max_elements)
        right = build_ring(spec.right, max_elements)
        return _build_product(left, right, str(spec))
    raise TypeError(f"not a ring spec: {spec!r}")


def _additive_generators(ring: FiniteRing) -> list[int]:
    """A greedy additive generating set: each element that is not yet a sum
    of earlier generators becomes one.  A new generator g adds the cosets
    reached + g, reached + 2g, ... until a multiple of g lands back inside,
    so a group of n elements needs at most log2 n generators."""
    add = ring.add
    reached, span, gens = {0}, [0], []
    for g in range(ring.size):
        if g in reached:
            continue
        gens.append(g)
        t = g
        while t not in reached:
            coset = {add[t][s] for s in span} - reached
            reached |= coset
            span += coset
            t = add[t][g]
    return gens


def check_ring_axioms(ring: FiniteRing) -> list[str]:
    """Verify the commutative-ring axioms on the tables, on every element.

    The pairwise laws are checked on every pair.  The triple laws are
    checked through a generating set G of the additive group:
    (a+g)+c = a+(g+c) and a(g+c) = ag+ac for every g in G and all a, c, and
    multiplicative associativity on triples from G.  Every element is a sum
    of generators, and the elements for which each law holds are closed
    under + (Light's associativity test), so this covers all n^3 triples in
    O(n^2 |G|) lookups.  Returns a list of human-readable violations; the
    triple laws report their first one.
    """
    n = ring.size
    add, mul, neg = ring.add, ring.mul, ring.neg
    bad: list[str] = []
    for i in range(n):
        if add[0][i] != i:
            bad.append(f"0 + {i} != {i}")
        if add[i][neg[i]] != 0:
            bad.append(f"{i} + (-{i}) != 0")
        if mul[ring.one_index][i] != i:
            bad.append(f"1 * {i} != {i}")
    if ring.one_index == ring.zero_index:
        bad.append("identity equals zero")
    for i in range(n):
        for j in range(i + 1, n):
            if add[i][j] != add[j][i]:
                bad.append(f"{i} + {j} not commutative")
            if mul[i][j] != mul[j][i]:
                bad.append(f"{i} * {j} not commutative")
    if bad:
        return bad
    gens = _additive_generators(ring)
    for g in gens:
        g_plus = add[g]
        for a in range(n):
            # entry c of each list: (a+g)+c against a+(g+c)
            if add[add[a][g]] != [add[a][y] for y in g_plus]:
                c = next(c for c in range(n) if add[add[a][g]][c] != add[a][g_plus[c]])
                return [f"({a}+{g})+{c} not associative"]
            # entry c of each list: a(g+c) against ag+ac
            row, ag_plus = mul[a], add[mul[a][g]]
            if [row[y] for y in g_plus] != [ag_plus[y] for y in row]:
                c = next(c for c in range(n) if row[g_plus[c]] != ag_plus[row[c]])
                return [f"{a}*({g}+{c}) not distributive"]
    for g, h, k in itertools.product(gens, repeat=3):
        if mul[mul[g][h]][k] != mul[g][mul[h][k]]:
            return [f"({g}*{h})*{k} not associative"]
    return []
