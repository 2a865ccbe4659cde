"""Finite Heyting algebras.

An algebra is built from a finite order relation.  Meets, joins and
negations are tabulated up front, relative pseudocomplements on first
use (``from_poset`` at once, raising a witness for an order that is not
a residuated lattice).  This module also provides the two classical law
checks (every negation splits the algebra; every element splits it),
their reformulations in terms of complemented separators and
consistency, the consistency-set operator, and the Boolean algebra of
regular elements.
"""

from __future__ import annotations

from typing import Iterable

from .documents import check_document
from .errors import (
    NotALattice,
    NotAPartialOrder,
    NotResiduated,
    UnknownElement,
)


def transpose(masks) -> tuple:
    """The converse of a relation on ``range(len(masks))`` given by row
    bitmasks: bit ``j`` of row ``i`` is bit ``i`` of row ``j``."""
    out = [0] * len(masks)
    for j, rest in enumerate(masks):
        while rest:
            bit = rest & -rest
            rest ^= bit
            out[bit.bit_length() - 1] |= 1 << j
    return tuple(out)


def _members(mask: int) -> list:
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return out


def inclusion_order(masks) -> list:
    """Down-set masks of the inclusion order on a family of bitmask sets:
    bit ``j`` of entry ``i`` is set when ``masks[j]`` is a subset of
    ``masks[i]``."""
    out = []
    for m in masks:
        rest = ~m
        out.append(sum([1 << j for j, o in enumerate(masks) if not o & rest]))
    return out


class HeytingAlgebra:
    """A finite bounded lattice with relative pseudocomplements.

    Elements are opaque strings; ``down_masks[i]`` is the down-set of
    element ``i`` as a bitmask, and the masks must form a partial order
    (``from_poset`` closes an arbitrary relation first).  Construction
    raises ``NotAPartialOrder`` on equal masks and ``NotALattice`` on a
    missing meet, join or bound, and tabulates meets, joins and
    negations in O(n^2) mask operations.  The a => b table is built by
    an O(n * (n + |covers|)) sweep over the covering pairs c < b on the
    first ``implication`` call, or at construction when some element
    has no pseudocomplement; it raises ``NotResiduated``.  Each error
    names the first pair in index order.
    """

    __slots__ = (
        "elements", "_idx", "_down", "_up", "_meet", "_join", "_neg",
        "_imp", "_bot", "_top",
    )

    def __init__(self, elements: Iterable[str], down_masks: Iterable[int]):
        self.elements = tuple(elements)
        n = len(self.elements)
        self._idx = dict(zip(self.elements, range(n)))
        if len(self._idx) != n:
            raise NotAPartialOrder("duplicate element names")
        if not n:
            raise NotALattice("an algebra needs at least one element")
        down = list(down_masks)
        full = (1 << n) - 1
        up = transpose(down)
        down_of = {}
        for i, m in enumerate(down):
            if m in down_of:
                raise NotAPartialOrder(
                    f"elements {self.elements[down_of[m]]!r} and "
                    f"{self.elements[i]!r} are order-equivalent"
                )
            down_of[m] = i
        up_of = dict(zip(up, range(n)))
        meet, join = [], []
        for i, (d, u) in enumerate(zip(down, up)):
            # left of the diagonal, a row repeats the column of those above
            try:
                m_row = (*[r[i] for r in meet],
                         *map(down_of.__getitem__, [d & x for x in down[i:]]))
                j_row = (*[r[i] for r in join],
                         *map(up_of.__getitem__, [u & x for x in up[i:]]))
            except KeyError:
                # the first pair i <= j without a meet, or else a join
                for j in range(i, n):
                    if d & down[j] not in down_of:
                        raise self._no(NotALattice, i, j, "meet") from None
                    if u & up[j] not in up_of:
                        raise self._no(NotALattice, i, j, "join") from None
            meet.append(m_row)
            join.append(j_row)
        try:
            bot = up.index(full)
            top = down.index(full)
        except ValueError:
            raise NotALattice("the order is not bounded") from None
        # the x with a meet x = bot are the down-set of neg a, if it exists
        neg = [down_of.get(sum(1 << x for x, y in enumerate(row) if y == bot))
               for row in meet]
        self._down = tuple(down)
        self._up = up
        self._meet = tuple(meet)
        self._join = tuple(join)
        self._imp = None
        self._bot = bot
        self._top = top
        if None in neg:
            self._implications()  # raises the first pair in index order
        self._neg = tuple(neg)

    def _implications(self) -> tuple:
        """Tabulate a => b for all pairs; the first pair without one raises."""
        down, meet, n = self._down, self._meet, len(self._down)
        get_down = dict(zip(down, range(n))).get
        # a => b is the greatest x with x meet a <= b.  The set S(a, b) of
        # those x is the union of the buckets {x : x meet a = y} over
        # y <= b.  The down-set of b is b together with the down-sets of
        # its lower covers, so sweeping b upwards (by down-set size) gives
        # S(a, b) as b's own bucket joined with S(a, c) over b's lower
        # covers c.
        strict = [m ^ 1 << i for i, m in enumerate(down)]
        sweep = []
        size = list(map(int.bit_count, down))
        for b in sorted(range(n), key=size.__getitem__):
            below = rest = strict[b]
            while rest:
                bit = rest & -rest
                rest ^= bit
                below &= ~strict[bit.bit_length() - 1]
            if below:
                sweep.append((b, _members(below)))
        imp = []
        for a in range(n):
            hit = [0] * n
            for x, y in enumerate(meet[a]):
                hit[y] |= 1 << x
            for b, below in sweep:
                s = hit[b]
                for c in below:
                    s |= hit[c]
                hit[b] = s
            row = tuple(map(get_down, hit))
            if None in row:
                raise self._no(
                    NotResiduated, a, row.index(None),
                    "relative pseudocomplement",
                )
            imp.append(row)
        self._imp = tuple(imp)
        return self._imp

    def _no(self, exc, a: int, b: int, what: str):
        return exc(
            f"elements {self.elements[a]!r} and {self.elements[b]!r} "
            f"have no {what}"
        )

    # -- queries --------------------------------------------------------

    def _i(self, a: str) -> int:
        try:
            return self._idx[a]
        except KeyError:
            raise UnknownElement(f"unknown element {a!r}") from None

    @property
    def bottom(self) -> str:
        return self.elements[self._bot]

    @property
    def top(self) -> str:
        return self.elements[self._top]

    def leq(self, a: str, b: str) -> bool:
        return bool(self._up[self._i(a)] >> self._i(b) & 1)

    def meet(self, a: str, b: str) -> str:
        return self.elements[self._meet[self._i(a)][self._i(b)]]

    def join(self, a: str, b: str) -> str:
        return self.elements[self._join[self._i(a)][self._i(b)]]

    def implication(self, a: str, b: str) -> str:
        i, j = self._i(a), self._i(b)
        return self.elements[(self._imp or self._implications())[i][j]]

    def negation(self, a: str) -> str:
        return self.elements[self._neg[self._i(a)]]

    def meet_all(self, xs: Iterable[str]) -> str:
        acc = self._top
        for x in xs:
            acc = self._meet[acc][self._i(x)]
        return self.elements[acc]

    def join_all(self, xs: Iterable[str]) -> str:
        acc = self._bot
        for x in xs:
            acc = self._join[acc][self._i(x)]
        return self.elements[acc]

    def is_complemented(self, a: str) -> bool:
        ai = self._i(a)
        return any(
            self._meet[ai][x] == self._bot and self._join[ai][x] == self._top
            for x in range(len(self.elements))
        )

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, HeytingAlgebra):
            return NotImplemented
        if self.elements == other.elements:
            return self._up == other._up
        if set(self.elements) != set(other.elements):
            return False
        return all(
            self.leq(a, b) == other.leq(a, b)
            for a in self.elements
            for b in self.elements
        )

    def __hash__(self):
        return hash(frozenset(self.elements))

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"HeytingAlgebra({len(self.elements)} elements)"


def from_poset(elements, leq=None) -> HeytingAlgebra:
    """Build an algebra from a finite relation.

    ``from_poset(elements, pairs)`` or ``from_poset({"elements": ...,
    "leq": ...})``; a mapping of any other shape raises
    ``NotAPartialOrder`` (see :mod:`demorgan.documents`).  The
    reflexive-transitive closure is taken; the result must be a
    residuated bounded lattice, otherwise ``NotALattice``/
    ``NotResiduated`` is raised with a witness pair.
    """
    if leq is None:
        check_document(elements, "frame", ("elements", "leq"))
        elements, leq = elements["elements"], elements["leq"]
    elements = tuple(elements)
    idx = {e: i for i, e in enumerate(elements)}
    if len(idx) != len(elements):
        raise NotAPartialOrder("duplicate element names")
    n = len(elements)
    up = [1 << i for i in range(n)]
    for a, b in leq:
        if a not in idx:
            raise UnknownElement(f"unknown element {a!r} in order relation")
        if b not in idx:
            raise UnknownElement(f"unknown element {b!r} in order relation")
        up[idx[a]] |= 1 << idx[b]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            rest = acc
            while rest:
                bit = rest & -rest
                rest ^= bit
                acc |= up[bit.bit_length() - 1]
            if acc != up[i]:
                up[i] = acc
                changed = True
    H = HeytingAlgebra(elements, transpose(up))
    H._implications()
    return H


def implication(H: HeytingAlgebra, a: str, b: str) -> str:
    """Largest x with x meet a below b."""
    return H.implication(a, b)


def negation(H: HeytingAlgebra, a: str) -> str:
    """Pseudocomplement: the implication into the bottom element."""
    return H.negation(a)


def is_de_morgan_algebra(H: HeytingAlgebra) -> bool:
    """Whether neg p join neg neg p is the top element for every p."""
    neg, join, top = H._neg, H._join, H._top
    return all(join[q][neg[q]] == top for q in neg)


def is_boolean_algebra(H: HeytingAlgebra) -> bool:
    """Whether p join neg p is the top element for every p."""
    join, top = H._join, H._top
    return all(join[p][q] == top for p, q in enumerate(H._neg))


def has_de_morgan_property(H: HeytingAlgebra) -> bool:
    """Separator form of the De Morgan law, checked exhaustively.

    For each r with r != 0 and neg r != 0 there must be a complemented
    f with f meet r = 0 such that every nonzero x killed by f still
    meets r.
    """
    bot = H.bottom
    complemented = [f for f in H.elements if H.is_complemented(f)]
    for r in H.elements:
        if r == bot or H.negation(r) == bot:
            continue
        if not any(
            H.meet(f, r) == bot
            and all(
                H.meet(x, r) != bot
                for x in H.elements
                if x != bot and H.meet(x, f) == bot
            )
            for f in complemented
        ):
            return False
    return True


def has_boolean_property(H: HeytingAlgebra) -> bool:
    """Whether the only element meeting every nonzero element is the top."""
    bot, top = H.bottom, H.top
    nonzero = [x for x in H.elements if x != bot]
    return all(
        any(H.meet(x, r) == bot for x in nonzero)
        for r in H.elements
        if r != top
    )


def cons(H: HeytingAlgebra, h: str) -> frozenset:
    """The set of elements whose meet with ``h`` is nonzero."""
    bot = H.bottom
    H._i(h)
    return frozenset(x for x in H.elements if H.meet(x, h) != bot)


def regular_elements(H: HeytingAlgebra) -> HeytingAlgebra:
    """The algebra of elements fixed by double negation.

    Meets are inherited; joins are recomputed by the induced order (the
    join of a and b is the double negation of their lattice join).  The
    result is always a Boolean algebra.
    """
    carrier = [
        h for h in H.elements if H.negation(H.negation(h)) == h
    ]
    pairs = [
        (a, b) for a in carrier for b in carrier if H.leq(a, b)
    ]
    return from_poset(carrier, pairs)
