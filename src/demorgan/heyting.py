"""Finite Heyting algebras.

An algebra is built from a finite order relation; meets, joins and
relative pseudocomplements are tabulated up front, with witnesses
raised when the order is not a residuated lattice.  On top of the
basic operations this module provides the two classical law checks
(every negation splits the algebra; every element splits the algebra),
their reformulations in terms of complemented separators and
consistency, the consistency-set operator, and the Boolean algebra of
regular elements.
"""

from __future__ import annotations

from typing import Iterable, Mapping

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


def inclusion_order(masks) -> list:
    """Down-set masks of the inclusion order on a family of bitmask sets:
    bit ``j`` of entry ``i`` is set when ``masks[j]`` is a subset of
    ``masks[i]``."""
    out = []
    for m in masks:
        acc = 0
        for j, other in enumerate(masks):
            if not other & ~m:
                acc |= 1 << j
        out.append(acc)
    return out


class HeytingAlgebra:
    """A finite bounded lattice with relative pseudocomplements.

    Elements are opaque strings; the order is whatever relation the
    algebra was built from.  All operation tables are precomputed.
    """

    __slots__ = (
        "elements", "_idx", "_down", "_up", "_meet", "_join", "_imp",
        "_bot", "_top",
    )

    def __init__(self, elements: Iterable[str], down_masks: Iterable[int]):
        self.elements = tuple(elements)
        self._idx = {e: i for i, e in enumerate(self.elements)}
        if len(self._idx) != len(self.elements):
            raise NotAPartialOrder("duplicate element names")
        if not self.elements:
            raise NotALattice("an algebra needs at least one element")
        n = len(self.elements)
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

        def _max_of(mask, a, b, kind):
            try:
                return down_of[mask]
            except KeyError:
                exc = NotResiduated if kind == "imp" else NotALattice
                what = "relative pseudocomplement" if kind == "imp" else kind
                raise exc(
                    f"elements {self.elements[a]!r} and {self.elements[b]!r} "
                    f"have no {what}"
                ) from None

        up_of = {m: i for i, m in enumerate(up)}
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m = _max_of(down[i] & down[j], i, j, "meet")
                meet[i][j] = meet[j][i] = m
                u = up[i] & up[j]
                try:
                    jj = up_of[u]
                except KeyError:
                    raise NotALattice(
                        f"elements {self.elements[i]!r} and "
                        f"{self.elements[j]!r} have no join"
                    ) from None
                join[i][j] = join[j][i] = jj
        try:
            bot = up.index(full)
            top = down.index(full)
        except ValueError:
            raise NotALattice("the order is not bounded") from None
        imp = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                mask = 0
                db = down[b]
                for x in range(n):
                    if not down[meet[x][a]] & ~db:
                        mask |= 1 << x
                imp[a][b] = _max_of(mask, a, b, "imp")
        self._down = tuple(down)
        self._up = up
        self._meet = tuple(tuple(r) for r in meet)
        self._join = tuple(tuple(r) for r in join)
        self._imp = tuple(tuple(r) for r in imp)
        self._bot = bot
        self._top = top

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
        return self.elements[self._imp[self._i(a)][self._i(b)]]

    def negation(self, a: str) -> str:
        return self.elements[self._imp[self._i(a)][self._bot]]

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
        if not isinstance(other, HeytingAlgebra):
            return NotImplemented
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
    "leq": ...})``.  The reflexive-transitive closure is taken; the
    result must be a residuated bounded lattice, otherwise
    ``NotALattice``/``NotResiduated`` is raised with a witness pair.
    """
    if leq is None:
        if not isinstance(elements, Mapping):
            raise NotAPartialOrder("expected a mapping or an explicit relation")
        data = elements
        elements = data["elements"]
        leq = [tuple(p) for p in data["leq"]]
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
    return HeytingAlgebra(elements, transpose(up))


def implication(H: HeytingAlgebra, a: str, b: str) -> str:
    """Largest x with x meet a below b."""
    return H.implication(a, b)


def negation(H: HeytingAlgebra, a: str) -> str:
    """Pseudocomplement: the implication into the bottom element."""
    return H.negation(a)


def is_de_morgan_algebra(H: HeytingAlgebra) -> bool:
    """Whether neg p join neg neg p is the top element for every p."""
    top = H.top
    return all(
        H.join(H.negation(p), H.negation(H.negation(p))) == top
        for p in H.elements
    )


def is_boolean_algebra(H: HeytingAlgebra) -> bool:
    """Whether p join neg p is the top element for every p."""
    top = H.top
    return all(H.join(p, H.negation(p)) == top for p in H.elements)


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
