"""Finite frames and their nuclei.

A finite frame is a finite Heyting algebra viewed as the open-set
lattice of a point-free space, so frames are plain
:class:`~demorgan.heyting.HeytingAlgebra` values (completeness is
automatic from finiteness).  Nuclei (inflationary, idempotent,
meet-preserving endomaps) stand for the quotients of the frame; the
open and closed nuclei on an element, density, closure and the
dense-closed factorization all live here, together with the quotient
construction that collapses every element of the form
``u join (not u)`` with ``u`` regular, and the two topological
classifications (extremal disconnectedness, almost discreteness).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import (
    BoundExceeded,
    NotIdempotent,
    NotInflationary,
    NotMeetPreserving,
    UnknownElement,
)
from .heyting import HeytingAlgebra, from_poset


class Nucleus:
    """An inflationary idempotent meet-preserving endomap of a frame."""

    __slots__ = ("frame", "table", "_items")

    def __init__(self, frame: HeytingAlgebra, table: Mapping[str, str]):
        self.frame = frame
        self.table = dict(table)
        self._items = tuple(sorted(self.table.items()))

    def __call__(self, a: str) -> str:
        try:
            return self.table[a]
        except KeyError:
            raise UnknownElement(f"unknown element {a!r}") from None

    def leq(self, other: "Nucleus") -> bool:
        """Pointwise order; smaller nuclei have larger fixsets."""
        F = self.frame
        return all(F.leq(self.table[a], other.table[a]) for a in F.elements)

    def is_identity(self) -> bool:
        return all(v == a for a, v in self.table.items())

    def __eq__(self, other):
        if not isinstance(other, Nucleus):
            return NotImplemented
        return self.frame == other.frame and self.table == other.table

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        body = ", ".join(f"{a}->{v}" for a, v in self._items)
        return f"Nucleus({body})"


def validate_nucleus(F: HeytingAlgebra, table: Mapping[str, str]) -> Nucleus:
    """Check the three nucleus laws, naming a witness on failure."""
    for a in F.elements:
        if a not in table:
            raise UnknownElement(f"table is not total: missing {a!r}")
    for a in table:
        if a not in set(F.elements):
            raise UnknownElement(f"table mentions unknown element {a!r}")
        if table[a] not in set(F.elements):
            raise UnknownElement(f"table value {table[a]!r} is unknown")
    for a in F.elements:
        if not F.leq(a, table[a]):
            raise NotInflationary(f"j({a!r}) = {table[a]!r} is not above {a!r}")
    for a in F.elements:
        if table[table[a]] != table[a]:
            raise NotIdempotent(f"j(j({a!r})) differs from j({a!r})")
    for a in F.elements:
        for b in F.elements:
            if table[F.meet(a, b)] != F.meet(table[a], table[b]):
                raise NotMeetPreserving(
                    f"j({a!r} meet {b!r}) differs from j({a!r}) meet j({b!r})"
                )
    return Nucleus(F, table)


def identity_nucleus(F: HeytingAlgebra) -> Nucleus:
    return Nucleus(F, {a: a for a in F.elements})


def top_nucleus(F: HeytingAlgebra) -> Nucleus:
    top = F.top
    return Nucleus(F, {a: top for a in F.elements})


def open_nucleus(F: HeytingAlgebra, a: str) -> Nucleus:
    """x maps to a -> x."""
    F._i(a)
    return Nucleus(F, {x: F.implication(a, x) for x in F.elements})


def closed_nucleus(F: HeytingAlgebra, a: str) -> Nucleus:
    """x maps to a join x."""
    F._i(a)
    return Nucleus(F, {x: F.join(a, x) for x in F.elements})


def _nucleus_from_fixset(F: HeytingAlgebra, fixed: frozenset) -> Nucleus:
    """The nucleus sending a to the least fixed element above it."""
    table = {}
    for a in F.elements:
        table[a] = F.meet_all(s for s in fixed if F.leq(a, s))
    return Nucleus(F, table)


def enumerate_nuclei(F: HeytingAlgebra, *, max_size: int = 8) -> tuple:
    """All nuclei of ``F``.

    Candidate fixsets are the subsets containing the top element that
    are closed under meets and under implication from arbitrary
    elements; each induced map is validated against the three laws.
    """
    n = len(F.elements)
    if n > max_size:
        raise BoundExceeded(
            f"frame has {n} elements, above the nucleus bound {max_size}"
        )
    elems = F.elements
    top = F.top
    rest = [e for e in elems if e != top]
    out = []
    for bits in range(1 << len(rest)):
        fixed = frozenset(
            [top] + [e for i, e in enumerate(rest) if bits >> i & 1]
        )
        if any(
            F.meet(a, b) not in fixed for a in fixed for b in fixed
        ):
            continue
        if any(
            F.implication(x, s) not in fixed for x in elems for s in fixed
        ):
            continue
        out.append(validate_nucleus(F, _nucleus_from_fixset(F, fixed).table))
    return tuple(out)


def fixset(F: HeytingAlgebra, j: Nucleus) -> HeytingAlgebra:
    """The frame of fixpoints of ``j`` (meets inherited, joins via j)."""
    carrier = [a for a in F.elements if j(a) == a]
    pairs = [(a, b) for a in carrier for b in carrier if F.leq(a, b)]
    return from_poset(carrier, pairs)


def is_dense_nucleus(F: HeytingAlgebra, j: Nucleus) -> bool:
    """Whether ``j`` fixes the bottom element."""
    return j(F.bottom) == F.bottom


def closure_nucleus(F: HeytingAlgebra, j: Nucleus) -> Nucleus:
    """The closed nucleus on j(0); the closure of the sublocale of j."""
    return closed_nucleus(F, j(F.bottom))


def dense_closed_factorization(F: HeytingAlgebra, j: Nucleus):
    """Split ``j`` as a closed part followed by a dense residual.

    Returns ``(c, d)`` where ``c`` is the closed nucleus on j(0) acting
    on ``F`` and ``d`` is the restriction of ``j`` to the fixset of
    ``c``, on which it is dense.
    """
    closed_part = closure_nucleus(F, j)
    sub = fixset(F, closed_part)
    residual = Nucleus(sub, {a: j(a) for a in sub.elements})
    return closed_part, residual


def filter_generated(F: HeytingAlgebra, S: Iterable[str]) -> frozenset:
    """Upward closure of all finite meets of ``S``; principal since the
    frame is finite.  An empty ``S`` gives the trivial filter."""
    a = F.meet_all(S)
    return frozenset(x for x in F.elements if F.leq(a, x))


def quotient_by_filter(F: HeytingAlgebra, S: Iterable[str]) -> Nucleus:
    """The frame quotient collapsing the filter generated by ``S`` to
    the top, realized as the open nucleus on the meet of ``S``."""
    return open_nucleus(F, F.meet_all(S))


def demorganize_frame(F: HeytingAlgebra):
    """Quotient by the filter generated by {u join not u : u regular}.

    Returns the (dense) nucleus and its fixset, the largest dense
    sublocale satisfying the De Morgan law.
    """
    regular = [
        u for u in F.elements if F.negation(F.negation(u)) == u
    ]
    generators = [F.join(u, F.negation(u)) for u in regular]
    j = quotient_by_filter(F, generators)
    return j, fixset(F, j)


def is_extremally_disconnected(F: HeytingAlgebra) -> bool:
    """Whether the closure of every open nucleus is again open."""
    opens = {tuple(sorted(open_nucleus(F, b).table.items())) for b in F.elements}
    for a in F.elements:
        closure = closure_nucleus(F, open_nucleus(F, a))
        if tuple(sorted(closure.table.items())) not in opens:
            return False
    return True


def is_almost_discrete(F: HeytingAlgebra) -> bool:
    """Whether every open nucleus is a closed nucleus."""
    closeds = {
        tuple(sorted(closed_nucleus(F, b).table.items())) for b in F.elements
    }
    return all(
        tuple(sorted(open_nucleus(F, a).table.items())) in closeds
        for a in F.elements
    )


def nucleus_meet(F: HeytingAlgebra, j: Nucleus, k: Nucleus) -> Nucleus:
    """Meet in the lattice of nuclei; computed pointwise."""
    return validate_nucleus(
        F, {a: F.meet(j(a), k(a)) for a in F.elements}
    )


def nucleus_join(F: HeytingAlgebra, j: Nucleus, k: Nucleus) -> Nucleus:
    """Join in the lattice of nuclei; the nucleus whose fixset is the
    intersection of the two fixsets."""
    fixed = frozenset(
        a for a in F.elements if j(a) == a and k(a) == a
    )
    return validate_nucleus(F, _nucleus_from_fixset(F, fixed).table)
