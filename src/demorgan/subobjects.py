"""Subobject algebras of representables, used as an independent oracle.

For a site (C, J) and an object c, the closed sieves on c form a
Heyting algebra: meet is intersection, join is the closure of the
union, implication is computed arrowwise.  The sheaf topos satisfies
De Morgan's law (resp. excluded middle) exactly when every one of
these algebras is a De Morgan (resp. Boolean) algebra, which gives a
decision route entirely separate from the covering criteria in
:mod:`demorgan.topology`.

The bridge in the other direction, ``frame_as_site``, turns a finite
frame into its poset site with the canonical coverage, so the frame
classifications can be replayed through the site machinery.
"""

from __future__ import annotations

from itertools import islice

from .errors import BoundExceeded
from .fincat import FiniteCategory
from .frames import _points
from .heyting import (
    HeytingAlgebra,
    inclusion_order,
    is_boolean_algebra,
    is_de_morgan_algebra,
)
from .sieves import Sieve
from .topology import GrothendieckTopology, _closed_masks, _same_category

_MAX_CARRIER = 200


def _sieve_name(C: FiniteCategory, mask: int) -> str:
    return "{" + ",".join(sorted(C._mask_to_members(mask))) + "}"


class ClosedSieveAlgebra(HeytingAlgebra):
    """The Heyting algebra of J-closed sieves on one object.

    Elements are named by their sorted member lists; the operations
    are those of the inclusion order.
    """

    __slots__ = ("site", "base", "_carrier")

    def __init__(
        self,
        C: FiniteCategory,
        J: GrothendieckTopology,
        c: str,
        *,
        max_arrows_into: int = 16,
    ):
        C = _same_category(C, J)
        ci = C._object_index(c)
        # listing stops at the first closed sieve past the bound
        carrier = tuple(islice(
            _closed_masks(C, J._least, ci, max_arrows_into), _MAX_CARRIER + 1
        ))
        if len(carrier) > _MAX_CARRIER:
            raise BoundExceeded(
                f"more than {_MAX_CARRIER} closed sieves on {c!r}; the "
                f"subobject algebra is too large"
            )
        super().__init__(
            [_sieve_name(C, m) for m in carrier], inclusion_order(carrier)
        )
        self.site = (C, J)
        self.base = c
        self._carrier = carrier

    def sieve_of(self, name: str) -> Sieve:
        """The closed sieve named ``name``."""
        C, i = self.site[0], self._idx[name]
        return Sieve(self.base, C._mask_to_members(self._carrier[i]))


def closed_sieve_algebra(
    C: FiniteCategory,
    J: GrothendieckTopology,
    c: str,
    *,
    max_arrows_into: int = 16,
) -> ClosedSieveAlgebra:
    """The subobject algebra of the representable at ``c`` in the sheaf
    topos, as a Heyting algebra of closed sieves."""
    return ClosedSieveAlgebra(C, J, c, max_arrows_into=max_arrows_into)


def _oracle(C, J, algebra_laws, max_arrows_into):
    """For each of ``algebra_laws``, whether every closed-sieve algebra
    satisfies it.  Each algebra is built once and checked against the
    laws that still hold; no algebra is built once every law has
    failed."""
    C = _same_category(C, J)
    holds = [True] * len(algebra_laws)
    for c in C.objects:
        if not any(holds):
            break
        A = closed_sieve_algebra(C, J, c, max_arrows_into=max_arrows_into)
        for k, law in enumerate(algebra_laws):
            if holds[k] and not law(A):
                holds[k] = False
    return tuple(holds)


def oracle_is_demorgan(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> bool:
    """De Morgan test through the subobject algebras: every closed-sieve
    algebra must be a De Morgan algebra."""
    return _oracle(C, J, (is_de_morgan_algebra,), max_arrows_into)[0]


def oracle_is_boolean(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> bool:
    """Excluded-middle test through the subobject algebras."""
    return _oracle(C, J, (is_boolean_algebra,), max_arrows_into)[0]


def frame_as_site(F: HeytingAlgebra, *, max_elements: int = 12):
    """The poset category of a finite frame with its canonical coverage.

    There is one arrow a -> b per pair a <= b; a sieve covers c exactly
    when the join of the domains of its members is c.  A point (a
    join-irreducible element) below a join lies below one of its terms,
    so these are the sieves containing the arrows p -> c from the points
    p <= c.  The bottom is covered by the empty sieve, so reduction
    drops it.
    """
    n = len(F.elements)
    if n > max_elements:
        raise BoundExceeded(
            f"frame has {n} elements, above the site bound {max_elements}"
        )
    arrows = [
        (f"{a}<{b}", a, b) for a in F.elements for b in F.elements
        if a != b and F.leq(a, b)
    ]
    compose = {
        (f, g): f"{a}<{c}"
        for f, a, b in arrows for g, b2, c in arrows if b == b2
    }
    C = FiniteCategory(F.elements, arrows, compose)
    points = sum(1 << p for p, _ in _points(F))
    # a -> c is in the least cover of c when a <= p <= c for a point p
    return C, GrothendieckTopology(C, [
        sum(1 << f for f in C._into[ci] if F._up[C._dom[f]] & points & down)
        for ci, down in enumerate(F._down)
    ])
