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

from .errors import BoundExceeded
from .fincat import FiniteCategory
from .heyting import HeytingAlgebra, is_boolean_algebra, is_de_morgan_algebra
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

    __slots__ = ("site", "base", "_sieve_by_name")

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
        carrier = _closed_masks(C, J._masks, ci, max_arrows_into)
        if len(carrier) > _MAX_CARRIER:
            raise BoundExceeded(
                f"{len(carrier)} closed sieves on {c!r}; the subobject "
                f"algebra is too large"
            )
        carrier = sorted(carrier)
        names = [_sieve_name(C, m) for m in carrier]
        pos = {m: i for i, m in enumerate(carrier)}
        downs = []
        for m in carrier:
            acc = 0
            for other in carrier:
                if not other & ~m:
                    acc |= 1 << pos[other]
            downs.append(acc)
        super().__init__(names, downs)
        self.site = (C, J)
        self.base = c
        self._sieve_by_name = {
            name: Sieve(c, C._mask_to_members(m))
            for name, m in zip(names, carrier)
        }

    def sieve_of(self, name: str) -> Sieve:
        return self._sieve_by_name[name]


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


def oracle_is_demorgan(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> bool:
    """De Morgan test through the subobject algebras: every closed-sieve
    algebra must be a De Morgan algebra."""
    C = _same_category(C, J)
    return all(
        is_de_morgan_algebra(
            closed_sieve_algebra(C, J, c, max_arrows_into=max_arrows_into)
        )
        for c in C.objects
    )


def oracle_is_boolean(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> bool:
    """Excluded-middle test through the subobject algebras."""
    C = _same_category(C, J)
    return all(
        is_boolean_algebra(
            closed_sieve_algebra(C, J, c, max_arrows_into=max_arrows_into)
        )
        for c in C.objects
    )


def frame_as_site(F: HeytingAlgebra, *, max_elements: int = 12):
    """The poset category of a finite frame with its canonical coverage.

    There is one arrow a -> b per pair a <= b; a sieve covers c exactly
    when the join of the domains of its members is c.  The bottom
    element is covered by the empty sieve, so reduction drops it.
    """
    n = len(F.elements)
    if n > max_elements:
        raise BoundExceeded(
            f"frame has {n} elements, above the site bound {max_elements}"
        )
    objects = list(F.elements)
    arrows = []
    for a in objects:
        for b in objects:
            if a != b and F.leq(a, b):
                arrows.append((f"{a}<{b}", a, b))
    compose = {}
    for a in objects:
        for b in objects:
            if a == b or not F.leq(a, b):
                continue
            for c in objects:
                if b != c and F.leq(b, c) and a != c:
                    compose[(f"{a}<{b}", f"{b}<{c}")] = f"{a}<{c}"
    C = FiniteCategory(objects, arrows, compose)
    masks = []
    for c in C.objects:
        ci = C._object_index(c)
        cov = set()
        for mask in C._sieve_masks(ci, max_arrows_into=max(16, n + 1)):
            doms = [
                C.objects[C._dom[f]]
                for f in C._into[ci]
                if mask >> f & 1
            ]
            if F.join_all(doms) == c:
                cov.add(mask)
        masks.append(cov)
    return C, GrothendieckTopology(C, masks)
