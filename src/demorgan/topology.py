"""Grothendieck topologies on a finite category.

A topology assigns to each object a set of covering sieves subject to
four axioms (maximality, stability under pullback, transitivity,
superset closure).  On top of validation and generation this module
provides the lattice structure of topologies, the dense and De Morgan
topologies, reduction of a site to the objects not covered by the empty
sieve, and the decision procedures for whether the sheaf topos on a
site satisfies De Morgan's law or the law of excluded middle.

Internally covering families are kept as frozensets of sieve bitmasks,
one per object, in the indexing of the underlying category.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Iterable, Mapping, Optional

from .errors import (
    BoundExceeded,
    CategoryMismatch,
    EmptyReduction,
    InputError,
    NotMaximalClosed,
    NotStable,
    NotSupersetClosed,
    NotTransitive,
    UnknownObject,
)
from .fincat import FiniteCategory
from .sieves import (
    Sieve,
    _b_mask,
    _from_mask,
    _m_mask,
    _stably_nonempty_mask,
    _to_mask,
    check_sieve,
)


class GrothendieckTopology:
    """A validated Grothendieck topology; construct via the module API."""

    __slots__ = ("category", "_masks", "_key")

    def __init__(self, category: FiniteCategory, masks):
        self.category = category
        self._masks = tuple(frozenset(s) for s in masks)
        self._key = None

    # -- queries --------------------------------------------------------

    def covers(self, c: str) -> frozenset:
        """The covering sieves on object ``c``."""
        C = self.category
        ci = C._object_index(c)
        return frozenset(
            Sieve(c, C._mask_to_members(m)) for m in self._masks[ci]
        )

    def contains(self, S: Sieve) -> bool:
        C = self.category
        ci, mask = _to_mask(C, S)
        return mask in self._masks[ci]

    def covers_map(self) -> dict:
        return {c: self.covers(c) for c in self.category.objects}

    def has_empty_cover(self, c: str) -> bool:
        return 0 in self._masks[self.category._object_index(c)]

    def _canonical_key(self):
        if self._key is None:
            C = self.category
            self._key = frozenset(
                (c, frozenset(C._mask_to_members(m) for m in self._masks[ci]))
                for ci, c in enumerate(C.objects)
            )
        return self._key

    def __eq__(self, other):
        if not isinstance(other, GrothendieckTopology):
            return NotImplemented
        if self.category is other.category:
            return self._masks == other._masks
        return (
            self.category == other.category
            and self._canonical_key() == other._canonical_key()
        )

    def __hash__(self):
        return hash((self.category, self._canonical_key()))

    def __repr__(self):
        sizes = ", ".join(
            f"{c}:{len(self._masks[ci])}"
            for ci, c in enumerate(self.category.objects)
        )
        return f"GrothendieckTopology({sizes})"


def _same_category(C: FiniteCategory, J: GrothendieckTopology) -> FiniteCategory:
    if C is not J.category and C != J.category:
        raise CategoryMismatch("topology does not live on the given category")
    return J.category


def _covers_in(C: FiniteCategory, J: GrothendieckTopology):
    """J's cover masks re-expressed in the arrow indexing of ``C``."""
    if J.category is C:
        return J._masks
    if J.category != C:
        raise CategoryMismatch("topologies live on different categories")
    out = []
    JC = J.category
    for ci, c in enumerate(C.objects):
        ji = JC._object_index(c)
        out.append(
            frozenset(
                C._members_to_mask(JC._mask_to_members(m))
                for m in J._masks[ji]
            )
        )
    return tuple(out)


# -- axiom checking ----------------------------------------------------------

def _stability_violations(C, masks):
    """Yield (ci, S, f) for each cover S on ci whose pullback along f
    is not covering."""
    for ci in range(len(masks)):
        # a snapshot, since the caller may add covers while suspended
        for S in tuple(masks[ci]):
            for f in C._into[ci]:
                if C._pull(f, S) not in masks[C._dom[f]]:
                    yield ci, S, f


def _transitivity_violations(C, masks, all_sieves):
    """Yield (ci, R, S) for each non-covering R on ci whose pullback
    along every arrow of some cover S is covering."""
    for ci in range(len(masks)):
        cset = masks[ci]
        for R in all_sieves[ci]:
            if R in cset:
                continue
            for S in cset:
                rest = S
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    h = bit.bit_length() - 1
                    if C._pull(h, R) not in masks[C._dom[h]]:
                        break
                else:
                    yield ci, R, S
                    break


def _superset_violations(C, masks, all_sieves):
    """Yield (ci, T, S) for each non-covering T on ci that contains a
    cover S."""
    for ci in range(len(masks)):
        cset = masks[ci]
        for T in all_sieves[ci]:
            if T in cset:
                continue
            for S in cset:
                if not S & ~T:
                    yield ci, T, S
                    break


def _check_axioms(C, masks, all_sieves):
    """Raise the first violated topology axiom with a witness."""
    for ci in range(len(masks)):
        if C._into_mask[ci] not in masks[ci]:
            raise NotMaximalClosed(
                f"the maximal sieve on {C.objects[ci]!r} is not covering",
                witness=(C.objects[ci],),
            )
    for ci, S, f in _stability_violations(C, masks):
        raise NotStable(
            f"pullback of a covering sieve on {C.objects[ci]!r} along "
            f"{C._anames[f]!r} is not covering",
            witness=(
                C.objects[ci],
                Sieve(C.objects[ci], C._mask_to_members(S)),
                C._anames[f],
            ),
        )
    for ci, R, S in _transitivity_violations(C, masks, all_sieves):
        raise NotTransitive(
            f"a sieve on {C.objects[ci]!r} is locally covering but not "
            f"covering",
            witness=(
                C.objects[ci],
                Sieve(C.objects[ci], C._mask_to_members(R)),
                Sieve(C.objects[ci], C._mask_to_members(S)),
            ),
        )
    for ci, T, S in _superset_violations(C, masks, all_sieves):
        raise NotSupersetClosed(
            f"a superset of a covering sieve on {C.objects[ci]!r} is not "
            f"covering",
            witness=(
                C.objects[ci],
                Sieve(C.objects[ci], C._mask_to_members(T)),
                Sieve(C.objects[ci], C._mask_to_members(S)),
            ),
        )


def _all_sieves(C: FiniteCategory, max_arrows_into: int):
    return [
        C._sieve_masks(ci, max_arrows_into) for ci in range(len(C.objects))
    ]


def validate_topology(
    C: FiniteCategory,
    covers,
    *,
    max_arrows_into: int = 16,
) -> GrothendieckTopology:
    """Check a raw covering assignment against the four topology axioms.

    ``covers`` maps object names to iterables of sieves, each given
    either as a :class:`Sieve` or as an iterable of arrow names (taken
    literally, not as generators).  The first violated axiom is raised
    with a witness.
    """
    masks = [set() for _ in C.objects]
    if isinstance(covers, GrothendieckTopology):
        covers = covers.covers_map()
    for c, sieve_list in covers.items():
        ci = C._object_index(c)
        for entry in sieve_list:
            S = entry if isinstance(entry, Sieve) else Sieve(c, entry)
            if S.base != c:
                raise UnknownObject(
                    f"sieve on {S.base!r} listed under object {c!r}"
                )
            check_sieve(C, S)
            masks[ci].add(C._members_to_mask(S.members))
    all_sieves = _all_sieves(C, max_arrows_into)
    _check_axioms(C, masks, all_sieves)
    return GrothendieckTopology(C, masks)


def trivial_topology(C: FiniteCategory) -> GrothendieckTopology:
    """The least topology: only maximal sieves cover."""
    return GrothendieckTopology(
        C, [{C._into_mask[ci]} for ci in range(len(C.objects))]
    )


def _generate_masks(C, seeds, max_arrows_into):
    """Saturate seed cover masks into the least topology containing them."""
    all_sieves = _all_sieves(C, max_arrows_into)
    masks = [
        {C._into_mask[ci]} | set(seeds[ci]) for ci in range(len(C.objects))
    ]
    changed = True
    while changed:
        changed = False
        for ci, T, _ in _superset_violations(C, masks, all_sieves):
            masks[ci].add(T)
            changed = True
        for ci, S, f in _stability_violations(C, masks):
            masks[C._dom[f]].add(C._pull(f, S))
            changed = True
        for ci, R, _ in _transitivity_violations(C, masks, all_sieves):
            masks[ci].add(R)
            changed = True
    return tuple(frozenset(s) for s in masks)


def generate_topology(
    C: FiniteCategory,
    seeds: Iterable[Sieve],
    *,
    max_arrows_into: int = 16,
) -> GrothendieckTopology:
    """The smallest topology whose covers include every seed sieve."""
    seed_masks = [set() for _ in C.objects]
    for S in seeds:
        ci, mask = _to_mask(C, S)
        seed_masks[ci].add(mask)
    return GrothendieckTopology(
        C, _generate_masks(C, seed_masks, max_arrows_into)
    )


def leq_topology(J1: GrothendieckTopology, J2: GrothendieckTopology) -> bool:
    """Whether every J1-covering sieve is J2-covering."""
    C = J1.category
    m2 = _covers_in(C, J2)
    return all(a <= b for a, b in zip(J1._masks, m2))


def meet_topology(
    J1: GrothendieckTopology, J2: GrothendieckTopology
) -> GrothendieckTopology:
    """Objectwise intersection of cover sets."""
    C = J1.category
    m2 = _covers_in(C, J2)
    return GrothendieckTopology(
        C, [a & b for a, b in zip(J1._masks, m2)]
    )


def join_topology(
    J1: GrothendieckTopology,
    J2: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> GrothendieckTopology:
    """Least topology containing the covers of both arguments."""
    C = J1.category
    m2 = _covers_in(C, J2)
    seeds = [a | b for a, b in zip(J1._masks, m2)]
    return GrothendieckTopology(C, _generate_masks(C, seeds, max_arrows_into))


def _closure_mask(C, cov_masks, ci, mask):
    out = 0
    for f in C._into[ci]:
        if C._pull(f, mask) in cov_masks[C._dom[f]]:
            out |= 1 << f
    return out


def closure_of_sieve(
    C: FiniteCategory, J: GrothendieckTopology, R: Sieve
) -> Sieve:
    """Arrows whose pullback of ``R`` is covering; always a closed sieve."""
    C = _same_category(C, J)
    ci, mask = _to_mask(C, R)
    return Sieve(
        R.base, C._mask_to_members(_closure_mask(C, J._masks, ci, mask))
    )


def is_closed(C: FiniteCategory, J: GrothendieckTopology, R: Sieve) -> bool:
    C = _same_category(C, J)
    ci, mask = _to_mask(C, R)
    return _closure_mask(C, J._masks, ci, mask) == mask


def no_empty_covers(J: GrothendieckTopology) -> bool:
    """Whether the empty sieve covers no object."""
    return all(0 not in s for s in J._masks)


def dense_topology(
    C: FiniteCategory, *, max_arrows_into: int = 16
) -> GrothendieckTopology:
    """The topology whose covers are exactly the stably non-empty sieves."""
    masks = [
        {
            m
            for m in C._sieve_masks(ci, max_arrows_into)
            if _stably_nonempty_mask(C, ci, m)
        }
        for ci in range(len(C.objects))
    ]
    return GrothendieckTopology(C, masks)


def demorgan_topology(
    C: FiniteCategory, *, max_arrows_into: int = 16
) -> GrothendieckTopology:
    """The topology generated by the sieves ``m_sieve(R)`` for every sieve R."""
    seeds = []
    for ci in range(len(C.objects)):
        seeds.append(
            {
                _m_mask(C, ci, m)
                for m in C._sieve_masks(ci, max_arrows_into)
            }
        )
    return GrothendieckTopology(C, _generate_masks(C, seeds, max_arrows_into))


def _r_masks(C, cov_masks):
    empty = [0 in cov_masks[ci] for ci in range(len(C.objects))]
    out = []
    for ci in range(len(C.objects)):
        mask = 0
        for f in C._into[ci]:
            if empty[C._dom[f]]:
                mask |= 1 << f
        out.append(mask)
    return out


def _closed_masks(C, cov_masks, ci, max_arrows_into):
    return [
        m
        for m in C._sieve_masks(ci, max_arrows_into)
        if _closure_mask(C, cov_masks, ci, m) == m
    ]


def reduced_site(C: FiniteCategory, J: GrothendieckTopology):
    """Restrict the site to the objects not covered by the empty sieve.

    Returns ``(C, J)`` unchanged when there are no empty covers.  With K
    the arrows between kept objects, the induced topology covers S & K
    for each cover S of a kept object c.  An arrow into c lies in K or
    in r_c, so a sieve R of K covers iff R | r_c, the parent sieve R
    generates joined with r_c, covers; and R | r_c contains S when
    R = S & K.  No sieve is enumerated.
    """
    C = _same_category(C, J)
    kept = [ci for ci in range(len(C.objects)) if 0 not in J._masks[ci]]
    if len(kept) == len(C.objects):
        return C, J
    if not kept:
        raise EmptyReduction("every object is covered by the empty sieve")
    Ct = C._full_subcategory(kept)
    masks = []
    for ti, ci in enumerate(kept):
        # the arrows of K into c in C's order, which is also Ct's order
        into_k = (f for f in C._into[ci] if 0 not in J._masks[C._dom[f]])
        pairs = tuple(zip(into_k, Ct._into[ti]))
        masks.append({
            sum(1 << g for f, g in pairs if S >> f & 1) for S in J._masks[ci]
        })
    return Ct, GrothendieckTopology(Ct, masks)


def _demorgan_criterion(C, ci, R, rmask):
    """Arrows f into ``ci`` with f*(R) = R_d, or for which every g with
    g*(f*(R)) = R_e lies in R_d."""
    V = 0
    for f in C._into[ci]:
        d = C._dom[f]
        fR = C._pull(f, R)
        if fR == rmask[d]:
            V |= 1 << f
            continue
        ok = True
        for g in C._into[d]:
            if C._pull(g, fR) == rmask[C._dom[g]] and not (
                rmask[d] >> g & 1
            ):
                ok = False
                break
        if ok:
            V |= 1 << f
    return V


def _boolean_criterion(C, ci, R, rmask):
    """Arrows f into ``ci`` with f in R or f*(R) = R_d."""
    V = 0
    for f in C._into[ci]:
        if (R >> f & 1) or C._pull(f, R) == rmask[C._dom[f]]:
            V |= 1 << f
    return V


def _general_witness(C, J, criterion, max_arrows_into):
    """The first (object, closed sieve R, criterion sieve of R) whose
    criterion sieve does not cover, in object and sieve order; None if
    every one covers."""
    C = _same_category(C, J)
    rmask = _r_masks(C, J._masks)
    cov_masks = J._masks
    for ci in range(len(C.objects)):
        cov = cov_masks[ci]
        for R in _closed_masks(C, cov_masks, ci, max_arrows_into):
            V = criterion(C, ci, R, rmask)
            if V not in cov:
                c = C.objects[ci]
                return c, _from_mask(C, ci, R), _from_mask(C, ci, V)
    return None


def _principal_witness(C, J, law_mask):
    """The first (object, arrow f, ``law_mask`` of the principal sieve
    (f)) on the reduced site that does not cover, or None.  The sieves
    m((f)) generate the De Morgan topology and the b((f)) the dense one,
    so None says that either lies below the induced topology."""
    try:
        Ct, Jt = reduced_site(C, J)
    except EmptyReduction:
        # sheaves on the empty site form the degenerate topos
        return None
    for ci, cov in enumerate(Jt._masks):
        for f in Ct._into[ci]:
            law = law_mask(Ct, ci, Ct._gen[f])
            if law not in cov:
                return Ct.objects[ci], Ct._anames[f], _from_mask(Ct, ci, law)
    return None


def demorgan_counterexample(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> Optional[tuple]:
    """None if the sheaf topos satisfies De Morgan's law, else a triple
    (object, closed sieve R, criterion sieve) with the criterion sieve
    not covering."""
    return _general_witness(C, J, _demorgan_criterion, max_arrows_into)


def boolean_counterexample(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> Optional[tuple]:
    return _general_witness(C, J, _boolean_criterion, max_arrows_into)


def is_demorgan_general(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> bool:
    """De Morgan test via the subobject-classifier criterion.

    For every object c and closed sieve R on c, the sieve of arrows f
    with f*(R) = R_d, or with every further pullback hitting R_e only
    inside R_d, must cover c.  Works for arbitrary topologies, empty
    covers included.
    """
    found = _general_witness(C, J, _demorgan_criterion, max_arrows_into)
    return found is None


def is_boolean_general(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> bool:
    """Excluded-middle test: for every closed sieve R on every object,
    the arrows with f*(R) = R_d or f in R must form a covering sieve."""
    found = _general_witness(C, J, _boolean_criterion, max_arrows_into)
    return found is None


def is_demorgan_reduced(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> bool:
    """De Morgan test on the reduced site: the induced topology must
    cover m((f)) for every arrow f into every object.  It enumerates no
    sieve; ``max_arrows_into`` is accepted and unused."""
    return _principal_witness(C, J, _m_mask) is None


def is_boolean_reduced(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> bool:
    """Excluded-middle test on the reduced site: the induced topology
    must cover b((f)) for every arrow f into every object.  It
    enumerates no sieve; ``max_arrows_into`` is accepted and unused."""
    return _principal_witness(C, J, _b_mask) is None


def demorganize_site(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> GrothendieckTopology:
    """Smallest topology above the (reduced) input whose sheaf topos
    satisfies De Morgan's law; lives on the reduced category."""
    Ct, Jt = reduced_site(C, J)
    return join_topology(
        Jt,
        demorgan_topology(Ct, max_arrows_into=max_arrows_into),
        max_arrows_into=max_arrows_into,
    )


def booleanize_site(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> GrothendieckTopology:
    """Smallest topology above the (reduced) input whose sheaf topos is
    Boolean; lives on the reduced category."""
    Ct, Jt = reduced_site(C, J)
    return join_topology(
        Jt,
        dense_topology(Ct, max_arrows_into=max_arrows_into),
        max_arrows_into=max_arrows_into,
    )


def _least_covers_ok(C, K):
    """Whether the up-sets of the sieves ``K`` form a topology: K_d lies
    in f*(K_c) for every f: d -> c (stability), and K_c is the composites
    g;f with f in K_c, g in K_dom(f) (idempotence, or transitivity)."""
    comp, dom, into = C._comp, C._dom, C._into
    for ci, Kc in enumerate(K):
        if any(K[dom[f]] & ~C._pull(f, Kc) for f in into[ci]):
            return False
        composites = 0
        for f in into[ci]:
            if Kc >> f & 1:
                for g in into[dom[f]]:
                    if K[dom[f]] >> g & 1:
                        composites |= 1 << comp[g][f]
        if composites != Kc:
            return False
    return True


def enumerate_topologies(
    C: FiniteCategory,
    *,
    max_nonidentity_arrows: int = 6,
    max_arrows_into: int = 16,
) -> tuple:
    """All Grothendieck topologies on ``C``.

    Covers are closed under intersection, so on a finite category a
    topology is the up-sets of one least cover K_c per object.  The
    candidates, one sieve per object, are kept when stable and
    idempotent; the bound is on the product of the sieve counts.  The
    order is that of the products of per-object up-sets, each listing
    its sieves largest first, a sieve included before it is left out.
    """
    nonid = len(C.arrows) - len(C.objects)
    if nonid > max_nonidentity_arrows:
        raise BoundExceeded(
            f"category has {nonid} non-identity arrows, above the "
            f"enumeration bound {max_nonidentity_arrows}"
        )
    sieves = _all_sieves(C, max_arrows_into)
    if prod(map(len, sieves)) > 2_000_000:
        raise BoundExceeded("the lattice of topologies is too large")
    found = [K for K in itertools.product(*sieves) if _least_covers_ok(C, K)]
    order = [sorted(s, key=lambda m: (-m.bit_count(), m)) for s in sieves]
    found.sort(key=lambda K: tuple(
        tuple(Kc & ~S != 0 for S in order[ci]) for ci, Kc in enumerate(K)
    ))
    return tuple(GrothendieckTopology(
        C, [[S for S in o if not Kc & ~S] for o, Kc in zip(order, K)]
    ) for K in found)


def countroc_witness(
    C: FiniteCategory, J: GrothendieckTopology
) -> Optional[tuple]:
    """A witness (c, f, g) that the site cannot satisfy De Morgan's law:
    an object whose only cover is maximal, with f*((g)) empty.

    Requires a topology with no empty covers.
    """
    C = _same_category(C, J)
    if not no_empty_covers(J):
        raise InputError("countroc_witness requires no empty covers")
    for ci in range(len(C.objects)):
        if J._masks[ci] != frozenset({C._into_mask[ci]}):
            continue
        incoming = C._into[ci]
        for f in incoming:
            for g in incoming:
                if not C._pull(f, C._gen[g]):
                    return C.objects[ci], C._anames[f], C._anames[g]
    return None
