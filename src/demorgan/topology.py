"""Grothendieck topologies on a finite category.

A topology assigns to each object a set of covering sieves subject to
four axioms (maximality, stability under pullback, transitivity,
superset closure).  On top of validation and generation this module
provides the lattice structure of topologies, the dense and De Morgan
topologies, reduction of a site to the objects not covered by the empty
sieve, and the decision procedures for whether the sheaf topos on a
site satisfies De Morgan's law or the law of excluded middle.

On a finite category the covers of an object c are the sieves that
contain one least cover K_c, kept as a sieve bitmask in the indexing of
the underlying category: S covers c iff ``not K_c & ~S``.  Generation,
joins, the dense and De Morgan topologies and the repairs shrink one
sieve per object to a topology (``_shrink``) and list no sieve.
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import prod
from operator import and_
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
    _to_mask,
    check_sieve,
)


class GrothendieckTopology:
    """A validated Grothendieck topology; construct via the module API."""

    __slots__ = ("category", "_least", "_key")

    def __init__(self, category: FiniteCategory, least):
        self.category = category
        self._least = tuple(least)
        self._key = None

    # -- queries --------------------------------------------------------

    def covers(self, c: str, *, max_arrows_into: int = 16) -> frozenset:
        """The covering sieves on object ``c``: the sieves that contain
        its least cover.  Unless that is the maximal sieve, they are
        listed under the sieve enumeration bound."""
        C = self.category
        ci = C._object_index(c)
        K = self._least[ci]
        if K == C._into_mask[ci]:
            upset = (K,)
        else:
            upset = (
                m for m in C._sieve_masks(ci, max_arrows_into) if not K & ~m
            )
        return frozenset(Sieve(c, C._mask_to_members(m)) for m in upset)

    def contains(self, S: Sieve) -> bool:
        C = self.category
        ci, mask = _to_mask(C, S)
        return not self._least[ci] & ~mask

    def covers_map(self, *, max_arrows_into: int = 16) -> dict:
        return {
            c: self.covers(c, max_arrows_into=max_arrows_into)
            for c in self.category.objects
        }

    def has_empty_cover(self, c: str) -> bool:
        return not self._least[self.category._object_index(c)]

    def _canonical_key(self):
        if self._key is None:
            C = self.category
            self._key = frozenset(
                (c, C._mask_to_members(K))
                for c, K in zip(C.objects, self._least)
            )
        return self._key

    def __eq__(self, other):
        if not isinstance(other, GrothendieckTopology):
            return NotImplemented
        if self.category is other.category:
            return self._least == other._least
        return (
            self.category == other.category
            and self._canonical_key() == other._canonical_key()
        )

    def __hash__(self):
        return hash((self.category, self._canonical_key()))

    def __repr__(self):
        C = self.category
        least = ", ".join(
            f"{c}:{{{','.join(sorted(C._mask_to_members(K)))}}}"
            for c, K in zip(C.objects, self._least)
        )
        return f"GrothendieckTopology({least})"


def _same_category(C: FiniteCategory, J: GrothendieckTopology) -> FiniteCategory:
    if C is not J.category and C != J.category:
        raise CategoryMismatch("topology does not live on the given category")
    return J.category


def _least_in(C: FiniteCategory, J: GrothendieckTopology):
    """J's least covers re-expressed in the arrow indexing of ``C``."""
    if J.category is C:
        return J._least
    if J.category != C:
        raise CategoryMismatch("topologies live on different categories")
    JC = J.category
    return tuple(
        C._members_to_mask(
            JC._mask_to_members(J._least[JC._object_index(c)])
        )
        for c in C.objects
    )


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
    with a witness; the checks range over every sieve, under the sieve
    enumeration bound.  Each object keeps the intersection of its list.
    """
    masks = [set() for _ in C.objects]
    if isinstance(covers, GrothendieckTopology):
        covers = covers.covers_map(max_arrows_into=max_arrows_into)
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
    return GrothendieckTopology(C, [reduce(and_, cset) for cset in masks])


def trivial_topology(C: FiniteCategory) -> GrothendieckTopology:
    """The least topology: only maximal sieves cover."""
    return GrothendieckTopology(C, C._into_mask)


# -- the shrink ------------------------------------------------------------

def _through_least(C, least, f):
    """The composites g;f with g in the least cover of dom(f): f*(R)
    covers iff R contains them."""
    comp, d = C._comp, C._dom[f]
    Kd = least[d]
    out = 0
    for g in C._into[d]:
        if Kd >> g & 1:
            out |= 1 << comp[g][f]
    return out


def _shrink_round(C, K):
    """One round of the shrink on the sieves ``K``, in place: stability
    (K_d &= f*(K_c) for every f: d -> c), then idempotence (K_c becomes
    the composites of its arrows with K of their domains).  Both only
    remove arrows; returns whether any was removed."""
    dom, into, pull = C._dom, C._into, C._pull
    changed = False
    for ci in range(len(K)):
        for f in into[ci]:
            d = dom[f]
            Kd = K[d] & pull(f, K[ci])
            if Kd != K[d]:
                K[d] = Kd
                changed = True
    for ci in range(len(K)):
        Kc = K[ci]
        composites = 0
        for f in into[ci]:
            if Kc >> f & 1:
                composites |= _through_least(C, K, f)
        if composites != Kc:
            K[ci] = composites
            changed = True
    return changed


def _shrink(C, K):
    """The least covers of the least topology in which the sieves ``K``
    cover.  Each step keeps the least covers of any such topology below
    K, so the rounds stop at the greatest stable, idempotent family."""
    K = list(K)
    while _shrink_round(C, K):
        pass
    return K


def _least_covers_ok(C, K):
    """Whether the up-sets of the sieves ``K`` form a topology: whether
    they are stable and idempotent, so a round leaves them unchanged."""
    return not _shrink_round(C, list(K))


def _principal_closure(C, K, law_mask):
    """The least topology in which every sieve of ``K`` (one per object)
    and the law sieve ``law_mask`` of every principal sieve (f) cover."""
    K = list(K)
    for ci in range(len(K)):
        for f in C._into[ci]:
            K[ci] &= law_mask(C, ci, C._gen[f])
    return GrothendieckTopology(C, _shrink(C, K))


def generate_topology(
    C: FiniteCategory, seeds: Iterable[Sieve]
) -> GrothendieckTopology:
    """The smallest topology whose covers include every seed sieve.  It
    shrinks the intersection of each object's seeds and lists no
    sieve."""
    least = list(C._into_mask)
    for S in seeds:
        ci, mask = _to_mask(C, S)
        least[ci] &= mask
    return GrothendieckTopology(C, _shrink(C, least))


def leq_topology(J1: GrothendieckTopology, J2: GrothendieckTopology) -> bool:
    """Whether every J1-covering sieve is J2-covering: whether each least
    cover of J2 lies in that of J1."""
    C = J1.category
    return all(
        not b & ~a for a, b in zip(J1._least, _least_in(C, J2))
    )


def meet_topology(
    J1: GrothendieckTopology, J2: GrothendieckTopology
) -> GrothendieckTopology:
    """Objectwise intersection of cover sets: the union of the least
    covers."""
    C = J1.category
    return GrothendieckTopology(
        C, [a | b for a, b in zip(J1._least, _least_in(C, J2))]
    )


def join_topology(
    J1: GrothendieckTopology, J2: GrothendieckTopology
) -> GrothendieckTopology:
    """Least topology containing the covers of both arguments: the shrink
    of the intersected least covers.  It lists no sieve."""
    C = J1.category
    return GrothendieckTopology(
        C, _shrink(C, [a & b for a, b in zip(J1._least, _least_in(C, J2))])
    )


def _closure_mask(C, least, ci, mask):
    out = 0
    for f in C._into[ci]:
        if not _through_least(C, least, f) & ~mask:
            out |= 1 << f
    return out


def closure_of_sieve(
    C: FiniteCategory, J: GrothendieckTopology, R: Sieve
) -> Sieve:
    """Arrows whose pullback of ``R`` is covering; always a closed sieve."""
    C = _same_category(C, J)
    ci, mask = _to_mask(C, R)
    return Sieve(
        R.base, C._mask_to_members(_closure_mask(C, J._least, ci, mask))
    )


def is_closed(C: FiniteCategory, J: GrothendieckTopology, R: Sieve) -> bool:
    C = _same_category(C, J)
    ci, mask = _to_mask(C, R)
    return _closure_mask(C, J._least, ci, mask) == mask


def no_empty_covers(J: GrothendieckTopology) -> bool:
    """Whether the empty sieve covers no object."""
    return all(J._least)


def dense_topology(C: FiniteCategory) -> GrothendieckTopology:
    """The topology whose covers are exactly the stably non-empty
    sieves, generated by the sieves ``b_sieve((f))``.  It lists no
    sieve."""
    return _principal_closure(C, C._into_mask, _b_mask)


def demorgan_topology(C: FiniteCategory) -> GrothendieckTopology:
    """The topology generated by the sieves ``m_sieve(R)`` for every sieve
    R, which the ``m_sieve((f))`` of the principal sieves generate.  It
    lists no sieve."""
    return _principal_closure(C, C._into_mask, _m_mask)


def _r_masks(C, least):
    empty = [not K for K in least]
    out = []
    for ci in range(len(C.objects)):
        mask = 0
        for f in C._into[ci]:
            if empty[C._dom[f]]:
                mask |= 1 << f
        out.append(mask)
    return out


def _closed_masks(C, least, ci, max_arrows_into):
    """The closed sieves on ``ci`` in sieve order, listed lazily.  A sieve
    R holds every arrow whose composites with the least cover of its
    domain lie in R, so it is closed iff no other arrow's do."""
    through = [(1 << f, _through_least(C, least, f)) for f in C._into[ci]]
    for R in C._sieve_masks(ci, max_arrows_into):
        for bit, F in through:
            if not (bit & R or F & ~R):
                break
        else:
            yield R


def reduced_site(C: FiniteCategory, J: GrothendieckTopology):
    """Restrict the site to the objects not covered by the empty sieve.

    Returns ``(C, J)`` unchanged when there are no empty covers.  With K
    the arrows between kept objects, the induced topology covers S & K
    for each cover S of a kept object c, so its least cover is K_c & K.
    An arrow into c lies in K or in r_c, so a sieve R of K covers iff
    R | r_c, the parent sieve R generates joined with r_c, covers; and
    R | r_c contains S when R = S & K.  No sieve is enumerated.
    """
    C = _same_category(C, J)
    least = J._least
    kept = [ci for ci, K in enumerate(least) if K]
    if len(kept) == len(C.objects):
        return C, J
    if not kept:
        raise EmptyReduction("every object is covered by the empty sieve")
    Ct = C._full_subcategory(kept)
    induced = []
    for ti, ci in enumerate(kept):
        # the arrows of K into c in C's order, which is also Ct's order
        into_k = (f for f in C._into[ci] if least[C._dom[f]])
        induced.append(sum(
            1 << g for f, g in zip(into_k, Ct._into[ti]) if least[ci] >> f & 1
        ))
    return Ct, GrothendieckTopology(Ct, induced)


def _demorgan_criterion(C, ci, R, rmask, memo):
    """Arrows f into ``ci`` with f*(R) = R_d, or for which every g with
    g*(f*(R)) = R_e lies in R_d.  The second test reads only d and
    f*(R), so ``memo`` keeps its answer per (d, f*(R)) for the sweep."""
    V = 0
    for f in C._into[ci]:
        d = C._dom[f]
        fR = C._pull(f, R)
        if fR == rmask[d]:
            V |= 1 << f
            continue
        ok = memo.get((d, fR))
        if ok is None:
            ok = memo[d, fR] = all(
                C._pull(g, fR) != rmask[C._dom[g]] or rmask[d] >> g & 1
                for g in C._into[d]
            )
        if ok:
            V |= 1 << f
    return V


def _boolean_criterion(C, ci, R, rmask, memo):
    """Arrows f into ``ci`` with f in R or f*(R) = R_d."""
    V = 0
    for f in C._into[ci]:
        if (R >> f & 1) or C._pull(f, R) == rmask[C._dom[f]]:
            V |= 1 << f
    return V


def _general_witness(C, J, criteria, max_arrows_into):
    """For each of ``criteria``, the first (object, closed sieve R,
    criterion sieve of R) whose criterion sieve does not cover, in
    object and sieve order, or None if every one covers.  Each object's
    closed sieves are listed once, and no object is visited once every
    criterion has its witness."""
    C = _same_category(C, J)
    least = J._least
    rmask = _r_masks(C, least)
    found = [None] * len(criteria)
    memos = [{} for _ in criteria]
    for ci in range(len(C.objects)):
        if None not in found:
            break
        K = least[ci]
        closed = list(_closed_masks(C, least, ci, max_arrows_into))
        for k, criterion in enumerate(criteria):
            if found[k] is not None:
                continue
            for R in closed:
                V = criterion(C, ci, R, rmask, memos[k])
                if K & ~V:
                    found[k] = (
                        C.objects[ci], _from_mask(C, ci, R),
                        _from_mask(C, ci, V),
                    )
                    break
    return tuple(found)


def _principal_witness(C, J, law_masks):
    """For each of ``law_masks``, the first (object, arrow f, law sieve
    of the principal sieve (f)) on the reduced site that does not cover,
    or None.  The sieves m((f)) generate the De Morgan topology and the
    b((f)) the dense one, so None says that either lies below the induced
    topology.  The reduced site is built once for all the laws."""
    try:
        Ct, Jt = reduced_site(C, J)
    except EmptyReduction:
        # sheaves on the empty site form the degenerate topos
        return (None,) * len(law_masks)

    def first(law_mask):
        for ci, K in enumerate(Jt._least):
            for f in Ct._into[ci]:
                law = law_mask(Ct, ci, Ct._gen[f])
                if K & ~law:
                    law_sieve = _from_mask(Ct, ci, law)
                    return Ct.objects[ci], Ct._anames[f], law_sieve
        return None

    return tuple(first(law_mask) for law_mask in law_masks)


def demorgan_counterexample(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> Optional[tuple]:
    """None if the sheaf topos satisfies De Morgan's law, else a triple
    (object, closed sieve R, criterion sieve) with the criterion sieve
    not covering."""
    return _general_witness(C, J, (_demorgan_criterion,), max_arrows_into)[0]


def boolean_counterexample(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> Optional[tuple]:
    return _general_witness(C, J, (_boolean_criterion,), max_arrows_into)[0]


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
    found = _general_witness(C, J, (_demorgan_criterion,), max_arrows_into)
    return found[0] is None


def is_boolean_general(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> bool:
    """Excluded-middle test: for every closed sieve R on every object,
    the arrows with f*(R) = R_d or f in R must form a covering sieve."""
    found = _general_witness(C, J, (_boolean_criterion,), max_arrows_into)
    return found[0] is None


def is_demorgan_reduced(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> bool:
    """De Morgan test on the reduced site: the induced topology must
    cover m((f)) for every arrow f into every object.  It enumerates no
    sieve; ``max_arrows_into`` is accepted and unused."""
    return _principal_witness(C, J, (_m_mask,))[0] is None


def is_boolean_reduced(
    C: FiniteCategory,
    J: GrothendieckTopology,
    *,
    max_arrows_into: int = 16,
) -> bool:
    """Excluded-middle test on the reduced site: the induced topology
    must cover b((f)) for every arrow f into every object.  It
    enumerates no sieve; ``max_arrows_into`` is accepted and unused."""
    return _principal_witness(C, J, (_b_mask,))[0] is None


def demorganize_site(
    C: FiniteCategory, J: GrothendieckTopology
) -> GrothendieckTopology:
    """Smallest topology above the (reduced) input whose sheaf topos
    satisfies De Morgan's law, its join with the De Morgan topology;
    lives on the reduced category and lists no sieve."""
    Ct, Jt = reduced_site(C, J)
    return _principal_closure(Ct, Jt._least, _m_mask)


def booleanize_site(
    C: FiniteCategory, J: GrothendieckTopology
) -> GrothendieckTopology:
    """Smallest topology above the (reduced) input whose sheaf topos is
    Boolean, its join with the dense topology; lives on the reduced
    category and lists no sieve."""
    Ct, Jt = reduced_site(C, J)
    return _principal_closure(Ct, Jt._least, _b_mask)


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
    return tuple(GrothendieckTopology(C, K) for K in found)


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
        if J._least[ci] != C._into_mask[ci]:
            continue
        incoming = C._into[ci]
        for f in incoming:
            for g in incoming:
                if not C._pull(f, C._gen[g]):
                    return C.objects[ci], C._anames[f], C._anames[g]
    return None
