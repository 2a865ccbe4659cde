"""Independent brute-force implementations of the sieve calculus and
of the Heyting operations.

Everything here works purely through the public category API (compose
tables and arrow sets) with plain set fixpoints, or through an algebra's
``leq`` and ``meet`` alone, deliberately avoiding the bitmask paths in
the package, so the two routes check each other.  Two exceptions use
the package's topology constructors: ``principal_topology`` saturates
with its generator, to state which seeds the De Morgan and dense
topologies are generated by, and ``naive_reduced_site`` checks its
covers with ``validate_topology``.  Four more are the searches the
package's constructions replaced, kept as their references:
``naive_validate_topology`` checks a literal cover list against the
four axioms by scanning every sieve, ``naive_enumerate_topologies``
filters every product of per-object up-sets with the same axiom scans,
``saturate_covers`` adds covers over every sieve until those scans find
no violation (with ``saturated_dense`` and ``saturated_demorgan``, the
dense and De Morgan topologies by their definitions), and
``fixset_search_nuclei`` tests every candidate fixset and checks each
result with ``validate_nucleus``.  ``naive_demorgan_criterion`` and
``naive_boolean_criterion`` compute the general criteria on the
package's sieve masks by pullbacks, as the package did before it read
negations off per-arrow masks.  ``sequential_report`` is the reference
for ``report``'s paired sweeps: the six public decision routes, called
one law and one route at a time.
"""

import itertools
from functools import partial, reduce
from operator import and_

from demorgan.errors import (
    NotMaximalClosed,
    NotStable,
    NotTransitive,
    TopologyAxiomError,
    UnknownObject,
)
from demorgan.fincat import FiniteCategory
from demorgan.frames import Nucleus, validate_nucleus
from demorgan.sieves import (
    Sieve,
    _m_mask,
    _stably_nonempty_mask,
    check_sieve,
)
from demorgan.subobjects import oracle_is_boolean, oracle_is_demorgan
from demorgan.topology import (
    GrothendieckTopology,
    _stability_violations,
    generate_topology,
    is_boolean_general,
    is_boolean_reduced,
    is_demorgan_general,
    is_demorgan_reduced,
    validate_topology,
)


def naive_is_sieve(C, S):
    if any(C.cod(s) != S.base for s in S.members):
        return False
    for s in S.members:
        for h in C.arrows_into(C.dom(s)):
            if C.compose(h, s) not in S.members:
                return False
    return True


def naive_generate_sieve(C, c, gens):
    members = set(gens)
    changed = True
    while changed:
        changed = False
        for s in list(members):
            for h in C.arrows_into(C.dom(s)):
                comp = C.compose(h, s)
                if comp not in members:
                    members.add(comp)
                    changed = True
    return Sieve(c, members)


def naive_pullback(C, f, R):
    return Sieve(
        C.dom(f),
        {g for g in C.arrows_into(C.dom(f)) if C.compose(g, f) in R.members},
    )


def naive_stably_nonempty(C, R):
    return all(
        naive_pullback(C, f, R).members for f in C.arrows_into(R.base)
    )


def naive_m_sieve(C, R):
    members = set()
    for f in C.arrows_into(R.base):
        pulled = naive_pullback(C, f, R)
        if not pulled.members or naive_stably_nonempty(C, pulled):
            members.add(f)
    return Sieve(R.base, members)


def naive_b_sieve(C, R):
    members = set()
    for f in C.arrows_into(R.base):
        if f in R.members or not naive_pullback(C, f, R).members:
            members.add(f)
    return Sieve(R.base, members)


def naive_closure(C, J, R):
    members = set()
    for f in C.arrows_into(R.base):
        if J.contains(naive_pullback(C, f, R)):
            members.add(f)
    return Sieve(R.base, members)


def naive_demorgan_criterion(C, ci, R, rmask, memo):
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


def naive_boolean_criterion(C, ci, R, rmask, memo):
    """Arrows f into ``ci`` with f in R or f*(R) = R_d."""
    V = 0
    for f in C._into[ci]:
        if (R >> f & 1) or C._pull(f, R) == rmask[C._dom[f]]:
            V |= 1 << f
    return V


def naive_is_mono(C, r):
    d = C.dom(r)
    for g in C.arrows_into(d):
        for h in C.arrows_into(d):
            if C.dom(g) != C.dom(h) or g == h:
                continue
            if C.compose(g, r) == C.compose(h, r):
                return False
    return True


def naive_completes(C, f, g):
    """Whether the cospan (f, g) has a square u;f == v;g."""
    arrows = sorted(C.arrows)
    for u in arrows:
        for v in arrows:
            if C.cod(u) != C.dom(f) or C.cod(v) != C.dom(g):
                continue
            if C.dom(u) != C.dom(v):
                continue
            if C.compose(u, f) == C.compose(v, g):
                return True
    return False


def naive_open_cospans(C):
    """Every cospan (f, g) with no square by ``naive_completes``, f then
    g in arrow-index order."""
    names = C._anames
    return [
        (f, g)
        for f in names
        for g in names
        if C.cod(f) == C.cod(g) and not naive_completes(C, f, g)
    ]


def naive_right_ore(C):
    arrows = sorted(C.arrows)
    return all(
        naive_completes(C, f, g)
        for f in arrows
        for g in arrows
        if C.cod(f) == C.cod(g)
    )


def all_sieves_on(C, c):
    """Every precomposition-closed subset of the arrows into ``c``,
    found by filtering all subsets."""
    incoming = sorted(C.arrows_into(c))
    out = []
    for k in range(len(incoming) + 1):
        for combo in itertools.combinations(incoming, k):
            S = Sieve(c, combo)
            if naive_is_sieve(C, S):
                out.append(S)
    return out


def naive_isomorphic(C, D):
    """Whether some bijection of objects and arrows preserves dom, cod
    and composition, found by trying every object bijection and every
    arrow bijection between the corresponding hom-sets."""
    if len(C.objects) != len(D.objects) or len(C.arrows) != len(D.arrows):
        return False
    homs = {}
    for f, ends in C.arrows.items():
        homs.setdefault(ends, []).append(f)
    for images in itertools.permutations(D.objects):
        on = dict(zip(C.objects, images))
        choices = []
        for (a, b), fs in homs.items():
            targets = [
                g for g, ends in D.arrows.items() if ends == (on[a], on[b])
            ]
            choices.append(
                [dict(zip(fs, p)) for p in itertools.permutations(targets)]
                if len(targets) == len(fs) else []
            )
        for parts in itertools.product(*choices):
            F = {f: g for part in parts for f, g in part.items()}
            if all(
                F[C.compose(f, g)] == D.compose(F[f], F[g])
                for f in C.arrows
                for g in C.arrows
                if C.composable(f, g)
            ):
                return True
    return False


def naive_implication(H, a, b):
    """The greatest x with meet(x, a) <= b, found by scanning every
    element through ``leq`` and ``meet`` alone; None when there is none."""
    below = [x for x in H.elements if H.leq(H.meet(x, a), b)]
    for x in below:
        if all(H.leq(y, x) for y in below):
            return x
    return None


def naive_is_de_morgan(H):
    """Whether neg p join neg neg p is the top for every p, with the
    negations found by ``naive_implication``."""
    def neg(a):
        return naive_implication(H, a, H.bottom)
    return all(H.join(neg(p), neg(neg(p))) == H.top for p in H.elements)


def naive_is_boolean(H):
    """Whether p join neg p is the top for every p, with the negation
    found by ``naive_implication``."""
    return all(
        H.join(p, naive_implication(H, p, H.bottom)) == H.top
        for p in H.elements
    )


def principal_topology(C, law_sieve):
    """The topology generated by ``law_sieve(C, (f))`` for every arrow f,
    where (f) is the principal sieve of f.  With ``m_sieve`` this is the
    De Morgan topology and with ``b_sieve`` the dense one (Johnstone,
    Elephant A4.5.21), which is what the reduced routes rely on."""
    return generate_topology(
        C,
        [
            law_sieve(C, naive_generate_sieve(C, C.cod(f), [f]))
            for f in C.arrows
        ],
    )


def naive_reduced_site(C, J):
    """The reduced site by its definition: the full subcategory on the
    objects not covered by the empty sieve, built by name through the
    validating constructor, covered by each sieve S on it for which the
    parent sieve generated by S, joined with the arrows from the
    empty-covered objects, covers.  ``(C, J)`` when no object is
    empty-covered, None when every one is."""
    kept = [c for c in C.objects if not J.contains(Sieve(c))]
    if len(kept) == len(C.objects):
        return C, J
    if not kept:
        return None
    arrows = [
        (f, d, c) for f, (d, c) in C.arrows.items()
        if not C.is_identity(f) and d in kept and c in kept
    ]
    names = [f for f, _, _ in arrows]
    Ct = FiniteCategory(
        kept,
        arrows,
        {
            (f, g): C.compose(f, g)
            for f in names
            for g in names
            if C.composable(f, g)
        },
    )
    covers = {}
    for c in kept:
        r = {f for f in C.arrows_into(c) if C.dom(f) not in kept}
        covers[c] = [
            S for S in all_sieves_on(Ct, c)
            if J.contains(
                Sieve(c, naive_generate_sieve(C, c, S.members).members | r)
            )
        ]
    return Ct, validate_topology(Ct, covers)


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


class NotSupersetClosed(TopologyAxiomError):
    """A superset of a listed cover is not listed.
    ``naive_validate_topology`` checks this last, after transitivity,
    which already refuses such a list."""


def naive_validate_topology(C, covers, *, max_arrows_into=16):
    """Check a raw covering assignment against the four topology axioms
    by scanning every sieve, under the sieve enumeration bound: the
    maximal sieves, stability, then transitivity and superset closure
    over all sieves.  The first violated axiom is raised with a witness.
    Each object keeps the intersection of its list."""
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
    all_sieves = [
        C._sieve_masks(ci, max_arrows_into) for ci in range(len(C.objects))
    ]
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
    return GrothendieckTopology(C, [reduce(and_, cset) for cset in masks])


def _upsets_containing_top(sieves, top):
    """All upward-closed (under inclusion) subsets containing the top,
    largest sieve first, each sieve included before it is left out."""
    order = sorted(sieves, key=lambda m: (-bin(m).count("1"), m))
    strict_sup = [
        [j for j, y in enumerate(order) if y != x and not x & ~y]
        for x in order
    ]
    results = []
    chosen = [False] * len(order)

    def rec(i):
        if i == len(order):
            results.append(
                frozenset(x for x, c in zip(order, chosen) if c)
            )
            return
        # include order[i] if all its strict supersets are in
        if all(chosen[j] for j in strict_sup[i]):
            chosen[i] = True
            rec(i + 1)
            chosen[i] = False
        if order[i] != top:
            rec(i + 1)

    rec(0)
    return results


def naive_enumerate_topologies(C):
    """Every product of per-object up-sets of sieves containing the
    maximal sieve that is stable and transitive, in product order."""
    all_sieves = [C._sieve_masks(ci) for ci in range(len(C.objects))]
    per_object = [
        _upsets_containing_top(all_sieves[ci], C._into_mask[ci])
        for ci in range(len(C.objects))
    ]
    return tuple(
        GrothendieckTopology(C, [reduce(and_, covers) for covers in combo])
        for combo in itertools.product(*per_object)
        if next(_stability_violations(C, combo), None) is None
        and next(_transitivity_violations(C, combo, all_sieves), None) is None
    )


def saturate_covers(C, seeds):
    """The covers of the least topology containing the seed cover masks
    (one iterable per object), as one frozenset of masks per object: add
    every superset, pullback and locally covering sieve of the covers
    until none is missing."""
    all_sieves = [C._sieve_masks(ci) for ci in range(len(C.objects))]
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


def saturated_dense(C):
    """The dense topology's covers by definition: the stably non-empty
    sieves."""
    return tuple(
        frozenset(
            m for m in C._sieve_masks(ci) if _stably_nonempty_mask(C, ci, m)
        )
        for ci in range(len(C.objects))
    )


def saturated_demorgan(C):
    """The De Morgan topology's covers by definition: saturated from the
    sieves m(R) for every sieve R."""
    return saturate_covers(C, [
        {_m_mask(C, ci, m) for m in C._sieve_masks(ci)}
        for ci in range(len(C.objects))
    ])


def cover_sets(J):
    """Every covering sieve of each object of J, as one frozenset of
    masks per object, read off its least covers."""
    C = J.category
    return tuple(
        frozenset(m for m in C._sieve_masks(ci) if not K & ~m)
        for ci, K in enumerate(J._least)
    )


def fixset_nucleus(F, fixed):
    """The map sending a to the meet of the elements of ``fixed`` above
    it, the least fixed element above a when ``fixed`` is a fixset."""
    return Nucleus(F, {
        a: F.meet_all(s for s in fixed if F.leq(a, s)) for a in F.elements
    })


def fixset_search_nuclei(F):
    """Every nucleus of ``F``, found by testing each subset containing
    the top for closure under meets and under implication from any
    element, in the order of the subsets' bits over the elements other
    than the top; each result is checked against the nucleus laws."""
    elems = F.elements
    top = F.top
    rest = [e for e in elems if e != top]
    out = []
    for bits in range(1 << len(rest)):
        fixed = frozenset(
            [top] + [e for i, e in enumerate(rest) if bits >> i & 1]
        )
        if any(F.meet(a, b) not in fixed for a in fixed for b in fixed):
            continue
        if any(
            F.implication(x, s) not in fixed for x in elems for s in fixed
        ):
            continue
        out.append(validate_nucleus(F, fixset_nucleus(F, fixed).table))
    return tuple(out)


def sequential_report(C, J, bound):
    """``report``'s verdicts from six separate route calls: De Morgan's
    law by the general, reduced and oracle routes, then excluded middle
    by the same three.  The reduced routes list no sieve, so only the
    other two take ``bound``.  Returns one {route: verdict} dict per law;
    the first route to refuse raises its BoundExceeded."""
    def bounded(route):
        return partial(route, max_arrows_into=bound)

    routes = {
        "general": (bounded(is_demorgan_general), bounded(is_boolean_general)),
        "reduced": (is_demorgan_reduced, is_boolean_reduced),
        "oracle": (bounded(oracle_is_demorgan), bounded(oracle_is_boolean)),
    }
    return tuple(
        {name: laws[k](C, J) for name, laws in routes.items()}
        for k in (0, 1)
    )
