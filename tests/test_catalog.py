import random

from demorgan.catalog import (
    canonical_poset,
    downsets_of_poset,
    enumerate_categories,
    enumerate_frames,
    enumerate_heyting_algebras,
    enumerate_posets,
)
from demorgan.errors import NotALattice, NotResiduated
from demorgan.fincat import FiniteCategory, validate_category
from demorgan.heyting import HeytingAlgebra, from_poset

from oracles import naive_isomorphic

# unlabeled poset counts by size
POSET_COUNTS = [1, 1, 2, 5, 16, 63, 318, 2045]
# unlabeled distributive lattice counts by size (1..8)
ALGEBRA_COUNTS = [1, 1, 1, 2, 3, 5, 8, 15]
# finite categories by number of non-identity arrows (no isolated objects)
CATEGORY_COUNTS = {1: 3, 2: 21, 3: 132, 4: 950}
# monoids by order
MONOID_COUNTS = {2: 2, 3: 7, 4: 35, 5: 228}


def test_poset_counts():
    posets = enumerate_posets(7)
    counts = [0] * 8
    for p in posets:
        counts[len(p)] += 1
    assert counts == POSET_COUNTS


def test_canonical_poset_identifies_relabelings():
    chain = (1, 3, 7)  # 0 < 1 < 2
    relabeled = (5, 7, 4)  # the same chain as 2 < 0 < 1
    assert canonical_poset(chain) == canonical_poset(relabeled)
    v = (1, 3, 5)  # 0 < 1, 0 < 2
    cospan = (1, 2, 7)  # 0 < 2, 1 < 2
    assert canonical_poset(v) != canonical_poset(cospan)


def test_heyting_catalog_counts(heyting_catalog):
    counts = {}
    for H in heyting_catalog:
        counts[len(H)] = counts.get(len(H), 0) + 1
    assert [counts.get(i, 0) for i in range(1, 9)] == ALGEBRA_COUNTS


def test_heyting_catalog_matches_direct_poset_filter():
    """Cross-check the join-irreducible construction against filtering
    all posets up to six elements by the lattice and residuation laws."""
    direct = []
    for p in enumerate_posets(6):
        if not p:
            continue
        names = [f"x{i}" for i in range(len(p))]
        pairs = [
            (names[j], names[i])
            for i in range(len(p))
            for j in range(len(p))
            if p[i] >> j & 1
        ]
        try:
            direct.append(from_poset(names, pairs))
        except (NotALattice, NotResiduated):
            continue
    catalog = [H for H in enumerate_heyting_algebras(6)]
    assert len(direct) == len(catalog)

    def order_key(H: HeytingAlgebra):
        return canonical_poset(H._down)

    assert sorted(map(order_key, direct)) == sorted(map(order_key, catalog))


def test_frames_wrap_catalog(frame_catalog, heyting_catalog):
    assert len(frame_catalog) == len(heyting_catalog)


def test_category_counts(catalog4):
    counts = {}
    for C in catalog4:
        m = len(C.arrows) - len(C.objects)
        counts[m] = counts.get(m, 0) + 1
    assert counts[0] == 2  # the two discrete categories
    for m, expected in CATEGORY_COUNTS.items():
        assert counts[m] == expected


def test_monoid_counts(catalog4):
    counts = {}
    for C in catalog4:
        if len(C.objects) == 1:
            order = len(C.arrows)
            counts[order] = counts.get(order, 0) + 1
    for order, expected in MONOID_COUNTS.items():
        assert counts[order] == expected


def test_catalog_categories_are_valid(catalog3):
    for C in catalog3:
        assert validate_category(C.to_data()) == C


def _relabeled(C, rng):
    """A copy of ``C`` under fresh object and arrow names, declared in a
    shuffled order."""
    obj = {
        o: f"o{i}"
        for o, i in zip(C.objects, rng.sample(range(100), len(C.objects)))
    }
    arr = {
        f: "id_" + obj[C.dom(f)] if C.is_identity(f) else f"x{i}"
        for f, i in zip(C.arrows, rng.sample(range(100), len(C.arrows)))
    }
    declared = [(arr[f], obj[a], obj[b]) for f, (a, b) in C.arrows.items()]
    compose = [
        (arr[f], arr[g], arr[C.compose(f, g)])
        for f in C.arrows
        for g in C.arrows
        if C.composable(f, g)
    ]
    for part in (declared, compose):
        rng.shuffle(part)
    objects = rng.sample(list(obj.values()), len(obj))
    return FiniteCategory(objects, declared, compose)


def test_catalog_is_one_category_per_isomorphism_class(catalog3):
    """Brute-force isomorphism check of the catalog's canonical forms:
    no two representatives are isomorphic, and a relabeled copy of each
    is isomorphic to exactly one of them."""
    for i, C in enumerate(catalog3):
        for D in catalog3[i + 1:]:
            assert not naive_isomorphic(C, D)
    rng = random.Random(0)
    for C in catalog3:
        copy = _relabeled(C, rng)
        assert [D for D in catalog3 if naive_isomorphic(copy, D)] == [C]
