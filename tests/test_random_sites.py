"""Random concrete categories: a test domain beyond the four-arrow catalog.

Every finite category embeds faithfully in finite sets, so categories
drawn as a few small sets with random functions between them, closed
under composition, reach shapes and sizes that the catalog lacks.  On
each, the three decision routes must agree; the reduced site must equal
the one built from its definition; each repair must lie above the
reduced site's topology, satisfy its law, and equal that topology
exactly when the law already holds; the principal sieves must
generate the De Morgan and dense topologies; each route's paired
sweep over both laws must return its two single-law results; closed
sieves and criterion sieves must be those of the pullback-form
oracles; the least-cover builders must give the covers that saturating over every
sieve gives; and pulling a sieve back along an arrow must give the
arrows whose composite with it lies in the sieve.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demorgan.errors import BoundExceeded, EmptyReduction
from demorgan.fincat import FiniteCategory
from demorgan.sieves import b_sieve, generate_sieve, m_sieve, pullback_sieve
from demorgan.subobjects import oracle_is_boolean, oracle_is_demorgan
from demorgan.topology import (
    booleanize_site,
    demorgan_topology,
    demorganize_site,
    dense_topology,
    generate_topology,
    is_boolean_general,
    is_boolean_reduced,
    is_demorgan_general,
    is_demorgan_reduced,
    leq_topology,
    reduced_site,
    trivial_topology,
)

from conftest import (
    assert_builders_match_saturation,
    assert_closed_listing_matches_naive,
    assert_criteria_match_naive,
    assert_paired_sweeps_match,
    assert_square_witnesses_in_order,
)
from oracles import naive_pullback, naive_reduced_site, principal_topology

MAX_ARROWS_INTO = 12


def _then(f, g):
    """f followed by g; arrows are (dom, cod, function) triples."""
    return f[0], g[1], tuple(g[2][x] for x in f[2])


def _closure(arrows, new):
    """``arrows`` plus ``new``, closed under composition."""
    out = set(arrows) | {new}
    frontier = [new]
    while frontier:
        f = frontier.pop()
        for g in list(out):
            for first, then in ((f, g), (g, f)):
                if first[1] == then[0]:
                    h = _then(first, then)
                    if h not in out:
                        out.add(h)
                        frontier.append(h)
    return out


@st.composite
def concrete_categories(draw):
    """1-3 objects, each a set of 1-3 points, and 1-4 random functions
    between them, closed under composition.  A function whose closure
    would put more than MAX_ARROWS_INTO arrows into an object is left
    out."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = len(sizes)
    identities = {(o, o, tuple(range(sizes[o]))) for o in range(n)}
    arrows = set(identities)
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(0, n - 1))
        c = draw(st.integers(0, n - 1))
        fn = tuple(
            draw(st.integers(0, sizes[c] - 1)) for _ in range(sizes[d])
        )
        grown = _closure(arrows, (d, c, fn))
        if all(
            sum(1 for a in grown if a[1] == o) <= MAX_ARROWS_INTO
            for o in range(n)
        ):
            arrows = grown
    declared = sorted(arrows - identities)
    name = {a: f"f{i}" for i, a in enumerate(declared)}
    name.update({a: f"id_o{a[0]}" for a in identities})
    return FiniteCategory(
        [f"o{o}" for o in range(n)],
        [(name[a], f"o{a[0]}", f"o{a[1]}") for a in declared],
        [
            (name[f], name[g], name[_then(f, g)])
            for f in declared
            for g in declared
            if f[1] == g[0]
        ],
    )


@st.composite
def concrete_sites(draw):
    """A concrete category and a sieve generated by drawn arrows into a
    drawn object (the empty sieve included)."""
    C = draw(concrete_categories())
    c = draw(st.sampled_from(C.objects))
    gens = draw(st.lists(st.sampled_from(sorted(C.arrows_into(c)))))
    return C, generate_sieve(C, c, gens)


def _oracle_agrees(oracle, C, J, verdict):
    try:
        return oracle(C, J) == verdict
    except BoundExceeded:
        # a closed-sieve algebra above the carrier bound
        return True


@settings(max_examples=600, deadline=None, derandomize=True)
@given(concrete_sites())
def test_routes_repairs_and_principal_generators(site):
    C, S = site
    M = demorgan_topology(C)
    D = dense_topology(C)
    assert principal_topology(C, m_sieve) == M
    assert principal_topology(C, b_sieve) == D
    for J in (trivial_topology(C), D, M, generate_topology(C, [S])):
        assert_paired_sweeps_match(C, J)
        dm = is_demorgan_general(C, J)
        assert is_demorgan_reduced(C, J) == dm
        assert _oracle_agrees(oracle_is_demorgan, C, J, dm)
        bl = is_boolean_general(C, J)
        assert is_boolean_reduced(C, J) == bl
        assert _oracle_agrees(oracle_is_boolean, C, J, bl)
        expected = naive_reduced_site(C, J)
        if expected is None:
            with pytest.raises(EmptyReduction):
                reduced_site(C, J)
            continue
        (Ct, Jt), (Nt, NJ) = reduced_site(C, J), expected
        assert Ct.objects == Nt.objects
        assert tuple(Ct.arrows) == tuple(Nt.arrows)
        assert Ct == Nt and Jt == NJ
        for repair, law, holds in (
            (demorganize_site, is_demorgan_general, dm),
            (booleanize_site, is_boolean_general, bl),
        ):
            K = repair(C, J)
            assert leq_topology(Jt, K) and law(Ct, K)
            assert (K == Jt) == holds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(concrete_sites())
def test_least_cover_builders_match_saturation(site):
    C, S = site
    ci, mask = C._object_index(S.base), C._members_to_mask(S.members)
    J = generate_topology(C, [S])
    assert_builders_match_saturation(
        C, [trivial_topology(C), J], [(ci, mask)]
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(concrete_sites())
def test_pullback_matches_composites(site):
    # random functions send many arrows g to one composite g;f, and the
    # pullback must keep every one of them
    C, S = site
    for f in sorted(C.arrows_into(S.base)):
        assert pullback_sieve(C, f, S) == naive_pullback(C, f, S)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(concrete_sites())
def test_criteria_and_closed_listing_match_naive(site):
    # a sieve-generated topology may cover objects by the empty sieve,
    # where A_f differs from the principal sieve (f)
    C, S = site
    for J in (
        trivial_topology(C), dense_topology(C), demorgan_topology(C),
        generate_topology(C, [S]),
    ):
        assert_closed_listing_matches_naive(C, J, MAX_ARROWS_INTO)
        assert_criteria_match_naive(C, J, MAX_ARROWS_INTO)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(concrete_sites())
def test_square_witnesses_in_order(site):
    C, S = site
    assert_square_witnesses_in_order(
        C, (trivial_topology(C), dense_topology(C), generate_topology(C, [S]))
    )
