import collections
import random

import pytest

from demorgan.errors import (
    BoundExceeded,
    CategoryMismatch,
    EmptyReduction,
    InputError,
    NotStable,
    NotTransitive,
    TopologyAxiomError,
)
from demorgan.fincat import right_ore
from demorgan.fixtures import discrete
from demorgan.sieves import (
    Sieve,
    _from_mask,
    empty_sieve,
    enumerate_sieves,
    generate_sieve,
    maximal_sieve,
)
from demorgan.topology import (
    GrothendieckTopology,
    booleanize_site,
    closure_of_sieve,
    countroc_witness,
    demorgan_counterexample,
    demorgan_topology,
    demorganize_site,
    dense_topology,
    enumerate_topologies,
    generate_topology,
    is_boolean_general,
    is_boolean_reduced,
    is_closed,
    is_demorgan_general,
    is_demorgan_reduced,
    join_topology,
    leq_topology,
    meet_topology,
    no_empty_covers,
    reduced_site,
    trivial_topology,
    validate_topology,
)

from conftest import (
    assert_builders_match_saturation,
    assert_closed_listing_matches_naive,
    assert_criteria_match_naive,
)
from oracles import (
    all_sieves_on,
    naive_closure,
    naive_enumerate_topologies,
    naive_reduced_site,
    naive_validate_topology,
)


def fg_topology(C):
    return generate_topology(C, [generate_sieve(C, "c", ["f", "g"])])


def covers_sets(J):
    return {
        obj: sorted(sorted(s.members) for s in J.covers(obj))
        for obj in J.category.objects
    }


# -- validation ---------------------------------------------------------------

def test_validate_trivial(fixtures):
    C = fixtures["cspan"]
    J = validate_topology(
        C, {obj: [maximal_sieve(C, obj)] for obj in C.objects}
    )
    assert J == trivial_topology(C)


def test_validate_fg_cover(fixtures):
    C = fixtures["cspan"]
    covers = {obj: [maximal_sieve(C, obj)] for obj in C.objects}
    covers["c"].append(Sieve("c", {"f", "g"}))
    assert validate_topology(C, covers) == fg_topology(C)


def test_validate_rejects_unstable_cover(fixtures):
    C = fixtures["cspan"]
    covers = {obj: [maximal_sieve(C, obj)] for obj in C.objects}
    covers["c"].append(Sieve("c", {"f"}))
    with pytest.raises(NotStable) as exc:
        validate_topology(C, covers)
    obj, sieve, arrow = exc.value.witness
    assert obj == "c"
    assert sieve.members == {"f"}
    assert arrow == "g"


def test_validate_requires_maximal(fixtures):
    C = fixtures["mon2"]
    with pytest.raises(InputError):
        validate_topology(C, {"*": [Sieve("*", {"e"})]})


def _literal_families(C, tops, rng, n):
    """``n`` derandomized literal cover families on ``C``, one list of
    sieve masks per object: a random set of sieves (the maximal sieve
    left out 1 time in 50), the up-set of a random sieve per object, or
    the up-sets of a topology of ``tops``; the last two with one sieve
    of one object added or taken away half the time."""
    sieves = [C._sieve_masks(ci) for ci in range(len(C.objects))]
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            fam = [
                [m for m in s if m != top and rng.random() < 0.5]
                + ([top] if rng.random() >= 0.02 else [])
                for s, top in zip(sieves, C._into_mask)
            ]
        else:
            least = (
                [rng.choice(s) for s in sieves] if kind == 1
                else rng.choice(tops)._least
            )
            fam = [
                [m for m in s if not K & ~m] for s, K in zip(sieves, least)
            ]
            if rng.random() < 0.5:
                ci = rng.randrange(len(sieves))
                m = rng.choice(sieves[ci])
                if m in fam[ci]:
                    fam[ci].remove(m)
                else:
                    fam[ci].append(m)
        for listed in fam:
            rng.shuffle(listed)
        yield fam


def _outcome(validate, C, covers):
    try:
        return validate(C, covers)
    except TopologyAxiomError as exc:
        return exc


def test_validate_matches_four_axiom_scan(fixtures, site_enumeration):
    # literal families on every fixture and catalog4 category: the same
    # verdict and exception type as the four-axiom scan over every sieve,
    # the same message and witness for NotMaximalClosed and NotStable,
    # and a NotTransitive witness (c, R, S) with R an unlisted sieve,
    # S listed and every pullback of R along S listed
    rng = random.Random(22)
    cats = [(C, enumerate_topologies(C)) for C in fixtures.values()]
    named = collections.Counter()
    for C, tops in cats + site_enumeration:
        for fam in _literal_families(C, tops, rng, 12):
            covers = {
                c: [_from_mask(C, ci, m) for m in fam[ci]]
                for ci, c in enumerate(C.objects)
            }
            got = _outcome(validate_topology, C, covers)
            want = _outcome(naive_validate_topology, C, covers)
            assert type(got) is type(want)
            named[type(got).__name__] += 1
            if isinstance(got, GrothendieckTopology):
                assert got == want
            elif not isinstance(got, NotTransitive):
                assert (str(got), got.witness) == (str(want), want.witness)
            else:
                c, R, S = got.witness
                ci = C._object_index(c)
                r = C._members_to_mask(R.members)
                s = C._members_to_mask(S.members)
                assert C._is_sieve_mask(ci, r)
                assert r not in fam[ci] and s in fam[ci]
                for h in C._into[ci]:
                    if s >> h & 1:
                        assert C._pull(h, r) in fam[C._dom[h]]
    # every kind of outcome is reached
    assert set(named) == {
        "GrothendieckTopology", "NotMaximalClosed", "NotStable",
        "NotTransitive",
    }


def test_validate_checks_least_covers(fixtures, site_enumeration):
    # every enumerated topology validates as itself
    cats = [(C, enumerate_topologies(C)) for C in fixtures.values()]
    for C, tops in cats + site_enumeration:
        for J in tops:
            assert validate_topology(C, J) == J
    # an unstable family: {f} on c pulls back to the empty sieve along g
    C = fixtures["cspan"]
    K = [C._into_mask[0], C._into_mask[1], C._members_to_mask({"f"})]
    with pytest.raises(NotStable) as exc:
        validate_topology(C, GrothendieckTopology(C, K))
    assert exc.value.witness == ("c", Sieve("c", {"f"}), "g")
    # a stable, non-idempotent family on f: a -> b: the empty sieve
    # covers a and (f) covers b, so the empty sieve covers b
    C = fixtures["arrow"]
    K = [0, C._members_to_mask({"f"})]
    with pytest.raises(NotTransitive) as exc:
        validate_topology(C, GrothendieckTopology(C, K))
    assert exc.value.witness == ("b", Sieve("b"), Sieve("b", {"f"}))


# -- generation ---------------------------------------------------------------

def test_generate_examples(fixtures):
    C = fixtures["cspan"]
    J = fg_topology(C)
    assert covers_sets(J) == {
        "a": [["id_a"]],
        "b": [["id_b"]],
        "c": [["f", "g"], ["f", "g", "id_c"]],
    }
    assert generate_topology(C, []) == trivial_topology(C)


def test_generate_empty_seed_on_a(fixtures):
    C = fixtures["cspan"]
    K = generate_topology(C, [empty_sieve(C, "a")])
    assert covers_sets(K) == {
        "a": [[], ["id_a"]],
        "b": [["id_b"]],
        "c": [["f", "g", "id_c"]],
    }


def test_generated_topologies_validate(fixtures):
    for C in fixtures.values():
        for obj in C.objects:
            for S in all_sieves_on(C, obj):
                J = generate_topology(C, [S])
                validate_topology(C, J.covers_map())
                assert J.contains(S)


def test_generation_is_minimal(fixtures):
    # nothing generated can be removed: every enumerated topology that
    # contains the seed also contains the generated topology
    for name in ("cspan", "mon2", "parallel", "v_poset"):
        C = fixtures[name]
        tops = enumerate_topologies(C)
        for obj in C.objects:
            for S in all_sieves_on(C, obj):
                J = generate_topology(C, [S])
                for K in tops:
                    if K.contains(S):
                        assert leq_topology(J, K)


# -- lattice structure ----------------------------------------------------------

def test_leq_meet_join(fixtures):
    C = fixtures["cspan"]
    T, J, D = trivial_topology(C), fg_topology(C), dense_topology(C)
    assert leq_topology(T, J) and leq_topology(J, J)
    assert leq_topology(J, D) and leq_topology(D, J)
    assert meet_topology(J, T) == T
    assert join_topology(J, T) == J
    assert join_topology(T, J) == J
    with pytest.raises(CategoryMismatch):
        leq_topology(T, trivial_topology(fixtures["mon2"]))


def test_lattice_laws_on_enumeration(fixtures):
    C = fixtures["cspan"]
    tops = enumerate_topologies(C)
    for J1 in tops:
        for J2 in tops:
            m = meet_topology(J1, J2)
            j = join_topology(J1, J2)
            validate_topology(C, m.covers_map())
            assert leq_topology(m, J1) and leq_topology(m, J2)
            assert leq_topology(J1, j) and leq_topology(J2, j)
            assert (leq_topology(J1, J2) and leq_topology(J2, J1)) == (J1 == J2)


# -- closure ---------------------------------------------------------------------

def test_closure_examples(fixtures):
    C = fixtures["cspan"]
    T, J = trivial_topology(C), fg_topology(C)
    R = Sieve("c", {"f"})
    assert closure_of_sieve(C, T, R) == R
    assert is_closed(C, T, R)
    fg = Sieve("c", {"f", "g"})
    assert closure_of_sieve(C, J, fg) == maximal_sieve(C, "c")
    assert not is_closed(C, J, fg)
    for obj in C.objects:
        assert is_closed(C, T, maximal_sieve(C, obj))
        assert is_closed(C, J, maximal_sieve(C, obj))


def test_closure_matches_naive(fixtures):
    for name in ("cspan", "mon2", "square", "group2"):
        C = fixtures[name]
        for J in enumerate_topologies(C):
            for obj in C.objects:
                for S in all_sieves_on(C, obj):
                    assert closure_of_sieve(C, J, S) == naive_closure(C, J, S)


# -- named topologies -------------------------------------------------------------

def test_no_empty_covers(fixtures):
    C = fixtures["cspan"]
    assert no_empty_covers(trivial_topology(C))
    assert no_empty_covers(dense_topology(C))
    assert not no_empty_covers(generate_topology(C, [empty_sieve(C, "a")]))


def test_dense_topology_examples(fixtures):
    C = fixtures["cspan"]
    assert covers_sets(dense_topology(C)) == {
        "a": [["id_a"]],
        "b": [["id_b"]],
        "c": [["f", "g"], ["f", "g", "id_c"]],
    }
    M = fixtures["mon2"]
    assert covers_sets(dense_topology(M)) == {
        "*": [["e"], ["e", "id_*"]]
    }
    # on a right-Ore category every non-empty sieve is stably non-empty
    for name in ("mon2", "group2", "span", "mon3_first_wins"):
        C = fixtures[name]
        D = dense_topology(C)
        for obj in C.objects:
            for S in all_sieves_on(C, obj):
                assert D.contains(S) == bool(S.members)


def test_demorgan_topology_examples(fixtures):
    # right-Ore categories carry the trivial De Morgan topology
    for name in ("mon2", "group2", "discrete2", "span", "chain3"):
        C = fixtures[name]
        assert demorgan_topology(C) == trivial_topology(C)
    C = fixtures["cspan"]
    assert demorgan_topology(C) == fg_topology(C)


# -- reduction ---------------------------------------------------------------------

def test_reduced_site_identity_without_empty_covers(fixtures):
    C = fixtures["cspan"]
    J = fg_topology(C)
    Ct, Jt = reduced_site(C, J)
    assert Ct is C and Jt is J


def test_reduced_site_drops_empty_covered_objects(fixtures):
    C = fixtures["cspan"]
    K = generate_topology(C, [empty_sieve(C, "a")])
    Ct, Jt = reduced_site(C, K)
    assert set(Ct.objects) == {"b", "c"}
    assert set(Ct.arrows) == {"g", "id_b", "id_c"}
    assert Jt == trivial_topology(Ct)
    Ct2, Jt2 = reduced_site(Ct, Jt)
    assert Ct2 is Ct and Jt2 is Jt


def test_reduced_site_idempotent_over_enumeration(fixtures):
    for name in ("cspan", "v_poset", "parallel"):
        C = fixtures[name]
        for J in enumerate_topologies(C):
            try:
                Ct, Jt = reduced_site(C, J)
            except EmptyReduction:
                assert all(J.has_empty_cover(o) for o in C.objects)
                continue
            assert no_empty_covers(Jt)
            Ct2, Jt2 = reduced_site(Ct, Jt)
            assert Ct2 is Ct and Jt2 is Jt


def test_reduced_sites_validate_over_catalog(fixtures, site_enumeration):
    # reduced_site slices the category and restricts the covers without
    # validating either; on every fixture and catalog site it must equal
    # the reduced site built from its definition by the validating
    # constructors, with the same objects and the same arrow order
    sites = [(C, enumerate_topologies(C)) for C in fixtures.values()]
    for C, tops in sites + site_enumeration:
        for J in tops:
            expected = naive_reduced_site(C, J)
            if expected is None:
                with pytest.raises(EmptyReduction):
                    reduced_site(C, J)
                continue
            (Ct, Jt), (Nt, NJ) = reduced_site(C, J), expected
            assert Ct.objects == Nt.objects
            assert tuple(Ct.arrows) == tuple(Nt.arrows)
            assert Ct == Nt and Jt == NJ


def test_right_ore_boolean_shortcut_over_catalog(site_enumeration):
    # on a right Ore reduced site the topos is Boolean exactly when every
    # closed sieve is empty or maximal
    checked = 0
    for C, tops in site_enumeration:
        for J in tops:
            try:
                Ct, Jt = reduced_site(C, J)
            except EmptyReduction:
                continue
            if not right_ore(Ct):
                continue
            checked += 1
            shortcut = all(
                not R.members or R.members == Ct.arrows_into(c)
                for c in Ct.objects
                for R in enumerate_sieves(Ct, c)
                if is_closed(Ct, Jt, R)
            )
            assert is_boolean_reduced(C, J) == shortcut
    assert checked


def test_empty_reduction_raises(fixtures):
    C = fixtures["discrete1"]
    K = generate_topology(C, [empty_sieve(C, "a")])
    with pytest.raises(EmptyReduction):
        reduced_site(C, K)


# -- decision procedures -------------------------------------------------------------

def test_demorgan_decisions(fixtures):
    C = fixtures["cspan"]
    T, J = trivial_topology(C), fg_topology(C)
    M = fixtures["mon2"]
    assert is_demorgan_general(C, T) is False
    assert is_demorgan_general(M, trivial_topology(M)) is True
    assert is_demorgan_general(C, J) is True
    assert is_demorgan_reduced(C, T) is False
    assert is_demorgan_reduced(M, trivial_topology(M)) is True
    assert is_demorgan_reduced(C, J) is True


def test_demorgan_counterexample_witness(fixtures):
    C = fixtures["cspan"]
    obj, closed, criterion = demorgan_counterexample(C, trivial_topology(C))
    assert obj == "c"
    assert closed.members in ({"f"}, {"g"})
    assert criterion.members == {"f", "g"}


def test_boolean_decisions(fixtures):
    C = fixtures["cspan"]
    M = fixtures["mon2"]
    assert is_boolean_general(C, fg_topology(C)) is True
    assert is_boolean_general(M, trivial_topology(M)) is False
    assert is_boolean_reduced(C, fg_topology(C)) is True
    assert is_boolean_reduced(M, trivial_topology(M)) is False
    # the dense topology always yields a Boolean topos
    for C in fixtures.values():
        assert is_boolean_general(C, dense_topology(C)) is True


def test_decisions_on_empty_cover_topology(fixtures):
    # worked example: covering a by the empty sieve leaves the arrow g
    C = fixtures["cspan"]
    K = generate_topology(C, [empty_sieve(C, "a")])
    assert is_demorgan_general(C, K) is True
    assert is_demorgan_reduced(C, K) is True
    assert is_boolean_general(C, K) is False
    assert is_boolean_reduced(C, K) is False


# -- DeMorganization and Booleanization ------------------------------------------------

def test_demorganize_examples(fixtures):
    C = fixtures["cspan"]
    T = trivial_topology(C)
    assert demorganize_site(C, T) == fg_topology(C)
    M = fixtures["mon2"]
    assert demorganize_site(M, trivial_topology(M)) == trivial_topology(M)
    # already De Morgan: unchanged
    J = fg_topology(C)
    assert demorganize_site(C, J) == J


def test_booleanize_examples(fixtures):
    C = fixtures["cspan"]
    assert booleanize_site(C, trivial_topology(C)) == fg_topology(C)
    M = fixtures["mon2"]
    atomic = booleanize_site(M, trivial_topology(M))
    assert covers_sets(atomic) == {"*": [["e"], ["e", "id_*"]]}
    D = dense_topology(C)
    assert booleanize_site(C, D) == D


def test_demorganize_output_is_demorgan(fixtures):
    for C in fixtures.values():
        K = demorganize_site(C, trivial_topology(C))
        assert is_demorgan_general(K.category, K)
        B = booleanize_site(C, trivial_topology(C))
        assert is_boolean_general(B.category, B)


# -- enumeration -------------------------------------------------------------------------

def test_enumerate_topologies_counts(fixtures):
    assert len(enumerate_topologies(fixtures["discrete1"])) == 2
    assert len(enumerate_topologies(fixtures["mon2"])) == 3
    assert len(enumerate_topologies(fixtures["cspan"])) == 8


def test_enumerated_topologies_validate(fixtures):
    for name in ("discrete1", "mon2", "cspan", "parallel"):
        C = fixtures[name]
        tops = enumerate_topologies(C)
        assert len(set(tops)) == len(tops)
        for J in tops:
            validate_topology(C, J.covers_map())


def test_enumeration_matches_upset_search(fixtures, site_enumeration):
    # the same topologies in the same order as filtering every product
    # of per-object up-sets
    for C in fixtures.values():
        assert enumerate_topologies(C) == naive_enumerate_topologies(C)
    for C, tops in site_enumeration:
        assert tops == naive_enumerate_topologies(C)


def test_builders_match_saturation_over_catalog(fixtures, site_enumeration):
    # every fixture and catalog4 category: its dense and De Morgan
    # topologies, the topology generated by each of its sieves, and the
    # joins and repairs of each of its topologies
    cats = [(C, enumerate_topologies(C)) for C in fixtures.values()]
    for C, tops in cats + site_enumeration:
        seeds = [
            (ci, m) for ci in range(len(C.objects)) for m in C._sieve_masks(ci)
        ]
        assert_builders_match_saturation(C, tops, seeds)


def test_criteria_match_pullback_form_over_catalog(fixtures, site_enumeration):
    # every closed sieve of every object of every fixture and catalog4
    # site: the criterion sieves read off the negation masks are the
    # pullback-form ones
    cats = [(C, enumerate_topologies(C)) for C in fixtures.values()]
    for C, tops in cats + site_enumeration:
        for J in tops:
            assert_criteria_match_naive(C, J)


def test_closed_listing_matches_naive_closure_over_catalog(
    fixtures, site_enumeration
):
    cats = [(C, enumerate_topologies(C)) for C in fixtures.values()]
    for C, tops in cats + site_enumeration:
        for J in tops:
            assert_closed_listing_matches_naive(C, J)


def test_enumeration_bound_on_sieve_product():
    # two sieves per object: 2^21 candidate families, above 2,000,000
    with pytest.raises(BoundExceeded):
        enumerate_topologies(discrete(21))


def test_enumeration_bound():
    from demorgan.catalog import enumerate_categories

    C = next(
        c for c in enumerate_categories(2)
        if len(c.arrows) - len(c.objects) == 2
    )
    with pytest.raises(BoundExceeded):
        enumerate_topologies(C, max_nonidentity_arrows=1)


# -- the no-De-Morgan witness --------------------------------------------------------------

def test_countroc_examples(fixtures):
    C = fixtures["cspan"]
    assert countroc_witness(C, trivial_topology(C)) == ("c", "f", "g")
    M = fixtures["mon2"]
    assert countroc_witness(M, trivial_topology(M)) is None
    assert countroc_witness(C, fg_topology(C)) is None
    K = generate_topology(C, [empty_sieve(C, "a")])
    with pytest.raises(InputError):
        countroc_witness(C, K)
