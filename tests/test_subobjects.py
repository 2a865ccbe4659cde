import pytest

from demorgan.errors import BoundExceeded
from demorgan.fixtures import bool4, ch2, ch3, frm5
from demorgan.heyting import is_boolean_algebra, is_de_morgan_algebra
from demorgan.sieves import (
    Sieve,
    empty_sieve,
    enumerate_sieves,
    generate_sieve,
    maximal_sieve,
    pullback_sieve,
    r_sieve,
)
from demorgan.subobjects import (
    closed_sieve_algebra,
    frame_as_site,
    oracle_is_boolean,
    oracle_is_demorgan,
)
from demorgan.topology import (
    _closure_mask,
    closure_of_sieve,
    demorgan_topology,
    dense_topology,
    enumerate_topologies,
    generate_topology,
    is_boolean_general,
    is_boolean_reduced,
    is_demorgan_general,
    is_demorgan_reduced,
    trivial_topology,
    validate_topology,
)

from conftest import assert_laws_match_naive, then_wins


def fg_topology(C):
    return generate_topology(C, [generate_sieve(C, "c", ["f", "g"])])


def test_carrier_at_cspan_trivial(fixtures):
    C = fixtures["cspan"]
    alg = closed_sieve_algebra(C, trivial_topology(C), "c")
    # all five sieves on c are closed under the trivial topology; the
    # algebra is the five-element non-De-Morgan frame
    assert len(alg) == 5
    assert alg.negation("{f}") == "{g}"
    assert alg.negation("{g}") == "{f}"
    assert alg.join("{f}", "{g}") == "{f,g}"
    assert not is_de_morgan_algebra(alg)


def test_carrier_at_cspan_fg(fixtures):
    C = fixtures["cspan"]
    alg = closed_sieve_algebra(C, fg_topology(C), "c")
    assert len(alg) == 4
    assert set(alg.elements) == {"{}", "{f}", "{g}", "{f,g,id_c}"}
    assert alg.join("{f}", "{g}") == "{f,g,id_c}"
    assert is_boolean_algebra(alg)


def test_carrier_two_elements_when_only_identity(fixtures):
    C = fixtures["cspan"]
    alg = closed_sieve_algebra(C, trivial_topology(C), "a")
    assert len(alg) == 2


def test_carrier_mon2_is_three_chain(fixtures):
    M = fixtures["mon2"]
    alg = closed_sieve_algebra(M, trivial_topology(M), "*")
    assert [alg.leq(a, b) for a in alg.elements for b in alg.elements].count(
        True
    ) == 6  # a three-element chain
    assert is_de_morgan_algebra(alg)
    assert not is_boolean_algebra(alg)


def test_bottom_is_r_sieve(fixtures):
    for name in ("cspan", "mon2", "v_poset"):
        C = fixtures[name]
        for J in enumerate_topologies(C):
            for c in C.objects:
                alg = closed_sieve_algebra(C, J, c)
                bottom = alg.sieve_of(alg.bottom)
                assert bottom == closure_of_sieve(C, J, empty_sieve(C, c))
                assert bottom == r_sieve(C, J, c)


def test_negation_formula(fixtures):
    # negation of a closed sieve R collects the arrows pulling R back
    # to the bottom closed sieve of their domain
    for name in ("cspan", "mon2", "square"):
        C = fixtures[name]
        for J in enumerate_topologies(C):
            bottoms = {c: r_sieve(C, J, c) for c in C.objects}
            for c in C.objects:
                alg = closed_sieve_algebra(C, J, c)
                for name_ in alg.elements:
                    R = alg.sieve_of(name_)
                    expected = Sieve(
                        c,
                        {
                            f
                            for f in C.arrows_into(c)
                            if pullback_sieve(C, f, R) == bottoms[C.dom(f)]
                        },
                    )
                    assert alg.sieve_of(alg.negation(name_)) == expected


def assert_tables_match_sieves(C, J, c, alg=None):
    # the tables come from the inclusion order alone; they must match the
    # sieve formulas: intersection, closure of the union, and the arrows f
    # with f*(a) inside f*(b), of which a => bottom is the negation
    ci = C._object_index(c)
    into = C._into[ci]
    if alg is None:
        alg = closed_sieve_algebra(C, J, c)
    alg.implication(alg.top, alg.top)
    masks = [
        C._members_to_mask(alg.sieve_of(x).members) for x in alg.elements
    ]
    pulled = [[C._pull(f, m) for f in into] for m in masks]
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            assert masks[alg._meet[i][j]] == a & b
            assert masks[alg._join[i][j]] == _closure_mask(
                C, J._least, ci, a | b
            )
            arrowwise = 0
            for f, pa, pb in zip(into, pulled[i], pulled[j]):
                if not pa & ~pb:
                    arrowwise |= 1 << f
            assert masks[alg._imp[i][j]] == arrowwise
            if j == alg._bot:
                assert masks[alg._neg[i]] == arrowwise
    return alg


def test_closed_sieve_algebra_tables_over_catalog(site_enumeration):
    # every object of every catalog site (algebras of at most 17 elements)
    for C, tops in site_enumeration:
        for J in tops:
            for c in C.objects:
                assert_tables_match_sieves(C, J, c)


def test_closed_sieve_algebra_laws_over_catalog(fixtures, site_enumeration):
    # each distinct algebra once: its tables depend on its names and order
    sites = [(C, enumerate_topologies(C)) for C in fixtures.values()]
    seen = set()
    for C, tops in sites + site_enumeration:
        for J in tops:
            for c in C.objects:
                alg = closed_sieve_algebra(C, J, c)
                if (alg.elements, alg._down) not in seen:
                    seen.add((alg.elements, alg._down))
                    assert_laws_match_naive(alg)
    assert len(seen) == 960  # of 60,418 algebras


@pytest.mark.parametrize("k", [5, 6, 7])
def test_closed_sieve_algebra_tables_then_wins(k):
    # 32 to 129 closed sieves, well past the catalog's algebras; the law
    # checks read the negation and join tables and build no implication
    # table, which the first implication call builds
    C = then_wins(k)
    for J, size in (
        (trivial_topology(C), 2 ** k + 1),
        (dense_topology(C), 2 ** k),
        (demorgan_topology(C), 2 ** k),
    ):
        alg = closed_sieve_algebra(C, J, "o")
        is_de_morgan_algebra(alg)
        is_boolean_algebra(alg)
        assert alg._imp is None
        assert len(assert_tables_match_sieves(C, J, "o", alg)) == size
        assert alg._imp is not None
        assert_laws_match_naive(alg)


def test_reduced_routes_decide_past_the_sieve_bound():
    # 18 arrows into o, past the 16-arrow sieve bound: the reduced routes
    # check the 18 principal sieves and enumerate none, also when an
    # object z covered by the empty sieve is cut away first
    C = then_wins(17)
    sites = [(C, trivial_topology(C))]
    Cz = then_wins(17, "z")
    Jz = validate_topology(
        Cz,
        {
            "o": [maximal_sieve(Cz, "o")],
            "z": [empty_sieve(Cz, "z"), maximal_sieve(Cz, "z")],
        },
    )
    sites.append((Cz, Jz))
    for C, J in sites:
        assert is_demorgan_reduced(C, J) is False
        assert is_boolean_reduced(C, J) is False
        for route in (is_demorgan_general, oracle_is_demorgan):
            with pytest.raises(BoundExceeded):
                route(C, J)


def test_oracle_examples(fixtures):
    C = fixtures["cspan"]
    M = fixtures["mon2"]
    assert oracle_is_demorgan(C, trivial_topology(C)) is False
    assert oracle_is_demorgan(C, fg_topology(C)) is True
    assert oracle_is_boolean(C, fg_topology(C)) is True
    assert oracle_is_demorgan(M, trivial_topology(M)) is True
    assert oracle_is_boolean(M, trivial_topology(M)) is False


def test_oracle_agrees_on_fixtures(fixtures):
    for C in fixtures.values():
        for J in enumerate_topologies(C):
            assert oracle_is_demorgan(C, J) == is_demorgan_general(C, J)
            assert oracle_is_boolean(C, J) == is_boolean_general(C, J)


def test_frame_as_site_ch3():
    F = ch3()
    C, J = frame_as_site(F)
    assert set(C.objects) == {"0", "m", "1"}
    # {m -> 1} alone does not cover 1; adding the identity does
    assert not J.contains(generate_sieve(C, "1", ["m<1"]))
    assert J.contains(generate_sieve(C, "1", ["m<1", "id_1"]))
    # the bottom object is covered by the empty sieve, nothing else is
    assert J.has_empty_cover("0")
    assert not J.has_empty_cover("m") and not J.has_empty_cover("1")


def test_frame_as_site_two_elements():
    C, J = frame_as_site(ch2())
    assert is_boolean_general(C, J)
    assert is_demorgan_general(C, J)


def test_frame_as_site_frm5():
    F = frm5()
    C, J = frame_as_site(F)
    assert J.contains(
        generate_sieve(C, "{x,y}", ["{x}<{x,y}", "{y}<{x,y}"])
    )
    assert not is_demorgan_general(C, J)
    assert oracle_is_demorgan(C, J) is False


def test_frame_bridge_matches_algebra_laws():
    for F in (ch2(), ch3(), bool4(), frm5()):
        C, J = frame_as_site(F)
        assert is_demorgan_general(C, J) == is_de_morgan_algebra(F)
        assert is_boolean_general(C, J) == is_boolean_algebra(F)


def test_frame_as_site_covers_are_joins(frame_catalog, frames):
    # a sieve covers c exactly when the join of its members' domains is c
    for F in [*frame_catalog, *frames.values()]:
        C, J = frame_as_site(F)
        for c in C.objects:
            for S in enumerate_sieves(C, c):
                doms = [C.dom(f) for f in S.members]
                assert J.contains(S) == (F.join_all(doms) == c)


def test_frame_as_site_bound():
    with pytest.raises(BoundExceeded):
        frame_as_site(frm5(), max_elements=3)


def test_oracle_on_dense_is_boolean(fixtures):
    for C in fixtures.values():
        D = dense_topology(C)
        assert oracle_is_boolean(C, D) is True
        assert oracle_is_demorgan(C, D) is True
