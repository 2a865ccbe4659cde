import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demorgan.catalog import enumerate_heyting_algebras
from demorgan.errors import (
    NotALattice,
    NotAPartialOrder,
    NotResiduated,
    UnknownElement,
)
from demorgan.fixtures import bool4, ch3, frm5
from demorgan.heyting import (
    cons,
    from_poset,
    has_boolean_property,
    has_de_morgan_property,
    implication,
    is_boolean_algebra,
    is_de_morgan_algebra,
    negation,
    regular_elements,
)

CH3 = ch3()
FRM5 = frm5()
BOOL4 = bool4()
TWO = from_poset(["0", "1"], [("0", "1")])
ONE = from_poset(["*"], [])

SMALL_CATALOG = enumerate_heyting_algebras(6)


def test_from_poset_examples():
    assert CH3.bottom == "0" and CH3.top == "1"
    assert CH3.meet("m", "1") == "m"
    assert CH3.join("0", "m") == "m"
    assert FRM5.join("{x}", "{y}") == "{x,y}"
    assert is_boolean_algebra(TWO)


def test_from_poset_takes_transitive_closure():
    H = from_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert H.leq("0", "1")


def test_non_lattices_rejected():
    # two maximal elements: no top
    with pytest.raises(NotALattice):
        from_poset(["0", "a", "b"], [("0", "a"), ("0", "b")])
    # M3 and N5 are lattices but not residuated
    with pytest.raises(NotResiduated):
        from_poset(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "b"), ("0", "c"),
             ("a", "1"), ("b", "1"), ("c", "1")],
        )
    with pytest.raises(NotResiduated):
        from_poset(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "c"), ("c", "b"), ("a", "1"), ("b", "1")],
        )
    with pytest.raises(NotAPartialOrder):
        from_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_implication_negation_examples():
    assert negation(CH3, "m") == "0"
    assert negation(CH3, "0") == "1"
    assert negation(FRM5, "{x}") == "{y}"
    for H in (CH3, FRM5, BOOL4, TWO):
        assert negation(H, H.top) == H.bottom
        assert negation(H, H.bottom) == H.top
    assert implication(CH3, "1", "m") == "m"
    with pytest.raises(UnknownElement):
        negation(CH3, "zz")


def test_law_checks():
    assert is_de_morgan_algebra(CH3) is True
    assert is_de_morgan_algebra(FRM5) is False
    assert is_de_morgan_algebra(BOOL4) is True
    assert is_boolean_algebra(CH3) is False
    assert is_boolean_algebra(BOOL4) is True
    assert is_boolean_algebra(FRM5) is False
    assert is_de_morgan_algebra(ONE) and is_boolean_algebra(ONE)


def test_property_checks():
    assert has_de_morgan_property(CH3) is True
    assert has_de_morgan_property(FRM5) is False
    assert has_de_morgan_property(TWO) is True
    assert has_boolean_property(CH3) is False
    assert has_boolean_property(BOOL4) is True
    assert has_boolean_property(ONE) is True


def test_cons_examples():
    assert cons(CH3, "m") == {"m", "1"}
    assert cons(CH3, "1") == set(CH3.elements) - {"0"}
    assert cons(CH3, "0") == frozenset()


def test_regular_elements_examples():
    assert set(regular_elements(CH3).elements) == {"0", "1"}
    R5 = regular_elements(FRM5)
    assert set(R5.elements) == {"0", "{x}", "{y}", "1"}
    assert is_boolean_algebra(R5)
    assert R5.join("{x}", "{y}") == "1"
    assert set(regular_elements(BOOL4).elements) == set(BOOL4.elements)


def test_regular_elements_always_boolean():
    for H in SMALL_CATALOG:
        assert is_boolean_algebra(regular_elements(H))


def test_double_negation_preserves_meets():
    for H in SMALL_CATALOG:
        nn = {a: H.negation(H.negation(a)) for a in H.elements}
        for a in H.elements:
            for b in H.elements:
                assert nn[H.meet(a, b)] == H.meet(nn[a], nn[b])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_residuation_law(data):
    H = data.draw(st.sampled_from(SMALL_CATALOG))
    a = data.draw(st.sampled_from(H.elements))
    b = data.draw(st.sampled_from(H.elements))
    x = data.draw(st.sampled_from(H.elements))
    assert H.leq(H.meet(x, a), b) == H.leq(x, H.implication(a, b))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_negation_antitone_and_involutive_on_regulars(data):
    H = data.draw(st.sampled_from(SMALL_CATALOG))
    a = data.draw(st.sampled_from(H.elements))
    b = data.draw(st.sampled_from(H.elements))
    if H.leq(a, b):
        assert H.leq(H.negation(b), H.negation(a))
    assert H.negation(H.negation(H.negation(a))) == H.negation(a)
