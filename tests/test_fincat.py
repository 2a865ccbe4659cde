import pytest

from demorgan.errors import (
    BrokenAssociativity,
    DanglingReference,
    MissingComposite,
    NotComposable,
    UnknownArrow,
    UnknownObject,
)
from demorgan.fincat import (
    FiniteCategory,
    arrows_into,
    is_mono,
    ore_counterexample,
    right_ore,
    validate_category,
)

from oracles import naive_completes, naive_is_mono, naive_right_ore

CSPAN_RAW = {
    "objects": ["a", "b", "c"],
    "arrows": [
        {"name": "f", "dom": "a", "cod": "c"},
        {"name": "g", "dom": "b", "cod": "c"},
    ],
    "compose": [],
}

MON2_RAW = {
    "objects": ["*"],
    "arrows": [{"name": "e", "dom": "*", "cod": "*"}],
    "compose": [{"first": "e", "then": "e", "equals": "e"}],
}


def test_validate_cspan_synthesizes_identities():
    C = validate_category(CSPAN_RAW)
    assert len(C.arrows) == 5
    assert set(C.identity.values()) == {"id_a", "id_b", "id_c"}
    assert C.compose("id_a", "f") == "f"
    assert C.compose("f", "id_c") == "f"


def test_validate_mon2():
    C = validate_category(MON2_RAW)
    assert len(C.arrows) == 2
    assert C.compose("e", "e") == "e"


def test_non_composable_pair_rejected():
    raw = dict(CSPAN_RAW)
    raw["compose"] = [{"first": "f", "then": "g", "equals": "f"}]
    with pytest.raises(NotComposable):
        validate_category(raw)


def test_missing_composite_rejected():
    with pytest.raises(MissingComposite):
        FiniteCategory(
            ["a", "b", "c"],
            [("f", "a", "b"), ("g", "b", "c"), ("h", "a", "c")],
        )


def test_broken_associativity_rejected():
    # (pp)p = qp = q but p(pp) = pq = p
    with pytest.raises(BrokenAssociativity):
        FiniteCategory(
            ["*"],
            [("p", "*", "*"), ("q", "*", "*")],
            {
                ("p", "p"): "q",
                ("p", "q"): "p",
                ("q", "p"): "q",
                ("q", "q"): "q",
            },
        )


def test_dangling_reference():
    with pytest.raises(DanglingReference):
        FiniteCategory(["a"], [("f", "a", "zz")])
    with pytest.raises(DanglingReference):
        FiniteCategory(["a"], [("f", "a", "a")], {("f", "f"): "ghost"})


@pytest.mark.parametrize("document", [
    {"objects": ["a"], "arrows": [{"name": "f", "dom": "a"}]},
    {"objects": "ab"},
    {"arrows": []},
    ["a", "b"],
], ids=["arrow-without-cod", "string-objects", "no-objects", "not-a-mapping"])
def test_malformed_document_rejected(document):
    with pytest.raises(DanglingReference):
        validate_category(document)


def test_validation_idempotent(fixtures):
    for C in fixtures.values():
        again = validate_category(C.to_data())
        assert again == C
        assert validate_category(again.to_data()) == again


def test_arrows_into_examples(fixtures):
    cspan, mon2 = fixtures["cspan"], fixtures["mon2"]
    assert arrows_into(cspan, "c") == {"id_c", "f", "g"}
    assert arrows_into(cspan, "a") == {"id_a"}
    assert arrows_into(mon2, "*") == {"id_*", "e"}
    with pytest.raises(UnknownObject):
        arrows_into(cspan, "zz")


def test_is_mono_examples(fixtures):
    assert is_mono(fixtures["cspan"], "f") is True
    # e;id = e;e but id != e, so e is not left-cancellable
    assert is_mono(fixtures["mon2"], "e") is False
    for C in fixtures.values():
        for obj, ident in C.identity.items():
            assert is_mono(C, ident) is True
    with pytest.raises(UnknownArrow):
        is_mono(fixtures["cspan"], "zz")


def test_is_mono_matches_brute_force(fixtures):
    for C in fixtures.values():
        for f in C.arrows:
            assert is_mono(C, f) == naive_is_mono(C, f)


def test_right_ore_examples(fixtures):
    assert right_ore(fixtures["cspan"]) is False
    assert right_ore(fixtures["mon2"]) is True
    assert right_ore(fixtures["discrete2"]) is True
    assert right_ore(fixtures["span"]) is True
    assert right_ore(fixtures["parallel"]) is False
    assert right_ore(fixtures["mon3_first_wins"]) is True
    assert right_ore(fixtures["mon3_second_wins"]) is False


def test_right_ore_matches_exhaustive_search(fixtures, catalog3):
    for C in fixtures.values():
        assert right_ore(C) == naive_right_ore(C)
    for C in catalog3[:60]:
        assert right_ore(C) == naive_right_ore(C)


def test_ore_counterexample_matches_brute_force(fixtures, catalog3):
    assert ore_counterexample(fixtures["cspan"]) == ("f", "g")
    for C in list(fixtures.values()) + list(catalog3):
        found = ore_counterexample(C)
        assert (found is None) == naive_right_ore(C)
        if found is not None:
            f, g = found
            assert C.cod(f) == C.cod(g)
            assert not naive_completes(C, f, g)


def test_category_equality_ignores_declaration_order():
    C1 = FiniteCategory(["a", "b"], [("f", "a", "b")])
    C2 = FiniteCategory(["b", "a"], [("f", "a", "b")])
    assert C1 == C2
    assert hash(C1) == hash(C2)
