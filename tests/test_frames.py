import itertools

import pytest

from demorgan.catalog import enumerate_frames
from demorgan.errors import (
    BoundExceeded,
    NotIdempotent,
    NotInflationary,
    NotMeetPreserving,
)
from demorgan.fixtures import bool4, ch2, ch3, ch4, frm5
from demorgan.frames import (
    Nucleus,
    closed_nucleus,
    closure_nucleus,
    demorganize_frame,
    dense_closed_factorization,
    enumerate_nuclei,
    filter_generated,
    fixset,
    identity_nucleus,
    is_almost_discrete,
    is_dense_nucleus,
    is_extremally_disconnected,
    nucleus_join,
    nucleus_meet,
    open_nucleus,
    quotient_by_filter,
    top_nucleus,
    validate_nucleus,
)
from demorgan.heyting import is_boolean_algebra, is_de_morgan_algebra

CH3 = ch3()
FRM5 = frm5()


def brute_force_nuclei(F):
    """Independent enumeration: filter all inflationary tables."""
    elems = F.elements
    out = []
    for values in itertools.product(elems, repeat=len(elems)):
        table = dict(zip(elems, values))
        if any(not F.leq(a, table[a]) for a in elems):
            continue
        if any(table[table[a]] != table[a] for a in elems):
            continue
        if any(
            table[F.meet(a, b)] != F.meet(table[a], table[b])
            for a in elems
            for b in elems
        ):
            continue
        out.append(Nucleus(F, table))
    return out


def test_validate_nucleus_examples():
    assert validate_nucleus(CH3, {a: a for a in CH3.elements}).is_identity()
    assert validate_nucleus(CH3, {a: "1" for a in CH3.elements}) == top_nucleus(CH3)
    om = validate_nucleus(CH3, {"0": "0", "m": "1", "1": "1"})
    assert om == open_nucleus(CH3, "m")


def test_validate_nucleus_rejections():
    with pytest.raises(NotInflationary):
        validate_nucleus(CH3, {"0": "0", "m": "0", "1": "1"})
    with pytest.raises(NotIdempotent):
        validate_nucleus(CH3, {"0": "m", "m": "1", "1": "1"})
    with pytest.raises(NotMeetPreserving):
        validate_nucleus(FRM5, {
            "0": "0", "{x}": "{x,y}", "{y}": "{y}", "{x,y}": "{x,y}", "1": "1",
        })


def test_open_closed_examples():
    assert open_nucleus(CH3, "m").table == {"0": "0", "m": "1", "1": "1"}
    assert closed_nucleus(CH3, "0") == identity_nucleus(CH3)
    assert open_nucleus(CH3, "1") == identity_nucleus(CH3)
    assert open_nucleus(CH3, "0") == top_nucleus(CH3)


def test_enumerate_nuclei_counts():
    nuclei = enumerate_nuclei(CH3)
    assert len(nuclei) == 4
    expected = {
        identity_nucleus(CH3),
        top_nucleus(CH3),
        open_nucleus(CH3, "m"),
        closed_nucleus(CH3, "m"),
    }
    assert set(nuclei) == expected
    assert len(enumerate_nuclei(ch2())) == 2


def test_enumerate_nuclei_matches_brute_force():
    for F in [ch2(), CH3, bool4(), ch4(), FRM5]:
        assert set(enumerate_nuclei(F)) == set(brute_force_nuclei(F))
    for F in enumerate_frames(5):
        assert set(enumerate_nuclei(F)) == set(brute_force_nuclei(F))


def test_enumerate_nuclei_bound():
    with pytest.raises(BoundExceeded):
        enumerate_nuclei(FRM5, max_size=3)


def test_fixset_examples():
    assert fixset(CH3, identity_nucleus(CH3)).elements == CH3.elements
    assert len(fixset(CH3, top_nucleus(CH3))) == 1
    assert set(fixset(CH3, open_nucleus(CH3, "m")).elements) == {"0", "1"}


def test_density_examples():
    assert is_dense_nucleus(CH3, identity_nucleus(CH3))
    assert is_dense_nucleus(CH3, open_nucleus(CH3, "m"))
    assert not is_dense_nucleus(CH3, closed_nucleus(CH3, "m"))


def test_closure_examples():
    assert closure_nucleus(CH3, open_nucleus(CH3, "m")) == identity_nucleus(CH3)
    cm = closed_nucleus(CH3, "m")
    assert closure_nucleus(CH3, cm) == cm
    assert closure_nucleus(CH3, top_nucleus(CH3)) == top_nucleus(CH3)


def test_dense_closed_factorization():
    for F in (CH3, FRM5, bool4()):
        for j in enumerate_nuclei(F):
            closed_part, residual = dense_closed_factorization(F, j)
            assert closed_part == closed_nucleus(F, j(F.bottom))
            sub = residual.frame
            assert sub.bottom == j(F.bottom)
            validate_nucleus(sub, residual.table)
            assert is_dense_nucleus(sub, residual)
            if is_dense_nucleus(F, j):
                assert closed_part == identity_nucleus(F)


def test_filter_and_quotient_examples():
    assert filter_generated(CH3, ["1"]) == {"1"}
    assert quotient_by_filter(CH3, ["1"]) == identity_nucleus(CH3)
    assert quotient_by_filter(CH3, ["0"]) == top_nucleus(CH3)
    assert filter_generated(FRM5, ["1", "{x,y}"]) == {"{x,y}", "1"}
    assert quotient_by_filter(FRM5, ["1", "{x,y}"]) == open_nucleus(FRM5, "{x,y}")


def test_quotient_matches_congruence_classes():
    # collapsing the filter above a is the congruence u ~ v iff
    # u meet a == v meet a; classes must biject with the fixset of o(a)
    F = FRM5
    for a in F.elements:
        j = quotient_by_filter(F, [a])
        fixed = sorted(x for x in F.elements if j(x) == x)
        classes = {}
        for x in F.elements:
            classes.setdefault(F.meet(x, a), set()).add(x)
        assert len(classes) == len(fixed)
        for rep, members in classes.items():
            images = {j(x) for x in members}
            assert len(images) == 1
            assert images.pop() in fixed


def test_demorganize_frame_examples():
    j, q = demorganize_frame(CH3)
    assert j.is_identity()
    j5, q5 = demorganize_frame(FRM5)
    assert j5 == open_nucleus(FRM5, "{x,y}")
    assert len(q5) == 4
    assert is_boolean_algebra(q5)
    jb, _ = demorganize_frame(bool4())
    assert jb.is_identity()


def test_demorganize_contract_over_catalog():
    for F in enumerate_frames(6):
        j, q = demorganize_frame(F)
        assert is_dense_nucleus(F, j)
        assert is_de_morgan_algebra(q)


def test_classifications_match_laws_over_catalog():
    for F in enumerate_frames(8):
        assert is_extremally_disconnected(F) == is_de_morgan_algebra(F)
        assert is_almost_discrete(F) == is_boolean_algebra(F)


def test_classification_examples():
    assert is_extremally_disconnected(CH3) is True
    assert is_almost_discrete(CH3) is False
    assert is_extremally_disconnected(FRM5) is False
    assert is_extremally_disconnected(bool4()) is True
    assert is_almost_discrete(bool4()) is True


def test_open_closed_complementation():
    for F in (CH3, FRM5, bool4(), ch4()):
        for a in F.elements:
            o, c = open_nucleus(F, a), closed_nucleus(F, a)
            assert nucleus_meet(F, o, c) == identity_nucleus(F)
            assert nucleus_join(F, o, c) == top_nucleus(F)


def test_fixset_of_open_nucleus_is_implication_range():
    for F in (CH3, FRM5, bool4()):
        for a in F.elements:
            fixed = set(fixset(F, open_nucleus(F, a)).elements)
            assert fixed == {F.implication(a, x) for x in F.elements}
