import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from demorgan.catalog import (
    enumerate_categories,
    enumerate_frames,
    enumerate_heyting_algebras,
)
from demorgan.errors import BoundExceeded, EmptyReduction
from demorgan.fincat import FiniteCategory
from demorgan.fixtures import category_fixtures, frame_fixtures
from demorgan.heyting import is_boolean_algebra, is_de_morgan_algebra
from demorgan.sieves import _b_mask, _from_mask, _m_mask
from demorgan.subobjects import _oracle, oracle_is_boolean, oracle_is_demorgan
from demorgan.topology import (
    _boolean_criterion,
    _demorgan_criterion,
    _general_witness,
    _principal_witness,
    boolean_counterexample,
    booleanize_site,
    demorgan_counterexample,
    demorgan_topology,
    demorganize_site,
    dense_topology,
    enumerate_topologies,
    generate_topology,
    join_topology,
    reduced_site,
)

from oracles import (
    cover_sets,
    naive_implication,
    naive_is_boolean,
    naive_is_de_morgan,
    saturate_covers,
    saturated_demorgan,
    saturated_dense,
)

DATA = Path(__file__).parent / "data"


def then_wins(k, *others):
    """One object with k idempotents, x;y = y: every set of them is a
    sieve, so the object has 2^k + 1 sieves.  The objects ``others``
    come with their identities only."""
    xs = [f"x{i}" for i in range(k)]
    return FiniteCategory(
        ["o", *others],
        [(x, "o", "o") for x in xs],
        [(x, y, y) for x in xs for y in xs],
    )


def assert_laws_match_naive(H):
    """The table-driven negation and law checks of ``H`` agree with the
    definitions through ``naive_implication``."""
    for a in H.elements:
        assert H.negation(a) == naive_implication(H, a, H.bottom)
    assert is_de_morgan_algebra(H) == naive_is_de_morgan(H)
    assert is_boolean_algebra(H) == naive_is_boolean(H)


class Refused(str):
    """The message of a BoundExceeded, as a call's outcome."""


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the Refused message of its BoundExceeded."""
    try:
        return fn(*args, **kwargs)
    except BoundExceeded as exc:
        return Refused(exc)


def _paired_outcome(dm, bl):
    """What a paired sweep over (De Morgan, Boolean) must return, given
    the outcomes of the two single-law calls: both results, or the De
    Morgan call's refusal.  On each object excluded middle fails wherever
    De Morgan's law does, so the Boolean call never refuses where the De
    Morgan call decides."""
    if isinstance(dm, Refused):
        return dm
    assert not isinstance(bl, Refused)
    return dm, bl


def assert_paired_sweeps_match(C, J, bound=16):
    """Each route's paired sweep returns its two single-law results."""
    general = (_demorgan_criterion, _boolean_criterion)
    assert outcome(_general_witness, C, J, general, bound) == _paired_outcome(
        outcome(demorgan_counterexample, C, J, max_arrows_into=bound),
        outcome(boolean_counterexample, C, J, max_arrows_into=bound),
    )
    reduced = (_m_mask, _b_mask)
    assert _principal_witness(C, J, reduced) == tuple(
        _principal_witness(C, J, (law,))[0] for law in reduced
    )
    oracle = (is_de_morgan_algebra, is_boolean_algebra)
    assert outcome(_oracle, C, J, oracle, bound) == _paired_outcome(
        outcome(oracle_is_demorgan, C, J, max_arrows_into=bound),
        outcome(oracle_is_boolean, C, J, max_arrows_into=bound),
    )


def _saturated_join(C, covers, other):
    return saturate_covers(C, [a | b for a, b in zip(covers, other)])


def assert_builders_match_saturation(C, tops, seeds=()):
    """The least-cover builders give the covers that saturating over
    every sieve gives: the dense and De Morgan topologies of ``C``,
    ``generate_topology`` from each (object index, sieve mask) of
    ``seeds``, and for each topology of ``tops`` its joins with both and
    its two repairs."""
    D, M = dense_topology(C), demorgan_topology(C)
    dense, demorgan = saturated_dense(C), saturated_demorgan(C)
    assert cover_sets(D) == dense and cover_sets(M) == demorgan
    for ci, mask in seeds:
        one = [{mask} if i == ci else () for i in range(len(C.objects))]
        S = _from_mask(C, ci, mask)
        assert cover_sets(generate_topology(C, [S])) == saturate_covers(C, one)
    for J in tops:
        covers = cover_sets(J)
        assert cover_sets(join_topology(J, D)) == (
            _saturated_join(C, covers, dense)
        )
        assert cover_sets(join_topology(J, M)) == (
            _saturated_join(C, covers, demorgan)
        )
        try:
            Ct, Jt = reduced_site(C, J)
        except EmptyReduction:
            continue
        if Ct is C:
            t_dense, t_demorgan = dense, demorgan
        else:
            t_dense, t_demorgan = saturated_dense(Ct), saturated_demorgan(Ct)
        assert cover_sets(demorganize_site(C, J)) == (
            _saturated_join(Ct, cover_sets(Jt), t_demorgan)
        )
        assert cover_sets(booleanize_site(C, J)) == (
            _saturated_join(Ct, cover_sets(Jt), t_dense)
        )


@pytest.fixture(scope="session")
def fixtures():
    return category_fixtures()


@pytest.fixture(scope="session")
def frames():
    return frame_fixtures()


@pytest.fixture(scope="session")
def catalog3():
    return enumerate_categories(3)


@pytest.fixture(scope="session")
def catalog4():
    return enumerate_categories(4)


@pytest.fixture(scope="session")
def site_enumeration(catalog4):
    """Every catalog category paired with all of its topologies."""
    return [(C, enumerate_topologies(C)) for C in catalog4]


@pytest.fixture(scope="session")
def heyting_catalog():
    return enumerate_heyting_algebras(8)


@pytest.fixture(scope="session")
def frame_catalog():
    return enumerate_frames(8)
