import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from demorgan.catalog import (
    enumerate_categories,
    enumerate_frames,
    enumerate_heyting_algebras,
)
from demorgan.fincat import FiniteCategory
from demorgan.fixtures import category_fixtures, frame_fixtures
from demorgan.heyting import is_boolean_algebra, is_de_morgan_algebra
from demorgan.topology import enumerate_topologies

from oracles import naive_implication, naive_is_boolean, naive_is_de_morgan

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
