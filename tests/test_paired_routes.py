"""``report``'s paired sweeps decide both laws as the single-law calls do.

Each decision route has one loop that decides De Morgan's law and
excluded middle together, and ``report`` runs each loop once.  Each
paired loop must return the two single-law results
(``conftest.assert_paired_sweeps_match``), and ``report``'s verdicts, or
its first refusal with its message, must be those of the six route
calls made one after another (``oracles.sequential_report``).

Mutations these tests catch: the oracle stopping after the first failed
law, or checking only the first law of each algebra; the general loop
leaving an object, or not visiting the next one, before every pending
law has seen each closed sieve; the general loop visiting an object
after every law has its witness (a refusal the De Morgan call never
reaches); a paired loop dropping or swapping a law's result.
"""

import pytest

from demorgan import cli, subobjects
from demorgan.fincat import FiniteCategory
from demorgan.topology import (
    GrothendieckTopology,
    demorgan_topology,
    dense_topology,
    enumerate_topologies,
    trivial_topology,
)

from conftest import Refused, assert_paired_sweeps_match, outcome, then_wins
from oracles import sequential_report


def report_outcome(C, J, bound=16):
    """``report``'s verdicts, or its refusal, and the same from the six
    separate route calls."""
    return (
        outcome(cli._report_verdicts, C, J, bound),
        outcome(sequential_report, C, J, bound),
    )


def test_paired_sweeps_match_single_law_calls(fixtures, site_enumeration):
    for C in fixtures.values():
        for J in enumerate_topologies(C):
            assert_paired_sweeps_match(C, J)
    for C, tops in site_enumeration:
        for J in tops:
            assert_paired_sweeps_match(C, J)


def test_report_matches_sequential_routes_under_sieve_bounds(fixtures):
    refused = decided = 0
    for C in fixtures.values():
        widest = max(len(C.arrows_into(c)) for c in C.objects)
        for J in enumerate_topologies(C):
            for bound in range(widest + 1):
                paired, sequential = report_outcome(C, J, bound)
                assert paired == sequential
                assert_paired_sweeps_match(C, J, bound)
                refused += isinstance(paired, Refused)
                decided += not isinstance(paired, Refused)
    assert refused and decided


@pytest.mark.parametrize("carrier", [1, 2, 3, 5])
def test_report_matches_sequential_routes_under_carrier_bounds(
    site_enumeration, monkeypatch, carrier
):
    monkeypatch.setattr(subobjects, "_MAX_CARRIER", carrier)
    refused = decided = 0
    for C, tops in site_enumeration:
        for J in tops:
            paired, sequential = report_outcome(C, J)
            assert paired == sequential
            refused += isinstance(paired, Refused)
            decided += not isinstance(paired, Refused)
    assert refused and (decided or carrier == 1)


def _then_wins_dense(C):
    """On then-wins the dense topology, which is also the De Morgan one:
    the non-identity arrows and the maximal sieve cover."""
    xs = C._members_to_mask(C.arrows_into("o") - {"id_o"})
    return GrothendieckTopology(C, [xs])


@pytest.mark.parametrize("k", [7, 8, 17])
def test_report_matches_sequential_routes_on_then_wins(k):
    # k = 7 is decided; k = 8 has 256 or 257 closed sieves, above the
    # carrier bound; k = 17 has 18 arrows into o, above the sieve bound
    C = then_wins(k)
    D = _then_wins_dense(C)
    if k < 17:
        assert D == dense_topology(C) == demorgan_topology(C)
    for J in (trivial_topology(C), D):
        paired, sequential = report_outcome(C, J)
        assert paired == sequential
        assert isinstance(paired, Refused) == (k > 7)


def test_routes_stop_at_the_last_witness():
    # p's two idempotents fail both laws; o's four put five arrows into
    # o, past the sieve bound 3, so a route that lists o's sieves, or
    # builds its algebra, after both witnesses are found refuses
    ps, os_ = ["p0", "p1"], ["o0", "o1", "o2", "o3"]
    C = FiniteCategory(
        ["p", "o"],
        [(x, "p", "p") for x in ps] + [(x, "o", "o") for x in os_],
        [(x, y, y) for xs in (ps, os_) for x in xs for y in xs],
    )
    J = trivial_topology(C)
    paired, sequential = report_outcome(C, J, 3)
    assert paired == sequential == tuple(
        dict.fromkeys(("general", "reduced", "oracle"), False) for _ in (0, 1)
    )
    assert_paired_sweeps_match(C, J, 3)
