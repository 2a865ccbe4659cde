"""The benchmark harness under ``perfbench/`` patches and calls library
names by string and by reference; a rename in the package must fail
here rather than only when the benchmark runs."""

import importlib.util
import random
import sys
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import pytest

from demorgan import cli
from demorgan.errors import BoundExceeded
from demorgan.fincat import validate_category
from demorgan.fixtures import cspan
from demorgan.frames import demorganize_frame, enumerate_nuclei
from demorgan.sieves import empty_sieve
from demorgan.topology import (
    enumerate_topologies,
    generate_topology,
    is_boolean_reduced,
    is_demorgan_general,
    is_demorgan_reduced,
    trivial_topology,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling ``inputs`` as a top-level module,
    # and its dataclasses need the module itself in ``sys.modules``
    added = {"inputs", "perfbench_workloads"} - set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in added:
            sys.modules.pop(name, None)


def test_cli_layer_calls_exist(workloads):
    for attr in workloads.CLI_LAYER_CALLS:
        assert callable(getattr(cli, attr, None)), attr


def test_route_order_routes_callable(workloads):
    assert workloads.ROUTE_ORDER
    for name, law, route in workloads.ROUTE_ORDER:
        assert callable(route), name
        assert law in ("demorgan", "boolean"), name


def test_route_order_and_reduced_site_take_positional_site(workloads):
    # perfbench calls reduced_site and every route as fn(C, J); here the
    # empty sieve covers a, so the reduced site is a proper subcategory
    C = cspan()
    J = generate_topology(C, [empty_sieve(C, "a")])
    Ct, _ = workloads.reduced_site(C, J)
    assert set(Ct.objects) == {"b", "c"}
    for name, _, route in workloads.ROUTE_ORDER:
        assert route(C, J) in (True, False), name


def test_golden_counts_match_the_library(
    workloads, fixtures, site_enumeration, frame_catalog
):
    # the survey gates on these counts; an enumeration change that moves
    # one must fail here before the benchmark runs
    sites = [(C, J) for C in fixtures.values() for J in enumerate_topologies(C)]
    sites += [(C, J) for C, tops in site_enumeration for J in tops]
    assert len(fixtures) + len(site_enumeration) == workloads.GOLDEN_CATEGORIES
    assert len(sites) == workloads.GOLDEN_SITES
    assert (
        sum(is_demorgan_reduced(C, J) for C, J in sites)
        == workloads.GOLDEN_DEMORGAN
    )
    assert (
        sum(is_boolean_reduced(C, J) for C, J in sites)
        == workloads.GOLDEN_BOOLEAN
    )
    assert len(frame_catalog) == workloads.GOLDEN_FRAMES
    assert (
        sum(len(enumerate_nuclei(F)) for F in frame_catalog)
        == workloads.GOLDEN_NUCLEI
    )
    assert (
        sum(len(demorganize_frame(F)[1]) for F in frame_catalog)
        == workloads.GOLDEN_FIXSET_ELEMENTS
    )


class _Untraced:
    """Makes each call directly, as the benchmark's untraced run does."""

    traced = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return nullcontext()


def _frontier_member(workloads, family, k):
    """One frontier member through the benchmark's own per-member code,
    which calls ``demorgan_topology(C)``, ``dense_topology(C)``, each
    route, ``demorganize_site(C, J)`` and ``booleanize_site(C, J)``
    positionally and gates their results with ``leq_topology`` and
    ``==``.  Returns the member's category and tally."""
    data = workloads.inputs.FAMILIES[family](random.Random(1), k)
    tally = workloads.Tally(meter=SimpleNamespace(tick=lambda: None))
    workloads.frontier_member(_Untraced(), tally, family, k, data)
    return validate_category(data), tally


@pytest.mark.parametrize("family, k, refused", [
    ("then_wins", 4, 0), ("then_wins", 15, 6), ("wide", 15, 6),
    ("chain", 16, 0),
])
def test_frontier_member_passes_its_gates(workloads, family, k, refused):
    # every route decides then-wins k = 4 under all three topologies; at
    # the sieve bound the general route decides too, and only the oracle
    # refuses, once per law on each site, where its carrier is too large
    _, tally = _frontier_member(workloads, family, k)
    assert tally.sites == 3 and tally.refused == refused


@pytest.mark.parametrize("family, k", [
    ("then_wins", 64), ("wide", 128), ("chain", 32),
])
def test_frontier_gates_hold_past_the_sieve_bound(workloads, family, k):
    # the dense and De Morgan topologies and both repairs build; the
    # reduced routes give FRONTIER_VERDICTS; the repairs of the trivial
    # site are M and D and the Booleanization of M is D
    C, tally = _frontier_member(workloads, family, k)
    assert max(map(len, map(C.arrows_into, C.objects))) > 16
    assert tally.sites == 3 and tally.refused > 0
    # De Morgan's law fails, if at all, only at the object past the bound,
    # so the general route must list its sieves
    with pytest.raises(BoundExceeded):
        is_demorgan_general(C, trivial_topology(C))
