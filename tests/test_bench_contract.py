"""The benchmark harness under ``perfbench/`` patches and calls library
names by string and by reference; a rename in the package must fail
here rather than only when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

from demorgan import cli
from demorgan.fixtures import cspan
from demorgan.sieves import empty_sieve
from demorgan.topology import generate_topology

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
