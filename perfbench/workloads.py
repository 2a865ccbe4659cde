"""The three workloads.  Each has a set-up step that builds its inputs
from the seed and a pass function that runs the inputs once, closed
loop, one call at a time, checking every verdict as it goes.

Caches live on each ``FiniteCategory``, so every pass validates its
categories afresh and starts cold; inside a pass the route order is
fixed (``ROUTE_ORDER``), and extra calls made only by the traced run come
after a site's timed calls or work on a separate ``validate_category``
copy.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from demorgan import cli
from demorgan.catalog import enumerate_categories, enumerate_frames
from demorgan.errors import BoundExceeded, EmptyReduction
from demorgan.fincat import right_ore, validate_category
from demorgan.fixtures import category_fixtures
from demorgan.frames import demorganize_frame, enumerate_nuclei
from demorgan.heyting import is_boolean_algebra, is_de_morgan_algebra
from demorgan.sieves import enumerate_sieves
from demorgan.subobjects import (
    closed_sieve_algebra,
    oracle_is_boolean,
    oracle_is_demorgan,
)
from demorgan.topology import (
    booleanize_site,
    demorgan_topology,
    demorganize_site,
    dense_topology,
    enumerate_topologies,
    is_boolean_general,
    is_boolean_reduced,
    is_demorgan_general,
    is_demorgan_reduced,
    leq_topology,
    no_empty_covers,
    reduced_site,
    trivial_topology,
)

import inputs

ROUTE_ORDER = (
    ("topology.is_demorgan_general", "demorgan", is_demorgan_general),
    ("topology.is_boolean_general", "boolean", is_boolean_general),
    ("topology.is_demorgan_reduced", "demorgan", is_demorgan_reduced),
    ("topology.is_boolean_reduced", "boolean", is_boolean_reduced),
    ("subobjects.oracle_is_demorgan", "demorgan", oracle_is_demorgan),
    ("subobjects.oracle_is_boolean", "boolean", oracle_is_boolean),
)

# Golden counts of the catalog survey (categories with at most four
# non-identity arrows plus the 14 named fixtures; frames of size <= 8).
GOLDEN_CATEGORIES = 1122
GOLDEN_SITES = 15791
GOLDEN_DEMORGAN = 14659
GOLDEN_BOOLEAN = 6734
GOLDEN_FRAMES = 36
GOLDEN_NUCLEI = 1059
GOLDEN_FIXSET_ELEMENTS = 209


class GateError(Exception):
    """A verdict was wrong, routes disagreed, or a golden count moved."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


@dataclass
class Tally:
    """What one pass did, beside its wall time."""

    meter: object  # speed.Speedometer, probed between items
    items: list = field(default_factory=list)  # (start, end, at the bound)
    decisions: int = 0   # route decisions (or CLI calls) attempted
    refused: int = 0     # ... that ended in BoundExceeded / exit 3
    categories: int = 0
    sites: int = 0
    sieves: int = 0
    carrier_elements: int = 0

    def item(self, start: float, end: float, at_bound: bool = False) -> None:
        """Record one timed site or call; the speed probe may run after it."""
        self.items.append((start, end, at_bound))
        self.meter.tick()

    def between_calls(self) -> None:
        """The speed probe may also run between two calls of one item (the
        reference-time conversion leaves probe time out), so long
        frontier sites are calibrated from inside."""
        self.meter.tick()


def decide(tracer, C, J, tally: Tally) -> tuple:
    """All six routes in ``ROUTE_ORDER``; returns the verdict sets for
    (De Morgan, Boolean).  A refused route is counted, not a failure."""
    found = {"demorgan": set(), "boolean": set()}
    for name, law, route in ROUTE_ORDER:
        tally.decisions += 1
        try:
            found[law].add(tracer.call(name, route, C, J))
        except BoundExceeded:
            tally.refused += 1
        tally.between_calls()
    return found["demorgan"], found["boolean"]


def single_verdict(found: set, what: str) -> bool:
    gate(len(found) == 1, f"{what}: routes gave {sorted(found)}")
    return next(iter(found))


def check_repairs(J, dm, bl, K_dm, K_bl, where) -> None:
    """DeMorganization/Booleanization lie above J, and equal J exactly
    when the law already holds (J has no empty covers here)."""
    gate(leq_topology(J, K_dm) and leq_topology(J, K_bl),
         f"{where}: a repair is not above the input topology")
    gate((K_dm == J) == dm, f"{where}: demorganize_site vs verdict {dm}")
    gate((K_bl == J) == bl, f"{where}: booleanize_site vs verdict {bl}")


def traced_extras(tracer, C, J, tally: Tally) -> None:
    """Layer splits for the traced run, after the site's timed calls:
    the reduced site on its own, and the oracle split into closed-sieve
    algebra construction (subobjects) and the law check (heyting)."""
    try:
        tracer.extra("topology.reduced_site", reduced_site, C, J)
    except EmptyReduction:
        pass
    for c in C.objects:
        try:
            H = tracer.extra(
                "subobjects.closed_sieve_algebra", closed_sieve_algebra, C, J, c
            )
        except BoundExceeded:
            continue
        tally.carrier_elements += len(H)
        tracer.extra("heyting.is_de_morgan_algebra", is_de_morgan_algebra, H)
        tracer.extra("heyting.is_boolean_algebra", is_boolean_algebra, H)


def count_sieves(tracer, C, tally: Tally) -> None:
    """Sieve counts, taken on a fresh copy so the timed category's
    sieve cache stays as the workload left it."""
    copy = tracer.extra("fincat.validate_category", validate_category, C)
    for c in copy.objects:
        tally.sieves += len(
            tracer.extra("sieves.enumerate_sieves", enumerate_sieves, copy, c)
        )


# -- catalog_survey -------------------------------------------------------------

@dataclass
class SurveyInputs:
    seed: int
    fixtures: list  # site documents of the named fixture categories


def setup_catalog_survey(seed: int, root: Path, workdir: Path) -> SurveyInputs:
    fixtures = [C.to_data() for C in category_fixtures().values()]
    return SurveyInputs(seed, fixtures)


def pass_catalog_survey(inp: SurveyInputs, tracer, tally: Tally) -> None:
    # The seed orders the categories.  Each category's sites run in
    # enumeration order: the first one pays for the category's cold caches,
    # so the same sites are the slow ones on every seed.
    rng = random.Random(inp.seed)
    cats = [
        tracer.call("fincat.validate_category", validate_category, d)
        for d in inp.fixtures
    ]
    cats += tracer.call(
        "catalog.enumerate_categories", enumerate_categories, 4
    )
    rng.shuffle(cats)
    n_dm = n_bl = 0
    for C in cats:
        with tracer.span("category"):
            tops = tracer.call(
                "topology.enumerate_topologies", enumerate_topologies, C
            )
            ore = tracer.call("fincat.right_ore", right_ore, C)
            if tracer.traced:
                count_sieves(tracer, C, tally)
            for J in tops:
                with tracer.span("site"):
                    t0 = perf_counter()
                    found_dm, found_bl = decide(tracer, C, J, tally)
                    nec = no_empty_covers(J)
                    if nec:
                        K_dm = tracer.call(
                            "topology.demorganize_site", demorganize_site, C, J
                        )
                        K_bl = tracer.call(
                            "topology.booleanize_site", booleanize_site, C, J
                        )
                    t1 = perf_counter()
                    if tracer.traced:
                        traced_extras(tracer, C, J, tally)
                tally.item(t0, t1)
                where = f"catalog site {tally.sites} ({C!r})"
                dm = single_verdict(found_dm, f"{where} De Morgan")
                bl = single_verdict(found_bl, f"{where} Boolean")
                if nec:
                    gate(dm or not ore, f"{where}: right Ore but not De Morgan")
                    check_repairs(J, dm, bl, K_dm, K_bl, where)
                tally.sites += 1
                n_dm += dm
                n_bl += bl
    tally.categories = len(cats)
    got = (len(cats), tally.sites, n_dm, n_bl)
    want = (GOLDEN_CATEGORIES, GOLDEN_SITES, GOLDEN_DEMORGAN, GOLDEN_BOOLEAN)
    gate(got == want, f"catalog (categories, sites, De Morgan, Boolean) = "
                      f"{got}, expected {want}")

    frames = tracer.call("catalog.enumerate_frames", enumerate_frames, 8)
    n_nuclei = n_fixed = 0
    for F in frames:
        n_nuclei += len(tracer.call(
            "frames.enumerate_nuclei", enumerate_nuclei, F
        ))
        _, quotient = tracer.call(
            "frames.demorganize_frame", demorganize_frame, F
        )
        n_fixed += len(quotient)
    got = (len(frames), n_nuclei, n_fixed)
    want = (GOLDEN_FRAMES, GOLDEN_NUCLEI, GOLDEN_FIXSET_ELEMENTS)
    gate(got == want, f"frames (frames, nuclei, fixset elements) = {got}, "
                      f"expected {want}")


# -- frontier -------------------------------------------------------------------

# Known verdicts (De Morgan, Boolean) per family and topology.
FRONTIER_VERDICTS = {
    ("then_wins", "trivial"): (False, False),
    ("wide", "trivial"): (False, False),
    ("chain", "trivial"): (True, False),
    ("chain", "dense"): (True, True),
    ("chain", "demorgan"): (True, False),
}


def frontier_verdict(family: str, topology: str) -> tuple:
    return FRONTIER_VERDICTS.get((family, topology), (True, True))


def setup_frontier(seed: int, root: Path, workdir: Path) -> list:
    return inputs.frontier_members(seed)


def pass_frontier(members: list, tracer, tally: Tally) -> None:
    for family, k, data in members:
        frontier_member(tracer, tally, family, k, data)


def frontier_member(tracer, tally: Tally, family, k, data) -> None:
    """One family member under its three topologies.  A function of its
    own so the member's category and caches are freed before the next."""
    C = tracer.call("fincat.validate_category", validate_category, data)
    at_bound = max(len(C.arrows_into(c)) for c in C.objects) \
        == inputs.SIEVE_BOUND
    if tracer.traced:
        count_sieves(tracer, C, tally)
    M = tracer.call("topology.demorgan_topology", demorgan_topology, C)
    D = tracer.call("topology.dense_topology", dense_topology, C)
    sites = (
        ("trivial",
         tracer.call("topology.trivial_topology", trivial_topology, C)),
        ("dense", D),
        ("demorgan", M),
    )
    for which, J in sites:
        with tracer.span("site"):
            t0 = perf_counter()
            found_dm, found_bl = decide(tracer, C, J, tally)
            K_dm = tracer.call(
                "topology.demorganize_site", demorganize_site, C, J
            )
            tally.between_calls()
            K_bl = tracer.call("topology.booleanize_site", booleanize_site, C, J)
            t1 = perf_counter()
            if tracer.traced:
                traced_extras(tracer, C, J, tally)
        tally.item(t0, t1, at_bound)
        tally.sites += 1
        where = f"{family} k={k} under the {which} topology"
        dm = single_verdict(found_dm, f"{where} De Morgan")
        bl = single_verdict(found_bl, f"{where} Boolean")
        gate((dm, bl) == frontier_verdict(family, which),
             f"{where}: verdicts {(dm, bl)}, expected "
             f"{frontier_verdict(family, which)}")
        check_repairs(J, dm, bl, K_dm, K_bl, where)
        if which == "trivial":
            gate(K_dm == M and K_bl == D,
                 f"{where}: repairs of the trivial topology are not M, D")
        if which == "demorgan":
            gate(K_bl == D, f"{where}: Booleanization of M is not dense")


# -- cli_report -----------------------------------------------------------------

def setup_cli_report(seed: int, root: Path, workdir: Path) -> list:
    return inputs.cli_calls(seed, root, workdir)


# Names the cli module calls into other layers with; the traced run wraps
# them so that spans nest under each in-process main() call.
CLI_LAYER_CALLS = {
    "parse_site": "cli.parse_site",
    "validate_category": "fincat.validate_category",
    "generate_topology": "topology.generate_topology",
    "dense_topology": "topology.dense_topology",
    "demorgan_topology": "topology.demorgan_topology",
    "trivial_topology": "topology.trivial_topology",
    "right_ore": "fincat.right_ore",
    "countroc_witness": "topology.countroc_witness",
    **{fn.__name__: name for name, _, fn in ROUTE_ORDER},
}


@contextmanager
def cli_layer_spans(tracer):
    """Wrap the cli module's layer calls in spans for the traced run."""
    if not tracer.traced:
        yield
        return
    saved = {attr: getattr(cli, attr) for attr in CLI_LAYER_CALLS}

    def wrap(name, fn):
        return lambda *a, **kw: tracer.call(name, fn, *a, **kw)

    try:
        for attr, name in CLI_LAYER_CALLS.items():
            setattr(cli, attr, wrap(name, saved[attr]))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def pass_cli_report(calls: list, tracer, tally: Tally) -> None:
    with cli_layer_spans(tracer):
        for argv, (exits, verdicts) in calls:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                with tracer.span("cli.call"):
                    t0 = perf_counter()
                    rc = cli.main(argv)
                    t1 = perf_counter()
            tally.item(t0, t1)
            tally.decisions += 1
            tally.refused += rc == 3
            where = " ".join(argv[1:])
            gate(rc in exits, f"cli report {where}: exit {rc}, expected one "
                              f"of {sorted(exits)}; {err.getvalue().strip()}")
            if rc != 0:
                continue
            payload = json.loads(out.getvalue())
            gate(payload["methods_agree"] is True,
                 f"cli report {where}: decision methods disagree")
            if verdicts is not None:
                got = (payload["de_morgan"]["general"],
                       payload["boolean"]["general"])
                gate(got == verdicts,
                     f"cli report {where}: verdicts {got}, expected {verdicts}")


WORKLOADS = {
    "catalog_survey": (setup_catalog_survey, pass_catalog_survey),
    "frontier": (setup_frontier, pass_frontier),
    "cli_report": (setup_cli_report, pass_cli_report),
}

ITEM_KIND = {"catalog_survey": "site", "frontier": "site",
             "cli_report": "main() call"}
