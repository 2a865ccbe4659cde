"""Seeded input generators.

Every input is a plain site document (the ``site/1`` JSON schema of
``demorgan.cli``): the library only ever sees the generated documents,
validated into categories inside the timed region.  The seed picks arrow
and object names, declaration order and the sample of catalog sites;
each family member is an isomorphic relabelling of the same category,
so verdicts do not depend on the seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from demorgan.catalog import enumerate_categories
from demorgan.topology import enumerate_topologies

# Scaling families: the largest then-wins and wide members sit exactly at
# the default sieve bound of 16 arrows into one object (k = 15 plus the
# identity); the 16-object chain reaches it too.  From k = 8 on the oracle
# refuses (2^k + 1 closed sieves).  The sizes keep the per-site costs of
# different members apart, and two members come as three relabelled
# copies, so that each reported rank falls inside a group of near-equal
# sites rather than on whichever neighbour noise pushes into it: of the
# 42 sites, the 11th largest (the tail) is the middle of the nine wide
# k = 12 sites, the median lies among the six then-wins k = 8 dense and
# De Morgan sites, and the median bound site is a wide k = 15 one.
FRONTIER_MEMBERS = (
    ("then_wins", 4), ("then_wins", 8), ("then_wins", 8), ("then_wins", 8),
    ("then_wins", 15),
    ("wide", 4), ("wide", 8), ("wide", 12), ("wide", 12), ("wide", 12),
    ("wide", 15),
    ("chain", 4), ("chain", 8), ("chain", 16),
)
SIEVE_BOUND = 16

# CLI documents per topology spec: then-wins sizes (the three k = 7 calls,
# ~1 s each in the oracle, are the slow cluster; with about six passes a
# run, the tail lands among them; k = 8 ends in exit 3 today), chain
# lengths, and sampled catalog sites with a covers field.
CLI_THEN_WINS = (2, 3, 4, 5, 6, 7)
CLI_REFUSED_THEN_WINS = 8
CLI_CHAINS = (3, 6, 10)
CLI_CATALOG_SITES = 8
CLI_CATALOG_ARROWS = 3
CLI_TEST_DOCS = ("cspan.json", "cspan_fg.json", "mon2.json", "bad_name.json")
CLI_TOPOLOGIES = ((), ("--topology", "dense"), ("--topology", "demorgan"))


def _names(rng: random.Random, prefix: str, n: int) -> list:
    pool = [f"{prefix}{i}" for i in range(3 * n + 3)]
    return rng.sample(pool, n)


def _document(rng, objects, arrows, compose) -> dict:
    """A site document with its declarations in seeded order."""
    objects, arrows, compose = list(objects), list(arrows), list(compose)
    for part in (objects, arrows, compose):
        rng.shuffle(part)
    return {
        "format": "site/1",
        "objects": objects,
        "arrows": [{"name": n, "dom": d, "cod": c} for n, d, c in arrows],
        "compose": [
            {"first": f, "then": g, "equals": h} for f, g, h in compose
        ],
    }


def then_wins(rng: random.Random, k: int) -> dict:
    """One object, k idempotents, x;y = y: every arrow set is a sieve,
    so the object has 2^k + 1 sieves."""
    (obj,) = _names(rng, "o", 1)
    xs = _names(rng, "x", k)
    return _document(
        rng,
        [obj],
        [(x, obj, obj) for x in xs],
        [(x, y, y) for x in xs for y in xs],
    )


def wide(rng: random.Random, k: int) -> dict:
    """k objects with one arrow each into a common top object."""
    objs = _names(rng, "a", k + 1)
    top, legs = objs[0], objs[1:]
    fs = _names(rng, "f", k)
    return _document(
        rng, objs, [(f, a, top) for f, a in zip(fs, legs)], []
    )


def chain(rng: random.Random, n: int) -> dict:
    """The n-element chain as a poset category; sieve counts grow
    linearly (object i has i + 2 sieves)."""
    objs = _names(rng, "c", n)
    arrow = {
        (i, j): f"{objs[i]}_{objs[j]}"
        for i in range(n) for j in range(i + 1, n)
    }
    return _document(
        rng,
        objs,
        [(name, objs[i], objs[j]) for (i, j), name in arrow.items()],
        [
            (arrow[i, j], arrow[j, m], arrow[i, m])
            for i in range(n) for j in range(i + 1, n) for m in range(j + 1, n)
        ],
    )


FAMILIES = {"then_wins": then_wins, "wide": wide, "chain": chain}


def frontier_members(seed: int) -> list:
    """(family, size, document) for each frontier member, in seeded order."""
    rng = random.Random(seed)
    members = [
        (family, k, FAMILIES[family](rng, k)) for family, k in FRONTIER_MEMBERS
    ]
    rng.shuffle(members)
    return members


def catalog_site_documents(rng: random.Random, count: int) -> list:
    """Sampled catalog categories, each with a sampled topology written as
    a covers field (every non-maximal covering sieve, by its members)."""
    cats = [
        C for C in enumerate_categories(CLI_CATALOG_ARROWS)
        if C.non_identity_arrows()
    ]
    docs = []
    for C in rng.sample(cats, count):
        J = rng.choice(enumerate_topologies(C))
        data = {"format": "site/1", **C.to_data()}
        data["covers"] = {
            c: sorted(
                sorted(S.members) for S in J.covers(c)
                if S.members != C.arrows_into(c)
            )
            for c in C.objects
        }
        docs.append(data)
    return docs


def cli_calls(seed: int, root: Path, workdir: Path) -> list:
    """(argv, expectation) for every call of one cli_report pass, in
    seeded order; generated documents are written under ``workdir``.

    An expectation is (allowed exit codes, expected (De Morgan, Boolean)
    or None when only route agreement is checked).
    """
    rng = random.Random(seed)
    docs = []  # (path, allowed exits, {topology spec: verdicts} or None)
    for name in CLI_TEST_DOCS:
        exits = {2} if name == "bad_name.json" else {0}
        docs.append((root / "tests" / "data" / name, exits, None))

    generated = [(d, {0}, None) for d in catalog_site_documents(
        rng, CLI_CATALOG_SITES
    )]
    # then-wins: no Ore completions, so the trivial topology fails both
    # laws; the dense and De Morgan topologies satisfy both.
    tw = {(): (False, False), ("--topology", "dense"): (True, True),
          ("--topology", "demorgan"): (True, True)}
    generated += [(then_wins(rng, k), {0}, tw) for k in CLI_THEN_WINS]
    # k = 8: 257 closed sieves exceed the oracle's carrier bound (exit 3).
    # A fix that decides it instead must still give the right verdicts.
    generated.append(
        (then_wins(rng, CLI_REFUSED_THEN_WINS), {0, 3}, tw)
    )
    # chains are right Ore: De Morgan everywhere, Boolean only when dense.
    ch = {(): (True, False), ("--topology", "dense"): (True, True),
          ("--topology", "demorgan"): (True, False)}
    generated += [(chain(rng, n), {0}, ch) for n in CLI_CHAINS]

    for i, (data, exits, verdicts) in enumerate(generated):
        path = workdir / f"doc{i:02d}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        docs.append((path, exits, verdicts))

    calls = []
    for path, exits, verdicts in docs:
        for spec in CLI_TOPOLOGIES:
            argv = ["report", str(path), "--json", *spec]
            calls.append((argv, (exits, verdicts and verdicts[spec])))
    rng.shuffle(calls)
    return calls
