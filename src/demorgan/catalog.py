"""Exhaustive catalogs of small structures, up to isomorphism.

Three enumerations back the property suites:

* finite posets, grown one maximal element at a time and deduplicated
  by a canonical form;
* finite Heyting algebras (equivalently finite distributive lattices),
  realized as the downset lattices of the posets of their
  join-irreducibles, so one canonical poset per algebra;
* finite categories with a bounded number of non-identity arrows,
  realized as composition tables over canonical quivers.  Each table
  is keyed by its canonical form before it is built, so only one
  category per isomorphism class is constructed and validated.

All three canonical forms are the least encoding over the relabelings
that preserve a permutation-invariant key of each element
(``_least_relabeling``); a quiver's form is that of its empty
composition table.

Isolated objects are omitted from the category catalog (every
predicate in this package factors over disjoint unions and an isolated
object only contributes its identity); the one- and two-object
discrete categories are included explicitly.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .fincat import FiniteCategory
from .heyting import HeytingAlgebra, inclusion_order, transpose

_OBJ_NAMES = tuple("abcdefgh")
_ARR_NAMES = ("f", "g", "h", "k", "l", "m", "n", "p")


# -- relabeling search --------------------------------------------------------

def _class_permutations(keys):
    """All permutations of range(len(keys)) preserving the key classes.

    Yields mappings old index -> new label, where classes are laid out
    in sorted key order.
    """
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    groups = [
        list(g) for _, g in itertools.groupby(order, key=lambda i: keys[i])
    ]
    starts = []
    s = 0
    for g in groups:
        starts.append(s)
        s += len(g)
    for arrangement in itertools.product(
        *(itertools.permutations(g) for g in groups)
    ):
        perm = [0] * len(keys)
        for start, members in zip(starts, arrangement):
            for offset, old in enumerate(members):
                perm[old] = start + offset
        yield perm


def _least_relabeling(keys, encode):
    """The least ``encode(perm)`` over the permutations that preserve
    the key classes of ``keys``."""
    return min(encode(perm) for perm in _class_permutations(keys))


# -- posets -------------------------------------------------------------------

def canonical_poset(down: Iterable[int]) -> tuple:
    """A permutation-invariant key for a poset given by down-set masks."""
    down = tuple(down)
    n = len(down)
    up = transpose(down)
    base = [(down[i].bit_count(), up[i].bit_count()) for i in range(n)]
    keys = [
        (
            base[i],
            tuple(sorted(base[j] for j in range(n) if down[i] >> j & 1)),
            tuple(sorted(base[j] for j in range(n) if up[i] >> j & 1)),
        )
        for i in range(n)
    ]

    def encode(perm):
        relabeled = [0] * n
        for i in range(n):
            mask = 0
            rest = down[i]
            while rest:
                bit = rest & -rest
                rest ^= bit
                mask |= 1 << perm[bit.bit_length() - 1]
            relabeled[perm[i]] = mask
        return tuple(relabeled)

    return _least_relabeling(keys, encode)


def downsets_of_poset(down: Iterable[int]) -> tuple:
    """All downward-closed subsets, as masks (the poset must be small)."""
    down = tuple(down)
    n = len(down)
    out = []
    for mask in range(1 << n):
        rest = mask
        ok = True
        while rest:
            bit = rest & -rest
            rest ^= bit
            if down[bit.bit_length() - 1] & ~mask:
                ok = False
                break
        if ok:
            out.append(mask)
    return tuple(out)


def enumerate_posets(max_size: int, *, max_downsets: int = 0) -> tuple:
    """All posets with at most ``max_size`` elements, up to isomorphism.

    With ``max_downsets`` set, branches whose downset count already
    exceeds the limit are pruned (the count only grows as elements are
    added).
    """
    levels = [[()]]
    for n in range(1, max_size + 1):
        seen = {}
        for parent in levels[n - 1]:
            for dset in downsets_of_poset(parent):
                child = parent + (dset | (1 << (n - 1)),)
                if max_downsets and len(downsets_of_poset(child)) > max_downsets:
                    continue
                key = canonical_poset(child)
                if key not in seen:
                    seen[key] = key
        levels.append(sorted(seen.values()))
    return tuple(p for level in levels for p in level)


# -- Heyting algebras ---------------------------------------------------------

def enumerate_heyting_algebras(max_size: int = 8) -> tuple:
    """All Heyting algebras with at most ``max_size`` elements, up to
    isomorphism, as the downset lattices of their join-irreducibles."""
    out = []
    for poset in enumerate_posets(max_size - 1, max_downsets=max_size):
        dsets = downsets_of_poset(poset)
        if len(dsets) > max_size:
            continue
        masks = sorted(dsets)
        names = [f"v{m}" for m in masks]
        out.append(HeytingAlgebra(names, inclusion_order(masks)))
    out.sort(key=len)
    return tuple(out)


def enumerate_frames(max_size: int = 8) -> tuple:
    """All finite frames with at most ``max_size`` elements: the finite
    Heyting algebras."""
    return enumerate_heyting_algebras(max_size)


# -- quivers ------------------------------------------------------------------

def _enumerate_quivers(max_edges: int) -> dict:
    """Directed multigraphs without isolated vertices, keyed by edge
    count, up to isomorphism, as the keys of their empty composition
    tables."""
    levels = {0: {(0, (), ())}}
    for m in range(1, max_edges + 1):
        seen = set()
        for n, edges, _ in levels[m - 1]:
            for u in range(n + 2):
                for w in range(n + 2):
                    used = {u, w}
                    # new vertices must be used contiguously
                    if n + 1 in used and n not in used:
                        continue
                    n2 = max(n, max(used) + 1)
                    seen.add(_table_key(n2, edges + ((u, w),), {}))
        levels[m] = seen
    return levels


# -- categories ---------------------------------------------------------------

def _composition_tables(n: int, edges: tuple):
    """All associative composition tables on a quiver, as dicts keyed by
    edge-index pairs; identities are encoded as m + object."""
    m = len(edges)
    dom = [e[0] for e in edges]
    cod = [e[1] for e in edges]
    pairs = [
        (i, j) for i in range(m) for j in range(m) if cod[i] == dom[j]
    ]
    cands = []
    for i, j in pairs:
        c = [
            k for k in range(m) if dom[k] == dom[i] and cod[k] == cod[j]
        ]
        if dom[i] == cod[j]:
            c.append(m + dom[i])
        if not c:
            return
        cands.append(c)
    table = {}

    def comp(x, y):
        if x >= m:
            return y
        if y >= m:
            return x
        return table.get((x, y))

    def consistent():
        for i, j in pairs:
            tij = table.get((i, j))
            if tij is None:
                continue
            for k in range(m):
                if cod[j] != dom[k]:
                    continue
                tjk = table.get((j, k))
                if tjk is None:
                    continue
                left = comp(tij, k)
                right = comp(i, tjk)
                if left is not None and right is not None and left != right:
                    return False
        return True

    def rec(p):
        if p == len(pairs):
            yield dict(table)
            return
        for value in cands[p]:
            table[pairs[p]] = value
            if consistent():
                yield from rec(p + 1)
        del table[pairs[p]]

    yield from rec(0)


def _build_category(n: int, edges: tuple, table: dict) -> FiniteCategory:
    m = len(edges)
    objects = list(_OBJ_NAMES[:n])
    arrows = [
        (_ARR_NAMES[i], objects[u], objects[w])
        for i, (u, w) in enumerate(edges)
    ]
    compose = {}
    for (i, j), value in table.items():
        name = (
            _ARR_NAMES[value]
            if value < m
            else "id_" + objects[value - m]
        )
        compose[(_ARR_NAMES[i], _ARR_NAMES[j])] = name
    return FiniteCategory(objects, arrows, compose)


def _table_key(n: int, edges: tuple, table: dict) -> tuple:
    """Canonical form of the category with ``n`` objects, the quiver
    ``edges`` and the composition ``table`` of ``_composition_tables``.

    Objects are relabeled within their (loops, out, in) degree classes,
    then edges within their classes of parallel edges; composites that
    are identities encode as ``len(edges)``.
    """
    m = len(edges)
    degrees = [
        (
            sum(1 for u, w in edges if u == v and w == v),
            sum(1 for u, _ in edges if u == v),
            sum(1 for _, w in edges if w == v),
        )
        for v in range(n)
    ]

    def encode_objects(sigma):
        ends = [(sigma[u], sigma[w]) for u, w in edges]
        quiver = tuple(sorted(ends))

        def encode_edges(rank):
            comp = sorted(
                (rank[a], rank[b], rank[c] if c < m else m)
                for (a, b), c in table.items()
            )
            return n, quiver, tuple(comp)

        return _least_relabeling(ends, encode_edges)

    return _least_relabeling(degrees, encode_objects)


def enumerate_categories(max_arrows: int = 4) -> tuple:
    """All finite categories with at most ``max_arrows`` non-identity
    arrows and no isolated objects, up to isomorphism, plus the one-
    and two-object discrete categories."""
    out = [FiniteCategory(["a"]), FiniteCategory(["a", "b"])]
    seen = set()
    quivers = _enumerate_quivers(max_arrows)
    for medges in range(1, max_arrows + 1):
        for n, edges, _ in sorted(quivers[medges]):
            for table in _composition_tables(n, edges):
                key = _table_key(n, edges, table)
                if key not in seen:
                    seen.add(key)
                    out.append(_build_category(n, edges, table))
    return tuple(out)
