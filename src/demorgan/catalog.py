"""Exhaustive catalogs of small structures, up to isomorphism.

Three enumerations back the property suites:

* finite posets, grown one maximal element at a time and deduplicated
  by a canonical form;
* finite Heyting algebras (equivalently finite distributive lattices),
  realized as the downset lattices of the posets of their
  join-irreducibles, so one canonical poset per algebra;
* finite categories with a bounded number of non-identity arrows,
  realized as composition tables over canonical quivers and
  deduplicated by a canonical form.

Isolated objects are omitted from the category catalog (every
predicate in this package factors over disjoint unions and an isolated
object only contributes its identity); the one- and two-object
discrete categories are included explicitly.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .fincat import FiniteCategory
from .heyting import HeytingAlgebra

_OBJ_NAMES = tuple("abcdefgh")
_ARR_NAMES = ("f", "g", "h", "k", "l", "m", "n", "p")


# -- posets -------------------------------------------------------------------

def _popcount(x: int) -> int:
    return bin(x).count("1")


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


def canonical_poset(down: Iterable[int]) -> tuple:
    """A permutation-invariant key for a poset given by down-set masks."""
    down = tuple(down)
    n = len(down)
    up = [0] * n
    for i in range(n):
        for j in range(n):
            if down[j] >> i & 1:
                up[i] |= 1 << j
    base = [(_popcount(down[i]), _popcount(up[i])) for i in range(n)]
    keys = [
        (
            base[i],
            tuple(sorted(base[j] for j in range(n) if down[i] >> j & 1)),
            tuple(sorted(base[j] for j in range(n) if up[i] >> j & 1)),
        )
        for i in range(n)
    ]
    best = None
    for perm in _class_permutations(keys):
        relabeled = [0] * n
        for i in range(n):
            mask = 0
            rest = down[i]
            while rest:
                bit = rest & -rest
                rest ^= bit
                mask |= 1 << perm[bit.bit_length() - 1]
            relabeled[perm[i]] = mask
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    return best if best is not None else ()


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
        pos = {m: i for i, m in enumerate(masks)}
        downs = []
        for m in masks:
            acc = 0
            for other in masks:
                if not other & ~m:
                    acc |= 1 << pos[other]
            downs.append(acc)
        out.append(HeytingAlgebra(names, downs))
    out.sort(key=len)
    return tuple(out)


def enumerate_frames(max_size: int = 8) -> tuple:
    """All finite frames with at most ``max_size`` elements: the finite
    Heyting algebras."""
    return enumerate_heyting_algebras(max_size)


# -- quivers ------------------------------------------------------------------

def _canonical_quiver(n: int, edges: tuple) -> tuple:
    keys = []
    for v in range(n):
        loops = sum(1 for u, w in edges if u == v and w == v)
        out = sum(1 for u, _ in edges if u == v)
        inc = sum(1 for _, w in edges if w == v)
        keys.append((loops, out, inc))
    best = None
    for perm in _class_permutations(keys):
        relabeled = tuple(sorted((perm[u], perm[w]) for u, w in edges))
        if best is None or relabeled < best:
            best = relabeled
    return (n, best if best is not None else ())


def _enumerate_quivers(max_edges: int) -> dict:
    """Directed multigraphs without isolated vertices, keyed by edge
    count, up to isomorphism."""
    levels = {0: {(0, ())}}
    for m in range(1, max_edges + 1):
        seen = set()
        for n, edges in levels[m - 1]:
            for u in range(n + 2):
                for w in range(n + 2):
                    used = {u, w}
                    # new vertices must be used contiguously
                    if n + 1 in used and n not in used:
                        continue
                    n2 = max(n, max(used) + 1)
                    seen.add(_canonical_quiver(n2, edges + ((u, w),)))
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


def _category_key(C: FiniteCategory) -> tuple:
    nonid = [C._arrow_index(a) for a in C.non_identity_arrows()]
    m = len(nonid)
    n = len(C.objects)
    dom = [C._dom[f] for f in nonid]
    cod = [C._cod[f] for f in nonid]
    obj_keys = []
    for o in range(n):
        loops = sum(1 for e in range(m) if dom[e] == o and cod[e] == o)
        out = sum(1 for e in range(m) if dom[e] == o)
        inc = sum(1 for e in range(m) if cod[e] == o)
        obj_keys.append((loops, out, inc))
    best = None
    for sigma in _class_permutations(obj_keys):
        edge_keys = [(sigma[dom[e]], sigma[cod[e]]) for e in range(m)]
        order = sorted(range(m), key=lambda e: edge_keys[e])
        groups = [
            list(g)
            for _, g in itertools.groupby(order, key=lambda e: edge_keys[e])
        ]
        for arrangement in itertools.product(
            *(itertools.permutations(g) for g in groups)
        ):
            new_order = [e for group in arrangement for e in group]
            rank = {old: i for i, old in enumerate(new_order)}
            enc_edges = tuple(edge_keys[e] for e in new_order)
            enc_comp = []
            for a in new_order:
                for b in new_order:
                    if cod[a] != dom[b]:
                        continue
                    res = C._comp[nonid[a]][nonid[b]]
                    code = (
                        rank[nonid.index(res)] if res in nonid else m
                    )
                    enc_comp.append((rank[a], rank[b], code))
            key = (n, enc_edges, tuple(sorted(enc_comp)))
            if best is None or key < best:
                best = key
    return best if best is not None else (n, (), ())


def enumerate_categories(max_arrows: int = 4) -> tuple:
    """All finite categories with at most ``max_arrows`` non-identity
    arrows and no isolated objects, up to isomorphism, plus the one-
    and two-object discrete categories."""
    out = []
    seen = set()
    discrete1 = FiniteCategory(["a"])
    discrete2 = FiniteCategory(["a", "b"])
    for C in (discrete1, discrete2):
        out.append(C)
        seen.add(_category_key(C))
    quivers = _enumerate_quivers(max_arrows)
    for medges in range(1, max_arrows + 1):
        for n, edges in sorted(quivers[medges]):
            for table in _composition_tables(n, edges):
                C = _build_category(n, edges, table)
                key = _category_key(C)
                if key not in seen:
                    seen.add(key)
                    out.append(C)
    return tuple(out)
