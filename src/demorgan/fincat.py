"""Finite categories presented by explicit composition tables.

Objects and arrows are case-sensitive strings.  Composition is written
diagrammatically: ``compose(f, g)`` is "f followed by g" and is defined
exactly when ``cod(f) == dom(g)``.  Identity arrows are always
materialized under the reserved names ``id_<object>``; they may be
declared explicitly, but are synthesized when absent.

Internally everything is compiled to integer indices and bitmasks so
that the sieve and topology machinery can run exhaustive searches over
thousands of small categories quickly.  The public surface speaks names.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .documents import check_document
from .errors import (
    BoundExceeded,
    BrokenAssociativity,
    BrokenIdentity,
    DanglingReference,
    DuplicateName,
    MissingComposite,
    NotComposable,
    UnknownArrow,
    UnknownObject,
)


def _normalize_arrows(arrows) -> dict:
    """Accept either {name: (dom, cod)} or an iterable of triples/dicts."""
    if isinstance(arrows, Mapping):
        items = [(name, dc[0], dc[1]) for name, dc in arrows.items()]
    else:
        items = []
        for entry in arrows:
            if isinstance(entry, Mapping):
                items.append((entry["name"], entry["dom"], entry["cod"]))
            else:
                name, dom, cod = entry
                items.append((name, dom, cod))
    out = {}
    for name, dom, cod in items:
        if name in out:
            raise DuplicateName(f"arrow {name!r} declared twice")
        out[name] = (dom, cod)
    return out


def _normalize_compose(compose) -> dict:
    """Accept either {(first, then): result} or an iterable of triples/dicts."""
    if isinstance(compose, Mapping):
        items = [(pair[0], pair[1], res) for pair, res in compose.items()]
    else:
        items = []
        for entry in compose:
            if isinstance(entry, Mapping):
                items.append((entry["first"], entry["then"], entry["equals"]))
            else:
                first, then, res = entry
                items.append((first, then, res))
    out = {}
    for first, then, res in items:
        if (first, then) in out and out[(first, then)] != res:
            raise DuplicateName(
                f"composite of ({first!r}, {then!r}) declared twice with "
                f"different results"
            )
        out[(first, then)] = res
    return out


class FiniteCategory:
    """A validated finite category.

    Construction runs the full battery of checks: identity laws,
    totality of composition on composable pairs, dom/cod coherence and
    associativity.  Instances are immutable; all query methods are pure.
    """

    def __init__(self, objects: Iterable[str], arrows=(), compose=()):
        objects = list(objects)
        if len(set(objects)) != len(objects):
            dup = sorted({o for o in objects if objects.count(o) > 1})
            raise DuplicateName(f"object {dup[0]!r} declared twice")
        declared = _normalize_arrows(arrows)
        table = _normalize_compose(compose)
        obj_set = set(objects)

        # Reserved id_ names must denote genuine identities.
        identity = {}
        arrow_map = {}
        for name, (dom, cod) in declared.items():
            if dom not in obj_set:
                raise DanglingReference(f"arrow {name!r}: unknown object {dom!r}")
            if cod not in obj_set:
                raise DanglingReference(f"arrow {name!r}: unknown object {cod!r}")
            if name.startswith("id_"):
                target = name[3:]
                if target not in obj_set or dom != target or cod != target:
                    raise BrokenIdentity(
                        f"arrow {name!r} uses a reserved identity name but is "
                        f"not the identity of object {name[3:]!r}"
                    )
                identity[target] = name
            arrow_map[name] = (dom, cod)
        for obj in objects:
            if obj not in identity:
                name = "id_" + obj
                if name in arrow_map:
                    raise BrokenIdentity(
                        f"cannot synthesize identity {name!r}: name taken"
                    )
                identity[obj] = name
                arrow_map[name] = (obj, obj)

        # Index arrows: identities first (object order), then declared order.
        ordered = [identity[o] for o in objects]
        ordered += [n for n in declared if n not in set(ordered)]
        ai = {name: i for i, name in enumerate(ordered)}
        oi = {name: i for i, name in enumerate(objects)}
        n = len(ordered)
        dom_idx = [oi[arrow_map[name][0]] for name in ordered]
        cod_idx = [oi[arrow_map[name][1]] for name in ordered]
        ident_idx = [ai[identity[o]] for o in objects]

        comp = [[-1] * n for _ in range(n)]
        for o, i in zip(objects, ident_idx):
            comp[i][i] = i
        for f in range(n):
            i_dom, i_cod = ident_idx[dom_idx[f]], ident_idx[cod_idx[f]]
            comp[i_dom][f] = f
            comp[f][i_cod] = f

        for (first, then), res in table.items():
            for name in (first, then, res):
                if name not in ai:
                    raise DanglingReference(
                        f"composition entry ({first!r}, {then!r}) -> {res!r} "
                        f"references unknown arrow {name!r}"
                    )
            fi, ti, ri = ai[first], ai[then], ai[res]
            if cod_idx[fi] != dom_idx[ti]:
                raise NotComposable(
                    f"({first!r}, {then!r}) is not a composable pair: "
                    f"cod({first!r}) = {objects[cod_idx[fi]]!r} but "
                    f"dom({then!r}) = {objects[dom_idx[ti]]!r}"
                )
            if dom_idx[ri] != dom_idx[fi] or cod_idx[ri] != cod_idx[ti]:
                raise NotComposable(
                    f"composite {res!r} of ({first!r}, {then!r}) has the "
                    f"wrong endpoints"
                )
            if comp[fi][ti] not in (-1, ri):
                forced = ordered[comp[fi][ti]]
                raise BrokenIdentity(
                    f"composite of ({first!r}, {then!r}) must be {forced!r}, "
                    f"not {res!r}"
                )
            comp[fi][ti] = ri

        for f in range(n):
            for g in range(n):
                if cod_idx[f] == dom_idx[g] and comp[f][g] == -1:
                    raise MissingComposite(
                        f"no composite declared for ({ordered[f]!r}, "
                        f"{ordered[g]!r})"
                    )

        for f in range(n):
            for g in range(n):
                if comp[f][g] == -1:
                    continue
                for h in range(n):
                    if comp[g][h] == -1:
                        continue
                    if comp[comp[f][g]][h] != comp[f][comp[g][h]]:
                        raise BrokenAssociativity(
                            f"associativity fails on ({ordered[f]!r}, "
                            f"{ordered[g]!r}, {ordered[h]!r})"
                        )

        self._index(objects, ordered, dom_idx, cod_idx, comp)

    def _index(self, objects, anames, dom, cod, comp) -> None:
        """Store unchecked object and arrow tables (``-1`` marks a pair
        that does not compose; the identities come first, in object
        order) and derive the name maps, the arrows into each object and
        the principal sieves: (f) holds the composites g;f of the arrows
        g into dom(f)."""
        self.objects: tuple = tuple(objects)
        self.arrows: dict = {
            f: (objects[d], objects[c]) for f, d, c in zip(anames, dom, cod)
        }
        self.identity: dict = dict(zip(objects, anames))
        self._anames = tuple(anames)
        self._oi = {name: i for i, name in enumerate(objects)}
        self._ai = {name: i for i, name in enumerate(anames)}
        self._dom = tuple(dom)
        self._cod = tuple(cod)
        self._comp = tuple(tuple(row) for row in comp)
        self._id_set = frozenset(range(len(objects)))

        into = [[] for _ in objects]
        for f, c in enumerate(cod):
            into[c].append(f)
        self._into = tuple(tuple(fs) for fs in into)
        self._into_mask = tuple(sum(1 << f for f in fs) for fs in into)
        self._gen = tuple(
            sum({1 << comp[g][f] for g in into[d]}) for f, d in enumerate(dom)
        )
        self._sieve_cache: dict = {}
        self._hash = hash(
            (frozenset(self.objects), frozenset(self.arrows.items()))
        )

    def _full_subcategory(self, kept) -> "FiniteCategory":
        """The full subcategory on the ascending object indices ``kept``,
        sliced from this category's tables with the arrows in the same
        order.  A full subcategory is a category, so nothing is checked."""
        obj = {o: i for i, o in enumerate(kept)}
        arrows = [
            f for f, (d, c) in enumerate(zip(self._dom, self._cod))
            if d in obj and c in obj
        ]
        arr = {f: i for i, f in enumerate(arrows)}
        sub = FiniteCategory.__new__(FiniteCategory)
        sub._index(
            [self.objects[o] for o in kept],
            [self._anames[f] for f in arrows],
            [obj[self._dom[f]] for f in arrows],
            [obj[self._cod[f]] for f in arrows],
            [[arr.get(self._comp[f][g], -1) for g in arrows] for f in arrows],
        )
        return sub

    # -- queries --------------------------------------------------------

    def dom(self, f: str) -> str:
        return self.objects[self._dom[self._arrow_index(f)]]

    def cod(self, f: str) -> str:
        return self.objects[self._cod[self._arrow_index(f)]]

    def compose(self, f: str, g: str) -> str:
        """The composite "f followed by g"; requires cod(f) == dom(g)."""
        fi, gi = self._arrow_index(f), self._arrow_index(g)
        res = self._comp[fi][gi]
        if res == -1:
            raise NotComposable(f"({f!r}, {g!r}) is not a composable pair")
        return self._anames[res]

    def composable(self, f: str, g: str) -> bool:
        return self._comp[self._arrow_index(f)][self._arrow_index(g)] != -1

    def is_identity(self, f: str) -> bool:
        return self._arrow_index(f) in self._id_set

    def non_identity_arrows(self) -> tuple:
        return tuple(
            name for name in self._anames
            if self._ai[name] not in self._id_set
        )

    def arrows_into(self, c: str) -> frozenset:
        """All arrows with codomain ``c``, the identity included."""
        ci = self._object_index(c)
        return frozenset(self._anames[f] for f in self._into[ci])

    def to_data(self) -> dict:
        """Serializable form; identities and their compositions are implied."""
        arrows = [
            {"name": name, "dom": dom, "cod": cod}
            for name, (dom, cod) in self.arrows.items()
            if not self.is_identity(name)
        ]
        compose = []
        for f in self.non_identity_arrows():
            for g in self.non_identity_arrows():
                if self.composable(f, g):
                    compose.append(
                        {"first": f, "then": g, "equals": self.compose(f, g)}
                    )
        return {
            "objects": list(self.objects),
            "arrows": arrows,
            "compose": compose,
        }

    def __eq__(self, other):
        if not isinstance(other, FiniteCategory):
            return NotImplemented
        if self is other:
            return True
        if frozenset(self.objects) != frozenset(other.objects):
            return False
        if self.arrows != other.arrows:
            return False
        for f in self._anames:
            for g in self._anames:
                sc = self.composable(f, g)
                if sc != other.composable(f, g):
                    return False
                if sc and self.compose(f, g) != other.compose(f, g):
                    return False
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"FiniteCategory({len(self.objects)} objects, "
            f"{len(self.arrows)} arrows)"
        )

    # -- index/mask internals (used by the sieve and topology modules) ---

    def _object_index(self, c: str) -> int:
        try:
            return self._oi[c]
        except KeyError:
            raise UnknownObject(f"unknown object {c!r}") from None

    def _arrow_index(self, f: str) -> int:
        try:
            return self._ai[f]
        except KeyError:
            raise UnknownArrow(f"unknown arrow {f!r}") from None

    def _members_to_mask(self, members: Iterable[str]) -> int:
        mask = 0
        for name in members:
            mask |= 1 << self._arrow_index(name)
        return mask

    def _mask_to_members(self, mask: int) -> frozenset:
        return frozenset(
            self._anames[f] for f in range(len(self._anames)) if mask >> f & 1
        )

    def _pull(self, f: int, mask: int) -> int:
        """Pullback of the sieve ``mask`` along arrow index ``f``: the
        arrows g into dom(f) with g;f in ``mask``.  A caller that only
        asks whether it covers or is empty reads the composites or the
        principal sieves instead."""
        comp = self._comp
        out = 0
        for g in self._into[self._dom[f]]:
            if mask >> comp[g][f] & 1:
                out |= 1 << g
        return out

    def _is_sieve_mask(self, ci: int, mask: int) -> bool:
        if mask & ~self._into_mask[ci]:
            return False
        rest = mask
        while rest:
            f = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if self._gen[f] & ~mask:
                return False
        return True

    def _sieve_masks(self, ci: int, max_arrows_into: int = 16) -> tuple:
        """All sieves on the object with index ``ci``, as bitmasks.

        Every sieve is a union of single-arrow generated sieves, so the
        set is the closure of {0} under adding one generated sieve.
        """
        incoming = self._into[ci]
        if len(incoming) > max_arrows_into:
            raise BoundExceeded(
                f"object {self.objects[ci]!r} has {len(incoming)} incoming "
                f"arrows, above the sieve enumeration bound {max_arrows_into}"
            )
        cached = self._sieve_cache.get(ci)
        if cached is not None:
            return cached
        seen = {0}
        frontier = [0]
        while frontier:
            mask = frontier.pop()
            for f in incoming:
                bigger = mask | self._gen[f]
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)
        result = tuple(sorted(seen))
        self._sieve_cache[ci] = result
        return result


def validate_category(data) -> FiniteCategory:
    """Build a :class:`FiniteCategory` from a raw description.

    ``data`` is a mapping with key ``objects`` and optional ``arrows``
    and ``compose`` (the JSON site schema), or an existing category,
    which is revalidated structurally.  A mapping of any other shape
    raises ``DanglingReference`` (see :mod:`demorgan.documents`).
    """
    if isinstance(data, FiniteCategory):
        return validate_category(data.to_data())
    check_document(data, "site", ("objects",))
    return FiniteCategory(
        data["objects"], data.get("arrows", ()), data.get("compose", ())
    )


def arrows_into(C: FiniteCategory, c: str) -> frozenset:
    """All arrows of ``C`` with codomain ``c`` (identity included)."""
    return C.arrows_into(c)


def is_mono(C: FiniteCategory, r: str) -> bool:
    """Left-cancellability of ``r``, checked by brute force.

    True iff every parallel pair g, h into dom(r) with g;r == h;r is
    equal.
    """
    ri = C._arrow_index(r)
    comp = C._comp
    incoming = C._into[C._dom[ri]]
    for g in incoming:
        for h in incoming:
            if g >= h or C._dom[g] != C._dom[h]:
                continue
            if comp[g][ri] == comp[h][ri]:
                return False
    return True


def ore_counterexample(C: FiniteCategory):
    """A cospan f: a -> c <- b :g with no completing square, as the
    names ``(f, g)``, or None when ``C`` satisfies the right Ore
    condition.  The first such pair in arrow order is returned.

    A square u;f == v;g is an arrow in both principal sieves (f) and
    (g), so the cospan completes iff they meet.
    """
    gen = C._gen
    for f in range(len(C._anames)):
        for g in C._into[C._cod[f]]:
            if not gen[f] & gen[g]:
                return C._anames[f], C._anames[g]
    return None


def right_ore(C: FiniteCategory) -> bool:
    """Whether every cospan f: a -> c <- b :g completes to a square."""
    return ore_counterexample(C) is None
