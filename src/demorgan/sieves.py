"""Sieve calculus on a finite category.

A sieve on an object c is a set of arrows into c closed under
precomposition.  This module provides generation, pullback, the stable
non-emptiness test and the three derived sieves the decision procedures
are built from:

* ``m_sieve(R)``: arrows whose pullback of R is empty or stably non-empty;
* ``b_sieve(R)``: arrows whose pullback of R is empty or which lie in R;
* ``r_sieve(J, c)``: arrows into c whose domain is covered by the empty
  sieve.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .errors import BaseMismatch, NotASieve, WrongCodomain
from .fincat import FiniteCategory

if TYPE_CHECKING:  # pragma: no cover
    from .topology import GrothendieckTopology


class Sieve:
    """An object name plus a precomposition-closed set of arrow names."""

    __slots__ = ("base", "members", "_hash")

    def __init__(self, base: str, members: Iterable[str] = ()):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "members", frozenset(members))
        object.__setattr__(self, "_hash", hash((base, self.members)))

    def __setattr__(self, name, value):
        raise AttributeError("Sieve is immutable")

    def __eq__(self, other):
        if not isinstance(other, Sieve):
            return NotImplemented
        return self.base == other.base and self.members == other.members

    def __hash__(self):
        return self._hash

    def __contains__(self, arrow: str) -> bool:
        return arrow in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self):
        inner = ",".join(sorted(self.members))
        return f"Sieve({self.base}: {{{inner}}})"


def check_sieve(C: FiniteCategory, S: Sieve) -> None:
    """Raise unless ``S`` is a valid sieve of ``C``.

    Checks that the base exists, every member ends at the base and the
    member set is closed under precomposition.
    """
    ci = C._object_index(S.base)
    mask = C._members_to_mask(S.members)
    if mask & ~C._into_mask[ci]:
        bad = sorted(
            f for f in S.members if C.cod(f) != S.base
        )
        raise WrongCodomain(
            f"arrow {bad[0]!r} does not end at {S.base!r}"
        )
    if not C._is_sieve_mask(ci, mask):
        raise NotASieve(
            f"arrow set {sorted(S.members)} on {S.base!r} is not closed "
            f"under precomposition"
        )


def _to_mask(C: FiniteCategory, S: Sieve) -> tuple:
    check_sieve(C, S)
    return C._object_index(S.base), C._members_to_mask(S.members)


def _from_mask(C: FiniteCategory, ci: int, mask: int) -> Sieve:
    return Sieve(C.objects[ci], C._mask_to_members(mask))


def maximal_sieve(C: FiniteCategory, c: str) -> Sieve:
    """The sieve of all arrows into ``c``."""
    ci = C._object_index(c)
    return _from_mask(C, ci, C._into_mask[ci])


def empty_sieve(C: FiniteCategory, c: str) -> Sieve:
    C._object_index(c)
    return Sieve(c)


def enumerate_sieves(
    C: FiniteCategory, c: str, *, max_arrows_into: int = 16
) -> tuple:
    """All sieves on ``c``, smallest first; bounded by the number of
    incoming arrows."""
    ci = C._object_index(c)
    return tuple(
        _from_mask(C, ci, m) for m in C._sieve_masks(ci, max_arrows_into)
    )


def generate_sieve(C: FiniteCategory, c: str, gens: Iterable[str]) -> Sieve:
    """Smallest sieve on ``c`` containing the generators."""
    ci = C._object_index(c)
    mask = 0
    for g in gens:
        gi = C._arrow_index(g)
        if C._cod[gi] != ci:
            raise WrongCodomain(
                f"generator {g!r} ends at {C.cod(g)!r}, not {c!r}"
            )
        mask |= C._gen[gi]
    return _from_mask(C, ci, mask)


def pullback_sieve(C: FiniteCategory, f: str, R: Sieve) -> Sieve:
    """The sieve f*(R) = {g | g;f in R} on dom(f); requires cod(f) == base."""
    fi = C._arrow_index(f)
    ci, mask = _to_mask(C, R)
    if C._cod[fi] != ci:
        raise BaseMismatch(
            f"cannot pull back a sieve on {R.base!r} along {f!r} "
            f"into {C.cod(f)!r}"
        )
    return _from_mask(C, C._dom[fi], C._pull(fi, mask))


def _stably_nonempty_mask(C: FiniteCategory, ci: int, mask: int) -> bool:
    # f*(R) is non-empty iff R meets the sieve generated by f.
    gen = C._gen
    return all(mask & gen[f] for f in C._into[ci])


def is_stably_nonempty(C: FiniteCategory, R: Sieve) -> bool:
    """Whether every pullback of ``R`` along an arrow into its base is
    non-empty."""
    ci, mask = _to_mask(C, R)
    return _stably_nonempty_mask(C, ci, mask)


def _m_mask(C: FiniteCategory, ci: int, mask: int) -> int:
    gen = C._gen
    comp = C._comp
    out = 0
    for f in C._into[ci]:
        if not mask & gen[f]:
            out |= 1 << f
            continue
        # f*(R) is stably non-empty iff R meets gen(g;f) for all g.
        if all(mask & gen[comp[g][f]] for g in C._into[C._dom[f]]):
            out |= 1 << f
    return out


def m_sieve(C: FiniteCategory, R: Sieve) -> Sieve:
    """Arrows f into base(R) with f*(R) empty or stably non-empty."""
    ci, mask = _to_mask(C, R)
    return _from_mask(C, ci, _m_mask(C, ci, mask))


def _b_mask(C: FiniteCategory, ci: int, mask: int) -> int:
    gen = C._gen
    out = 0
    for f in C._into[ci]:
        if (mask >> f & 1) or not mask & gen[f]:
            out |= 1 << f
    return out


def b_sieve(C: FiniteCategory, R: Sieve) -> Sieve:
    """Arrows f into base(R) with f*(R) empty or f itself in R."""
    ci, mask = _to_mask(C, R)
    return _from_mask(C, ci, _b_mask(C, ci, mask))


def r_sieve(C: FiniteCategory, J: "GrothendieckTopology", c: str) -> Sieve:
    """Arrows into ``c`` whose domain is J-covered by the empty sieve."""
    ci = C._object_index(c)
    mask = 0
    for f in C._into[ci]:
        if J.has_empty_cover(C.objects[C._dom[f]]):
            mask |= 1 << f
    return _from_mask(C, ci, mask)
