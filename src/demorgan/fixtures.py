"""Small named sites and frames used throughout the tests and demos.

The categories cover both sides of every dividing line the decision
procedures care about: posets and non-posets, monoids and multi-object
categories, and a balanced mix of shapes that do and do not complete
cospans.
"""

from __future__ import annotations

from .fincat import FiniteCategory
from .heyting import HeytingAlgebra, from_poset


def discrete(n: int) -> FiniteCategory:
    """The discrete category on ``n`` objects."""
    return FiniteCategory([chr(ord("a") + i) for i in range(n)])


def arrow_category() -> FiniteCategory:
    """A single arrow a -> b."""
    return FiniteCategory(["a", "b"], [("f", "a", "b")])


def cspan() -> FiniteCategory:
    """Two arrows f: a -> c and g: b -> c with a common codomain."""
    return FiniteCategory(
        ["a", "b", "c"], [("f", "a", "c"), ("g", "b", "c")]
    )


def span() -> FiniteCategory:
    """Two arrows f: c -> a and g: c -> b with a common domain."""
    return FiniteCategory(
        ["a", "b", "c"], [("f", "c", "a"), ("g", "c", "b")]
    )


def mon2() -> FiniteCategory:
    """One object with an idempotent endomap e."""
    return FiniteCategory(
        ["*"], [("e", "*", "*")], {("e", "e"): "e"}
    )


def group2() -> FiniteCategory:
    """One object with an involution s (the two-element group)."""
    return FiniteCategory(
        ["*"], [("s", "*", "*")], {("s", "s"): "id_*"}
    )


def parallel_pair() -> FiniteCategory:
    """Two distinct arrows a -> b in parallel."""
    return FiniteCategory(
        ["a", "b"], [("f", "a", "b"), ("g", "a", "b")]
    )


def iso_pair() -> FiniteCategory:
    """Two mutually inverse arrows between two objects."""
    return FiniteCategory(
        ["a", "b"],
        [("f", "a", "b"), ("g", "b", "a")],
        {("f", "g"): "id_a", ("g", "f"): "id_b"},
    )


def commutative_square() -> FiniteCategory:
    """The poset square p < a, b < c viewed as a category."""
    return FiniteCategory(
        ["p", "a", "b", "c"],
        [
            ("pa", "p", "a"),
            ("pb", "p", "b"),
            ("ac", "a", "c"),
            ("bc", "b", "c"),
            ("pc", "p", "c"),
        ],
        {("pa", "ac"): "pc", ("pb", "bc"): "pc"},
    )


def v_poset() -> FiniteCategory:
    """The poset z < x, z < y viewed as a category."""
    return FiniteCategory(
        ["x", "y", "z"], [("zx", "z", "x"), ("zy", "z", "y")]
    )


def chain3() -> FiniteCategory:
    """The three-element chain 0 < m < 1 viewed as a category."""
    return FiniteCategory(
        ["0", "m", "1"],
        [("0m", "0", "m"), ("m1", "m", "1"), ("01", "0", "1")],
        {("0m", "m1"): "01"},
    )


def mon3_first_wins() -> FiniteCategory:
    """One object with two endomaps where the first factor wins:
    compose(x, y) = x for non-identities."""
    return FiniteCategory(
        ["*"],
        [("p", "*", "*"), ("q", "*", "*")],
        {
            ("p", "p"): "p",
            ("p", "q"): "p",
            ("q", "p"): "q",
            ("q", "q"): "q",
        },
    )


def mon3_second_wins() -> FiniteCategory:
    """One object with two endomaps where the second factor wins:
    compose(x, y) = y for non-identities."""
    return FiniteCategory(
        ["*"],
        [("p", "*", "*"), ("q", "*", "*")],
        {
            ("p", "p"): "p",
            ("p", "q"): "q",
            ("q", "p"): "p",
            ("q", "q"): "q",
        },
    )


def category_fixtures() -> dict:
    """All named category fixtures, keyed by name."""
    return {
        "discrete1": discrete(1),
        "discrete2": discrete(2),
        "arrow": arrow_category(),
        "cspan": cspan(),
        "span": span(),
        "mon2": mon2(),
        "group2": group2(),
        "parallel": parallel_pair(),
        "iso_pair": iso_pair(),
        "square": commutative_square(),
        "v_poset": v_poset(),
        "chain3": chain3(),
        "mon3_first_wins": mon3_first_wins(),
        "mon3_second_wins": mon3_second_wins(),
    }


def ch2() -> HeytingAlgebra:
    """The two-element frame."""
    return from_poset(["0", "1"], [("0", "1")])


def ch3() -> HeytingAlgebra:
    """The three-element chain 0 < m < 1."""
    return from_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])


def ch4() -> HeytingAlgebra:
    """The four-element chain."""
    return from_poset(
        ["0", "u", "v", "1"], [("0", "u"), ("u", "v"), ("v", "1")]
    )


def bool4() -> HeytingAlgebra:
    """The four-element Boolean algebra."""
    return from_poset(
        ["0", "x", "y", "1"],
        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")],
    )


def frm5() -> HeytingAlgebra:
    """Downsets of the poset x < z > y: the least frame that fails the
    De Morgan law."""
    return from_poset(
        ["0", "{x}", "{y}", "{x,y}", "1"],
        [
            ("0", "{x}"),
            ("0", "{y}"),
            ("{x}", "{x,y}"),
            ("{y}", "{x,y}"),
            ("{x,y}", "1"),
        ],
    )


def frame_fixtures() -> dict:
    return {
        "ch2": ch2(),
        "ch3": ch3(),
        "ch4": ch4(),
        "bool4": bool4(),
        "frm5": frm5(),
    }
