"""Random documents through the CLI: every call ends in an exit code.

Most documents are site-shaped: a random category from
``test_random_sites``, or random objects, arrows, compositions and
covers over a small alphabet of names, some with a field of the wrong
shape.  The rest are arbitrary JSON.  ``report``, ``is-demorgan`` and
``is-boolean`` with each ``--method``, and ``demorganize`` must answer
each with exit code 0, 2, 3 or 4 and never raise.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demorgan.cli import main, site_to_data

from test_random_sites import concrete_categories

NAMES = st.sampled_from(["a", "b", "c", "f", "g", "h", "id_a", "zz"])

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mostly(strategy):
    """``strategy``, and now and then a value of the wrong shape."""
    return st.one_of(strategy, strategy, strategy, JUNK)


GENERATORS = st.lists(st.lists(NAMES, max_size=3), max_size=2)


@st.composite
def random_site_documents(draw):
    """Random objects, arrows, compositions and covers."""
    arrow = st.fixed_dictionaries(dict.fromkeys(("name", "dom", "cod"), NAMES))
    step = st.fixed_dictionaries(
        dict.fromkeys(("first", "then", "equals"), NAMES)
    )
    fields = {
        "format": _mostly(st.just("site/1")),
        "objects": _mostly(st.lists(NAMES, max_size=3)),
        "arrows": _mostly(st.lists(_mostly(arrow), max_size=4)),
        "compose": _mostly(st.lists(_mostly(step), max_size=4)),
        "covers": _mostly(
            st.dictionaries(NAMES, _mostly(GENERATORS), max_size=2)
        ),
    }
    kept = draw(st.sets(st.sampled_from(sorted(fields))))
    return {key: draw(fields[key]) for key in sorted(kept)}


@st.composite
def category_documents(draw):
    """A random category's document, with random covers, and now and
    then one field replaced by a value of the wrong shape."""
    C = draw(concrete_categories())
    doc = site_to_data(C)
    names = st.sampled_from(sorted(C.arrows) + ["zz"])
    doc["covers"] = draw(st.dictionaries(
        st.sampled_from(C.objects),
        st.lists(st.lists(names, max_size=3), max_size=2),
        max_size=2,
    ))
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    return doc


DOCUMENTS = st.one_of(category_documents(), random_site_documents(), JUNK)

COMMANDS = [["report"], ["demorganize"]] + [
    [f"is-{law}", "--method", method]
    for law in ("demorgan", "boolean")
    for method in ("general", "reduced", "oracle")
]


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    DOCUMENTS,
    st.sampled_from([[], ["--topology", "dense"], ["--topology", "demorgan"]]),
)
def test_cli_answers_every_document_with_an_exit_code(tmp_path, doc, topology):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        argv = [command[0], str(path), *command[1:], *topology, "--json"]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4), argv
