"""The literal output of a fixed set of command line calls, pinned in
``tests/golden/cli_outputs.json`` and compared by
``tests/test_golden_cli.py``.

Each call runs ``demorgan.cli.main`` in process, from the repository
root, on a site document of ``tests/data`` or on
``tests/golden/then_wins8.json`` (one object with eight idempotents,
whose closed-sieve algebra is past the oracle's carrier bound).  The
stdout, stderr and exit code of each call are recorded under the call's
command line.  Running this file rewrites the golden file from the
current code, together with the per-category witness digests of
``golden_digests.py``::

    PYTHONPATH=src python tests/golden_cli.py

Rewrite them only for an output change that CHANGES.md lists.
"""

import io
import itertools
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from demorgan.cli import main

import golden_digests

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_outputs.json"

DOCUMENTS = sorted(
    p.relative_to(ROOT).as_posix()
    for p in [*(ROOT / "tests" / "data").glob("*.json"),
              ROOT / "tests" / "golden" / "then_wins8.json"]
)

# (words before the document, words after it)
TOPOLOGY_COMMANDS = (
    (("report",), ()),
    *(
        ((f"is-{law}",), ("--method", method))
        for law in ("demorgan", "boolean")
        for method in ("general", "reduced", "oracle")
    ),
    (("demorganize",), ()),
    (("booleanize",), ()),
)
PLAIN_COMMANDS = (
    (("topology", "generate"), ()),
    (("validate",), ()),
    (("enumerate-topologies",), ()),
)
TOPOLOGIES = ((), ("--topology", "dense"), ("--topology", "demorgan"))
BOUNDS = ((), ("--max-sieve-arrows", "2"))
FORMATS = ((), ("--json",))


def calls():
    """Every pinned command line, as a tuple of words."""
    out = []
    for doc in DOCUMENTS:
        for commands, topologies in (
            (TOPOLOGY_COMMANDS, TOPOLOGIES), (PLAIN_COMMANDS, ((),)),
        ):
            for (head, tail), topology, bound, fmt in itertools.product(
                commands, topologies, BOUNDS, FORMATS
            ):
                out.append((*head, doc, *tail, *topology, *bound, *fmt))
    return out


def run(argv):
    """The exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def outputs():
    """Every pinned call's output, keyed by its command line; paths are
    relative to the working directory, which must be the repository
    root."""
    return {" ".join(argv): run(argv) for argv in calls()}


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.write_text(
        json.dumps(outputs(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    golden_digests.write()
