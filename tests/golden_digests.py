"""Per-category digests of the decision witnesses, pinned in
``tests/golden/counterexample_digests.json`` and compared by
``tests/test_golden_digests.py``.

The categories are the named fixtures and the catalog of categories
with at most 4 arrows, the latter named by their index in
``enumerate_categories(4)``.  A category's digest is the first 16 hex
digits of the sha256 over the ``repr`` of ``demorgan_counterexample``,
``boolean_counterexample`` and the paired ``_principal_witness`` (De
Morgan, Boolean) under each of its enumerated topologies, in
enumeration order; a change in any witness or in the enumeration order
changes the digest and names the category.
``golden_cli.py`` rewrites this file together with the CLI golden file;
running this file rewrites it alone::

    PYTHONPATH=src python tests/golden_digests.py

Rewrite it only for a witness change that CHANGES.md lists.
"""

import hashlib
import json
from pathlib import Path

from demorgan.catalog import enumerate_categories
from demorgan.fixtures import category_fixtures
from demorgan.sieves import _b_mask, _m_mask
from demorgan.topology import (
    _principal_witness,
    boolean_counterexample,
    demorgan_counterexample,
    enumerate_topologies,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "counterexample_digests.json"


def named_sites(fixtures, catalog_sites):
    """(name, category, its topologies) for each fixture of the dict
    ``fixtures``, then for each (category, topologies) pair of
    ``catalog_sites`` in catalog order."""
    out = [(name, C, enumerate_topologies(C)) for name, C in fixtures.items()]
    out += [
        (f"catalog4[{i}]", C, tops) for i, (C, tops) in enumerate(catalog_sites)
    ]
    return out


def category_digest(C, tops):
    """The digest of the witnesses of ``C`` under each topology of
    ``tops``, as 16 hex digits."""
    h = hashlib.sha256()
    for J in tops:
        calls = (
            demorgan_counterexample(C, J),
            boolean_counterexample(C, J),
            _principal_witness(C, J, (_m_mask, _b_mask)),
        )
        h.update(repr(calls).encode() + b"\n")
    return h.hexdigest()[:16]


def digests(sites):
    """The digest of each (name, category, topologies) of ``sites``,
    keyed by name in their order."""
    return {name: category_digest(C, tops) for name, C, tops in sites}


def write():
    catalog = enumerate_categories(4)
    sites = named_sites(
        category_fixtures(), [(C, enumerate_topologies(C)) for C in catalog]
    )
    GOLDEN.write_text(
        json.dumps(digests(sites), indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    write()
