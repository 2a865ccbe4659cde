"""The decision witnesses on every fixture and catalog4 site match the
per-category digests of ``tests/golden/counterexample_digests.json``."""

import json

from golden_digests import GOLDEN, category_digest, named_sites


def test_counterexample_digests_match_the_golden_file(
    fixtures, site_enumeration
):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    sites = named_sites(fixtures, site_enumeration)
    assert [name for name, _, _ in sites] == list(golden), (
        "the pinned categories changed"
    )
    failed = [
        name for name, C, tops in sites
        if category_digest(C, tops) != golden[name]
    ]
    assert not failed, (
        f"{len(failed)} of {len(sites)} categories differ from the golden "
        f"file: " + ", ".join(failed[:20])
    )
