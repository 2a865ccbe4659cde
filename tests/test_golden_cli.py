"""The command line's literal output on the pinned calls of
``golden_cli.py`` matches ``tests/golden/cli_outputs.json``."""

import json

from golden_cli import GOLDEN, ROOT, calls, run


def test_cli_outputs_match_the_golden_file(monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    pinned = {" ".join(argv): argv for argv in calls()}
    assert sorted(pinned) == sorted(golden), "the pinned calls changed"
    failed = []
    for name, argv in pinned.items():
        got = run(argv)
        if got != golden[name]:
            changed = sorted(k for k in got if got[k] != golden[name][k])
            failed.append(f"{name} ({', '.join(changed)})")
    assert not failed, (
        f"{len(failed)} of {len(pinned)} calls differ from the golden file:\n"
        + "\n".join(failed[:20])
    )
