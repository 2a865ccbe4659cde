"""Committed mutants: each is a small, deliberate fault in ``src/`` and
the tests that must catch it.

For each mutant the script copies ``src/`` to a temporary directory,
replaces the mutant's old text (which must occur exactly once) with its
new text, and runs its named tests against that copy in a subprocess.
A mutant whose tests all pass survives.  The script prints one line per
mutant and exits 1 if any survives.

Run from the repository root, for every mutant or the named ones:

    python tests/mutants.py [NAME ...]
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

T = "tests/test_topology.py::"
R = "tests/test_random_sites.py::"

# name: (file under src/demorgan, exact old text, new text, tests)
MUTANTS = {
    "negation-mask-ignores-r": (
        "topology.py",
        "            if not rd >> h & 1:\n                A |= 1 << comp[h][f]",
        "            A |= 1 << comp[h][f]",
        [R + "test_criteria_and_closed_listing_match_naive"],
    ),
    "demorgan-criterion-without-double-negation": (
        "topology.py",
        "    return N | _negation(neg, N)",
        "    return N",
        [T + "test_criteria_match_pullback_form_over_catalog"],
    ),
    "closure-prunes-the-wrong-arrows": (
        "topology.py",
        "        if F != C._gen[f]:",
        "        if F == C._gen[f]:",
        [T + "test_closed_listing_matches_naive_closure_over_catalog"],
    ),
    "validate-without-upset-check": (
        "topology.py",
        "        for v in _upset_violations(C, masks):\n"
        "            raise _not_transitive(C, *v)\n",
        "",
        [T + "test_validate_matches_four_axiom_scan"],
    ),
    "validate-without-idempotence-check": (
        "topology.py",
        "        if R != K:\n            raise _not_transitive(C, ci, R, K)",
        "        pass",
        [
            T + "test_validate_matches_four_axiom_scan",
            T + "test_validate_checks_least_covers",
        ],
    ),
    "validate-without-least-cover-stability": (
        "topology.py",
        "                if _through_least(C, least, f) & ~K:",
        "                if False:",
        [T + "test_validate_checks_least_covers"],
    ),
    "ore-square-test-reads-union": (
        "fincat.py",
        "            if not gen[f] & gen[g]:",
        "            if not gen[f] | gen[g]:",
        [T + "test_square_witnesses_in_order"],
    ),
    "countroc-square-test-reads-union": (
        "topology.py",
        "                if not C._gen[f] & C._gen[g]:",
        "                if not C._gen[f] | C._gen[g]:",
        [T + "test_square_witnesses_in_order"],
    ),
    "pull-reads-the-arrow-not-its-composite": (
        "fincat.py",
        "            if mask >> comp[g][f] & 1:",
        "            if mask >> g & 1:",
        [R + "test_pullback_matches_composites"],
    ),
    "shrink-without-idempotence": (
        "topology.py",
        "        composites = _composites(C, K, ci)\n"
        "        if composites != K[ci]:",
        "        composites = _composites(C, K, ci)\n"
        "        if False:",
        [
            T + "test_builders_match_saturation_over_catalog",
            R + "test_least_cover_builders_match_saturation",
        ],
    ),
    "shrink-without-stability": (
        "topology.py",
        "            if Kd != K[d]:",
        "            if False:",
        [
            T + "test_builders_match_saturation_over_catalog",
            R + "test_least_cover_builders_match_saturation",
        ],
    ),
    "shrink-stops-after-one-round": (
        "topology.py",
        "    while _shrink_round(C, K):\n        pass",
        "    _shrink_round(C, K)",
        [
            T + "test_builders_match_saturation_over_catalog",
            R + "test_least_cover_builders_match_saturation",
        ],
    ),
}


def apply(src: Path, name: str) -> None:
    """Apply mutant ``name`` to the copy of ``src/`` at ``src``."""
    file, old, new, _ = MUTANTS[name]
    path = src / "demorgan" / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(
            f"{name}: old text occurs {text.count(old)} times in {file}"
        )
    path.write_text(text.replace(old, new), encoding="utf-8")


def killed(name: str) -> bool:
    """Whether a named test fails on a copy of ``src/`` with the mutant."""
    tests = MUTANTS[name][3]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src)
        apply(src, name)
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "-x",
                "-p", "no:cacheprovider", "-o", f"pythonpath={src}",
                *[str(ROOT / t) for t in tests],
            ],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    if run.returncode not in (0, 1):
        # 1 is "tests failed"; anything else is a usage or collection error
        raise SystemExit(f"{name}: pytest exited {run.returncode}")
    return run.returncode == 1


def main(names) -> int:
    for name in names:
        if name not in MUTANTS:
            raise SystemExit(f"unknown mutant {name!r}")
    survivors = []
    for name in names:
        t0 = time.perf_counter()
        ok = killed(name)
        print(f"{'killed' if ok else 'SURVIVED':8} {name} "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
        if not ok:
            survivors.append(name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(MUTANTS)))
