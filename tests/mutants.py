"""Mutation probe: does tier-1 notice a seeded fault in an oracle rule?

Run by hand from anywhere in the repository (pytest does not collect it):

    python tests/mutants.py [REV]

REV defaults to HEAD; ``python tests/mutants.py $(git stash create)``
probes uncommitted work.  The probe exports REV with ``git archive`` into a
temporary directory and runs tier-1 there, with criterion 04 (red at the
time of writing) deselected.  The unmutated export runs first and must pass,
or no verdict would mean anything.  Then each mutant of ``MUTANTS`` is
applied alone to a fresh export, and the probe prints ``killed`` when a test
fails and ``survived`` when none does.  An old text that does not occur
exactly once is an error, not a survivor.  The exit status is 0 when every
mutant is killed, 1 when one survives and 2 on an error.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (file, old text, new text): each replaces one exact occurrence
MUTANTS = [
    ("src/qkdrelay/montecarlo.py",
     "merge_rescue = 2.0 * dk", "merge_rescue = dk"),
    ("src/qkdrelay/montecarlo.py",
     "rescue = (1.0 - s) * 2.0 * dk * (1.0 - dk)",
     "rescue = (1.0 - s) * 2.0 * dk"),
    ("src/qkdrelay/montecarlo.py",
     "genuine = s * (1.0 - dk)", "genuine = s"),
    ("src/qkdrelay/montecarlo.py",
     "all_genuine &= both & resolved", "all_genuine &= both"),
    # a short last block still draws a whole buffer, so every later station
    # reads its uniforms from the wrong stream positions
    ("src/qkdrelay/montecarlo.py",
     "rng.random(len(u), out=u)", "rng.random(len(buf), out=buf)"),
    ("src/qkdrelay/model.py",
     'return 1 if reconciliation == "reverse" else 0', "return 0"),
    ("src/qkdrelay/optimize.py",
     '    require_finite("distance_km", distance_km, zero_ok=True)\n', ""),
    ("src/qkdrelay/params.py",
     "if not 0 < value <= 1:", "if not 0 < value < 1:"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--deselect",
         "tests/test_acceptance.py::test_criterion_04_approximation_quality"]

REPO = Path(__file__).resolve().parents[1]


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def tier1(tree: Path) -> tuple[bool, str]:
    """``(passed, pytest's summary line)`` of tier-1 in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True,
                         text=True)
    lines = run.stdout.strip().splitlines()
    return run.returncode == 0, lines[-1] if lines else run.stderr.strip()


def probe(rev: str, mutant: tuple[str, str, str] | None) -> tuple[bool, str]:
    """Tier-1 in a fresh export of ``rev`` with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        export(rev, tree)
        if mutant is not None:
            file, old, new = mutant
            path = tree / file
            text = path.read_text(encoding="utf-8")
            count = text.count(old)
            if count != 1:
                print(f"error: {file}: {old!r} occurs {count} times, not "
                      "once", file=sys.stderr)
                raise SystemExit(2)
            path.write_text(text.replace(old, new), encoding="utf-8")
        return tier1(tree)


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    passed, summary = probe(rev, None)
    print(f"unmutated  {summary}", flush=True)
    if not passed:
        print("error: tier-1 fails without a mutant", file=sys.stderr)
        return 2
    survivors = 0
    for file, old, new in MUTANTS:
        passed, summary = probe(rev, (file, old, new))
        survivors += passed
        print(f"{'survived' if passed else 'killed':9}  {file}: {old!r} -> "
              f"{new!r}\n           {summary}", flush=True)
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
