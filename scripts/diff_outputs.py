#!/usr/bin/env python3
"""Check that this tree writes the same outputs as another git revision.

    python3 scripts/diff_outputs.py REV

Checks REV out with `git worktree add --detach` into a temporary directory,
copies this tree's `scripts/snapshot_outputs.py` over REV's (so both sides
run the same commands) and runs the snapshot on both sides at
OPENBLAS_NUM_THREADS=1 and at 2.  Then compares, with
`diff -rq -x manifest.json`, REV against this tree at each thread count and
this tree at 1 thread against 2.  Prints every differing path, and under
each differing `convergence.csv` one line per method whose cells moved: how
many, the largest relative move and its K, and every moved cell that is
non-finite on either side.  Exits 1 on any difference, 0 when there is
none.  The worktree and the snapshots are removed however the run ends.
"""
from __future__ import annotations

import csv
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = Path("scripts") / "snapshot_outputs.py"
THREADS = (1, 2)
CELLS = "convergence.csv"


def snapshot(tree: Path, out: Path, threads: int) -> None:
    """The snapshot of ``tree`` in ``out``; its warnings are shown only if it fails."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, str(tree / SNAPSHOT), str(out)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"the snapshot of {tree} exited {done.returncode}")


def differences(a: Path, b: Path) -> list[str]:
    """`diff -rq -x manifest.json a b`, one line per differing path."""
    done = subprocess.run(["diff", "-rq", "-x", "manifest.json", str(a), str(b)],
                          capture_output=True, text=True)
    if done.returncode > 1:
        raise RuntimeError(f"diff failed: {done.stderr.strip()}")
    return done.stdout.splitlines()


def read_cells(path: Path) -> dict:
    """{method: {K: error}} of a convergence table (`method,K,error`)."""
    cells = {}
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    for method, k, error in rows[1:]:
        cells.setdefault(method, {})[int(k)] = float(error)
    return cells


def moved_cells(a: Path, b: Path) -> list[str]:
    """One line per method whose cells differ between the convergence tables
    ``a`` and ``b``: how many moved, the largest relative move among the cells
    finite on both sides and its K, and each moved cell non-finite on either
    side (``inf -> nan`` too).  A K that one side lacks counts as NaN there."""
    old, new = read_cells(a), read_cells(b)
    lines = []
    for method in {**old, **new}:
        before, after = old.get(method, {}), new.get(method, {})
        moved, largest, nonfinite = 0, None, []
        for k in sorted(before.keys() | after.keys()):
            x, y = before.get(k, math.nan), after.get(k, math.nan)
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            moved += 1
            if math.isfinite(x) and math.isfinite(y):
                rel = abs(y - x) / abs(x) if x else math.inf
                if largest is None or rel > largest[0]:
                    largest = (rel, k)
            else:
                nonfinite.append(f"K={k} {x!r} -> {y!r}")
        if moved:
            line = f"{method}: {moved} cell(s) moved"
            if largest is not None:
                line += f", largest relative move {largest[0]:.2e} at K={largest[1]}"
            if nonfinite:
                line += "; non-finite: " + ", ".join(nonfinite)
            lines.append(line)
    return lines


def report(pairs: list[tuple[Path, Path]], labels: dict[Path, str]) -> int:
    """Print each pair's count of differing paths, then every such path, with
    the snapshot directories replaced by their labels and each differing
    convergence table followed by its ``moved_cells``; the number of paths."""
    found = []
    for a, b in pairs:
        lines = differences(a, b)
        print(f"{labels[a]} vs {labels[b]}: {len(lines)} differing path(s)")
        found += lines
    for line in found:
        shown = line
        for path, label in labels.items():
            shown = shown.replace(str(path), label)
        print(shown)
        files = re.fullmatch(r"Files (.+) and (.+) differ", line)
        if files and Path(files[1]).name == CELLS:
            for summary in moved_cells(Path(files[1]), Path(files[2])):
                print("    " + summary)
    return len(found)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0]
    tmp = Path(tempfile.mkdtemp(prefix="diff_outputs-"))
    worktree = tmp / "rev"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(worktree), rev], check=True)
        shutil.copyfile(ROOT / SNAPSHOT, worktree / SNAPSHOT)
        labels = {}
        for threads in THREADS:
            for side, tree in ((rev, worktree), ("this", ROOT)):
                out = tmp / f"{side.replace('/', '_')}-{threads}"
                labels[out] = f"{side}@{threads}"
                print(f"snapshot of {side} at {threads} BLAS thread(s)", flush=True)
                snapshot(tree, out, threads)
        outs = list(labels)  # rev-1, this-1, rev-2, this-2
        pairs = [(outs[0], outs[1]), (outs[2], outs[3]), (outs[1], outs[3])]
        return 1 if report(pairs, labels) else 0
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                        str(worktree)], capture_output=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
