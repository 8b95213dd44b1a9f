#!/usr/bin/env python3
"""Check that this tree writes the same outputs as another git revision.

    python3 scripts/diff_outputs.py REV

Checks REV out with `git worktree add --detach` into a temporary directory,
copies this tree's `scripts/snapshot_outputs.py` over REV's (so both sides
run the same commands) and runs the snapshot on both sides at
OPENBLAS_NUM_THREADS=1 and at 2.  Then compares, with
`diff -rq -x manifest.json`, REV against this tree at each thread count and
this tree at 1 thread against 2.  Prints every differing path and exits 1
on any difference, 0 when there is none.  The worktree and the snapshots are
removed however the run ends.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = Path("scripts") / "snapshot_outputs.py"
THREADS = (1, 2)


def snapshot(tree: Path, out: Path, threads: int) -> None:
    """The snapshot of ``tree`` in ``out``; its warnings are shown only if it fails."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, str(tree / SNAPSHOT), str(out)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"the snapshot of {tree} exited {done.returncode}")


def differences(a: Path, b: Path, labels: dict[Path, str]) -> list[str]:
    """`diff -rq -x manifest.json a b`, one line per differing path, with the
    snapshot directories replaced by their labels."""
    done = subprocess.run(["diff", "-rq", "-x", "manifest.json", str(a), str(b)],
                          capture_output=True, text=True)
    if done.returncode > 1:
        raise RuntimeError(f"diff failed: {done.stderr.strip()}")
    lines = done.stdout.splitlines()
    for path, label in labels.items():
        lines = [line.replace(str(path), label) for line in lines]
    return lines


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
        found = []
        for a, b in pairs:
            lines = differences(a, b, labels)
            print(f"{labels[a]} vs {labels[b]}: {len(lines)} differing path(s)")
            found += lines
        for line in found:
            print(line)
        return 1 if found else 0
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                        str(worktree)], capture_output=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
