import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "output_digests.txt"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table(path, rows):
    path.parent.mkdir(parents=True)
    path.write_text("# error = relative L2\nmethod,K,error\n"
                    + "".join(f"{m},{k},{e}\n" for m, k, e in rows))


def test_diff_outputs_summarizes_the_moved_cells_of_each_method(tmp_path, capsys):
    diff_outputs = _script("diff_outputs")
    fixed = [("deg0", 2, 0.5), ("deg0", 3, 0.25)]
    before = [("deg2-greedy", 2, 1e-3), ("deg2-greedy", 3, 2e-3),
              ("deg2-greedy", 4, "inf"), ("deg2-greedy", 5, 1e-2), ("deg2-greedy", 6, "nan"),
              ("deg2-greedy", 7, "inf"), ("deg2-greedy", 8, "inf")]
    after = [("deg2-greedy", 2, 1e-3), ("deg2-greedy", 3, 3e-3),
             ("deg2-greedy", 4, 5e-3), ("deg2-greedy", 5, "nan"), ("deg2-greedy", 6, "nan"),
             ("deg2-greedy", 7, "nan"), ("deg2-greedy", 8, "inf")]
    a, b = tmp_path / "a", tmp_path / "b"
    _table(a / "t" / "convergence.csv", fixed + before)
    _table(b / "t" / "convergence.csv", fixed + after)
    summary = ("deg2-greedy: 4 cell(s) moved, largest relative move 5.00e-01 at K=3;"
               " non-finite: K=4 inf -> 0.005, K=5 0.01 -> nan, K=7 inf -> nan")
    assert diff_outputs.moved_cells(a / "t" / "convergence.csv",
                                    b / "t" / "convergence.csv") == [summary]
    assert diff_outputs.moved_cells(a / "t" / "convergence.csv",
                                    a / "t" / "convergence.csv") == []
    assert diff_outputs.report([(a, b)], {a: "A", b: "B"}) == 1
    assert capsys.readouterr().out.splitlines() == [
        "A vs B: 1 differing path(s)",
        "Files A/t/convergence.csv and B/t/convergence.csv differ",
        "    " + summary,
    ]


def test_diff_outputs_lists_the_moved_keys_of_a_report(tmp_path, capsys):
    diff_outputs = _script("diff_outputs")
    before = {"converged": False, "iterations": 50, "noise_mean": -966.5,
              "rep": {"b": [1.0, 2.0], "index": None}, "residual": float("nan")}
    after = {"converged": False, "iterations": 4, "stop_reason": "left_bound",
             "noise_mean": -11.9, "rep": {"b": [1.0, 2.5], "index": None},
             "residual": float("nan")}
    a, b = tmp_path / "a", tmp_path / "b"
    for side, doc in ((a, before), (b, after)):
        (side / "d").mkdir(parents=True)
        (side / "d" / "report.json").write_text(json.dumps(doc))
    moved = ["iterations 50 -> 4", "noise_mean -966.5 -> -11.9",
             "rep.b [1.0, 2.0] -> [1.0, 2.5]", 'stop_reason absent -> "left_bound"']
    assert diff_outputs.moved_keys(a / "d" / "report.json", b / "d" / "report.json") == moved
    assert diff_outputs.moved_keys(a / "d" / "report.json", a / "d" / "report.json") == []
    assert diff_outputs.report([(a, b)], {a: "A", b: "B"}) == 1
    assert capsys.readouterr().out.splitlines() == [
        "A vs B: 1 differing path(s)",
        "Files A/d/report.json and B/d/report.json differ",
        *("    " + line for line in moved),
    ]


def test_every_output_keeps_its_stored_digest(tmp_path):
    # a snapshot at one and at two BLAS threads, each in its own process, the
    # two side by side, against the list that snapshot_outputs.py --digests wrote
    snapshot = _script("snapshot_outputs")
    header, stored = snapshot.read_digests(DIGESTS)
    for field, value in snapshot.machine().items():
        if header.get(field) != value:
            pytest.skip(f"{DIGESTS.name} holds the bits of {field} {header.get(field)},"
                        f" and this machine has {value}")
    runs = {threads: subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "snapshot_outputs.py"),
         str(tmp_path / f"out-{threads}"), "--digests", str(tmp_path / f"{threads}.txt")],
        cwd=ROOT, env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for threads in (1, 2)}
    moved = []
    for threads, run in runs.items():
        _, err = run.communicate()
        assert run.returncode == 0, err
        _, digests = snapshot.read_digests(tmp_path / f"{threads}.txt")
        for path in sorted(stored.keys() | digests.keys()):
            kind = ("missing" if path not in digests else "extra" if path not in stored
                    else "differs" if digests[path] != stored[path] else None)
            if kind:
                moved.append(f"{threads} BLAS thread(s): {kind}: {path}")
    assert not moved, "\n".join([
        *moved, "scripts/diff_outputs.py REV shows how each convergence cell and report"
        " key moved against REV; a change that means to move them writes the list again"
        " (scripts/snapshot_outputs.py OUT --digests tests/output_digests.txt)"])
