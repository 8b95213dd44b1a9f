#!/usr/bin/env python3
"""Write every output of the benchmark's command lists and the experiment scripts.

    python3 scripts/snapshot_outputs.py OUT

Runs, in this process, the three command lists of `perfbench/workloads.py`
(`sweep`, `fit-eval`, `denoise`, benchmark seed 1), the `denoise` modes the
benchmark does not run (`DENOISE_MODES`, on every preset at `DENOISE_SEEDS`),
the `fit` runs it does not run (`FIT_RUNS`: greedy traces, an rrqr
tolerance, alone and with a term budget, and an rrqr truncation past the
numerical rank), the runs on generated data and on failing cells
(`DATA_RUNS`: `generate --target`, `fit --input` with four methods,
`denoise --truth` on a CSV, a convergence table whose greedy cells fail,
and one whose adaptive cells are skipped past the columns their runs keep),
the runs that read back what those wrote (`READ_BACK`: an
`eval --points` on a points file that this script writes, and a `replay` of
a `fit` and of a `denoise` manifest) and both `scripts/run_*_experiments.py`,
each under its own directory of OUT.  It writes every command's exit code to
OUT/exit_codes.txt, and what each command prints to
OUT/printed/<its --out under OUT>/stdout.txt and stderr.txt (the experiment
scripts' to OUT/printed/<script>/), with OUT and this checkout's path
masked, and so the line numbers of Python warnings.  Two checkouts give
the same results when

    diff -r -x manifest.json A B

is empty (`manifest.json` holds timings and timestamps).  The BLAS thread
count comes from the environment (`OPENBLAS_NUM_THREADS`), so a snapshot per
BLAS thread setting checks thread invariance too.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import re
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
# denoise runs beyond the benchmark's: (directory, arguments); "{sigma2}" is
# the preset's sigma squared
DENOISE_MODES = (
    ("ls+vote", ["--mode", "ls+vote", "--k", "3"]),
    ("ls+vote-default-k", ["--mode", "ls+vote"]),
    ("iterative-case2", ["--mode", "iterative", "--init", "case2"]),
    ("iterative-case3", ["--mode", "iterative", "--init", "case3", "--sigma2", "{sigma2}"]),
    ("iterative-subset", ["--mode", "iterative", "--constraints", "1,x,f,xf"]),
    ("iterative-short", ["--mode", "iterative", "--max-iter", "3", "--tol", "1e-3"]),
)
DENOISE_SEEDS = (0, 5)
# fit runs beyond the benchmark's, whose fits write no trace.json and keep the
# default --tol: (directory, arguments)
_GREEDY = ["--fn", "sigmoid60", "--method", "deg2-greedy", "--trace"]
FIT_RUNS = (
    ("greedy-batch1", [*_GREEDY, "--max-terms", "20"]),
    ("greedy-batch3", [*_GREEDY, "--max-terms", "20", "--batch", "3"]),
    ("greedy-batch5", [*_GREEDY, "--max-terms", "20", "--batch", "5"]),
    ("greedy-target", [*_GREEDY, "--target-residual", "1e-6"]),
    ("greedy-cap8", [*_GREEDY, "--max-terms", "30", "--cap", "8"]),
    ("rrqr-tol", ["--fn", "sigmoid60", "--method", "deg2-rrqr", "--tol", "1e-10"]),
    ("rrqr-tol-truncated", ["--fn", "sigmoid60", "--method", "deg2-rrqr", "--max-terms", "20",
                            "--tol", "1e-3"]),
    ("rrqr-past-rank", ["--fn", "relu", "--method", "deg2-rrqr", "--max-terms", "120"]),
)
# runs on generated data, and a convergence table whose greedy cells fail from
# K = 8 on: (directory, arguments), "{out}" standing for OUT; the exact
# (sigma 0) data is also the truth CSV of the denoise run
_DATA = "{out}/data-runs/manifold/data.csv"
DATA_RUNS = (
    ("exact", ["generate", "--target", "function", "--sigma", "0", "--seed", "0"]),
    ("manifold", ["generate", "--target", "manifold", "--sigma", "5000", "--seed", "3"]),
    ("fit-deg0", ["fit", "--input", _DATA, "--method", "deg0", "--n", "8"]),
    ("fit-deg1", ["fit", "--input", _DATA, "--method", "deg1", "--n0", "4", "--n1", "4"]),
    ("fit-deg2-uniform", ["fit", "--input", _DATA, "--method", "deg2-uniform",
                          "--n0", "3", "--n1", "3", "--n2", "3"]),
    ("fit-deg2-greedy", ["fit", "--input", _DATA, "--method", "deg2-greedy",
                         "--max-terms", "10"]),
    ("denoise-truth-csv", ["denoise", "--input", _DATA, "--mode", "ls+vote",
                           "--truth", "{out}/data-runs/exact/data.csv"]),
    ("convergence-failed-cells", ["convergence", "--fn", "relu", "--methods",
                                  "deg0,deg2-greedy", "--kmin", "6", "--kmax", "10"]),
    ("convergence-short-runs", ["convergence", "--fn", "sigmoid60", "--methods",
                                "deg2-rrqr,deg2-greedy,deg0", "--kmin", "6", "--kmax", "12",
                                "--order", "8"]),
)
# the x values of the points file, on sigmoid60's domain [-1, 1], with its
# ends and points on its steep rise at 0
POINTS = (-1.0, -0.5, -0.0125, 0.0, 1e-3, 0.25, 1.0)
# commands that read files written by the runs above: (directory, arguments),
# "{out}" standing for OUT
READ_BACK = (
    ("eval-points", ["eval", "--rep", "{out}/fit-eval/sigmoid60-deg2-greedy/rep.json",
                     "--points", "{out}/points.csv", "--branches"]),
    ("replay-fit", ["replay", "--manifest", "{out}/fit-eval/relu-deg2-rrqr/manifest.json"]),
    ("replay-denoise", ["replay", "--manifest",
                        "{out}/denoise-modes/case4-5/iterative-short/manifest.json"]),
)


def denoise_commands(out: Path) -> list[list[str]]:
    """generate, then every `DENOISE_MODES` run with --truth step, per preset and seed."""
    from quadrep.denoise import NOISE_PRESETS

    cmds = []
    for preset, (_, sigma) in NOISE_PRESETS.items():
        for seed in DENOISE_SEEDS:
            data = out / f"{preset}-{seed}"
            cmds.append(["generate", "--preset", preset, "--seed", str(seed),
                         "--out", str(data)])
            for name, args in DENOISE_MODES:
                args = [a.format(sigma2=repr(sigma * sigma)) for a in args]
                cmds.append(["denoise", "--input", str(data / "data.csv"), *args,
                             "--truth", "step", "--out", str(data / name)])
    return cmds


def _mask(text: str, out: Path) -> str:
    """``text`` with OUT, this checkout and warning line numbers masked."""
    text = text.replace(str(out), "OUT").replace(str(ROOT), "ROOT")
    return re.sub(r"\.py:\d+: (\w*Warning)", r".py:N: \1", text)


def captured(out: Path, label: str, call) -> int:
    """``call()``'s exit code; what it prints is appended, masked, to
    OUT/printed/<label>/.  Warnings show as in a process of their own."""
    printed = {"stdout.txt": io.StringIO(), "stderr.txt": io.StringIO()}
    with contextlib.redirect_stdout(printed["stdout.txt"]), \
            contextlib.redirect_stderr(printed["stderr.txt"]), warnings.catch_warnings():
        code = call()
    where = out / "printed" / label
    where.mkdir(parents=True, exist_ok=True)
    for name, text in printed.items():
        with open(where / name, "a") as fh:
            fh.write(_mask(text.getvalue(), out))
    return code


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists():
        print(f"{out} exists; give a new directory", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT / "perfbench", ROOT / "scripts"):
        sys.path.insert(0, str(path))
    from quadrep.cli import main as cli_main
    import workloads

    codes = []

    def run(argv):
        label = Path(argv[argv.index("--out") + 1]).relative_to(out)
        codes.append((" ".join(argv).replace(str(out), "OUT"),
                      captured(out, str(label), lambda: cli_main(argv))))

    for name, workload in workloads.WORKLOADS.items():
        for cmd in workload(SEED).commands(out / name):
            run(cmd.argv)
    for argv in denoise_commands(out / "denoise-modes"):
        run(argv)
    for name, args in FIT_RUNS:
        run(["fit", *args, "--out", str(out / "fit-runs" / name)])
    for name, args in DATA_RUNS:
        run([a.format(out=out) for a in args] + ["--out", str(out / "data-runs" / name)])
    (out / "points.csv").write_text("x\n" + "".join(f"{x!r}\n" for x in POINTS))
    for name, args in READ_BACK:
        run([a.format(out=out) for a in args] + ["--out", str(out / "read-back" / name)])
    for script in ("run_convergence_experiments", "run_denoise_experiments"):
        module = importlib.import_module(script)
        codes.append((script, captured(out, script, lambda: module.run(out / script))))
    (out / "exit_codes.txt").write_text("".join(f"{c}\t{a}\n" for a, c in codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
