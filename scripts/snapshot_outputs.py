#!/usr/bin/env python3
"""Write every output of the benchmark's command lists and the experiment scripts.

    python3 scripts/snapshot_outputs.py OUT

Runs, in this process, the three command lists of `perfbench/workloads.py`
(`sweep`, `fit-eval`, `denoise`, benchmark seed 1), the `denoise` modes the
benchmark does not run (`DENOISE_MODES`, on every preset at `DENOISE_SEEDS`),
the `fit` runs it does not run (`FIT_RUNS`: greedy traces, an rrqr
tolerance, alone and with a term budget, and an rrqr truncation past the
numerical rank, each with its printed lines in `stdout.txt`), the runs that read back what those wrote
(`READ_BACK`: an `eval --points` on a points file that this script writes,
and a `replay` of a `fit` and of a `denoise` manifest) and both
`scripts/run_*_experiments.py`, each under its own directory of OUT, and
writes every command's exit code to OUT/exit_codes.txt.  Two checkouts give
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
import sys
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
    with contextlib.redirect_stdout(io.StringIO()):
        for name, workload in workloads.WORKLOADS.items():
            for cmd in workload(SEED).commands(out / name):
                codes.append((" ".join(cmd.argv).replace(str(out), "OUT"), cli_main(cmd.argv)))
        for argv in denoise_commands(out / "denoise-modes"):
            codes.append((" ".join(argv).replace(str(out), "OUT"), cli_main(argv)))
        for name, args in FIT_RUNS:
            run_out = out / "fit-runs" / name
            argv = ["fit", *args, "--out", str(run_out)]
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                codes.append((" ".join(argv).replace(str(out), "OUT"), cli_main(argv)))
            run_out.mkdir(parents=True, exist_ok=True)
            (run_out / "stdout.txt").write_text(printed.getvalue())
        (out / "points.csv").write_text("x\n" + "".join(f"{x!r}\n" for x in POINTS))
        for name, args in READ_BACK:
            argv = [a.format(out=out) for a in args] + ["--out", str(out / "read-back" / name)]
            codes.append((" ".join(argv).replace(str(out), "OUT"), cli_main(argv)))
        for script in ("run_convergence_experiments", "run_denoise_experiments"):
            code = importlib.import_module(script).run(out / script)
            codes.append((script, code))
    (out / "exit_codes.txt").write_text("".join(f"{c}\t{a}\n" for a, c in codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
