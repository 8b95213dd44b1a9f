#!/usr/bin/env python3
"""Write every output of the benchmark's command lists and the experiment scripts.

    python3 scripts/snapshot_outputs.py OUT

Runs, in this process, the three command lists of `perfbench/workloads.py`
(`sweep`, `fit-eval`, `denoise`, benchmark seed 1), the `denoise` modes the
benchmark does not run (`DENOISE_MODES`, on every preset at `DENOISE_SEEDS`)
and both `scripts/run_*_experiments.py`, each under its own directory of OUT,
and writes every command's exit code to OUT/exit_codes.txt.  Two checkouts give
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
    ("iterative-case2", ["--mode", "iterative", "--init", "case2"]),
    ("iterative-case3", ["--mode", "iterative", "--init", "case3", "--sigma2", "{sigma2}"]),
    ("iterative-subset", ["--mode", "iterative", "--constraints", "1,x,f,xf"]),
)
DENOISE_SEEDS = (0, 5)


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
        for script in ("run_convergence_experiments", "run_denoise_experiments"):
            code = importlib.import_module(script).run(out / script)
            codes.append((script, code))
    (out / "exit_codes.txt").write_text("".join(f"{c}\t{a}\n" for a, c in codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
