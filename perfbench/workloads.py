"""The three workloads: fixed command lists for `quadrep.cli.main`, and the
number of operations each command attempts.

Every command list is a whole round of the same operations, so the share of
failed operations is the same in every pass, whatever the seed.  The
benchmark seed decides the order of the commands and, on `denoise`, the data
seeds of presets case1..case3, whose commands never fail; the case-4 data
seeds are fixed because those commands fail every time (see README.md).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

METHODS = ("deg0", "deg1", "deg2-uniform", "deg2-greedy", "deg2-rrqr")
BUILTINS = ("cos-one-jump", "heaviside-sine", "relu", "sigmoid60", "sin10pi",
            "step-25-255", "two-jump")

# The three tables of scripts/run_convergence_experiments.py, with the CLI
# defaults spelled out.
SWEEP_TABLES = (
    ("heaviside-sine", METHODS, 34),
    ("sin10pi", ("deg0", "deg2-greedy"), 64),
    ("sigmoid60", METHODS, 44),
)
SWEEP_KMIN = 2
SWEEP_ORDER = 1000
SWEEP_CAP = 60
SWEEP_SEED = 0

FIT_K = 20
EVAL_POINTS = 301
# CLI arguments that give K = FIT_K fitted coefficients for each method.
FIT_ARGS = {
    "deg0": ["--n", str(FIT_K - 1)],
    "deg1": ["--n0", "10", "--n1", "9"],
    "deg2-uniform": ["--n0", "6", "--n1", "6", "--n2", "6"],
    "deg2-greedy": ["--max-terms", str(FIT_K)],
    "deg2-rrqr": ["--max-terms", str(FIT_K)],
}

# The four presets of scripts/run_denoise_experiments.py, in the script's modes.
DENOISE_MODES = {
    "case1": ["--mode", "ls"],
    "case2": ["--mode", "ls"],
    "case3": ["--mode", "debias+vote", "--sigma2", "22500", "--k", "10"],
    "case4": ["--mode", "iterative", "--constraints", "all8"],
}
DENOISE_SEEDS_PER_PRESET = 10
CASE4_SEEDS = tuple(range(DENOISE_SEEDS_PER_PRESET))


def achievable_k(method: str, kmin: int, kmax: int) -> list[int]:
    """The K values a convergence table holds for a method."""
    if method == "deg1":
        return [k for k in range(kmin, kmax + 1) if k % 2 == 1]
    if method == "deg2-uniform":
        return [k for k in range(kmin, kmax + 1) if (k - 2) % 3 == 0]
    return list(range(kmin, kmax + 1))


def sweep_cells(methods, kmax: int) -> int:
    return sum(len(achievable_k(m, SWEEP_KMIN, kmax)) for m in methods)


@dataclass(frozen=True)
class Command:
    """One call of `quadrep.cli.main`; ``job`` names what it works on."""

    argv: list
    out: Path
    kind: str
    job: tuple


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def commands(self, root: Path) -> list[Command]:
        raise NotImplementedError

    def operations(self, cmd: Command) -> int:
        """Operations a command attempts."""
        return 1


class Sweep(Workload):
    """The three convergence tables; one operation is one (method, K) cell."""

    name = "sweep"

    def commands(self, root):
        tables = list(SWEEP_TABLES)
        random.Random(self.seed).shuffle(tables)
        cmds = []
        for fn, methods, kmax in tables:
            out = root / fn
            argv = ["convergence", "--fn", fn, "--methods", ",".join(methods),
                    "--kmin", str(SWEEP_KMIN), "--kmax", str(kmax),
                    "--order", str(SWEEP_ORDER), "--cap", str(SWEEP_CAP),
                    "--seed", str(SWEEP_SEED), "--out", str(out)]
            cmds.append(Command(argv, out, "convergence", (fn, methods, kmax)))
        return cmds

    def operations(self, cmd):
        _, methods, kmax = cmd.job
        return sweep_cells(methods, kmax)


class FitEval(Workload):
    """One fit per (builtin, method) at K = 20, then one eval on a uniform grid."""

    name = "fit-eval"

    def commands(self, root):
        jobs = [(fn, m) for fn in BUILTINS for m in METHODS]
        random.Random(self.seed).shuffle(jobs)
        cmds = []
        for fn, method in jobs:
            out = root / f"{fn}-{method}"
            cmds.append(Command(["fit", "--fn", fn, "--method", method, *FIT_ARGS[method],
                                 "--out", str(out)], out, "fit", (fn, method)))
            branches = ["--branches"] if method.startswith("deg2") else []
            cmds.append(Command(["eval", "--rep", str(out / "rep.json"),
                                 "--grid", str(EVAL_POINTS), *branches,
                                 "--out", str(out / "eval")],
                                out / "eval", "eval", (fn, method)))
        return cmds


class Denoise(Workload):
    """generate, then denoise --truth step, per (preset, data seed)."""

    name = "denoise"

    def data_seeds(self, preset: str) -> tuple[int, ...]:
        if preset == "case4":
            return CASE4_SEEDS
        base = 1000 * (self.seed % 1_000_000) + 100 * int(preset[-1])
        return tuple(base + i for i in range(DENOISE_SEEDS_PER_PRESET))

    def commands(self, root):
        jobs = [(p, s) for p in DENOISE_MODES for s in self.data_seeds(p)]
        random.Random(self.seed).shuffle(jobs)
        cmds = []
        for preset, seed in jobs:
            out = root / f"{preset}-{seed}"
            data = out / "data"
            cmds.append(Command(["generate", "--preset", preset, "--seed", str(seed),
                                 "--out", str(data)], data, "generate", (preset, seed)))
            cmds.append(Command(["denoise", "--input", str(data / "data.csv"),
                                 "--truth", "step", "--out", str(out / "denoised"),
                                 *DENOISE_MODES[preset]],
                                out / "denoised", "denoise", (preset, seed)))
        return cmds


WORKLOADS = {w.name: w for w in (Sweep, FitEval, Denoise)}
