#!/usr/bin/env python3
"""Benchmark of the quadrep command line, end to end and layer by layer.

Run from the root of a checkout (the package need not be installed):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads are `sweep`, `fit-eval` and `denoise` (see README.md).  One client
calls `quadrep.cli.main` in a closed loop, in this process, over the
workload's fixed command list; a pass is one round of that list.  With
`--trace 0` the benchmark runs whole passes until their timed work reaches
`--seconds` and reports the end-to-end metrics; with `--trace 1` it runs one
untraced pass and two traced passes and reports the per-layer metrics.
Every pass's outputs are checked against numpy-only computations outside the
timed region.  The last line of standard output is one JSON object; the exit
code is 1 if any check failed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread and a convergence pool of one worker: one busy thread.  A
# pool of two (both cores of the reference machine) made sweep passes spread
# over 11-15 s between runs; one worker keeps them within a few per cent.
POOL_THREADS = 1
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "QUADREP_THREADS": str(POOL_THREADS),
}
SETUP_PROBES = 5
TRACED_PASSES = 2

WARMUP = {
    "sweep": lambda w: [["convergence", "--fn", "relu", "--kmax", "5", "--order", "64",
                         "--cap", "8", "--out", str(w)]],
    "fit-eval": lambda w: [["fit", "--fn", "relu", "--method", "deg2-uniform", "--n0", "1",
                            "--n1", "1", "--n2", "1", "--order", "64", "--out", str(w)],
                           ["eval", "--rep", str(w / "rep.json"), "--grid", "5",
                            "--branches", "--out", str(w / "eval")]],
    "denoise": lambda w: [["generate", "--preset", "case1", "--seed", "0", "--out", str(w)],
                          ["denoise", "--input", str(w / "data.csv"), "--mode", "ls",
                           "--out", str(w / "denoised")]],
}


@dataclass
class Pass:
    commands: list
    codes: list
    latencies: list
    log: str

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "fit-eval", "denoise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload_name: str, seed: int, work: Path):
    """Everything before the first timed call: imports, command lists, warm-up."""
    from quadrep.cli import main as cli_main

    import workloads

    workload = workloads.WORKLOADS[workload_name](seed)
    warm = work / "warmup"
    shutil.rmtree(warm, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in WARMUP[workload_name](warm):
            code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"warm-up command failed with exit {code}: {argv}")
    shutil.rmtree(warm)
    return cli_main, workload


def measure_setup(args, work: Path) -> list[float]:
    """Set-up time of fresh processes, from spawn until they would start timing."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--probe-setup", str(i)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe {i} failed (exit {code})")
        times.append(t1 - t0)
        shutil.rmtree(work / f"probe-{i}")
    return times


def run_pass(call, workload, pass_dir: Path) -> Pass:
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    commands = workload.commands(pass_dir)
    codes, latencies = [], []
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for cmd in commands:
            t0 = time.perf_counter()
            code = call(cmd.argv)
            latencies.append(time.perf_counter() - t0)
            codes.append(code)
    return Pass(commands, codes, latencies, log.getvalue())


def tail_latency(passes) -> float:
    """The highest whole percentile of the run's command latencies with at
    least ten latencies above it.  A run of fewer than 40 commands has no such
    tail; it reports the median over passes of the slowest command."""
    pooled = sorted(t for p in passes for t in p.latencies)
    n = len(pooled)
    if n < 40:
        return statistics.median(max(p.latencies) for p in passes)
    percentile = math.floor(100.0 * (n - 10) / n)
    return pooled[math.ceil(percentile / 100.0 * n) - 1]


def end_to_end(passes, setup_times) -> dict:
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cmd_p50_s": (statistics.median(statistics.median(p.latencies) for p in passes), "s"),
        "cmd_tail_s": (tail_latency(passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def bytes_written(pass_dir: Path) -> int:
    """Bytes of every output file but manifest.json, whose timestamp varies in length."""
    return sum(p.stat().st_size for p in pass_dir.rglob("*")
               if p.is_file() and p.name != "manifest.json")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "quadrep" / "cli.py").is_file():
        print(f"error: no quadrep sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    work = OUT_DIR / args.workload

    if args.probe_setup is not None:
        set_up(args.workload, args.seed, work / f"probe-{args.probe_setup}")
        print("ready", flush=True)
        return 0

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times = measure_setup(args, work)
    cli_main, workload = set_up(args.workload, args.seed, work)

    import checks
    import spans

    checker = checks.CHECKERS[args.workload](cli_main, work / "check")
    pass_dir = work / "pass"
    problems: list[str] = []
    attempted = failed = 0
    passes: list[Pass] = []

    def finish(p: Pass, label: str):
        nonlocal attempted, failed
        attempted += sum(workload.operations(c) for c in p.commands)
        n_failed, messages = checker.review(p.commands, p.codes)
        failed += n_failed
        problems.extend(f"{label}: {msg}" for msg in messages)
        (work / f"{label}.log").write_text(p.log)
        passes.append(p)

    if args.trace == 0:
        while not passes or sum(p.wall_s for p in passes) < args.seconds:
            finish(run_pass(cli_main, workload, pass_dir), f"pass-{len(passes) + 1}")
        metrics = end_to_end(passes, setup_times)
    else:
        finish(run_pass(cli_main, workload, pass_dir), "untraced")
        layer_runs = []
        for i in range(1, TRACED_PASSES + 1):
            tracer = spans.Tracer()
            with spans.installed(tracer):
                p = run_pass(tracer.command(cli_main), workload, pass_dir)
            tracer.add("cli.bytes_written", bytes_written(pass_dir))
            finish(p, f"traced-{i}")
            tracer.write(work / f"trace-{i}.json")
            layer_runs.append(tracer)
        problems.extend(spans.count_mismatches(layer_runs))
        overhead = statistics.mean(p.wall_s for p in passes[1:]) - passes[0].wall_s
        metrics = spans.per_layer_metrics(layer_runs, overhead)
    shutil.rmtree(pass_dir, ignore_errors=True)
    shutil.rmtree(work / "check", ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} attempted={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for msg in problems[:20]:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more failed checks", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
