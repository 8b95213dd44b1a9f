"""Command-line surface: fitting, evaluation, convergence sweeps, noisy-data
generation, and denoising, with plot-ready CSV/JSON outputs.

Every command writes a ``manifest.json`` beside its outputs; ``quadrep replay
--manifest <path> --out <dir>`` regenerates the outputs byte-identically
(the fresh manifest itself carries a new timestamp).

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import datetime
import functools
import math
import sys
# no pool runs here: the name stays because perfbench/spans.py reads and rebinds it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from pathlib import Path

import numpy as np

from . import __version__
from .denoise import (
    INIT_MODES,
    NOISE_MODELS,
    NOISE_PRESETS,
    NUMERICAL_ERRORS,
    denoise_case3,
    denoise_iterative,
    fit_manifold_ls,
    generate_noisy,
    reconstruct,
    step_ground_truth,
)
from .dictionary import DataError, build_grid, check_counts, check_philox_key
from .files import (dataset_table, load_rep, read_dataset, read_manifest, read_points,
                    write_csv, write_json)
from .functions import BUILTINS, STEP_MID, get_builtin
from .representation import EvaluationError, branches, eval_rep, poles, rep_to_dict
from .selection import (BATCH_SIZES, FIT_FLAGS, METHODS, GreedyRun, _set, achievable_k,
                        error_at_k, fit_at_k, fit_method, method_run)


def _grid_for_function(name: str, order: int | None):
    fn = get_builtin(name)
    return build_grid(fn.fn, fn.domain, **_set(order=order))


def _reject_unread(args, dests, where: str) -> None:
    """ValueError naming the first of ``dests`` that was given: it is not
    read ``where`` (``by --mode ls``, say)."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} is not read {where}")


def cmd_fit(args):
    _reject_unread(args, [f for flags in FIT_FLAGS.values() for f in flags
                          if f not in FIT_FLAGS[args.method]], f"by --method {args.method}")
    if args.input is not None:
        _reject_unread(args, ["order"], "with --input")
    if args.fn is not None:
        grid = _grid_for_function(args.fn, args.order)
    else:
        grid = read_dataset(args.input)
    rep, k, run, _ = fit_method(grid, args.method, vars(args))
    docs = {"rep.json": rep_to_dict(rep)}
    if args.trace:
        docs["trace.json"] = run.trace_doc()
    print(f"K={k} residual={rep.fit_residual:.6e}")
    if run is not None and k - 1 < grid.size:
        baseline = fit_at_k(grid, "deg0", k)
        print(f"deg0 residual at K={k}: {baseline.fit_residual:.6e}")
    return docs, run.config.rng_seed if isinstance(run, GreedyRun) else args.seed


def _eval_table(rep, xs):
    """Values at ``xs`` and, for a degree-2 rep, [root_lo, root_hi], from one
    batched evaluation; NaN where a point has no real value (a pole, complex
    or missing roots, no index)."""
    values = np.full(xs.shape, np.nan)
    if rep.degree == 2:
        br = branches(rep, xs)
        if rep.index is not None:
            values = br.select(rep.index.signs_at(xs))
        lo = np.where(br.plus < br.minus, br.plus, br.minus)
        return values, [lo, np.where(br.plus > br.minus, br.plus, br.minus)]
    real = ~poles(rep, xs) if rep.degree == 1 else np.ones(xs.shape, bool)
    values[real] = eval_rep(rep, xs[real])
    return values, None


def _point_table(header, xs, columns):
    """``xs`` and each column's value there as a CSV table, a NaN left blank."""
    return header, ([repr(x), *("" if math.isnan(v) else repr(v) for v in row)]
                    for x, *row in zip(xs.tolist(), *(c.tolist() for c in columns)))


def cmd_eval(args):
    if args.points is not None:
        _reject_unread(args, ["grid"], "with --points")
    grid = 101 if args.grid is None else args.grid
    if grid < 1:
        raise ValueError("--grid must be >= 1")
    try:
        rep = load_rep(args.rep)
    except (ValueError, KeyError, TypeError) as exc:
        raise EvaluationError(f"bad representation document: {exc}") from exc
    if args.branches and rep.degree != 2:
        raise ValueError("branch table requires a degree-2 representation")
    if args.points is not None:
        xs = read_points(args.points)
    else:
        xs = np.linspace(*rep.domain, grid)
    values, roots = _eval_table(rep, xs)
    docs = {"eval.csv": _point_table(["x", "value"], xs, [values])}
    if args.branches:
        docs["branches.csv"] = _point_table(["x", "root_lo", "root_hi"], xs, roots)
    blank = int(np.sum(np.isnan(values)))
    if blank:
        print(f"warning: {blank} points had no real value", file=sys.stderr)
    print(f"evaluated {xs.size} points")
    return docs, None


def _failed_cell(method: str, k: int, exc: Exception) -> float:
    verb = "failed" if isinstance(exc, NUMERICAL_ERRORS) else "skipped"
    print(f"cell ({method}, K={k}) {verb}: {exc}", file=sys.stderr)
    return float("nan")


def cmd_convergence(args):
    methods = [m.strip() for m in args.methods.split(",")]
    ks = {m: achievable_k(m, args.kmin, args.kmax) for m in methods}
    for m in methods:
        if methods.count(m) > 1:
            raise ValueError(f"--methods lists {m} more than once")
        if not ks[m]:
            raise ValueError(f"{m} has no achievable K in [{args.kmin}, {args.kmax}]")
    check_counts(stream_cap=args.cap)
    check_philox_key(rng_seed=args.seed)
    grid = _grid_for_function(args.fn, args.order)
    cells = [(m, k) for m in methods for k in ks[m]]
    # one selection run per adaptive method, to its largest K; a run that
    # fails is kept as its exception, which each of the method's cells reports
    runs = {}
    for m in methods:
        try:
            runs[m] = method_run(grid, m, ks[m][-1], args.seed, args.cap)
        except (*NUMERICAL_ERRORS, ValueError) as exc:
            runs[m] = exc

    errors = []
    for m, k in cells:
        try:
            if isinstance(runs[m], Exception):
                raise runs[m]
            errors.append(error_at_k(grid, m, k, runs[m]))
        except (*NUMERICAL_ERRORS, ValueError) as exc:
            errors.append(_failed_cell(m, k, exc))
    print(f"wrote {len(cells)} cells for {args.fn}")
    return {"convergence.csv": (
        ["method", "K", "error"],
        ([m, str(k), repr(float(err))] for (m, k), err in zip(cells, errors)),
        "error = relative L2 against the sampled reference (absolute when the reference"
        " norm is 0); K counts fitted coefficients")}, args.seed


def cmd_generate(args):
    if args.preset is not None:
        _reject_unread(args, ["target", "sigma"], "with --preset")
        model, sigma = NOISE_PRESETS[args.preset]
    else:
        if args.target is None or args.sigma is None:
            raise ValueError("need --preset or both --target and --sigma")
        model, sigma = args.target, args.sigma
    positions = np.arange(0.0, 401.0)
    truth = step_ground_truth(positions)
    data, metadata = generate_noisy(positions, truth, model, sigma, args.seed)
    table = dataset_table(data)
    print(f"wrote {data.size} samples (model={model}, sigma={sigma})")
    # the metadata is a sidecar for readers of the data; no command reads it back
    return {"data.csv": table, "data.meta.json": metadata}, args.seed


def _check_denoise_flags(args) -> None:
    """ValueError naming a flag that the mode needs and lacks, or never reads."""
    needs_sigma2 = args.mode == "debias+vote" or (args.mode, args.init) == ("iterative", "case3")
    if needs_sigma2 and args.sigma2 is None:
        flag = "--init case3" if args.mode == "iterative" else "--mode debias+vote"
        raise ValueError(f"{flag} requires --sigma2")
    if not needs_sigma2 and args.sigma2 is not None:
        unless = " without --init case3" if args.mode == "iterative" else ""
        raise ValueError(f"--sigma2 is not read by --mode {args.mode}{unless}")
    unread = ["k"] if args.mode == "ls" else []
    if args.mode != "iterative":
        unread += ["constraints", "init", "max_iter", "tol"]
    _reject_unread(args, unread, f"by --mode {args.mode}")


def cmd_denoise(args):
    _check_denoise_flags(args)
    data = read_dataset(args.input)
    truth = step_ground_truth(data.nodes) if args.truth == "step" else None
    if args.truth not in (None, "step"):
        known = read_dataset(args.truth)
        if not np.array_equal(known.nodes, data.nodes):
            raise DataError(f"{args.truth}: truth positions differ from the data's")
        truth = known.values
    # a flag not given takes the library's default; all8 names the default constraints
    if args.mode == "debias+vote":
        res = denoise_case3(data, args.sigma2, **_set(k=args.k))
    elif args.mode == "iterative":
        names = None if args.constraints in (None, "all8") else tuple(
            c.strip() for c in args.constraints.split(","))
        res = denoise_iterative(data, sigma2_0=args.sigma2, **_set(
            constraint_names=names, init=args.init, k=args.k, max_iter=args.max_iter,
            tol=args.tol))
    else:  # ls keeps each sample's nearest root; ls+vote votes on them
        res = reconstruct(fit_manifold_ls(data), data,
                          **(_set(k=args.k) if args.mode == "ls+vote" else {"k": None}))

    fit, values = res.fit, res.reconstructed
    eps_hat = data.values - values
    columns = (data.nodes, data.values, values, eps_hat)
    fit_doc = {
        "b0": fit.b0, "b1": fit.b1, "c0": fit.c0, "c1": fit.c1,
        "method": fit.method, "residual": fit.residual, "condition": fit.condition,
        "rep": rep_to_dict(fit.as_rep(data.domain)),
    }
    x = data.nodes
    xc = x - x.mean()
    denom = float(np.linalg.norm(xc) * np.linalg.norm(eps_hat - eps_hat.mean()))
    report = {
        "noise_mean": float(eps_hat.mean()),
        "noise_x_correlation": float((xc @ (eps_hat - eps_hat.mean())) / denom) if denom > 0 else 0.0,
        "converged": res.converged,
        "iterations": res.iterations,
        "stop_reason": res.stop_reason,
        "vote_rounds": res.vote_rounds,
        "max_constraint_residual": res.max_constraint_residual,
    }
    if truth is not None:
        tsigns = np.where(truth > STEP_MID, 1, -1)
        report["mislabel_count"] = int(np.sum(res.index.signs_at(data.nodes) != tsigns))
    print(f"mode={args.mode} b0={fit.b0:.4f} c0={fit.c0:.4f}")
    return {"reconstruction.csv": (["x", "f_obs", "f_hat", "eps_hat"],
                                   (map(repr, row) for row in zip(*(c.tolist() for c in columns)))),
            "fit.json": fit_doc, "report.json": report}, None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``parse_args``
    leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="quadrep",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a representation to a builtin function or CSV data")
    src = p_fit.add_mutually_exclusive_group(required=True)
    src.add_argument("--fn", choices=sorted(BUILTINS))
    src.add_argument("--input", help="CSV with x,f columns (tabulated grid)")
    p_fit.add_argument("--method", choices=METHODS, required=True)
    # no parser defaults, so that a flag given to a method that does not read
    # it is seen (selection.FIT_FLAGS); the library holds the defaults
    p_fit.add_argument("--n", type=int, help="deg0: degree of c")
    p_fit.add_argument("--n0", type=int, help="deg1, deg2-uniform: degree of c")
    p_fit.add_argument("--n1", type=int, help="deg1, deg2-uniform: degree of b")
    p_fit.add_argument("--n2", type=int, help="deg2-uniform: degree of a")
    p_fit.add_argument("--max-terms", type=int, help="deg2-greedy, deg2-rrqr")
    p_fit.add_argument("--target-residual", type=float, help="deg2-greedy")
    p_fit.add_argument("--batch", type=int, choices=BATCH_SIZES, help="deg2-greedy")
    p_fit.add_argument("--cap", type=int, help="deg2-greedy, deg2-rrqr: columns per stream")
    p_fit.add_argument("--tol", type=float, help="deg2-rrqr: truncation, relative to |R_11|")
    p_fit.add_argument("--seed", type=int, help="deg2-greedy; deg2-rrqr accepts it unused")
    p_fit.add_argument("--order", type=int, help="--fn only (default 1000)")
    p_fit.add_argument("--trace", action="store_true", default=None,
                       help="deg2-greedy: also write trace.json")
    p_fit.add_argument("--out", default=".")

    p_eval = sub.add_parser("eval", help="evaluate a stored representation")
    p_eval.add_argument("--rep", required=True)
    p_eval.add_argument("--grid", type=int,
                        help="points on the rep's domain (default 101); not read with --points")
    p_eval.add_argument("--points", default=None)
    p_eval.add_argument("--branches", action="store_true",
                        help="also write both quadratic roots per point")
    p_eval.add_argument("--out", default=".")

    p_conv = sub.add_parser("convergence", help="error-vs-K table per method")
    p_conv.add_argument("--fn", choices=sorted(BUILTINS), required=True)
    p_conv.add_argument("--methods", default=",".join(METHODS))
    p_conv.add_argument("--kmin", type=int, default=2)
    p_conv.add_argument("--kmax", type=int, default=30)
    p_conv.add_argument("--order", type=int)
    p_conv.add_argument("--cap", type=int, default=60)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--out", default=".")

    p_gen = sub.add_parser("generate", help="synthesize noisy step data")
    p_gen.add_argument("--preset", choices=sorted(NOISE_PRESETS), default=None)
    p_gen.add_argument("--target", choices=NOISE_MODELS, default=None)
    p_gen.add_argument("--sigma", type=float, default=None)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", default=".")

    p_den = sub.add_parser("denoise", help="reconstruct step data from noisy samples")
    p_den.add_argument("--input", required=True)
    p_den.add_argument("--mode", choices=("ls", "ls+vote", "debias+vote", "iterative"),
                       required=True)
    p_den.add_argument("--sigma2", type=float, default=None)
    p_den.add_argument("--k", type=int, default=None,
                       help="neighbors per k-NN vote (default 10); not read by --mode ls")
    # no parser defaults, so that a flag given to another mode is seen
    p_den.add_argument("--constraints", help="iterative only: all8 (default) or a comma list")
    p_den.add_argument("--init", choices=INIT_MODES,
                       help="iterative only (default case1)")
    p_den.add_argument("--max-iter", type=int, help="iterative only (default 50)")
    p_den.add_argument("--tol", type=float, help="iterative only (default 1e-6)")
    p_den.add_argument("--truth", default=None,
                       help="'step' or a CSV of ground-truth values, for mislabel counts")
    p_den.add_argument("--out", default=".")

    p_rep = sub.add_parser("replay", help="re-run a recorded manifest")
    p_rep.add_argument("--manifest", required=True)
    p_rep.add_argument("--out", required=True)
    return parser


_HANDLERS = {
    "fit": cmd_fit,
    "eval": cmd_eval,
    "convergence": cmd_convergence,
    "generate": cmd_generate,
    "denoise": cmd_denoise,
}


def main(argv=None) -> int:
    """Run one command (``replay``: the argv its manifest stores).  Its handler
    returns its documents, each file name's JSON dict or CSV ``(header, rows[,
    comment])``, and its seed; only then is ``--out`` made, so a failure writes
    nothing.  A path that cannot be opened, made or written is a usage error;
    a failed write leaves the documents before it, and no manifest."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            stored = read_manifest(args.manifest)
            if stored[:1] == ["replay"]:
                raise DataError(f"{args.manifest}: a stored replay is not replayed")
            # the new --out takes the place of the stored one and its value, if any
            i = stored.index("--out") if "--out" in stored else len(stored)
            stored[i:i + 2] = ["--out", args.out]
            argv, args = stored, parser.parse_args(stored)
        docs, seed = _HANDLERS[args.command](args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, doc in docs.items():
            if isinstance(doc, dict):
                write_json(out / name, doc)
            else:
                write_csv(out / name, *doc)
        write_json(out / "manifest.json", {
            "command": args.command, "argv": argv, "seed": seed, "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()})
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
