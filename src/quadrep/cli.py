"""Command-line surface: fitting, evaluation, convergence sweeps, noisy-data
generation, and denoising, with plot-ready CSV/JSON outputs.

Every command writes a ``manifest.json`` beside its outputs; ``quadrep replay
--manifest <path> --out <dir>`` regenerates the outputs byte-identically
(the fresh manifest itself carries a new timestamp).

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import math
import sys
# no pool runs here: the name stays because perfbench/spans.py reads and rebinds it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from pathlib import Path

import numpy as np

from . import __version__
from .denoise import (
    NOISE_PRESETS,
    ALL_CONSTRAINTS,
    NUMERICAL_ERRORS,
    denoise_case3,
    denoise_iterative,
    fit_manifold_ls,
    generate_noisy,
    read_dataset,
    reconstruct,
    step_ground_truth,
    write_dataset,
)
from .dictionary import DataError, build_grid
from .functions import BUILTINS, STEP_MID, get_builtin
from .representation import (
    branches,
    eval_rep,
    fit_degree0,
    fit_degree1,
    fit_degree2_uniform,
    load_rep,
    poles,
    relative_l2,
    rep_to_dict,
    save_rep,
)
from .selection import (METHODS, SelectionConfig, achievable_k, fit_at_k, greedy_select,
                        method_run, rrqr_select)


def _write_manifest(out: Path, command: str, argv: list[str], seed) -> None:
    doc = {
        "command": command,
        "argv": argv,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _csv_writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _grid_for_function(name: str, order: int):
    fn = get_builtin(name)
    return build_grid(fn.fn, fn.domain, order)


# the flags that each fit method reads.  deg2-rrqr accepts --seed, which it
# does not use, so that one argument list fits either adaptive method, as
# `convergence --seed` does.
_FIT_FLAGS = {
    "deg0": ("n",),
    "deg1": ("n0", "n1"),
    "deg2-uniform": ("n0", "n1", "n2"),
    "deg2-greedy": ("max_terms", "target_residual", "batch", "cap", "seed", "trace"),
    "deg2-rrqr": ("max_terms", "cap", "tol", "seed"),
}
_ALL_FIT_FLAGS = tuple(dict.fromkeys(f for flags in _FIT_FLAGS.values() for f in flags))


def _reject_unread(args, dests, where: str) -> None:
    """ValueError naming the first of ``dests`` that was given: it is not
    read ``where`` (``by --mode ls``, say)."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} is not read {where}")


def _fit_with_method(grid, args):
    method = args.method
    n0, n1, n2 = (0 if n is None else n for n in (args.n0, args.n1, args.n2))
    cap = 60 if args.cap is None else args.cap
    if method == "deg0":
        rep = fit_degree0(grid, 0 if args.n is None else args.n)
        return rep, rep.c.coeffs.size, None
    if method == "deg1":
        return fit_degree1(grid, n0, n1), n0 + n1 + 1, None
    if method == "deg2-uniform":
        return fit_degree2_uniform(grid, n0, n1, n2), n0 + n1 + n2 + 2, None
    if method == "deg2-greedy":
        config = SelectionConfig(
            batch_size=1 if args.batch is None else args.batch,
            target_residual=args.target_residual,
            max_terms=args.max_terms,
            stream_cap=cap,
            rng_seed=0 if args.seed is None else args.seed,
        )
        run = greedy_select(grid, config)
        at = (config.max_terms,)
    else:  # deg2-rrqr: argparse choices guard the method
        run = rrqr_select(grid, stream_cap=cap, max_terms=args.max_terms)
        at = (args.max_terms, 1e-12 if args.tol is None else args.tol)
    return run.rep_at(*at), len(run.tags_at(*at)), run if method == "deg2-greedy" else None


def cmd_fit(args, argv) -> int:
    out = Path(args.out)
    _reject_unread(args, [f for f in _ALL_FIT_FLAGS if f not in _FIT_FLAGS[args.method]],
                   f"by --method {args.method}")
    if args.input is not None:
        _reject_unread(args, ["order"], "with --input")
    if args.fn is not None:
        grid = _grid_for_function(args.fn, 1000 if args.order is None else args.order)
    else:
        grid = read_dataset(args.input)
    rep, k, run = _fit_with_method(grid, args)
    out.mkdir(parents=True, exist_ok=True)
    save_rep(rep, out / "rep.json")
    if args.trace:
        with open(out / "trace.json", "w") as fh:
            fh.write(run.trace_json(rep.fit_residual))
            fh.write("\n")
    _write_manifest(out, "fit", argv, run.config.rng_seed if run is not None else args.seed)
    print(f"K={k} residual={rep.fit_residual:.6e}")
    if args.method in ("deg2-greedy", "deg2-rrqr") and k - 1 < grid.size:
        baseline = fit_at_k(grid, "deg0", k)
        print(f"deg0 residual at K={k}: {baseline.fit_residual:.6e}")
    return 0


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


def _cell(v: float) -> str:
    """A CSV value; blank where there is none."""
    return "" if math.isnan(v) else repr(v)


def cmd_eval(args, argv) -> int:
    out = Path(args.out)
    if args.grid < 1:
        raise ValueError("--grid must be >= 1")
    try:
        rep = load_rep(args.rep)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"numerical failure in eval: bad representation document: {exc}",
              file=sys.stderr)
        return 3
    if args.branches and rep.degree != 2:
        raise ValueError("branch table requires a degree-2 representation")
    if args.points is not None:
        with open(args.points, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
        if rows and rows[0][0].strip().lower() in ("x",):
            rows = rows[1:]
        xs = []
        for row in rows:
            if len(row) != 1:
                raise DataError(f"{args.points}: row {','.join(row)!r} has {len(row)}"
                                " fields; expected one x value")
            try:
                xs.append(float(row[0]))
            except ValueError as exc:
                raise DataError(f"{args.points}: row {row[0]!r} is not a number") from exc
        xs = np.array(xs)
        if not np.all(np.isfinite(xs)):
            raise ValueError(f"{args.points}: every x must be finite")
    else:
        xs = np.linspace(*rep.domain, args.grid)
    values, roots = _eval_table(rep, xs)
    tables = [("eval.csv", ["x", "value"], [values])]
    if args.branches:
        tables.append(("branches.csv", ["x", "root_lo", "root_hi"], roots))
    out.mkdir(parents=True, exist_ok=True)
    blank = 0
    for name, header, columns in tables:
        with open(out / name, "w", newline="") as fh:
            writer = _csv_writer(fh)
            writer.writerow(header)
            writer.writerows([repr(x), *map(_cell, row)]
                             for x, *row in zip(xs.tolist(), *(c.tolist() for c in columns)))
        blank += int(np.sum(np.isnan(columns[0])))
    _write_manifest(out, "eval", argv, None)
    if blank:
        print(f"warning: {blank} points had no real value", file=sys.stderr)
    print(f"evaluated {xs.size} points")
    return 0


def _failed_cell(method: str, k: int, exc: Exception) -> float:
    verb = "failed" if isinstance(exc, NUMERICAL_ERRORS) else "skipped"
    print(f"cell ({method}, K={k}) {verb}: {exc}", file=sys.stderr)
    return float("nan")


def cmd_convergence(args, argv) -> int:
    out = Path(args.out)
    grid = _grid_for_function(args.fn, args.order)
    methods = [m.strip() for m in args.methods.split(",")]
    cells = [(m, k) for m in methods for k in achievable_k(m, args.kmin, args.kmax)]
    # one selection run per adaptive method, to its largest K; a run that
    # fails is kept as its exception, which each of the method's cells reports
    runs = {}
    for m in dict.fromkeys(methods):
        ks = [k for c, k in cells if c == m]
        try:
            runs[m] = method_run(grid, m, max(ks), args.seed, args.cap) if ks else None
        except (*NUMERICAL_ERRORS, ValueError) as exc:
            runs[m] = exc

    errors = []
    for m, k in cells:
        if isinstance(runs[m], Exception):
            errors.append(_failed_cell(m, k, runs[m]))
            continue
        try:
            errors.append(relative_l2(fit_at_k(grid, m, k, runs[m]), grid))
        except (*NUMERICAL_ERRORS, ValueError) as exc:
            errors.append(_failed_cell(m, k, exc))
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "convergence.csv", "w", newline="") as fh:
        fh.write("# error = relative L2 against the sampled reference"
                 " (absolute when the reference norm is 0);"
                 " K counts fitted coefficients\n")
        writer = _csv_writer(fh)
        writer.writerow(["method", "K", "error"])
        for (m, k), err in zip(cells, errors):
            writer.writerow([m, k, repr(float(err))])
    _write_manifest(out, "convergence", argv, args.seed)
    print(f"wrote {len(cells)} cells for {args.fn}")
    return 0


def cmd_generate(args, argv) -> int:
    out = Path(args.out)
    if args.preset is not None:
        model, sigma = NOISE_PRESETS[args.preset]
    else:
        if args.target is None or args.sigma is None:
            raise ValueError("need --preset or both --target and --sigma")
        model, sigma = args.target, args.sigma
    positions = np.arange(0.0, 401.0)
    truth = step_ground_truth(positions)
    data, metadata = generate_noisy(positions, truth, model, sigma, args.seed)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(out / "data.csv", data, metadata)
    _write_manifest(out, "generate", argv, args.seed)
    print(f"wrote {data.size} samples (model={model}, sigma={sigma})")
    return 0


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


def cmd_denoise(args, argv) -> int:
    out = Path(args.out)
    _check_denoise_flags(args)
    k = 10 if args.k is None else args.k
    data = read_dataset(args.input)
    truth = step_ground_truth(data.nodes) if args.truth == "step" else None
    if args.truth not in (None, "step"):
        known = read_dataset(args.truth)
        if not np.array_equal(known.nodes, data.nodes):
            raise DataError(f"{args.truth}: truth positions differ from the data's")
        truth = known.values
    if args.mode == "debias+vote":
        res = denoise_case3(data, args.sigma2, k=k)
    elif args.mode == "iterative":
        names = ALL_CONSTRAINTS if args.constraints in (None, "all8") else tuple(
            c.strip() for c in args.constraints.split(","))
        res = denoise_iterative(data, constraint_names=names, init=args.init or "case1",
                                sigma2_0=args.sigma2, k=k,
                                max_iter=50 if args.max_iter is None else args.max_iter,
                                tol=1e-6 if args.tol is None else args.tol)
    else:  # ls keeps each sample's nearest root; ls+vote votes on them
        res = reconstruct(fit_manifold_ls(data), data,
                          k if args.mode == "ls+vote" else None)

    out.mkdir(parents=True, exist_ok=True)
    fit, values = res.fit, res.reconstructed
    eps_hat = data.values - values
    with open(out / "reconstruction.csv", "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(["x", "f_obs", "f_hat", "eps_hat"])
        columns = (data.nodes, data.values, values, eps_hat)
        writer.writerows(map(repr, row) for row in zip(*(c.tolist() for c in columns)))
    doc = {
        "b0": fit.b0, "b1": fit.b1, "c0": fit.c0, "c1": fit.c1,
        "method": fit.method, "residual": fit.residual, "condition": fit.condition,
        "rep": rep_to_dict(fit.as_rep(data.domain)),
    }
    with open(out / "fit.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    x = data.nodes
    xc = x - x.mean()
    denom = float(np.linalg.norm(xc) * np.linalg.norm(eps_hat - eps_hat.mean()))
    report = {
        "noise_mean": float(eps_hat.mean()),
        "noise_x_correlation": float((xc @ (eps_hat - eps_hat.mean())) / denom) if denom > 0 else 0.0,
        "converged": res.converged,
        "iterations": res.iterations,
        "vote_rounds": res.vote_rounds,
        "max_constraint_residual": res.max_constraint_residual,
    }
    if truth is not None:
        tsigns = np.where(truth > STEP_MID, 1, -1)
        report["mislabel_count"] = int(np.sum(res.index.signs_at(data.nodes) != tsigns))
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _write_manifest(out, "denoise", argv, None)
    print(f"mode={args.mode} b0={fit.b0:.4f} c0={fit.c0:.4f}")
    return 0


def cmd_replay(args, argv) -> int:
    with open(args.manifest) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{args.manifest}: {exc}") from exc
    stored = doc.get("argv") if isinstance(doc, dict) else None
    if not (isinstance(stored, list) and all(isinstance(a, str) for a in stored)):
        raise DataError(f"{args.manifest}: no 'argv' list of strings")
    if stored[:1] == ["replay"]:
        raise DataError(f"{args.manifest}: a stored replay is not replayed")
    # the new --out takes the place of the stored one and its value, if any
    i = stored.index("--out") if "--out" in stored else len(stored)
    stored[i:i + 2] = ["--out", args.out]
    return main(stored)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (``replay`` re-enters
    ``main``); ``parse_args`` leaves it unchanged."""
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
    # it is seen (_FIT_FLAGS lists what each method reads)
    p_fit.add_argument("--n", type=int, help="deg0: degree (default 0)")
    p_fit.add_argument("--n0", type=int, help="deg1, deg2-uniform: degree of c (default 0)")
    p_fit.add_argument("--n1", type=int, help="deg1, deg2-uniform: degree of b (default 0)")
    p_fit.add_argument("--n2", type=int, help="deg2-uniform: degree of a (default 0)")
    p_fit.add_argument("--max-terms", type=int, help="deg2-greedy, deg2-rrqr")
    p_fit.add_argument("--target-residual", type=float, help="deg2-greedy")
    p_fit.add_argument("--batch", type=int, choices=(1, 3, 5),
                       help="deg2-greedy (default 1)")
    p_fit.add_argument("--cap", type=int, help="deg2-greedy, deg2-rrqr (default 60)")
    p_fit.add_argument("--tol", type=float, help="deg2-rrqr (default 1e-12)")
    p_fit.add_argument("--seed", type=int,
                       help="deg2-greedy (default 0); deg2-rrqr accepts it unused")
    p_fit.add_argument("--order", type=int, help="--fn only (default 1000)")
    p_fit.add_argument("--trace", action="store_true", default=None,
                       help="deg2-greedy: also write trace.json")
    p_fit.add_argument("--out", default=".")

    p_eval = sub.add_parser("eval", help="evaluate a stored representation")
    p_eval.add_argument("--rep", required=True)
    p_eval.add_argument("--grid", type=int, default=101)
    p_eval.add_argument("--points", default=None)
    p_eval.add_argument("--branches", action="store_true",
                        help="also write both quadratic roots per point")
    p_eval.add_argument("--out", default=".")

    p_conv = sub.add_parser("convergence", help="error-vs-K table per method")
    p_conv.add_argument("--fn", choices=sorted(BUILTINS), required=True)
    p_conv.add_argument("--methods", default=",".join(METHODS))
    p_conv.add_argument("--kmin", type=int, default=2)
    p_conv.add_argument("--kmax", type=int, default=30)
    p_conv.add_argument("--order", type=int, default=1000)
    p_conv.add_argument("--cap", type=int, default=60)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--out", default=".")

    p_gen = sub.add_parser("generate", help="synthesize noisy step data")
    p_gen.add_argument("--preset", choices=sorted(NOISE_PRESETS), default=None)
    p_gen.add_argument("--target", choices=("function", "manifold"), default=None)
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
    p_den.add_argument("--init", choices=("case1", "case2", "case3"),
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
    "replay": cmd_replay,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args, argv)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3
    except (DataError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
