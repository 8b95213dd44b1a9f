"""Which operations of a pass failed, and output checks of the others, made
apart from the program with numpy alone.

Nothing here imports quadrep or compares with a stored copy of earlier
output: each check recomputes a result from its definition with numpy, or
tests a property the method must have.  An operation fails when its command
exits nonzero, when it reports a failure (a non-finite convergence cell, a
case-4 run that did not converge), or when its output shows the clamped-root
fault below; failed operations are counted and not checked.

The clamped-root fault: where the discriminant D = b^2 + 4ac is slightly
negative, the program clamps D to 0, and its cancellation-free formula then
returns b / 2a and -2c / b.  The second is not the double root b / 2a that a
zero discriminant gives, so a value or branch taken from it is wrong.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import traceback
from pathlib import Path

import numpy as np
from numpy.polynomial import legendre as npleg

import workloads

EPS = np.finfo(float).eps
# Two computations of one error agree when |a - b| <= rtol * max(|a|, |b|) +
# ERR_ATOL, with rtol = ERR_RTOL + KAPPA_FACTOR * EPS * kappa: a least-squares
# fit whose weighted design has condition number kappa is only determined to
# about EPS * kappa, and errors below ~1e-10 agree only in absolute terms.
ERR_RTOL = 1e-6
ERR_ATOL = 1e-10
KAPPA_FACTOR = 1e3
ROOT_RTOL = 1e-9  # residual of the quadratic at a root, relative to its terms

SWEEP_FUNCTIONS = {
    "heaviside-sine": lambda x: np.sin(x) * np.where(x < 0, -1.0, 1.0),
    "sin10pi": lambda x: np.sin(10.0 * np.pi * x),
    "sigmoid60": lambda x: 1.0 / (1.0 + np.exp(-60.0 * x)),
}
# (noise model, sigma) of each generate preset, and the step the data follows.
PRESETS = {"case1": ("function", 30.0), "case2": ("manifold", 5000.0),
           "case3": ("function", 150.0), "case4": ("function", 200.0)}
STEP_LOW, STEP_HIGH, STEP_AT = 25.0, 255.0, 140.0
CASE3_SIGMA2 = 22500.0


def legendre_table(t, n: int) -> np.ndarray:
    """Orthonormal Legendre L_0..L_n at t in [-1, 1], one row per point."""
    return npleg.legvander(t, n) * np.sqrt((2 * np.arange(n + 1) + 1) / 2.0)


def agree(a: float, b: float, kappa: float = 1.0) -> bool:
    rtol = ERR_RTOL + KAPPA_FACTOR * EPS * kappa
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + ERR_ATOL


def roots(a, b, c, *, formula: bool = False):
    """(minus, plus, discriminant, complex mask) of a r^2 - b r - c = 0, with
    plus = (b + sqrt(D)) / 2a.  A discriminant negative by less than a
    rounding band is taken as zero: both roots are then b / 2a, or with
    ``formula`` the program's pair b / 2a and -2c / b."""
    disc = b * b + 4.0 * a * c
    complex_ = disc < -1e-6 * (b * b + 4.0 * np.abs(a * c) + 1.0)
    with np.errstate(all="ignore"):
        q = b + np.where(b >= 0.0, 1.0, -1.0) * np.sqrt(np.maximum(disc, 0.0))
        r1 = q / (2.0 * a)
        r2 = np.where(q == 0.0, 0.0, -2.0 * c / np.where(q == 0.0, 1.0, q))
        plus = np.where(b >= 0.0, r1, r2)
        minus = np.where(b >= 0.0, r2, r1)
        if not formula:
            double = (disc < 0.0) & ~complex_
            plus = np.where(double, b / (2.0 * a), plus)
            minus = np.where(double, b / (2.0 * a), minus)
    return minus, plus, disc, complex_


def read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[0]} is not {header}")
    return rows[1:]


def floats(rows, col: int) -> np.ndarray:
    return np.array([float(r[col]) if r[col] != "" else np.nan for r in rows])


def read_table(out: Path) -> list[tuple[str, int, float]]:
    """Rows (method, K, error) of a convergence.csv."""
    with open(out / "convergence.csv") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    if lines[0].strip() != "method,K,error":
        raise ValueError("convergence.csv has no method,K,error header")
    return [(m, int(k), float(e)) for m, k, e in (line.strip().split(",") for line in lines[1:])]


class Checks:
    """Reviews the outputs of one workload's passes."""

    def __init__(self, cli_main, work: Path):
        self.cli_main = cli_main
        self.work = work

    def review(self, commands, codes) -> tuple[int, list[str]]:
        """(failed operations, messages of failed checks) of one pass."""
        self.failed = 0
        self.problems = []
        self.review_pass(commands, codes)
        return self.failed, self.problems

    def guard(self, label: str, fn, *args):
        """Run one check; its messages, or the error a malformed output raised,
        are failed checks."""
        try:
            self.problems.extend(f"{label}: {msg}" for msg in fn(*args))
        except Exception:
            self.problems.append(f"{label}: {traceback.format_exc(limit=2).strip()}")

    def review_pass(self, commands, codes):
        raise NotImplementedError


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def gauss_grid(fn: str):
    x, w = npleg.leggauss(workloads.SWEEP_ORDER)
    return x, w, SWEEP_FUNCTIONS[fn](x)


def relative_error(w, v, f) -> float:
    return float(np.sqrt(np.sum(w * (v - f) ** 2)) / np.sqrt(np.sum(w * f * f)))


def weighted_fit(cols, target, w):
    """numpy least squares in the weighted norm, and the design's condition number."""
    a = cols * np.sqrt(w)[:, None]
    coef, *_ = np.linalg.lstsq(a, target * np.sqrt(w), rcond=None)
    return coef, float(np.linalg.cond(a))


def degree2_errors(a, b, c, w, f, signs=None):
    """Errors of a degree-2 fit with zero-discriminant nodes at b / 2a, and
    with the program's formula there; the index is ``signs`` or the root
    nearest each sample.  None if a root is complex."""
    errors = []
    for formula in (False, True):
        minus, plus, _, complex_ = roots(a, b, c, formula=formula)
        if np.any(complex_):
            return None
        pick = signs > 0 if signs is not None else np.abs(f - plus) <= np.abs(f - minus)
        errors.append(relative_error(w, np.where(pick, plus, minus), f))
    return errors


def reference(fn: str, method: str, k: int):
    """A non-adaptive cell recomputed by numpy least squares: (errors, kappa),
    where errors holds one error, or two for degree 2 (see degree2_errors),
    or is None where a root is complex or a denominator vanishes."""
    x, w, f = gauss_grid(fn)
    if method == "deg0":
        table = legendre_table(x, k - 1)
        coef, kappa = weighted_fit(table, f, w)
        return [relative_error(w, table @ coef, f)], kappa
    if method == "deg1":
        n = (k - 1) // 2
        table = legendre_table(x, n)
        coef, kappa = weighted_fit(np.hstack([table, f[:, None] * table[:, 1:]]), f, w)
        den = 1.0 - table[:, 1:] @ coef[n + 1:]
        if np.any(np.abs(den) <= 1e-13):
            return None, kappa
        return [relative_error(w, (table @ coef[: n + 1]) / den, f)], kappa
    n = (k - 2) // 3
    table = legendre_table(x, n)
    coef, kappa = weighted_fit(
        np.hstack([table, f[:, None] * table, (f * f)[:, None] * table[:, 1:]]), f * f, w)
    c = table @ coef[: n + 1]
    b = table @ coef[n + 1: 2 * n + 2]
    a = 1.0 - table[:, 1:] @ coef[2 * n + 2:]
    return degree2_errors(a, b, c, w, f), kappa


def classify(cell: float, errors, kappa: float):
    """"ok", "clamp" (the cell is the clamped-root fault's error, not the true
    one) or "wrong"."""
    if errors is None:
        return "wrong"
    if agree(cell, errors[0], kappa):
        return "ok"
    if len(errors) > 1 and agree(cell, errors[1], kappa):
        return "clamp"
    return "wrong"


def refit_ks(kmax: int) -> list[int]:
    """Fixed K values at which greedy and rrqr cells are refitted."""
    return [workloads.SWEEP_KMIN + 1, (workloads.SWEEP_KMIN + kmax) // 2, kmax]


class SweepChecks(Checks):
    """Non-adaptive cells against numpy least squares and the quadratic
    formula; greedy and rrqr cells at refit_ks refitted through `quadrep fit`
    and checked for least-squares orthogonality and for the error they report.
    Outcomes are cached: every pass writes the same tables."""

    def __init__(self, cli_main, work):
        super().__init__(cli_main, work)
        self.outcomes = {}  # (fn, method, K, cell) -> (status, message)

    def review_pass(self, commands, codes):
        for cmd, code in zip(commands, codes):
            fn, methods, kmax = cmd.job
            if code != 0:
                self.failed += workloads.sweep_cells(methods, kmax)
                continue
            self.guard(fn, self.check_table, fn, methods, kmax, cmd.out)

    def check_table(self, fn, methods, kmax, out):
        rows = read_table(out)
        expected = [(m, k) for m in methods
                    for k in workloads.achievable_k(m, workloads.SWEEP_KMIN, kmax)]
        if [(m, k) for m, k, _ in rows] != expected:
            yield "cells differ from the requested (method, K) list"
            return
        for m, k, cell in rows:
            if not math.isfinite(cell):
                self.failed += 1
                continue
            if m in ("deg0", "deg1", "deg2-uniform") or k in refit_ks(kmax):
                key = (fn, m, k, cell)
                if key not in self.outcomes:
                    self.outcomes[key] = self.outcome(fn, m, k, cell)
                status, message = self.outcomes[key]
                self.failed += status == "clamp"
                if status == "wrong":
                    yield f"{m} K={k}: {message}"

    def outcome(self, fn, method, k, cell):
        if method in ("deg2-greedy", "deg2-rrqr"):
            return self.refit(fn, method, k, cell)
        errors, kappa = reference(fn, method, k)
        return classify(cell, errors, kappa), f"error {cell!r}, numpy gives {errors}"

    def refit(self, fn, method, k, cell):
        out = self.work / f"{fn}-{method}-{k}"
        argv = ["fit", "--fn", fn, "--method", method, "--max-terms", str(k),
                "--cap", str(workloads.SWEEP_CAP), "--seed", str(workloads.SWEEP_SEED),
                "--order", str(workloads.SWEEP_ORDER), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli_main(argv)
        if code != 0:
            return "wrong", f"refit exited {code}"
        with open(out / "rep.json") as fh:
            rep = json.load(fh)
        return check_selected_fit(rep, *gauss_grid(fn), k, cell)


def check_selected_fit(rep, x, w, f, k, cell):
    """A degree-2 fit over selected dictionary columns: k columns, a weighted
    residual orthogonal to each of them, and the table's error."""
    a_c, b_c, c_c = (np.asarray(rep[key], dtype=float) for key in ("a", "b", "c"))
    table = legendre_table(x, max(a_c.size, b_c.size, c_c.size) - 1)
    a = table[:, : a_c.size] @ a_c
    b = table[:, : b_c.size] @ b_c
    c = table[:, : c_c.size] @ c_c
    columns = np.column_stack(
        [table[:, j] for j in np.nonzero(c_c)[0]]
        + [f * table[:, j] for j in np.nonzero(b_c)[0]]
        + [f * f * table[:, j] for j in np.nonzero(a_c)[0] if j >= 1])
    if columns.shape[1] != k:
        return "wrong", f"{columns.shape[1]} selected columns, expected {k}"
    residual = a * f * f - b * f - c  # the target f^2 L_0 minus the fitted columns
    target_norm = np.sqrt(np.sum(w * (f * f * table[:, 0]) ** 2))
    col_norms = np.sqrt(np.sum(w[:, None] * columns ** 2, axis=0))
    inner = np.abs((w * residual) @ columns)
    if np.any(inner > 1e-8 * target_norm * col_norms):
        return "wrong", f"weighted residual not orthogonal to the columns ({inner.max():.3e})"
    errors = degree2_errors(a, b, c, w, f, index_signs(rep["index"], x))
    kappa = float(np.linalg.cond(columns * np.sqrt(w)[:, None]))
    return classify(cell, errors, kappa), f"table error {cell!r}, rep.json gives {errors}"


def index_signs(index: dict, x) -> np.ndarray:
    flips = np.searchsorted(np.asarray(index["breakpoints"], dtype=float), x, side="right")
    return np.where(flips % 2 == 0, index["first_sign"], -index["first_sign"])


# --------------------------------------------------------------------------
# fit-eval
# --------------------------------------------------------------------------


def coefficient_count(rep: dict, method: str) -> int:
    """Fitted coefficients of a representation (K)."""
    if method == "deg0":
        return len(rep["c"])
    if method == "deg1":
        return len(rep["c"]) + len(rep["b"]) - 1
    if method == "deg2-uniform" and "degeneracy" not in rep:
        return len(rep["a"]) - 1 + len(rep["b"]) + len(rep["c"])
    return (int(np.count_nonzero(rep["b"])) + int(np.count_nonzero(rep["c"]))
            + int(np.count_nonzero(rep["a"][1:])))


def poly(rep: dict, key: str, t):
    """Values of one coefficient polynomial at t, and the size of its terms
    there (the scale of its rounding error)."""
    coeffs = np.asarray(rep[key], dtype=float)
    table = legendre_table(t, coeffs.size - 1)
    return table @ coeffs, np.abs(table) @ np.abs(coeffs)


def solves(a, b, c, scales, v) -> np.ndarray:
    """v solves a v^2 - b v - c = 0 to rounding."""
    sa, sb, sc = scales
    terms = np.abs(a) * v * v + np.abs(b * v) + np.abs(c)
    rounding = 1e-12 * (sa * v * v + sb * np.abs(v) + sc)
    return np.abs(a * v * v - b * v - c) <= ROOT_RTOL * terms + rounding


class FitEvalChecks(Checks):
    """eval.csv and branches.csv against numpy evaluations of rep.json."""

    def review_pass(self, commands, codes):
        fit_codes = {}
        for cmd, code in zip(commands, codes):
            self.failed += code != 0
            if cmd.kind == "fit":
                fit_codes[cmd.job] = code
            elif code == 0 and fit_codes[cmd.job] == 0:
                fn, method = cmd.job
                self.guard(f"{fn} {method}", self.check_fit_eval, method, cmd.out.parent,
                           cmd.out)

    def check_fit_eval(self, method, fit_out, eval_out):
        with open(fit_out / "rep.json") as fh:
            rep = json.load(fh)
        count = coefficient_count(rep, method)
        degeneracy = rep.get("degeneracy")
        if degeneracy is not None and (count != degeneracy["numerical_rank"] or count
                                       + len(degeneracy["dropped_tags"]) != workloads.FIT_K):
            yield f"degeneracy report {degeneracy} does not match {count} coefficients"
        elif degeneracy is None and count != workloads.FIT_K:
            yield f"{count} coefficients, expected {workloads.FIT_K}"
        lo, hi = rep["domain"]
        rows = read_csv(eval_out / "eval.csv", ["x", "value"])
        x = floats(rows, 0)
        if not np.array_equal(x, np.linspace(lo, hi, workloads.EVAL_POINTS)):
            yield "eval.csv points are not the uniform grid"
            return
        v = floats(rows, 1)
        empty = np.isnan(v)
        t = np.clip((2.0 * x - (lo + hi)) / (hi - lo), -1.0, 1.0)
        if rep["type"] == "degree0":
            ref, scale = poly(rep, "c", t)
            if np.any(empty) or np.any(np.abs(v - ref) > 1e-12 * scale):
                yield "degree-0 values differ from legval of rep.json"
        elif rep["type"] == "degree1":
            (num, num_scale), (den, den_scale) = poly(rep, "c", t), poly(rep, "b", t)
            pole = np.abs(den) <= 1e-9 * den_scale
            if np.any(empty & ~pole):
                yield "degree-1 value missing away from a pole"
            with np.errstate(all="ignore"):
                ref = num / den
                tol = 1e-12 * (num_scale + np.abs(ref) * den_scale) / np.abs(den)
            if not np.all(empty | (np.abs(v - ref) <= tol + 1e-12 * np.abs(ref))):
                yield "degree-1 values differ from legval(c) / legval(b) of rep.json"
        else:
            yield from self.check_degree2_eval(rep, t, v, empty, eval_out)

    def check_degree2_eval(self, rep, t, v, empty, eval_out):
        (a, sa), (b, sb), (c, sc) = (poly(rep, key, t) for key in ("a", "b", "c"))
        rows = read_csv(eval_out / "branches.csv", ["x", "root_lo", "root_hi"])
        lo_r, hi_r = floats(rows, 1), floats(rows, 2)
        if len(rows) != t.size or not np.array_equal(np.isnan(lo_r), empty):
            yield "branches.csv rows do not match eval.csv"
            return
        disc = b * b + 4.0 * a * c
        if np.any(empty & (disc >= 0.0)):
            yield "a value is missing where the discriminant is not negative"
        real = ~empty
        clamped = real & (disc < 0.0)
        vertex = b / (2.0 * a)
        reach = np.sqrt(np.abs(disc)) / (2.0 * np.abs(a)) + 1e-9 * (np.abs(vertex) + 1e-12)
        if np.any(clamped & ((np.abs(v - vertex) > reach) | (np.abs(lo_r - vertex) > reach)
                             | (np.abs(hi_r - vertex) > reach))):
            self.failed += 1  # the clamped-root fault
            return
        rooted = real & ~clamped
        scales = (sa[rooted], sb[rooted], sc[rooted])
        ar, br, cr = a[rooted], b[rooted], c[rooted]
        if not np.all(solves(ar, br, cr, scales, v[rooted])):
            yield "a degree-2 value does not solve a v^2 - b v - c = 0"
        if not (np.all(solves(ar, br, cr, scales, lo_r[rooted]))
                and np.all(solves(ar, br, cr, scales, hi_r[rooted]))):
            yield "a branch root does not solve the quadratic"
        if np.any(lo_r[real] > hi_r[real]):
            yield "root_lo > root_hi"
        tol = 1e-12 * (np.abs(v[real]) + 1.0)
        if np.any((np.abs(v[real] - lo_r[real]) > tol) & (np.abs(v[real] - hi_r[real]) > tol)):
            yield "a value is neither of its two roots"


# --------------------------------------------------------------------------
# denoise
# --------------------------------------------------------------------------


def unit(x):
    lo, hi = x[0], x[-1]
    return (2.0 * x - (lo + hi)) / (hi - lo), 0.5 * (lo + hi), 0.5 * (hi - lo)


def to_unit(fit: dict, center: float, half: float) -> np.ndarray:
    """(b0, b1, c0, c1) of B = b0 + b1 x, C = c0 + c1 x in the coordinate t."""
    return np.array([fit["b0"] + fit["b1"] * center, fit["b1"] * half,
                     fit["c0"] + fit["c1"] * center, fit["c1"] * half])


def ls_fit(t, f) -> np.ndarray:
    """Least squares of f^2 on [f, t f, 1, t]."""
    coef, *_ = np.linalg.lstsq(np.column_stack([f, t * f, np.ones_like(t), t]), f * f,
                               rcond=None)
    return coef


def debiased_fit(t, f, sigma2: float) -> np.ndarray:
    """Orthogonality of the manifold residual to {1, t, f, t f}, with the noise
    bias of the squared and cubed observations removed (E f~^2 = f^2 + s2,
    E f~^3 = f^3 + 3 s2 f)."""
    one = np.ones_like(t)
    f2 = f * f - sigma2
    f3 = f ** 3 - 3.0 * sigma2 * f
    rows, rhs = [], []
    for g in (one, t):  # <r, g>: r = f^2 - (b0 + b1 t) f - (c0 + c1 t)
        rows.append([np.sum(g * f), np.sum(g * t * f), np.sum(g), np.sum(g * t)])
        rhs.append(np.sum(g * f2))
    for g in (one, t):  # <r, g f>
        rows.append([np.sum(g * f2), np.sum(g * t * f2), np.sum(g * f), np.sum(g * t * f)])
        rhs.append(np.sum(g * f3))
    return np.linalg.solve(np.array(rows), np.array(rhs))


def coefficients_agree(mine: np.ndarray, theirs: np.ndarray) -> bool:
    """b and c pairs agree relative to the size of each pair."""
    return all(np.all(np.abs(mine[i:i + 2] - theirs[i:i + 2])
                      <= 1e-7 * np.max(np.abs(mine[i:i + 2])) + 1e-9) for i in (0, 2))


class DenoiseChecks(Checks):
    """Generated data against its noise model; reconstructions against numpy
    fits, the manifold, and the step truth."""

    def review_pass(self, commands, codes):
        for cmd, code in zip(commands, codes):
            preset, seed = cmd.job
            if code != 0 or (cmd.kind == "denoise" and preset == "case4"
                             and not self.converged(cmd.out)):
                self.failed += 1
            elif cmd.kind == "generate":
                self.guard(f"generate {preset} seed {seed}", self.check_data, preset, seed,
                           cmd.out)
            else:
                self.guard(f"denoise {preset} seed {seed}", self.check_denoised, preset,
                           cmd.out.parent / "data", cmd.out)

    @staticmethod
    def converged(out: Path) -> bool:
        with open(out / "report.json") as fh:
            return json.load(fh)["converged"] is True

    def check_data(self, preset, seed, out):
        rows = read_csv(out / "data.csv", ["x", "f"])
        x, f = floats(rows, 0), floats(rows, 1)
        if not np.array_equal(x, np.arange(401.0)):
            yield "positions are not 0..400"
            return
        with open(out / "data.meta.json") as fh:
            meta = json.load(fh)
        model, sigma = PRESETS[preset]
        if (meta["noise_model"], meta["sigma"], meta["seed"]) != (model, sigma, seed):
            yield f"metadata {meta} does not match the preset"
        truth = np.where(x <= STEP_AT, STEP_LOW, STEP_HIGH)
        if model == "function":
            eps = f - truth
        else:  # (f - mid)^2 = half^2 + eps on the truth's branch, clamped at the vertex
            mid, half = 0.5 * (STEP_LOW + STEP_HIGH), 0.5 * (STEP_HIGH - STEP_LOW)
            if np.any((truth > mid) & (f < mid)) or np.any((truth < mid) & (f > mid)):
                yield "a manifold-noise sample left its branch"
            clamped = f == mid
            if int(np.sum(clamped)) != meta["clamped_points"]:
                yield "clamped_points does not match the samples at the vertex"
            eps = ((f - mid) ** 2 - half * half)[~clamped]
        # loose bounds: about six standard errors at n = 401
        if abs(eps.mean()) > 6.0 * sigma / math.sqrt(eps.size) or \
                not 0.7 <= eps.std() / sigma <= 1.3:
            yield f"noise mean {eps.mean():.4g} / std {eps.std():.4g} do not fit sigma {sigma}"

    def check_denoised(self, preset, data_out, out):
        data = read_csv(data_out / "data.csv", ["x", "f"])
        x, f_obs = floats(data, 0), floats(data, 1)
        rows = read_csv(out / "reconstruction.csv", ["x", "f_obs", "f_hat", "eps_hat"])
        if not (np.array_equal(floats(rows, 0), x) and np.array_equal(floats(rows, 1), f_obs)):
            yield "reconstruction x / f_obs differ from data.csv"
            return
        f_hat, eps_hat = floats(rows, 2), floats(rows, 3)
        if not np.array_equal(eps_hat, f_obs - f_hat):
            yield "eps_hat != f_obs - f_hat"
        with open(out / "fit.json") as fh:
            fit = json.load(fh)
        with open(out / "report.json") as fh:
            report = json.load(fh)
        t, center, half = unit(x)
        theirs = to_unit(fit, center, half)
        mode = workloads.DENOISE_MODES[preset][1]
        if mode == "ls" and not coefficients_agree(ls_fit(t, f_obs), theirs):
            yield "ls fit differs from numpy lstsq of f^2 on [f, x f, 1, x]"
        if mode == "debias+vote" and not coefficients_agree(
                debiased_fit(t, f_obs, CASE3_SIGMA2), theirs):
            yield "debias+vote fit differs from numpy solve of the de-biased moments"
        big_b = fit["b0"] + fit["b1"] * x
        big_c = fit["c0"] + fit["c1"] * x
        one = np.ones_like(x)
        scales = (one, abs(fit["b0"]) + abs(fit["b1"]) * np.abs(x),
                  abs(fit["c0"]) + abs(fit["c1"]) * np.abs(x))
        at_vertex = np.abs(f_hat - 0.5 * big_b) <= 1e-9 * (np.abs(big_b) + 1.0)
        if not np.all(solves(one, big_b, big_c, scales, f_hat) | at_vertex):
            yield "an f_hat is neither on the fitted manifold nor at its vertex"
        minus, plus, _, _ = roots(one, big_b, big_c)
        ambiguous = at_vertex | (np.abs(plus - minus) <= 1e-9 * (np.abs(plus) + 1.0))
        signs = np.where(np.abs(f_hat - plus) <= np.abs(f_hat - minus), 1, -1)
        truth = np.where(x > STEP_AT, 1, -1)
        sure = int(np.sum((signs != truth) & ~ambiguous))
        if not sure <= report["mislabel_count"] <= sure + int(np.sum(ambiguous)):
            yield (f"mislabel_count {report['mislabel_count']}, the step truth gives {sure}"
                   f" (+ up to {int(np.sum(ambiguous))} points at the vertex)")


CHECKERS = {"sweep": SweepChecks, "fit-eval": FitEvalChecks, "denoise": DenoiseChecks}
