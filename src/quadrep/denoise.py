"""Denoising of two-level step data on a quadratic manifold.

Four regimes: direct least squares on the noisy samples (small or
manifold-attached noise), known-variance moment de-biasing, k-NN index
voting, and an iterative scheme that projects the estimated noise onto the
subspace allowed by a set of moment constraints.

Every function here takes the samples as the unit-weight ``SampleGrid`` of
``dictionary.tabulated_grid``; x-coordinates are rescaled to [-1, 1] by its
``to_unit`` for conditioning, and the four manifold coefficients are
reported in raw coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .dictionary import DataError, SampleGrid, check_philox_key, tabulated_grid
from .functions import STEP_HIGH, STEP_JUMP_AT, STEP_LOW, STEP_MID
from .linalg import RankDeficiencyError, pivoted_qr, weighted_lsq
from .orthopoly import legendre_row, to_unit
from .representation import (
    BASIS_MONOMIAL,
    IndexFunction,
    PolyCoeffs,
    Rep,
    branches,
)

__all__ = [
    "MomentSet",
    "ManifoldFit4",
    "NoiseConstraintSet",
    "MomentSystemError",
    "SingularConstraintError",
    "NUMERICAL_ERRORS",
    "normal_stream",
    "step_ground_truth",
    "generate_noisy",
    "fit_manifold_ls",
    "compute_noisy_moments",
    "debias_moments",
    "solve_moment_system",
    "knn_vote_index",
    "Reconstruction",
    "reconstruct",
    "denoise_case3",
    "noise_constraints",
    "project_noise",
    "constraint_residuals",
    "denoise_iterative",
    "ALL_CONSTRAINTS",
    "INIT_MODES",
    "NOISE_MODELS",
    "NOISE_PRESETS",
]

ALL_CONSTRAINTS = ("1", "x", "x2", "f", "xf", "x2f", "f2", "xf2")
INIT_MODES = ("case1", "case2", "case3")  # the initial fits of denoise_iterative
NOISE_MODELS = ("function", "manifold")  # see generate_noisy
_VOTE_K = 10  # neighbors per k-NN vote
_VOTE_ROUNDS = 100  # k-NN voting stops after this many rounds
_MOMENT_METHOD = "debias"  # label of every moment-system fit

# presets: (noise model, sigma)
NOISE_PRESETS = {
    "case1": ("function", 30.0),
    "case2": ("manifold", 5000.0),
    "case3": ("function", 150.0),
    "case4": ("function", 200.0),
}


class MomentSystemError(ArithmeticError):
    """The 4x4 moment system is singular or too ill-conditioned to trust."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


class SingularConstraintError(ValueError):
    """The noise-constraint system is inconsistent: some constraints stay unmet."""

    def __init__(self, message: str, dependent: tuple[str, ...]):
        super().__init__(message)
        self.dependent = dependent


# A numerical failure, as opposed to bad input.  ArithmeticError covers the
# representation errors (complex roots, poles, no root) and MomentSystemError;
# LinAlgError covers RankDeficiencyError.
NUMERICAL_ERRORS = (ArithmeticError, np.linalg.LinAlgError, SingularConstraintError)


def normal_stream(seed: int, n: int) -> np.ndarray:
    """Standard normal deviates from a 64-bit counter-based stream (Philox)
    plus Box-Muller, so sequences are reproducible across platforms."""
    if n < 0:
        raise ValueError("n must be >= 0")
    check_philox_key(seed=seed)
    if n == 0:
        return np.empty(0)
    pairs = (n + 1) // 2
    bits = np.random.Philox(key=seed).random_raw(2 * pairs)
    u = (bits >> np.uint64(11)) * (2.0 ** -53)  # uniforms in [0, 1)
    u1, u2 = u[0::2], u[1::2]
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0, 1]: log is finite
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:n]


def step_ground_truth(positions) -> np.ndarray:
    """The two-level reference signal: 25 up to x=140 inclusive, 255 after."""
    positions = np.asarray(positions, dtype=float)
    return np.where(positions <= STEP_JUMP_AT, STEP_LOW, STEP_HIGH)


def generate_noisy(positions, truth, model: str, sigma: float,
                   seed: int) -> tuple[SampleGrid, dict]:
    """Synthesize noisy observations of ``truth`` at ``positions``: the
    tabulated grid of the observations and the noise metadata.

    ``function`` noise adds sigma * z pointwise.  ``manifold`` noise perturbs
    the step's quadratic relation (f-25)(f-255) = eps and re-solves for the
    observation on the ground-truth branch; points whose perturbed
    discriminant goes negative are clamped to the vertex and counted.
    """
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be finite and >= 0")
    if model not in NOISE_MODELS:
        raise ValueError(f"unknown noise model {model!r}")
    positions = np.asarray(positions, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if truth.shape != positions.shape:
        raise ValueError("truth and positions must have matching shapes")
    z = normal_stream(seed, positions.size)
    eps = sigma * z
    meta = {"noise_model": model, "sigma": float(sigma), "seed": int(seed)}
    if model == "function":
        observed = truth + eps
    else:
        mid = STEP_MID
        half = 0.5 * (STEP_HIGH - STEP_LOW)
        disc = half * half + eps
        clamped = disc < 0.0
        root_offset = np.sqrt(np.maximum(disc, 0.0))
        on_high = truth > mid
        observed = np.where(on_high, mid + root_offset, mid - root_offset)
        meta["clamped_points"] = int(np.sum(clamped))
    return tabulated_grid(positions, observed), meta


# --------------------------------------------------------------------------
# four-coefficient manifold fits
# --------------------------------------------------------------------------

_LS_COLUMN_NAMES = ("f", "x*f", "1", "x")


@dataclass(frozen=True)
class ManifoldFit4:
    """Coefficients of f^2 - (b0 + b1 x) f - (c0 + c1 x) = 0 in raw x."""

    b0: float
    b1: float
    c0: float
    c1: float
    method: str
    residual: float = float("nan")
    condition: float = float("nan")

    def as_rep(self, domain: tuple[float, float]) -> Rep:
        return Rep(
            a=PolyCoeffs(BASIS_MONOMIAL, [1.0], domain),
            b=PolyCoeffs(BASIS_MONOMIAL, [self.b0, self.b1], domain),
            c=PolyCoeffs(BASIS_MONOMIAL, [self.c0, self.c1], domain),
            fit_residual=self.residual,
            provenance={"method": self.method},
        )


def _unit_to_raw(b0, b1, c0, c1, lo, hi):
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return (b0 - b1 * center / half, b1 / half,
            c0 - c1 * center / half, c1 / half)


def fit_manifold_ls(data: SampleGrid) -> ManifoldFit4:
    """Plain least squares of f~^2 against {f~, x f~, 1, x} (Cases 1 and 2)."""
    if data.size < 4:
        raise ValueError("need at least 4 samples")
    design = _ls_design(data.unit_nodes, data.values)
    fit = _ls_solve(design, data.values, data.weights, data.domain)
    return replace(fit, condition=float(np.linalg.cond(design)))


def _ls_design(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The columns {f, t f, 1, t} of ``fit_manifold_ls`` at unit positions ``t``."""
    return np.column_stack([f, t * f, np.ones_like(t), t])


def _ls_solve(design, f, weights, domain) -> ManifoldFit4:
    """``fit_manifold_ls`` on its design, without the condition number (NaN)."""
    try:
        beta, resid = weighted_lsq(design, f * f, weights)
    except RankDeficiencyError as exc:
        worst = _LS_COLUMN_NAMES[exc.factorization.perm[-1]]
        raise RankDeficiencyError(
            f"degenerate design (column {worst!r} dependent); is f~ constant?",
            exc.numerical_rank, exc.factorization,
        ) from exc
    lo, hi = domain
    b0, b1, c0, c1 = _unit_to_raw(beta[0], beta[1], beta[2], beta[3], lo, hi)
    return ManifoldFit4(b0=b0, b1=b1, c0=c0, c1=c1, method="ls", residual=resid)


# --------------------------------------------------------------------------
# moments and de-biasing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentSet:
    """Discrete inner-product moments (unit weights) in the rescaled coordinate.

    ``center`` and ``halfwidth`` record the affine map raw_x = center +
    halfwidth * x used when the moments were computed, so solutions can be
    reported in raw coordinates.
    """

    s0: float
    sx: float
    sx2: float
    m_f: float
    m_xf: float
    m_x2f: float
    m_f2: float
    m_xf2: float
    m_x2f2: float
    m_f3: float
    m_xf3: float
    center: float = 0.0
    halfwidth: float = 1.0

    def __post_init__(self):
        if self.s0 <= 0:
            raise ValueError("S0 must be positive")
        if self.sx2 < self.sx * self.sx / self.s0 - 1e-9 * max(self.sx2, 1.0):
            raise ValueError("moment set violates Cauchy-Schwarz")


def compute_noisy_moments(data: SampleGrid) -> MomentSet:
    """All eleven moments of the observed data (sums over samples)."""
    t = data.unit_nodes
    f = data.values
    lo, hi = data.domain
    return MomentSet(
        s0=float(data.size),
        sx=float(np.sum(t)),
        sx2=float(np.sum(t * t)),
        m_f=float(np.sum(f)),
        m_xf=float(np.sum(t * f)),
        m_x2f=float(np.sum(t * t * f)),
        m_f2=float(np.sum(f * f)),
        m_xf2=float(np.sum(t * f * f)),
        m_x2f2=float(np.sum(t * t * f * f)),
        m_f3=float(np.sum(f ** 3)),
        m_xf3=float(np.sum(t * f ** 3)),
        center=0.5 * (lo + hi),
        halfwidth=0.5 * (hi - lo),
    )


def debias_moments(noisy: MomentSet, sigma2: float) -> MomentSet:
    """Remove the known-variance noise bias from the f^2 and f^3 moments.

    First-order moments are already unbiased; the quadratic ones lose
    sigma^2 * S-terms and the cubic ones 3 sigma^2 times the first-order
    moments.
    """
    if not 0 <= sigma2 < np.inf:
        raise ValueError("sigma2 must be finite and >= 0")
    return replace(
        noisy,
        m_f2=noisy.m_f2 - sigma2 * noisy.s0,
        m_xf2=noisy.m_xf2 - sigma2 * noisy.sx,
        m_x2f2=noisy.m_x2f2 - sigma2 * noisy.sx2,
        m_f3=noisy.m_f3 - 3.0 * sigma2 * noisy.m_f,
        m_xf3=noisy.m_xf3 - 3.0 * sigma2 * noisy.m_xf,
    )


def solve_moment_system(m: MomentSet) -> ManifoldFit4:
    """Solve the 4x4 orthogonality system for (b0, b1, c0, c1).

    Rows enforce <r,1> = <r,x> = <r,f> = <r,xf> = 0 for the manifold residual
    r = f^2 - (b0+b1x) f - (c0+c1x).
    """
    a = np.array([
        [m.m_f, m.m_xf, m.s0, m.sx],
        [m.m_xf, m.m_x2f, m.sx, m.sx2],
        [m.m_f2, m.m_xf2, m.m_f, m.m_xf],
        [m.m_xf2, m.m_x2f2, m.m_xf, m.m_x2f],
    ])
    rhs = np.array([m.m_f2, m.m_xf2, m.m_f3, m.m_xf3])
    cond = float(np.linalg.cond(a))
    if not np.isfinite(cond) or cond > 1e10:
        raise MomentSystemError(f"moment system condition {cond:.3e}", cond)
    sol = np.linalg.solve(a, rhs)
    lo = m.center - m.halfwidth
    hi = m.center + m.halfwidth
    b0, b1, c0, c1 = _unit_to_raw(sol[0], sol[1], sol[2], sol[3], lo, hi)
    return ManifoldFit4(b0=b0, b1=b1, c0=c0, c1=c1, method=_MOMENT_METHOD, condition=cond)


# --------------------------------------------------------------------------
# index voting, reconstruction and the Case-3 pipeline
# --------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _knn_windows(raw: bytes, k: int) -> np.ndarray:
    """Start index of each point's (k+1)-wide nearest-neighbor window, for
    the float64 positions whose bytes are ``raw``.

    Candidate starts for point i are i-k .. i, clipped to the valid range
    0 .. n-k-1; the window with the smallest span wins, the lowest start on
    ties (``argmin`` takes the first minimum).  Cached on the bytes, so the
    votes of one ``denoise_iterative`` run, which never moves the positions,
    share one read-only result.
    """
    positions = np.frombuffer(raw)
    n = positions.size
    if not 1 <= k < n:
        raise ValueError(f"k must be >= 1 and < the sample count {n}, got {k}")
    lo = np.clip(np.arange(n)[:, None] + np.arange(-k, 1), 0, n - k - 1)
    x = positions[:, None]
    span = np.maximum(x - positions[lo], positions[lo + k] - x)
    starts = lo[np.arange(n), np.argmin(span, axis=1)]
    starts.flags.writeable = False
    return starts


def knn_vote_index(signs, positions, k: int = _VOTE_K):
    """Iterated majority vote of each point with its k nearest neighbors.

    Rounds are synchronous; voting stops when a round changes nothing, or
    after ``_VOTE_ROUNDS`` rounds.
    Returns (IndexFunction, rounds used, converged flag).  An exact tie
    (possible only for odd k, even electorate) keeps the current sign.
    """
    signs = np.asarray(signs, dtype=int).copy()
    positions = np.asarray(positions, dtype=float)
    if positions.shape != signs.shape:
        raise ValueError("signs and positions must match")
    starts = _knn_windows(positions.tobytes(), k)
    ends = starts + (k + 1)
    csum = np.zeros(signs.size + 1, dtype=signs.dtype)  # 0, then the running sums
    rounds = 0
    converged = False
    for rounds in range(1, _VOTE_ROUNDS + 1):
        np.cumsum(signs, out=csum[1:])
        totals = csum[ends] - csum[starts]
        new = np.where(totals == 0, signs, np.sign(totals))
        if (new == signs).all():
            converged = True
            break
        signs = new
    return IndexFunction.from_dense(positions, signs), rounds, converged


@dataclass(frozen=True)
class Reconstruction:
    """A denoising result: the manifold fit, the index that picks a root at
    each sample, and the picked values, ``clamped_points`` of them at the
    vertex.  ``vote_rounds`` is None when no vote ran; only
    ``denoise_iterative`` sets the iteration fields."""

    fit: ManifoldFit4
    index: IndexFunction
    reconstructed: np.ndarray
    clamped_points: int
    vote_rounds: int | None
    converged: bool | None = None
    iterations: int | None = None
    max_constraint_residual: float | None = None
    coefficient_trace: tuple = ()


def reconstruct(fit: ManifoldFit4, data: SampleGrid, k: int | None = _VOTE_K) -> Reconstruction:
    """Each sample's nearest root on ``fit``'s manifold, their k-NN vote (none
    when ``k`` is None), and the roots the index selects, all read from one
    branch table.  A sample with complex roots gets the vertex b/(2a), the
    clamp-to-vertex convention of manifold-noise generation."""
    return _reconstruct(fit, data.domain, data.nodes, data.values, k)[0]


def _reconstruct(fit, domain, nodes, values, k):
    """``reconstruct`` on the samples ``values`` at ``nodes`` over ``domain``,
    and the signs its index gives at the nodes."""
    table = branches(fit.as_rep(domain), nodes)
    signs = table.nearest_signs(values)
    if k is None:
        index, rounds = IndexFunction.from_dense(nodes, signs), None
    else:
        index, rounds, _ = knn_vote_index(signs, nodes, k=k)
    picked = index.signs_at(nodes)
    out = np.where(table.complex, table.vertex, table.select(picked))
    return Reconstruction(fit=fit, index=index, reconstructed=out,
                          clamped_points=int(np.sum(table.complex)), vote_rounds=rounds), picked


def denoise_case3(data: SampleGrid, sigma2: float, k: int = _VOTE_K) -> Reconstruction:
    """Known-variance pipeline: moments -> de-bias -> 4x4 solve -> vote -> rebuild."""
    if not 0 < sigma2 < np.inf:
        raise ValueError("case 3 needs a known finite sigma2 > 0")
    fit = solve_moment_system(debias_moments(compute_noisy_moments(data), sigma2))
    return reconstruct(fit, data, k)


# --------------------------------------------------------------------------
# constraint projection and the Case-4 iteration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseConstraintSet:
    """Sampled constraint functionals g_j with <g_j, eps> = 0 expected.

    Constraint sets built from values lying exactly on a quadratic manifold
    are structurally dependent (f^2 is then a combination of {1, x, f, xf}),
    which is legal as long as the dependent constraints stay consistent.
    """

    names: tuple[str, ...]
    vectors: np.ndarray
    unit_positions: np.ndarray

    @cached_property
    def norms(self) -> np.ndarray:
        """||g_j|| of every constraint vector, taken on first use."""
        return np.linalg.norm(self.vectors, axis=0)


def noise_constraints(unit_positions, f_values,
                      names: tuple[str, ...] = ALL_CONSTRAINTS) -> NoiseConstraintSet:
    """Build constraint vectors from {1, x, x^2, f, xf, x^2 f, f^2, xf^2}, each named once."""
    t = np.asarray(unit_positions, dtype=float)
    f = np.asarray(f_values, dtype=float)
    table = {
        "1": np.ones_like(t),
        "x": t,
        "x2": t * t,
        "f": f,
        "xf": t * f,
        "x2f": t * t * f,
        "f2": f * f,
        "xf2": t * f * f,
    }
    unknown = [n for n in names if n not in table]
    if unknown:
        raise ValueError(f"unknown constraint names {unknown}")
    # each name takes one projection mode, so a repeat would take one more
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ValueError(f"constraint names listed more than once {repeated}")
    vectors = np.column_stack([table[n] for n in names])
    return NoiseConstraintSet(names=tuple(names), vectors=vectors, unit_positions=t)


def project_noise(residual, constraints: NoiseConstraintSet):
    """Split the estimated noise into a smooth part, one Legendre mode per
    constraint, fixed by the constraints and a remainder satisfying them.

    Solves <g_j, sum_n c_n L_n> = <g_j, residual> for the mode coefficients
    (minimum-norm when the constraint set is dependent but consistent) and
    returns (corrected residual, its ``constraint_residuals``).  The corrected
    residual satisfies every constraint to 1e-9 * ||residual||; if it cannot
    (the dependent constraints disagree, or a constraint vector is orthogonal
    to every mode), SingularConstraintError is raised, naming the constraints
    left unmet and those past the numerical rank of the vectors.
    """
    eps = np.asarray(residual, dtype=float)
    modes = _projection_modes(constraints.unit_positions, len(constraints.names))
    return _project(eps, float(np.linalg.norm(eps)), constraints, modes)


def _projection_modes(unit_positions, count: int) -> np.ndarray:
    """L_0..L_{count-1} at the unit positions, clipped to [-1, 1]: the modes
    that ``project_noise`` removes, one per constraint."""
    return legendre_row(count - 1, np.clip(unit_positions, -1.0, 1.0))


def _project(eps, scale: float, constraints: NoiseConstraintSet, modes):
    """``project_noise`` of ``eps``, whose norm is ``scale``, onto ``modes``."""
    # row-normalize: the constraints are homogeneous and their vectors span
    # wildly different scales (f^2 vs 1), so solve in unit-norm rows
    g = constraints.vectors / constraints.norms
    system = g.T @ modes
    rhs = g.T @ eps
    coeffs, *_ = np.linalg.lstsq(system, rhs, rcond=1e-10)
    corrected = eps - modes @ coeffs
    # constraints are homogeneous: check them per unit constraint-vector norm
    leftover = constraint_residuals(corrected, constraints)
    unmet = leftover > 1e-9 * scale
    if scale > 0 and np.any(unmet):
        factor = pivoted_qr(g)
        dependent = tuple(constraints.names[j] for j in factor.perm[factor.rank(1e-10):])
        unmet_names = tuple(n for n, bad in zip(constraints.names, unmet) if bad)
        raise SingularConstraintError(
            f"constraint system is inconsistent: constraints {unmet_names} stay unmet;"
            f" dependent constraints: {dependent}", dependent)
    return corrected, leftover


def constraint_residuals(residual, constraints: NoiseConstraintSet) -> np.ndarray:
    """|<g_j, residual>| / ||g_j|| for every constraint vector."""
    return np.abs(constraints.vectors.T @ np.asarray(residual, dtype=float)) / constraints.norms


def denoise_iterative(data: SampleGrid,
                      constraint_names: tuple[str, ...] = ALL_CONSTRAINTS,
                      init: str = "case1",
                      sigma2_0: float | None = None,
                      k: int = _VOTE_K,
                      max_iter: int = 50,
                      tol: float = 1e-6) -> Reconstruction:
    """Iterative noise projection (Case 4).

    Per iteration: estimate the noise as data minus the current on-manifold
    reconstruction, project it onto the constraint-compatible subspace,
    subtract the smooth excess from the data, refit the manifold and re-vote
    the index.  Converged when the coefficients move by < tol (relative) and
    no index sign flips.  Constraint vectors that involve f use the current
    iterate, rebuilt every iteration.  Returns the last reconstruction with
    its iteration fields set and no vote rounds.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if init not in INIT_MODES:
        raise ValueError(f"unknown init mode {init!r}")
    if not constraint_names:
        raise ValueError("need at least one constraint")
    if init == "case3":
        if sigma2_0 is None:
            raise ValueError("case3 initialization needs sigma2_0")
        res = denoise_case3(data, sigma2_0, k)
    else:
        res = reconstruct(fit_manifold_ls(data), data, k)

    # per run: each iterate is the unit-weight grid that ``tabulated_grid``
    # makes at the data's nodes, so only its values change and are checked
    nodes = data.nodes
    t = data.unit_nodes  # where the constraints are sampled
    domain = (float(nodes[0]), float(nodes[-1]))
    grid_t = to_unit(domain, nodes)
    weights = np.ones_like(nodes)
    modes = _projection_modes(t, len(constraint_names))
    design = None  # the LS design of the fit in ``res``, once the loop has one

    prev_coeffs = np.array([res.fit.b0, res.fit.b1, res.fit.c0, res.fit.c1])
    prev_signs = res.index.signs_at(nodes)
    trace = [tuple(prev_coeffs)]
    converged = False
    iterations = 0
    max_constraint_residual = 0.0
    for iterations in range(1, max_iter + 1):
        est_noise = data.values - res.reconstructed
        try:
            constraints = noise_constraints(t, res.reconstructed, constraint_names)
            scale = float(np.linalg.norm(est_noise))
            corrected, leftover = _project(est_noise, scale, constraints, modes)
            if scale > 0:
                res_now = float(np.max(leftover) / scale)
                max_constraint_residual = max(max_constraint_residual, res_now)
            values = data.values - corrected
            if not np.isfinite(values).all():
                raise DataError("non-finite sample values")
            new_design = _ls_design(grid_t, values)
            fit = _ls_solve(new_design, values, weights, domain)
            res, signs = _reconstruct(fit, domain, nodes, values, k)
            design = new_design
        except NUMERICAL_ERRORS:
            # iterate left the representable region: keep the last good one
            break
        coeffs = np.array([fit.b0, fit.b1, fit.c0, fit.c1])
        trace.append(tuple(coeffs))
        # coefficient movement relative to the coefficient scale
        denom = max(float(np.max(np.abs(prev_coeffs))), 1e-12)
        coeff_move = float(np.max(np.abs(coeffs - prev_coeffs)) / denom)
        flips = int(np.sum(signs != prev_signs))
        prev_coeffs, prev_signs = coeffs, signs
        if coeff_move < tol and flips == 0:
            converged = True
            break
    # the condition number of the returned fit only: the init fit has its own
    condition = res.fit.condition if design is None else float(np.linalg.cond(design))
    return replace(res, fit=replace(res.fit, method="iterative", condition=condition),
                   vote_rounds=None, converged=converged, iterations=iterations,
                   max_constraint_residual=max_constraint_residual,
                   coefficient_trace=tuple(trace))
