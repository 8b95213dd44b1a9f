"""Degree-0/1/2 function representations, their fits, and stable evaluation.

Every representation is one ``Rep``: coefficient polynomials of a relation
of degree 0, 1 or 2 in f, ``f = c`` (a and b unset), ``b f - c = 0`` (a
unset) or ``a f^2 - b f - c = 0``, plus at degree 2 a per-location sign (the
index) choosing between the two quadratic roots.
Roots are always computed with the cancellation-free form of the quadratic
formula.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

from .dictionary import SampleGrid, assemble, check_degrees, STREAM_PLAIN, STREAM_F, STREAM_F2
from .linalg import RankDeficiencyError, weighted_lsq
from .orthopoly import legendre_norms, legendre_row, to_unit

__all__ = [
    "BASIS_LEGENDRE",
    "BASIS_MONOMIAL",
    "ComplexRootError",
    "PoleError",
    "EvaluationError",
    "PolyCoeffs",
    "IndexFunction",
    "Rep",
    "RootResult",
    "BranchTable",
    "basis_convert",
    "fit_degree0",
    "fit_degree1",
    "fit_degree2_uniform",
    "branches",
    "roots_at",
    "assign_index",
    "poles",
    "eval_rep",
    "compose_piecewise_manifold",
    "residual_l2",
    "relative_l2",
    "table_relative_l2",
    "rep_to_dict",
    "rep_from_dict",
]

BASIS_LEGENDRE = "legendre-normalized"
BASIS_MONOMIAL = "monomial"

A_DEGENERACY_RTOL = 1e-10  # |a(x)| below this times max|a| -> treat as linear
SQRT2 = math.sqrt(2.0)


class ComplexRootError(ArithmeticError):
    """The manifold discriminant is negative beyond tolerance."""

    def __init__(self, message: str, discriminant: float):
        super().__init__(message)
        self.discriminant = discriminant


class PoleError(ArithmeticError):
    """A rational representation was evaluated at (numerically) a pole."""


class EvaluationError(ArithmeticError):
    """The representation cannot produce a value at the requested point."""


@dataclass(frozen=True)
class PolyCoeffs:
    """Polynomial coefficients in one basis over one domain.

    ``legendre-normalized`` coefficients multiply L_n(t) with t the affine map
    of x onto [-1, 1]; ``monomial`` coefficients multiply x^n in the raw
    coordinate.
    """

    basis: str
    coeffs: np.ndarray
    domain: tuple[float, float]

    def __post_init__(self):
        if self.basis not in (BASIS_LEGENDRE, BASIS_MONOMIAL):
            raise ValueError(f"unknown basis {self.basis!r}")
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty 1-D array")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        ends = self.domain if isinstance(self.domain, (tuple, list)) else ()
        if len(ends) != 2 or not all(isinstance(end, numbers.Real) for end in ends):
            raise ValueError(f"domain {self.domain!r} is not two numbers")
        lo, hi = float(ends[0]), float(ends[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"degenerate domain {(lo, hi)}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "domain", (lo, hi))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def evaluate(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        t = to_unit(self.domain, arr)
        # both bases: tolerate endpoint roundoff, reject genuine overshoot
        if np.any(np.abs(t) > 1.0 + 4 * np.finfo(float).eps):
            raise ValueError(f"evaluation outside domain {self.domain}")
        if self.basis == BASIS_MONOMIAL:  # at the raw x, so in-domain values keep their bits
            out = nppoly.polyval(arr, self.coeffs)
        else:
            out = legendre_row(self.degree, np.clip(t, -1.0, 1.0)) @ self.coeffs
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(out[0])
        return out


def _affine_compose(coeffs: np.ndarray, shift: float, scale: float) -> np.ndarray:
    """Coefficients of p(shift + scale*x) for monomial p, by Horner on polynomials."""
    out = np.zeros(1)
    q = np.array([shift, scale])
    for c in coeffs[::-1]:
        out = nppoly.polyadd(nppoly.polymul(out, q), [c])
    return np.atleast_1d(out)


def basis_convert(coeffs: PolyCoeffs, target_basis: str) -> PolyCoeffs:
    """Exact linear change of basis (degree <= 60), domain-aware."""
    if target_basis not in (BASIS_LEGENDRE, BASIS_MONOMIAL):
        raise ValueError(f"unknown basis {target_basis!r}")
    if coeffs.degree > 60:
        raise ValueError("basis conversion supported up to degree 60")
    if coeffs.basis == target_basis:
        return PolyCoeffs(target_basis, coeffs.coeffs.copy(), coeffs.domain)
    lo, hi = coeffs.domain
    identity = lo == -1.0 and hi == 1.0
    if coeffs.basis == BASIS_LEGENDRE:
        classical = coeffs.coeffs * legendre_norms(coeffs.coeffs.size)
        mono_t = npleg.leg2poly(classical)
        if identity:
            mono_x = mono_t
        else:
            # t(x) = (2x - (lo+hi)) / (hi-lo)
            mono_x = _affine_compose(mono_t, -(lo + hi) / (hi - lo), 2.0 / (hi - lo))
        return PolyCoeffs(BASIS_MONOMIAL, mono_x, coeffs.domain)
    mono_x = coeffs.coeffs
    if identity:
        mono_t = mono_x
    else:
        # x(t) = (hi-lo)/2 * t + (lo+hi)/2
        mono_t = _affine_compose(mono_x, (lo + hi) / 2.0, (hi - lo) / 2.0)
    classical = npleg.poly2leg(mono_t)
    normalized = classical / legendre_norms(classical.size)
    return PolyCoeffs(BASIS_LEGENDRE, normalized, coeffs.domain)


@dataclass(frozen=True)
class IndexFunction:
    """Piecewise-constant +-1 branch selector, breakpoint-compressed.

    Signs alternate starting from ``first_sign``; the sign at x flips once per
    breakpoint <= x.  ``undefined`` records sample locations where both roots
    were complex and no selection is meaningful.
    """

    breakpoints: np.ndarray
    first_sign: int
    undefined: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        bp = np.atleast_1d(np.asarray(self.breakpoints, dtype=float))
        undefined = np.atleast_1d(np.asarray(self.undefined, dtype=float))
        if not (np.isfinite(bp).all() and np.isfinite(undefined).all()):
            raise ValueError("breakpoints and undefined positions must be finite")
        if bp.size and np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if type(self.first_sign) is not int or self.first_sign not in (-1, 1):
            raise ValueError("first_sign must be -1 or +1")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "undefined", undefined)

    @classmethod
    def from_dense(cls, positions, signs, undefined=()) -> "IndexFunction":
        positions = np.asarray(positions, dtype=float)
        signs = np.asarray(signs, dtype=int)
        if positions.shape != signs.shape or positions.ndim != 1 or positions.size == 0:
            raise ValueError("positions and signs must be matching nonempty 1-D arrays")
        if not np.all((signs == 1) | (signs == -1)):
            raise ValueError("signs must be +-1")
        flips = np.nonzero(signs[1:] != signs[:-1])[0]
        breakpoints = 0.5 * (positions[flips] + positions[flips + 1])
        return cls(breakpoints=breakpoints, first_sign=int(signs[0]), undefined=np.asarray(undefined, dtype=float))

    def signs_at(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        count = np.searchsorted(self.breakpoints, arr, side="right")
        out = np.where(count % 2 == 0, self.first_sign, -self.first_sign).astype(int)
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return int(out[0])
        return out


@dataclass(frozen=True, kw_only=True)
class Rep:
    """A representation: a(x) f^2 - b(x) f - c(x) = 0, the fields of rep.json.

    Its degree in f is the highest of ``a`` and ``b`` that is set:

    - degree 0, ``a`` and ``b`` None: f = c(x);
    - degree 1, ``a`` None: f = c(x) / b(x), with the constant term of b
      pinned to 1;
    - degree 2: f is the root that ``index`` picks at x, with the
      constant-basis coefficient of ``a`` pinned to 1 (the fit's reporting
      normalization, which fixes the overall scale of the triple).
    """

    a: PolyCoeffs | None = None
    b: PolyCoeffs | None = None
    c: PolyCoeffs
    index: IndexFunction | None = None
    fit_residual: float = float("nan")
    degeneracy: dict | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.provenance, dict) and isinstance(self.degeneracy, dict | None)):
            raise ValueError("provenance and degeneracy must be objects")
        object.__setattr__(self, "fit_residual", float(self.fit_residual))
        if self.a is not None and self.b is None:
            raise ValueError("a needs b: a degree-2 representation sets a, b and c")
        polys = [p for p in (self.a, self.b, self.c) if p is not None]
        if len({p.basis for p in polys}) > 1:
            raise ValueError("a, b, c must share a basis")
        if len({p.domain for p in polys}) > 1:
            raise ValueError("a, b, c must share a domain")
        if self.a is not None and self.a.coeffs[0] != 1.0:
            raise ValueError("constant-basis coefficient of a must be 1")
        if self.degree == 1:
            # the constant term "1" is sqrt(2)*L_0 in the orthonormal basis
            one = SQRT2 if self.b.basis == BASIS_LEGENDRE else 1.0
            if abs(self.b.coeffs[0] - one) > 1e-9:
                raise ValueError("denominator constant term must be fixed to 1")

    @property
    def degree(self) -> int:
        return 2 if self.a is not None else 1 if self.b is not None else 0

    @property
    def domain(self) -> tuple[float, float]:
        return self.c.domain


@dataclass(frozen=True)
class RootResult:
    """Both quadratic roots at a point, ordered lo <= hi when real."""

    lo: float
    hi: float
    discriminant: float
    linear: bool = False
    clamped: bool = False


@dataclass(frozen=True)
class BranchTable:
    """Both branches of a f^2 - b f - c = 0 at each point of a batch, with
    the edge case each point falls in (see ``branches``).  Read-only arrays."""

    minus: np.ndarray
    plus: np.ndarray
    disc: np.ndarray
    vertex: np.ndarray
    linear: np.ndarray
    clamped: np.ndarray
    complex: np.ndarray
    no_root: np.ndarray

    def require_real(self) -> None:
        """Raise ComplexRootError if a point's roots are complex, else
        EvaluationError if a point has no root."""
        if np.any(self.complex):
            worst = float(self.disc[self.complex].min())
            raise ComplexRootError(f"negative discriminant {worst:.3e}", worst)
        if np.any(self.no_root):
            raise EvaluationError("both a(x) and b(x) vanish: no root")

    def select(self, signs) -> np.ndarray:
        """The plus branch where ``signs`` > 0, else the minus branch."""
        return np.where(np.asarray(signs) > 0, self.plus, self.minus)

    def pick(self, index: IndexFunction, x) -> np.ndarray:
        """The root that ``index`` picks at each point of ``x``, the points
        this table was built at; raises as ``require_real``."""
        self.require_real()
        return self.select(index.signs_at(x))

    def nearest_signs(self, values) -> np.ndarray:
        """Per point, +1 if the plus root is nearer ``values`` (ties +1), else
        -1.  A point with complex roots inherits the previous point's sign (+1
        at the first point); a point with no root raises EvaluationError."""
        if np.any(self.no_root):
            raise EvaluationError("both a(x) and b(x) vanish: no root")
        signs = np.where(np.abs(values - self.plus) <= np.abs(values - self.minus), 1, -1)
        for i in np.nonzero(self.complex)[0]:
            signs[i] = signs[i - 1] if i > 0 else 1
        return signs


def branches(rep: Rep, x) -> BranchTable:
    """Both roots of a(x) r^2 - b(x) r - c(x) = 0 at every point of ``x``, by
    the cancellation-free quadratic formula; plus = (b + sqrt(D)) / 2a with
    D = b^2 + 4ac.  Never raises: each edge case has one policy and a mask.

    - ``complex``, D < -1e-8 (b^2 + 4|ac| + 1): both roots are NaN;
      ``vertex`` = b/2a is the real part of the complex pair.
    - ``clamped``, D negative within that tolerance: D is taken as 0 and both
      roots are the double root b/2a.
    - ``linear``, |a(x)| < 1e-10 max|a| over 129 equispaced probes of the
      domain (a bound set by the rep alone, not by the other points of the
      call): both roots are -c/b, or NaN where the point is also ``complex``.
    - ``no_root``, a linear point where |b(x)| < 1e-300: both roots are NaN.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    av, bv, cv = rep.a.evaluate(x), rep.b.evaluate(x), rep.c.evaluate(x)
    lo, hi = rep.domain
    a_scale = float(np.max(np.abs(rep.a.evaluate(np.linspace(lo, hi, 129)))))
    linear = np.abs(av) < A_DEGENERACY_RTOL * (a_scale if a_scale > 0 else 1.0)
    no_root = linear & (np.abs(bv) < 1e-300)

    disc = bv * bv + 4.0 * av * cv
    tol_d = 1e-8 * (bv * bv + 4.0 * np.abs(av * cv) + 1.0)
    complex_mask = disc < -tol_d
    clamped = (disc < 0.0) & ~complex_mask

    sq = np.sqrt(np.where(disc < 0.0, 0.0, disc))
    s = np.where(bv >= 0.0, 1.0, -1.0)
    q = bv + s * sq
    # each root is computed only where it is kept, so that a point that a
    # mask then discards (a complex one with a subnormal q, say) cannot
    # overflow; 0 where q = 0
    nan = complex_mask | no_root
    quad = ~(nan | linear) & (q != 0.0)
    r1 = np.divide(q, 2.0 * av, out=np.zeros_like(q), where=quad)
    r2 = np.divide(-2.0 * cv, q, out=np.zeros_like(q), where=quad & ~clamped)
    # a clamped discriminant leaves the double root b/2a; -2c/b equals it
    # only where D was exactly 0
    r2 = np.where(clamped, r1, r2)
    plus = np.where(s > 0, r1, r2)
    minus = np.where(s > 0, r2, r1)

    lin_root = np.divide(-cv, bv, out=np.zeros_like(bv), where=linear & ~nan)
    plus = np.where(nan, np.nan, np.where(linear, lin_root, plus))
    minus = np.where(nan, np.nan, np.where(linear, lin_root, minus))
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = bv / (2.0 * av)
    table = BranchTable(minus=minus, plus=plus, disc=disc, vertex=vertex, linear=linear,
                        clamped=clamped, complex=complex_mask, no_root=no_root)
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


def roots_at(rep: Rep, x) -> RootResult:
    """Both roots at a single point, ordered; raises where ``branches`` has
    no real root (ComplexRootError, or EvaluationError if a and b vanish)."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.size != 1:
        raise ValueError("roots_at takes a single point; use branches for vectors")
    br = branches(rep, arr)
    br.require_real()
    lo = float(min(br.minus[0], br.plus[0]))
    hi = float(max(br.minus[0], br.plus[0]))
    return RootResult(lo=lo, hi=hi, discriminant=float(br.disc[0]),
                      linear=bool(br.linear[0]), clamped=bool(br.clamped[0]))


def assign_index(rep: Rep, grid: SampleGrid) -> tuple[IndexFunction, BranchTable]:
    """(index, table): the per-node sign whose root is nearest the sample
    value (ties -> +1), and the branch table at the grid's nodes that it was
    read from.

    Nodes with complex roots get no meaningful selection; they inherit the
    previous node's sign and are reported in ``undefined``.
    """
    if rep.domain != grid.domain:
        raise ValueError("representation and grid domains differ")
    br = branches(rep, grid.nodes)
    signs = br.nearest_signs(grid.values)
    return IndexFunction.from_dense(grid.nodes, signs, undefined=grid.nodes[br.complex]), br


def poles(rep: Rep, x) -> np.ndarray:
    """Mask of the points where the denominator vanishes, |b(x)| <= 1e-13."""
    return np.abs(np.atleast_1d(rep.b.evaluate(x))) <= 1e-13


def eval_rep(rep: Rep, x):
    """Evaluate a representation of any degree; scalar in -> scalar out.
    Raises where a point has no value (PoleError, or see
    ``BranchTable.require_real``)."""
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if rep.degree == 0:
        out = rep.c.evaluate(arr)
    elif rep.degree == 1:
        bad = poles(rep, arr)
        if np.any(bad):
            raise PoleError(f"denominator vanishes near x={arr[bad][0]:.6g}")
        out = rep.c.evaluate(arr) / rep.b.evaluate(arr)
    else:
        if rep.index is None:
            raise EvaluationError("degree-2 representation has no index assigned")
        out = branches(rep, arr).pick(rep.index, arr)
    return float(out[0]) if scalar else out


def compose_piecewise_manifold(p_minus: PolyCoeffs, p_plus: PolyCoeffs) -> Rep:
    """Exact manifold through two polynomial branches: b = p- + p+, c = -p- p+.

    The result satisfies (f - p-)(f - p+) = 0 identically, so fitting error is
    zero by construction.  The index is left unassigned.
    """
    if p_minus.domain != p_plus.domain:
        raise ValueError("branch polynomials must share a domain")
    if p_minus.basis != p_plus.basis:
        p_plus = basis_convert(p_plus, p_minus.basis)
    domain = p_minus.domain
    basis = p_minus.basis
    if basis == BASIS_MONOMIAL:
        b = nppoly.polyadd(p_minus.coeffs, p_plus.coeffs)
        c = -nppoly.polymul(p_minus.coeffs, p_plus.coeffs)
    else:
        # a == [1] denotes a(x) = L_0 = 1/sqrt(2); scale b, c to match
        lm = p_minus.coeffs * legendre_norms(p_minus.coeffs.size)
        lp = p_plus.coeffs * legendre_norms(p_plus.coeffs.size)
        b_cl = npleg.legadd(lm, lp) / SQRT2
        c_cl = -npleg.legmul(lm, lp) / SQRT2
        b = b_cl / legendre_norms(b_cl.size)
        c = c_cl / legendre_norms(c_cl.size)
    return Rep(
        a=PolyCoeffs(basis, [1.0], domain),
        b=PolyCoeffs(basis, b, domain),
        c=PolyCoeffs(basis, c, domain),
        fit_residual=0.0,
        provenance={"method": "compose"},
    )


def fit_degree0(grid: SampleGrid, n: int) -> Rep:
    """Least-squares Legendre expansion of f on the grid.

    On quadrature grids the coefficients are plain inner products (the
    orthonormal shortcut: n + 1 <= order makes the rule exact to degree
    2n); otherwise a weighted QR solve is used.
    """
    check_degrees(n=n)
    if n + 1 > grid.size:
        raise ValueError("more coefficients than samples")
    table = grid.legendre_table(n)
    lo, hi = grid.domain
    # the mapped basis is orthonormal under 2/(hi-lo) * weights
    wscale = 2.0 / (hi - lo)
    if grid.is_quadrature:
        coeffs = table.T @ (grid.weights * grid.values) * wscale
        resid = float(np.sqrt(np.sum(grid.weights * (grid.values - table @ coeffs) ** 2)))
    else:
        coeffs, resid = weighted_lsq(table, grid.values, grid.weights)
    return Rep(
        c=PolyCoeffs(BASIS_LEGENDRE, coeffs, grid.domain),
        fit_residual=resid,
        provenance={"method": "degree0", "n": n},
    )


def fit_degree1(grid: SampleGrid, n0: int, n1: int) -> Rep:
    """Rational fit min || b(x) f - c(x) || with the constant f-term folded into
    the target, which pins the denominator's constant term to 1."""
    check_degrees(n0=n0, n1=n1)
    if n0 + n1 + 1 > grid.size:
        raise ValueError("more coefficients than samples")
    table = grid.legendre_table(max(n0, n1))
    cols = [table[:, : n0 + 1]]
    if n1 >= 1:
        cols.append(table[:, 1 : n1 + 1] * grid.values[:, None])
    v = np.hstack(cols)
    eta, resid = weighted_lsq(v, grid.values, grid.weights)
    b = np.zeros(n1 + 1)
    b[0] = SQRT2
    b[1:] = -eta[n0 + 1 :]
    return Rep(
        b=PolyCoeffs(BASIS_LEGENDRE, b, grid.domain),
        c=PolyCoeffs(BASIS_LEGENDRE, eta[: n0 + 1], grid.domain),
        fit_residual=resid,
        provenance={"method": "degree1", "n0": n0, "n1": n1},
    )


def coefficients_to_rep(grid: SampleGrid, tags, values, fit_residual: float,
                        degeneracy: dict | None = None,
                        provenance: dict | None = None) -> tuple[Rep, BranchTable]:
    """(rep, table): per-column dictionary coefficients packaged into a
    degree-2 Rep, with the index ``assign_index`` gives on the grid, and the
    branch table at the grid's nodes that the index was read from.

    ``values`` are the least-squares coefficients of the raw dictionary
    columns listed in ``tags``; stream-3 coefficients enter a(x) negated,
    below the pinned unit constant term.
    """
    n0 = max((d for s, d in tags if s == STREAM_PLAIN), default=0)
    n1 = max((d for s, d in tags if s == STREAM_F), default=0)
    n2 = max((d for s, d in tags if s == STREAM_F2), default=0)
    c = np.zeros(n0 + 1)
    b = np.zeros(n1 + 1)
    a = np.zeros(max(n2, 0) + 1)
    a[0] = 1.0
    for (stream, degree), val in zip(tags, values):
        if stream == STREAM_PLAIN:
            c[degree] += val
        elif stream == STREAM_F:
            b[degree] += val
        elif stream == STREAM_F2:
            a[degree] -= val
        else:
            raise ValueError(f"unknown stream in tag {(stream, degree)}")
    rep = Rep(
        a=PolyCoeffs(BASIS_LEGENDRE, a, grid.domain),
        b=PolyCoeffs(BASIS_LEGENDRE, b, grid.domain),
        c=PolyCoeffs(BASIS_LEGENDRE, c, grid.domain),
        fit_residual=fit_residual,
        degeneracy=degeneracy,
        provenance=provenance or {},
    )
    index, table = assign_index(rep, grid)
    return replace(rep, index=index), table


def fit_degree2_uniform(grid: SampleGrid, n0: int, n1: int,
                        n2: int) -> tuple[Rep, BranchTable]:
    """(rep, table): the non-adaptive degree-2 fit over the full (n0, n1, n2)
    dictionary, and the branch table at the grid's nodes that its index was
    read from (see ``coefficients_to_rep``).

    A rank-deficient dictionary does not fail the fit: the solve falls back
    to the numerically independent pivoted subset and the dropped columns are
    listed in the degeneracy report.
    """
    if n0 + n1 + n2 + 2 > grid.size:
        raise ValueError("more coefficients than samples")
    d = assemble(grid, n0, n1, n2)
    provenance = {"method": "uniform", "n0": n0, "n1": n1, "n2": n2}
    degeneracy = None
    try:
        eta, resid = weighted_lsq(d.columns, d.target, grid.weights)
        tags = d.tags
    except RankDeficiencyError as exc:
        fact, rank = exc.factorization, exc.numerical_rank
        eta, resid = fact.solve(d.target * np.sqrt(grid.weights), rank)
        tags = tuple(d.tags[j] for j in fact.perm[:rank])
        degeneracy = {
            "numerical_rank": int(rank),
            "dropped_tags": [list(d.tags[j]) for j in fact.perm[rank:]],
        }
    return coefficients_to_rep(grid, tags, eta, resid,
                               degeneracy=degeneracy, provenance=provenance)


def _residual(values_at, grid: SampleGrid) -> float:
    """Weighted L2 distance between ``values_at(grid.nodes)`` and the grid's
    samples; an evaluation failure counts as +inf with a warning."""
    try:
        vals = values_at(grid.nodes)
    except (ComplexRootError, PoleError, EvaluationError) as exc:
        warnings.warn(f"evaluation failed, residual reported as inf: {exc}")
        return float("inf")
    return float(np.sqrt(np.sum(grid.weights * (vals - grid.values) ** 2)))


def _relative(err: float, grid: SampleGrid) -> float:
    """``err`` normalized by the samples' norm (when nonzero)."""
    ref = grid.values
    denom = float(np.sqrt(np.sum(grid.weights * ref * ref)))
    return err / denom if denom > 0 else err


def residual_l2(rep, grid: SampleGrid) -> float:
    """Weighted L2 distance between the representation and the grid's samples.

    Evaluation failures (poles, complex roots) count as +inf with a warning.
    """
    return _residual(lambda x: eval_rep(rep, x), grid)


def relative_l2(rep, grid: SampleGrid) -> float:
    """residual_l2 normalized by the samples' norm (when nonzero)."""
    return _relative(residual_l2(rep, grid), grid)


def table_relative_l2(rep: Rep, table: BranchTable, grid: SampleGrid) -> float:
    """``relative_l2`` of a degree-2 rep, read from ``table``: the branch table
    at the grid's nodes that its index was read from, as
    ``coefficients_to_rep`` returns it.  Builds no table of its own."""
    return _relative(_residual(lambda x: table.pick(rep.index, x), grid), grid)


# --------------------------------------------------------------------------
# rep.json documents (quadrep fit writes them; files.load_rep reads them)
# --------------------------------------------------------------------------

def rep_to_dict(rep: Rep) -> dict:
    doc = {
        "type": f"degree{rep.degree}",
        "domain": list(rep.domain),
        "basis": rep.c.basis,
        "a": None if rep.a is None else rep.a.coeffs.tolist(),
        "b": None if rep.b is None else rep.b.coeffs.tolist(),
        "c": rep.c.coeffs.tolist(),
        "index": None,
        "fit_residual": rep.fit_residual,
        "provenance": rep.provenance,
    }
    if rep.index is not None:
        doc["index"] = {
            "breakpoints": rep.index.breakpoints.tolist(),
            "first_sign": rep.index.first_sign,
        }
        if rep.index.undefined.size:
            doc["index"]["undefined"] = rep.index.undefined.tolist()
    if rep.degeneracy is not None:
        doc["degeneracy"] = rep.degeneracy
    return doc


def rep_from_dict(doc: dict) -> Rep:
    """The Rep of a rep.json document, read from the fields its type has: a
    only at degree 2, b from degree 1, index and degeneracy only at degree 2.
    The fields go to the records as they are; each converts and checks its own."""
    kind, domain, basis = doc["type"], doc["domain"], doc["basis"]
    types = ("degree0", "degree1", "degree2")
    if kind not in types:
        raise ValueError(f"unknown representation type {kind!r}")
    degree = types.index(kind)
    index = doc.get("index") if degree == 2 else None
    if index is not None:
        index = IndexFunction(index["breakpoints"], index["first_sign"],
                              **{k: index[k] for k in ("undefined",) if k in index})
    return Rep(a=PolyCoeffs(basis, doc["a"], domain) if degree == 2 else None,
               b=PolyCoeffs(basis, doc["b"], domain) if degree >= 1 else None,
               c=PolyCoeffs(basis, doc["c"], domain), index=index,
               degeneracy=doc.get("degeneracy") if degree == 2 else None,
               **{k: doc[k] for k in ("fit_residual", "provenance") if k in doc})

