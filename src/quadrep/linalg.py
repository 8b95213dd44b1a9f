"""Dense weighted least squares and column-pivoted QR, on one Householder QR,
and the one triangular solve that ends every least-squares fit.

Normal equations are never formed: the candidate dictionaries this package
fits against are near-linearly-dependent by construction, so everything goes
through orthogonal factorizations.

SciPy is imported by the two functions that call it, on their first call, so
a command that never factors or solves (``eval``, ``generate``) does not load it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankDeficiencyError",
    "PivotedQR",
    "weighted_lsq",
    "pivoted_qr",
    "householder_qr",
    "back_substitute",
]

DEFAULT_RANK_TOL = 1e-12


class RankDeficiencyError(np.linalg.LinAlgError):
    """The design matrix is numerically rank-deficient at the working tolerance.

    ``factorization`` is the pivoted QR of the (weighted) design, so a caller
    can fall back to ``factorization.solve`` without factoring again."""

    def __init__(self, message: str, numerical_rank: int, factorization: PivotedQR):
        super().__init__(message)
        self.numerical_rank = numerical_rank
        self.factorization = factorization


@dataclass(frozen=True)
class PivotedQR:
    """A @ perm = q @ r with greedy column pivoting; diag holds |r_kk|."""

    q: np.ndarray
    r: np.ndarray
    perm: np.ndarray
    diag: np.ndarray

    def rank(self, tol: float = DEFAULT_RANK_TOL) -> int:
        if self.diag.size == 0 or self.diag[0] == 0.0:
            return 0
        return int(np.sum(self.diag >= tol * self.diag[0]))

    def solve(self, y, rank: int):
        """Least squares on the first ``rank`` pivoted columns: (coefficients
        of columns ``perm[:rank]``, residual norm)."""
        q = self.q[:, :rank]
        proj = q.T @ y
        return back_substitute(self.r[:rank, :rank], proj), float(np.linalg.norm(y - q @ proj))


def back_substitute(r, c):
    """x with r x = c, r upper triangular: the one triangular solve."""
    from scipy.linalg import solve_triangular

    return solve_triangular(r, c, lower=False)


def householder_qr(a):
    """Thin Householder QR, A = Q R: LAPACK's unblocked ``dgeqrf``/``dorgqr``.

    The minimal workspace keeps LAPACK off its blocked path, whose bits depend
    on the BLAS thread count above 128 columns.  Q is returned in C order, as
    NumPy's QR gives it: ``Q.T @ y`` over dorgqr's Fortran-order Q differs in
    the last bits, and would move stored results.

    Raises ValueError on a non-finite entry: LAPACK does not check.
    """
    from scipy.linalg import lapack

    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries (NaN or inf)")
    m, n = a.shape
    steps = min(m, n)
    qr, tau, _, info = lapack.dgeqrf(a, lwork=n)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed (info={info})")
    q, _, info = lapack.dorgqr(qr[:, :steps], tau, lwork=steps)
    if info != 0:
        raise np.linalg.LinAlgError(f"dorgqr failed (info={info})")
    return np.ascontiguousarray(q), np.triu(qr[:steps])


def pivoted_qr(a, steps: int | None = None) -> PivotedQR:
    """Householder QR with greedy pivoting on remaining column norms.

    Compress, then pivot: the pivot loop runs on the triangle R0 of
    ``householder_qr``'s A = Q0 R0.  An orthogonal Q0 keeps every column norm,
    so in exact arithmetic the pivots are those of A, at a fraction of the flops.

    ``steps`` stops the loop after that many pivots (all of them when None).
    Each pivot depends only on the steps before it, so a truncated
    factorization is the full one cut to its first ``steps`` pivots, bit for
    bit: ``q`` holds the first ``steps`` columns, ``r`` the first ``steps``
    rows and ``diag`` the first ``steps`` magnitudes.  Only ``perm[:steps]``
    is final; the columns of ``r`` past ``steps`` hold the full factor's
    values in the order of this ``perm``.
    """
    return _pivot(*householder_qr(a), steps)


def _pivot(q0: np.ndarray, r0: np.ndarray, steps: int | None = None) -> PivotedQR:
    """Greedy column pivoting on the upper-trapezoidal ``r0`` of A = q0 r0.

    Each step takes the remaining column of largest norm; ties (norms within
    a relative 1e-12 of the largest) go to the lowest original column index,
    so runs are bit-reproducible.  Returns A @ perm = (q0 q1) r, cut to the
    first ``steps`` pivots when ``steps`` is given.
    """
    r = r0.copy()
    rows, n = r.shape
    if steps is not None and steps < 1:
        raise ValueError("steps must be >= 1")
    kept = rows if steps is None else min(steps, rows)
    perm = np.arange(n)
    reflectors = []
    for k in range(kept):
        norms = np.linalg.norm(r[k:, k:], axis=0)
        best = norms.max()
        if best == 0.0:
            break
        cand = np.nonzero(norms >= best * (1.0 - 1e-12))[0] + k
        j = cand[np.argmin(perm[cand])]
        if j != k:
            r[:, [k, j]] = r[:, [j, k]]
            perm[[k, j]] = perm[[j, k]]
        x = r[k:, k]
        alpha = -np.copysign(np.linalg.norm(x), x[0] if x[0] != 0 else 1.0)
        v = x.copy()
        v[0] -= alpha
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            reflectors.append(None)
            continue
        v /= vnorm
        r[k:, k:] -= 2.0 * np.outer(v, v @ r[k:, k:])
        r[k:, k] = 0.0
        r[k, k] = alpha
        reflectors.append(v)
    # q1: the reflectors applied in reverse to the identity.  A reflector past
    # ``kept`` leaves the first ``kept`` columns unchanged, so those are the
    # full q1's.  The products run at full width and are sliced afterwards: a
    # BLAS kernel's bits for one column can depend on the matrix width.
    q1 = np.eye(rows)
    for k in range(len(reflectors) - 1, -1, -1):
        v = reflectors[k]
        if v is not None:
            q1[k:, :] -= 2.0 * np.outer(v, v @ q1[k:, :])
    r = np.triu(r[:kept])
    return PivotedQR(q=(q0 @ q1)[:, :kept], r=r, perm=perm, diag=np.abs(np.diag(r)))


def weighted_lsq(v, y, w):
    """Solve min_c || W^{1/2} (V c - y) ||_2 via QR of W^{1/2} V.

    Returns (coefficients, achieved residual norm).

    Raises RankDeficiencyError (carrying the numerical rank and the pivoted
    QR of W^{1/2} V) when some |R_kk| < DEFAULT_RANK_TOL * |R_11|; that QR
    pivots the triangle already computed, without factoring W^{1/2} V again.
    """
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.ndim != 2:
        raise ValueError("V must be 2-D")
    m, k = v.shape
    if y.shape != (m,) or w.shape != (m,):
        raise ValueError("y and w must match the row count of V")
    if m < k:
        raise ValueError(f"underdetermined system: {m} rows < {k} columns")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    sw = np.sqrt(w)
    a = v * sw[:, None]
    q, r = householder_qr(a)
    d = np.abs(np.diag(r))
    if d.max() == 0.0 or d.min() < DEFAULT_RANK_TOL * d.max():
        fact = _pivot(q, r)
        rank = fact.rank()
        raise RankDeficiencyError(
            f"rank-deficient design: numerical rank {rank} of {k} columns", rank, fact
        )
    coef = back_substitute(r, q.T @ (y * sw))
    resid = float(np.linalg.norm(sw * (v @ coef - y)))
    return coef, resid
