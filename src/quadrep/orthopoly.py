"""Normalized Legendre polynomials and Gauss-Legendre quadrature on [-1, 1].

All inner products in this package are discretizations of
``<u, v> = int_{-1}^{1} u(x) v(x) dx`` (unit weight), under which the
normalized polynomials ``L_n(x) = sqrt((2n+1)/2) P_n(x)`` are orthonormal.
"""
from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "legendre_row",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights of a fixed order on the open interval (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if nodes.size == 0:
            raise ValueError("empty quadrature rule")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] <= -1.0 or nodes[-1] >= 1.0:
            raise ValueError("nodes must lie strictly inside (-1, 1)")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")


def _legendre_and_derivative(order: int, x: np.ndarray):
    """Classical P_order and P'_order at x via the three-term recurrence."""
    p_prev = np.ones_like(x)
    if order == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    for k in range(2, order + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = order * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@functools.lru_cache
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule: nodes are the zeros of the degree-``order`` polynomial.

    Nodes are found by Newton iteration started from the Chebyshev-like guesses
    cos(pi (k - 1/4) / (order + 1/2)), converged to ~1e-15, then symmetrized.
    Rules are cached per order, so every call with one order returns the same
    rule; its arrays are read-only.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    k = np.arange(1, order + 1)
    x = np.cos(np.pi * (k - 0.25) / (order + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(order, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # enforce the exact symmetry of the rule
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    idx = np.argsort(x)
    nodes, weights = x[idx], w[idx]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def _check_domain(x: np.ndarray) -> None:
    if np.any(np.abs(x) > 1.0):
        raise ValueError("evaluation outside [-1, 1] is not supported; rescale first")


# Tables of L_0..L_d at recently seen point sets, keyed on the points' shape
# and float64 bytes, each at the highest degree requested for those points.
# A convergence sweep evaluates every rep at the same nodes; one `branches` call
# uses two point sets (the points and the a-scale probes): a few entries suffice.
# `legendre_row` is public, so callers may share the cache across threads,
# hence the lock.
_TABLE_CAPACITY = 4
_TABLE_MAX_BYTES = 8 << 20  # larger tables (1e5 points at degree 60: 48.8 MB) are not kept
_tables: OrderedDict[tuple, np.ndarray] = OrderedDict()
_tables_lock = threading.Lock()


def _legendre_table(max_degree: int, arr: np.ndarray) -> np.ndarray:
    """L_0..L_max_degree at the points ``arr`` by the three-term recurrence.

    Column k depends only on columns k-1, k-2 and the points, and each column
    is normalized on its own, so the first d+1 columns of a degree-D table have
    the bits of the degree-d table.
    """
    table = np.empty((arr.size, max_degree + 1))
    table[:, 0] = 1.0
    if max_degree >= 1:
        table[:, 1] = arr
    for k in range(2, max_degree + 1):
        table[:, k] = ((2 * k - 1) * arr * table[:, k - 1] - (k - 1) * table[:, k - 2]) / k
    table *= np.sqrt((2 * np.arange(max_degree + 1) + 1) / 2.0)
    return table


def legendre_row(max_degree: int, x):
    """All of L_0(x)..L_max_degree(x) from a single recurrence pass.

    For scalar x returns shape (max_degree+1,); for a vector of m points,
    shape (m, max_degree+1).  Tables are cached per point set (see
    ``_tables``); every call returns a fresh, writable array with the bits
    of a table built for that call alone.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    key = (arr.shape, arr.tobytes())
    with _tables_lock:
        table = _tables.get(key)
        if table is not None:
            _tables.move_to_end(key)
    if table is None or table.shape[1] <= max_degree:
        # a hit has the bytes of points that already passed the check
        _check_domain(arr)
        table = _legendre_table(max_degree, arr)
        if table.nbytes <= _TABLE_MAX_BYTES:
            table.flags.writeable = False
            with _tables_lock:
                held = _tables.get(key)
                if held is None or held.shape[1] < table.shape[1]:
                    _tables[key] = table
                _tables.move_to_end(key)
                while len(_tables) > _TABLE_CAPACITY:
                    _tables.popitem(last=False)
    # a cached (read-only) table is answered by a copy, not a strided view: BLAS
    # products over a view of a wider table differ in the last bits
    out = table if table.flags.writeable else table[:, :max_degree + 1].copy()
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return out[0]
    return out
