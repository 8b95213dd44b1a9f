"""Normalized Legendre polynomials and Gauss-Legendre quadrature on [-1, 1].

All inner products in this package are discretizations of
``<u, v> = int_{-1}^{1} u(x) v(x) dx`` (unit weight), under which the
normalized polynomials ``L_n(x) = sqrt((2n+1)/2) P_n(x)`` are orthonormal.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "legendre_eval",
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

    @property
    def order(self) -> int:
        return self.nodes.size


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


def legendre_eval(n: int, x):
    """Normalized Legendre polynomial L_n(x) = sqrt((2n+1)/2) P_n(x), |x| <= 1."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    arr = np.asarray(x, dtype=float)
    _check_domain(arr)
    p_prev = np.ones_like(arr)
    if n == 0:
        out = p_prev
    else:
        p = arr.copy()
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * arr * p - (k - 1) * p_prev) / k
        out = p
    out = np.sqrt((2 * n + 1) / 2.0) * out
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def legendre_row(max_degree: int, x):
    """All of L_0(x)..L_max_degree(x) from a single recurrence pass.

    For scalar x returns shape (max_degree+1,); for a vector of m points,
    shape (m, max_degree+1).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    _check_domain(arr)
    table = np.empty((arr.size, max_degree + 1))
    table[:, 0] = 1.0
    if max_degree >= 1:
        table[:, 1] = arr
    for k in range(2, max_degree + 1):
        table[:, k] = ((2 * k - 1) * arr * table[:, k - 1] - (k - 1) * table[:, k - 2]) / k
    table *= np.sqrt((2 * np.arange(max_degree + 1) + 1) / 2.0)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return table[0]
    return table
