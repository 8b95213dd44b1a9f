"""Sample grids and the three-stream degree-2 candidate dictionary.

Stream 1 holds plain Legendre columns, stream 2 the same columns multiplied
elementwise by f, and stream 3 (starting at degree 1) by f^2.  The constant
f^2-column is the regression target, so it never appears among the
candidates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orthopoly import gauss_legendre, legendre_row, to_unit

__all__ = [
    "DataError",
    "SampleGrid",
    "build_grid",
    "tabulated_grid",
    "Dictionary",
    "check_degrees",
    "check_counts",
    "check_philox_key",
    "assemble",
    "STREAM_PLAIN",
    "STREAM_F",
    "STREAM_F2",
]

STREAM_PLAIN = 1
STREAM_F = 2
STREAM_F2 = 3


class DataError(ValueError):
    """Input samples are unusable (non-finite values, malformed table)."""


@dataclass(frozen=True)
class SampleGrid:
    """Sampled function values on a domain, with the weights used for fitting.

    Quadrature grids carry Gauss-Legendre weights mapped to the domain (so
    discrete inner products approximate integrals); tabulated grids carry
    unit weights (plain sums) and no exactness guarantees.
    """

    domain: tuple[float, float]
    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    is_quadrature: bool = False

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != values.shape or nodes.shape != weights.shape:
            raise ValueError("nodes, values, weights must be 1-D and equally long")
        # before the domain check: a tabulated grid's domain is its end nodes
        if not np.all(np.isfinite(nodes)):
            raise DataError("non-finite sample positions")
        lo, hi = self.domain
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"degenerate domain {self.domain}")
        object.__setattr__(self, "domain", (float(lo), float(hi)))
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise DataError("non-finite sample values")

    @property
    def size(self) -> int:
        return self.nodes.size

    def to_unit(self, x):
        """Affine map domain -> [-1, 1]."""
        return to_unit(self.domain, x)

    @property
    def unit_nodes(self) -> np.ndarray:
        return self.to_unit(self.nodes)

    def legendre_table(self, max_degree: int) -> np.ndarray:
        """Rows of L_0..L_max_degree at the grid nodes (in unit coordinates)."""
        t = np.clip(self.unit_nodes, -1.0, 1.0)
        return legendre_row(max_degree, t)


def build_grid(f, domain: tuple[float, float] = (-1.0, 1.0), order: int = 1000) -> SampleGrid:
    """Quadrature grid of the given order with f evaluated at the mapped nodes."""
    if order < 2:
        raise ValueError("quadrature grid needs order >= 2")
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError(f"degenerate domain {domain}")
    rule = gauss_legendre(order)
    nodes = 0.5 * (hi - lo) * rule.nodes + 0.5 * (lo + hi)
    values = np.asarray([f(x) for x in nodes], dtype=float)
    weights = rule.weights * 0.5 * (hi - lo)
    return SampleGrid(domain=(lo, hi), nodes=nodes, values=values, weights=weights,
                      is_quadrature=True)


def tabulated_grid(positions, values) -> SampleGrid:
    """Unit-weight grid over given sample positions (denoising-style data)."""
    positions = np.asarray(positions, dtype=float)
    values = np.asarray(values, dtype=float)
    if positions.ndim != 1 or positions.shape != values.shape or positions.size < 2:
        raise DataError("need matching 1-D position/value arrays with >= 2 samples")
    return SampleGrid(
        domain=(float(positions[0]), float(positions[-1])),
        nodes=positions,
        values=values,
        weights=np.ones_like(positions),
    )


@dataclass(frozen=True)
class Dictionary:
    """The candidate columns, the regression target, and one tag per column.

    Tags are (stream id, Legendre degree) pairs; they uniquely identify a
    column and are the provenance carried through selection traces.
    """

    columns: np.ndarray
    target: np.ndarray
    tags: tuple[tuple[int, int], ...]


def check_degrees(**degrees: int) -> None:
    """ValueError naming the first of the polynomial ``degrees`` below 0."""
    for name, n in degrees.items():
        if n < 0:
            raise ValueError(f"{name} must be >= 0")


def check_counts(**counts: int | None) -> None:
    """ValueError naming the first of the column ``counts`` below 1; None passes."""
    for name, n in counts.items():
        if n is not None and n < 1:
            raise ValueError(f"{name} must be >= 1")


def check_philox_key(**keys: int) -> None:
    """ValueError naming the first of ``keys`` outside [0, 2**128), the Philox keys."""
    for name, key in keys.items():
        if not 0 <= key < 2 ** 128:
            raise ValueError(f"{name} must be >= 0 and < 2**128")


def assemble(grid: SampleGrid, n0: int, n1: int, n2: int) -> Dictionary:
    """Dictionary with streams up to degrees n0 / n1 / n2 and target f^2*L_0.

    K = n0 + n1 + n2 + 2 columns in total; stream 3 starts at degree 1.
    """
    check_degrees(n0=n0, n1=n1, n2=n2)
    f = grid.values
    max_deg = max(n0, n1, n2)
    table = grid.legendre_table(max_deg)
    columns = np.hstack([
        table[:, : n0 + 1],
        table[:, : n1 + 1] * f[:, None],
        table[:, 1 : n2 + 1] * (f * f)[:, None],
    ])
    target = (f * f) * table[:, 0]
    tags = (
        [(STREAM_PLAIN, d) for d in range(n0 + 1)]
        + [(STREAM_F, d) for d in range(n1 + 1)]
        + [(STREAM_F2, d) for d in range(1, n2 + 1)]
    )
    return Dictionary(
        columns=columns,
        target=target,
        tags=tuple(tags),
    )
