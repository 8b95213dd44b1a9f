"""Adaptive basis selection for degree-2 fits.

Two strategies: a stream-competition greedy (draw the next unused batch from
each of the three candidate streams, keep whichever batch lowers the
least-squares residual most) and rank-revealing pivoted-QR truncation of the
full candidate matrix.

Each runs in two stages: ``greedy_select`` and ``rrqr_select`` make the
selection run, which does not depend on the number of terms kept (a
``GreedyRun``, an ``RRQRFactor``).  At a given ``max_terms`` either run's
``tags_at`` gives the columns of the rep, and its ``rep_at`` the rep fitted
on them.  ``quadrep fit`` takes one rep from a run; a convergence sweep
takes one rep per K from one run.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dictionary import SampleGrid, assemble, STREAM_PLAIN, STREAM_F, STREAM_F2
from .linalg import PivotedQR, householder_qr, pivoted_qr, qr_solve
from .representation import (coefficients_to_rep, fit_degree0, fit_degree1,
                             fit_degree2_uniform)

__all__ = [
    "SelectionConfig",
    "StepRecord",
    "GreedyRun",
    "RRQRFactor",
    "greedy_select",
    "rrqr_select",
    "METHODS",
    "achievable_k",
    "method_run",
    "fit_at_k",
]

_STREAMS = (STREAM_PLAIN, STREAM_F, STREAM_F2)
_TIE_RTOL = 1e-12
_DEP_TOL = 1e-13


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs for the greedy run; either target_residual or max_terms must stop it."""

    batch_size: int = 1
    target_residual: float | None = None
    max_terms: int | None = None
    stream_cap: int = 60
    rng_seed: int = 0

    def __post_init__(self):
        if self.batch_size not in (1, 3, 5):
            raise ValueError("batch_size must be 1, 3, or 5")
        if self.stream_cap < 1:
            raise ValueError("stream_cap must be >= 1")
        if self.target_residual is None and self.max_terms is None:
            raise ValueError("set target_residual and/or max_terms")
        if self.target_residual is not None and self.target_residual <= 0:
            raise ValueError("target_residual must be > 0")
        if self.max_terms is not None and self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    step: int
    candidates: dict
    chosen_stream: int
    chosen_tags: tuple
    residual_after: float


def _orthonormalize(basis: np.ndarray, col: np.ndarray):
    """CGS2: ``col`` with its components along the orthonormal columns of
    ``basis`` removed twice, normalized; None if nothing independent is left."""
    u = col
    if basis.shape[1]:
        u = u - basis @ (basis.T @ u)
        u = u - basis @ (basis.T @ u)
    rho = np.linalg.norm(u)
    if rho < _DEP_TOL * np.linalg.norm(col) or rho == 0.0:
        return None
    return u / rho


@dataclass(frozen=True)
class GreedyRun:
    """One stream-competition run: the kept columns in selection order.

    With ``batch_size=1`` a run is prefix-consistent: the run stopped at
    ``max_terms=K`` keeps exactly the first K columns of any longer run on
    the same grid and seed (every step draws one column per stream whatever
    the budget, and the seeded tie-breaks come in the same order).  So one
    run to the largest K gives the rep at every smaller K through ``rep_at``.
    """

    grid: SampleGrid
    config: SelectionConfig
    tags: tuple
    columns: np.ndarray  # kept W-scaled columns, each divided by its norm
    norms: np.ndarray
    target: np.ndarray  # W-scaled target
    steps: tuple
    notes: tuple
    exhausted: bool
    stopped_at_max_terms: bool

    def tags_at(self, max_terms: int | None) -> tuple:
        """The tags kept by the run with this run's config and ``max_terms``.

        Raises ValueError for ``max_terms`` < 1, and where this run does not
        determine them: another ``max_terms`` with ``batch_size`` 3 or 5,
        whose last batch would be cut to the budget, or more terms than a run
        stopped at its own ``max_terms`` kept.
        """
        if max_terms is not None and max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        n = len(self.tags)
        k = n
        if max_terms != self.config.max_terms:
            if self.config.batch_size != 1:
                raise ValueError(
                    f"batch_size {self.config.batch_size} is not prefix-consistent:"
                    f" a run to max_terms={self.config.max_terms} does not give"
                    f" the rep at max_terms={max_terms}")
            if max_terms is not None and max_terms < n:
                k = max_terms
            elif self.stopped_at_max_terms:
                raise ValueError(f"the run stopped at {n} terms and cannot give"
                                 f" the rep at max_terms={max_terms}")
        if k == 0:
            raise ValueError("greedy selection kept no columns")
        return self.tags[:k]

    def rep_at(self, max_terms: int | None):
        """The rep fitted on the (normalized) columns of ``tags_at``."""
        tags = self.tags_at(max_terms)
        k = len(tags)
        eta_hat, final_residual = qr_solve(*householder_qr(self.columns[:, :k]), self.target)
        config = self.config
        return coefficients_to_rep(
            self.grid, tags, eta_hat / self.norms[:k], final_residual,
            provenance={"method": "greedy", "seed": config.rng_seed,
                        "batch_size": config.batch_size,
                        "max_terms": max_terms,
                        "target_residual": config.target_residual,
                        "stream_cap": config.stream_cap},
        )

    def trace_json(self, final_residual: float) -> str:
        """The steps, notes and stop of this run as ``quadrep fit --trace``
        writes them, with the rep's ``final_residual``."""
        return json.dumps({
            "rng_seed": self.config.rng_seed,
            "final_residual": final_residual,
            "exhausted": self.exhausted,
            "notes": list(self.notes),
            "steps": [
                {
                    "step": s.step,
                    "candidates": {
                        str(stream): info for stream, info in s.candidates.items()
                    },
                    "chosen_stream": s.chosen_stream,
                    "chosen_tags": [list(t) for t in s.chosen_tags],
                    "residual_after": s.residual_after,
                }
                for s in self.steps
            ],
        }, indent=2)


def greedy_select(grid: SampleGrid, config: SelectionConfig) -> GreedyRun:
    """Stream-competition greedy selection, run until ``config`` stops it.

    Each step draws the next ``batch_size`` unused columns from every stream,
    W-normalizes them, orthonormalizes each once against the kept basis and
    the batch's earlier vectors, and keeps the stream whose tentative
    least-squares residual is smallest, with the vectors it was scored by.
    Exact ties (relative 1e-12) are broken by a seeded uniform draw.
    Rejected draws stay available; only the chosen stream's cursor advances.
    """
    cap = config.stream_cap
    d = assemble(grid, cap, cap, cap)
    sw = np.sqrt(grid.weights)
    scaled = d.columns * sw[:, None]
    norms = [np.linalg.norm(scaled[:, j]) for j in range(len(d.tags))]
    units = [scaled[:, j] / n if n else None for j, n in enumerate(norms)]
    by_stream = {s: [j for j, tag in enumerate(d.tags) if tag[0] == s] for s in _STREAMS}
    y = d.target * sw
    rng = np.random.Generator(np.random.Philox(key=config.rng_seed))

    q_basis = np.empty((grid.size, 0))
    resid_vec = y.copy()
    cursors = {s: 0 for s in _STREAMS}
    kept: list = []
    steps = []
    notes = []
    exhausted = False
    stopped_at_max_terms = False
    step_no = 0

    while True:
        if config.max_terms is not None and len(kept) >= config.max_terms:
            stopped_at_max_terms = True
            break
        take = config.batch_size
        if config.max_terms is not None:
            take = min(take, config.max_terms - len(kept))
        step_no += 1
        candidates = {}
        drawn = {}
        for s in _STREAMS:
            idx = by_stream[s][cursors[s]:cursors[s] + take]
            if not idx:
                candidates[s] = {"tags": [], "residual": None, "note": "exhausted"}
                continue
            ctags = [list(d.tags[j]) for j in idx]
            basis, qs = q_basis, []
            for j in idx:
                q = None if units[j] is None else _orthonormalize(basis, units[j])
                qs.append(q)
                if q is not None:
                    basis = np.column_stack([basis, q])
            if all(q is None for q in qs):
                candidates[s] = {"tags": ctags, "residual": None, "note": "dependent"}
                continue
            reduction = sum(float(q @ resid_vec) ** 2 for q in qs if q is not None)
            cand_resid = float(np.sqrt(max(float(resid_vec @ resid_vec) - reduction, 0.0)))
            candidates[s] = {"tags": ctags, "residual": cand_resid}
            drawn[s] = (idx, qs, basis)
        if not drawn:
            exhausted = True
            notes.append("all candidate streams exhausted or dependent")
            break
        resids = {s: candidates[s]["residual"] for s in drawn}
        rmin = min(resids.values())
        tied = [s for s in _STREAMS if s in drawn
                and resids[s] - rmin <= _TIE_RTOL * max(rmin, 1e-300)]
        chosen = tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]
        idx, qs, q_basis = drawn[chosen]
        chosen_tags = []
        for j, q in zip(idx, qs):
            if q is None:
                kind = "zero" if units[j] is None else "dependent"
                notes.append(f"skipped {kind} column {d.tags[j]}")
                continue
            resid_vec = resid_vec - q * (q @ resid_vec)
            kept.append(j)
            chosen_tags.append(d.tags[j])
        cursors[chosen] += len(idx)
        residual_after = float(np.linalg.norm(resid_vec))
        steps.append(StepRecord(step=step_no, candidates=candidates,
                                chosen_stream=chosen, chosen_tags=tuple(chosen_tags),
                                residual_after=residual_after))
        if config.target_residual is not None and residual_after <= config.target_residual:
            break

    columns = np.column_stack([units[j] for j in kept]) if kept else np.empty((grid.size, 0))
    return GreedyRun(grid=grid, config=config, tags=tuple(d.tags[j] for j in kept),
                     columns=columns, norms=np.asarray([norms[j] for j in kept], dtype=float),
                     target=y, steps=tuple(steps), notes=tuple(notes), exhausted=exhausted,
                     stopped_at_max_terms=stopped_at_max_terms)


@dataclass(frozen=True)
class RRQRFactor:
    """The pivoted QR of one grid's weighted candidate matrix.

    Column pivoting chooses its pivots without looking at the truncation
    rank, so this one factorization serves every ``max_terms`` up to its own:
    ``tags_at`` truncates it and ``rep_at`` solves.  A factor made with
    ``max_terms=m`` stopped pivoting after m columns (its ``fact`` holds the
    first m pivots of the full factorization, bit for bit), so it gives the
    rep at every K <= m and at no other.
    """

    grid: SampleGrid
    stream_cap: int
    max_terms: int | None  # pivots made; None for the full factorization
    tags: tuple  # candidate tags in dictionary column order
    fact: PivotedQR
    target: np.ndarray  # W-scaled target

    def tags_at(self, max_terms: int | None = None, truncate_tol: float = 1e-12) -> tuple:
        """The tags of the pivots before the first |R_kk| < truncate_tol *
        |R_11|, at most ``max_terms`` of them.  Raises ValueError for
        ``max_terms`` < 1, for more terms than a factor truncated at its own
        ``max_terms`` pivoted (None included), and for an empty truncation.
        """
        if max_terms is not None and max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.max_terms is not None and (max_terms is None or max_terms > self.max_terms):
            raise ValueError(f"the factor pivoted {self.max_terms} columns and cannot"
                             f" give the rep at max_terms={max_terms}")
        fact = self.fact
        rank = fact.rank(truncate_tol)
        if max_terms is not None:
            rank = min(rank, max_terms)
        if rank == 0:
            raise ValueError("truncation removed every candidate column")
        return tuple(self.tags[j] for j in fact.perm[:rank])

    def rep_at(self, max_terms: int | None = None, truncate_tol: float = 1e-12):
        """The degree-2 rep fitted in the orthogonal basis of ``tags_at``,
        mapped back through R and the permutation (columns pivoted out of the
        truncation get zero coefficients)."""
        tags = self.tags_at(max_terms, truncate_tol)
        gamma, residual = self.fact.solve(self.target, len(tags))
        return coefficients_to_rep(
            self.grid, tags, gamma, residual,
            provenance={"method": "rrqr", "stream_cap": self.stream_cap,
                        "truncate_tol": truncate_tol, "max_terms": max_terms},
        )


def rrqr_select(grid: SampleGrid, stream_cap: int = 60,
                max_terms: int | None = None) -> RRQRFactor:
    """Pivoted-QR basis ranking: assemble the candidate matrix, W-scale it and
    factor it with column pivoting, stopped after ``max_terms`` pivots (all of
    them when None): the largest K that the factor is asked for."""
    if stream_cap < 1:
        raise ValueError("stream_cap must be >= 1")
    if max_terms is not None and max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    d = assemble(grid, stream_cap, stream_cap, stream_cap)
    sw = np.sqrt(grid.weights)
    fact = pivoted_qr(d.columns * sw[:, None], steps=max_terms)
    return RRQRFactor(grid=grid, stream_cap=stream_cap, max_terms=max_terms, tags=d.tags,
                      fact=fact, target=d.target * sw)


# The method table: the five methods that the convergence comparison fits at
# equal K, the number of fitted coefficients.  Per method: K = step * n +
# offset; the rep at n from the method's run; the run builder, or None.  deg0
# fits degree n = K - 1, deg1 two polynomials of degree n, deg2-uniform three;
# an adaptive method keeps the first n = K columns of its run.  The builders
# look greedy_select and rrqr_select up when called, so a rebinding of either
# module name reaches them.
_TABLE = {
    "deg0": (1, 1, lambda grid, n, run: fit_degree0(grid, n), None),
    "deg1": (2, 1, lambda grid, n, run: fit_degree1(grid, n, n), None),
    "deg2-uniform": (3, 2, lambda grid, n, run: fit_degree2_uniform(grid, n, n, n), None),
    "deg2-greedy": (1, 0, lambda grid, n, run: run.rep_at(n),
                    lambda grid, kmax, seed, cap: greedy_select(grid, SelectionConfig(
                        max_terms=kmax, rng_seed=seed, stream_cap=cap))),
    "deg2-rrqr": (1, 0, lambda grid, n, run: run.rep_at(n),
                  lambda grid, kmax, seed, cap: rrqr_select(grid, stream_cap=cap,
                                                            max_terms=kmax)),
}
METHODS = tuple(_TABLE)


def _method(method: str):
    try:
        return _TABLE[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choices: {', '.join(METHODS)}") from None


def achievable_k(method: str, kmin: int, kmax: int) -> list[int]:
    """The K in [max(kmin, 1), kmax] at which ``method`` fits exactly K
    coefficients: odd K for deg1, K = 3n + 2 for deg2-uniform, every K for
    the others."""
    step, offset, _, _ = _method(method)
    return [k for k in range(max(kmin, 1), kmax + 1) if (k - offset) % step == 0]


def method_run(grid: SampleGrid, method: str, kmax: int, seed: int, cap: int):
    """The selection run that every K <= kmax of an adaptive method truncates
    (a ``GreedyRun`` to kmax terms, or an ``RRQRFactor`` pivoted to kmax
    columns); None for a fixed-degree method."""
    build = _method(method)[3]
    return None if build is None else build(grid, kmax, seed, cap)


def fit_at_k(grid: SampleGrid, method: str, k: int, run=None):
    """The rep ``method`` fits with K coefficients; at a K that ``achievable_k``
    skips, the rep at the largest achievable K below it.  An adaptive method
    truncates ``run``, its ``method_run`` to at least K terms."""
    step, offset, fit, _ = _method(method)
    return fit(grid, (k - offset) // step, run)
