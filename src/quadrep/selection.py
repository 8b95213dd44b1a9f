"""Adaptive basis selection for degree-2 fits.

Two strategies: a stream-competition greedy (draw the next unused batch from
each of the three candidate streams, keep whichever batch lowers the
least-squares residual most) and rank-revealing pivoted-QR truncation of the
full candidate matrix.

Each runs in two stages: ``greedy_select`` and ``rrqr_select`` make the
selection run, which does not depend on the number of terms kept (a
``GreedyRun``, an ``RRQRFactor``).  At a given ``max_terms`` either run's
``tags_at`` gives the columns of the rep, and its ``rep_at`` the rep fitted
on them, with the branch table at the grid's nodes that its index was read
from.  Through the method table at the end, ``quadrep fit`` takes one rep
from a run (``fit_method``), a convergence sweep one rep per K (``fit_at_k``)
and its error (``error_at_k``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import (SampleGrid, assemble, check_counts, check_philox_key, STREAM_PLAIN,
                         STREAM_F, STREAM_F2)
from .linalg import DEFAULT_RANK_TOL, PivotedQR, back_substitute, pivoted_qr
from .representation import (coefficients_to_rep, fit_degree0, fit_degree1,
                             fit_degree2_uniform, relative_l2)

__all__ = [
    "BATCH_SIZES",
    "SelectionConfig",
    "StepRecord",
    "GreedyRun",
    "RRQRFactor",
    "greedy_select",
    "rrqr_select",
    "FIT_FLAGS",
    "METHODS",
    "fit_method",
    "achievable_k",
    "method_run",
    "fit_at_k",
    "error_at_k",
]

_STREAMS = (STREAM_PLAIN, STREAM_F, STREAM_F2)
BATCH_SIZES = (1, 3, 5)  # columns drawn per stream and greedy step
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
        if self.batch_size not in BATCH_SIZES:
            *most, last = BATCH_SIZES
            raise ValueError(f"batch_size must be {', '.join(map(str, most))}, or {last}")
        check_counts(stream_cap=self.stream_cap)
        check_philox_key(rng_seed=self.rng_seed)
        if self.target_residual is None and self.max_terms is None:
            raise ValueError("set target_residual and/or max_terms")
        if self.target_residual is not None and not self.target_residual > 0:
            raise ValueError("target_residual must be > 0")
        check_counts(max_terms=self.max_terms)


@dataclass(frozen=True)
class StepRecord:
    step: int
    candidates: dict
    chosen_stream: int
    chosen_tags: tuple
    residual_after: float


def _orthonormalize(basis: np.ndarray, col: np.ndarray):
    """CGS2: (q, R column): ``col`` with its components along the orthonormal
    columns of ``basis`` removed twice, normalized, and the two passes'
    coefficients summed, then the norm; None if nothing independent is left."""
    u, coef = col, np.zeros(basis.shape[1])
    for _ in range(2):  # twice is enough: q is orthogonal to working precision
        c = basis.T @ u
        u, coef = u - basis @ c, coef + c
    rho = np.linalg.norm(u)
    if rho < _DEP_TOL * np.linalg.norm(col) or rho == 0.0:
        return None
    return u / rho, np.append(coef, rho)


@dataclass(frozen=True)
class GreedyRun:
    """One stream-competition run: the kept columns in selection order, and
    the CGS2 factor that chose them: the W-scaled unit columns are Q ``r``.

    With ``batch_size=1`` a run is prefix-consistent: the run stopped at
    ``max_terms=K`` keeps exactly the first K columns of any longer run on
    the same grid and seed (every step draws one column per stream whatever
    the budget, and the seeded tie-breaks come in the same order).  So one
    run to the largest K gives the rep at every smaller K through ``rep_at``.
    """

    grid: SampleGrid
    config: SelectionConfig
    tags: tuple
    norms: np.ndarray  # the kept columns' W-norms
    r: np.ndarray  # K x K upper triangle
    qty: np.ndarray  # Q^T y, y the W-scaled target
    residuals: np.ndarray  # ||y - Q Q^T y|| after each kept column
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
        check_counts(max_terms=max_terms)
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
        """(rep, table): the rep fitted on the (normalized) columns of
        ``tags_at``, by back substitution on the leading K x K block of ``r``,
        and the branch table at the grid's nodes that its index was read from."""
        tags = self.tags_at(max_terms)
        k = len(tags)
        eta_hat = back_substitute(self.r[:k, :k], self.qty[:k])
        config = self.config
        return coefficients_to_rep(
            self.grid, tags, eta_hat / self.norms[:k], float(self.residuals[k - 1]),
            provenance={"method": "greedy", "seed": config.rng_seed,
                        "batch_size": config.batch_size,
                        "max_terms": max_terms,
                        "target_residual": config.target_residual,
                        "stream_cap": config.stream_cap},
        )

    def trace_doc(self, final_residual: float) -> dict:
        """The steps, notes and stop of this run, the trace.json document of
        ``quadrep fit --trace``, with the rep's ``final_residual``."""
        return {
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
        }


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
    kept, r_cols, qty, residuals = [], [], [], []
    steps, notes = [], []
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
            basis, qrs = q_basis, []
            for j in idx:
                qr = None if units[j] is None else _orthonormalize(basis, units[j])
                qrs.append(qr)
                if qr is not None:
                    basis = np.column_stack([basis, qr[0]])
            if all(qr is None for qr in qrs):
                candidates[s] = {"tags": ctags, "residual": None, "note": "dependent"}
                continue
            reduction = sum(float(qr[0] @ resid_vec) ** 2 for qr in qrs if qr is not None)
            cand_resid = float(np.sqrt(max(float(resid_vec @ resid_vec) - reduction, 0.0)))
            candidates[s] = {"tags": ctags, "residual": cand_resid}
            drawn[s] = (idx, qrs, basis)
        if not drawn:
            exhausted = True
            notes.append("all candidate streams exhausted or dependent")
            break
        resids = {s: candidates[s]["residual"] for s in drawn}
        rmin = min(resids.values())
        tied = [s for s in _STREAMS if s in drawn
                and resids[s] - rmin <= _TIE_RTOL * max(rmin, 1e-300)]
        chosen = tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]
        idx, qrs, q_basis = drawn[chosen]
        chosen_tags = []
        for j, qr in zip(idx, qrs):
            if qr is None:
                kind = "zero" if units[j] is None else "dependent"
                notes.append(f"skipped {kind} column {d.tags[j]}")
                continue
            q, r_col = qr
            resid_vec = resid_vec - q * (q @ resid_vec)
            kept.append(j)
            r_cols.append(r_col)
            qty.append(q @ y)
            residuals.append(float(np.linalg.norm(resid_vec)))
            chosen_tags.append(d.tags[j])
        cursors[chosen] += len(idx)
        steps.append(StepRecord(step=step_no, candidates=candidates,
                                chosen_stream=chosen, chosen_tags=tuple(chosen_tags),
                                residual_after=residuals[-1]))
        if config.target_residual is not None and residuals[-1] <= config.target_residual:
            break

    r = np.zeros((len(kept), len(kept)))
    for i, r_col in enumerate(r_cols):
        r[:i + 1, i] = r_col
    return GreedyRun(grid=grid, config=config, tags=tuple(d.tags[j] for j in kept),
                     norms=np.asarray([norms[j] for j in kept], dtype=float), r=r,
                     qty=np.asarray(qty, dtype=float), residuals=np.asarray(residuals),
                     steps=tuple(steps), notes=tuple(notes), exhausted=exhausted,
                     stopped_at_max_terms=stopped_at_max_terms)


@dataclass(frozen=True)
class RRQRFactor:
    """The pivoted QR of one grid's weighted candidate matrix, and the
    columns it keeps: the pivots before the first |R_kk| < truncate_tol * |R_11|.

    Column pivoting chooses its pivots without looking at the truncation
    rank, so this one factorization serves every ``max_terms`` up to its own:
    ``tags_at`` cuts the kept columns and ``rep_at`` solves.  A factor made
    with ``max_terms=m`` stopped pivoting after m columns (its ``fact`` holds
    the first m pivots of the full factorization, bit for bit), so it gives
    the rep at every K <= m and at no other.
    """

    grid: SampleGrid
    stream_cap: int
    max_terms: int | None  # pivots made; None for the full factorization
    truncate_tol: float
    tags: tuple  # the kept columns' tags, in pivot order
    fact: PivotedQR
    target: np.ndarray  # W-scaled target

    def tags_at(self, max_terms: int | None = None) -> tuple:
        """The first ``max_terms`` kept tags (all of them for None).  Raises
        ValueError for ``max_terms`` < 1, and for more terms than a factor
        truncated at its own ``max_terms`` pivoted (None included).
        """
        check_counts(max_terms=max_terms)
        if self.max_terms is not None and (max_terms is None or max_terms > self.max_terms):
            raise ValueError(f"the factor pivoted {self.max_terms} columns and cannot"
                             f" give the rep at max_terms={max_terms}")
        return self.tags[:max_terms]

    def rep_at(self, max_terms: int | None = None):
        """(rep, table): the degree-2 rep fitted in the orthogonal basis of
        ``tags_at``, mapped back through R and the permutation (columns
        pivoted out of the truncation get zero coefficients), and the branch
        table at the grid's nodes that its index was read from."""
        tags = self.tags_at(max_terms)
        gamma, residual = self.fact.solve(self.target, len(tags))
        return coefficients_to_rep(
            self.grid, tags, gamma, residual,
            provenance={"method": "rrqr", "stream_cap": self.stream_cap,
                        "truncate_tol": self.truncate_tol, "max_terms": max_terms},
        )


def rrqr_select(grid: SampleGrid, stream_cap: int = 60, max_terms: int | None = None,
                truncate_tol: float = DEFAULT_RANK_TOL) -> RRQRFactor:
    """Pivoted-QR basis ranking: assemble the candidate matrix, W-scale it and
    factor it with column pivoting, stopped after ``max_terms`` pivots (all of
    them when None): the largest K that the factor is asked for.  A
    ``truncate_tol`` outside [0, 1] is refused before any assembly."""
    check_counts(stream_cap=stream_cap, max_terms=max_terms)
    if not 0 <= truncate_tol <= 1:
        raise ValueError("truncate_tol must be in [0, 1]")
    d = assemble(grid, stream_cap, stream_cap, stream_cap)
    sw = np.sqrt(grid.weights)
    fact = pivoted_qr(d.columns * sw[:, None], steps=max_terms)
    tags = tuple(d.tags[j] for j in fact.perm[:fact.rank(truncate_tol)])
    return RRQRFactor(grid=grid, stream_cap=stream_cap, max_terms=max_terms,
                      truncate_tol=truncate_tol, tags=tags, fact=fact, target=d.target * sw)


# The method table: the five methods that the convergence comparison fits at
# equal K, the number of fitted coefficients, and the `quadrep fit` flags that
# each reads: its degrees, or its run's knobs and (greedy) ``trace``.  A flag
# not given takes the library's default.  deg2-rrqr accepts ``seed`` unused,
# so that one argument list fits either adaptive method.
FIT_FLAGS = {
    "deg0": ("n",),
    "deg1": ("n0", "n1"),
    "deg2-uniform": ("n0", "n1", "n2"),
    "deg2-greedy": ("max_terms", "target_residual", "batch", "cap", "seed", "trace"),
    "deg2-rrqr": ("max_terms", "cap", "tol", "seed"),
}
METHODS = tuple(FIT_FLAGS)
# each fixed-degree method's fit as (rep, branch table at the grid's nodes;
# None below degree 2), and its K less the sum of its degrees (one coefficient
# per polynomial beyond its degree, less the one that it pins)
_FIXED = {"deg0": (lambda grid, **degrees: (fit_degree0(grid, **degrees), None), 1),
          "deg1": (lambda grid, **degrees: (fit_degree1(grid, **degrees), None), 1),
          "deg2-uniform": (fit_degree2_uniform, 2)}


def _k_rule(method: str):
    """(names, offset): ``method`` fits K = len(names) * n + offset with each of ``names`` at n."""
    if method not in FIT_FLAGS:
        raise ValueError(f"unknown method {method!r}; choices: {', '.join(METHODS)}")
    return (FIT_FLAGS[method], _FIXED[method][1]) if method in _FIXED else (("max_terms",), 0)


def _set(**kwargs) -> dict:
    """``kwargs`` but those that are None, which take the callee's default."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _selection_run(grid: SampleGrid, method: str, flags: dict):
    """The run of ``method`` to ``max_terms`` (None for a fixed-degree one);
    greedy_select and rrqr_select are looked up when called, so a rebinding reaches them."""
    common = _set(stream_cap=flags.get("cap"), max_terms=flags.get("max_terms"))
    if method == "deg2-greedy":
        return greedy_select(grid, SelectionConfig(**common, **_set(
            batch_size=flags.get("batch"), target_residual=flags.get("target_residual"),
            rng_seed=flags.get("seed"))))
    tol = _set(truncate_tol=flags.get("tol"))
    return rrqr_select(grid, **common, **tol) if method == "deg2-rrqr" else None


def fit_method(grid: SampleGrid, method: str, flags: dict, run=None):
    """(rep, K, run, table): ``method``'s rep with its ``FIT_FLAGS`` in
    ``flags`` (a flag missing or None takes its default), its K, the run it
    truncates (``run`` if given, else its own to ``max_terms``; None for fixed
    degrees), and the branch table at the grid's nodes that a degree-2 rep's
    index was read from (None for deg0 and deg1)."""
    _, offset = _k_rule(method)
    flags = {f: flags.get(f) for f in FIT_FLAGS[method]}
    if method in _FIXED:
        degrees = {n: 0 if d is None else d for n, d in flags.items()}
        rep, table = _FIXED[method][0](grid, **degrees)
        return rep, sum(degrees.values()) + offset, None, table
    run = _selection_run(grid, method, flags) if run is None else run
    rep, table = run.rep_at(flags["max_terms"])
    return rep, len(run.tags_at(flags["max_terms"])), run, table


def achievable_k(method: str, kmin: int, kmax: int) -> list[int]:
    """The K in [max(kmin, 1), kmax] at which ``method`` fits exactly K
    coefficients: odd K for deg1, K = 3n + 2 for deg2-uniform, every K for
    the others."""
    names, offset = _k_rule(method)
    return [k for k in range(max(kmin, 1), kmax + 1) if (k - offset) % len(names) == 0]


def method_run(grid: SampleGrid, method: str, kmax: int, seed: int, cap: int):
    """The selection run that every K <= kmax of an adaptive method truncates
    (a ``GreedyRun`` to kmax terms, or an ``RRQRFactor`` pivoted to kmax
    columns); None for a fixed-degree method."""
    _k_rule(method)  # ValueError for an unknown method
    return _selection_run(grid, method, {"max_terms": kmax, "seed": seed, "cap": cap})


def _fit_k(grid: SampleGrid, method: str, k: int, run):
    """``fit_method`` at the flags that give ``method`` K coefficients."""
    names, offset = _k_rule(method)
    return fit_method(grid, method, dict.fromkeys(names, (k - offset) // len(names)), run)


def fit_at_k(grid: SampleGrid, method: str, k: int, run=None):
    """The rep ``method`` fits with K coefficients; at a K that ``achievable_k``
    skips, the rep at the largest achievable K below it.  An adaptive method
    truncates ``run``, its ``method_run`` to at least K terms."""
    return _fit_k(grid, method, k, run)[0]


def error_at_k(grid: SampleGrid, method: str, k: int, run=None) -> float:
    """``relative_l2`` of ``fit_at_k``'s rep on ``grid``, at a K that
    ``achievable_k`` gives.  A degree-2 rep is read from the branch table that
    its index was assigned from, so the cell builds one table.  ValueError if
    the fit keeps fewer than K coefficients (an adaptive run that stopped
    short of K)."""
    rep, kept, _, table = _fit_k(grid, method, k, run)
    if kept != k:
        raise ValueError(f"{method} keeps {kept} coefficients, fewer than K={k}")
    return relative_l2(rep, grid, table)
