import csv
import functools
import math
import sys

import numpy as np
import pytest

from quadrep import linalg, representation, selection
from quadrep.cli import main
from quadrep.denoise import NUMERICAL_ERRORS, normal_stream
from quadrep.dictionary import STREAM_F, STREAM_F2, STREAM_PLAIN, assemble, build_grid
from quadrep.functions import BUILTINS, get_builtin
from quadrep.linalg import weighted_lsq
from quadrep.representation import (
    BASIS_MONOMIAL,
    ComplexRootError,
    EvaluationError,
    PoleError,
    Rep,
    basis_convert,
    coefficients_to_rep,
    fit_degree0,
    fit_degree1,
    fit_degree2_uniform,
    relative_l2,
    rep_to_dict,
    roots_at,
)
from quadrep.selection import (
    METHODS,
    GreedyRun,
    SelectionConfig,
    StepRecord,
    achievable_k,
    fit_at_k,
    fit_method,
    greedy_select,
    method_run,
    rrqr_select,
)


@functools.lru_cache(maxsize=None)
def grid_of(name, order=1000):
    fn = get_builtin(name)
    return build_grid(fn.fn, fn.domain, order)


SIN_GRID = grid_of("sin10pi")
SIG_GRID = grid_of("sigmoid60")


def test_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(batch_size=2, max_terms=4)
    with pytest.raises(ValueError):
        SelectionConfig()
    with pytest.raises(ValueError):
        SelectionConfig(target_residual=-1.0)


def test_two_term_oscillatory_manifold():
    run = greedy_select(SIN_GRID, SelectionConfig(max_terms=2, rng_seed=1))
    rep, _ = run.rep_at(2)
    assert sum(len(s.chosen_tags) for s in run.steps) == 2
    # the winning manifold is f^2 = 1/2: both roots are +-1/sqrt(2)
    for x in np.linspace(-1, 1, 11):
        r = roots_at(rep, x)
        assert abs(r.lo + 1 / math.sqrt(2)) < 1e-6
        assert abs(r.hi - 1 / math.sqrt(2)) < 1e-6


def test_two_term_degree0_linear_coefficients_monomial():
    rep = fit_degree0(SIN_GRID, 1)
    mono = basis_convert(rep.c, BASIS_MONOMIAL)
    assert abs(mono.coeffs[0]) < 1e-3
    assert abs(mono.coeffs[1] - (-0.095)) < 5e-3


def test_greedy_residuals_monotone_and_trace_consistent():
    config = SelectionConfig(max_terms=10, rng_seed=0)
    run = greedy_select(SIG_GRID, config)
    residuals = [s.residual_after for s in run.steps]
    assert all(residuals[i + 1] <= residuals[i] + 1e-13 for i in range(len(residuals) - 1))
    # trace residuals equal from-scratch weighted least squares on the same columns
    d = assemble(SIG_GRID, config.stream_cap, config.stream_cap, config.stream_cap)
    chosen = []
    for step in run.steps:
        chosen.extend(tuple(t) for t in step.chosen_tags)
        cols = np.column_stack([d.columns[:, d.tags.index(t)] for t in chosen])
        _, batch_resid = weighted_lsq(cols, d.target, SIG_GRID.weights)
        assert abs(step.residual_after - batch_resid) < 1e-11


def test_greedy_tags_unique_and_final_residual_matches():
    run = greedy_select(SIG_GRID, SelectionConfig(max_terms=12, rng_seed=3))
    rep, _ = run.rep_at(12)
    tags = [tuple(t) for s in run.steps for t in s.chosen_tags]
    assert len(tags) == len(set(tags))
    assert rep.fit_residual == pytest.approx(run.steps[-1].residual_after, abs=1e-12)
    assert run.trace_doc(rep.fit_residual)["final_residual"] == rep.fit_residual


def test_greedy_is_deterministic():
    config = SelectionConfig(max_terms=8, rng_seed=7)
    run1, run2 = greedy_select(SIG_GRID, config), greedy_select(SIG_GRID, config)
    rep1, rep2 = run1.rep_at(8)[0], run2.rep_at(8)[0]
    assert np.array_equal(rep1.b.coeffs, rep2.b.coeffs)
    assert np.array_equal(rep1.c.coeffs, rep2.c.coeffs)
    assert run1.trace_doc(rep1.fit_residual) == run2.trace_doc(rep2.fit_residual)


def test_greedy_batch_modes_run():
    for batch in (3, 5):
        run = greedy_select(SIG_GRID, SelectionConfig(batch_size=batch, max_terms=batch * 2,
                                                      rng_seed=0))
        run.rep_at(batch * 2)
        assert sum(len(s.chosen_tags) for s in run.steps) == batch * 2


def test_greedy_stops_at_target_residual():
    run = greedy_select(SIG_GRID, SelectionConfig(target_residual=1e-6, rng_seed=0))
    assert run.rep_at(None)[0].fit_residual <= 1e-6
    assert not run.exhausted
    # it stops as soon as the target is met, not at the stream cap
    assert len(run.steps) < 30


def test_greedy_exhaustion_flag():
    config = SelectionConfig(target_residual=1e-30, stream_cap=2, rng_seed=0)
    run = greedy_select(SIG_GRID, config)
    assert run.exhausted
    assert run.rep_at(None)[0].fit_residual > 1e-30


def test_greedy_exponential_decay_on_sigmoid():
    run = greedy_select(SIG_GRID, SelectionConfig(max_terms=20, rng_seed=1))
    residuals = np.array([s.residual_after for s in run.steps])
    ks = np.arange(1, residuals.size + 1)
    tail = (residuals > 1e-13) & (residuals < 1e-1)
    slope = np.polyfit(ks[tail], np.log(residuals[tail]), 1)[0]
    assert slope < -0.2


def test_greedy_trace_serializes():
    run = greedy_select(SIN_GRID, SelectionConfig(max_terms=3, rng_seed=2))
    doc = run.trace_doc(run.rep_at(3)[0].fit_residual)
    assert doc["rng_seed"] == 2
    assert len(doc["steps"]) == 3
    assert all("candidates" in s for s in doc["steps"])


def test_rrqr_polynomial_target_is_exact():
    grid = build_grid(lambda x: 0.3 - 0.8 * x + 0.5 * x**3, (-1.0, 1.0), 400)
    rep, _ = rrqr_select(grid, stream_cap=10, truncate_tol=1e-12).rep_at()
    assert rep.fit_residual < 1e-12


def test_rrqr_rank_report_on_dependent_dictionary():
    grid = build_grid(lambda x: x, (-1.0, 1.0), 400)
    factor = rrqr_select(grid, stream_cap=6, truncate_tol=1e-10)
    assert isinstance(factor.rep_at()[0], Rep)
    assert len(factor.tags_at()) < len(assemble(grid, 6, 6, 6).tags)
    assert np.all(np.diff(factor.fact.diag) <= 1e-14)


def test_rrqr_prefers_the_orthonormal_plain_stream():
    # the plain Legendre columns are exactly W-orthonormal, so column-norm
    # pivoting provably selects all of them before any f-weighted column
    tags = rrqr_select(SIG_GRID, stream_cap=40).tags_at(18)
    assert all(tag[0] == STREAM_PLAIN for tag in tags)
    assert [tag[1] for tag in tags] == list(range(18))


def test_rrqr_mapped_coefficients_reproduce_truncated_fit():
    cap, tol = 40, 1e-12
    factor = rrqr_select(SIG_GRID, stream_cap=cap, truncate_tol=tol)
    rep, _ = factor.rep_at()
    d = assemble(SIG_GRID, cap, cap, cap)
    sw = np.sqrt(SIG_GRID.weights)
    # prediction through the mapped-back coefficients
    beta = np.zeros(len(d.tags))
    tag_to_col = {tag: j for j, tag in enumerate(d.tags)}
    coeffs = {1: rep.c.coeffs, 2: rep.b.coeffs}
    for (stream, degree) in factor.tags_at():
        if stream == 1:
            beta[tag_to_col[(stream, degree)]] = rep.c.coeffs[degree]
        elif stream == 2:
            beta[tag_to_col[(stream, degree)]] = rep.b.coeffs[degree]
        else:
            beta[tag_to_col[(stream, degree)]] = -rep.a.coeffs[degree]
    predicted = (d.columns @ beta) * sw
    target = d.target * sw
    # compare against the orthogonal-basis fit residual
    assert abs(np.linalg.norm(predicted - target) - rep.fit_residual) < 1e-10


def test_rrqr_truncate_tol_outside_unit_interval_raises():
    grid = build_grid(lambda x: 0.0, (-1.0, 1.0), 100)
    # all-zero f wipes streams 2-3; tol=1 still keeps the first pivot, and a
    # tol that would keep none (2) or that no comparison passes (NaN) is refused
    assert len(rrqr_select(grid, stream_cap=3, truncate_tol=1.0).tags_at()) >= 1
    for tol in (2.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=r"truncate_tol must be in \[0, 1\]"):
            rrqr_select(grid, stream_cap=3, truncate_tol=tol)


def test_rrqr_bad_truncate_tol_raises_before_assembly(monkeypatch):
    calls = []
    monkeypatch.setattr(selection, "assemble", lambda *a: calls.append(a))
    for tol in (2.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="truncate_tol"):
            rrqr_select(SIG_GRID, truncate_tol=tol)
        with pytest.raises(ValueError, match="truncate_tol"):
            fit_method(SIG_GRID, "deg2-rrqr", {"tol": tol})
    assert calls == []


def test_both_runs_keep_their_columns_in_selection_order():
    # tags are the kept columns on either run: the greedy's in the order
    # chosen, the factor's in pivot order, cut at its numerical rank
    greedy = greedy_select(SIG_GRID, SelectionConfig(max_terms=9, rng_seed=0))
    assert greedy.tags_at(9) == greedy.tags and len(greedy.tags) == 9
    factor = rrqr_select(SIG_GRID, stream_cap=40, truncate_tol=1e-6)
    d = assemble(SIG_GRID, 40, 40, 40)
    assert factor.tags == tuple(d.tags[j] for j in factor.fact.perm[:factor.fact.rank(1e-6)])
    assert factor.tags_at() == factor.tags and factor.tags_at(5) == factor.tags[:5]


def test_rrqr_beats_nothing_smaller_than_greedy_documented():
    # measured behavior: column-norm pivoting cannot outperform the greedy
    # stream competition on the sigmoid at small K (the plain stream wins
    # every pivot), so its reconstruction error stays far above greedy's
    rep_g, _ = greedy_select(SIG_GRID, SelectionConfig(max_terms=14, rng_seed=1)).rep_at(14)
    rep_r, _ = rrqr_select(SIG_GRID, stream_cap=40).rep_at(14)
    assert relative_l2(rep_g, SIG_GRID) < 1e-2
    with pytest.raises(ComplexRootError):  # no real value at some node: no error at all
        relative_l2(rep_r, SIG_GRID)


# the largest K of each table of scripts/run_convergence_experiments.py
PREFIX_KMAX = {"sigmoid60": 44, "heaviside-sine": 34, "sin10pi": 64}


def _rep_doc(make):
    """rep_to_dict of make()'s rep (coefficients, residual, index, provenance),
    or the error it raised."""
    try:
        rep, tags = make()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return rep_to_dict(rep), tuple(tags)


@pytest.mark.parametrize("name", sorted(PREFIX_KMAX))
def test_greedy_run_prefix_is_greedy_select_at_every_k(name):
    grid = grid_of(name)
    kmax = PREFIX_KMAX[name]
    run = greedy_select(grid, SelectionConfig(max_terms=kmax, rng_seed=0, stream_cap=60))
    for k in range(2, kmax + 1):
        config = SelectionConfig(max_terms=k, rng_seed=0, stream_cap=60)

        def reference():
            fresh = greedy_select(grid, config)
            return fresh.rep_at(k)[0], [tuple(t) for s in fresh.steps for t in s.chosen_tags]

        shared = _rep_doc(lambda: (run.rep_at(k)[0], run.tags_at(k)))
        assert shared == _rep_doc(reference), f"{name} K={k}"


@pytest.mark.parametrize("name", sorted(PREFIX_KMAX))
def test_rrqr_factor_truncation_is_rrqr_select_at_every_k(name):
    # order 200 keeps the kmax - 1 fresh 200x181 factorizations of the
    # reference cheap; the pivots do not depend on the truncation at any order
    grid = grid_of(name, order=200)
    kmax = PREFIX_KMAX[name]
    factor = rrqr_select(grid, stream_cap=60)

    def doc(run, k):
        return lambda: (run.rep_at(k)[0], run.tags_at(k))

    for k in range(2, kmax + 1):
        shared = _rep_doc(doc(factor, k))
        assert shared == _rep_doc(doc(rrqr_select(grid, stream_cap=60), k)), f"{name} K={k}"
        # a factor that stops pivoting at K gives the same rep
        truncated = rrqr_select(grid, stream_cap=60, max_terms=k)
        assert shared == _rep_doc(doc(truncated, k)), f"{name} K={k}"


def test_greedy_run_refuses_reps_it_does_not_determine():
    run = greedy_select(SIG_GRID, SelectionConfig(batch_size=3, max_terms=9, rng_seed=0))
    assert run.rep_at(9)[0].fit_residual == greedy_select(
        SIG_GRID, SelectionConfig(batch_size=3, max_terms=9, rng_seed=0)).rep_at(9)[0].fit_residual
    # a run cut at 5 terms draws a batch of 2 where the longer run drew 3
    refused = [(run, 5, "prefix-consistent")]
    run = greedy_select(SIG_GRID, SelectionConfig(max_terms=6, rng_seed=0))
    refused += [(run, 7, "stopped at 6 terms"), (run, None, "stopped at 6 terms")]
    # a run stopped by its target fits a budget below 1 to no prefix
    run = greedy_select(SIG_GRID, SelectionConfig(target_residual=1e-3, rng_seed=0))
    refused += [(run, k, "max_terms must be >= 1") for k in (0, -2)]
    for run, k, match in refused:
        for ask in (run.rep_at, run.tags_at):
            with pytest.raises(ValueError, match=match):
                ask(k)


def test_rrqr_factor_refuses_reps_it_does_not_determine():
    factor = rrqr_select(SIG_GRID, stream_cap=40, max_terms=6)
    assert factor.fact.q.shape == (SIG_GRID.size, 6)
    for ask in (factor.rep_at, factor.tags_at):
        for k in (7, None):
            with pytest.raises(ValueError, match="pivoted 6 columns"):
                ask(k)
        for k in (0, -5):
            with pytest.raises(ValueError, match="max_terms must be >= 1"):
                ask(k)
    for k in (0, -5):
        with pytest.raises(ValueError, match="max_terms must be >= 1"):
            rrqr_select(SIG_GRID, stream_cap=40, max_terms=k)


@pytest.mark.parametrize("call, message", [
    (lambda: SelectionConfig(max_terms=0), "max_terms must be >= 1"),
    (lambda: SelectionConfig(max_terms=3, stream_cap=0), "stream_cap must be >= 1"),
    (lambda: SelectionConfig(max_terms=3, rng_seed=-1), "rng_seed must be >= 0 and < 2**128"),
    (lambda: SelectionConfig(max_terms=3, rng_seed=2 ** 128),
     "rng_seed must be >= 0 and < 2**128"),
    (lambda: rrqr_select(SIG_GRID, stream_cap=0), "stream_cap must be >= 1"),
    (lambda: rrqr_select(SIG_GRID, stream_cap=0, max_terms=0), "stream_cap must be >= 1"),
    (lambda: normal_stream(-1, 3), "seed must be >= 0 and < 2**128"),
    (lambda: normal_stream(2 ** 128, 3), "seed must be >= 0 and < 2**128"),
    (lambda: SelectionConfig(batch_size=2, max_terms=3), "batch_size must be 1, 3, or 5"),
], ids=["config-max-terms", "config-cap", "config-seed-below", "config-seed-above",
        "rrqr-cap", "rrqr-cap-first", "stream-seed-below", "stream-seed-above", "config-batch"])
def test_each_knob_range_keeps_its_message(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def test_knob_ranges_accept_their_bounds():
    for batch in selection.BATCH_SIZES:
        SelectionConfig(batch_size=batch, max_terms=1, stream_cap=1, rng_seed=2 ** 128 - 1)
    assert normal_stream(2 ** 128 - 1, 2).shape == (2,)


def test_greedy_run_stopped_by_target_gives_every_larger_budget():
    config = SelectionConfig(target_residual=1e-6, rng_seed=0)
    run = greedy_select(SIG_GRID, config)
    n = len(run.tags)
    for budget in (n, n + 5):
        rep = greedy_select(SIG_GRID, SelectionConfig(target_residual=1e-6, max_terms=budget,
                                                      rng_seed=0)).rep_at(budget)[0]
        assert rep_to_dict(run.rep_at(budget)[0]) == rep_to_dict(rep)


def test_achievable_k_per_method():
    assert achievable_k("deg1", 2, 12) == [3, 5, 7, 9, 11]
    assert achievable_k("deg2-uniform", 2, 12) == [2, 5, 8, 11]
    for method in ("deg0", "deg2-greedy", "deg2-rrqr"):
        assert achievable_k(method, 2, 12) == list(range(2, 13))
    assert achievable_k("deg0", -3, 2) == [1, 2]
    assert achievable_k("deg1", 9, 8) == []


@pytest.mark.parametrize("method, k, direct", [
    ("deg0", 9, lambda grid: fit_degree0(grid, 8)),
    ("deg1", 9, lambda grid: fit_degree1(grid, 4, 4)),
    ("deg2-uniform", 11, lambda grid: fit_degree2_uniform(grid, 3, 3, 3)[0]),
    # a K the method cannot reach gives the largest achievable K below it
    ("deg1", 10, lambda grid: fit_degree1(grid, 4, 4)),
    ("deg2-uniform", 13, lambda grid: fit_degree2_uniform(grid, 3, 3, 3)[0]),
])
def test_fit_at_k_is_the_direct_fit(method, k, direct):
    run = method_run(SIG_GRID, method, k, 0, 60)
    assert run is None
    assert rep_to_dict(fit_at_k(SIG_GRID, method, k, run)) == rep_to_dict(direct(SIG_GRID))


def test_method_run_gives_the_select_reps():
    # seed 3 and cap 40 show that both reach the selection run
    greedy = method_run(SIG_GRID, "deg2-greedy", 12, 3, 40)
    rrqr = method_run(SIG_GRID, "deg2-rrqr", 12, 3, 40)
    for k in (5, 12):
        rep = greedy_select(SIG_GRID, SelectionConfig(max_terms=k, rng_seed=3,
                                                      stream_cap=40)).rep_at(k)[0]
        assert rep_to_dict(fit_at_k(SIG_GRID, "deg2-greedy", k, greedy)) == rep_to_dict(rep)
        rep, _ = rrqr_select(SIG_GRID, stream_cap=40).rep_at(k)
        assert rep_to_dict(fit_at_k(SIG_GRID, "deg2-rrqr", k, rrqr)) == rep_to_dict(rep)


@pytest.mark.parametrize("method, flags, k, direct", [
    ("deg0", {"n0": 5}, 1, lambda grid: fit_degree0(grid, 0)),
    ("deg1", {"n0": 4, "n1": 2, "n2": 7}, 7, lambda grid: fit_degree1(grid, 4, 2)),
    ("deg2-uniform", {"n": 5, "n2": 1}, 3, lambda grid: fit_degree2_uniform(grid, 0, 0, 1)[0]),
    ("deg2-greedy", {"max_terms": 6, "seed": 2, "trace": True, "tol": 0.5},
     6, lambda grid: greedy_select(grid, SelectionConfig(max_terms=6, rng_seed=2)).rep_at(6)[0]),
    ("deg2-rrqr", {"max_terms": 6, "cap": 20, "tol": 1e-3, "seed": None, "batch": 3},
     6, lambda grid: rrqr_select(grid, stream_cap=20, truncate_tol=1e-3).rep_at(6)[0]),
])
def test_fit_method_reads_its_own_flags_and_defaults_the_rest(method, flags, k, direct):
    # a flag that the method does not read is ignored; one that it reads and
    # is not given (or is None) takes the library's default
    rep, got_k, run, _ = fit_method(SIG_GRID, method, flags)
    assert got_k == k
    assert (run is None) == (method in ("deg0", "deg1", "deg2-uniform"))
    assert rep_to_dict(rep) == rep_to_dict(direct(SIG_GRID))


def test_method_table_rejects_an_unknown_method():
    assert METHODS == ("deg0", "deg1", "deg2-uniform", "deg2-greedy", "deg2-rrqr")
    for call in (lambda: achievable_k("deg3", 2, 10),
                 lambda: fit_method(SIG_GRID, "deg3", {}),
                 lambda: method_run(SIG_GRID, "deg3", 10, 0, 60),
                 lambda: fit_at_k(SIG_GRID, "deg3", 10)):
        with pytest.raises(ValueError, match="unknown method 'deg3'"):
            call()


def _orthonormalize_against_reference(q_basis, block):
    """CGS2-orthonormalize block columns against q_basis and one another;
    returns the accepted orthonormal columns, each with its column of R: its
    coefficients on q_basis and on the earlier accepted columns (each the two
    passes' summed), then its norm."""
    accepted = []
    for col in block:
        u, coef = col, np.zeros(q_basis.shape[1])
        if q_basis.shape[1]:
            c1 = q_basis.T @ u
            u = u - q_basis @ c1
            c2 = q_basis.T @ u
            u = u - q_basis @ c2
            coef = coef + c1 + c2
        for q, _ in accepted:
            a1 = q @ u
            u = u - q * a1
            a2 = q @ u
            u = u - q * a2
            coef = np.append(coef, a1 + a2)
        rho = np.linalg.norm(u)
        if rho < selection._DEP_TOL * np.linalg.norm(col) or rho == 0.0:
            continue
        accepted.append((u / rho, np.append(coef, rho)))
    return accepted


def greedy_run_reference(grid, config) -> GreedyRun:
    """The stream competition as ``greedy_select`` ran it before it scored
    each stream with the vectors it keeps: every drawn column orthonormalized
    once to score its stream (against the basis, then the batch's earlier
    vectors one at a time) and the chosen stream's columns again from scratch
    to commit them, recording each committed vector's column of R, q.y and
    the residual after it.  The oracle for ``greedy_select``."""
    cap = config.stream_cap
    d = assemble(grid, cap, cap, cap)
    sw = np.sqrt(grid.weights)
    streams = (STREAM_PLAIN, STREAM_F, STREAM_F2)
    tags_by_stream = {s: [t for t in d.tags if t[0] == s] for s in streams}
    scaled = {s: d.columns[:, [d.tags.index(t) for t in tags_by_stream[s]]] * sw[:, None]
              for s in streams}
    y = d.target * sw
    rng = np.random.Generator(np.random.Philox(key=config.rng_seed))

    q_basis = np.empty((grid.size, 0))
    resid_vec = y.copy()
    cursors = {s: 0 for s in streams}
    kept_tags, kept_norms, kept_r, kept_qty, kept_residuals = [], [], [], [], []
    steps, notes = [], []
    exhausted = False
    stopped_at_max_terms = False
    step_no = 0
    while True:
        if config.max_terms is not None and len(kept_tags) >= config.max_terms:
            stopped_at_max_terms = True
            break
        budget = None
        if config.max_terms is not None:
            budget = config.max_terms - len(kept_tags)
        step_no += 1
        candidates = {}
        per_stream = {}
        for s in streams:
            take = min(config.batch_size, scaled[s].shape[1] - cursors[s])
            if budget is not None:
                take = min(take, budget)
            if take <= 0:
                candidates[s] = {"tags": [], "residual": None, "note": "exhausted"}
                continue
            cols, norms, ctags = [], [], []
            for j in range(cursors[s], cursors[s] + take):
                col = scaled[s][:, j]
                norm = np.linalg.norm(col)
                ctags.append(tags_by_stream[s][j])
                cols.append(None if norm == 0.0 else col / norm)
                norms.append(norm)
            qs = _orthonormalize_against_reference(
                q_basis, [c for c in cols if c is not None])
            if not qs:
                candidates[s] = {"tags": [list(t) for t in ctags], "residual": None,
                                 "note": "dependent"}
                continue
            reduction = sum(float(q @ resid_vec) ** 2 for q, _ in qs)
            cand_resid = float(np.sqrt(max(float(resid_vec @ resid_vec) - reduction, 0.0)))
            candidates[s] = {"tags": [list(t) for t in ctags], "residual": cand_resid}
            per_stream[s] = (ctags, cols, norms, take)
        if not per_stream:
            exhausted = True
            notes.append("all candidate streams exhausted or dependent")
            break
        resids = {s: candidates[s]["residual"] for s in per_stream}
        rmin = min(resids.values())
        tied = [s for s in streams if s in per_stream
                and resids[s] - rmin <= selection._TIE_RTOL * max(rmin, 1e-300)]
        chosen = tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]
        ctags, cols, norms, take = per_stream[chosen]
        chosen_tags = []
        for tag, col, norm in zip(ctags, cols, norms):
            if col is None:
                notes.append(f"skipped zero column {tag}")
                continue
            qs = _orthonormalize_against_reference(q_basis, [col])
            if not qs:
                notes.append(f"skipped dependent column {tag}")
                continue
            q, r_col = qs[0]
            q_basis = np.column_stack([q_basis, q])
            resid_vec = resid_vec - q * (q @ resid_vec)
            kept_tags.append(tag)
            kept_norms.append(norm)
            kept_r.append(r_col)
            kept_qty.append(q @ y)
            kept_residuals.append(float(np.linalg.norm(resid_vec)))
            chosen_tags.append(tag)
        cursors[chosen] += take
        residual_after = float(np.linalg.norm(resid_vec))
        steps.append(StepRecord(step=step_no, candidates=candidates,
                                chosen_stream=chosen, chosen_tags=tuple(chosen_tags),
                                residual_after=residual_after))
        if config.target_residual is not None and residual_after <= config.target_residual:
            break

    r = np.zeros((len(kept_r), len(kept_r)))
    for i, r_col in enumerate(kept_r):
        r[:i + 1, i] = r_col
    return GreedyRun(grid=grid, config=config, tags=tuple(kept_tags),
                     norms=np.asarray(kept_norms, dtype=float), r=r,
                     qty=np.asarray(kept_qty, dtype=float),
                     residuals=np.asarray(kept_residuals),
                     steps=tuple(steps), notes=tuple(notes), exhausted=exhausted,
                     stopped_at_max_terms=stopped_at_max_terms)


def _run_docs(run):
    """The rep at the run's own max_terms (or the error it raises) and the
    run's trace document, whose final residual is the last step's."""
    rep = _rep_doc(lambda: (run.rep_at(run.config.max_terms)[0], run.tags))
    return rep, run.trace_doc(run.steps[-1].residual_after)


# 30 terms: every builtin's run reaches it, in whole batches of 1, 3 and 5
ORACLE_CASES = [(name, batch) for name in sorted(BUILTINS) for batch in (1, 3, 5)]


@pytest.mark.parametrize("name, batch", ORACLE_CASES)
def test_greedy_run_matches_the_reference_loop(name, batch):
    grid = grid_of(name)
    for cap in (40, 60):
        for seed in (0, 1, 3):
            config = SelectionConfig(batch_size=batch, max_terms=30, rng_seed=seed,
                                     stream_cap=cap)
            run, ref = greedy_select(grid, config), greedy_run_reference(grid, config)
            (rep, trace), (ref_rep, ref_trace) = _run_docs(run), _run_docs(ref)
            where = f"{name} cap={cap} seed={seed} batch={batch}"
            assert rep == ref_rep, where
            if batch == 1:
                assert trace == ref_trace, where
                continue
            # a batch's candidate vectors are now the ones its commit keeps,
            # so only the candidate residuals may move, and by rounding
            assert run.tags == ref.tags, where
            assert run.notes == ref.notes and run.exhausted == ref.exhausted, where
            # ||y||, from Q^T y and the residual y - Q Q^T y
            tol = 1e-12 * np.hypot(np.linalg.norm(run.qty), run.residuals[-1])
            assert len(run.steps) == len(ref.steps), where
            for step, ref_step in zip(run.steps, ref.steps):
                assert (step.chosen_stream, step.chosen_tags, step.residual_after) == \
                    (ref_step.chosen_stream, ref_step.chosen_tags, ref_step.residual_after), where
                assert step.candidates.keys() == ref_step.candidates.keys(), where
                for s, cand in step.candidates.items():
                    ref_cand = ref_step.candidates[s]
                    assert cand.keys() == ref_cand.keys(), where
                    assert cand["tags"] == ref_cand["tags"], where
                    if cand["residual"] is None or ref_cand["residual"] is None:
                        assert cand == ref_cand, where
                    else:
                        assert abs(cand["residual"] - ref_cand["residual"]) <= tol, where


def test_greedy_path_runs_no_householder_qr(monkeypatch, tmp_path):
    """A greedy run solves every K from its own CGS2 factor: no Householder QR
    on the way from greedy_select through rep_at, nor in a greedy convergence."""
    calls = []
    real = linalg.householder_qr

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "quadrep"]:
        if getattr(module, "householder_qr", None) is real:
            monkeypatch.setattr(module, "householder_qr", counted)
    weighted_lsq(np.ones((3, 1)), np.ones(3), np.ones(3))
    assert len(calls) == 1  # the count sees a call through the module
    calls.clear()
    run = greedy_select(SIG_GRID, SelectionConfig(max_terms=30, rng_seed=0))
    for k in range(1, 31):
        run.rep_at(k)
    assert calls == []
    assert main(["convergence", "--fn", "sigmoid60", "--kmax", "30",
                 "--methods", "deg2-greedy", "--out", str(tmp_path)]) == 0
    assert calls == []


def test_each_degree2_convergence_cell_builds_one_branch_table(monkeypatch, tmp_path):
    """A degree-2 cell reads its error from the branch table that its index
    was assigned from: one ``branches`` call per cell, at the grid's nodes,
    and one ``relative_l2`` call per cell."""
    calls, errors = [], []
    real = representation.branches
    real_error = selection.relative_l2

    def counted(rep, x):
        calls.append(np.size(x))
        return real(rep, x)

    def counted_error(rep, grid, table=None):
        errors.append(table is not None)
        return real_error(rep, grid, table)

    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "quadrep"]:
        if getattr(module, "branches", None) is real:
            monkeypatch.setattr(module, "branches", counted)
    monkeypatch.setattr(selection, "relative_l2", counted_error)
    roots_at(fit_at_k(SIG_GRID, "deg2-uniform", 5), 0.0)
    assert calls == [SIG_GRID.size, 1]  # the count sees calls through the module
    calls.clear()
    methods = ("deg2-uniform", "deg2-greedy", "deg2-rrqr")
    assert main(["convergence", "--fn", "sigmoid60", "--kmin", "2", "--kmax", "11",
                 "--methods", ",".join(methods), "--out", str(tmp_path)]) == 0
    cells = sum(len(achievable_k(m, 2, 11)) for m in methods)
    assert calls == [SIG_GRID.size] * cells
    assert errors == [True] * cells  # each read from its fit's table


@pytest.mark.parametrize("name", ["sigmoid60", "relu"])
def test_convergence_cells_are_the_relative_l2_of_fit_at_k(name, tmp_path, capsys):
    """Each cell of ``convergence --kmax 20`` is ``relative_l2`` of the rep that
    ``fit_at_k`` gives, which builds a second branch table to evaluate it, or
    NaN where either raises, with one ``failed`` line carrying the error's
    text, in table order.  Both have rrqr cells whose reps have no real value
    at some node; relu also has greedy cells whose fits fail."""
    grid = grid_of(name)
    assert main(["convergence", "--fn", name, "--kmax", "20", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "convergence.csv") as fh:
        rows = [r for r in csv.reader(fh) if r[0] in METHODS]
    expected, failed, no_real_value = [], [], 0
    for method in METHODS:
        ks = achievable_k(method, 2, 20)
        run = method_run(grid, method, ks[-1], 0, 60)
        for k in ks:
            try:
                rep = fit_at_k(grid, method, k, run)
                try:
                    error = relative_l2(rep, grid)
                except (ComplexRootError, PoleError, EvaluationError):
                    no_real_value += 1
                    raise
            except NUMERICAL_ERRORS as exc:
                error = math.nan
                failed.append(f"cell ({method}, K={k}) failed: {exc}")
            expected.append([method, str(k), repr(float(error))])
    assert rows == expected
    assert not any(r[2] == "inf" for r in rows)
    err = capsys.readouterr().err.splitlines()
    assert [ln for ln in err if ln.startswith("cell ")] == failed
    assert no_real_value and len(failed) == sum(r[2] == "nan" for r in rows)
    if name == "relu":
        assert len(failed) > no_real_value


def _dictionary_columns(grid, tags, cap=60):
    d = assemble(grid, cap, cap, cap)
    return np.column_stack([d.columns[:, d.tags.index(tuple(t))] for t in tags]), d.target


@pytest.mark.parametrize("name", sorted(PREFIX_KMAX))
def test_greedy_reps_are_least_squares_optimal_at_the_refit_cells(name):
    """At the K that the benchmark refits in its sweep tables (3, the middle
    and kmax), the weighted residual a f^2 - b f - c of a greedy rep is
    orthogonal to each kept column, within the bound of the benchmark's
    selected-fit check."""
    grid, kmax = grid_of(name), PREFIX_KMAX[name]
    run = greedy_select(grid, SelectionConfig(max_terms=kmax, rng_seed=0, stream_cap=60))
    w, f = grid.weights, grid.values
    for k in (3, (2 + kmax) // 2, kmax):
        rep, _ = run.rep_at(k)
        a, b, c = (p.evaluate(grid.nodes) for p in (rep.a, rep.b, rep.c))
        columns, target = _dictionary_columns(grid, run.tags_at(k))
        inner = np.abs((w * (a * f * f - b * f - c)) @ columns)
        bound = 1e-8 * np.sqrt(w @ target**2) * np.sqrt(w @ columns**2)
        assert np.all(inner <= bound), f"{name} K={k}: {np.max(inner / bound):.2e} of the bound"


def test_criterion_6_greedy_cells_agree_with_a_second_solve():
    """Criterion 6's greedy cells (sigmoid60, K = 10, 14, 18, cap 60, seed 0)
    are set by the columns, not by rounding: np.linalg.lstsq on the same kept
    columns gives the same error to 1e-3 relative."""
    sw = np.sqrt(SIG_GRID.weights)
    for k in (10, 14, 18):
        run = method_run(SIG_GRID, "deg2-greedy", k, 0, 60)
        tags = run.tags_at(k)
        columns, target = _dictionary_columns(SIG_GRID, tags)
        eta = np.linalg.lstsq(columns * sw[:, None], target * sw, rcond=None)[0]
        second = relative_l2(coefficients_to_rep(SIG_GRID, tags, eta, 0.0)[0], SIG_GRID)
        first = relative_l2(run.rep_at(k)[0], SIG_GRID)
        assert np.isfinite(first) and abs(first - second) <= 1e-3 * second, f"K={k}"


def test_greedy_run_orthonormalizes_each_drawn_column_once(monkeypatch):
    calls = []
    orthonormalize = selection._orthonormalize

    def counted(basis, col):
        calls.append(basis.shape[1])
        return orthonormalize(basis, col)

    monkeypatch.setattr(selection, "_orthonormalize", counted)
    zero_grid = build_grid(lambda x: 0.0, (-1.0, 1.0), 200)
    for grid, batch in ((SIG_GRID, 3), (SIG_GRID, 5), (zero_grid, 1)):
        calls.clear()
        config = SelectionConfig(batch_size=batch, max_terms=15, rng_seed=0)
        run = greedy_select(grid, config)
        cap = config.stream_cap
        d = assemble(grid, cap, cap, cap)
        nonzero = {t for j, t in enumerate(d.tags) if np.any(d.columns[:, j])}
        drawn = sum(tuple(t) in nonzero for step in run.steps
                    for cand in step.candidates.values() for t in cand["tags"])
        # one call per drawn nonzero column, scored or not, and none to commit
        assert len(calls) == drawn
        assert len(run.tags) == 15
