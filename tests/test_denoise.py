import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrep.denoise as denoise_mod
import quadrep.linalg as linalg_mod
from quadrep.denoise import (
    ALL_CONSTRAINTS,
    MomentSet,
    MomentSystemError,
    ManifoldFit4,
    SingularConstraintError,
    compute_noisy_moments,
    constraint_residuals,
    debias_moments,
    denoise_case3,
    denoise_iterative,
    fit_manifold_ls,
    generate_noisy,
    knn_vote_index,
    noise_constraints,
    normal_stream,
    project_noise,
    reconstruct,
    solve_moment_system,
    step_ground_truth,
)
from quadrep.dictionary import tabulated_grid
from quadrep.files import dataset_table, read_dataset, write_csv
from quadrep.linalg import RankDeficiencyError, pivoted_qr

POS = np.arange(0.0, 401.0)
TRUTH = step_ground_truth(POS)
TRUTH_SIGNS = np.where(POS <= 140, -1, 1)


# ------------------------------------------------------------- generator


def test_normal_stream_is_reproducible_and_standard():
    a = normal_stream(123, 5000)
    b = normal_stream(123, 5000)
    assert np.array_equal(a, b)
    c = normal_stream(124, 5000)
    assert not np.array_equal(a, c)
    big = normal_stream(0, 200000)
    assert abs(big.mean()) < 0.01
    assert abs(big.std() - 1.0) < 0.01
    assert abs((big**4).mean() - 3.0) < 0.1


def test_generate_sigma_zero_is_exact():
    data, _ = generate_noisy(POS, TRUTH, "function", 0.0, seed=5)
    assert np.array_equal(data.values, TRUTH)
    data_m, _ = generate_noisy(POS, TRUTH, "manifold", 0.0, seed=5)
    assert np.allclose(data_m.values, TRUTH, atol=1e-12)


def test_generate_function_noise_mean_bound():
    data, _ = generate_noisy(POS, TRUTH, "function", 30.0, seed=11)
    resid = data.values - TRUTH
    assert abs(resid.mean()) < 4 * 30.0 / math.sqrt(401)


def test_generate_manifold_noise_linearization():
    # small perturbations follow eps / (2 f~ - 280) to second order
    sigma = 50.0
    data, _ = generate_noisy(POS, TRUTH, "manifold", sigma, seed=2)
    fobs = data.values
    eps = (fobs - 25.0) * (fobs - 255.0)
    delta = fobs - TRUTH
    lin = eps / (2 * fobs - 280.0)
    second_order = delta**2 / np.abs(2 * fobs - 280.0)
    assert np.all(np.abs(delta - lin) <= 1.5 * second_order + 1e-9)


def test_generate_manifold_clamp_counted():
    data, meta = generate_noisy(POS, TRUTH, "manifold", 5000.0, seed=0)
    assert meta["clamped_points"] >= 0
    assert np.all(np.isfinite(data.values))


def test_ground_truth_counts():
    assert int(np.sum(TRUTH == 25.0)) == 141
    assert int(np.sum(TRUTH == 255.0)) == 260


# ------------------------------------------------------------- direct LS


def test_ls_fit_clean_step_matches_extended_precision_oracle():
    data = tabulated_grid(POS, TRUTH)
    fit = fit_manifold_ls(data)
    # oracle: exact-integer orthogonality system solved at 50 digits
    mp.mp.dps = 50
    x = [mp.mpf(v) for v in POS]
    f = [mp.mpf(v) for v in TRUTH]
    def s(expr):
        return mp.fsum(expr)
    m_f = s(f); m_xf = s(fi * xi for fi, xi in zip(f, x))
    m_x2f = s(fi * xi**2 for fi, xi in zip(f, x))
    m_f2 = s(fi**2 for fi in f); m_xf2 = s(xi * fi**2 for fi, xi in zip(f, x))
    m_x2f2 = s(xi**2 * fi**2 for fi, xi in zip(f, x))
    m_f3 = s(fi**3 for fi in f); m_xf3 = s(xi * fi**3 for fi, xi in zip(f, x))
    s0 = mp.mpf(401); sx = s(x); sx2 = s(xi**2 for xi in x)
    a = mp.matrix([
        [m_f, m_xf, s0, sx],
        [m_xf, m_x2f, sx, sx2],
        [m_f2, m_xf2, m_f, m_xf],
        [m_xf2, m_x2f2, m_xf, m_x2f],
    ])
    rhs = mp.matrix([m_f2, m_xf2, m_f3, m_xf3])
    sol = mp.lu_solve(a, rhs)
    oracle = [float(v) for v in sol]
    assert oracle == pytest.approx([280.0, 0.0, -6375.0, 0.0], abs=1e-20)
    assert abs(fit.b0 - 280.0) < 1e-9
    assert abs(fit.b1) < 1e-9
    assert abs(fit.c0 + 6375.0) < 1e-6  # scaled tolerance: |c0| ~ 6e3
    assert abs(fit.c1) < 1e-9


def test_ls_fit_exact_relu_samples():
    xs = np.linspace(-1.0, 1.0, 81)
    data = tabulated_grid(xs, np.maximum(0.0, xs))
    fit = fit_manifold_ls(data)
    assert abs(fit.b0) < 1e-10
    assert abs(fit.b1 - 1.0) < 1e-10
    assert abs(fit.c0) < 1e-10
    assert abs(fit.c1) < 1e-10


def test_ls_fit_constant_data_raises_named_rank_error():
    data = tabulated_grid(POS, np.full(401, 7.0))
    with pytest.raises(RankDeficiencyError):
        fit_manifold_ls(data)


def test_case2_manifold_noise_recovery_frozen_oracle():
    # errors-in-variables bias: the observed roots sit near the Jensen-shifted
    # cluster means, and the free x-terms tilt the fitted branches.  Frozen
    # from the oracle run of this implementation (seed 0).
    data, _ = generate_noisy(POS, TRUTH, "manifold", 5000.0, seed=0)
    fit = fit_manifold_ls(data)
    rep = fit.as_rep(data.domain)
    from quadrep.representation import roots_at

    r0 = roots_at(rep, 0.0)
    assert r0.lo == pytest.approx(0.0545, abs=2e-3)
    assert r0.hi == pytest.approx(247.65, abs=0.1)
    # the reconstruction still tracks the two branches to ~15% of the jump
    values = reconstruct(fit, data, 10).reconstructed
    rmse = float(np.sqrt(np.mean((values - TRUTH) ** 2)))
    assert rmse < 0.15 * 230.0


# ------------------------------------------------------------- moments


def test_moments_constant_data():
    data = tabulated_grid(POS, np.ones(401))
    m = compute_noisy_moments(data)
    assert m.m_f == pytest.approx(401.0)
    assert m.m_f2 == pytest.approx(401.0)
    assert m.m_f3 == pytest.approx(401.0)
    assert m.s0 == 401.0


def test_moments_odd_symmetry():
    xs = np.linspace(-1.0, 1.0, 51)
    data = tabulated_grid(xs, xs.copy())
    m = compute_noisy_moments(data)
    assert abs(m.m_f) < 1e-12
    assert m.m_xf == pytest.approx(m.sx2, rel=1e-12)


def test_moments_clean_step_raw_sum():
    m = compute_noisy_moments(tabulated_grid(POS, TRUTH))
    assert m.m_f == pytest.approx(141 * 25 + 260 * 255)  # = 69825


def test_moment_set_cauchy_schwarz_guard():
    with pytest.raises(ValueError):
        MomentSet(s0=4, sx=10.0, sx2=1.0, m_f=0, m_xf=0, m_x2f=0,
                  m_f2=0, m_xf2=0, m_x2f2=0, m_f3=0, m_xf3=0)


def test_debias_zero_variance_is_identity():
    m = compute_noisy_moments(tabulated_grid(POS, TRUTH))
    assert debias_moments(m, 0.0) == m


def test_debias_quadratic_identity():
    m = MomentSet(s0=4.0, sx=0.0, sx2=2.0, m_f=1.0, m_xf=0.0, m_x2f=0.0,
                  m_f2=100.0, m_xf2=0.0, m_x2f2=0.0, m_f3=0.0, m_xf3=0.0)
    out = debias_moments(m, 9.0)
    assert out.m_f2 == pytest.approx(100.0 - 9.0 * 4.0)  # = 64
    assert out.m_f == m.m_f


def test_debias_monte_carlo_unbiasedness():
    sigma = 150.0
    clean = compute_noisy_moments(tabulated_grid(POS, TRUTH))
    fields = ["m_f", "m_xf", "m_x2f", "m_f2", "m_xf2", "m_x2f2", "m_f3", "m_xf3"]
    samples = {f: [] for f in fields}
    for seed in range(50):
        data, _ = generate_noisy(POS, TRUTH, "function", sigma, seed)
        deb = debias_moments(compute_noisy_moments(data), sigma**2)
        for f in fields:
            samples[f].append(getattr(deb, f))
    for f in fields:
        vals = np.array(samples[f])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - getattr(clean, f)) < 5 * se, f


def test_solve_moment_system_clean_step():
    m = compute_noisy_moments(tabulated_grid(POS, TRUTH))
    fit = solve_moment_system(m)
    assert fit.b0 == pytest.approx(280.0, rel=1e-8)
    assert fit.c0 == pytest.approx(-6375.0, rel=1e-8)
    assert abs(fit.b1) < 1e-8 and abs(fit.c1) < 1e-8
    assert math.isfinite(fit.condition)


def test_solve_moment_system_relu():
    xs = np.linspace(-1.0, 1.0, 81)
    m = compute_noisy_moments(tabulated_grid(xs, np.maximum(0.0, xs)))
    fit = solve_moment_system(m)
    assert abs(fit.b0) < 1e-9 and abs(fit.b1 - 1.0) < 1e-9
    assert abs(fit.c0) < 1e-9 and abs(fit.c1) < 1e-9


def test_moment_system_equals_direct_ls_on_clean_data():
    data = tabulated_grid(POS, TRUTH)
    ls = fit_manifold_ls(data)
    mm = solve_moment_system(compute_noisy_moments(data))
    for attr in ("b0", "b1", "c0", "c1"):
        a, b = getattr(ls, attr), getattr(mm, attr)
        assert abs(a - b) < 1e-8 * max(1.0, abs(a))


def test_moment_system_singular_raises():
    m = compute_noisy_moments(tabulated_grid(POS, np.full(401, 3.0)))
    with pytest.raises(MomentSystemError) as err:
        solve_moment_system(m)
    assert err.value.condition > 1e10


# ------------------------------------------------------------- voting


def knn_windows_reference(positions, k):
    """Loop form of ``_knn_windows``: scan starts lo_min..lo_max in order and
    keep the first strictly smallest span."""
    n = positions.size
    starts = np.empty(n, dtype=int)
    for i in range(n):
        lo_min = max(0, i - k)
        lo_max = min(i, n - k - 1)
        best_lo, best_span = lo_min, math.inf
        for lo in range(lo_min, lo_max + 1):
            span = max(positions[i] - positions[lo], positions[lo + k] - positions[i])
            if span < best_span:
                best_lo, best_span = lo, span
        starts[i] = best_lo
    return starts


@st.composite
def _window_cases(draw):
    n = draw(st.integers(2, 60))
    k = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(("unit", "random", "ties")))
    if kind == "unit":
        positions = np.arange(float(n)) + draw(st.integers(-50, 50))
    elif kind == "random":
        values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
        positions = np.sort(np.array(values))
    else:  # few distinct values, so many equal spans
        values = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        positions = np.sort(np.array(values, dtype=float))
    return positions, k


@given(_window_cases())
@settings(max_examples=150, deadline=None)
def test_knn_windows_match_loop_reference(case):
    positions, k = case
    got = denoise_mod._knn_windows(positions.tobytes(), k)
    want = knn_windows_reference(positions, k)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("init", ["case1", "case3"])
def test_iterative_builds_windows_once(monkeypatch, init):
    votes = []
    real_vote = denoise_mod.knn_vote_index

    def counted_vote(*args, **kwargs):
        votes.append(1)
        return real_vote(*args, **kwargs)

    monkeypatch.setattr(denoise_mod, "knn_vote_index", counted_vote)
    denoise_mod._knn_windows.cache_clear()
    data, _ = generate_noisy(POS, TRUTH, "function", 30.0, 2)
    res = denoise_iterative(data, init=init, sigma2_0=900.0, k=10)
    info = denoise_mod._knn_windows.cache_info()
    assert res.iterations > 1
    assert (info.misses, info.hits) == (1, len(votes) - 1)


@pytest.mark.parametrize("init", ["case1", "case3"])
def test_iterative_builds_one_branch_table_per_vote(monkeypatch, init):
    # each vote-and-rebuild reads the nearest-root signs and the rebuilt
    # values from one table: the start plus one per iteration
    tables = []
    real_branches = denoise_mod.branches

    def counted_branches(*args, **kwargs):
        tables.append(1)
        return real_branches(*args, **kwargs)

    monkeypatch.setattr(denoise_mod, "branches", counted_branches)
    data, _ = generate_noisy(POS, TRUTH, "function", 200.0, 3)
    res = denoise_iterative(data, init=init, sigma2_0=40000.0, k=10)
    assert not res.converged and res.iterations == 50
    assert len(tables) == 51


def test_vote_uniform_signs_unchanged():
    signs = np.ones(50, dtype=int)
    idx, rounds, converged = knn_vote_index(signs, np.arange(50.0), k=4)
    assert converged and rounds == 1
    assert np.array_equal(idx.signs_at(np.arange(50.0)), signs)


def test_vote_single_interior_flip_corrected():
    signs = np.ones(30, dtype=int)
    signs[13] = -1
    idx, rounds, _ = knn_vote_index(signs, np.arange(30.0), k=4)
    assert rounds <= 2
    assert np.all(idx.signs_at(np.arange(30.0)) == 1)


def test_vote_is_idempotent_at_fixpoint():
    data, _ = generate_noisy(POS, TRUTH, "function", 150.0, 3)
    signs0 = np.where(np.abs(data.values - 255.0) < np.abs(data.values - 25.0), 1, -1)
    idx, _, _ = knn_vote_index(signs0, POS, k=10)
    again, rounds, converged = knn_vote_index(idx.signs_at(POS), POS, k=10)
    assert converged and rounds == 1
    assert np.array_equal(again.signs_at(POS), idx.signs_at(POS))


def test_vote_k_validation():
    with pytest.raises(ValueError):
        knn_vote_index(np.ones(5, dtype=int), np.arange(5.0), k=5)


def test_vote_sigma150_true_manifold_statistics():
    # frozen Monte-Carlo oracle (20 seeds, exact 25/255 roots as reference):
    # aggregate mislabel 0.30%, jump breakpoint within +-3 on 17 seeds and
    # never farther than +-10
    window = np.abs(POS - 140) > 3
    rates, within3, within10 = [], 0, 0
    for seed in range(20):
        data, _ = generate_noisy(POS, TRUTH, "function", 150.0, seed)
        signs0 = np.where(np.abs(data.values - 255.0) < np.abs(data.values - 25.0), 1, -1)
        idx, _, _ = knn_vote_index(signs0, POS, k=10)
        voted = idx.signs_at(POS)
        rates.append(np.mean(voted[window] != TRUTH_SIGNS[window]))
        bps = idx.breakpoints
        near = bps[np.argmin(np.abs(bps - 140))]
        within3 += abs(near - 140) <= 3
        within10 += abs(near - 140) <= 10
    assert np.mean(rates) < 0.01
    assert within3 == 17
    assert within10 == 20


@pytest.mark.parametrize("k", [None, 2])
def test_reconstruct_clamps_complex_roots_to_the_vertex(k):
    # b = 280, c = -6375 - 2000 x: the discriminant b^2 + 4c = 52900 - 8000 x
    # is negative at x = 7, 8, 9, where the rebuild takes the vertex b/2
    pos = np.arange(10.0)
    fit = ManifoldFit4(b0=280.0, b1=0.0, c0=-6375.0, c1=-2000.0, method="hand")
    data = tabulated_grid(pos, np.where(pos < 5, 25.0, 255.0))
    res = reconstruct(fit, data, k)
    complex_roots = 52900.0 - 8000.0 * pos < 0
    assert res.clamped_points == int(np.sum(complex_roots)) == 3
    assert np.all(res.reconstructed[complex_roots] == 140.0)
    real = res.reconstructed[~complex_roots]
    c = -6375.0 - 2000.0 * pos[~complex_roots]
    assert np.all(np.abs(real**2 - 280.0 * real - c) < 1e-9 * 6375.0)
    assert (res.vote_rounds is None) == (k is None)


# ------------------------------------------------------------- case 3


def test_case3_small_noise_recovers_exactly():
    sigma = 1.0
    data, _ = generate_noisy(POS, TRUTH, "function", sigma, seed=4)
    res = denoise_case3(data, sigma**2, k=10)
    assert np.array_equal(res.index.signs_at(POS), TRUTH_SIGNS)
    assert np.max(np.abs(res.reconstructed - TRUTH)) < 0.01 * 230.0
    assert abs(res.fit.b0 - 280.0) / 280.0 < 0.01
    assert abs(res.fit.c0 + 6375.0) / 6375.0 < 0.01
    assert res.clamped_points == 0
    # noise estimate is centred
    assert abs((data.values - res.reconstructed).mean()) < 4 * sigma / math.sqrt(401)


def test_case3_values_lie_on_fitted_manifold():
    data, _ = generate_noisy(POS, TRUTH, "function", 150.0, seed=1)
    res = denoise_case3(data, 150.0**2, k=10)
    b = res.fit.b0 + res.fit.b1 * POS
    c = res.fit.c0 + res.fit.c1 * POS
    fhat = res.reconstructed
    onman = np.abs(fhat**2 - b * fhat - c)
    scale = np.abs(fhat**2) + np.abs(b * fhat) + np.abs(c) + 1.0
    disc = b * b + 4 * c
    ok = disc >= 0  # clamped points sit at the vertex, off the manifold
    assert np.all(onman[ok] < 1e-9 * scale[ok])


def test_case3_requires_positive_variance():
    data, _ = generate_noisy(POS, TRUTH, "function", 20.0, seed=0)
    with pytest.raises(ValueError):
        denoise_case3(data, 0.0)


# ------------------------------------------------------------- projection


def test_project_noise_no_op_when_already_satisfied():
    rng_noise = normal_stream(77, 401)
    t = tabulated_grid(POS, TRUTH).unit_nodes
    constraints = noise_constraints(t, TRUTH, ALL_CONSTRAINTS)
    # manufacture a residual orthogonal to every constraint
    g = constraints.vectors
    q, _ = np.linalg.qr(g)
    eps = rng_noise - q @ (q.T @ rng_noise)
    corrected, leftover = project_noise(eps, constraints)
    assert np.max(leftover) < 1e-10 * np.linalg.norm(eps)
    assert np.max(np.abs(corrected - eps)) < 1e-9 * np.linalg.norm(eps)


def test_project_noise_removes_constant_bias_with_single_constraint():
    t = tabulated_grid(POS, TRUTH).unit_nodes
    constraints = noise_constraints(t, TRUTH, ("1",))
    eps = np.full(401, 2.5)  # pure constant-mode bias
    corrected, _ = project_noise(eps, constraints)
    assert np.max(np.abs(corrected)) < 1e-9


def test_project_noise_eight_constraints_residuals_vanish():
    data, _ = generate_noisy(POS, TRUTH, "function", 200.0, seed=9)
    t = data.unit_nodes
    constraints = noise_constraints(t, TRUTH, ALL_CONSTRAINTS)
    eps = data.values - TRUTH
    corrected, _ = project_noise(eps, constraints)
    res = constraint_residuals(corrected, constraints)
    assert np.all(res < 1e-9 * np.linalg.norm(eps))


def _count_pivoted_qr(monkeypatch):
    """The shapes of the matrices ``pivoted_qr`` factors from here on."""
    calls = []
    real = linalg_mod.pivoted_qr

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linalg_mod, "pivoted_qr", counted)
    monkeypatch.setattr(denoise_mod, "pivoted_qr", counted)
    return calls


def test_projection_does_not_factor_the_constraints(monkeypatch):
    # the rank and the dependent names are computed only on the error path
    calls = _count_pivoted_qr(monkeypatch)
    data, _ = generate_noisy(POS, TRUTH, "function", 200.0, seed=9)
    constraints = noise_constraints(data.unit_nodes, TRUTH, ALL_CONSTRAINTS)
    corrected, _ = project_noise(data.values - TRUTH, constraints)
    assert np.all(np.isfinite(corrected))
    assert calls == []


def test_inconsistent_constraint_raises_after_one_factorization(monkeypatch):
    # f = t is odd, so it is orthogonal to the only mode, L0: no mode can
    # remove <f, r> from a residual r that has it
    calls = _count_pivoted_qr(monkeypatch)
    t = np.linspace(-1.0, 1.0, 401)
    constraints = noise_constraints(t, t, ("f",))
    with pytest.raises(SingularConstraintError) as info:
        project_noise(t + 0.5, constraints)
    assert calls == [(401, 1)]
    # the single vector has full rank: no constraint is dependent, but the
    # message still names the one left unmet
    assert info.value.dependent == ()
    assert "'f'" in str(info.value)


def test_constraints_on_manifold_values_are_rank_six():
    # on-manifold f makes f^2 and xf^2 exact combinations of the others
    t = tabulated_grid(POS, TRUTH).unit_nodes
    g = noise_constraints(t, TRUTH, ALL_CONSTRAINTS).vectors
    assert pivoted_qr(g / np.linalg.norm(g, axis=0, keepdims=True)).rank(1e-10) == 6


# ------------------------------------------------------------- case 4


def test_iterative_noise_free_converges_first_iteration():
    data = tabulated_grid(POS, TRUTH)
    res = denoise_iterative(data, max_iter=10)
    assert res.converged
    assert res.iterations == 1
    assert abs(res.fit.b0 - 280.0) < 1e-6
    assert np.max(np.abs(res.reconstructed - TRUTH)) < 1e-6


def test_iterative_sigma30_converges_and_improves():
    # frozen oracle: at sigma=30 every seed converges in <= 10 iterations and
    # beats the plain LS+vote initialization
    for seed in range(5):
        data, _ = generate_noisy(POS, TRUTH, "function", 30.0, seed)
        res = denoise_iterative(data, max_iter=50)
        init_values = reconstruct(fit_manifold_ls(data), data, 10).reconstructed
        rmse_init = float(np.sqrt(np.mean((init_values - TRUTH) ** 2)))
        rmse_fin = float(np.sqrt(np.mean((res.reconstructed - TRUTH) ** 2)))
        assert res.converged, seed
        assert res.iterations <= 10
        assert rmse_fin < rmse_init
        assert res.max_constraint_residual < 1e-9


def test_iterative_records_trace():
    data, _ = generate_noisy(POS, TRUTH, "function", 30.0, 1)
    res = denoise_iterative(data, max_iter=50)
    assert len(res.coefficient_trace) == res.iterations + 1
    assert all(len(c) == 4 for c in res.coefficient_trace)


def test_iterative_case3_initialization():
    data, _ = generate_noisy(POS, TRUTH, "function", 30.0, 2)
    res = denoise_iterative(data, init="case3", sigma2_0=900.0, max_iter=50)
    assert res.converged
    with pytest.raises(ValueError):
        denoise_iterative(data, init="case3")


# ------------------------------------------------------------- CSV round trip


def test_dataset_csv_round_trip(tmp_path):
    data, _ = generate_noisy(POS, TRUTH, "function", 30.0, seed=6)
    path = tmp_path / "data.csv"
    write_csv(path, *dataset_table(data))
    again = read_dataset(path)
    assert np.array_equal(again.nodes, data.nodes)
    assert np.array_equal(again.values, data.values)
    header = path.read_text().splitlines()[0]
    assert header == "x,f"
