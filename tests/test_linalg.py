import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrep.linalg
from quadrep.dictionary import assemble, build_grid
from quadrep.functions import BUILTINS
from quadrep.linalg import (PivotedQR, RankDeficiencyError, householder_qr, pivoted_qr,
                            weighted_lsq)
from quadrep.representation import fit_degree2_uniform
from quadrep.selection import SelectionConfig, greedy_select


def pivoted_qr_reference(a) -> PivotedQR:
    """The pivot loop run directly on the m x n matrix, as ``pivoted_qr`` did
    before it compressed A to its triangle first; the oracle for its pivots."""
    a = np.array(a, dtype=float)
    m, n = a.shape
    r = a.copy()
    perm = np.arange(n)
    reflectors = []
    steps = min(m, n)
    for k in range(steps):
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
    q = np.zeros((m, steps))
    q[:steps, :steps] = np.eye(steps)
    for k in range(len(reflectors) - 1, -1, -1):
        v = reflectors[k]
        if v is not None:
            q[k:, :] -= 2.0 * np.outer(v, v @ q[k:, :])
    r_out = np.triu(r[:steps, :])
    return PivotedQR(q=q, r=r_out, perm=perm, diag=np.abs(np.diag(r_out)))


def test_single_column_of_ones():
    coef, resid = weighted_lsq(np.ones((5, 1)), np.ones(5), np.full(5, 0.7))
    assert np.allclose(coef, [1.0])
    assert resid < 1e-14


def test_exact_linear_recovery():
    x = np.array([-0.9, -0.4, 0.0, 0.3, 0.8])
    v = np.column_stack([np.ones(5), x])
    y = 2.0 + 3.0 * x
    coef, resid = weighted_lsq(v, y, np.ones(5))
    assert np.allclose(coef, [2.0, 3.0], atol=1e-13)
    assert resid < 1e-13


def test_planted_solution_with_orthogonal_residual():
    rng = np.random.default_rng(42)
    v = rng.standard_normal((100, 6))
    w = rng.uniform(0.5, 2.0, 100)
    eta_star = rng.standard_normal(6)
    raw = rng.standard_normal(100)
    # project raw onto the weighted orthogonal complement of range(V)
    sw = np.sqrt(w)
    q, _ = np.linalg.qr(v * sw[:, None])
    r_perp = (raw * sw - q @ (q.T @ (raw * sw))) / sw
    assert np.max(np.abs(v.T @ (w * r_perp))) < 1e-10
    y = v @ eta_star + r_perp
    coef, resid = weighted_lsq(v, y, w)
    assert np.max(np.abs(coef - eta_star)) < 1e-10
    assert abs(resid - np.linalg.norm(sw * r_perp)) < 1e-10


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_least_squares_gradient_condition(seed):
    rng = np.random.default_rng(seed)
    m, k = 30, 5
    v = rng.standard_normal((m, k)) + 0.1
    w = rng.uniform(0.2, 3.0, m)
    y = rng.standard_normal(m)
    try:
        coef, _ = weighted_lsq(v, y, w)
    except RankDeficiencyError:
        return
    grad = v.T @ (w * (v @ coef - y))
    scale = np.max(np.abs(v.T @ (w * y)))
    assert np.max(np.abs(grad)) < 1e-10 * max(scale, 1e-300)


def test_rank_deficiency_reported_with_rank():
    c = np.linspace(1, 2, 8)
    v = np.column_stack([c, 2 * c])
    with pytest.raises(RankDeficiencyError) as err:
        weighted_lsq(v, np.ones(8), np.ones(8))
    assert err.value.numerical_rank == 1


def test_pivoted_qr_identity():
    fact = pivoted_qr(np.eye(3))
    assert fact.perm.tolist() == [0, 1, 2]
    assert np.allclose(fact.diag, 1.0)


def test_pivoted_qr_duplicate_column():
    c = np.linspace(1, 2, 6)
    fact = pivoted_qr(np.column_stack([c, 2 * c]))
    assert fact.rank() == 1
    assert fact.diag[1] <= 1e-14 * fact.diag[0]


def test_pivoted_qr_reconstruction_and_orthogonality():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 12))
    fact = pivoted_qr(a)
    assert np.max(np.abs(fact.q.T @ fact.q - np.eye(12))) < 1e-12
    recon = fact.q @ fact.r
    assert np.max(np.abs(a[:, fact.perm] - recon)) < 1e-11 * np.max(np.abs(a))
    assert np.all(np.diff(fact.diag) <= 1e-14)


def test_pivoted_qr_rank_matches_gram_eigenvalue_oracle():
    # dictionary for f(x) = x: the f- and f^2-streams duplicate plain
    # polynomial content, so the numerical rank is the polynomial dimension
    grid = build_grid(lambda x: x, (-1.0, 1.0), 200)
    d = assemble(grid, 2, 2, 2)
    a = d.columns * np.sqrt(grid.weights)[:, None]
    fact = pivoted_qr(a)
    # oracle: count eigenvalues of the Gram matrix above tolerance
    gram = a.T @ a
    eig = np.linalg.eigvalsh(gram)
    oracle_rank = int(np.sum(eig > 1e-10 * eig.max()))
    # columns span polynomials up to degree 4 (x^0..x^4): dimension 5
    assert oracle_rank == 5
    assert fact.rank(1e-10) == oracle_rank


@pytest.mark.parametrize("cap", [40, 60])
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_pivoted_qr_matches_reference_on_builtins(name, cap):
    fn = BUILTINS[name]
    grid = build_grid(fn.fn, fn.domain, 1000)
    d = assemble(grid, cap, cap, cap)
    a = d.columns * np.sqrt(grid.weights)[:, None]
    fact, ref = pivoted_qr(a), pivoted_qr_reference(a)
    rank = ref.rank()
    assert fact.rank() == rank
    assert np.array_equal(fact.perm[:rank], ref.perm[:rank])
    assert np.max(np.abs(fact.diag - ref.diag)) <= 1e-14 * ref.diag[0]


@pytest.mark.parametrize("steps", [20, 85, 120])
@pytest.mark.parametrize("name", ["sigmoid60", "relu"])
def test_truncated_pivoted_qr_is_the_full_one_cut(name, steps):
    # 120 pivots run past relu's numerical rank of 85; at 85 columns, Q formed
    # at the truncated width differs from the full one in the last bits
    fn = BUILTINS[name]
    grid = build_grid(fn.fn, fn.domain, 1000)
    d = assemble(grid, 60, 60, 60)
    a = d.columns * np.sqrt(grid.weights)[:, None]
    fact, full = pivoted_qr(a, steps=steps), pivoted_qr(a)
    assert np.array_equal(fact.perm[:steps], full.perm[:steps])
    assert np.array_equal(fact.q, full.q[:, :steps])
    assert np.array_equal(fact.diag, full.diag[:steps])
    # the first rows of R, bit for bit once both are in original column order
    assert np.array_equal(fact.r[:, np.argsort(fact.perm)],
                          full.r[:steps][:, np.argsort(full.perm)])
    assert fact.rank() == min(full.rank(), steps)
    with pytest.raises(ValueError, match="steps must be >= 1"):
        pivoted_qr(a, steps=0)


@st.composite
def planted_ties(draw):
    """Columns drawn, with repeats, from an orthonormal set scaled by norms 1
    or 2, so many columns tie on norm at every pivot step."""
    seed = draw(st.integers(0, 2**31 - 1))
    p = draw(st.integers(1, 6))
    m = draw(st.integers(p, 30))
    scales = np.array(draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=p, max_size=p)))
    picks = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=10))
    basis = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, p)))[0] * scales
    return basis[:, picks], picks, scales


@given(planted_ties())
@settings(max_examples=60, deadline=None)
def test_pivoted_qr_ties_go_to_lowest_index(case):
    a, picks, scales = case
    # first occurrence of each distinct column, norm-2 columns first, each
    # group in index order; every repeat falls past the rank
    first = sorted({p: j for j, p in reversed(list(enumerate(picks)))}.items(),
                   key=lambda pj: (-scales[pj[0]], pj[1]))
    expected = [j for _, j in first]
    fact = pivoted_qr(a)
    assert fact.rank() == len(expected)
    assert fact.perm[:len(expected)].tolist() == expected
    ref = pivoted_qr_reference(a)
    assert ref.perm[:len(expected)].tolist() == expected


def test_pivoted_qr_zero_matrix():
    fact = pivoted_qr(np.zeros((5, 3)))
    assert fact.perm.tolist() == [0, 1, 2]
    assert fact.rank() == 0
    assert np.array_equal(fact.r, np.zeros((3, 3)))
    assert np.array_equal(fact.diag, np.zeros(3))
    assert np.array_equal(fact.q, np.eye(5, 3))


@pytest.mark.parametrize("shape", [(3, 5), (7, 1), (1, 1), (2, 6)])
def test_pivoted_qr_small_shapes_match_reference(shape):
    a = np.random.default_rng(11).standard_normal(shape)
    fact, ref = pivoted_qr(a), pivoted_qr_reference(a)
    steps = min(shape)
    assert fact.q.shape == ref.q.shape == (shape[0], steps)
    assert fact.r.shape == ref.r.shape == (steps, shape[1])
    assert np.array_equal(fact.perm, ref.perm)
    assert fact.rank() == ref.rank() == steps
    assert np.max(np.abs(fact.diag - ref.diag)) <= 1e-14 * ref.diag[0]
    # the same factorization up to the sign of each column of Q (row of R)
    signs = np.sign(np.diag(fact.r)) * np.sign(np.diag(ref.r))
    assert np.allclose(fact.q * signs, ref.q, atol=1e-14)
    assert np.allclose(fact.r * signs[:, None], ref.r, atol=1e-14)
    assert np.allclose(fact.q @ fact.r, a[:, fact.perm], atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pivoted_qr_rejects_non_finite(bad):
    a = np.ones((4, 3))
    a[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            pivoted_qr(a)
        with pytest.raises(ValueError, match="non-finite"):
            weighted_lsq(a, np.ones(4), np.ones(4))


def test_rank_deficient_fallback_pivots_the_triangle_it_has(monkeypatch):
    # sigmoid60 deg2-uniform at K = 35, 38, 41, 44 is rank-deficient; the
    # fallback pivots weighted_lsq's own R and never refactors the m x n design
    calls = []
    real = quadrep.linalg.pivoted_qr
    monkeypatch.setattr(quadrep.linalg, "pivoted_qr",
                        lambda a: calls.append(1) or real(a))
    fn = BUILTINS["sigmoid60"]
    grid = build_grid(fn.fn, fn.domain, 1000)
    expected = {
        11: (32, {(3, 4), (2, 5), (3, 1)}),
        12: (35, {(3, 5), (3, 6), (3, 1)}),
        13: (36, {(2, 4), (2, 3), (3, 6), (2, 7), (3, 1)}),
        14: (38, {(2, 1), (2, 9), (3, 8), (2, 4), (2, 5), (3, 1)}),
    }
    for n, (rank, dropped) in expected.items():
        deg = fit_degree2_uniform(grid, n, n, n)[0].degeneracy
        assert deg["numerical_rank"] == rank
        assert {tuple(t) for t in deg["dropped_tags"]} == dropped
        assert len(deg["dropped_tags"]) == len(dropped)
    assert calls == []


def assert_matches_numpy_qr(a):
    """householder_qr against NumPy's QR, the oracle: below 129 columns both
    run LAPACK's unblocked kernels, so Q and R agree bit for bit."""
    q, r = householder_qr(a)
    q_np, r_np = np.linalg.qr(a, mode="reduced")
    assert q.flags.c_contiguous
    assert np.array_equal(q, q_np)
    assert np.array_equal(r, r_np)


@pytest.mark.parametrize("cap", [40, 60])
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_householder_qr_matches_numpy_on_builtins(name, cap):
    fn = BUILTINS[name]
    grid = build_grid(fn.fn, fn.domain, 1000)
    d = assemble(grid, cap, cap, cap)
    assert_matches_numpy_qr((d.columns * np.sqrt(grid.weights)[:, None])[:, :128])


@given(st.integers(0, 2**31 - 1), st.integers(1, 128), st.integers(0, 80))
@settings(max_examples=40, deadline=None)
def test_householder_qr_matches_numpy_on_random_shapes(seed, n, extra_rows):
    assert_matches_numpy_qr(np.random.default_rng(seed).standard_normal((n + extra_rows, n)))


def test_least_squares_solves_make_no_numpy_qr_call(monkeypatch):
    def numpy_qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", numpy_qr)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((30, 4))
    weighted_lsq(v, rng.standard_normal(30), rng.uniform(0.5, 2.0, 30))
    with pytest.raises(RankDeficiencyError):
        weighted_lsq(np.column_stack([v, v[:, 0]]), np.ones(30), np.ones(30))
    fn = BUILTINS["sigmoid60"]
    run = greedy_select(build_grid(fn.fn, fn.domain, 200),
                     SelectionConfig(max_terms=8, stream_cap=10))
    for k in (5, 8):
        assert np.isfinite(run.rep_at(k)[0].fit_residual)
