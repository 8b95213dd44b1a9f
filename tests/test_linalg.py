import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrep.linalg import RankDeficiencyError, pivoted_qr, weighted_lsq


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
    from quadrep.dictionary import assemble, build_grid

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
