import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadrep.dictionary import build_grid, tabulated_grid
from quadrep.files import load_rep, write_json
from quadrep.functions import get_builtin
from quadrep.linalg import RankDeficiencyError
from quadrep.orthopoly import legendre_row
from quadrep.representation import (
    BASIS_LEGENDRE,
    BASIS_MONOMIAL,
    ComplexRootError,
    EvaluationError,
    IndexFunction,
    PoleError,
    PolyCoeffs,
    Rep,
    assign_index,
    basis_convert,
    branches,
    compose_piecewise_manifold,
    eval_rep,
    fit_degree0,
    fit_degree1,
    fit_degree2_uniform,
    relative_l2,
    rep_from_dict,
    rep_to_dict,
    residual_l2,
    roots_at,
)


def grid_of(name, order=1000):
    fn = get_builtin(name)
    return build_grid(fn.fn, fn.domain, order)


def monomial_rep(a, b, c, domain=(-1.0, 1.0), index=None):
    return Rep(
        a=PolyCoeffs(BASIS_MONOMIAL, a, domain),
        b=PolyCoeffs(BASIS_MONOMIAL, b, domain),
        c=PolyCoeffs(BASIS_MONOMIAL, c, domain),
        index=index,
        fit_residual=0.0,
    )


# ---------------------------------------------------------------- degree 0


def test_degree0_recovers_basis_function():
    grid = build_grid(lambda x: legendre_row(3, x)[3], (-1.0, 1.0), 200)
    rep = fit_degree0(grid, 5)
    expected = np.array([0, 0, 0, 1.0, 0, 0])
    assert np.max(np.abs(rep.c.coeffs - expected)) < 1e-13


def test_degree0_oscillatory_under_and_over_resolution():
    grid = grid_of("sin10pi")
    rep20 = fit_degree0(grid, 20)
    rep60 = fit_degree0(grid, 60)
    e20 = residual_l2(rep20, grid)
    e60 = residual_l2(rep60, grid)
    assert e20 > 0.5
    assert e60 < 1e-12
    # independent oracle: dense unweighted least squares on a uniform grid
    xs = np.linspace(-1, 1, 4001)
    ref = np.sin(10 * np.pi * xs)
    table = legendre_row(20, xs)
    coef, *_ = np.linalg.lstsq(table, ref, rcond=None)
    oracle_err = np.sqrt(np.trapezoid((ref - table @ coef) ** 2, xs))
    assert abs(e20 - oracle_err) < 0.05 * oracle_err


# ---------------------------------------------------------------- degree 1


def test_degree1_exact_rational_recovery():
    # f = x / (2 - x) is in the rational class with b(0) = 1.  (1, 1) is the
    # largest clean configuration: at (2, 2) the relation x*f = 2f - x makes
    # the x^2*f column an exact combination of existing ones and the fit
    # correctly reports rank deficiency.
    grid = build_grid(lambda x: x / (2.0 - x), (-1.0, 1.0), 500)
    rep = fit_degree1(grid, 1, 1)
    assert rep.fit_residual < 1e-12
    assert residual_l2(rep, grid) < 1e-11
    with pytest.raises(RankDeficiencyError):
        fit_degree1(grid, 2, 2)


def test_degree1_without_f_columns_reduces_to_degree0():
    grid = grid_of("sigmoid60", 400)
    d1 = fit_degree1(grid, 8, 0)
    d0 = fit_degree0(grid, 8)
    assert np.max(np.abs(d1.c.coeffs - d0.c.coeffs)) < 1e-12
    assert d1.b.coeffs.tolist() == [math.sqrt(2.0)]


def test_degree1_beats_degree0_on_sigmoid_at_equal_coefficients():
    grid = grid_of("sigmoid60")
    d1 = fit_degree1(grid, 10, 10)  # 21 coefficients
    d0 = fit_degree0(grid, 20)  # 21 coefficients
    assert relative_l2(d1, grid) < relative_l2(d0, grid)


def test_degree1_pole_error():
    rep = fit_degree1(build_grid(lambda x: x / (2.0 - x), (-1.0, 1.0), 100), 1, 1)
    bad = rep.__class__(
        c=PolyCoeffs(BASIS_MONOMIAL, [1.0], (-1.0, 1.0)),
        b=PolyCoeffs(BASIS_MONOMIAL, [1.0, -2.0], (-1.0, 1.0)),
        fit_residual=0.0,
    )
    with pytest.raises(PoleError):
        eval_rep(bad, 0.5)


# ---------------------------------------------------------------- degree 2 fits


def test_relu_manifold_identities():
    grid = grid_of("relu")
    rep = fit_degree2_uniform(grid, 0, 1, 0)
    assert rep.fit_residual < 1e-12
    for x in (-0.9, -0.25, 0.4, 0.8):
        av, bv, cv = rep.a.evaluate(x), rep.b.evaluate(x), rep.c.evaluate(x)
        assert abs(bv / av - x) < 1e-12
        assert abs(cv / av) < 1e-12
    vals = eval_rep(rep, grid.nodes)
    assert np.max(np.abs(vals - grid.values)) < 1e-12


def test_sign_step_manifold():
    grid = build_grid(lambda x: 1.0 if x >= 0 else -1.0, (-1.0, 1.0), 500)
    rep = fit_degree2_uniform(grid, 0, 0, 0)
    for x in (-0.7, 0.2):
        av, bv, cv = rep.a.evaluate(x), rep.b.evaluate(x), rep.c.evaluate(x)
        assert abs(cv / av - 1.0) < 1e-12
        assert abs(bv / av) < 1e-12


def test_heaviside_sine_machine_precision_fit():
    grid = grid_of("heaviside-sine")
    rep = fit_degree2_uniform(grid, 14, 14, 0)
    assert rep.fit_residual < 1e-10


def test_rank_deficient_dictionary_reports_degeneracy():
    # for a +-1 step, f^2*L_n duplicates L_n exactly
    grid = build_grid(lambda x: 1.0 if x >= 0 else -1.0, (-1.0, 1.0), 300)
    rep = fit_degree2_uniform(grid, 3, 3, 3)
    assert rep.degeneracy is not None
    assert rep.degeneracy["numerical_rank"] < 3 + 3 + 3 + 2
    assert rep.degeneracy["dropped_tags"]
    assert rep.fit_residual < 1e-12


# ---------------------------------------------------------------- roots


def test_roots_sign_manifold_example():
    rep = monomial_rep([1.0], [0.0], [1.0])
    r = roots_at(rep, 0.3)
    assert (r.lo, r.hi) == (-1.0, 1.0)
    assert r.discriminant == 4.0


def test_roots_relu_manifold_example():
    rep = monomial_rep([1.0], [0.0, 1.0], [0.0])
    r = roots_at(rep, 0.8)
    assert abs(r.lo - 0.0) < 1e-15
    assert abs(r.hi - 0.8) < 1e-15


def test_roots_step_manifold_example():
    rep = monomial_rep([1.0], [280.0], [-6375.0], domain=(0.0, 400.0))
    r = roots_at(rep, 123.0)
    assert abs(r.lo - 25.0) < 1e-12
    assert abs(r.hi - 255.0) < 1e-12


def test_roots_ordering_and_identity_on_fitted_reps():
    grid = grid_of("cos-one-jump")
    rep = fit_degree2_uniform(grid, 4, 4, 0)
    for x in np.linspace(-3.0, 3.0, 21):
        r = roots_at(rep, x)
        assert r.lo <= r.hi
        av, bv, cv = rep.a.evaluate(x), rep.b.evaluate(x), rep.c.evaluate(x)
        for root in (r.lo, r.hi):
            scale = abs(av * root * root) + abs(bv * root) + abs(cv) + 1e-30
            assert abs(av * root * root - bv * root - cv) < 1e-9 * scale


def test_stable_small_root_no_cancellation():
    rep = monomial_rep([1.0], [1e8], [1.0])
    r = roots_at(rep, 0.0)
    mp.mp.dps = 40
    lo_exact = float((mp.mpf(1e8) - mp.sqrt(mp.mpf(1e8) ** 2 + 4)) / 2)
    assert abs(r.lo - lo_exact) < 1e-10 * abs(lo_exact)


def test_complex_discriminant_raises_with_value():
    rep = monomial_rep([1.0], [0.0], [-1.0])
    with pytest.raises(ComplexRootError) as err:
        roots_at(rep, 0.0)
    assert err.value.discriminant == pytest.approx(-4.0)


def test_tiny_negative_discriminant_clamped():
    rep = monomial_rep([1.0], [0.0], [-1e-12])
    r = roots_at(rep, 0.5)
    assert r.clamped
    assert r.lo == r.hi == 0.0


def test_degenerate_a_linear_fallback():
    rep = monomial_rep([1.0, -1.0 / 0.75], [2.0], [-3.0], domain=(0.0, 1.5))
    # a(x) = 1 - x/0.75 vanishes at x = 0.75; scale ~ 1
    r = roots_at(rep, 0.75)
    assert r.linear
    assert abs(r.lo - 1.5) < 1e-9 and abs(r.hi - 1.5) < 1e-9  # -c/b = 3/2


def mp_roots(a, b, c):
    """Both roots of a r^2 - b r - c = 0 for the doubles a != 0, b, c, by the
    textbook formula (complex where the discriminant is negative), with 60
    digits beyond the ones b - sqrt(D) cancels."""
    cancelled = 0.0
    if a != 0.0 and b != 0.0 and c != 0.0:
        cancelled = 2 * math.log10(abs(b)) - math.log10(abs(a)) - math.log10(abs(c))
    with mp.workdps(60 + max(0, int(cancelled))):
        a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
        sq = mp.sqrt(b * b + 4 * a * c)
        return (b - sq) / (2 * a), (b + sq) / (2 * a)


def abc_at(rep, x):
    return tuple(float(p.evaluate(x)) for p in (rep.a, rep.b, rep.c))


signed = st.sampled_from([-1.0, 1.0])


@given(b=st.floats(0.5, 10.0), sign=signed, c=st.floats(-10.0, 10.0),
       delta=st.floats(-1e-11, 1e-11))
@settings(max_examples=100, deadline=None)
def test_kernel_near_zero_a_takes_the_linear_root(b, sign, c, delta):
    # a(x) = 1 - 2x vanishes at x = 0.5; max|a| over the probes is 3
    rep = monomial_rep([1.0, -2.0], [sign * b], [c])
    x = 0.5 + delta
    av, bv, cv = abc_at(rep, x)
    br = branches(rep, x)
    assert br.linear[0] and not br.no_root[0]
    assert br.minus[0] == br.plus[0] == -cv / bv
    if av != 0.0:
        # the finite root nearest -c/b differs from it by about |a c| / b^2
        small = min(mp_roots(av, bv, cv), key=lambda r: abs(r + cv / bv))
        assert abs(br.plus[0] - float(small)) <= 2e-9 * abs(float(small))


@given(alpha=st.floats(-0.5, 0.5), x=st.floats(-1.0, 1.0), b=st.floats(1e-3, 1e3),
       sign=signed, eps=st.floats(1e-13, 1e-9))
@settings(max_examples=100, deadline=None)
def test_kernel_clamped_discriminant_gives_the_double_root(alpha, x, b, sign, eps):
    a_at_x = 1.0 + alpha * x
    c = -(b * b) / (4.0 * a_at_x) * (1.0 + eps)
    rep = monomial_rep([1.0, alpha], [sign * b], [c])
    av, bv, cv = abc_at(rep, x)
    br = branches(rep, x)
    assert br.clamped[0] and not br.complex[0]
    # the double root is the real part of the oracle's complex pair, b/2a
    lo, hi = mp_roots(av, bv, cv)
    vertex = float(mp.re(hi))
    assert float(mp.re(lo)) == vertex
    for root in (br.minus[0], br.plus[0], br.vertex[0]):
        assert abs(root - vertex) <= 4e-16 * abs(vertex)


@given(alpha=st.floats(-0.5, 0.5), x=st.floats(-1.0, 1.0), b=st.floats(1e6, 1e12),
       sign=signed, c=st.floats(-10.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_kernel_huge_b_keeps_both_roots_accurate(alpha, x, b, sign, c):
    rep = monomial_rep([1.0, alpha], [sign * b], [c])
    av, bv, cv = abc_at(rep, x)
    br = branches(rep, x)
    assert not (br.linear[0] or br.clamped[0] or br.complex[0])
    exact = sorted(mp_roots(av, bv, cv))
    got = sorted((br.minus[0], br.plus[0]))
    for root, ref in zip(got, exact):
        # no cancellation: the small root ~ -c/b keeps full relative accuracy
        assert abs(root - float(ref)) <= 1e-14 * abs(float(ref))


@given(alpha=st.floats(1.01, 4.0), b=st.floats(-2.0, 2.0), c=st.floats(-2.0, 2.0),
       xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=30))
# at x = 0, D = -4 (complex) and q = b(0) is subnormal, so -2c/q overflows
# if it is computed where the complex mask discards it
@example(alpha=2.0, b=2.2e-313, c=-1.0, xs=[0.0])
@settings(max_examples=100, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_masks_do_not_depend_on_the_batch(alpha, b, c, xs):
    # a(x) = 1 - alpha x vanishes at 1/alpha inside the domain; the batch
    # holds that point, points near it and arbitrary ones
    zero = 1.0 / alpha
    rep = monomial_rep([1.0, -alpha], [b, 1.0], [c, 0.0, -1.0])
    batch = np.array(xs + [zero, np.nextafter(zero, 2.0), min(zero + 1e-11, 1.0)])
    table = branches(rep, batch)
    for i, x in enumerate(batch):
        alone = branches(rep, x)
        for mask in ("linear", "clamped", "complex", "no_root"):
            assert getattr(alone, mask)[0] == getattr(table, mask)[i]


def test_kernel_never_raises_and_marks_each_edge_case():
    # a = b = 1 - x, c = 1: no root at x = 1, two real roots at x = 0
    rep = monomial_rep([1.0, -1.0], [1.0, -1.0], [1.0])
    br = branches(rep, [1.0, 0.0])
    assert br.no_root.tolist() == [True, False]
    assert np.isnan(br.plus[0]) and np.isnan(br.minus[0])
    assert br.plus[1] == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-15)
    with pytest.raises(EvaluationError):
        br.require_real()
    complex_rep = monomial_rep([1.0], [0.0], [-1.0])
    br = branches(complex_rep, [0.0, 0.5])
    assert br.complex.all() and np.isnan(br.plus).all()
    assert br.vertex.tolist() == [0.0, 0.0]
    with pytest.raises(ComplexRootError):
        br.require_real()


# ---------------------------------------------------------------- index


def test_assign_index_step_manifold_clean():
    positions = np.arange(0.0, 401.0)
    values = np.where(positions <= 140, 25.0, 255.0)
    grid = tabulated_grid(positions, values)
    rep = monomial_rep([1.0], [280.0], [-6375.0], domain=(0.0, 400.0))
    idx = assign_index(rep, grid)
    assert idx.first_sign == -1
    assert np.allclose(idx.breakpoints, [140.5])


def test_assign_index_noisy_step_matches_clean():
    # sigma = 30 function noise, seed 7: verified to give no spurious flips
    from quadrep.denoise import generate_noisy, step_ground_truth

    positions = np.arange(0.0, 401.0)
    truth = step_ground_truth(positions)
    noisy, _ = generate_noisy(positions, truth, "function", 30.0, 7)
    rep = monomial_rep([1.0], [280.0], [-6375.0], domain=(0.0, 400.0))
    idx = assign_index(rep, noisy)
    assert idx.first_sign == -1
    assert np.allclose(idx.breakpoints, [140.5])


def test_assign_index_relu_is_constant_plus():
    # nearest-root selection: the plus branch reproduces max(0, x) everywhere,
    # so no sign flip occurs (ties at x=0 resolve to +1)
    grid = grid_of("relu", 500)
    rep = fit_degree2_uniform(grid, 0, 1, 0)
    assert rep.index.first_sign == 1
    assert rep.index.breakpoints.size == 0
    assert np.max(np.abs(eval_rep(rep, grid.nodes) - grid.values)) < 1e-12


@given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_index_compression_lossless(signs):
    positions = np.arange(len(signs), dtype=float)
    idx = IndexFunction.from_dense(positions, np.array(signs))
    assert idx.signs_at(positions).tolist() == signs


def test_index_piecewise_constant_between_breakpoints():
    idx = IndexFunction(breakpoints=np.array([140.5]), first_sign=-1)
    assert idx.signs_at(140.2) == -1
    assert idx.signs_at(140.7) == 1
    assert idx.signs_at(0.0) == -1


# ---------------------------------------------------------------- eval


def test_eval_zero_function():
    rep = fit_degree0(build_grid(lambda x: 0.0, (-1.0, 1.0), 50), 3)
    assert eval_rep(rep, 0.37) == 0.0


def test_eval_step_manifold_with_index():
    idx = IndexFunction(breakpoints=np.array([140.5]), first_sign=-1)
    rep = monomial_rep([1.0], [280.0], [-6375.0], domain=(0.0, 400.0), index=idx)
    assert eval_rep(rep, 100.0) == pytest.approx(25.0, abs=1e-12)
    assert eval_rep(rep, 300.0) == pytest.approx(255.0, abs=1e-12)


def test_eval_requires_index():
    rep = monomial_rep([1.0], [280.0], [-6375.0], domain=(0.0, 400.0))
    with pytest.raises(EvaluationError):
        eval_rep(rep, 100.0)


def test_eval_single_jump_fit_near_endpoints():
    grid = grid_of("cos-one-jump")
    rep = fit_degree2_uniform(grid, 4, 4, 0)
    # pointwise agreement at x = +-1 within the achieved fit residual
    assert abs(eval_rep(rep, 1.0) - math.cos(1.0)) < rep.fit_residual
    assert abs(eval_rep(rep, -1.0) + math.cos(1.0)) < rep.fit_residual


# ---------------------------------------------------------------- compose


def test_compose_sign_manifold():
    pm = PolyCoeffs(BASIS_MONOMIAL, [-1.0], (-1.0, 1.0))
    pp = PolyCoeffs(BASIS_MONOMIAL, [1.0], (-1.0, 1.0))
    rep = compose_piecewise_manifold(pm, pp)
    assert rep.b.coeffs.tolist() == [0.0]
    assert rep.c.coeffs.tolist() == [1.0]


def test_compose_relu_manifold():
    pm = PolyCoeffs(BASIS_MONOMIAL, [0.0], (-1.0, 1.0))
    pp = PolyCoeffs(BASIS_MONOMIAL, [0.0, 1.0], (-1.0, 1.0))
    rep = compose_piecewise_manifold(pm, pp)
    assert rep.b.coeffs.tolist() == [0.0, 1.0]
    assert np.all(rep.c.coeffs == 0.0)


def test_compose_step_manifold_exact():
    pm = PolyCoeffs(BASIS_MONOMIAL, [25.0], (0.0, 400.0))
    pp = PolyCoeffs(BASIS_MONOMIAL, [255.0], (0.0, 400.0))
    rep = compose_piecewise_manifold(pm, pp)
    assert rep.b.coeffs.tolist() == [280.0]
    assert rep.c.coeffs.tolist() == [-6375.0]


def test_composed_relu_reproduces_relu_exactly():
    pm = PolyCoeffs(BASIS_MONOMIAL, [0.0], (-1.0, 1.0))
    pp = PolyCoeffs(BASIS_MONOMIAL, [0.0, 1.0], (-1.0, 1.0))
    rep = compose_piecewise_manifold(pm, pp)
    grid = grid_of("relu", 300)
    idx = assign_index(rep, grid)
    vals = eval_rep(
        Rep(a=rep.a, b=rep.b, c=rep.c, index=idx, fit_residual=0.0),
        grid.nodes,
    )
    assert np.max(np.abs(vals - grid.values)) < 1e-14
    assert residual_l2(
        Rep(a=rep.a, b=rep.b, c=rep.c, index=idx, fit_residual=0.0), grid
    ) < 1e-14


def test_compose_legendre_branches_exact_identity():
    # polynomial branches in the orthonormal basis keep the algebraic identity
    grid = build_grid(
        lambda x: (0.3 + 0.5 * x) if x < 0.2 else (1.5 - x * x), (-1.0, 1.0), 400
    )
    pm = basis_convert(PolyCoeffs(BASIS_MONOMIAL, [0.3, 0.5], (-1.0, 1.0)), BASIS_LEGENDRE)
    pp = basis_convert(PolyCoeffs(BASIS_MONOMIAL, [1.5, 0.0, -1.0], (-1.0, 1.0)), BASIS_LEGENDRE)
    rep = compose_piecewise_manifold(pm, pp)
    idx = assign_index(rep, grid)
    withidx = Rep(a=rep.a, b=rep.b, c=rep.c, index=idx, fit_residual=0.0)
    assert residual_l2(withidx, grid) < 1e-12


# ---------------------------------------------------------------- conversion


def test_convert_linear_monomial_to_legendre():
    pc = PolyCoeffs(BASIS_MONOMIAL, [0.0, 1.0], (-1.0, 1.0))
    leg = basis_convert(pc, BASIS_LEGENDRE)
    assert np.allclose(leg.coeffs, [0.0, math.sqrt(2.0 / 3.0)], atol=1e-15)


@given(coeffs=st.lists(st.floats(-10, 10), min_size=1, max_size=11))
@settings(max_examples=60, deadline=None)
def test_convert_round_trip(coeffs):
    pc = PolyCoeffs(BASIS_MONOMIAL, np.array(coeffs), (-1.0, 1.0))
    back = basis_convert(basis_convert(pc, BASIS_LEGENDRE), BASIS_MONOMIAL)
    scale = max(1.0, float(np.max(np.abs(pc.coeffs))))
    padded = np.zeros(max(pc.coeffs.size, back.coeffs.size))
    padded[: back.coeffs.size] = back.coeffs
    padded[: pc.coeffs.size] -= pc.coeffs
    assert np.max(np.abs(padded)) < 1e-12 * scale


@given(
    coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    lo=st.floats(-3, 2),
    width=st.floats(0.5, 6),
)
@settings(max_examples=60, deadline=None)
def test_convert_shifted_domain_pointwise(coeffs, lo, width):
    # off-center domains: monomial coefficients are ill-conditioned, so the
    # meaningful round-trip check is agreement of evaluated values
    pc = PolyCoeffs(BASIS_MONOMIAL, np.array(coeffs), (lo, lo + width))
    leg = basis_convert(pc, BASIS_LEGENDRE)
    probes = np.linspace(lo, lo + width, 13)
    vals_m = pc.evaluate(probes)
    vals_l = leg.evaluate(probes)
    scale = max(1.0, float(np.max(np.abs(vals_m))))
    assert np.max(np.abs(vals_m - vals_l)) < 1e-9 * scale


def test_convert_step_coefficients_pointwise():
    cmono = PolyCoeffs(BASIS_MONOMIAL, [-6375.0, 2.0], (0.0, 400.0))
    cleg = basis_convert(cmono, BASIS_LEGENDRE)
    probes = np.linspace(0.0, 400.0, 11)
    assert np.max(np.abs(cleg.evaluate(probes) - cmono.evaluate(probes))) < 1e-9


# ---------------------------------------------------------------- residuals


def test_residual_l2_exact_class_member():
    grid = build_grid(lambda x: x / (2.0 - x), (-1.0, 1.0), 300)
    rep = fit_degree1(grid, 1, 1)
    assert residual_l2(rep, grid) < 1e-12


def test_gauge_reduction_degree2_to_degree0_of_fsquared():
    # for odd f the f-column is exactly orthogonal to the even target, so the
    # plain columns carry the whole fit: sqrt(2) * c equals the expansion of f^2
    grid = grid_of("sin10pi")
    rep = fit_degree2_uniform(grid, 12, 0, 0)
    sin10pi = get_builtin("sin10pi").fn
    fsq_grid = build_grid(lambda x: sin10pi(x) ** 2, (-1.0, 1.0), 1000)
    d0 = fit_degree0(fsq_grid, 12)
    assert np.max(np.abs(math.sqrt(2.0) * rep.c.coeffs - d0.c.coeffs)) < 1e-11
    assert np.max(np.abs(rep.b.coeffs)) < 1e-13


# ---------------------------------------------------------------- serialization


def test_round_trip_all_types(tmp_path):
    grid = grid_of("sigmoid60", 300)
    reps = [
        fit_degree0(grid, 6),
        fit_degree1(grid, 4, 4),
        fit_degree2_uniform(grid, 3, 3, 3),
    ]
    for i, rep in enumerate(reps):
        path = tmp_path / f"rep{i}.json"
        write_json(path, rep_to_dict(rep))
        loaded = load_rep(path)
        assert rep_to_dict(loaded) == rep_to_dict(rep)
        # bit-exact coefficient round trip through the JSON text
        doc = json.loads(path.read_text())
        again = rep_from_dict(doc)
        assert again.degree == rep.degree == i
        for name in ("a", "b", "c"):
            got, want = getattr(again, name), getattr(rep, name)
            assert (got is None) == (want is None), (i, name)
            if want is not None:
                assert got.coeffs.tobytes() == want.coeffs.tobytes(), (i, name)


def _pc(coeffs, basis=BASIS_MONOMIAL, domain=(-1.0, 1.0)):
    return PolyCoeffs(basis, coeffs, domain)


@pytest.mark.parametrize("fields, message", [
    ({"a": _pc([1.0]), "c": _pc([0.0])}, "a needs b"),
    ({"b": _pc([math.sqrt(2.0)], BASIS_LEGENDRE), "c": _pc([1.0])},
     "a, b, c must share a basis"),
    ({"a": _pc([1.0]), "b": _pc([0.0]), "c": _pc([0.0], domain=(0.0, 1.0))},
     "a, b, c must share a domain"),
    ({"a": _pc([2.0]), "b": _pc([0.0]), "c": _pc([0.0])},
     "constant-basis coefficient of a must be 1"),
    ({"b": _pc([2.0, 1.0]), "c": _pc([1.0])},
     "denominator constant term must be fixed to 1"),
    # 1 is the monomial pin; the normalized-Legendre pin is sqrt(2)
    ({"b": _pc([1.0], BASIS_LEGENDRE), "c": _pc([1.0], BASIS_LEGENDRE)},
     "denominator constant term must be fixed to 1"),
], ids=["a-without-b", "mixed-bases", "mixed-domains", "unpinned-a0", "unpinned-b0",
        "unpinned-legendre-b0"])
def test_rep_rejects_an_inconsistent_triple(fields, message):
    with pytest.raises(ValueError, match=message):
        Rep(**fields)


def test_degree2_json_schema_fields(tmp_path):
    grid = grid_of("relu", 200)
    rep = fit_degree2_uniform(grid, 0, 1, 0)
    doc = rep_to_dict(rep)
    assert doc["type"] == "degree2"
    assert set(doc) >= {"type", "domain", "basis", "a", "b", "c", "index",
                        "fit_residual", "provenance"}
    assert doc["index"] is not None
    assert doc["index"]["first_sign"] in (-1, 1)
