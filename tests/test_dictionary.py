import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrep.dictionary import (
    DataError,
    STREAM_F,
    STREAM_F2,
    STREAM_PLAIN,
    assemble,
    build_grid,
    tabulated_grid,
)


def test_linear_function_order_two_values():
    grid = build_grid(lambda x: x, (-1.0, 1.0), 2)
    assert np.allclose(grid.values, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)


def test_step_data_on_integer_positions():
    positions = np.arange(0.0, 401.0)
    values = np.where(positions <= 140, 25.0, 255.0)
    grid = tabulated_grid(positions, values)
    assert grid.size == 401
    assert int(np.sum(grid.values == 25.0)) == 141
    assert not grid.is_quadrature
    assert np.all(grid.weights == 1.0)


def test_sigmoid_value_near_zero():
    grid = build_grid(lambda x: 1.0 / (1.0 + math.exp(-60.0 * x)), (-1.0, 1.0), 1000)
    near0 = int(np.argmin(np.abs(grid.nodes)))
    # 1/(1+e^-60x) rounds to exactly 1.0 in float near x = 1
    assert np.all((grid.values > 0) & (grid.values <= 1.0))
    assert abs(grid.values[near0] - 0.5) < 0.2


def test_non_finite_samples_rejected():
    with pytest.raises(DataError):
        tabulated_grid(np.arange(4.0), np.array([1.0, np.nan, 2.0, 3.0]))


def test_degenerate_domain_rejected():
    with pytest.raises(ValueError):
        build_grid(lambda x: x, (2.0, 2.0), 10)


def test_assemble_minimal_columns():
    grid = build_grid(lambda x: x * x, (-1.0, 1.0), 50)
    d = assemble(grid, 0, 0, 0)
    assert d.n_columns == 2
    assert d.tags == ((STREAM_PLAIN, 0), (STREAM_F, 0))
    assert np.allclose(d.target, grid.values**2 / math.sqrt(2))


def test_assemble_fig1_configuration():
    grid = build_grid(lambda x: math.cos(x), (-1.0, 1.0), 50)
    d = assemble(grid, 4, 4, 0)
    assert d.n_columns == 10


def test_assemble_counts_with_f2_stream():
    grid = build_grid(lambda x: math.cos(x), (-1.0, 1.0), 50)
    d = assemble(grid, 3, 3, 3)
    assert d.n_columns == 11
    f2_tags = [t for t in d.tags if t[0] == STREAM_F2]
    assert f2_tags == [(STREAM_F2, 1), (STREAM_F2, 2), (STREAM_F2, 3)]


def test_stream_views():
    grid = build_grid(lambda x: math.sin(x), (-1.0, 1.0), 60)
    d = assemble(grid, 4, 4, 4)
    v1 = d.stream(STREAM_PLAIN)[:, :1]
    assert v1.shape == (60, 1)
    assert np.allclose(v1[:, 0], 1 / math.sqrt(2))
    v3 = d.stream(STREAM_F2)[:, :2]
    assert np.allclose(v3, grid.legendre_table(2)[:, 1:] * (grid.values**2)[:, None])
    assert d.stream(STREAM_F)[:, :0].shape == (60, 0)
    with pytest.raises(ValueError):
        d.stream(4)


def test_tag_column_bijection():
    grid = build_grid(lambda x: math.exp(x), (-1.0, 1.0), 40)
    d = assemble(grid, 3, 2, 4)
    cols = d.columns
    for j, tag in enumerate(d.tags):
        assert np.array_equal(d.column_for_tag(tag), cols[:, j])


def test_zero_function_flags_degenerate():
    grid = build_grid(lambda x: 0.0, (-1.0, 1.0), 30)
    d = assemble(grid, 2, 2, 2)
    assert d.degenerate
    assert np.all(d.stream2 == 0.0)
    assert np.all(d.stream3 == 0.0)


def test_exactness_budget_warning():
    grid = build_grid(lambda x: x, (-1.0, 1.0), 5)
    d = assemble(grid, 6, 0, 0)
    assert any("exactness" in w for w in d.warnings)


@pytest.mark.parametrize("domain", [(-1.0, 1.0), (0.0, 400.0), (-math.pi, math.pi)])
def test_affine_round_trip_working_domains(domain):
    grid = build_grid(lambda x: 0.5, domain, 2)
    for t in np.linspace(-1, 1, 41):
        assert abs(grid.to_unit(grid.from_unit(t)) - t) < 1e-14


@given(
    lo=st.floats(-100, 99, allow_nan=False),
    width=st.floats(0.1, 200),
    t=st.floats(-1, 1),
)
@settings(max_examples=100, deadline=None)
def test_affine_round_trip_scale_aware(lo, width, t):
    # cancellation grows with |center| / halfwidth for far-offset domains
    grid = build_grid(lambda x: 0.5, (lo, lo + width), 2)
    center = lo + width / 2
    bound = 16 * np.finfo(float).eps * (1.0 + abs(center) / (width / 2))
    assert abs(grid.to_unit(grid.from_unit(t)) - t) < bound
