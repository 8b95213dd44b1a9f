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
    assert grid.is_quadrature is True


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
    assert len(d.tags) == 2
    assert d.tags == ((STREAM_PLAIN, 0), (STREAM_F, 0))
    assert np.allclose(d.target, grid.values**2 / math.sqrt(2))


def test_assemble_fig1_configuration():
    grid = build_grid(lambda x: math.cos(x), (-1.0, 1.0), 50)
    d = assemble(grid, 4, 4, 0)
    assert len(d.tags) == 10


def test_assemble_counts_with_f2_stream():
    grid = build_grid(lambda x: math.cos(x), (-1.0, 1.0), 50)
    d = assemble(grid, 3, 3, 3)
    assert len(d.tags) == 11
    f2_tags = [t for t in d.tags if t[0] == STREAM_F2]
    assert f2_tags == [(STREAM_F2, 1), (STREAM_F2, 2), (STREAM_F2, 3)]


def test_stream_views():
    grid = build_grid(lambda x: math.sin(x), (-1.0, 1.0), 60)
    d = assemble(grid, 4, 4, 4)
    v1 = d.columns[:, d.tags.index((STREAM_PLAIN, 0))]
    assert v1.shape == (60,)
    assert np.allclose(v1, 1 / math.sqrt(2))
    v3 = d.columns[:, [d.tags.index((STREAM_F2, k)) for k in (1, 2)]]
    assert np.allclose(v3, grid.legendre_table(2)[:, 1:] * (grid.values**2)[:, None])
    assert [t for t in d.tags if t[0] == STREAM_F] == [(STREAM_F, k) for k in range(5)]


def test_tag_column_bijection():
    grid = build_grid(lambda x: math.exp(x), (-1.0, 1.0), 40)
    d = assemble(grid, 3, 2, 4)
    assert d.columns.shape == (40, len(d.tags))
    assert len(set(d.tags)) == len(d.tags)
    table = grid.legendre_table(4)
    f = grid.values
    for tag in d.tags:
        stream, degree = tag
        expected = table[:, degree] * {STREAM_PLAIN: 1.0, STREAM_F: f, STREAM_F2: f * f}[stream]
        assert np.array_equal(d.columns[:, d.tags.index(tag)], expected)


def test_zero_function_flags_degenerate():
    grid = build_grid(lambda x: 0.0, (-1.0, 1.0), 30)
    d = assemble(grid, 2, 2, 2)
    for j, (stream, _) in enumerate(d.tags):
        if stream != STREAM_PLAIN:
            assert np.all(d.columns[:, j] == 0.0)


@pytest.mark.parametrize("domain", [(-1.0, 1.0), (0.0, 400.0), (-math.pi, math.pi)])
def test_affine_round_trip_working_domains(domain):
    grid = build_grid(lambda x: 0.5, domain, 2)
    for t in np.linspace(-1, 1, 41):
        x = 0.5 * (domain[1] - domain[0]) * t + 0.5 * (domain[0] + domain[1])
        assert abs(grid.to_unit(x) - t) < 1e-14


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
    lo, hi = grid.domain
    x = 0.5 * (hi - lo) * t + 0.5 * (lo + hi)
    assert abs(grid.to_unit(x) - t) < bound
