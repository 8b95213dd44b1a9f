import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrep import orthopoly
from quadrep.orthopoly import (
    gauss_legendre,
    legendre_row,
)

RULE_1000 = gauss_legendre(1000)


def legendre_row_reference(max_degree, x):
    """``legendre_row`` before it cached its tables: one recurrence per call."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(arr) > 1.0):
        raise ValueError("evaluation outside [-1, 1] is not supported; rescale first")
    table = np.empty((arr.size, max_degree + 1))
    table[:, 0] = 1.0
    if max_degree >= 1:
        table[:, 1] = arr
    for k in range(2, max_degree + 1):
        table[:, k] = ((2 * k - 1) * arr * table[:, k - 1] - (k - 1) * table[:, k - 2]) / k
    table *= np.sqrt((2 * np.arange(max_degree + 1) + 1) / 2.0)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return table[0]
    return table


def test_order_one_is_midpoint_rule():
    r = gauss_legendre(1)
    assert r.nodes.tolist() == [0.0]
    assert r.weights.tolist() == [2.0]


def test_order_two_closed_form():
    r = gauss_legendre(2)
    assert np.allclose(r.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(r.weights, [1.0, 1.0], atol=1e-15)


def test_rule_is_cached_and_read_only():
    first = gauss_legendre(37)
    again = gauss_legendre(37)
    assert np.array_equal(first.nodes, again.nodes)
    assert np.array_equal(first.weights, again.weights)
    for arr in (again.nodes, again.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_order_zero_rejected():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_large_rule_weight_sum_and_node_bounds():
    r = RULE_1000
    assert r.nodes.size == 1000
    assert abs(r.weights.sum() - 2.0) < 1e-13
    assert np.all(np.diff(r.nodes) > 0)
    assert r.nodes[0] > -1.0 and r.nodes[-1] < 1.0
    assert np.all(r.weights > 0)


@pytest.mark.parametrize("k", range(0, 40))
def test_exactness_order_20(k):
    # an order-M rule integrates x^k exactly for k <= 2M-1
    r = gauss_legendre(20)
    exact = 0.0 if k % 2 == 1 else 2.0 / (k + 1)
    approx = float(np.sum(r.weights * r.nodes**k))
    assert abs(approx - exact) < 1e-12 * max(1.0, abs(exact))


@given(m=st.integers(1, 40), k=st.integers(0, 79))
@settings(max_examples=60, deadline=None)
def test_exactness_property(m, k):
    if k > 2 * m - 1:
        k = 2 * m - 1
    r = gauss_legendre(m)
    exact = 0.0 if k % 2 == 1 else 2.0 / (k + 1)
    approx = float(np.sum(r.weights * r.nodes**k))
    assert abs(approx - exact) < 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("m", [3, 7, 20, 64, 250, 1000])
def test_rule_matches_eigenvalue_oracle(m):
    # independent route: numpy's Golub-Welsch-style rule
    from numpy.polynomial import legendre as npleg

    rule = gauss_legendre(m)
    nodes, weights = npleg.leggauss(m)
    assert np.max(np.abs(rule.nodes - nodes)) < 1e-14
    assert np.max(np.abs(rule.weights - weights)) < 1e-12


def test_eval_constant_and_linear():
    assert abs(legendre_row(0, 0.37)[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(legendre_row(1, 0.5)[1] - math.sqrt(1.5) * 0.5) < 1e-15


def test_eval_degree_seven_matches_high_precision_recurrence():
    # frozen from a 40-digit mpmath evaluation of sqrt(15/2) * P_7(0.9)
    assert abs(legendre_row(7, 0.9)[7] - (-1.0073302314553587)) < 1e-14


@pytest.mark.parametrize(
    "n,x,expected",
    [
        # frozen 40-digit mpmath values of sqrt((2n+1)/2) * P_n(x)
        (50, 0.123, -0.79967327706916616),
        (120, -0.77, 0.61104914575564505),
        (200, 0.95, 1.4259388579790855),
        (200, -0.3333, 0.45456908762902661),
    ],
)
def test_recurrence_stability_to_degree_200(n, x, expected):
    assert abs(legendre_row(n, x)[n] - expected) < 1e-12 * abs(expected)


def test_eval_outside_domain_rejected():
    with pytest.raises(ValueError):
        legendre_row(3, 1.5)
    with pytest.raises(ValueError):
        legendre_row(3, -1.0001)


def test_row_examples():
    row = legendre_row(2, 0.0)
    assert np.allclose(row, [1 / math.sqrt(2), 0.0, -math.sqrt(2.5) / 2], atol=1e-15)
    assert np.allclose(legendre_row(0, 1.0), [1 / math.sqrt(2)], atol=1e-16)


def test_row_matches_individual_evaluations():
    row = legendre_row(10, 0.3)
    for k in range(11):
        assert row[k] == legendre_row_reference(k, 0.3)[k]


def test_row_vectorized_shape():
    xs = np.linspace(-1, 1, 7)
    table = legendre_row(5, xs)
    assert table.shape == (7, 6)
    assert np.allclose(table[3], legendre_row(5, xs[3]))


def test_full_orthonormality_block():
    r = RULE_1000
    table = legendre_row(50, r.nodes)
    gram = table.T @ (r.weights[:, None] * table)
    assert np.max(np.abs(gram - np.eye(51))) < 1e-12


# ------------------------------------------------------------- table cache

_POINT_SETS = (
    RULE_1000.nodes,
    gauss_legendre(37).nodes,
    np.linspace(-1.0, 1.0, 129),
    np.array([-1.0, -0.25, 0.0, 0.5, 1.0]),
    np.array([0.3]),
    np.linspace(-0.9, 0.7, 11),
    0.3,
    -0.77,
)


@st.composite
def _call_sequences(draw):
    # more point sets than the cache holds, interleaved, at growing and
    # shrinking degrees, with scalar points among them
    assert len(_POINT_SETS) > orthopoly._TABLE_CAPACITY
    return draw(st.lists(st.tuples(st.sampled_from(_POINT_SETS), st.integers(0, 60)),
                         min_size=1, max_size=25))


@given(_call_sequences())
@settings(max_examples=80, deadline=None)
def test_cached_rows_match_reference_bit_for_bit(calls):
    with orthopoly._tables_lock:
        orthopoly._tables.clear()
    for x, degree in calls:
        got = legendre_row(degree, x)
        want = legendre_row_reference(degree, x)
        assert got.shape == want.shape
        assert got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(got, want)
    assert len(orthopoly._tables) <= orthopoly._TABLE_CAPACITY


def test_returned_table_is_independent_of_the_cache():
    xs = np.linspace(-1.0, 1.0, 17)
    first = legendre_row(12, xs)
    first[:] = 7.0
    scalar = legendre_row(5, 0.25)
    scalar[:] = 7.0
    assert np.array_equal(legendre_row(12, xs), legendre_row_reference(12, xs))
    assert np.array_equal(legendre_row(4, xs), legendre_row_reference(4, xs))
    assert np.array_equal(legendre_row(5, 0.25), legendre_row_reference(5, 0.25))


def test_out_of_domain_rejected_around_a_cached_call():
    bad = np.array([0.0, 0.5, 1.0 + 1e-12])
    good = np.array([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        legendre_row(8, bad)
    assert np.array_equal(legendre_row(8, good), legendre_row_reference(8, good))
    for degree in (0, 8, 20):
        with pytest.raises(ValueError):
            legendre_row(degree, bad)


def test_concurrent_calls_at_mixed_degrees_match_reference():
    with orthopoly._tables_lock:
        orthopoly._tables.clear()
    x = RULE_1000.nodes
    degrees = [(7 * i) % 61 for i in range(200)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        tables = list(pool.map(lambda d: legendre_row(d, x), degrees))
    for degree, table in zip(degrees, tables):
        assert np.array_equal(table, legendre_row_reference(degree, x))


def test_large_table_is_returned_but_not_cached():
    x = np.linspace(-1.0, 1.0, 100_000)
    got = legendre_row(60, x)
    assert got.nbytes > orthopoly._TABLE_MAX_BYTES
    assert all(t.shape != got.shape for t in orthopoly._tables.values())
    assert got.flags.c_contiguous and got.flags.writeable
    assert np.array_equal(got, orthopoly._legendre_table(60, x))
    # the largest benchmark table, 1000 points at degree 60, stays cached
    assert legendre_row(60, RULE_1000.nodes).nbytes <= orthopoly._TABLE_MAX_BYTES
    assert any(t.shape == (1000, 61) for t in orthopoly._tables.values())
