"""Round-trip and structure tests of the flat product chart."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab.chart import jmap, to_chart

finite = st.floats(-10.0, 10.0, allow_nan=False)


def test_jmap_is_quarter_turn():
    p = np.array([1.0, 0.0])
    assert np.allclose(jmap(p), [0.0, 1.0])
    assert np.allclose(jmap(jmap(p)), -p)


def test_jmap_squares_to_minus_identity_on_batch(rng):
    p = rng.normal(size=(40, 2))
    assert np.allclose(jmap(jmap(p)), -p, atol=0.0)


def test_jmap_is_isometry(rng):
    p = rng.normal(size=(40, 2))
    assert np.allclose(np.linalg.norm(jmap(p), axis=-1),
                       np.linalg.norm(p, axis=-1))


@settings(deadline=None, max_examples=100)
@given(finite, finite, finite, finite)
def test_chart_round_trip(x1, x2, y1, y2):
    x = np.array([x1, x2])
    y = np.array([y1, y2])
    bq, bp = to_chart(x, y)
    # the inverse: x = bq + j(bp)/2, y = bq - j(bp)/2
    x2_, y2_ = bq + 0.5 * jmap(bp), bq - 0.5 * jmap(bp)
    assert np.allclose(x2_, x, atol=1e-12)
    assert np.allclose(y2_, y, atol=1e-12)


def test_chart_of_diagonal_pair_has_zero_fiber(rng):
    y = rng.normal(size=(25, 2))
    bq, bp = to_chart(y, y)
    assert np.allclose(bq, y)
    assert np.allclose(bp, 0.0)


def test_chart_base_is_midpoint(rng):
    x = rng.normal(size=(25, 2))
    y = rng.normal(size=(25, 2))
    bq, _ = to_chart(x, y)
    assert np.allclose(bq, 0.5 * (x + y))


def test_chart_fiber_convention():
    x = np.array([2.0, 5.0])   # (Q, P)
    y = np.array([1.0, 3.0])   # (q, p)
    _, bp = to_chart(x, y)
    assert np.allclose(bp, [5.0 - 3.0, 1.0 - 2.0])   # (P - p, q - Q)
