import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochmle.core import (
    CountRecord,
    InvalidInputError,
    norm_squared,
    stokes_vector,
    temporal_estimate,
    weight_vector,
)

axis_counts = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).filter(lambda t: sum(t) > 0)
count_records = st.builds(
    lambda a, b, c: CountRecord((a[0], b[0], c[0]), (a[1], b[1], c[1])),
    axis_counts,
    axis_counts,
    axis_counts,
)


def test_temporal_estimate_equal_shots():
    xi, s = temporal_estimate(CountRecord((80, 50, 65), (20, 50, 35)))
    np.testing.assert_allclose(xi, [0.6, 0.0, 0.3], rtol=0, atol=0)
    np.testing.assert_allclose(s, [1 / 3, 1 / 3, 1 / 3])


def test_temporal_estimate_boundary_component():
    xi, _ = temporal_estimate(CountRecord((100, 50, 50), (0, 50, 50)))
    assert xi[0] == 1.0
    np.testing.assert_array_equal(xi[1:], [0.0, 0.0])


def test_temporal_estimate_unequal_shots():
    xi, s = temporal_estimate(CountRecord((75, 90, 30), (25, 110, 70)))
    np.testing.assert_allclose(xi, [0.5, -0.1, -0.4], atol=1e-15)
    np.testing.assert_allclose(s, [0.25, 0.5, 0.25], atol=0)


def test_temporal_estimate_counts_above_2_53():
    xi, s = temporal_estimate(CountRecord((2**60 + 1, 3, 3), (2**60 - 1, 1, 1)))
    assert xi[0] == 2.0**-60
    np.testing.assert_array_equal(xi[1:], [0.5, 0.5])
    assert s[1] == 4 / (2**61 + 8)


@pytest.mark.parametrize(
    "xi, expected",
    [((0.0, 0.0, 0.0), 0.0), ((1.0, 0.0, 0.0), 1.0), ((0.6, 0.0, 0.3), 0.45)],
)
def test_norm_squared(xi, expected):
    assert norm_squared(np.asarray(xi)) == pytest.approx(expected, abs=1e-15)


def test_empty_axis_rejected():
    with pytest.raises(InvalidInputError, match="axis 2"):
        CountRecord((10, 0, 5), (5, 0, 5))


def test_negative_count_rejected():
    with pytest.raises(InvalidInputError, match="n_minus"):
        CountRecord((10, 10, 10), (5, -1, 5))


def test_fractional_count_rejected():
    with pytest.raises(InvalidInputError):
        CountRecord((10, 10.5, 10), (5, 5, 5))


def test_count_record_totals():
    rec = CountRecord((75, 90, 30), (25, 110, 70))
    assert rec.axis_totals == (100, 200, 100)
    assert rec.total == 400


def test_stokes_vector_validation():
    with pytest.raises(InvalidInputError):
        stokes_vector([1.1, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        stokes_vector([0.1, 0.0])
    np.testing.assert_array_equal(stokes_vector([1.0, -1.0, 0.0]), [1.0, -1.0, 0.0])


def test_weight_vector_validation():
    with pytest.raises(InvalidInputError):
        weight_vector([0.5, 0.5, 0.0])
    with pytest.raises(InvalidInputError):
        weight_vector([0.5, 0.4, 0.2])
    np.testing.assert_array_equal(weight_vector([0.5, 0.25, 0.25]), [0.5, 0.25, 0.25])


# Malformed for either constructor: wrong length, nesting, text, None and
# non-finite values.
MALFORMED = [
    [0.1, 0.2],
    [0.1, 0.2, 0.3, 0.4],
    np.array([0.1, 0.2]),
    [[0.1, 0.2, 0.3]],
    np.full((1, 3), 0.1),
    "abc",
    ["0.1", "0.2", "0.3"],
    None,
    [None, 0.2, 0.3],
    np.float64(0.5),
    [math.nan, 0.2, 0.3],
    [0.1, math.inf, 0.3],
    [0.1, 0.2, -math.inf],
    [10**400, 0.2, 0.3],
]


@pytest.mark.parametrize("constructor", [stokes_vector, weight_vector])
@pytest.mark.parametrize("value", MALFORMED, ids=repr)
def test_malformed_vectors_refused(constructor, value):
    # InvalidInputError only: never a bare TypeError or ValueError
    with pytest.raises(InvalidInputError) as caught:
        constructor(value)
    assert type(caught.value) is InvalidInputError


@pytest.mark.parametrize(
    "value, message",
    [
        ([1.1, 0.0, 0.0], r"must lie in \[-1, 1\], got \[1.1, 0.0, 0.0\]"),
        ([0.0, -1.0000000000000002, 0.0], r"\[-1, 1\]"),
        ([0.1, 0.0], r"needs 3 components, got shape \(2,\)"),
        ([[0.1, 0.2, 0.3]], r"needs 3 components, got shape \(1, 3\)"),
        ([0.1, math.nan, 0.0], "non-finite"),
    ],
)
def test_stokes_vector_refusals(value, message):
    with pytest.raises(InvalidInputError, match=message):
        stokes_vector(value)


@pytest.mark.parametrize(
    "value, message",
    [
        ([0.5, 0.5, 0.0], r"strictly positive, got \[0.5, 0.5, 0.0\]"),
        ([0.6, 0.5, -0.1], "strictly positive"),
        ([0.5, 0.5, -0.0], "strictly positive"),
        ([0.5, 0.5, 2e-12], "sum to 1"),
        ([0.5, 0.5 - 2e-12, 1e-300], "sum to 1"),
    ],
)
def test_weight_vector_refusals(value, message):
    with pytest.raises(InvalidInputError, match=message):
        weight_vector(value)


@pytest.mark.parametrize(
    "value",
    [
        [0.5, 0.25, 0.25],
        (0.5, 0.25, 0.25),
        np.array([0.5, 0.25, 0.25]),
        np.array([0.5, 0.25, 0.25], dtype=np.float32),
        [np.float64(0.5), np.float32(0.25), 0.25],
        (1 / 3, 1 / 3, 1 / 3 + 9e-13),
    ],
    ids=repr,
)
def test_validators_accept_sequences_and_return_floats(value):
    for constructor in (stokes_vector, weight_vector):
        out = constructor(value)
        assert type(out) is tuple and len(out) == 3
        assert all(type(x) is float for x in out)
        assert list(out) == [float(x) for x in value]
    assert stokes_vector([1, -1, np.int64(0)]) == (1.0, -1.0, 0.0)


@given(count_records)
@settings(max_examples=200)
def test_estimate_ranges(rec):
    xi, s = temporal_estimate(rec)
    assert np.all(np.abs(xi) <= 1.0)
    assert np.all(np.asarray(s) > 0.0)
    assert abs(sum(s) - 1.0) <= 1e-12


@given(count_records)
@settings(max_examples=200)
def test_estimate_scale_invariance(rec):
    doubled = CountRecord(
        tuple(2 * n for n in rec.n_plus), tuple(2 * n for n in rec.n_minus)
    )
    xi1, s1 = temporal_estimate(rec)
    xi2, s2 = temporal_estimate(doubled)
    # (2a)/(2b) rounds identically to a/b, so equality is exact.
    np.testing.assert_array_equal(xi1, xi2)
    np.testing.assert_array_equal(s1, s2)
