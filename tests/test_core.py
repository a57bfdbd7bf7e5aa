import math
import re
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochmle.core import (
    CountRecord,
    InvalidInputError,
    _three_floats,
    empirical_kl,
    norm_squared,
    stokes_vector,
    temporal_estimate,
    weight_vector,
)
from blochmle.projector import project_mle

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


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_temporal_estimate_share_below_smallest_float(axis):
    # one shot against 2 * 10**400: N_axis/N rounds to 0.0, which the
    # weight rule would blame on weights the user never gave
    totals = [10**400] * 3
    totals[axis - 1] = 1
    with pytest.raises(InvalidInputError) as info:
        temporal_estimate(CountRecord(tuple(totals), (0, 0, 0)))
    assert str(info.value) == f"axis {axis}: its share of the shots, N_{axis}/N, is below the smallest positive float"
    # one shot against 2**1074 is a share of the smallest positive float
    totals = [2**1073] * 3
    totals[axis - 1] = 1
    _, s = temporal_estimate(CountRecord(tuple(totals), (0, 0, 0)))
    assert s[axis - 1] == 5e-324


@pytest.mark.parametrize(
    "xi, expected",
    [((0.0, 0.0, 0.0), 0.0), ((1.0, 0.0, 0.0), 1.0), ((0.6, 0.0, 0.3), 0.45)],
)
def test_norm_squared(xi, expected):
    assert norm_squared(np.asarray(xi)) == pytest.approx(expected, abs=1e-15)


def test_empty_axis_rejected():
    with pytest.raises(InvalidInputError, match=r"^axis 2: no measurements recorded$"):
        CountRecord((10, 0, 5), (5, 0, 5))


def test_negative_count_rejected():
    with pytest.raises(InvalidInputError, match=r"^axis 2 n_minus: negative count -1$"):
        CountRecord((10, 10, 10), (5, -1, 5))


def test_fractional_count_rejected():
    with pytest.raises(InvalidInputError, match=r"^axis 2 n_plus: expected an integer, got 10.5$"):
        CountRecord((10, 10.5, 10), (5, 5, 5))


@pytest.mark.parametrize("count", [True, False, 10.0, np.float64(10), Fraction(10), "10"], ids=repr)
def test_non_integer_count_rejected(count):
    # a bool was accepted as the int it equals
    message = rf"^axis 3 n_minus: expected an integer, got {re.escape(repr(count))}$"
    with pytest.raises(InvalidInputError, match=message):
        CountRecord((1, 1, 1), (1, 1, count))


def test_numpy_integer_counts_become_ints():
    record = CountRecord((np.int64(3), np.uint8(2), 1), (0, 1, np.int32(5)))
    assert record == ((3, 2, 1), (0, 1, 5))
    assert [type(n) for n in record.n_plus + record.n_minus] == [int] * 6


@pytest.mark.parametrize(
    "n_plus, n_minus",
    [
        (5, (1, 2, 3)),
        (None, (1, 2, 3)),
        ((1, 2, 3), None),
        ((1, 2), (1, 2, 3)),
        ((1, 2, 3), (1, 2, 3, 4)),
    ],
    ids=repr,
)
def test_count_record_shape_refused(n_plus, n_minus):
    # InvalidInputError only: never a bare TypeError from len() or unpacking
    with pytest.raises(InvalidInputError, match="counts are required for exactly 3 axes") as caught:
        CountRecord(n_plus, n_minus)
    assert type(caught.value) is InvalidInputError


def test_count_record_totals():
    rec = CountRecord((75, 90, 30), (25, 110, 70))
    assert rec.axis_totals == (100, 200, 100)
    assert sum(rec.axis_totals) == 400


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
    np.full((3, 1), 0.1),  # unpacks into 1-element arrays, which float() takes on numpy < 2
    [np.array([0.1]), np.array([0.2]), np.array([0.3])],
    "abc",
    b"\x00\x01\x00",  # three small ints once unpacked: (0.0, 1.0, 0.0) was accepted
    ["0.1", "0.2", "0.3"],
    None,
    [None, 0.2, 0.3],
    np.float64(0.5),
    [math.nan, 0.2, 0.3],
    [0.1, math.inf, 0.3],
    [0.1, 0.2, -math.inf],
    [10**400, 0.2, 0.3],
    # numpy's complex numbers were read with a ComplexWarning, dropping the
    # imaginary part
    np.array([0.1 + 0.5j, 0, 0]),
    np.array([0.5 + 1j, 0.25, 0.25]),
    np.array([1 + 3j, 1, 0]),
    [np.complex64(0.5), 0.25, 0.25],
    # sets and dicts crashed the refusal's shape report with a TypeError or
    # a KeyError; a dict is read as its keys
    {0.1, 0.2},
    {1: 2.0, 3: 4.0},
    # the refusal printed the int, which has no str() above 4300 digits
    pytest.param([10**5000, "x", 0], id="[10**5000, 'x', 0]"),
]


def project_on_equal_weights(xi_hat):
    return project_mle(xi_hat, (1 / 3, 1 / 3, 1 / 3))


@pytest.mark.parametrize("constructor", [stokes_vector, weight_vector, project_on_equal_weights])
@pytest.mark.parametrize("value", MALFORMED, ids=repr)
def test_malformed_vectors_refused(constructor, value):
    # InvalidInputError only: never a bare TypeError or ValueError, and a
    # message that names no digits of a huge int
    with pytest.raises(InvalidInputError) as caught:
        constructor(value)
    assert type(caught.value) is InvalidInputError
    assert len(str(caught.value)) < 300


@pytest.mark.parametrize(
    "value, message",
    [
        ([1.1, 0.0, 0.0], r"must lie in \[-1, 1\], got \[1.1, 0.0, 0.0\]"),
        ([0.0, -1.0000000000000002, 0.0], r"\[-1, 1\]"),
        ([0.1, 0.0], r"needs 3 components, got shape \(2,\)"),
        ([[0.1, 0.2, 0.3]], r"^Stokes vector component 1 must be a real number, got list$"),
        ([0.1, math.nan, 0.0], "non-finite"),
        ("abc", r"^Stokes vector needs real numbers, got str$"),
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


def outcome(call):
    """What a call returns, or the type and message it raises."""
    try:
        return call()
    except InvalidInputError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "value",
    [
        (0.5, -0.0, 1e-300),
        (np.float64(0.5), np.float64(-0.0), 0.25),
        (1, 0, -1),
        (True, False, True),
        namedtuple("Triple", "a b c")(0.5, 0.25, 0.25),
        [0.5, 0.25, 0.25],
        (0.1, math.nan, 0.3),
        (math.inf, 0.2, 0.3),
        (0.1, 0.2, -math.inf),
    ],
    ids=repr,
)
def test_plain_float_tuples_skip_only_the_conversion(value):
    # a plain tuple of plain floats is taken as it is; everything else, and
    # every refusal, is what the item-by-item conversion of a list gives
    got = outcome(lambda: _three_floats(value, "vector"))
    want = outcome(lambda: _three_floats(list(value), "vector"))
    if isinstance(want, tuple) and want[0] is InvalidInputError:
        assert got == want
        return
    assert type(got) is tuple and all(type(x) is float for x in got)
    assert list(map(float.hex, got)) == list(map(float.hex, want))
    plain = type(value) is tuple and all(type(x) is float for x in value)
    assert (got is value) == plain


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


def test_empirical_kl_edge_terms():
    s = (0.5, 0.25, 0.25)
    assert empirical_kl((0.2, -0.3, 0.4), s, (0.2, -0.3, 0.4)) == 0.0
    assert type(empirical_kl((0.2, -0.3, 0.4), s, (0.6, 0.1, -0.2))) is float
    # p_hat = 0 drops out, so a model probability of 0 on that side is fine
    assert math.isfinite(empirical_kl((1.0, -1.0, 0.0), s, (1.0, -1.0, 0.0)))
    # a model probability of 0 against a positive empirical one
    assert empirical_kl((0.5, 0.0, 0.0), s, (1.0, 0.0, 0.0)) == math.inf
    # NaN model components clamp to probability 0 on both sides
    assert empirical_kl((0.5, 0.0, 0.0), s, (math.nan, 0.0, 0.0)) == math.inf
