from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochmle.checks import (
    fisher_agreement_defect,
    foliation_defect,
    legendre_defect,
    marginal_decomposition_defect,
    pythagorean_defect,
)
from blochmle.core import InvalidInputError, empirical_kl, stokes_vector, weight_vector
from blochmle.infogeo import (
    canonical_divergence,
    dual_coordinates,
    finite_distribution,
    fisher_metric,
    foliation_orthogonality_defect,
    kl_divergence,
    product_distribution,
    randomized_distribution,
)

# Frozen via 50-digit decimal summation of the two-term formula.
KL_75_25_VS_UNIFORM = 0.13081203594113696
KL_UNIFORM_VS_75_25 = 0.14384103622589046

interior = st.floats(-0.99, 0.99)


def interior_vec(k):
    return st.lists(interior, min_size=k, max_size=k).map(np.asarray)


class TestKlDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence([0.25] * 4, [0.25] * 4) == 0.0

    def test_frozen_values_and_asymmetry(self):
        d1 = kl_divergence([0.75, 0.25], [0.5, 0.5])
        d2 = kl_divergence([0.5, 0.5], [0.75, 0.25])
        assert d1 == pytest.approx(KL_75_25_VS_UNIFORM, abs=1e-14)
        assert d2 == pytest.approx(KL_UNIFORM_VS_75_25, abs=1e-14)
        assert d1 != d2

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            kl_divergence([0.5, 0.5], [0.25, 0.25, 0.25, 0.25])

    def test_nonpositive_entry(self):
        with pytest.raises(InvalidInputError):
            kl_divergence([1.0, 0.0], [0.5, 0.5])

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    )
    @settings(max_examples=200)
    def test_nonnegative(self, u, v):
        p = finite_distribution(np.asarray(u) / np.sum(u))
        q = finite_distribution(np.asarray(v) / np.sum(v))
        # floor at -1e-12: nearly-identical p, q can round a hair negative
        assert kl_divergence(p, q) >= -1e-12
        assert kl_divergence(p, p) == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: product_distribution(("0.5",)),
        lambda: kl_divergence(("0.5", "0.5"), (0.5, 0.5)),
        lambda: kl_divergence((0.5, 0.5), np.array(["0.5", "0.5"])),
        lambda: finite_distribution([b"0.5", 0.5]),
        lambda: dual_coordinates([0.1, "x"]),
        lambda: dual_coordinates("0.5"),
        lambda: dual_coordinates([0.1, [0.2, 0.3]]),
        lambda: finite_distribution([0.5, [0.25, 0.25]]),
        lambda: randomized_distribution((0.5, 0.25, 0.25), ("0.1", "0", "0")),
        lambda: fisher_metric([0.1, "x", 0.0], (0.5, 0.25, 0.25)),
        lambda: foliation_orthogonality_defect((0.5, 0.25, 0.25), [0.1, [0.0], 0.0]),
        lambda: dual_coordinates(None),
        lambda: dual_coordinates([0.1j]),
        lambda: finite_distribution([Fraction(1, 2), Fraction(1, 2)]),
    ],
    ids=[
        "product_text",
        "kl_text",
        "kl_text_array",
        "distribution_bytes",
        "dual_word",
        "dual_bare_text",
        "dual_ragged",
        "distribution_ragged",
        "randomized_text",
        "fisher_word",
        "foliation_ragged",
        "dual_none",
        "dual_complex",
        "distribution_fraction",
    ],
)
def test_text_and_ragged_input_refused(call):
    # only arrays numpy reads as bools, ints or floats are numbers here; the
    # first two were accepted, and words and ragged lists escaped as a bare
    # ValueError
    with pytest.raises(InvalidInputError, match="needs real numbers, got "):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: randomized_distribution((0.5, 0.25, 0.25), (0.1, 0.2)),
        lambda: fisher_metric((0.1,), (0.5, 0.25, 0.25)),
        lambda: foliation_orthogonality_defect((0.5, 0.25, 0.25), (0.1, 0.2, 0.3, 0.0)),
        lambda: dual_coordinates((0.1, 0.2, 0.3, 0.0)),
    ],
    ids=["randomized", "fisher", "foliation", "dual"],
)
def test_wrong_length_refused(call):
    with pytest.raises(InvalidInputError, match="-vector, got shape "):
        call()


class TestProductDistribution:
    def test_single_axis(self):
        np.testing.assert_allclose(product_distribution([0.5]), [0.75, 0.25])

    def test_two_axes_uniform(self):
        np.testing.assert_allclose(product_distribution([0.0, 0.0]), [0.25] * 4)

    def test_three_axes_leading_entry(self):
        p = product_distribution([0.6, 0.0, 0.3])
        assert p[0] == pytest.approx(0.8 * 0.5 * 0.65, abs=1e-15)

    def test_lexicographic_order(self):
        # axis 1 outermost, +1 before -1
        p = product_distribution([0.5, 0.2])
        np.testing.assert_allclose(p, [0.75 * 0.6, 0.75 * 0.4, 0.25 * 0.6, 0.25 * 0.4])

    def test_boundary_rejected(self):
        with pytest.raises(InvalidInputError):
            product_distribution([1.0, 0.0])

    @given(interior_vec(3))
    @settings(max_examples=100)
    def test_normalized(self, xi):
        assert abs(product_distribution(xi).sum() - 1.0) < 1e-12


class TestRandomizedDistribution:
    def test_uniform(self):
        p = randomized_distribution(np.array([1 / 3] * 3), np.zeros(3))
        np.testing.assert_allclose(p, [1 / 6] * 6)

    def test_direct_arithmetic(self):
        p = randomized_distribution(np.array([0.5, 0.25, 0.25]), np.array([0.5, 0.0, 0.0]))
        np.testing.assert_allclose(p, [0.375, 0.125, 0.125, 0.125, 0.125, 0.125])

    @given(interior_vec(3))
    @settings(max_examples=100)
    def test_normalized(self, xi):
        s = np.array([0.2, 0.5, 0.3])
        assert abs(randomized_distribution(s, xi).sum() - 1.0) < 1e-12


class TestDualCoordinates:
    def test_symmetric_point(self):
        for k in (1, 2, 3):
            coords = dual_coordinates(np.zeros(k))
            np.testing.assert_array_equal(coords.theta, np.zeros(k))
            np.testing.assert_array_equal(coords.eta, np.full(k, 0.5))
            assert coords.psi == pytest.approx(k * np.log(2.0), abs=1e-15)

    def test_scalar_formula(self):
        coords = dual_coordinates(np.array([0.5]))
        assert coords.theta[0] == pytest.approx(np.log(3.0), abs=1e-15)

    @given(interior_vec(3))
    @settings(max_examples=100)
    def test_legendre_identity_and_roundtrip(self, xi):
        coords = dual_coordinates(xi)
        legendre = coords.psi + coords.phi - float(np.dot(coords.theta, coords.eta))
        assert abs(legendre) < 1e-10
        np.testing.assert_allclose(2.0 * coords.eta - 1.0, xi, atol=1e-12)

    def test_eta_is_gradient_of_psi(self, check_calls, gate_bound):
        points = check_calls("dual_coordinates")
        assert legendre_defect(seed=3) < gate_bound(legendre_defect)
        assert len(points) == 100


class TestCanonicalDivergence:
    def test_point_to_itself(self):
        assert canonical_divergence([0.3, -0.2], [0.3, -0.2]) == pytest.approx(0.0, abs=1e-14)

    def test_equals_outcome_kl(self):
        p_xi, q_xi = [0.6, 0.0, 0.3], [0.2, 0.1, -0.4]
        direct = kl_divergence(product_distribution(p_xi), product_distribution(q_xi))
        assert abs(canonical_divergence(p_xi, q_xi) - direct) < 1e-10

    @given(interior_vec(2), interior_vec(2))
    @settings(max_examples=200)
    def test_equals_outcome_kl_random(self, p_xi, q_xi):
        direct = kl_divergence(product_distribution(p_xi), product_distribution(q_xi))
        assert abs(canonical_divergence(p_xi, q_xi) - direct) < 1e-10


class TestFisherMetric:
    def test_origin(self):
        g = fisher_metric(np.zeros(3), np.array([1 / 3] * 3))
        np.testing.assert_allclose(g, np.eye(3) / 3.0)

    def test_displaced_entry(self):
        g = fisher_metric(np.array([0.6, 0.0, 0.0]), np.array([1 / 3] * 3))
        assert g[0, 0] == pytest.approx((1 / 3) / 0.64, abs=1e-15)
        assert g[0, 1] == 0.0 and g[1, 2] == 0.0

    def test_matches_score_expectation(self, gate_bound):
        assert fisher_agreement_defect(seed=5) < gate_bound(fisher_agreement_defect)


def foliation_coordinates(s, xi) -> tuple[np.ndarray, np.ndarray]:
    """Mixed dual coordinates (eta, theta) of the 5-simplex of randomized
    distributions, adapted to the weight/state split: the reference the
    tests below check the foliation against.

    eta = (s1, s2, s1 xi1, s2 xi2, s3 xi3) is mixture-affine; its dual
    theta has components 1 and 2 mixing weights and state while components
    3..5 equal atanh(xi_i) and depend on the state alone.  That separation
    is exactly what makes the weights a harmless nuisance: slices of fixed
    weights and slices of fixed state meet orthogonally.
    """
    s = weight_vector(s)
    xi = stokes_vector(xi)
    eta = np.array([s[0], s[1], s[0] * xi[0], s[1] * xi[1], s[2] * xi[2]])
    theta = np.array(
        [
            0.5 * np.log((s[0] / s[2]) ** 2 * (1.0 - xi[0] ** 2) / (1.0 - xi[2] ** 2)),
            0.5 * np.log((s[1] / s[2]) ** 2 * (1.0 - xi[1] ** 2) / (1.0 - xi[2] ** 2)),
            np.arctanh(xi[0]),
            np.arctanh(xi[1]),
            np.arctanh(xi[2]),
        ]
    )
    return eta, theta


class TestFoliation:
    def test_symmetric_point(self):
        eta, theta = foliation_coordinates(np.array([1 / 3] * 3), np.zeros(3))
        np.testing.assert_allclose(eta, [1 / 3, 1 / 3, 0.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(theta, np.zeros(5), atol=1e-15)

    def test_state_coordinates_ignore_weights(self):
        xi = np.array([0.5, -0.2, 0.1])
        _, theta_a = foliation_coordinates(np.array([1 / 3] * 3), xi)
        _, theta_b = foliation_coordinates(np.array([0.6, 0.3, 0.1]), xi)
        assert theta_a[2] == pytest.approx(0.5 * np.log(3.0), abs=1e-14)
        np.testing.assert_allclose(theta_a[2:], theta_b[2:], atol=0)

    def test_weight_coordinate(self):
        _, theta = foliation_coordinates(np.array([0.5, 0.25, 0.25]), np.zeros(3))
        assert theta[0] == pytest.approx(np.log(2.0), abs=1e-14)

    def test_orthogonality_at_fixed_points(self):
        assert foliation_orthogonality_defect(np.array([1 / 3] * 3), np.zeros(3)) < 1e-8
        assert (
            foliation_orthogonality_defect(np.array([0.5, 0.3, 0.2]), np.array([0.4, -0.2, 0.1]))
            < 1e-8
        )

    def test_orthogonality_battery(self, gate_bound):
        assert foliation_defect(seed=7) < gate_bound(foliation_defect)

    @pytest.mark.parametrize(
        "s, xi",
        [
            ((0.5, 0.3, 0.2), (0.4, -0.2)),
            ((0.5, 0.3, 0.3), (0.4, -0.2, 0.1)),
        ],
        ids=["two_components", "weights_sum_above_1"],
    )
    def test_orthogonality_defect_validates(self, s, xi):
        with pytest.raises(InvalidInputError):
            foliation_orthogonality_defect(np.array(s), np.array(xi))


class TestDivergenceIdentities:
    def test_marginal_decomposition(self, check_calls, gate_bound):
        pairs = check_calls("empirical_kl")
        assert marginal_decomposition_defect(seed=11) < gate_bound(marginal_decomposition_defect)
        assert len(pairs) == 100

    def test_additivity_across_foliation(self, gate_bound):
        assert pythagorean_defect(seed=13) < gate_bound(pythagorean_defect)

    def test_empirical_kl_boundary_safe(self):
        # empirical component at +1: the vanishing term drops out
        val = empirical_kl(
            np.array([1.0, 0.0, 0.0]), np.array([1 / 3] * 3), np.array([0.8, 0.1, 0.0])
        )
        assert np.isfinite(val) and val > 0.0
