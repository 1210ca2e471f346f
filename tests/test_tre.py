import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import random_pd
from telent.matfun import trace_norm_distance
from telent.states import (
    pure_from_vector,
    qubit_pair_with_angle,
    random_mixed_hs,
    random_orthogonal_pair,
    telescope_mix,
)
from telent.tre import (
    binary_entropy,
    holevo_two,
    holevo_two_via_relative,
    relative_entropy,
    telescopic_relative_entropy,
    tre_limit_one,
    tre_limit_zero,
    tre_pure_closed_form,
    von_neumann_entropy,
)


def pure_pair_with_distance(t):
    """The canonical 2x2 construction: rho = |0><0|, overlap 1 - t^2."""
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = pure_from_vector([np.sqrt(1.0 - t * t), t])
    return rho, sigma


class TestVonNeumann:
    def test_pure_state(self, rng):
        from telent.states import haar_random_pure

        assert von_neumann_entropy(haar_random_pure(4, rng)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(math.log(2), abs=1e-12)

    def test_two_thirds(self):
        # -(2/3)log(2/3) - (1/3)log(1/3)
        assert von_neumann_entropy(np.diag([2 / 3, 1 / 3])) == pytest.approx(
            0.6365141682948128, abs=1e-12
        )


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_distinct_pure_states_infinite(self, rng):
        from telent.states import haar_random_pure

        r = haar_random_pure(3, rng)
        s = haar_random_pure(3, rng)
        assert relative_entropy(r, s) == math.inf

    def test_commuting_kl(self):
        # (2/3)log(4/3) + (1/3)log(2/3), classical KL of the spectra
        val = relative_entropy(np.diag([2 / 3, 1 / 3]), np.diag([0.5, 0.5]))
        assert val == pytest.approx(0.056633012265132426, abs=1e-12)

    def test_support_leak_triggers_infinity(self):
        rho = np.diag([0.5, 0.5, 0.0])
        sigma = np.diag([0.5, 0.0, 0.5])
        assert relative_entropy(rho, sigma) == math.inf

    def test_contained_support_is_finite(self):
        rho = np.diag([0.3, 0.7, 0.0])
        sigma = np.diag([0.5, 0.5, 0.0])
        val = relative_entropy(rho, sigma)
        assert math.isfinite(val) and val > 0

    def test_pinsker(self, rng):
        for _ in range(25):
            rho = random_mixed_hs(3, 3, rng)
            sigma = random_mixed_hs(3, 3, rng)
            t = trace_norm_distance(rho, sigma)
            assert relative_entropy(rho, sigma) >= 2 * t * t - 1e-9


class TestTelescopicRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = random_mixed_hs(3, 2, rng)
        for a in (0.1, 0.5, 0.9):
            assert telescopic_relative_entropy(rho, rho, a) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_is_one(self, rng):
        for dim in (2, 3, 5):
            r, s = random_orthogonal_pair(dim, rng)
            assert telescopic_relative_entropy(r, s, 0.3) == pytest.approx(1.0, abs=1e-10)

    def test_qubit_diagonal_formula(self):
        # S_a = log(a + (1-a)x) / log(a) for rho = |0><0|, sigma = diag(x, 1-x)
        rho = np.diag([1.0, 0.0])
        x, a = 0.25, 0.5
        sigma = np.diag([x, 1 - x])
        assert telescopic_relative_entropy(rho, sigma, a) == pytest.approx(
            0.6780719051126377, abs=1e-12
        )

    def test_equality_family(self):
        t, a = 0.37, 0.3
        rho = np.diag([t, 0.0, 1.0 - t])
        sigma = np.diag([0.0, t, 1.0 - t])
        assert telescopic_relative_entropy(rho, sigma, a) == pytest.approx(t, abs=1e-12)

    def test_endpoints_dispatch_to_closed_forms(self, rng):
        rho = random_mixed_hs(3, 2, rng)
        sigma = random_mixed_hs(3, 3, rng)
        assert telescopic_relative_entropy(rho, sigma, 0.0) == tre_limit_zero(rho, sigma)
        assert telescopic_relative_entropy(rho, sigma, 1.0) == tre_limit_one(rho, sigma)

    def test_always_finite_and_in_range(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 6))
            rho = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            sigma = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            for a in (0.05, 0.5, 0.95):
                sa = telescopic_relative_entropy(rho, sigma, a)
                assert 0.0 <= sa <= 1.0 + 1e-12

    def test_near_endpoint_consistency(self, rng):
        # Plain evaluation converges only like 1/|log a| at the a -> 0 end,
        # with constant S(rho||sigma); bounding that constant (sigma
        # dominates 0.6 rho, so S <= -log 0.6) keeps the 5e-2 window valid.
        # Unconditioned pairs need the Richardson extrapolation instead.
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            raw = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            sigma = telescope_mix(rho, raw, 0.6)
            assert telescopic_relative_entropy(rho, sigma, 1e-6) == pytest.approx(
                tre_limit_zero(rho, sigma), abs=5e-2
            )
            assert telescopic_relative_entropy(rho, sigma, 1 - 1e-6) == pytest.approx(
                tre_limit_one(rho, sigma), abs=5e-2
            )

    def test_deviation_scales_inverse_logarithmically(self, rng):
        # |S_a - S_0| ~ C/|log a|: shrinking a from 1e-6 to 1e-9 cuts the
        # deviation by about 2/3 whenever it is non-negligible.
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            sigma = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            s0 = tre_limit_zero(rho, sigma)
            dev6 = abs(telescopic_relative_entropy(rho, sigma, 1e-6) - s0)
            dev9 = abs(telescopic_relative_entropy(rho, sigma, 1e-9) - s0)
            if dev6 > 1e-3:
                assert dev9 <= dev6 * (2.0 / 3.0 + 0.1)

    def test_a_domain(self, rng):
        rho = random_mixed_hs(2, 2, rng)
        with pytest.raises(ValueError):
            telescopic_relative_entropy(rho, rho, 1.2)


class TestLimits:
    def test_faithful_sigma_gives_zero(self, rng):
        rho = random_mixed_hs(2, 1, rng)
        assert tre_limit_zero(rho, np.diag([0.2, 0.8])) == pytest.approx(0.0, abs=1e-12)

    def test_half_mixed_vs_pure(self):
        assert tre_limit_zero(np.eye(2) / 2, np.diag([0.0, 1.0])) == pytest.approx(0.5)

    def test_pure_pair_is_t_squared(self):
        for theta in (0.3, 1.1, 2.5):
            r, s = qubit_pair_with_angle(theta)
            t2 = np.sin(theta / 2) ** 2
            assert tre_limit_zero(r, s) == pytest.approx(t2, abs=1e-10)
            assert tre_limit_one(r, s) == pytest.approx(t2, abs=1e-10)

    def test_faithful_rho_gives_zero_at_one(self, rng):
        sigma = random_mixed_hs(3, 1, rng)
        assert tre_limit_one(random_pd(rng, 3), sigma) == pytest.approx(0.0, abs=1e-12)

    def test_pure_rho_closed_form(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.25, 0.75])
        assert tre_limit_one(rho, sigma) == pytest.approx(0.75, abs=1e-12)


class TestPureClosedForm:
    def test_zero_distance(self):
        for a in (0.1, 0.5, 0.9):
            assert tre_pure_closed_form(0.0, a) == 0.0

    def test_orthogonal_at_half(self):
        assert tre_pure_closed_form(1.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_any_a(self):
        for a in (0.1, 0.3, 0.7, 0.9):
            assert tre_pure_closed_form(1.0, a) == pytest.approx(1.0, abs=1e-12)

    def test_matches_matrix_computation(self):
        t, a = np.sin(np.pi / 8), 0.5
        rho, sigma = pure_pair_with_distance(t)
        assert tre_pure_closed_form(t, a) == pytest.approx(
            telescopic_relative_entropy(rho, sigma, a), abs=1e-10
        )

    def test_small_grid_dual_path(self):
        for t in (0.1, 0.5, 0.93):
            rho, sigma = pure_pair_with_distance(t)
            for a in (0.03, 0.4, 0.97):
                assert tre_pure_closed_form(t, a) == pytest.approx(
                    telescopic_relative_entropy(rho, sigma, a), abs=1e-9
                )

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_range_and_trace_norm_bound(self, t, a):
        val = tre_pure_closed_form(t, a)
        assert 0.0 <= val <= 1.0 + 1e-9
        assert val <= t + 1e-9
        assert val >= 2 * (1 - a) ** 2 * t * t / (-math.log(a)) - 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            tre_pure_closed_form(1.5, 0.5)
        with pytest.raises(ValueError):
            tre_pure_closed_form(0.5, 0.0)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_point_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.34651533691866615, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range_and_symmetry(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= math.log(2) + 1e-15
        assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


class TestHolevo:
    def test_identical_states(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        assert holevo_two(0.4, rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_pure_at_half(self):
        chi = holevo_two(0.5, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert chi == pytest.approx(math.log(2), abs=1e-12)

    def test_dual_path_agreement(self, rng):
        for _ in range(10):
            rho = random_mixed_hs(2, 2, rng)
            sigma = random_mixed_hs(2, 2, rng)
            assert holevo_two(0.3, rho, sigma) == pytest.approx(
                holevo_two_via_relative(0.3, rho, sigma), abs=1e-9
            )

    def test_dual_path_with_rank_deficient(self, rng):
        rho = random_mixed_hs(3, 1, rng)
        sigma = random_mixed_hs(3, 2, rng)
        assert holevo_two(0.6, rho, sigma) == pytest.approx(
            holevo_two_via_relative(0.6, rho, sigma), abs=1e-9
        )

    def test_endpoint_probabilities(self, rng):
        rho = random_mixed_hs(2, 1, rng)
        sigma = random_mixed_hs(2, 1, rng)
        assert holevo_two(0.0, rho, sigma) == pytest.approx(0.0, abs=1e-12)
        assert holevo_two_via_relative(1.0, rho, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_bounds(self, rng):
        for _ in range(20):
            p = float(rng.uniform())
            rho = random_mixed_hs(3, int(rng.integers(1, 4)), rng)
            sigma = random_mixed_hs(3, int(rng.integers(1, 4)), rng)
            chi = holevo_two(p, rho, sigma)
            hp = binary_entropy(p)
            assert chi <= hp + 1e-9
            assert chi <= hp * trace_norm_distance(rho, sigma) + 1e-9
