import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import mixed_strata_stack, random_pd, reference_overlap, state_power
from telent.matfun import frechet_power_map, support_projector, trace_norm_distance
from telent.renyi import (
    renyi_overlap,
    renyi_overlap_telescoped,
    trre,
)
from telent.tre import _Core, telescopic_relative_entropy, tre_limit_one, tre_limit_zero
from telent.states import (
    random_mixed_hs,
    random_orthogonal_pair,
    telescope_mix,
)


class TestStatePower:
    def test_zero_exponent_is_support_projector(self, rng):
        rho = random_mixed_hs(4, 2, rng)
        assert_allclose(state_power(rho, 0.0), support_projector(rho), atol=1e-12)

    def test_spectrum_convention(self):
        out = state_power(np.diag([0.0, 0.25]), 0.5)
        assert_allclose(out, np.diag([0.0, 0.5]), atol=1e-14)

    def test_unit_exponent(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        assert_allclose(state_power(rho, 1.0), rho, atol=1e-12)


class TestRenyiOverlap:
    def test_equal_states(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        for p in (0.0, 0.3, 0.5, 1.0):
            assert renyi_overlap(rho, rho, p) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_states(self, rng):
        r, s = random_orthogonal_pair(4, rng)
        assert renyi_overlap(r, s, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_bhattacharyya(self):
        val = renyi_overlap(np.diag([0.7, 0.3]), np.diag([0.3, 0.7]), 0.5)
        assert val == pytest.approx(0.916515138991168, abs=1e-12)

    def test_swap_symmetry(self, rng):
        rho = random_mixed_hs(3, 2, rng)
        sigma = random_mixed_hs(3, 3, rng)
        for p in (0.2, 0.5, 0.8):
            assert renyi_overlap(rho, sigma, p) == pytest.approx(
                renyi_overlap(sigma, rho, 1.0 - p), abs=1e-10
            )

    def test_lower_bound_one_minus_t(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 6))
            rho = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            sigma = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            t = trace_norm_distance(rho, sigma)
            for p in (0.1, 0.5, 0.9):
                assert renyi_overlap(rho, sigma, p) >= 1.0 - t - 1e-9

    def test_p_domain(self, rng):
        rho = random_mixed_hs(2, 2, rng)
        with pytest.raises(ValueError):
            renyi_overlap(rho, rho, 1.5)


class TestTelescopedOverlap:
    def test_equal_states(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        assert renyi_overlap_telescoped(rho, rho, 0.4, 0.3) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_attains_minimum(self, rng):
        r, s = random_orthogonal_pair(4, rng)
        for p in (0.3, 0.5, 0.7):
            for a in (0.25, 0.5, 0.75):
                assert renyi_overlap_telescoped(r, s, p, a) == pytest.approx(
                    a**p, abs=1e-10
                )

    def test_monotone_in_a_for_orthogonal(self, rng):
        r, s = random_orthogonal_pair(3, rng)
        grid = np.linspace(0.0, 0.95, 12)
        vals = [renyi_overlap_telescoped(r, s, 0.5, a) for a in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_range(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 5))
            rho = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            sigma = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            p, a = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 0.95))
            ov = renyi_overlap_telescoped(rho, sigma, p, a)
            assert a**p - 1e-9 <= ov <= 1.0 + 1e-9


class TestOverlapGrid:
    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 16, 64])
    def test_bit_identical_to_scalar(self, dim, linalg_calls):
        rho, sigma = mixed_strata_stack(np.random.default_rng(dim), dim)
        p_grid, a_grid = (0.25, 0.5, 0.75), (0.0, 1e-11, 1e-6, 0.5, 1.0 - 1e-9, 1.0)
        grid = renyi_overlap_telescoped(rho, sigma, p_grid, a_grid)
        # at a = 1 the mixture is rho, and the overlap tr rho = 1
        reference = [
            [[reference_overlap(r, s, p, a) for a in a_grid[:-1]] + [1.0] for p in p_grid]
            for r, s in zip(rho, sigma)
        ]
        scalar = [
            [[renyi_overlap_telescoped(r, s, p, a) for a in a_grid] for p in p_grid]
            for r, s in zip(rho, sigma)
        ]
        assert grid.shape == (len(rho), len(p_grid), len(a_grid))
        # bit for bit, the sign of zero included
        assert grid.tobytes() == np.array(reference).tobytes()
        assert np.array(scalar).tobytes() == np.array(reference).tobytes()
        assert _Core(rho, sigma).overlaps(p_grid, a_grid).tobytes() == grid.tobytes()
        # on one core, after S_a at the same grid, the overlaps take its
        # mixtures, and the values stay the same
        core = _Core(rho, sigma)
        core.sa(a_grid[1:])
        before = linalg_calls["eigh"]
        shared = core.overlaps(p_grid, a_grid[1:])
        assert linalg_calls["eigh"] == before
        assert shared.tobytes() == grid[:, :, 1:].tobytes()

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_endpoint_orders_keep_the_support_convention(self, p):
        # x^0 is the support projector, not the identity, on either state
        rho, sigma = mixed_strata_stack(np.random.default_rng(5), 3)
        for r, s in zip(rho, sigma):
            for a in (0.0, 0.3):
                value = renyi_overlap_telescoped(r, s, p, a)
                assert value == reference_overlap(r, s, p, a)
                tau = telescope_mix(r, s, a)
                powers = np.trace(state_power(r, 1.0 - p) @ state_power(tau, p)).real
                assert value == pytest.approx(powers, abs=1e-12)
        grid = _Core(rho, sigma).overlaps((p,), (0.0, 0.3))
        for k, a in enumerate((0.0, 0.3)):
            one_pair = [renyi_overlap_telescoped(r, s, p, a) for r, s in zip(rho, sigma)]
            assert grid[:, 0, k].tolist() == one_pair


class TestTrre:
    def test_equal_states(self, rng):
        rho = random_mixed_hs(3, 2, rng)
        assert trre(rho, rho, 0.5, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_is_one(self, rng):
        r, s = random_orthogonal_pair(4, rng)
        for p in (0.2, 0.5, 0.8):
            for a in (0.25, 0.5, 0.75):
                assert trre(r, s, p, a) == pytest.approx(1.0, abs=1e-10)

    def test_a_zero_special_case(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        sigma = random_mixed_hs(3, 3, rng)
        p = 0.4
        expected = 1.0 - renyi_overlap(rho, sigma, p)
        assert trre(rho, sigma, p, 0.0) == pytest.approx(expected, abs=1e-12)
        assert trre(rho, sigma, p, 0.0) <= trace_norm_distance(rho, sigma) + 1e-9

    def test_commuting_example(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        sigma = np.diag([0.3, 0.7]).astype(complex)
        q = trre(rho, sigma, 0.5, 0.5)
        # overlap = sqrt(0.35) + sqrt(0.15), Q = (1 - overlap)/(1 - sqrt(0.5))
        assert q == pytest.approx(0.07201835247244681, abs=1e-12)
        assert q <= trace_norm_distance(rho, sigma) + 1e-9

    def test_bound_sweep(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 6))
            rho = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            sigma = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            t = trace_norm_distance(rho, sigma)
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                for a in (0.0, 0.25, 0.5, 0.75):
                    q = trre(rho, sigma, p, a)
                    assert 0.0 <= q <= 1.0 + 1e-9
                    assert q <= t + 1e-9

    def test_parameter_domains(self, rng):
        rho = random_mixed_hs(2, 2, rng)
        with pytest.raises(ValueError, match=r"Renyi order p must lie in \(0, 1\), got 0.0"):
            trre(rho, rho, 0.0, 0.5)
        with pytest.raises(ValueError, match=r"Renyi order p must lie in \(0, 1\), got 1.0"):
            trre(rho, rho, [0.5, 1.0], 0.5)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got 1.5"):
            trre(rho, rho, 0.5, 1.5)
        with pytest.raises(ValueError, match="at most 2 axes"):
            trre(rho, rho, 0.5, [[[0.5]]])
        with pytest.raises(ValueError, match=r"Renyi order p must lie in \[0, 1\]"):
            renyi_overlap_telescoped(rho, rho, -0.5, 0.5)

    def test_a_one_is_the_closed_form_s1(self, rng):
        # Q_{p,1} = 1 - tr sigma {rho}: 0.7 for rho = |0><0|, sigma = diag(.3, .7)
        rho, sigma = np.diag([1.0, 0.0]), np.diag([0.3, 0.7])
        for p in (0.2, 0.5, 0.8):
            assert trre(rho, sigma, p, 1.0) == pytest.approx(0.7, abs=1e-15)
            assert renyi_overlap_telescoped(rho, sigma, p, 1.0) == 1.0
        stack = mixed_strata_stack(rng, 3)
        for r, s in zip(*stack):
            s1 = tre_limit_one(r, s)
            assert [trre(r, s, p, 1.0) for p in (0.2, 0.5, 0.8)] == [s1] * 3
        # zero for faithful rho, whatever sigma
        rho = random_mixed_hs(3, 3, rng)
        assert trre(rho, random_mixed_hs(3, 1, rng), 0.4, 1.0) == 0.0
        # below 1, where a^p rounds to 1 the quotient is 0/0 in floats: the
        # limit, without a warning
        rho, sigma = np.diag([1.0, 0.0]), np.diag([0.3, 0.7])
        a = np.nextafter(1.0, 0.0)
        assert a**0.25 == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert trre(rho, sigma, [0.25, 0.5], a).tolist() == [tre_limit_one(rho, sigma)] * 2

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 64])
    def test_stack_is_bit_identical_to_one_pair(self, dim):
        rho, sigma = mixed_strata_stack(np.random.default_rng(dim), dim)
        p_grid, a_grid = (0.25, 0.5, 0.75), (0.0, 1e-11, 0.3, 1.0 - 1e-9, 1.0)
        stacked = trre(rho, sigma, p_grid, a_grid)
        scalar = [
            [[trre(r, s, p, a) for a in a_grid] for p in p_grid] for r, s in zip(rho, sigma)
        ]
        assert stacked.shape == (len(rho), len(p_grid), len(a_grid))
        assert all(type(x) is float for row in scalar for col in row for x in col)
        assert stacked.tobytes() == np.array(scalar).tobytes()
        # the one-pair value is the formula on floats, clamped as max clamps
        for (r, s), rows in zip(zip(rho, sigma), scalar):
            for p, row in zip(p_grid, rows):
                for a, q in zip(a_grid[:-1], row):
                    overlap = reference_overlap(r, s, p, a)
                    assert q == max((1.0 - overlap) / (1.0 - a**p), 0.0)
                assert row[-1] == tre_limit_one(r, s)
        # a scalar p or a drops its axis, and one pair drops the stack's
        assert trre(rho, sigma, 0.5, a_grid).tobytes() == stacked[:, 1].tobytes()
        assert trre(rho, sigma, p_grid, 0.3).tobytes() == stacked[:, :, 2].tobytes()
        assert trre(rho[1], sigma[1], p_grid, a_grid).tobytes() == stacked[1].tobytes()
        # an array of p of any shape takes the place of the p axis
        column = trre(rho, sigma, np.array(p_grid)[:, None], a_grid)
        assert column.shape == (len(rho), len(p_grid), 1, len(a_grid))
        assert column.tobytes() == stacked.tobytes()
        # an (N, K) grid gives each pair its own row of a
        rows = np.array([a_grid, a_grid[::-1]] * len(rho))[: len(rho)]
        expected = [[[trre(r, s, p, a) for a in row] for p in p_grid]
                    for r, s, row in zip(rho, sigma, rows)]
        assert trre(rho, sigma, p_grid, rows).tobytes() == np.array(expected).tobytes()
        # the other one-pair quantities are their stacked values too
        sa = telescopic_relative_entropy(rho, sigma, a_grid)
        overlaps = renyi_overlap_telescoped(rho, sigma, p_grid, a_grid)
        distances = trace_norm_distance(rho, sigma)
        for n, (r, s) in enumerate(zip(rho, sigma)):
            one_pair = [telescopic_relative_entropy(r, s, a) for a in a_grid]
            assert np.array(one_pair).tobytes() == sa[n].tobytes()
            ends = [tre_limit_zero(r, s), tre_limit_one(r, s)]
            assert np.array(ends).tobytes() == sa[n, [0, -1]].tobytes()
            one_pair = [[renyi_overlap_telescoped(r, s, p, a) for a in a_grid] for p in p_grid]
            assert np.array(one_pair).tobytes() == overlaps[n].tobytes()
            assert np.array(trace_norm_distance(r, s)).tobytes() == distances[n].tobytes()


class TestDerivativeConsistency:
    def test_overlap_derivative_in_a(self, rng):
        # d/da tr rho^(1-p) tau^p equals tr rho^(1-p) T_{tau;p}(rho - sigma)
        for _ in range(5):
            rho = random_pd(rng, 3)
            sigma = random_pd(rng, 3)
            p, a = 0.6, 0.4
            tau = telescope_mix(rho, sigma, a)
            lhs = float(
                np.real(
                    np.trace(
                        state_power(rho, 1 - p)
                        @ frechet_power_map(tau, rho - sigma, p)
                    )
                )
            )
            h = 1e-5
            up = renyi_overlap_telescoped(rho, sigma, p, a + h)
            dn = renyi_overlap_telescoped(rho, sigma, p, a - h)
            assert lhs == pytest.approx((up - dn) / (2 * h), abs=1e-6)
