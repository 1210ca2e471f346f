import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    reference_mixed_hs,
    reference_orthogonal_pair,
    reference_pure,
    reference_unitary,
)
from telent.matfun import _EPS_RANK, _RANK_CUT_MIN_DIM, trace_norm_distance
from telent.states import (
    check_density,
    haar_random_pure,
    haar_unitary,
    is_orthogonal,
    pure_from_vector,
    qubit_pair_with_angle,
    random_mixed_hs,
    random_orthogonal_pair,
    state_from_jsonable,
    state_to_jsonable,
    telescope_mix,
)


class TestPureFromVector:
    def test_basis_vector(self):
        assert_allclose(pure_from_vector([1, 0]), np.diag([1.0, 0.0]))

    def test_uniform_superposition(self):
        assert_allclose(pure_from_vector([1, 1]), np.full((2, 2), 0.5))

    def test_normalization_forced(self):
        assert_allclose(pure_from_vector([2, 0]), np.diag([1.0, 0.0]))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            pure_from_vector([0, 0])


class TestQubitPair:
    def test_coincident(self):
        r, s = qubit_pair_with_angle(0.0)
        assert trace_norm_distance(r, s) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal(self):
        r, s = qubit_pair_with_angle(np.pi)
        assert trace_norm_distance(r, s) == pytest.approx(1.0, abs=1e-12)

    def test_right_angle(self):
        r, s = qubit_pair_with_angle(np.pi / 2)
        assert trace_norm_distance(r, s) == pytest.approx(np.sin(np.pi / 4), abs=1e-12)

    def test_distance_on_grid(self):
        for theta in np.linspace(0.0, np.pi, 100):
            r, s = qubit_pair_with_angle(theta)
            check_density(r)
            check_density(s)
            assert trace_norm_distance(r, s) == pytest.approx(
                abs(np.sin(theta / 2)), abs=1e-12
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            qubit_pair_with_angle(-0.1)


class TestTelescopeMix:
    def test_endpoints(self, rng):
        r = random_mixed_hs(3, 3, rng)
        s = random_mixed_hs(3, 2, rng)
        assert_allclose(telescope_mix(r, s, 1.0), r)
        assert_allclose(telescope_mix(r, s, 0.0), s)

    def test_even_mix_of_basis_states(self):
        out = telescope_mix(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5)
        assert_allclose(out, np.eye(2) / 2)

    def test_mix_is_valid_state(self, rng):
        r = random_mixed_hs(4, 2, rng)
        s = random_mixed_hs(4, 4, rng)
        check_density(telescope_mix(r, s, 0.3))

    def test_swap_linearity(self, rng):
        r = random_mixed_hs(3, 3, rng)
        s = random_mixed_hs(3, 3, rng)
        total = telescope_mix(r, s, 0.27) + telescope_mix(s, r, 0.27)
        assert np.abs(total - (r + s)).max() <= 1e-12

    def test_distance_contraction(self, rng):
        r = random_mixed_hs(4, 4, rng)
        s = random_mixed_hs(4, 3, rng)
        for a in (0.1, 0.5, 0.9):
            tau = telescope_mix(r, s, a)
            assert trace_norm_distance(r, tau) == pytest.approx(
                (1 - a) * trace_norm_distance(r, s), abs=1e-10
            )

    def test_domain(self, rng):
        r = random_mixed_hs(2, 2, rng)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            telescope_mix(r, r, 1.5)


class TestSampling:
    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_samplers_are_the_per_matrix_code(self, dim):
        # each sampler is the one-matrix case of a stacked helper
        def same(sampler, reference, *args):
            got = sampler(dim, *args, np.random.default_rng(seed))
            want = reference(np.random.default_rng(seed), dim, *args)
            assert np.stack(got).tobytes() == np.stack(want).tobytes()

        for seed in range(20):
            same(haar_unitary, reference_unitary)
            same(haar_random_pure, reference_pure)
            same(random_orthogonal_pair, reference_orthogonal_pair)
            for rank in range(1, dim + 1):
                same(random_mixed_hs, reference_mixed_hs, rank)

    def test_dim_one_pure(self, rng):
        assert_allclose(haar_random_pure(1, rng), [[1.0]])

    def test_pure_invariants(self, rng):
        for _ in range(1000):
            rho = haar_random_pure(4, rng)
            check_density(rho)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)

    def test_pure_mean_is_maximally_mixed(self):
        rng = np.random.default_rng(42)
        v = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        mean = np.einsum("ki,kj->ij", v, v.conj()) / v.shape[0]
        assert trace_norm_distance(mean, np.eye(2) / 2) <= 0.05

    def test_mixed_rank_one_is_pure(self, rng):
        rho = random_mixed_hs(3, 1, rng)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)

    def test_full_rank_is_faithful(self, rng):
        # the rank cut at d = 3; lambda_max <= 1
        cut = _RANK_CUT_MIN_DIM * _EPS_RANK
        for _ in range(1000):
            rho = random_mixed_hs(3, 3, rng)
            assert np.linalg.eigvalsh(rho)[0] > cut

    def test_trace_normalized(self, rng):
        for _ in range(50):
            rho = random_mixed_hs(4, int(rng.integers(1, 5)), rng)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_rank_domain(self, rng):
        with pytest.raises(ValueError, match="rank"):
            random_mixed_hs(3, 4, rng)



class TestOrthogonality:
    def test_basis_states(self):
        assert is_orthogonal(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_self_overlap(self, rng):
        rho = random_mixed_hs(3, 2, rng)
        assert not is_orthogonal(rho, rho)

    def test_block_diagonal(self):
        a = np.diag([0.5, 0.5, 0.0, 0.0])
        b = np.diag([0.0, 0.0, 0.3, 0.7])
        assert is_orthogonal(a, b)

    def test_constructed_pairs(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            r, s = random_orthogonal_pair(d, rng)
            check_density(r)
            check_density(s)
            assert is_orthogonal(r, s)


class TestStateJson:
    def test_round_trip_entrywise(self, rng):
        rho = random_mixed_hs(4, 3, rng)
        back = state_from_jsonable(state_to_jsonable(rho))
        assert np.abs(back - rho).max() <= 1e-15

    def test_diag_form(self):
        rho = state_from_jsonable({"diag": [0.25, 0.75]})
        assert_allclose(rho, np.diag([0.25, 0.75]))

    def test_pure_form(self):
        rho = state_from_jsonable({"pure": [[1, 0], [1, 0]]})
        assert_allclose(rho, np.full((2, 2), 0.5))

    def test_bloch_form(self):
        rho = state_from_jsonable({"bloch": [0, 0, 1]})
        assert_allclose(rho, np.diag([1.0, 0.0]))

    def test_errors_name_field(self):
        with pytest.raises(ValueError, match='"diag"'):
            state_from_jsonable({"diag": [0.2, 0.2]})
        with pytest.raises(ValueError, match='"bloch"'):
            state_from_jsonable({"bloch": [2, 0, 0]})
        with pytest.raises(ValueError, match="exactly one"):
            state_from_jsonable({"diag": [1.0], "bloch": [0, 0, 0]})
        with pytest.raises(ValueError, match='"dim"'):
            state_from_jsonable(
                {"dim": 3, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
            )
