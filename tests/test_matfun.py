import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import random_hermitian, random_pd
from telent.matfun import (
    frechet_log_map,
    frechet_power_map,
    check_hermitian,
    hermitian_part,
    matrix_function,
    positive_part,
    spectral_decompose,
    support_projector,
    support_rank,
    trace_norm_distance,
)
from telent.oracle import finite_diff_frechet
from telent.states import haar_unitary


class TestSpectralDecompose:
    def test_identity(self):
        dec = spectral_decompose(np.eye(2))
        assert_allclose(dec.eigenvalues, [1.0, 1.0])
        assert_allclose(dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(2), atol=1e-12)

    def test_diagonal_already_sorted(self):
        dec = spectral_decompose(np.diag([0.0, 0.3, 0.7]))
        assert_allclose(dec.eigenvalues, [0.0, 0.3, 0.7])
        assert_allclose(np.abs(dec.eigenvectors), np.eye(3), atol=1e-12)

    def test_reconstruction_random(self, rng):
        for _ in range(20):
            H = random_hermitian(rng, 4)
            dec = spectral_decompose(H)
            lam_max = max(1.0, np.abs(dec.eigenvalues).max())
            assert np.abs(dec.reconstruct() - H).max() <= 1e-10 * lam_max
            assert np.abs(
                dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(4)
            ).max() <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            spectral_decompose(M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        for M in (np.diag([bad, 1.0]), np.array([[0.5, bad], [bad, 0.5]])):
            with pytest.raises(ValueError, match="non-finite"):
                check_hermitian(M)


class TestMatrixFunction:
    def test_diagonal_log(self):
        out = matrix_function(np.diag([1.0, np.e]), np.log)
        assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_diagonal_sqrt(self):
        out = matrix_function(np.diag([4.0, 9.0]), np.sqrt)
        assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-12)

    def test_exp_log_round_trip(self, rng):
        A = random_pd(rng, 4)
        back = matrix_function(matrix_function(A, np.log), np.exp)
        assert np.abs(back - A).max() <= 1e-9

    def test_undefined_eigenvalue_raises(self):
        with pytest.raises(ValueError, match="undefined"):
            matrix_function(np.diag([0.0, 1.0]), np.log)


class TestSupportProjector:
    def test_pure_state(self):
        assert_allclose(support_projector(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-14)

    def test_faithful_state(self):
        assert_allclose(support_projector(np.eye(2) / 2), np.eye(2), atol=1e-14)

    def test_zero_eigenvalue_excluded(self):
        P = support_projector(np.diag([0.3, 0.0, 0.7]))
        assert_allclose(P, np.diag([1.0, 0.0, 1.0]), atol=1e-14)
        assert support_rank(np.diag([0.3, 0.0, 0.7])) == 2

    def test_projector_properties_random(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            r = int(rng.integers(1, d + 1))
            from telent.states import random_mixed_hs

            A = random_mixed_hs(d, r, rng)
            P = support_projector(A)
            assert np.abs(P @ P - P).max() <= 1e-10
            assert np.abs(P - P.conj().T).max() <= 1e-12
            assert np.abs(P @ A - A).max() <= 1e-10
            assert np.abs(A @ P - A).max() <= 1e-10

    def test_not_psd_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            support_projector(np.diag([1.0, -0.5]))

    def test_roundoff_negatives_are_kernel(self):
        # below the rank cutoff but far above -dim * TOL_HERM * lambda_max
        assert support_rank(np.diag([-1e-13, 1.0])) == 1
        assert support_rank(np.diag([1e-6, 1.0])) == 2


class TestPositivePart:
    def test_sign_split(self):
        assert_allclose(positive_part(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-14)

    def test_identity_on_psd(self, rng):
        A = random_pd(rng, 3)
        assert_allclose(positive_part(A), A, atol=1e-12)

    def test_variational_characterisation(self, rng):
        X = random_hermitian(rng, 4)
        tr_plus = float(np.trace(positive_part(X)).real)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            V = haar_unitary(4, rng)[:, :k]
            P = V @ V.conj().T
            assert float(np.real(np.trace(X @ P))) <= tr_plus + 1e-10


class TestTraceNormDistance:
    def test_identical(self, rng):
        A = random_pd(rng, 3)
        assert trace_norm_distance(A, A) == 0.0

    def test_orthogonal_pure(self):
        assert_allclose(
            trace_norm_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), 1.0
        )

    def test_diagonal_family(self):
        t = 0.37
        rho = np.diag([t, 0.0, 1.0 - t])
        sig = np.diag([0.0, t, 1.0 - t])
        assert_allclose(trace_norm_distance(rho, sig), t, atol=1e-14)

    def test_symmetry_triangle_range(self, rng):
        from telent.states import random_mixed_hs

        for _ in range(20):
            d = int(rng.integers(2, 6))
            a = random_mixed_hs(d, d, rng)
            b = random_mixed_hs(d, int(rng.integers(1, d + 1)), rng)
            c = random_mixed_hs(d, d, rng)
            tab = trace_norm_distance(a, b)
            assert tab == pytest.approx(trace_norm_distance(b, a), abs=1e-14)
            assert 0.0 <= tab <= 1.0 + 1e-12
            assert tab <= trace_norm_distance(a, c) + trace_norm_distance(c, b) + 1e-12

    def test_half_sum_abs_equals_positive_part_trace(self, rng):
        a, b = random_pd(rng, 4), random_pd(rng, 4)
        t1 = trace_norm_distance(a, b)
        t2 = float(np.trace(positive_part(a - b)).real)
        assert t1 == pytest.approx(t2, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_norm_distance(np.eye(2) / 2, np.eye(3) / 3)


class TestFrechetLogMap:
    def test_maps_base_point_to_identity(self, rng):
        for _ in range(10):
            A = random_pd(rng, 3)
            assert np.abs(frechet_log_map(A, A) - np.eye(3)).max() <= 1e-10

    def test_identity_base_is_identity_map(self, rng):
        D = random_hermitian(rng, 3)
        assert_allclose(frechet_log_map(np.eye(3), D), D, atol=1e-12)

    def test_self_adjoint(self, rng):
        A = random_pd(rng, 4)
        B = random_hermitian(rng, 4)
        D = random_hermitian(rng, 4)
        lhs = np.trace(B @ frechet_log_map(A, D))
        rhs = np.trace(D @ frechet_log_map(A, B))
        assert abs(lhs - rhs) <= 1e-10

    def test_linearity(self, rng):
        A = random_pd(rng, 3)
        X = random_hermitian(rng, 3)
        Y = random_hermitian(rng, 3)
        combo = frechet_log_map(A, 0.3 * X + 1.7 * Y)
        parts = 0.3 * frechet_log_map(A, X) + 1.7 * frechet_log_map(A, Y)
        assert np.abs(combo - parts).max() <= 1e-10

    def test_preserves_psd_order(self, rng):
        A = random_pd(rng, 4)
        X = random_pd(rng, 4)
        Y = X + random_pd(rng, 4)
        gap = frechet_log_map(A, Y) - frechet_log_map(A, X)
        assert np.linalg.eigvalsh(gap)[0] >= -1e-10

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="support"):
            frechet_log_map(np.diag([1.0, 0.0]), np.eye(2))

    def test_matches_finite_difference(self, rng):
        A = random_pd(rng, 3)
        D = random_hermitian(rng, 3)
        fd = finite_diff_frechet("log", A, D, 1e-5)
        assert np.abs(fd - frechet_log_map(A, D)).max() <= 1e-6


class TestFrechetPowerMap:
    def test_power_identity(self, rng):
        from telent.renyi import state_power

        for _ in range(10):
            A = random_pd(rng, 3)
            out = frechet_power_map(A, state_power(A, 0.5), 0.5)
            assert np.abs(out - 0.5 * np.eye(3)).max() <= 1e-10

    def test_identity_base_scales_by_p(self, rng):
        D = random_hermitian(rng, 3)
        assert_allclose(frechet_power_map(np.eye(3), D, 0.3), 0.3 * D, atol=1e-12)

    def test_finite_difference_order_two(self, rng):
        A = random_pd(rng, 3, floor=0.2)
        D = random_hermitian(rng, 3)
        exact = frechet_power_map(A, D, 0.5)
        e1 = np.abs(finite_diff_frechet("power", A, D, 1e-4, p=0.5) - exact).max()
        e2 = np.abs(finite_diff_frechet("power", A, D, 5e-5, p=0.5) - exact).max()
        assert e1 / e2 == pytest.approx(4.0, abs=1.0)

    def test_self_adjoint_and_order(self, rng):
        A = random_pd(rng, 3)
        B = random_hermitian(rng, 3)
        D = random_hermitian(rng, 3)
        assert abs(
            np.trace(B @ frechet_power_map(A, D, 0.7))
            - np.trace(D @ frechet_power_map(A, B, 0.7))
        ) <= 1e-10
        X = random_pd(rng, 3)
        Y = X + random_pd(rng, 3)
        gap = frechet_power_map(A, Y, 0.7) - frechet_power_map(A, X, 0.7)
        assert np.linalg.eigvalsh(gap)[0] >= -1e-10

    def test_p_domain(self, rng):
        A = random_pd(rng, 2)
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(ValueError):
                frechet_power_map(A, np.eye(2), bad)


@given(st.floats(min_value=0.05, max_value=20.0), st.floats(min_value=0.05, max_value=20.0))
def test_loewner_log_entries_match_scalar_quotient(x, y):
    A = np.diag([x, y])
    D = np.ones((2, 2))
    G = frechet_log_map(A, D)
    expected = (np.log(x) - np.log(y)) / (x - y) if abs(x - y) > 1e-6 * max(x, y) else 2 / (x + y)
    assert G[0, 1].real == pytest.approx(expected, rel=1e-6)


def test_hermitian_part_involution(rng):
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = hermitian_part(G)
    assert np.abs(H - H.conj().T).max() <= 1e-15
    assert_allclose(hermitian_part(H), H)
