import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import mixed_strata_stack, random_hermitian, random_pd, reference_trace_distance
from telent import verify
from telent.matfun import (
    _BLOCK_STORE,
    _block_spectra,
    _decompose_stack,
    _hermitian_stack,
    _psd_spectra,
    _psd_spectrum,
    frechet_log_map,
    frechet_power_map,
    check_hermitian,
    hermitian_part,
    support_basis,
    support_projector,
    trace_norm_distance,
)
from telent.oracle import finite_diff_frechet, quad_tre
from telent.renyi import renyi_overlap, renyi_overlap_telescoped, state_power, trre
from telent.states import is_orthogonal, telescope_mix
from telent.tre import (
    holevo_two,
    holevo_two_via_relative,
    relative_entropy,
    telescopic_relative_entropy,
    tre_limit_one,
    tre_limit_zero,
)


class TestSpectralDecompose:
    """The decomposition every quantity draws from, ``_psd_spectrum``, on
    positive definite input, and the Hermitian check in front of it."""

    def test_identity(self):
        dec, _ = _psd_spectrum(np.eye(2))
        assert_allclose(dec.eigenvalues, [1.0, 1.0])
        assert_allclose(dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(2), atol=1e-12)

    def test_diagonal_already_sorted(self):
        dec, _ = _psd_spectrum(np.diag([0.1, 0.3, 0.6]))
        assert_allclose(dec.eigenvalues, [0.1, 0.3, 0.6])
        assert_allclose(np.abs(dec.eigenvectors), np.eye(3), atol=1e-12)

    def test_reconstruction_random(self, rng):
        for _ in range(20):
            H = random_pd(rng, 4)
            dec, _ = _psd_spectrum(H)
            lam_max = max(1.0, np.abs(dec.eigenvalues).max())
            assert np.abs(dec.apply(dec.eigenvalues) - H).max() <= 1e-10 * lam_max
            assert np.abs(
                dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(4)
            ).max() <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            check_hermitian(M)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        for M in (np.diag([bad, 1.0]), np.array([[0.5, bad], [bad, 0.5]])):
            with pytest.raises(ValueError, match="non-finite"):
                check_hermitian(M)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.zeros(3), "expected a square matrix, got shape (3,)"),
            (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
            (np.zeros((2, 2, 2)), "expected a square matrix, got shape (2, 2, 2)"),
            (
                [[0.0, 0.1, 0.0], [0.0, 0.0, 0.2], [0.5, 0.0, 0.0]],
                "matrix is not Hermitian: entries (0,2) and (2,0) differ by "
                "5.000e-01 (tolerance 1.0e-10)",
            ),
            (np.diag([1.0, np.inf]), "matrix has non-finite entries"),
            (np.zeros((0, 0)), "expected a nonempty matrix, got shape (0, 0)"),
        ],
        ids=["1d", "not_square", "3d", "worst_entry", "inf", "empty"],
    )
    def test_check_hermitian_messages(self, bad, message):
        with pytest.raises(ValueError) as exc:
            check_hermitian(bad)
        assert str(exc.value) == message
        bad = np.asarray(bad)
        if bad.ndim == 2 and bad.shape[0] == bad.shape[1] > 0:
            # in a stack, the first invalid matrix raises its own message
            with pytest.raises(ValueError) as exc:
                _hermitian_stack([np.eye(len(bad)), bad, 10.0 * bad])
            assert str(exc.value) == message


class TestSupportProjector:
    def test_pure_state(self):
        assert_allclose(support_projector(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-14)

    def test_faithful_state(self):
        assert_allclose(support_projector(np.eye(2) / 2), np.eye(2), atol=1e-14)

    def test_zero_eigenvalue_excluded(self):
        P = support_projector(np.diag([0.3, 0.0, 0.7]))
        assert_allclose(P, np.diag([1.0, 0.0, 1.0]), atol=1e-14)
        assert support_basis(np.diag([0.3, 0.0, 0.7])).shape[1] == 2

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
        assert support_basis(np.diag([-1e-13, 1.0])).shape[1] == 1
        assert support_basis(np.diag([1e-6, 1.0])).shape[1] == 2

    def test_first_matrix_that_is_not_psd_is_named(self):
        H = np.stack([np.eye(2) / 2, np.diag([1.2, -0.2]), np.diag([1.6, -0.6])])
        with pytest.raises(ValueError) as excinfo:
            _decompose_stack(H.astype(complex))
        assert str(excinfo.value) == (
            "matrix is not positive semidefinite: eigenvalue -2.000000e-01 below -2.400e-10"
        )


class TestSpectrumMemo:
    def test_equal_input_decomposes_once(self, rng, linalg_calls):
        A = random_pd(rng, 4)
        first = _psd_spectrum(A)
        assert _psd_spectrum(A.copy()) is first
        assert _psd_spectrum(A.tolist()) is first
        assert linalg_calls["eigh"] == 1

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.diag([1.0, -0.5]), "positive semidefinite"),
            (np.array([[0.0, 1.0], [0.0, 0.0]]), "not Hermitian"),
            (np.diag([np.nan, 1.0]), "non-finite"),
        ],
    )
    def test_invalid_input_raises_every_call(self, bad, match, linalg_calls):
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                _psd_spectrum(bad)

    def test_in_place_change_is_seen(self, linalg_calls):
        A = np.diag([0.25, 0.75])
        before, _ = _psd_spectrum(A)
        A[0, 0] = A[1, 1] = 0.5
        after, _ = _psd_spectrum(A)
        assert_allclose(before.eigenvalues, [0.25, 0.75])
        assert_allclose(after.eigenvalues, [0.5, 0.5])
        assert linalg_calls["eigh"] == 2

    def test_cached_arrays_read_only(self, rng, linalg_calls):
        A = random_pd(rng, 3)
        dec, _ = _psd_spectrum(A)
        with pytest.raises(ValueError, match="read-only"):
            dec.eigenvalues[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            dec.eigenvectors[0, 0] = 1.0
        # public results are fresh arrays, also when the memo hits
        for _ in range(2):
            for out in (
                support_basis(A),
                support_projector(A),
                state_power(A, 0.0),
                state_power(A, 0.5),
                state_power(A, 1.0),
            ):
                assert out.flags.writeable
        assert linalg_calls["eigh"] == 1


class TestBlockStore:
    def test_equal_stack_decomposes_once_in_a_scope(self, rng, linalg_calls):
        H = np.stack([random_pd(rng, 3) for _ in range(4)])
        with _block_spectra():
            first = _psd_spectra(H)
            assert _psd_spectra(H.copy()) is first
            # the key is the whole stack, so a part of it is decomposed again
            _psd_spectra(H[:3])
        assert linalg_calls["eigh"] == 2
        # outside a scope nothing is stored
        assert _psd_spectra(H) is not _psd_spectra(H)
        assert linalg_calls["eigh"] == 4

    def test_stored_arrays_read_only(self, rng):
        H = np.stack([random_pd(rng, 3) for _ in range(2)])
        with _block_spectra():
            dec, cut = _psd_spectra(H)
        for array in (dec.eigenvalues, dec.eigenvectors, cut):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert _psd_spectra(H)[0].eigenvalues.flags.writeable

    def test_invalid_stack_raises_every_call(self, linalg_calls):
        H = np.stack([np.eye(2) / 2, np.diag([1.2, -0.2])])
        with _block_spectra():
            for _ in range(2):
                with pytest.raises(ValueError, match="positive semidefinite"):
                    _psd_spectra(H)
        assert linalg_calls["eigh"] == 2

    def test_sweep_opens_and_drops_its_store(self, monkeypatch):
        sizes = []
        holevo = verify.holevo_two

        def counting(p, rho, sigma):
            sizes.append(len(_BLOCK_STORE.get()))
            return holevo(p, rho, sigma)

        monkeypatch.setattr(verify, "holevo_two", counting)
        config = verify.FuzzConfig(dims=(2, 3), trials=4, seed=1)
        report = verify.run_fuzz(config)
        # S_a, the overlaps and joint convexity have filled the store by then
        assert len(sizes) == len(config.dims) and min(sizes) > 0
        assert _BLOCK_STORE.get() is None
        verify.replay_witness(report.checks["holevo"].witness)
        assert _BLOCK_STORE.get() is None

    def test_store_dropped_after_a_block_that_raised(self):
        config = verify.FuzzConfig(trials=1)
        bad = np.diag([1.2, -0.2]).astype(complex)
        draw = (0, {"rho": bad, "sigma": np.eye(2) / 2}, np.eye(2) / 2, np.eye(2) / 2, 0.5)
        checks = verify._fresh_checks(config.slack)
        with pytest.raises(ValueError, match="positive semidefinite"):
            verify._record_block(config.a_grid, config.p_grid, checks, [draw])
        assert _BLOCK_STORE.get() is None


class TestTraceNormDistance:
    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 64])
    def test_stack_is_bit_identical_to_one_pair(self, dim):
        rho, sigma = mixed_strata_stack(np.random.default_rng(dim), dim)
        pairs = list(zip(rho, sigma))
        stacked = trace_norm_distance(rho, sigma)
        expected = [reference_trace_distance(r, s) for r, s in pairs]
        assert stacked.shape == (len(rho),)
        assert stacked.tobytes() == np.array(expected).tobytes()
        assert [trace_norm_distance(r, s) for r, s in pairs] == expected

    def test_one_pair_returns_a_float(self, rng):
        rho, sigma = random_pd(rng, 3), random_pd(rng, 3)
        assert type(trace_norm_distance(rho, sigma)) is float
        assert trace_norm_distance(rho[None], sigma[None]).shape == (1,)

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
        lam = np.linalg.eigvalsh(a - b)
        t2 = float(np.sum(lam[lam > 0.0]))
        assert t1 == pytest.approx(t2, abs=1e-12)


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


def _pair(f, *args):
    """``f`` called as f(rho, sigma, *args)."""
    return lambda r, s: f(r, s, *args)


@pytest.mark.parametrize(
    "f",
    [
        pytest.param(relative_entropy, id="relative_entropy"),
        pytest.param(_pair(telescopic_relative_entropy, 0.0), id="S_a-0"),
        pytest.param(_pair(telescopic_relative_entropy, 0.5), id="S_a-0.5"),
        pytest.param(_pair(telescopic_relative_entropy, 1.0), id="S_a-1"),
        pytest.param(tre_limit_zero, id="tre_limit_zero"),
        pytest.param(tre_limit_one, id="tre_limit_one"),
        pytest.param(lambda r, s: holevo_two(0.3, r, s), id="holevo_two"),
        pytest.param(
            lambda r, s: holevo_two_via_relative(0.3, r, s), id="holevo_two_via_relative"
        ),
        pytest.param(_pair(renyi_overlap, 0.5), id="renyi_overlap"),
        pytest.param(_pair(renyi_overlap_telescoped, 0.5, 0.5), id="renyi_overlap_telescoped"),
        pytest.param(_pair(trre, 0.5, 0.5), id="trre"),
        pytest.param(_pair(telescope_mix, 0.5), id="telescope_mix"),
        pytest.param(is_orthogonal, id="is_orthogonal"),
        pytest.param(trace_norm_distance, id="trace_norm_distance"),
        pytest.param(_pair(quad_tre, 0.5), id="quad_tre"),
        pytest.param(frechet_log_map, id="frechet_log_map"),
        pytest.param(_pair(frechet_power_map, 0.5), id="frechet_power_map"),
    ],
)
def test_pair_dimension_mismatch(f):
    # shapes are reported in argument order
    with pytest.raises(ValueError, match=r"dimension mismatch: \(2, 2\) vs \(3, 3\)"):
        f(np.eye(2) / 2, np.eye(3) / 3)
