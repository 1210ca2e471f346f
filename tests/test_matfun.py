import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    mixed_strata_stack,
    random_hermitian,
    random_pd,
    reference_trace_distance,
    state_power,
)
from telent import tre, verify
from telent.matfun import (
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
from telent.renyi import renyi_overlap, renyi_overlap_telescoped, trre
from telent.states import haar_unitary, is_orthogonal, telescope_mix
from telent.tre import (
    _pair_core,
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
            _psd_spectra(H.astype(complex))
        assert str(excinfo.value) == (
            "matrix is not positive semidefinite: eigenvalue -2.000000e-01 below -2.400e-10"
        )


class TestSpectrumMemo:
    """The pair core (``tre._pair_core``): the core of one pair, which the
    one-pair calls keep per pair bytes."""

    def test_equal_input_decomposes_once(self, rng, linalg_calls):
        rho, sigma = random_pd(rng, 4), random_pd(rng, 4)
        first = _pair_core(rho, sigma)
        assert _pair_core(rho.copy(), sigma.copy()) is first
        for r, s in ((rho, sigma), (rho.copy(), sigma.copy()), (rho.tolist(), sigma.tolist())):
            telescopic_relative_entropy(r, s, 0.3)
            tre_limit_zero(r, s)
            tre_limit_one(r, s)
            for p in (0.25, 0.75):
                trre(r, s, p, 0.3)
                renyi_overlap_telescoped(r, s, p, 0.3)
        # one stacked eigh of rho and (rho+sigma)/2, one of sigma, and one
        # of the compressed mixture at a = 0.3
        assert linalg_calls["eigh"] == 3
        assert linalg_calls["eigh_matrices"] == 4
        # the swapped pair is another pair
        tre_limit_one(sigma, rho)
        assert linalg_calls["eigh"] == 4

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.diag([1.0, -0.5]), "positive semidefinite"),
            (np.array([[0.0, 1.0], [0.0, 0.0]]), "not Hermitian"),
            (np.diag([np.nan, 1.0]), "non-finite"),
        ],
    )
    def test_invalid_input_raises_every_call(self, bad, match, linalg_calls):
        good = np.eye(2) / 2
        # each call with the state it decomposes invalid
        calls = [
            lambda: tre_limit_zero(good, bad),
            lambda: tre_limit_one(bad, good),
            lambda: telescopic_relative_entropy(bad, good, 0.5),
            lambda: trre(bad, good, 0.5, 0.5),
        ]
        for _ in range(3):
            for call in calls:
                with pytest.raises(ValueError, match=match):
                    call()

    def test_in_place_change_is_seen(self, linalg_calls):
        rho, sigma = np.diag([0.25, 0.75]), np.diag([1.0, 0.0])
        before = telescopic_relative_entropy(rho, sigma, 0.5), trre(rho, sigma, 0.5, 0.5)
        rho[0, 0] = rho[1, 1] = 0.5
        after = telescopic_relative_entropy(rho, sigma, 0.5), trre(rho, sigma, 0.5, 0.5)
        fresh = telescopic_relative_entropy(rho.copy(), sigma, 0.5)
        assert before != after and after[0] == fresh
        assert linalg_calls["eigh"] == 4

    def test_kept_pairs_and_mixtures_are_bounded(self, rng, linalg_calls):
        pairs = [(random_pd(rng, 3), random_pd(rng, 3)) for _ in range(tre._PAIR_CORES + 1)]
        for rho, sigma in pairs:
            tre_limit_zero(rho, sigma)
        assert [core for _, core in tre._CORES] == [_pair_core(r, s) for r, s in pairs[:0:-1]]
        # one eigh of sigma per pair
        assert linalg_calls["eigh"] == len(pairs)
        core = _pair_core(*pairs[-1])
        grid = np.linspace(0.05, 0.95, tre._CORE_MIXTURES + 1)
        for a in grid:
            trre(*pairs[-1], 0.5, a)
        assert list(core._cells) == [np.array([[a]]).tobytes() for a in grid[1:]]
        # the least recently used one is decomposed again; the joint eigh
        # of rho and (rho+sigma)/2 is kept
        trre(*pairs[-1], 0.5, grid[0])
        assert linalg_calls["eigh"] == len(pairs) + 1 + len(grid) + 1

    def test_cached_arrays_read_only(self, rng, linalg_calls):
        rho, sigma = random_pd(rng, 3), random_pd(rng, 3)
        core = _pair_core(rho, sigma)
        core.sa([[0.0, 0.4, 1.0]])
        for array in _kept_arrays(core):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1.0
        # public results are fresh arrays, also when the core is kept
        for _ in range(2):
            for out in (
                telescopic_relative_entropy(rho, sigma, [0.4, 0.6]),
                support_basis(rho),
                support_projector(rho),
            ):
                assert out.flags.writeable


class TestRankCut:
    """Eigenvalues at or below max(dim, 16) * 2^-52 * lambda_max are kernel;
    the mixture floor stays dim * 2^-52 * lambda_max."""

    EPS = 2.0**-52

    def _planted(self, dim, small):
        """A rotated state of rank dim - 1 plus ``small`` * 2^-52 * lambda_max."""
        lam = np.linspace(1.0, 2.0, dim)
        lam[0] = 0.0
        lam /= lam.sum()
        lam[0] = small * self.EPS * lam[-1]
        U = haar_unitary(dim, np.random.default_rng(dim))
        return (U * lam) @ U.conj().T, lam[-1]

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_planted_kernel_eigenvalue_between_the_old_and_the_new_cut(self, dim):
        A, lam_max = self._planted(dim, 9.0)
        small = np.linalg.eigh(A)[0][0]
        # above the old cut dim * 2^-52 * lambda_max, which gave full rank
        assert dim * self.EPS * lam_max < small <= 16 * self.EPS * lam_max
        assert support_basis(A).shape[1] == dim - 1
        # the mixture floor keeps it
        dec, floored = _psd_spectrum(A)
        assert dec.eigenvalues[0] == 0.0 and floored[0] == small

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_eigenvalue_above_the_cut_is_support(self, dim):
        A, lam_max = self._planted(dim, 40.0)
        assert np.linalg.eigh(A)[0][0] > 16 * self.EPS * lam_max
        assert support_basis(A).shape[1] == dim

    def test_floor_of_an_eigenvalue_below_it(self):
        lam_max = 0.75
        dec, floored = _psd_spectrum(np.diag([self.EPS * lam_max, 0.25, lam_max]))
        assert dec.eigenvalues[0] == 0.0
        assert floored[0] == 3 * self.EPS * lam_max and floored[1] == 0.25


def _kept_arrays(core) -> list:
    """Every array a core keeps."""
    joint = core.joint
    kept = [core.sigma_spectra.eigenvalues, core.sigma_spectra.eigenvectors]
    kept += [joint.rho.eigenvalues, joint.rho.eigenvectors, joint.xlogx]
    for support in joint.supports:
        kept += list(support)
    for cells in core._cells.values():
        kept += [a for c in cells for a in (c.i, c.k, c.a, c.relative, c.mu, c.weights)]
        # S_a of the cells that S_a has read
        kept += [vars(c)["sa"] for c in cells if "sa" in vars(c)]
    if core._holevo[0] is not None:
        _, mix, dec = core._holevo
        kept += [mix, dec.eigenvalues, dec.eigenvectors]
    return kept


@pytest.fixture
def block_cores(monkeypatch):
    """Weak references to the cores that ``tre`` builds, in order."""
    made = []

    class Recorded(tre._Core):
        def __init__(self, rho, sigma):
            super().__init__(rho, sigma)
            made.append(weakref.ref(self))

    monkeypatch.setattr(tre, "_Core", Recorded)
    return made


class TestBlockStore:
    """A sweep block keeps its spectra in one core (``tre._Core``) of the
    block's pairs, its store, which the stacked calls on those very arrays
    read inside the block's ``tre._block_core`` scope."""

    def test_equal_stack_decomposes_once_in_a_scope(self, rng, linalg_calls):
        rho, sigma = (np.stack([random_pd(rng, 3) for _ in range(4)]) for _ in range(2))
        rho, sigma = rho.astype(complex), sigma.astype(complex)
        grid, p = (0.3, 0.6), np.full(4, 0.5)
        with tre._block_core(rho, sigma) as core:
            first = tre.telescopic_relative_entropy(rho, sigma, grid)
            # rho over (rho+sigma)/2, and the mixtures of the one joint-support rank
            assert linalg_calls["eigh"] == 2
            again = tre.telescopic_relative_entropy(rho, sigma, np.array(grid))
            assert again.tobytes() == first.tobytes()
            core.overlaps((0.25, 0.75), grid)
            assert linalg_calls["eigh"] == 2
            # sigma, then the Holevo mixtures and their compressions to their
            # support, which both Holevo paths share
            tre.telescopic_relative_entropy(rho, sigma, (0.0, 1.0))
            chi = tre.holevo_two(p, rho, sigma), tre.holevo_two_via_relative(p, rho, sigma)
            assert linalg_calls["eigh"] == 5
            # the key is the whole grid, so a part of it is decomposed again
            core.overlaps((0.5,), grid[:1])
            assert linalg_calls["eigh"] == 6
            # equal arrays that are not the block's get a core of their own
            equal = tre.telescopic_relative_entropy(rho.copy(), sigma, grid)
            assert equal.tobytes() == first.tobytes()
            assert linalg_calls["eigh"] == 8
        # outside the scope every call builds a fresh core
        assert tre.telescopic_relative_entropy(rho, sigma, grid).tobytes() == first.tobytes()
        assert tre.holevo_two(p, rho, sigma).tobytes() == chi[0].tobytes()
        assert linalg_calls["eigh"] == 13
        assert not tre._CORES

    def test_stored_arrays_read_only(self, rng):
        rho, sigma = (np.stack([random_pd(rng, 3) for _ in range(2)]) for _ in range(2))
        core = tre._Core(rho, sigma)
        values = core.sa((0.0, 0.4, 1.0))
        core.overlaps((0.5,), (0.0, 0.4))
        core.holevo_parts(np.full(2, 0.5))
        for array in _kept_arrays(core):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1.0
        assert values.flags.writeable

    def test_invalid_stack_raises_every_call(self, linalg_calls):
        half = np.eye(2) / 2
        rho = np.stack([half, np.diag([1.2, -0.2])]).astype(complex)
        core = tre._Core(rho, np.stack([half, half]).astype(complex))
        calls = [
            lambda: core.sa((0.5,)),
            lambda: core.overlaps((0.5,), (0.5,)),
            # its mixtures are PSD, so the joint stack raises after them
            lambda: core.holevo_parts(np.full(2, 0.5)),
        ]
        for _ in range(2):
            for call in calls:
                with pytest.raises(ValueError, match="positive semidefinite"):
                    call()
        # the joint stack on every call, the valid mixtures once
        assert linalg_calls["eigh"] == 7

    def test_sweep_opens_and_drops_its_store(self, block_cores):
        config = verify.FuzzConfig(dims=(2, 3), trials=4, seed=1)
        report = verify.run_fuzz(config)
        # per block its core and the joint convexity pairs' one, none left
        # alive, no scope left open and no pair core kept
        assert len(block_cores) == 2 * len(config.dims)
        verify.replay_witness(report.checks["holevo"].witness)
        assert len(block_cores) == 2 * len(config.dims) + 2
        gc.collect()
        assert all(core() is None for core in block_cores)
        assert tre._BLOCK_CORE.get() is None
        assert not tre._CORES

    def test_store_dropped_after_a_block_that_raised(self, block_cores):
        config = verify.FuzzConfig(trials=1)
        bad = np.diag([1.2, -0.2]).astype(complex)
        block = verify._one_trial(bad, np.eye(2) / 2, np.eye(2) / 2, np.eye(2) / 2, 0.5)
        checks = verify._fresh_checks(config.slack)
        with pytest.raises(ValueError, match="positive semidefinite"):
            verify._record_block(config.a_grid, config.p_grid, checks, block)
        gc.collect()
        assert len(block_cores) == 1 and block_cores[0]() is None
        assert tre._BLOCK_CORE.get() is None
        assert not tre._CORES


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
