import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import random_hermitian, random_pd, random_state_floor, state_power
from telent import oracle
from telent.matfun import (
    frechet_log_map,
    frechet_power_map,
    support_projector,
)
from telent.oracle import (
    finite_diff_frechet,
    log_scheme,
    power_scheme,
    quad_frechet_log,
    quad_frechet_power,
    quad_log,
    quad_power,
    quad_projector_integral,
    quad_tre,
    rational_scheme,
)
from telent.states import random_mixed_hs, random_orthogonal_pair
from telent.tre import telescopic_relative_entropy


class TestSchemes:
    def test_weights_positive_and_counts(self):
        for sch in (rational_scheme(), log_scheme(), power_scheme(0.5)):
            assert sch.n == 501
            assert np.all(sch.weights > 0)
            assert np.all(sch.nodes > 0)

    def test_minimum_node_count(self):
        with pytest.raises(ValueError, match="at least 16 nodes"):
            rational_scheme(8)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rational"):
            quad_log(2.0, scheme=log_scheme())
        with pytest.raises(ValueError, match="p="):
            quad_power(2.0, 0.3, scheme=power_scheme(0.7))


class TestRuleCache:
    """The Gauss-Legendre rule is built once per node count for every scheme."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        leggauss = oracle.leggauss
        monkeypatch.setattr(oracle, "leggauss", lambda n: calls.append(n) or leggauss(n))
        oracle._gauss_legendre.cache_clear()
        yield calls
        oracle._gauss_legendre.cache_clear()

    def test_one_build_for_every_scheme(self, builds):
        for p in (0.11, 0.29, 0.47, 0.63, 0.81):
            power_scheme(p)
        rational_scheme()
        log_scheme()
        assert builds == [501]

    def test_rule_is_read_only(self):
        for arr in oracle._gauss_legendre(501):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_cold_and_warm_rule_give_identical_schemes(self, builds):
        def build():
            return [rational_scheme(), log_scheme(), power_scheme(0.37)]

        cold = build()
        warm = build()
        assert builds == [501]
        for c, w in zip(cold, warm):
            assert np.array_equal(c.nodes, w.nodes)
            assert np.array_equal(c.weights, w.weights)


class TestQuadLog:
    def test_at_one(self):
        assert quad_log(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_at_e(self):
        assert quad_log(math.e) == pytest.approx(1.0, abs=1e-6)

    def test_at_half(self):
        assert quad_log(0.5) == pytest.approx(-math.log(2), abs=1e-6)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_sweep(self, x):
        assert quad_log(x) == pytest.approx(math.log(x), abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            quad_log(0.0)


class TestQuadFrechetLog:
    def test_identity_base(self, rng):
        D = random_hermitian(rng, 3)
        assert np.abs(quad_frechet_log(np.eye(3), D) - D).max() <= 1e-6

    def test_base_point_to_identity(self, rng):
        A = random_pd(rng, 3)
        assert np.abs(quad_frechet_log(A, A) - np.eye(3)).max() <= 1e-6

    def test_agreement_with_divided_differences(self, rng):
        for _ in range(10):
            A = random_pd(rng, 4)
            D = random_hermitian(rng, 4)
            assert np.abs(
                quad_frechet_log(A, D) - frechet_log_map(A, D)
            ).max() <= 1e-6

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            quad_frechet_log(np.diag([1.0, 0.0]), np.eye(2))


class TestProjectorIntegral:
    def test_maximally_mixed(self):
        out = quad_projector_integral(np.eye(2) / 2)
        assert np.abs(out - np.eye(2)).max() <= 1e-5

    def test_exact_rank_deficient_diagonal(self):
        out = quad_projector_integral(np.diag([1.0, 0.0]))
        assert np.abs(out - np.diag([1.0, 0.0])).max() <= 1e-5

    def test_random_full_rank(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        assert np.abs(quad_projector_integral(rho) - np.eye(3)).max() <= 1e-5

    def test_random_rank_deficient(self, rng):
        for _ in range(5):
            rho = random_mixed_hs(4, 2, rng)
            P = support_projector(rho)
            assert np.abs(quad_projector_integral(rho) - P).max() <= 1e-5

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            quad_projector_integral(np.diag([1.0, -1.0]))

    def test_psd_tolerance(self, rng):
        """A Cholesky of rho + 1e-10 I draws the line at lambda_min = -1e-10."""
        Q, _ = np.linalg.qr(random_hermitian(rng, 3))
        for floor, ok in ((-2e-10, False), (-5e-11, True)):
            rho = Q @ np.diag([0.6, 0.4, floor]) @ Q.conj().T
            if ok:
                assert np.all(np.isfinite(quad_projector_integral(rho)))
            else:
                with pytest.raises(ValueError, match="requires a PSD matrix"):
                    quad_projector_integral(rho)


class TestQuadTre:
    def test_equal_states(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        assert quad_tre(rho, rho, 0.5) == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal_qubits(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 1.0])
        assert quad_tre(rho, sigma, 0.5) == pytest.approx(1.0, abs=1e-5)

    def test_agreement_with_spectral(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = random_state_floor(rng, d)
            sigma = random_state_floor(rng, d)
            a = float(rng.uniform(0.1, 0.9))
            assert quad_tre(rho, sigma, a) == pytest.approx(
                telescopic_relative_entropy(rho, sigma, a), abs=1e-5
            )

    def test_rank_deficient_pair_via_joint_support(self, rng):
        r, s = random_orthogonal_pair(4, rng)
        assert quad_tre(r, s, 0.3) == pytest.approx(1.0, abs=1e-5)

    def test_node_doubling_tightens(self):
        # small eigenvalue keeps the 251-node error above the roundoff floor
        rho = np.diag([1e-4, 0.2, 0.7999]).astype(complex)
        sigma = np.diag([0.3, 1e-4, 0.6999]).astype(complex)
        exact = telescopic_relative_entropy(rho, sigma, 0.4)
        e251 = abs(quad_tre(rho, sigma, 0.4, scheme=rational_scheme(251)) - exact)
        e501 = abs(quad_tre(rho, sigma, 0.4, scheme=rational_scheme(501)) - exact)
        assert e251 > 0
        assert e251 / max(e501, 1e-17) >= 2.0

    def test_a_domain(self, rng):
        rho = random_mixed_hs(2, 2, rng)
        with pytest.raises(ValueError):
            quad_tre(rho, rho, 0.0)


class TestQuadPower:
    def test_at_one(self):
        for p in (0.1, 0.5, 0.9):
            assert quad_power(1.0, p) == pytest.approx(1.0, rel=1e-5)

    def test_square_root_of_four(self):
        assert quad_power(4.0, 0.5) == pytest.approx(2.0, rel=1e-4)

    def test_at_zero(self):
        assert quad_power(0.0, 0.5) == 0.0

    def test_relative_error_sweep(self):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            sch = power_scheme(p)
            for x in (1e-2, 0.1, 1.0, 10.0, 1e2):
                approx = quad_power(x, p, scheme=sch)
                assert abs(approx - x**p) / x**p <= 1e-5

    def test_domain(self):
        with pytest.raises(ValueError):
            quad_power(-1.0, 0.5)
        with pytest.raises(ValueError):
            quad_power(1.0, 1.0)


class TestQuadFrechetPower:
    def test_power_identity(self, rng):
        A = random_pd(rng, 3)
        out = quad_frechet_power(A, state_power(A, 0.5), 0.5)
        assert np.abs(out - 0.5 * np.eye(3)).max() <= 1e-5

    def test_agreement_with_divided_differences(self, rng):
        for p in (0.2, 0.5, 0.8):
            A = random_pd(rng, 4)
            D = random_hermitian(rng, 4)
            assert np.abs(
                quad_frechet_power(A, D, p) - frechet_power_map(A, D, p)
            ).max() <= 1e-6


class TestFiniteDiff:
    def test_matches_log_map(self, rng):
        for _ in range(5):
            A = random_pd(rng, 3)
            D = random_hermitian(rng, 3)
            fd = finite_diff_frechet("log", A, D, 1e-5)
            assert np.abs(fd - frechet_log_map(A, D)).max() <= 1e-6

    def test_order_two_convergence(self, rng):
        ratios = []
        for _ in range(20):
            A = random_pd(rng, 3, floor=0.2)
            D = random_hermitian(rng, 3)
            exact = frechet_log_map(A, D)
            e1 = np.abs(finite_diff_frechet("log", A, D, 1e-4) - exact).max()
            e2 = np.abs(finite_diff_frechet("log", A, D, 5e-5) - exact).max()
            ratios.append(e1 / e2)
        assert np.median(ratios) == pytest.approx(4.0, abs=0.5)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_order_two_convergence_power(self, rng, p):
        ratios = []
        for _ in range(20):
            A = random_pd(rng, 3, floor=0.2)
            D = random_hermitian(rng, 3)
            exact = frechet_power_map(A, D, p)
            e1 = np.abs(finite_diff_frechet("power", A, D, 1e-4, p=p) - exact).max()
            e2 = np.abs(finite_diff_frechet("power", A, D, 5e-5, p=p) - exact).max()
            ratios.append(e1 / e2)
        assert np.median(ratios) == pytest.approx(4.0, abs=0.5)

    def test_zero_direction(self, rng):
        A = random_pd(rng, 3)
        out = finite_diff_frechet("log", A, np.zeros((3, 3)), 1e-4)
        assert np.abs(out).max() == 0.0

    def test_zero_direction_power(self, rng):
        A = random_pd(rng, 3)
        out = finite_diff_frechet("power", A, np.zeros((3, 3)), 1e-4, p=0.3)
        assert np.abs(out).max() == 0.0

    def test_steps_match_reference_algorithms(self, rng):
        """Schur-Parlett values of the steps A +- h Delta agree with scipy's
        inverse scaling and squaring (logm, fractional_matrix_power)."""
        h = 1e-4
        for d in (2, 3, 4, 6, 8):
            for p in np.linspace(0.1, 0.9, 5):
                A = random_pd(rng, d)
                D = random_hermitian(rng, d)
                for M in (A + h * D, A - h * D):
                    log = oracle._schur_parlett("log", M, None)
                    power = oracle._schur_parlett("power", M, p)
                    assert np.abs(log - scipy.linalg.logm(M)).max() <= 1e-13
                    assert np.abs(power - scipy.linalg.fractional_matrix_power(M, p)).max() <= 1e-13

    @pytest.mark.parametrize("kind", ["log", "power"])
    @pytest.mark.parametrize("gap", [0.0, 1e-15, 1e-12])
    def test_degenerate_spectrum_is_silent(self, rng, capsys, kind, gap):
        """Repeated and nearly repeated eigenvalues print nothing and warn
        nothing: stdout carries the CLI's and the benchmark's output."""
        Q, _ = np.linalg.qr(random_hermitian(rng, 3))
        A = Q @ np.diag([0.3, 0.3 + gap, 0.4]) @ Q.conj().T
        D = random_hermitian(rng, 3)
        p = 0.4 if kind == "power" else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = finite_diff_frechet(kind, A, D, 1e-4, p=p)
        assert np.all(np.isfinite(out))
        exact = frechet_log_map(A, D) if kind == "log" else frechet_power_map(A, D, p)
        assert np.abs(out - exact).max() <= 1e-6
        assert capsys.readouterr().out == ""

    def test_non_finite_value_rejected(self, rng, monkeypatch):
        A = random_pd(rng, 2)
        monkeypatch.setattr(
            oracle.scipy.linalg, "funm", lambda M, func, disp: (np.full_like(M, np.nan), np.inf)
        )
        with pytest.raises(ValueError, match="not finite"):
            finite_diff_frechet("log", A, np.eye(2), 1e-4)

    def test_does_not_import_scipy_sparse(self):
        src = str(Path(oracle.__file__).parents[1])
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import numpy as np\n"
            "import telent.oracle as o\n"
            "A = np.diag([0.3, 0.7]); D = np.array([[0.0, 1.0], [1.0, 0.5]])\n"
            "o.finite_diff_frechet('log', A, D, 1e-4)\n"
            "o.finite_diff_frechet('power', A, D, 1e-4, p=0.4)\n"
            "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse was imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_indefinite_step_rejected(self):
        A = np.diag([1e-6, 1.0])
        with pytest.raises(ValueError, match="positive definite"):
            finite_diff_frechet("log", A, np.eye(2), 0.5)

    def test_kind_validation(self, rng):
        A = random_pd(rng, 2)
        with pytest.raises(ValueError, match="kind"):
            finite_diff_frechet("exp", A, np.eye(2), 1e-4)
        with pytest.raises(ValueError, match="order p"):
            finite_diff_frechet("power", A, np.eye(2), 1e-4)
