import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    mixed_strata_stack,
    random_pd,
    reference_holevo,
    reference_holevo_relative,
    reference_limit,
    reference_sa,
)
from telent.matfun import _psd_spectra, support_basis, trace_norm_distance
from telent.states import (
    pure_from_vector,
    qubit_pair_with_angle,
    random_mixed_hs,
    random_orthogonal_pair,
    telescope_mix,
)
from telent.verify import FuzzConfig, run_fuzz
from telent.tre import (
    _BLOCK_CORE,
    _CORES,
    _block_core,
    _limits,
    _sum_xlogx,
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


# the endpoints dispatch to the closed forms inside a stack, element by element
STACK_A = (0.0, 1e-11, 1e-6, 0.5, 1.0 - 1e-9, 1.0)


# A stack's eigh calls run in the order in which S_a first uses the parts
# of its core (``tre._Core``): sigma if a cell is at a = 0, then rho stacked
# over (rho+sigma)/2, whose support is the joint support, then the
# compressed mixtures per rank.  The first invalid matrix in that order
# names the error: a stack whose third rho is bad raises, at each a of
# ORDER_A, the message listed for it.  rho comes before the joint support
# and every mixture, so each a gives rho's own message.
ORDER_A = (0.5, 1.0, [0.25, 0.75], [1.0, 0.5], [[0.3], [0.0], [0.6]])
_NOT_PSD = "matrix is not positive semidefinite: eigenvalue "
_RHO_LOW, _RHO = "-6.000000e-01 below -3.200e-10", "-2.000000e-01 below -2.400e-10"
_NOT_HERMITIAN = "matrix is not Hermitian: entries (0,1) and (1,0) differ by "
_ASYM = "1.000e-01 (tolerance 1.0e-10)"
STACK_ERRORS = [
    # neither rho nor the joint support is PSD
    (np.diag([1.6, -0.6]), _NOT_PSD, [_RHO_LOW] * 5),
    # the joint support is PSD, rho is not, and neither is the a = 0.75 mixture
    (np.diag([1.2, -0.2]), _NOT_PSD, [_RHO] * 5),
    # the joint support halves the asymmetry of rho
    (np.array([[0.5, 0.1], [0.0, 0.5]]), _NOT_HERMITIAN, [_ASYM] * 5),
]


class TestStackedKernel:
    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 16, 64])
    def test_bit_identical_to_scalar(self, dim):
        rho, sigma = mixed_strata_stack(np.random.default_rng(dim), dim)
        ranks = {support_basis((r + s) / 2).shape[1] for r, s in zip(rho, sigma)}
        assert len(ranks) >= 2
        stacked = telescopic_relative_entropy(rho, sigma, STACK_A)
        pairs = list(zip(rho, sigma))
        scalar = [[telescopic_relative_entropy(r, s, a) for a in STACK_A] for r, s in pairs]
        reference = [[reference_sa(r, s, a) for a in STACK_A] for r, s in pairs]
        assert stacked.shape == (len(rho), len(STACK_A))
        # bit for bit, the sign of zero included
        assert stacked.tobytes() == np.array(reference).tobytes()
        assert np.array(scalar).tobytes() == np.array(reference).tobytes()

    def test_empty_grid(self):
        rho, sigma = mixed_strata_stack(np.random.default_rng(2), 2)
        assert telescopic_relative_entropy(rho[0], sigma[0], []).shape == (0,)
        assert telescopic_relative_entropy(rho, sigma, []).shape == (len(rho), 0)

    def test_stack_calls_leave_the_memo_alone(self):
        # a stack's cost must not depend on what earlier calls left behind:
        # only the one-pair calls keep a pair core
        rho, sigma = mixed_strata_stack(np.random.default_rng(3), 3)
        p = np.linspace(0.0, 1.0, len(rho))
        _CORES.clear()
        telescopic_relative_entropy(rho, sigma, STACK_A)
        telescopic_relative_entropy(rho[0], sigma[0], STACK_A)
        for f in (holevo_two, holevo_two_via_relative):
            f(p, rho, sigma)
            f(0.3, rho, sigma)
            f(0.3, rho[:1], sigma[:1])
            f(0.3, rho[0], sigma[0])
        trace_norm_distance(rho, sigma)
        relative_entropy(rho[0], sigma[0])
        von_neumann_entropy(rho[0])
        # a stack of one pair is a stack too, in a sweep block or not
        block = rho[:1].copy(), sigma[:1].copy()
        with _block_core(*block) as core:
            telescopic_relative_entropy(*block, STACK_A)
            core.overlaps((0.5,), (0.1, 0.5))
        run_fuzz(FuzzConfig(dims=(32,), trials=1))
        assert not _CORES
        tre_limit_zero(rho[0], sigma[0])
        assert len(_CORES) == 1

    def test_per_pair_rows_and_shapes(self, rng):
        rho, sigma = mixed_strata_stack(rng, 3)
        n = len(rho)
        rows = rng.uniform(0.05, 0.95, size=(n, 2))
        rows[0, 0], rows[1, 1] = 0.0, 1.0
        values = telescopic_relative_entropy(rho, sigma, rows)
        assert values.shape == (n, 2)
        for i in range(n):
            for k in range(2):
                assert values[i, k] == telescopic_relative_entropy(rho[i], sigma[i], rows[i, k])
        assert telescopic_relative_entropy(rho, sigma, 0.3).shape == (n,)
        assert telescopic_relative_entropy(rho, sigma, rows[:, :1]).shape == (n, 1)
        assert telescopic_relative_entropy(rho[0], sigma[0], STACK_A).shape == (len(STACK_A),)
        assert type(telescopic_relative_entropy(rho[0], sigma[0], 0.3)) is float
        assert type(telescopic_relative_entropy(rho[0], sigma[0], 1.0)) is float

    def test_bad_parameters_rejected(self, rng):
        rho, sigma = mixed_strata_stack(rng, 2)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got 1.5"):
            telescopic_relative_entropy(rho, sigma, [0.5, 1.5])
        with pytest.raises(ValueError, match="at most 2 axes"):
            telescopic_relative_entropy(rho, sigma, np.full((1, 1, 2), 0.5))
        with pytest.raises(ValueError):
            telescopic_relative_entropy(rho, sigma, np.full((len(rho) + 1, 2), 0.5))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grids_without_interior_cells(self, dim):
        rho, sigma = mixed_strata_stack(np.random.default_rng(dim), dim)
        rho, sigma = rho[2:], sigma[2:]
        rows = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
        cases = [
            (rho, sigma, rows),
            (rho[:1], sigma[:1], np.array([[0.0, 1.0]])),
            (rho, sigma, np.ones((len(rho), 1))),
        ]
        for r, s, grid in cases:
            stacked = telescopic_relative_entropy(r, s, grid)
            one_pair = telescopic_relative_entropy(r[0], s[0], grid[0])
            scalar = [[telescopic_relative_entropy(*p, a) for a in g] for *p, g in zip(r, s, grid)]
            reference = [[reference_sa(*p, a) for a in g] for *p, g in zip(r, s, grid)]
            assert stacked.tobytes() == np.array(reference).tobytes()
            assert np.array(scalar).tobytes() == np.array(reference).tobytes()
            assert one_pair.tobytes() == np.array(reference[0]).tobytes()

    @pytest.mark.parametrize(
        "bad_rho, a, message",
        [
            (bad_rho, a, prefix + detail)
            for bad_rho, prefix, details in STACK_ERRORS
            for a, detail in zip(ORDER_A, details)
        ],
    )
    def test_validation_order(self, bad_rho, a, message):
        half = np.eye(2) / 2
        rho = np.stack([np.diag([1.0, 0.0]), half, bad_rho])
        sigma = np.stack([half] * 3)
        with pytest.raises(ValueError) as excinfo:
            telescopic_relative_entropy(rho, sigma, a)
        assert str(excinfo.value) == message


def _states_of_every_rank(rng, dim, per_rank=3):
    """A shuffled stack of ``per_rank`` states of each rank 1 to dim, and as
    many zero matrices (rank 0)."""
    states = [np.zeros((dim, dim), dtype=complex)] * per_rank
    states += [random_mixed_hs(dim, r, rng) for r in range(1, dim + 1) for _ in range(per_rank)]
    return np.stack([states[i] for i in rng.permutation(len(states))])


class TestRankGroupKernels:
    """Each rank group's stacked kernel gives every row the bits of the
    one-row computation, at dimensions on both sides of numpy's pairwise
    summation switch at 8 elements."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 12, 16, 64])
    def test_sum_xlogx_is_the_per_row_sum(self, dim):
        lam = _psd_spectra(_states_of_every_rank(np.random.default_rng(dim), dim))[0].eigenvalues
        ranks = np.count_nonzero(lam > 0.0, axis=1)
        assert set(ranks.tolist()) == set(range(dim + 1))
        reference = []
        for row in lam:
            pos = row[row > 0.0]
            reference.append(float(np.sum(pos * np.log(pos))))
        assert _sum_xlogx(lam).tobytes() == np.array(reference).tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 8, 12, 16, 64])
    def test_stacked_limits_are_the_one_pair_limits(self, dim):
        rng = np.random.default_rng(dim)
        sigma = _states_of_every_rank(rng, dim)[: 2 * dim]
        rho = np.stack([random_mixed_hs(dim, int(rng.integers(1, dim + 1)), rng) for _ in sigma])
        stacked = _limits(rho, _psd_spectra(sigma)[0])
        one_pair = [tre_limit_zero(r, s) for r, s in zip(rho, sigma)]
        reference = [reference_limit(r, s) for r, s in zip(rho, sigma)]
        assert stacked.tobytes() == np.array(one_pair).tobytes()
        assert stacked.tobytes() == np.array(reference).tobytes()
        # the a = 0 and a = 1 cells of a stacked S_a call
        ends = telescopic_relative_entropy(rho, sigma, [0.0, 1.0])
        at_one = [tre_limit_one(r, s) for r, s in zip(rho, sigma)]
        assert ends.tobytes() == np.array([one_pair, at_one]).T.tobytes()


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


# per-pair probabilities with both endpoints, for the five pairs of
# mixed_strata_stack; the scalars are broadcast to every pair
STACK_P = (0.0, 0.3, 1.0, 0.75, 0.5)
SCALAR_P = (0.0, 0.4, 1.0)
class TestEveryStateIsChecked:
    """Every state an entropy function is given is decomposed and checked,
    also one whose term the value does not need."""

    def test_relative_entropy_of_a_leaking_state(self):
        # rho leaks out of the support of sigma, where the value is inf
        with pytest.raises(ValueError, match=_NOT_PSD + _RHO):
            relative_entropy(np.diag([-0.2, 1.2]), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("f", [holevo_two, holevo_two_via_relative])
    def test_holevo_state_of_weight_zero(self, f):
        with pytest.raises(ValueError, match=_NOT_PSD + _RHO):
            f(1.0, np.eye(2) / 2, np.diag([1.2, -0.2]))

    def test_sa_at_one_checks_sigma(self):
        # S_1 takes rho's support only, but rho comes from the joint stack
        half, bad = np.eye(2) / 2, np.diag([1.6, -0.6])
        for rho, sigma in ((half, bad), (np.stack([half, half]), np.stack([half, bad]))):
            with pytest.raises(ValueError, match=_NOT_PSD + "-5.000000e-02 below -2.100e-10"):
                telescopic_relative_entropy(rho, sigma, 1.0)


HOLEVO = (
    (holevo_two, reference_holevo),
    (holevo_two_via_relative, reference_holevo_relative),
)


class TestStackedHolevo:
    """The Holevo pair takes (N, d, d) stacks; each element is the one-pair
    value bit for bit, and the one-pair value is the scalar reference's."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 64])
    def test_bit_identical_to_one_pair(self, dim):
        rho, sigma = mixed_strata_stack(np.random.default_rng(dim), dim)
        pairs = list(zip(rho, sigma))
        for f, reference in HOLEVO:
            for p in (np.array(STACK_P), *SCALAR_P):
                ps = np.broadcast_to(p, len(rho)).tolist()
                stacked = f(p, rho, sigma)
                one_pair = [f(q, r, s) for q, (r, s) in zip(ps, pairs)]
                expected = [reference(q, r, s) for q, (r, s) in zip(ps, pairs)]
                assert stacked.shape == (len(rho),)
                # bit for bit, the sign of zero included
                assert stacked.tobytes() == np.array(expected).tobytes(), (f.__name__, p)
                assert np.array(one_pair).tobytes() == np.array(expected).tobytes()

    def test_in_a_block_scope(self, rng, linalg_calls):
        # a block's core gives both paths the bits of fresh decompositions
        rho, sigma = (x.astype(complex) for x in mixed_strata_stack(rng, 4))
        p = np.array(STACK_P)
        outside = [f(p, rho, sigma) for f, _ in HOLEVO]
        with _block_core(rho, sigma):
            telescopic_relative_entropy(rho, sigma, STACK_A)
            before = linalg_calls["eigh"]
            inside = [f(p, rho, sigma) for f, _ in HOLEVO]
            # rho and sigma come from the core, the mixtures are decomposed once
            assert linalg_calls["eigh"] - before <= 1 + len(rho)
        assert _BLOCK_CORE.get() is None
        for a, b in zip(outside, inside):
            assert a.tobytes() == b.tobytes()

    def test_one_pair_returns_a_float(self, rng):
        rho, sigma = mixed_strata_stack(rng, 3)
        for f in (holevo_two, holevo_two_via_relative):
            assert type(f(0.3, rho[0], sigma[0])) is float
            assert type(f(np.float64(0.3), rho[0], sigma[0])) is float
            assert f(0.3, rho[:1], sigma[:1]).shape == (1,)

    @pytest.mark.parametrize("f", [holevo_two, holevo_two_via_relative])
    def test_bad_probability_is_named(self, rng, f):
        rho, sigma = mixed_strata_stack(rng, 2)
        for bad in (1.5, -0.25, float("nan")):
            p = np.full(len(rho), 0.5)
            p[2] = bad
            with pytest.raises(ValueError, match=rf"probability must lie in \[0, 1\], got {bad}"):
                f(p, rho, sigma)
            with pytest.raises(ValueError, match=rf"probability must lie in \[0, 1\], got {bad}"):
                f(bad, rho[0], sigma[0])

    @pytest.mark.parametrize(
        "bad_rho",
        [
            np.diag([1.2, -0.2]),
            np.diag([1.6, -0.6]),
            np.array([[0.5, 0.1], [0.0, 0.5]]),
            np.diag([np.nan, 1.0]),
        ],
        ids=["not_psd", "mixture_not_psd", "not_hermitian", "nan"],
    )
    @pytest.mark.parametrize(
        "f",
        [
            lambda r, s: holevo_two(0.5, r, s),
            lambda r, s: holevo_two_via_relative(0.5, r, s),
            trace_norm_distance,
        ],
        ids=["holevo_two", "holevo_two_via_relative", "trace_norm_distance"],
    )
    def test_bad_matrix_raises_the_one_pair_message(self, f, bad_rho):
        half = np.eye(2) / 2
        rho = np.stack([np.diag([1.0, 0.0]), half, bad_rho]).astype(complex)
        sigma = np.stack([half] * 3).astype(complex)
        one_pair = _message(f, rho[2], sigma[2])
        assert _message(f, rho, sigma) == one_pair
        # T reads only the Hermitian difference, so a state that is not PSD passes
        hermitian = np.allclose(bad_rho, bad_rho.conj().T)
        assert (one_pair is None) == (f is trace_norm_distance and hermitian)


def _message(f, *args):
    """The message of the ValueError that f(*args) raises, or None."""
    try:
        f(*args)
    except ValueError as exc:
        return str(exc)
    return None
