import json
import math

import numpy as np
import pytest

from telent import verify
from telent.matfun import trace_norm_distance
from telent.renyi import trre
from telent.states import random_mixed_hs, random_orthogonal_pair
from telent.tre import (
    holevo_two,
    telescopic_relative_entropy,
    tre_limit_one,
    tre_limit_zero,
)
from telent.verify import (
    FuzzConfig,
    check_holevo,
    check_holevo_paths,
    check_joint_convexity,
    check_limit_closed_forms,
    check_lower_pinsker,
    check_range,
    check_trre_bound,
    check_upper_T,
    maximality_margin,
    replay_witness,
    richardson,
    run_fuzz,
)


class TestRichardson:
    def test_exact_on_linear(self):
        f = lambda h: 3.0 - 2.5 * h
        assert richardson([0.1, 0.01], [f(0.1), f(0.01)]) == pytest.approx(3.0, abs=1e-12)

    def test_kills_quadratic_with_three_nodes(self):
        f = lambda h: 1.0 + h + h * h
        hs = [0.4, 0.2, 0.1]
        assert richardson(hs, [f(h) for h in hs]) == pytest.approx(1.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            richardson([0.1], [1.0])


class TestCheckMargins:
    def test_range_edges(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        assert check_range(rho, rho, 0.5) == pytest.approx(0.0, abs=1e-12)
        r, s = random_orthogonal_pair(3, rng)
        assert check_range(r, s, 0.5) == pytest.approx(0.0, abs=1e-10)
        sigma = random_mixed_hs(3, 3, rng)
        assert check_range(rho, sigma, 0.5) > 0.0

    def test_upper_T_equality_family(self):
        t = 0.4
        rho = np.diag([t, 0.0, 1.0 - t])
        sigma = np.diag([0.0, t, 1.0 - t])
        assert check_upper_T(rho, sigma, 0.5) == pytest.approx(0.0, abs=1e-9)
        assert check_upper_T(rho, rho, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_upper_T_random(self, rng):
        for _ in range(20):
            rho = random_mixed_hs(3, int(rng.integers(1, 4)), rng)
            sigma = random_mixed_hs(3, int(rng.integers(1, 4)), rng)
            assert check_upper_T(rho, sigma, float(rng.uniform(0.05, 0.95))) >= -1e-9

    def test_pinsker_trivial_and_random(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        assert check_lower_pinsker(rho, rho, 0.3) == pytest.approx(0.0, abs=1e-12)
        for _ in range(20):
            sigma = random_mixed_hs(3, int(rng.integers(1, 4)), rng)
            assert check_lower_pinsker(rho, sigma, float(rng.uniform(0.05, 0.95))) >= -1e-9

    def test_holevo_endpoints_and_orthogonal(self, rng):
        rho = random_mixed_hs(2, 1, rng)
        sigma = random_mixed_hs(2, 1, rng)
        assert check_holevo(0.0, rho, sigma) == pytest.approx(0.0, abs=1e-12)
        assert check_holevo(1.0, rho, sigma) == pytest.approx(0.0, abs=1e-12)
        r, s = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert check_holevo(0.5, r, s) == pytest.approx(0.0, abs=1e-12)

    def test_maximality(self, rng):
        r, s = random_orthogonal_pair(3, rng)
        assert maximality_margin(r, s, 0.5) == pytest.approx(0.0, abs=1e-10)
        rho = random_mixed_hs(2, 2, rng)
        sigma = random_mixed_hs(2, 2, rng)
        if np.real(np.trace(rho @ sigma)) >= 0.1:
            assert maximality_margin(rho, sigma, 0.5) > 0.0
        assert maximality_margin(rho, rho, 0.5) > 0.0

    def test_trre_bound_edges(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        assert check_trre_bound(rho, rho, 0.5, 0.5) == pytest.approx(0.0, abs=1e-10)
        r, s = random_orthogonal_pair(3, rng)
        assert check_trre_bound(r, s, 0.5, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_joint_convexity_trivial_cases(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        sigma = random_mixed_hs(3, 3, rng)
        pair = (rho, sigma)
        assert check_joint_convexity([pair, pair], (0.5, 0.5), 0.4) == pytest.approx(
            0.0, abs=1e-10
        )
        pair2 = (random_mixed_hs(3, 3, rng), random_mixed_hs(3, 3, rng))
        assert check_joint_convexity([pair, pair2], (1.0, 0.0), 0.4) == pytest.approx(
            0.0, abs=1e-10
        )
        assert check_joint_convexity([pair, pair2], (0.3, 0.7), 0.4) >= -1e-9

    def test_precomputed_values_match(self, rng):
        rho, sigma = random_mixed_hs(3, 3, rng), random_mixed_hs(3, 2, rng)
        chi = holevo_two(0.3, rho, sigma)
        assert check_holevo_paths(0.3, rho, sigma, chi=chi) == check_holevo_paths(
            0.3, rho, sigma
        )
        pairs = [(rho, sigma), (random_mixed_hs(3, 3, rng), random_mixed_hs(3, 3, rng))]
        values = [telescopic_relative_entropy(r, s, 0.25) for r, s in pairs]
        assert check_joint_convexity(
            pairs, (0.4, 0.6), 0.25, values=values
        ) == check_joint_convexity(pairs, (0.4, 0.6), 0.25)
        with pytest.raises(ValueError, match="one value per pair"):
            check_joint_convexity(pairs, (0.4, 0.6), 0.25, values=values[:1])

    def test_limit_margins(self, rng):
        rho = random_mixed_hs(2, 1, rng)
        sigma = np.diag([0.2, 0.8]).astype(complex)
        margins = check_limit_closed_forms(rho, sigma)
        assert margins["limit_zero"] >= -1e-3
        assert margins["limit_one"] >= -1e-3
        assert margins["limit_cauchy"] >= -1e-4

    def test_limit_margins_pure_pair(self, rng):
        from telent.states import qubit_pair_with_angle
        from telent.tre import tre_limit_one, tre_limit_zero

        r, s = qubit_pair_with_angle(1.1)
        t2 = np.sin(0.55) ** 2
        assert tre_limit_zero(r, s) == pytest.approx(t2, abs=1e-12)
        assert tre_limit_one(r, s) == pytest.approx(t2, abs=1e-12)
        margins = check_limit_closed_forms(r, s)
        assert margins["limit_zero"] >= -1e-3
        assert margins["limit_one"] >= -1e-3


class TestRunFuzz:
    def test_small_sweep_passes(self):
        report = run_fuzz(FuzzConfig(dims=(2, 3), trials=40, seed=11))
        assert report.passed
        for st in report.checks.values():
            assert st.failures == 0
            assert st.worst_margin >= -st.tolerance

    def test_deterministic_reports(self):
        cfg = FuzzConfig(dims=(2,), trials=30, seed=5)
        r1 = run_fuzz(cfg)
        r2 = run_fuzz(cfg)
        assert r1.to_json() == r2.to_json()

    def test_different_seeds_differ(self):
        r1 = run_fuzz(FuzzConfig(dims=(2,), trials=10, seed=1))
        r2 = run_fuzz(FuzzConfig(dims=(2,), trials=10, seed=2))
        assert r1.to_json() != r2.to_json()

    def test_negative_slack_forces_failures_with_witnesses(self):
        report = run_fuzz(FuzzConfig(dims=(2,), trials=8, seed=3, slack=-1.0))
        assert not report.passed
        failing = [st for st in report.checks.values() if st.failures > 0]
        assert failing
        for st in failing:
            assert st.witness is not None
            assert st.witness["check"] == st.name

    def test_witness_replay(self):
        report = run_fuzz(FuzzConfig(dims=(2, 3), trials=24, seed=11))
        for st in report.checks.values():
            if st.witness is None:
                continue
            assert replay_witness(st.witness) == st.witness["margin"]

    def test_report_json_round_trip(self):
        report = run_fuzz(FuzzConfig(dims=(2,), trials=8, seed=4))
        doc = json.loads(report.to_json())
        assert doc["passed"] is True
        assert set(doc["checks"]) == set(report.checks)
        wit = doc["checks"]["upper_T"]["witness"]
        assert replay_witness(wit) == wit["margin"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(dims=(1,))
        with pytest.raises(ValueError):
            FuzzConfig(trials=0)
        with pytest.raises(ValueError):
            FuzzConfig(a_grid=(0.0, 0.5))


class TestWorkCount:
    """Upper bounds on LAPACK calls, so repeated decompositions cannot creep back."""

    A_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
    P_GRID = (0.25, 0.5, 0.75)

    @pytest.mark.parametrize("rank", [8, 3])
    def test_compute_quantity_set(self, rng, rank, linalg_calls):
        rho, sigma = random_mixed_hs(8, 8, rng), random_mixed_hs(8, rank, rng)
        for a in self.A_GRID:
            telescopic_relative_entropy(rho, sigma, a)
        trace_norm_distance(rho, sigma)
        tre_limit_zero(rho, sigma)
        tre_limit_one(rho, sigma)
        for p in self.P_GRID:
            for a in self.A_GRID:
                trre(rho, sigma, p, a)
        # one eigh per distinct matrix: rho, sigma, and per a the mixture
        # compressed to the joint support and the full mixture, whose a = 1/2
        # member is (rho+sigma)/2 bit for bit
        assert linalg_calls["eigh"] <= 12
        assert linalg_calls["eigvalsh"] <= 1

    def test_fuzz_trial(self, linalg_calls, monkeypatch):
        serialised = []
        to_json = verify.state_to_jsonable
        monkeypatch.setattr(
            verify, "state_to_jsonable", lambda rho: serialised.append(1) or to_json(rho)
        )
        config = FuzzConfig(dims=(2, 3, 4), trials=16, seed=5)
        report = run_fuzz(config)
        assert linalg_calls["eigh"] <= 30 * len(config.dims) * config.trials
        # only each check's final witness is serialised: rho and sigma, plus
        # the second pair of the joint convexity check
        assert len(serialised) <= 2 * len(report.checks) + 2
