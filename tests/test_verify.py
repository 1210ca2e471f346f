import json
import math
import tracemalloc

import numpy as np
import pytest

from telent import cli, renyi, tre, verify
from telent.cli import FIGURE_IDS, FigureSpec, figure_rows
from telent.matfun import trace_norm_distance
from telent.renyi import renyi_overlap_telescoped, trre
from telent.states import random_mixed_hs, random_orthogonal_pair, state_to_jsonable
from telent.tre import (
    holevo_two,
    holevo_two_via_relative,
    telescopic_relative_entropy,
    tre_limit_one,
    tre_limit_zero,
)
from telent.verify import (
    CheckStats,
    FuzzConfig,
    check_holevo,
    check_holevo_paths,
    check_joint_convexity,
    check_limit_closed_forms,
    check_lower_pinsker,
    check_range,
    check_trre_bound,
    check_trre_overlap,
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


def _witness(check, rho, sigma, **params):
    """A hand-made witness of ``check`` on the pair, as ``replay_witness`` reads it."""
    for key in ("rho2", "sigma2"):
        if key in params:
            params[key] = state_to_jsonable(params[key])
    rho, sigma = state_to_jsonable(rho), state_to_jsonable(sigma)
    return dict(params, check=check, rho=rho, sigma=sigma)


def _replay(check, rho, sigma, **params):
    return replay_witness(_witness(check, rho, sigma, **params))


class TestCheckMargins:
    def test_range_edges(self, rng):
        assert check_range(0.25) == 0.25 and check_range(0.75) == 0.25
        rho = random_mixed_hs(3, 3, rng)
        assert _replay("range", rho, rho, a=0.5) == pytest.approx(0.0, abs=1e-12)
        r, s = random_orthogonal_pair(3, rng)
        assert _replay("range", r, s, a=0.5) == pytest.approx(0.0, abs=1e-10)
        sigma = random_mixed_hs(3, 3, rng)
        assert _replay("range", rho, sigma, a=0.5) > 0.0

    def test_upper_T_equality_family(self):
        t = 0.4
        rho = np.diag([t, 0.0, 1.0 - t])
        sigma = np.diag([0.0, t, 1.0 - t])
        assert _replay("upper_T", rho, sigma, a=0.5) == pytest.approx(0.0, abs=1e-9)
        assert _replay("upper_T", rho, rho, a=0.5) == pytest.approx(0.0, abs=1e-12)

    def test_upper_T_random(self, rng):
        for _ in range(20):
            rho = random_mixed_hs(3, int(rng.integers(1, 4)), rng)
            sigma = random_mixed_hs(3, int(rng.integers(1, 4)), rng)
            a = float(rng.uniform(0.05, 0.95))
            assert _replay("upper_T", rho, sigma, a=a) >= -1e-9

    def test_pinsker_trivial_and_random(self, rng):
        assert check_lower_pinsker(0.5, 0.0, 0.0) == 0.0
        rho = random_mixed_hs(3, 3, rng)
        assert _replay("lower_pinsker", rho, rho, a=0.3) == pytest.approx(0.0, abs=1e-12)
        for _ in range(20):
            sigma = random_mixed_hs(3, int(rng.integers(1, 4)), rng)
            a = float(rng.uniform(0.05, 0.95))
            assert _replay("lower_pinsker", rho, sigma, a=a) >= -1e-9

    def test_holevo_endpoints_and_orthogonal(self, rng):
        rho = random_mixed_hs(2, 1, rng)
        sigma = random_mixed_hs(2, 1, rng)
        t = trace_norm_distance(rho, sigma)
        # p = 0 and 1 lie outside the sweep's p-grid, so take the formula
        for p in (0.0, 1.0):
            assert check_holevo(p, holevo_two(p, rho, sigma), t) == pytest.approx(0.0, abs=1e-12)
        r, s = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert _replay("holevo", r, s, p=0.5) == pytest.approx(0.0, abs=1e-12)

    def test_maximality(self, rng):
        assert maximality_margin(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.75) == (True, -0.25)
        # overlap 0.095: neither orthogonal nor above the probe threshold
        assert not maximality_margin(np.diag([0.95, 0.05]), np.diag([0.05, 0.95]), 0.5)[0]
        r, s = random_orthogonal_pair(3, rng)
        assert _replay("maximality", r, s, a=0.5) == pytest.approx(0.0, abs=1e-10)
        rho = random_mixed_hs(2, 2, rng)
        sigma = random_mixed_hs(2, 2, rng)
        if np.real(np.trace(rho @ sigma)) >= 0.1:
            assert _replay("maximality", rho, sigma, a=0.5) > 0.0
        assert _replay("maximality", rho, rho, a=0.5) > 0.0

    def test_trre_bound_edges(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        assert _replay("trre_bound", rho, rho, p=0.5, a=0.5) == pytest.approx(0.0, abs=1e-10)
        r, s = random_orthogonal_pair(3, rng)
        assert _replay("trre_bound", r, s, p=0.5, a=0.5) == pytest.approx(0.0, abs=1e-10)

    def test_joint_convexity_trivial_cases(self, rng):
        rho = random_mixed_hs(3, 3, rng)
        sigma = random_mixed_hs(3, 3, rng)
        rho2, sigma2 = random_mixed_hs(3, 3, rng), random_mixed_hs(3, 3, rng)

        def margin(second, weight):
            return _replay(
                "joint_convexity", rho, sigma, a=0.4, weight=weight,
                rho2=second[0], sigma2=second[1],
            )

        assert margin((rho, sigma), 0.5) == pytest.approx(0.0, abs=1e-10)
        assert margin((rho2, sigma2), 1.0) == pytest.approx(0.0, abs=1e-10)
        assert margin((rho2, sigma2), 0.3) >= -1e-9

    def test_replay_is_the_formula_of_public_values(self, rng):
        rho, sigma = random_mixed_hs(3, 3, rng), random_mixed_hs(3, 2, rng)
        rho2, sigma2 = random_mixed_hs(3, 3, rng), random_mixed_hs(3, 3, rng)
        a, p, w = 0.25, 0.75, 0.4
        sa = telescopic_relative_entropy(rho, sigma, a)
        t = trace_norm_distance(rho, sigma)
        chi = holevo_two(p, rho, sigma)
        q = trre(rho, sigma, p, a)
        pairs = [(rho, sigma), (rho2, sigma2)]
        values = [telescopic_relative_entropy(r, s, a) for r, s in pairs]
        mixed = telescopic_relative_entropy(
            w * rho + (1 - w) * rho2, w * sigma + (1 - w) * sigma2, a
        )
        expected = {
            "range": check_range(sa),
            "upper_T": check_upper_T(sa, t),
            "lower_pinsker": check_lower_pinsker(a, sa, t),
            "holevo": check_holevo(p, chi, t),
            "holevo_paths": check_holevo_paths(chi, holevo_two_via_relative(p, rho, sigma)),
            "trre_bound": check_trre_bound(q, t),
            "trre_overlap": check_trre_overlap(p, a, renyi_overlap_telescoped(rho, sigma, p, a)),
            "joint_convexity": check_joint_convexity((w, 1 - w), values, mixed),
        }
        for check, margin in expected.items():
            wit = _witness(check, rho, sigma, a=a, p=p, weight=w, rho2=rho2, sigma2=sigma2)
            assert replay_witness(wit) == margin, check

    def test_replay_errors(self):
        rho, sigma = np.diag([0.95, 0.05]), np.diag([0.05, 0.95])
        with pytest.raises(ValueError, match="unknown check 'sharpness'"):
            _replay("sharpness", rho, sigma, a=0.5)
        # overlap 0.095: neither orthogonal nor above the 0.1 probe threshold
        with pytest.raises(ValueError, match="does not exercise the maximality check"):
            _replay("maximality", rho, sigma, a=0.5)
        # the sweep's p-grid excludes the endpoints, where Q_{p,a} is 0/0
        with pytest.raises(ValueError, match="p-grid values must lie in"):
            _replay("holevo", rho, sigma, p=0.0)

    def test_limit_margins(self, rng):
        rho = random_mixed_hs(2, 1, rng)
        sigma = np.diag([0.2, 0.8]).astype(complex)
        assert _replay("limit_zero", rho, sigma) >= -1e-3
        assert _replay("limit_one", rho, sigma) >= -1e-3
        assert _replay("limit_cauchy", rho, sigma) >= -1e-4

    def test_limit_margins_pure_pair(self, rng):
        from telent.states import qubit_pair_with_angle

        r, s = qubit_pair_with_angle(1.1)
        t2 = np.sin(0.55) ** 2
        assert tre_limit_zero(r, s) == pytest.approx(t2, abs=1e-12)
        assert tre_limit_one(r, s) == pytest.approx(t2, abs=1e-12)
        values = [0.5] * 3 + [0.25] * 3
        assert check_limit_closed_forms(values, t2, t2)["limit_cauchy"] == 0.0
        assert _replay("limit_zero", r, s) >= -1e-3
        assert _replay("limit_one", r, s) >= -1e-3


def _reference_reduce(tolerance, blocks):
    """The block reduction as a plain loop over every margin in record order.

    Returns the counts, the worst margin and the (block, index) of its
    witness: the first smallest margin that is not NaN, a NaN worst
    counting as +inf, or else the first NaN.
    """
    trials = failures = near = 0
    worst, where = math.inf, None
    for b, margins in enumerate(blocks):
        for i, m in enumerate(np.ravel(margins).tolist()):
            trials += 1
            failures += not m >= -tolerance
            near += m < 1e-4
            current = math.inf if math.isnan(worst) else worst
            if m < current or (math.isnan(m) and where is None):
                worst, where = m, (b, i)
    return trials, failures, near, worst, where


def _assert_reduces_like_the_loop(blocks):
    stats = CheckStats("check", tolerance=1e-9)
    for b, margins in enumerate(blocks):
        stats.reduce(np.array(margins, dtype=float), lambda i, b=b: {"at": (b, i)})
    trials, failures, near, worst, where = _reference_reduce(1e-9, blocks)
    assert (stats.trials, stats.failures, stats.near_equalities) == (trials, failures, near)
    # bit for bit, NaN and the sign of zero included
    assert np.float64(stats.worst_margin).tobytes() == np.float64(worst).tobytes()
    if where is None:
        assert stats.witness is None
    else:
        assert stats.witness["at"] == where and stats.witness["check"] == "check"
        assert np.float64(stats.witness["margin"]).tobytes() == np.float64(worst).tobytes()


nan, inf = math.nan, math.inf


class TestBlockReduction:
    @pytest.mark.parametrize(
        "blocks",
        [
            [[0.3, -0.2, 0.1, -0.2], [-0.2, 0.5]],
            [[0.0, -0.0, 0.5], [-0.0, 0.0]],
            [[-0.0, 0.0], [0.0]],
            [[nan, nan], [nan, 0.2], [inf, -0.1]],
            [[nan, inf], [inf], [5.0]],
            [[nan], [nan, -inf, -inf], [nan]],
            [[inf, inf], [inf, -inf, -inf]],
            [[inf], [nan]],
            [[], [nan, 1e-5], []],
            [[[-1e-9, 2e-9], [-1e-9, nan]], [[3.0, -inf]]],
        ],
    )
    def test_matches_a_plain_loop(self, blocks):
        _assert_reduces_like_the_loop(blocks)

    def test_random_blocks_match_a_plain_loop(self):
        rng = np.random.default_rng(17)
        values = np.array([-1.0, -1e-9, -0.0, 0.0, 1e-5, 1.0, nan, inf, -inf])
        for _ in range(200):
            _assert_reduces_like_the_loop(
                [rng.choice(values, size=int(rng.integers(0, 6))) for _ in range(3)]
            )

    def test_witness_built_only_for_a_new_worst(self):
        built = []
        stats = CheckStats("check", tolerance=0.0)
        for margins in ([0.5, 0.2, 0.2], [0.3, 0.4], [0.1]):
            stats.reduce(np.array(margins), lambda i: built.append(i) or {})
        assert built == [1, 0]


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
        for slack in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"slack must be finite, got {slack}"):
                FuzzConfig(slack=slack)
        # a negative slack forces failures and stays allowed
        assert FuzzConfig(slack=-1.0).slack == -1.0


class TestBlocks:
    """run_fuzz evaluates a dimension in blocks of trials."""

    def test_blocks_keep_the_report(self, monkeypatch):
        config = FuzzConfig(dims=(2, 3), trials=10, seed=3)
        whole = run_fuzz(config).to_json()
        sizes = []
        sa = verify.telescopic_relative_entropy
        monkeypatch.setattr(
            verify,
            "telescopic_relative_entropy",
            lambda rho, sigma, a: sizes.append(len(rho)) or sa(rho, sigma, a),
        )
        # 4 trials per block at d = 2 and one at d = 3
        monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 16)
        assert run_fuzz(config).to_json() == whole
        # per block the pairs, then the second pairs and the mixed pairs
        assert sizes == [4, 8, 4, 8, 2, 4] + [1, 2] * 10

    def test_peak_memory_does_not_grow_with_trials(self, monkeypatch):
        # 4 trials per block at d = 4
        monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 64)

        def peak(trials):
            tracemalloc.start()
            try:
                run_fuzz(FuzzConfig(dims=(4,), trials=trials, seed=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # first-call allocations
        # without blocks the peak grows about eightfold here
        assert peak(256) < 2 * peak(32)


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
        powers = []
        state_power = renyi.state_power
        for module in (renyi, verify):
            # verify holds no state_power; patching it anyway counts one it gains
            monkeypatch.setattr(
                module,
                "state_power",
                lambda rho, q: powers.append(q) or state_power(rho, q),
                raising=False,
            )
        sa_calls = []
        sa = verify.telescopic_relative_entropy
        monkeypatch.setattr(
            verify,
            "telescopic_relative_entropy",
            lambda rho, sigma, a: sa_calls.append(1) or sa(rho, sigma, a),
        )
        holevo_calls = []
        for name in ("holevo_two", "holevo_two_via_relative"):
            f = getattr(verify, name)
            monkeypatch.setattr(
                verify,
                name,
                lambda p, rho, sigma, _f=f: holevo_calls.append(_f.__name__) or _f(p, rho, sigma),
            )
        limit_calls = []
        for module in (tre, verify):
            # verify holds no closed form; patching it anyway counts one it gains
            for name in ("tre_limit_zero", "tre_limit_one"):
                f = getattr(tre, name)
                monkeypatch.setattr(
                    module,
                    name,
                    lambda rho, sigma, _f=f: limit_calls.append(1) or _f(rho, sigma),
                    raising=False,
                )
        reductions, built = [], []
        reduce = verify.CheckStats.reduce
        monkeypatch.setattr(
            verify.CheckStats,
            "reduce",
            lambda self, margins, witness: reductions.append(self.name)
            or reduce(self, margins, lambda i: built.append(1) or witness(i)),
        )
        config = FuzzConfig(dims=(2, 3, 4), trials=16, seed=5)
        report = run_fuzz(config)
        trials = len(config.dims) * config.trials
        blocks = len(config.dims)
        # each check reduces one margin array per block, and builds a
        # witness only for a new worst margin: no per-trial records
        assert sorted(reductions) == sorted(list(report.checks) * blocks)
        assert len(built) <= len(reductions)
        # Each dimension is one block here, and a block takes every spectrum
        # from stacked eigh calls that share one store, so rho, sigma and the
        # Holevo mixture are decomposed once per trial.  eigh matrices per
        # trial: 14 for the S_a grid (sigma at a = 0, rho at a = 1, the joint
        # support and 11 mixtures), 6 for joint convexity, 5 overlap
        # mixtures, the Holevo mixture and its compression to its support,
        # which both relative entropies share.
        assert linalg_calls["eigh"] <= 1 * trials
        assert linalg_calls["eigh_matrices"] <= 27 * trials
        # T of a block is one stacked eigvalsh
        assert linalg_calls["eigvalsh"] <= blocks
        # the a-grid with the limit nodes and the endpoints, whose cells are
        # S_0 and S_1, and both joint convexity pairs
        assert len(sa_calls) <= 2 * blocks
        # one call of each Holevo path per block
        assert holevo_calls.count("holevo_two") <= blocks
        assert holevo_calls.count("holevo_two_via_relative") <= blocks
        assert not limit_calls
        # the TRRE grid takes rho^(1-p) once per p and tau_a^p once per (p, a)
        assert len(powers) <= 18 * trials
        # only each check's final witness is serialised: rho and sigma, plus
        # the second pair of the joint convexity check
        assert len(serialised) <= 2 * len(report.checks) + 2

    @pytest.mark.parametrize("figure", FIGURE_IDS)
    def test_figure_is_one_call(self, figure, monkeypatch):
        calls = []
        sa = cli.telescopic_relative_entropy
        monkeypatch.setattr(
            cli,
            "telescopic_relative_entropy",
            lambda rho, sigma, a: calls.append(1) or sa(rho, sigma, a),
        )
        figure_rows(FigureSpec(figure, 11))
        assert len(calls) == 1

    # at 101 points fig1a's joint supports have ranks 2 and 1 (two mixture
    # calls of 600 and 6), fig1b's rank 2 only; fig2a/fig2b decompose sigma
    # (a = 0), rho (a = 1), the joint support, 99 mixtures and rho
    @pytest.mark.parametrize(
        "figure, calls, matrices",
        [("fig1a", 4, 808), ("fig1b", 3, 808), ("fig2a", 5, 103), ("fig2b", 5, 103)],
    )
    def test_figure_work(self, figure, calls, matrices, linalg_calls):
        figure_rows(FigureSpec(figure, 101))
        assert linalg_calls["eigh"] <= calls
        assert linalg_calls["eigh_matrices"] <= matrices

    def test_figure_work_does_not_depend_on_the_previous_figure(self, linalg_calls):
        # fig2a and fig2b share rho = I/2; a memo hit would save fig2b an eigh
        counts = set()
        for before in FIGURE_IDS:
            figure_rows(FigureSpec(before, 11))
            start = linalg_calls["eigh"]
            figure_rows(FigureSpec("fig2b", 11))
            counts.add(linalg_calls["eigh"] - start)
        assert len(counts) == 1


def test_wrong_holevo_reaches_the_sweep(monkeypatch):
    """A shifted Holevo quantity under its public name must fail run_fuzz."""
    right = tre.holevo_two
    for module in (tre, verify):
        monkeypatch.setattr(module, "holevo_two", lambda p, r, s: right(p, r, s) + 1e-3)
    report = run_fuzz(FuzzConfig(dims=(2, 3), trials=8))
    assert report.checks["holevo"].failures + report.checks["holevo_paths"].failures > 0


def test_wrong_sa_reaches_the_sweep_and_the_figures(monkeypatch):
    """A shifted S_a under its public name must show in run_fuzz and figure_rows.

    The benchmark's gate test swaps the function the same way, so neither
    may reach S_a through a name other than telescopic_relative_entropy.
    """
    right = tre.telescopic_relative_entropy
    clean = figure_rows(FigureSpec("fig2a"))[2]
    for module in (tre, verify, cli):
        monkeypatch.setattr(
            module, "telescopic_relative_entropy", lambda r, s, a: right(r, s, a) + 1e-3
        )
    report = run_fuzz(FuzzConfig(dims=(2, 3), trials=8))
    assert sum(st.failures for st in report.checks.values()) > 0
    shifted = figure_rows(FigureSpec("fig2a"))[2]
    delta = np.array(shifted)[:, 1] - np.array(clean)[:, 1]
    assert np.allclose(delta, 1e-3, rtol=0.0, atol=1e-12)
