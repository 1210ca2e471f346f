import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers import reference_sample_pair
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


class TestStackedDraw:
    """A block's trials are drawn by their RNG calls alone, then built as stacks."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_equals_the_per_trial_samplers(self, dim):
        # three trials of each stratum, in the second dimension of the sweep
        trials = 12
        for seed in range(100):
            config = FuzzConfig(dims=(2, dim), trials=trials, seed=seed * 0x9E3779B97F4A7C15)
            block = verify._draw_block(config, 1, dim, range(trials))
            assert block.trials == list(range(trials))
            for trial in range(trials):
                trial_index = trials + trial
                stratum = verify.STRATA[trial % len(verify.STRATA)]
                rng = np.random.default_rng((config.seed ^ trial_index) & ((1 << 64) - 1))
                states = [*reference_sample_pair(rng, dim, stratum)]
                states += reference_sample_pair(rng, dim, "faithful")
                drawn = [block.rho, block.sigma, block.rho2, block.sigma2]
                assert np.stack([x[trial] for x in drawn]).tobytes() == np.stack(states).tobytes()
                assert block.weights[trial] == rng.uniform(0.0, 1.0)
                label = {"dim": dim, "trial": trial_index, "stratum": stratum}
                assert block.labels[trial] == label


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


class TestReportWriter:
    """``to_json`` writes the bytes of ``json.dumps(indent=2, sort_keys=True)``."""

    @pytest.mark.parametrize(
        "config",
        [
            FuzzConfig(dims=(2, 3, 4), trials=16, seed=5),
            # forced failures
            FuzzConfig(dims=(2, 3), trials=8, seed=3, slack=-1.0),
            FuzzConfig(dims=(8,), trials=4, seed=1),
            # maximality runs no trial: its worst margin is null, its witness too
            FuzzConfig(dims=(12,), trials=1, seed=0),
            FuzzConfig(dims=(2,), trials=3, a_grid=(0.5,), p_grid=(0.5,), slack=0),
        ],
    )
    def test_report_bytes(self, config):
        report = run_fuzz(config)
        assert report.to_json() == _json_dumps(report._doc()) + "\n"

    def test_zero_trial_check(self):
        report = run_fuzz(FuzzConfig(dims=(12,), trials=1, seed=0))
        assert report.checks["maximality"].trials == 0
        assert json.loads(report.to_json())["checks"]["maximality"]["worst_margin"] is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_margins(self, bad, monkeypatch):
        right = tre.telescopic_relative_entropy
        monkeypatch.setattr(
            verify,
            "telescopic_relative_entropy",
            lambda rho, sigma, a: np.full_like(right(rho, sigma, a), bad),
        )
        report = run_fuzz(FuzzConfig(dims=(2,), trials=4))
        text = report.to_json()
        assert text == _json_dumps(report._doc()) + "\n"
        assert json.loads(text)["checks"]["range"]["witness"]["margin"] is None

    def test_values_of_every_kind(self):
        doc = {
            "b": [1, 2.5, -0.0, 1e-300, 1e22, -7, 2**70, True, False, None],
            "a": {"z": {}, "y": [], "x": [[]], "w": (0.1, (2, "t"))},
            "": "quote \" slash \\ newline \n tab \t unicode \u00e9 \u2603",
            "\u00fc": np.float64(0.1),
            "nested": [{"k": [[0.5, -0.25], [1.0, 3e-17]]}],
        }
        assert verify._json_text(doc) == _json_dumps(doc)
        for scalar in (0.1, 3, True, None, "s", [], {}):
            assert verify._json_text(scalar) == _json_dumps(scalar)
        # json would write the key as "1"; a report has str keys only
        with pytest.raises(TypeError):
            verify._json_text({1: 2.0})

    @pytest.mark.parametrize(
        "bad, error",
        [
            (math.nan, ValueError),
            ([1.0, math.inf], ValueError),
            ({"a": [-math.inf]}, ValueError),
            (np.int64(1), TypeError),
            ([object()], TypeError),
        ],
    )
    def test_rejects_what_json_rejects(self, bad, error):
        with pytest.raises(error):
            _json_dumps(bad)
        with pytest.raises(error):
            verify._json_text(bad)


# knife-edge pairs: roundoff gives a low-rank state an eigenvalue just above
# dim * 2^-52 * lambda_max, which was the rank cut, and S_0 or S_1 then
# counted one rank too many
KNIFE_EDGE_SEEDS = [2098274950, 2721176236, 254804234, 1423786839, 2451294897]


class TestRankCutInTheSweep:
    @pytest.mark.parametrize("seed", KNIFE_EDGE_SEEDS)
    def test_knife_edge_seeds_pass(self, seed):
        assert run_fuzz(FuzzConfig(dims=(2, 3, 4), trials=16, seed=seed)).passed

    # near-singular states: the extrapolation from fixed nodes misses S_0
    # (S_1) while a (1 - a) is not far below the least eigenvalue of sigma
    # (rho).  3438314566: sigma with lambda_min 1.8e-9 at trial 40
    # (limit_zero -9.7e-3, limit_cauchy -1.3e-2); 451392458: the limit_one
    # mirror, a faithful rho with lambda_min 9.5e-9 at trial 32 (-1.14e-3
    # against a tolerance of 1e-3).
    @pytest.mark.xfail(
        strict=True,
        reason="near-singular state: the endpoint extrapolation from fixed nodes "
        "misses the closed form while a is not far below its least eigenvalue",
    )
    @pytest.mark.parametrize("seed", [2213080472, 3361175558, 3438314566, 451392458])
    def test_near_singular_seeds_pass(self, seed):
        report = run_fuzz(FuzzConfig(dims=(2, 3, 4), trials=16, seed=seed))
        assert all(report.checks[name].failures == 0 for name in ("limit_zero", "limit_one"))


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
        # per block the pairs on the grid and at the endpoints, then the
        # second pairs and the mixed pairs
        assert sizes == [4, 4, 8, 4, 4, 8, 2, 2, 4] + [1, 1, 2] * 10

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
        # the pair's core takes one stacked eigh of rho and (rho+sigma)/2 and
        # one of sigma, and each a adds one of the mixture compressed to the
        # joint support, which S_a and every Q_{p,a} share
        assert linalg_calls["eigh"] <= 7
        assert linalg_calls["eigh_matrices"] <= 8
        assert linalg_calls["eigvalsh"] <= 1

    def test_fuzz_trial(self, linalg_calls, monkeypatch):
        serialised = []
        to_json = verify.state_to_jsonable
        monkeypatch.setattr(
            verify, "state_to_jsonable", lambda rho: serialised.append(1) or to_json(rho)
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
        cores = []
        init = tre._Core.__init__
        monkeypatch.setattr(
            tre._Core, "__init__", lambda core, *args: cores.append(1) or init(core, *args)
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
        # Each dimension is one block here, and a block's calls on its pairs
        # take their spectra from one core of them, so rho, sigma and the
        # Holevo mixture are decomposed once per trial.  eigh matrices per
        # trial: 14 for the core's S_a (sigma, rho with the joint support,
        # and 11 mixtures), whose mixtures the overlaps take too, 6 for
        # joint convexity, the Holevo mixture and its compression to its
        # support, which both relative entropies share.  eigh calls per
        # block: one for sigma, one for the joint stack and one per rank of
        # the mixtures, in the core and in the joint convexity call, and
        # two or more for the Holevo mixtures.
        assert linalg_calls["eigh"] <= 9 * blocks
        assert linalg_calls["eigh_matrices"] <= 22 * trials
        # T of a block is one stacked eigvalsh
        assert linalg_calls["eigvalsh"] <= blocks
        # one core of the block's pairs and one of the joint convexity pairs;
        # S_a on the a-grid with the limit nodes, at the endpoints, whose
        # cells are S_0 and S_1, and of both joint convexity pairs
        assert len(cores) <= 2 * blocks
        assert len(sa_calls) <= 3 * blocks
        # one call of each Holevo path per block
        assert holevo_calls.count("holevo_two") <= blocks
        assert holevo_calls.count("holevo_two_via_relative") <= blocks
        assert not limit_calls
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

    # at 101 points each figure decomposes rho stacked over the joint
    # supports; fig1a's joint supports have ranks 2 and 1 (two mixture calls
    # of 600 and 6), fig1b's rank 2 only; fig2a/fig2b add sigma (a = 0) and
    # 99 mixtures
    @pytest.mark.parametrize(
        "figure, calls, matrices",
        [("fig1a", 3, 808), ("fig1b", 2, 808), ("fig2a", 3, 102), ("fig2b", 3, 102)],
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


def test_wrong_trre_reaches_the_sweep(monkeypatch):
    """A shifted Q_{p,a} under its public name must fail run_fuzz."""
    right = renyi.trre
    for module in (renyi, verify):
        monkeypatch.setattr(module, "trre", lambda r, s, p, a: right(r, s, p, a) + 1e-3)
    report = run_fuzz(FuzzConfig(dims=(2, 3), trials=8))
    assert report.checks["trre_bound"].failures > 0


def test_wrong_overlap_reaches_the_sweep(monkeypatch):
    """A shifted telescoped overlap under its public name must fail run_fuzz."""
    right = renyi.renyi_overlap_telescoped
    for module in (renyi, verify):
        monkeypatch.setattr(
            module, "renyi_overlap_telescoped", lambda r, s, p, a: right(r, s, p, a) - 1e-3
        )
    report = run_fuzz(FuzzConfig(dims=(2, 3), trials=8))
    assert report.checks["trre_overlap"].failures > 0


# The default report, check by check: (trials, failures, near_equalities,
# worst_margin).  The counts are exact.  The worst margins hold to
# DEFAULT_MARGIN_ATOL, and those of the limit checks, which extrapolate
# from S_a at a down to 1e-11, to DEFAULT_LIMIT_ATOL.  Run under the
# Prescott, Nehalem, Sandybridge, Haswell and SkylakeX kernels of OpenBLAS
# 0.3.31, the counts stayed the same and the worst margins moved by at most
# 2.6e-14, and by at most 7.3e-7 for the limit checks.
DEFAULT_REPORT = {
    "holevo": (3000, 0, 750, -9.992007221626409e-16),
    "holevo_paths": (3000, 0, 3000, -1.915134717478395e-15),
    "joint_convexity": (3000, 0, 0, 0.00018891719051111755),
    "limit_cauchy": (3000, 0, 2850, -3.8584319801415745e-06),
    "limit_one": (3000, 0, 3000, -4.866662127955834e-06),
    "limit_zero": (3000, 0, 3000, -1.6298871838909364e-05),
    "lower_pinsker": (15000, 0, 1, 4.63806779208572e-05),
    "maximality": (13960, 0, 3750, -1.509903313490213e-14),
    "range": (15000, 0, 3750, -1.1546319456101628e-14),
    "trre_bound": (45000, 0, 11250, -9.015010959956271e-14),
    "trre_overlap": (45000, 0, 11295, -2.55351295663786e-15),
    "upper_T": (15000, 0, 3750, -1.1657341758564144e-14),
}
DEFAULT_MARGIN_ATOL = 1e-10
DEFAULT_LIMIT_ATOL = 5e-6


def test_default_report_is_pinned():
    """``run_fuzz`` with its defaults, as ``telent verify`` runs it, gives the
    pinned counts and worst margins, so a change to a check's threshold or
    nodes that moves the report fails here, not only in a golden diff."""
    report = run_fuzz()
    assert report.passed
    assert sorted(report.checks) == sorted(DEFAULT_REPORT)
    for name, (trials, failures, near, worst) in DEFAULT_REPORT.items():
        st = report.checks[name]
        assert (st.trials, st.failures, st.near_equalities) == (trials, failures, near), name
        atol = DEFAULT_LIMIT_ATOL if name.startswith("limit_") else DEFAULT_MARGIN_ATOL
        assert st.worst_margin == pytest.approx(worst, rel=0.0, abs=atol), name


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
