import json

import numpy as np
import pytest

from telent import cli, tre, verify
from telent.cli import FIG1_A_VALUES, FigureSpec, figure_rows, load_state, main
from telent.states import random_mixed_hs, state_to_jsonable


def write_state(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def qubit_files(tmp_path):
    rho = write_state(tmp_path, "rho.json", {"diag": [1.0, 0.0]})
    sigma = write_state(tmp_path, "sigma.json", {"diag": [0.0, 1.0]})
    return rho, sigma


class TestLoadState:
    def test_matrix_round_trip(self, tmp_path, rng):
        rho = random_mixed_hs(3, 2, rng)
        path = write_state(tmp_path, "m.json", state_to_jsonable(rho))
        assert np.abs(load_state(path) - rho).max() <= 1e-15

    def test_parse_error_names_file_and_field(self, tmp_path):
        path = write_state(tmp_path, "bad.json", {"diag": [0.9, 0.9]})
        with pytest.raises(ValueError, match="bad.json"):
            load_state(path)

    def test_missing_file(self):
        with pytest.raises(ValueError, match="cannot read"):
            load_state("/nonexistent/state.json")


class TestCompute:
    def test_identical_states(self, tmp_path, capsys, rng):
        rho = random_mixed_hs(2, 2, rng)
        f = write_state(tmp_path, "s.json", state_to_jsonable(rho))
        assert main(["compute", f, f, "--a", "0.5"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["S_a"] == pytest.approx(0.0, abs=1e-10)
        assert rec["T"] == pytest.approx(0.0, abs=1e-12)
        assert rec["units"] == "nats"

    def test_orthogonal_qubits(self, qubit_files, capsys):
        rho, sigma = qubit_files
        assert main(["compute", rho, sigma, "--a", "0.5"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["S_a"] == pytest.approx(1.0, abs=1e-10)
        assert rec["T"] == pytest.approx(1.0, abs=1e-12)

    def test_equality_family_record(self, tmp_path, capsys):
        t = 0.37
        rho = write_state(tmp_path, "r.json", {"diag": [t, 0.0, 1.0 - t]})
        sigma = write_state(tmp_path, "s.json", {"diag": [0.0, t, 1.0 - t]})
        assert main(["compute", rho, sigma, "--a", "0.3", "--p", "0.5"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["S_a"] == pytest.approx(t, abs=1e-10)
        assert rec["T"] == pytest.approx(t, abs=1e-12)
        assert "Q_p_a" in rec and 0.0 <= rec["Q_p_a"] <= rec["T"] + 1e-9

    def test_bits_rescales_raw_entropy_only(self, tmp_path, capsys, rng):
        rho = random_mixed_hs(2, 2, rng)
        sigma = random_mixed_hs(2, 2, rng)
        fr = write_state(tmp_path, "r.json", state_to_jsonable(rho))
        fs = write_state(tmp_path, "s.json", state_to_jsonable(sigma))
        main(["compute", fr, fs, "--a", "0.4"])
        nats = json.loads(capsys.readouterr().out)
        main(["compute", fr, fs, "--a", "0.4", "--bits"])
        bits = json.loads(capsys.readouterr().out)
        assert bits["units"] == "bits"
        assert bits["S_rho_tau"] == pytest.approx(
            nats["S_rho_tau"] / np.log(2), rel=1e-12
        )
        # normalized quantities are base-independent
        for key in ("S_a", "T", "S0", "S1"):
            assert bits[key] == nats[key]

    def test_csv_format(self, qubit_files, capsys):
        rho, sigma = qubit_files
        assert main(["compute", rho, sigma, "--a", "0.5", "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        header = out[0].split(",")
        values = out[1].split(",")
        assert len(header) == len(values)
        assert values[header.index("S_a")] == "1.0"

    def test_dimension_mismatch_exit_two(self, tmp_path, capsys):
        r = write_state(tmp_path, "r.json", {"diag": [1.0, 0.0]})
        s = write_state(tmp_path, "s.json", {"diag": [0.5, 0.3, 0.2]})
        assert main(["compute", r, s, "--a", "0.5"]) == 2
        assert "mismatch" in capsys.readouterr().err

    def test_bad_state_exit_two(self, tmp_path, capsys):
        r = write_state(tmp_path, "r.json", {"diag": [0.7, 0.7]})
        assert main(["compute", r, r, "--a", "0.5"]) == 2
        assert "r.json" in capsys.readouterr().err

    def test_non_finite_state_exit_two(self, tmp_path, capsys):
        r = write_state(tmp_path, "r.json", {"diag": [float("nan"), 1.0]})
        assert main(["compute", r, r, "--a", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_bad_a_exit_two(self, qubit_files, capsys):
        rho, sigma = qubit_files
        assert main(["compute", rho, sigma, "--a", "1.5"]) == 2
        capsys.readouterr()


class TestFigure:
    def test_fig1a_endpoints(self):
        _, header, rows = figure_rows(FigureSpec("fig1a", points=11))
        assert header == ["x"] + [f"Sa_a{a:g}" for a in FIG1_A_VALUES]
        first, last = rows[0], rows[-1]
        assert first[0] == 0.0 and last[0] == 1.0
        for v in first[1:]:
            assert v == pytest.approx(1.0, abs=1e-9)
        for v in last[1:]:
            assert v == pytest.approx(0.0, abs=1e-9)

    def test_fig1b_endpoints_match_commuting_formula(self):
        # rho = diag(2/3, 1/3) is not orthogonal to sigma at x = 0, so the
        # endpoint columns follow the classical commuting-case values.
        _, header, rows = figure_rows(FigureSpec("fig1b", points=11))
        lam = np.array([2 / 3, 1 / 3])
        for xi, row in ((0, rows[0]), (-1, rows[-1])):
            x = row[0]
            sig = np.array([x, 1 - x])
            for a, val in zip(FIG1_A_VALUES, row[1:]):
                tau = a * lam + (1 - a) * sig
                expected = float(np.sum(lam * (np.log(lam) - np.log(tau))) / -np.log(a))
                assert val == pytest.approx(expected, abs=1e-9)

    def test_fig2a_endpoints(self):
        _, header, rows = figure_rows(FigureSpec("fig2a", points=21))
        assert header == ["a", "Sa"]
        assert rows[0][1] == pytest.approx(0.5, abs=1e-9)
        assert rows[-1][1] == pytest.approx(0.0, abs=1e-9)

    def test_fig2b_endpoints(self):
        _, _, rows = figure_rows(FigureSpec("fig2b", points=21))
        assert rows[0][1] == pytest.approx(0.0, abs=1e-9)
        assert rows[-1][1] == pytest.approx(0.0, abs=1e-9)

    def test_csv_output_locale_independent(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        assert main(["figure", "fig2a", "--points", "5", "--out", str(out)]) == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "a,Sa"
        assert len(lines) == 2 + 5
        for line in lines[2:]:
            for tok in line.split(","):
                float(tok)  # parses with a decimal point, no locale separators
        assert ";" not in text.replace(lines[0], "")

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            FigureSpec("fig3a")
        with pytest.raises(SystemExit):
            main(["figure", "fig3a"])


class TestVerifyCommand:
    def test_default_small_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            ["verify", "--dims", "2", "--trials", "6", "--seed", "9", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert "PASS" in capsys.readouterr().out

    def test_negative_slack_exits_one_with_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            [
                "verify",
                "--dims",
                "2",
                "--trials",
                "4",
                "--seed",
                "9",
                "--slack",
                "-1",
                "--out",
                str(out),
            ]
        )
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["passed"] is False
        capsys.readouterr()

    @pytest.mark.parametrize("slack", ["nan", "inf", "-inf"])
    def test_non_finite_slack_exits_two_before_the_sweep(self, slack, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_fuzz", lambda config: pytest.fail("the sweep ran"))
        assert main(["verify", f"--slack={slack}"]) == 2
        assert capsys.readouterr().err == f"error: slack must be finite, got {float(slack)}\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_margin_exits_one_with_report(self, bad, tmp_path, capsys, monkeypatch):
        right = tre.telescopic_relative_entropy

        def broken(rho, sigma, a):
            return np.full_like(right(rho, sigma, a), bad)

        monkeypatch.setattr(verify, "telescopic_relative_entropy", broken)
        out = tmp_path / "report.json"
        assert main(["verify", "--dims", "2", "--trials", "4", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["passed"] is False
        st = doc["checks"]["range"]
        assert st["failures"] == st["trials"] > 0 and st["worst_margin"] is None
        # a NaN failure still names its first trial, and -inf its worst
        assert st["witness"]["check"] == "range" and st["witness"]["margin"] is None
        assert st["witness"]["trial"] == 0 and st["witness"]["a"] == 0.1
        assert "FAIL range" in capsys.readouterr().out

    def test_fixed_seed_reports_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert (
                main(
                    [
                        "verify",
                        "--dims",
                        "2",
                        "--trials",
                        "5",
                        "--seed",
                        "31",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TRE_SEED", "12321")
        out = tmp_path / "r.json"
        assert main(["verify", "--dims", "2", "--trials", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == 12321
        capsys.readouterr()

    def test_bad_seed_env_var_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("TRE_SEED", "abc")
        assert main(["pure", "--t", "0.5", "--a", "0.5"]) == 2
        assert main(["verify", "--dims", "2", "--trials", "1"]) == 2
        assert "TRE_SEED" in capsys.readouterr().err

    def test_check_without_trials_writes_null(self, tmp_path, capsys):
        # no d=12 pair of this run is orthogonal or overlaps by >= 0.1, so
        # the maximality check never runs
        out = tmp_path / "r.json"
        args = ["verify", "--dims", "12", "--trials", "1", "--seed", "0"]
        assert main(args + ["--out", str(out)]) == 0
        st = json.loads(out.read_text())["checks"]["maximality"]
        assert st["trials"] == 0 and st["worst_margin"] is None
        assert "PASS maximality: trials=0" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [4207910563, 1853940655])
    def test_eigh_roundoff_is_not_rejected_as_non_psd(self, seed, capsys):
        # each seed draws a d=3 pair whose zero eigenvalues come back from
        # eigh a little below the rank cutoff
        args = ["verify", "--dims", "2,3,4", "--trials", "16", "--seed", str(seed)]
        assert main(args) == 0
        capsys.readouterr()


class TestPureCommand:
    def test_zero_distance(self, capsys):
        assert main(["pure", "--t", "0", "--a", "0.5"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["S_a"] == 0.0

    def test_orthogonal_at_half(self, capsys):
        assert main(["pure", "--t", "1", "--a", "0.5"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["S_a"] == pytest.approx(1.0, abs=1e-12)
        assert rec["w"] == pytest.approx(1.0, abs=1e-12)

    def test_cross_path_with_compute(self, tmp_path, capsys):
        t = float(np.sin(np.pi / 8))
        assert main(["pure", "--t", repr(t), "--a", "0.5"]) == 0
        pure_rec = json.loads(capsys.readouterr().out)
        rho = write_state(tmp_path, "r.json", {"bloch": [0.0, 0.0, 1.0]})
        theta = 2 * np.arcsin(t)
        sigma = write_state(
            tmp_path,
            "s.json",
            {"bloch": [float(np.sin(theta)), 0.0, float(np.cos(theta))]},
        )
        assert main(["compute", rho, sigma, "--a", "0.5"]) == 0
        comp_rec = json.loads(capsys.readouterr().out)
        assert comp_rec["T"] == pytest.approx(t, abs=1e-12)
        assert pure_rec["S_a"] == pytest.approx(comp_rec["S_a"], abs=1e-10)

    def test_bad_t_exit_two(self, capsys):
        assert main(["pure", "--t", "2", "--a", "0.5"]) == 2
        capsys.readouterr()
