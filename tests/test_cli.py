import csv
import json

import numpy as np
import pytest

from chronoslyap import cli
from chronoslyap.cli import main


def write_spec(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def specs(tmp_path):
    return {
        "z": write_spec(tmp_path / "Z.json",
                        {"kind": "integers", "window": [0, 8]}),
        "r": write_spec(tmp_path / "R.json",
                        {"kind": "reals", "window": [0, 2]}),
        "pulse": write_spec(tmp_path / "pulse11.json",
                            {"kind": "pulse", "a": 1, "b": 1,
                             "window": [0, 10]}),
        "a_half": write_spec(tmp_path / "a_half.json",
                             {"n": 1, "A": {"constant": [[-0.5]]}}),
        "a_one": write_spec(tmp_path / "a1.json",
                            {"n": 1, "A": {"constant": [[-1.0]]}}),
        "a_diag": write_spec(tmp_path / "adiag.json",
                             {"n": 2, "A": {"constant": [[-1.0, 0.0],
                                                         [0.0, -2.0]]}}),
        "a_bad": write_spec(tmp_path / "abad.json",
                            {"n": 1, "A": {"constant": [[0.5]]}}),
        "one": write_spec(tmp_path / "one.json",
                          {"n": 1, "M": {"constant": [[1.0]]}}),
        "eye2": write_spec(tmp_path / "eye2.json",
                           {"n": 2, "M": {"constant": [[1.0, 0.0],
                                                       [0.0, 1.0]]}}),
        "dir": tmp_path,
    }


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestSolveTsale:
    def test_discrete_value_in_csv(self, specs):
        out = specs["dir"] / "out_tsale"
        rc = main(["solve-tsale", "--ts", specs["z"], "--system",
                   specs["a_half"], "--cost", specs["one"],
                   "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "tsale.csv")
        assert len(rows) == 8  # window end carries no forward graininess
        for row in rows:
            assert float(row["P_0_0"]) == pytest.approx(4.0 / 3.0, rel=1e-9)
            assert float(row["residual_norm"]) <= 1e-8
        summary = json.loads((out / "summary.json").read_text())
        assert summary["equation"] == "TSALE"

    def test_unstable_spectrum_exit_code(self, specs):
        out = specs["dir"] / "out_bad"
        rc = main(["solve-tsale", "--ts", specs["z"], "--system",
                   specs["a_bad"], "--cost", specs["one"],
                   "--out", str(out)])
        assert rc == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "UnstableSpectrum"

    @pytest.mark.parametrize("schedule, mu", [
        # pulse a = 1, b = 0.5: the jump at 2.5 (mu = 0.5) comes before the
        # dense point 3.0 (mu = 0) in grid order
        ([[0.0, [[-1.0]]], [2.5, [[0.5]]]], "0.5"),
        ([[0.0, [[-1.0]]], [3.0, [[0.5]]]], "0.0"),
        # continuous-stable but outside the Hilger disk of mu = 0.5, then a
        # piece that is unstable for every mu
        ([[0.0, [[-1.0]]], [2.5, [[-5.0]]], [4.2, [[0.5]]]], "0.5"),
        ([[0.0, [[-1.0]]], [3.0, [[-5.0]]], [4.2, [[0.5]]]], "0.5"),
    ])
    def test_first_failing_point_is_reported(self, tmp_path, schedule, mu):
        files = [write_spec(tmp_path / "ts.json",
                            {"kind": "pulse", "a": 1.0, "b": 0.5,
                             "window": [0.0, 6.0]}),
                 write_spec(tmp_path / "a.json",
                            {"n": 1, "A": {"schedule": schedule}}),
                 write_spec(tmp_path / "m.json",
                            {"n": 1, "M": {"constant": [[1.0]]}})]
        out = tmp_path / "out"
        assert main(["solve-tsale", "--ts", files[0], "--system", files[1],
                     "--cost", files[2], "--out", str(out)]) == 3
        assert json.loads((out / "error.json").read_text()) == {
            "error": "UnstableSpectrum",
            "message": "spectrum of A is not inside the Hilger region for "
                       f"mu = {mu}"}

    def test_dimension_mismatch_exit_code(self, specs):
        out = specs["dir"] / "out_dim"
        rc = main(["solve-tsale", "--ts", specs["z"], "--system",
                   specs["a_half"], "--cost", specs["eye2"],
                   "--out", str(out)])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "InvalidParameter"

    def test_missing_file_exit_code(self, specs):
        rc = main(["solve-tsale", "--ts", "nope.json", "--system",
                   specs["a_half"], "--cost", specs["one"],
                   "--out", str(specs["dir"] / "out_missing")])
        assert rc == 2

    def test_deterministic_output(self, specs):
        args = ["solve-tsale", "--ts", specs["z"], "--system",
                specs["a_half"], "--cost", specs["one"]]
        out1 = specs["dir"] / "det1"
        out2 = specs["dir"] / "det2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "tsale.csv").read_bytes() == \
            (out2 / "tsale.csv").read_bytes()


class TestSolveTsaleMemo:
    SCHEDULE = [[0.0, [[-1.0, 0.3], [0.0, -2.0]]],
                [2.2, [[-0.5, 0.0], [0.2, -0.7]]],
                [4.0, [[-1.5, -0.4], [0.4, -1.0]]]]
    M = [[1.0, 0.1], [0.1, 2.0]]

    def test_one_solve_per_piece_and_graininess(self, tmp_path, monkeypatch):
        from chronoslyap import build_grid, tsale_residual, window_from_spec

        ts = {"kind": "pulse", "a": 1.0, "b": 0.5, "window": [0.0, 6.0]}
        files = [write_spec(tmp_path / "ts.json", ts),
                 write_spec(tmp_path / "a.json",
                            {"n": 2, "A": {"schedule": self.SCHEDULE}}),
                 write_spec(tmp_path / "m.json",
                            {"n": 2, "M": {"constant": self.M}})]
        solve, series = cli.solve_tsale_pointwise, cli.solve_tsale_series
        seen = []

        def counting(A, M, mu, **kwargs):
            seen.append((np.asarray(A).tobytes(), mu))
            return solve(A, M, mu, **kwargs)

        def counting_series(A, M, mus, **kwargs):
            seen.extend((a.tobytes(), mu) for a, mu in
                        zip(np.asarray(A), np.asarray(mus).tolist()))
            return series(A, M, mus, **kwargs)

        monkeypatch.setattr(cli, "solve_tsale_pointwise", counting)
        monkeypatch.setattr(cli, "solve_tsale_series", counting_series)
        out = tmp_path / "out"
        assert main(["solve-tsale", "--ts", files[0], "--system", files[1],
                     "--cost", files[2], "--out", str(out)]) == 0

        # every point solved on its own, then formatted
        grid = build_grid(window_from_spec(ts), 0.01)
        starts = [t for t, _ in self.SCHEDULE]
        M = np.array(self.M)
        lines = ["t,P_0_0,P_0_1,P_1_0,P_1_1,residual_norm,min_eigenvalue"]
        keys = set()
        for t, mu in zip(grid.times[:-1].tolist(), grid.mus[:-1].tolist()):
            piece = max(i for i, s in enumerate(starts) if s <= t)
            A = np.array(self.SCHEDULE[piece][1])
            P = solve(A, M, mu)
            cells = [t, *P.reshape(-1), tsale_residual(A, P, M, mu),
                     np.linalg.eigvalsh(P)[0]]
            lines.append(",".join(cli._fmt(c) for c in cells))
            keys.add((piece, mu))
        assert (out / "tsale.csv").read_bytes() == \
            ("\n".join(lines) + "\n").encode()
        assert len(seen) == len(set(seen)) == len(keys) == 6
        assert len(lines) - 1 > 60 * len(keys)

        summary = json.loads((out / "summary.json").read_text())
        residuals = [float(row["residual_norm"])
                     for row in read_rows(out / "tsale.csv")]
        assert summary["max_residual"] == max(residuals) > 0.0
        assert summary["max_relative_residual"] == \
            summary["max_residual"] / np.linalg.norm(M, "fro")


class TestExitCodes:
    def test_solver_bug_is_an_internal_error(self, specs, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        # every mu of the integers is 1: the stacked series solve runs
        monkeypatch.setattr(cli, "solve_tsale_series", broken)
        out = specs["dir"] / "out_bug"
        rc = main(["solve-tsale", "--ts", specs["z"], "--system",
                   specs["a_half"], "--cost", specs["one"],
                   "--out", str(out)])
        assert rc == 4
        assert json.loads((out / "error.json").read_text())["error"] == \
            "KeyError"

    @pytest.mark.parametrize("which, payload", [
        ("system", {"n": 1}),
        ("system", {"n": 1, "A": {"constant": [["x"]]}}),
        ("system", {"n": 1, "A": {"schedule": [[0.0]]}}),
        ("cost", {"n": 1, "M": {"constant": [[1.0], [2.0, 3.0]]}}),
        ("ts", {"kind": "integers", "window": [0]}),
        ("ts", {"kind": "pulse", "a": "wide", "b": 1, "window": [0, 4]}),
        ("ts", {"kind": "integers", "window": [3, 3]}),  # no row to solve
    ])
    def test_malformed_spec_is_a_validation_error(self, specs, tmp_path,
                                                  which, payload):
        files = {"ts": specs["z"], "system": specs["a_half"],
                 "cost": specs["one"]}
        files[which] = write_spec(tmp_path / "bad.json", payload)
        out = tmp_path / "out"
        rc = main(["solve-tsale", "--ts", files["ts"], "--system",
                   files["system"], "--cost", files["cost"],
                   "--out", str(out)])
        assert rc == 2
        assert json.loads((out / "error.json").read_text())["error"] == \
            "InvalidParameter"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--x0", "1,a"],
        ["solve-tsdle", "--cost", "ONE", "--ic", "file:P0"],
        ["solve-tsale", "--cost", "ONE", "--dense-step", "inf"],
        # json reads NaN, so a non-finite entry must be refused explicitly
        ["simulate", "--x0", "nan"],
        ["solve-tsdle", "--cost", "ONE", "--ic", "file:NAN_P0"],
        ["solve-tsale", "--cost", "NAN_M"],
        ["solve-tsdle", "--cost", "NAN_M"],
        ["stationary", "--cost", "NAN_M"],
    ])
    def test_malformed_flag_is_a_validation_error(self, specs, tmp_path,
                                                  argv):
        p0 = write_spec(tmp_path / "p0.json", {"P0": [[1.0, 0.0]]})
        nan_p0 = write_spec(tmp_path / "nan_p0.json",
                            {"P0": [[float("nan")]]})
        nan_m = write_spec(tmp_path / "nan_m.json",
                           {"n": 1, "M": {"constant": [[float("nan")]]}})
        argv = [a.replace("NAN_P0", nan_p0).replace("NAN_M", nan_m)
                .replace("ONE", specs["one"]).replace("P0", p0)
                for a in argv]
        out = tmp_path / "out"
        rc = main(argv + ["--ts", specs["z"], "--system", specs["a_half"],
                          "--out", str(out)])
        assert rc == 2
        assert json.loads((out / "error.json").read_text())["error"] == \
            "InvalidParameter"

    def test_tail_tol_only_where_it_is_read(self, specs):
        with pytest.raises(SystemExit) as exc:
            main(["solve-tsale", "--ts", specs["z"], "--system",
                  specs["a_half"], "--cost", specs["one"],
                  "--tail-tol", "1e-3"])
        assert exc.value.code == 2


class TestSolveTsdle:
    def test_stationary_pulse_positive(self, specs):
        out = specs["dir"] / "out_tsdle"
        rc = main(["solve-tsdle", "--ts", specs["pulse"], "--system",
                   specs["a_diag"], "--cost", specs["eye2"],
                   "--ic", "stationary", "--dense-step", "0.002",
                   "--tail-tol", "1e-6", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "tsdle.csv")
        assert all(float(r["min_eigenvalue"]) > 0 for r in rows)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["equation"] == "TSDLE-stationary"

    def test_zero_ic(self, specs):
        out = specs["dir"] / "out_tsdle0"
        rc = main(["solve-tsdle", "--ts", specs["r"], "--system",
                   specs["a_one"], "--cost", specs["one"],
                   "--ic", "zero", "--dense-step", "0.005",
                   "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "tsdle.csv")
        assert float(rows[0]["P_0_0"]) == 0.0

    def test_file_ic(self, specs, tmp_path):
        ic = write_spec(tmp_path / "p0.json", {"P0": [[0.5]]})
        out = specs["dir"] / "out_tsdlef"
        rc = main(["solve-tsdle", "--ts", specs["r"], "--system",
                   specs["a_one"], "--cost", specs["one"],
                   "--ic", f"file:{ic}", "--dense-step", "0.005",
                   "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "tsdle.csv")
        assert float(rows[-1]["P_0_0"]) == pytest.approx(0.5, abs=1e-8)


class TestStationaryCommand:
    def test_writes_initial_matrix(self, specs):
        out = specs["dir"] / "out_stat"
        rc = main(["stationary", "--ts", specs["z"], "--system",
                   specs["a_half"], "--cost", specs["one"],
                   "--tail-tol", "1e-3", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "stationary.json").read_text())
        assert payload["P0"][0][0] == pytest.approx(4.0 / 3.0, rel=1e-4)

    def test_no_decay_exit(self, specs):
        out = specs["dir"] / "out_stat_bad"
        rc = main(["stationary", "--ts", specs["r"], "--system",
                   specs["a_bad"], "--cost", specs["one"],
                   "--out", str(out)])
        assert rc == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "NoDecayDetected"


class TestStabilityCommand:
    def test_degenerate_flagged(self, specs):
        out = specs["dir"] / "out_stab"
        rc = main(["stability", "--ts", specs["z"], "--system",
                   specs["a_one"], "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "exponential stability indicated"
        assert report["eigenvalues"][0]["mechanism"] == "degenerate"
        assert report["eigenvalues"][0]["s_r_hit_count"] == 8
        rows = read_rows(out / "eigenvalues.csv")
        assert rows[0]["gamma_hat"] == "-inf"

    def test_plot_data(self, specs):
        out = specs["dir"] / "out_stabp"
        rc = main(["stability", "--ts", specs["z"], "--system",
                   specs["a_half"], "--plot-data", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "disks.csv")
        kinds = {r["kind"] for r in rows}
        assert kinds == {"hmin_boundary", "eigenvalue"}


class TestSimulateVerify:
    def test_simulate_columns(self, specs):
        out = specs["dir"] / "out_sim"
        rc = main(["simulate", "--ts", specs["z"], "--system",
                   specs["a_half"], "--x0", "1", "--dense-step", "1",
                   "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "trajectory.csv")
        assert float(rows[4]["x_0"]) == pytest.approx(0.5 ** 4)

    def test_verify_outputs(self, specs):
        out = specs["dir"] / "out_ver"
        rc = main(["verify", "--ts", specs["z"], "--system",
                   specs["a_half"], "--cost", specs["one"], "--x0", "1",
                   "--dense-step", "1", "--tail-tol", "1e-3",
                   "--out", str(out)])
        assert rc == 0
        verdict = json.loads((out / "verify.json").read_text())
        assert verdict["V_positive"] and verdict["V_delta_negative"]
        rows = read_rows(out / "trajectory.csv")
        assert set(rows[0]) == {"t", "x_0", "V", "V_delta"}
        assert float(rows[0]["V_delta"]) == pytest.approx(-1.0, rel=1e-9)


class TestReduceCheck:
    def test_passes_on_stable_pair(self, specs):
        out = specs["dir"] / "out_red"
        rc = main(["reduce-check", "--ts-r", specs["r"], "--ts-z",
                   specs["z"], "--system", specs["a_half"], "--cost",
                   specs["one"], "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "reduce_check.json").read_text())
        assert payload["passed"]
        assert payload["max_discrepancy"] <= 1e-8

    def test_stationary_ic_mode(self, specs, tmp_path):
        long_r = write_spec(tmp_path / "Rlong.json",
                            {"kind": "reals", "window": [0, 25]})
        long_z = write_spec(tmp_path / "Zlong.json",
                            {"kind": "integers", "window": [0, 30]})
        out = specs["dir"] / "out_red2"
        rc = main(["reduce-check", "--ts-r", long_r, "--ts-z", long_z,
                   "--system", specs["a_half"], "--cost", specs["one"],
                   "--ic", "stationary", "--out", str(out)])
        assert rc == 0

    def test_dimension_mismatch(self, specs):
        out = specs["dir"] / "out_red3"
        rc = main(["reduce-check", "--ts-r", specs["r"], "--ts-z",
                   specs["z"], "--system", specs["a_half"], "--cost",
                   specs["eye2"], "--out", str(out)])
        assert rc == 2


class TestFormatting:
    def test_seventeen_significant_digits(self, specs):
        out = specs["dir"] / "out_fmt"
        main(["solve-tsale", "--ts", specs["z"], "--system",
              specs["a_half"], "--cost", specs["one"], "--out", str(out)])
        text = (out / "tsale.csv").read_text()
        assert "\r" not in text
        assert "1.3333333333333333" in text
