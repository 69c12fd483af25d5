import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfdens import make_grid
from cfdens.cli import main
from cfdens.oracle import get_dgp


def write_sample_csv(path, n, seed):
    """Write n confounded_shift rows, drawn with the given seed, as x1,x2,a,y."""
    table = get_dgp("confounded_shift").sample(n, np.random.default_rng(seed))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "a", "y"])
        for i in range(table.n):
            writer.writerow([table.x[i, 0], table.x[i, 1], table.a[i], table.y[i]])
    return path


@pytest.fixture()
def synthetic_csv(tmp_path):
    return str(write_sample_csv(tmp_path / "synthetic.csv", 200, 42))


@pytest.fixture(scope="module")
def csv600(tmp_path_factory):
    return str(write_sample_csv(tmp_path_factory.mktemp("cli") / "cs600.csv", 600, 0))


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    if code != 0:
        return code, None
    with open(out) as fh:
        return code, json.load(fh)


BASE = ["--x-cols", "x1,x2", "--a-col", "a", "--y-col", "y"]


class TestFitProjection:
    def test_shapes_and_density_csv(self, tmp_path, synthetic_csv):
        dens_csv = tmp_path / "dens.csv"
        code, report = run_json(tmp_path, [
            "fit-projection", "--data", synthetic_csv, *BASE,
            "--model", "series:d=4", "--distance", "l2", "--level", "1",
            "--folds", "2", "--seed", "3", "--csv-out", str(dens_csv)])
        assert code == 0
        res = report["results"]
        assert len(res["beta"]) == 4
        assert len(res["ci"]) == 4
        assert len(res["density_grid"]) == 512
        with open(dens_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y_unit", "y_original", "density_unit", "density_original"]
        assert len(rows) == 513
        assert report["config"]["model"] == "series:d=4"

    def test_quick_mode_caps_grid(self, tmp_path, synthetic_csv):
        code, report = run_json(tmp_path, [
            "fit-projection", "--data", synthetic_csv, *BASE,
            "--quick", "--seed", "3"])
        assert code == 0
        assert len(report["results"]["density_grid"]) == 128
        assert report["config"]["folds"] == 2

    def test_determinism_modulo_timestamp(self, tmp_path, synthetic_csv):
        # identical config + seed, run twice against the same output path
        out = tmp_path / "rep.json"
        args = ["fit-projection", "--data", synthetic_csv, *BASE,
                "--quick", "--seed", "11", "--out", str(out)]
        assert main(args) == 0
        first = out.read_text()
        assert main(args) == 0
        second = out.read_text()
        a, b = json.loads(first), json.loads(second)
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestDensityEffect:
    def test_report_fields(self, tmp_path, synthetic_csv):
        code, report = run_json(tmp_path, [
            "density-effect", "--data", synthetic_csv, *BASE,
            "--distance", "l2", "--level1", "1", "--level0", "0",
            "--quick", "--seed", "5"])
        assert code == 0
        res = report["results"]
        for key in ("psi", "se", "ci_wald", "ci_conservative", "near_null_flag"):
            assert key in res
        assert res["ci_conservative"][0] <= res["ci_wald"][0]


class TestSelectAndAggregate:
    def test_select_model_csv_table(self, tmp_path, synthetic_csv):
        risk_csv = tmp_path / "risk.csv"
        code, report = run_json(tmp_path, [
            "select-model", "--data", synthetic_csv, *BASE,
            "--dims", "1..6", "--quick", "--seed", "2",
            "--csv-out", str(risk_csv)])
        assert code == 0
        with open(risk_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "risk", "se"]
        assert len(rows) == 7
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5, 6]
        assert report["results"]["chosen_dim"] in range(1, 7)

    def test_aggregate_weights(self, tmp_path, synthetic_csv):
        code, report = run_json(tmp_path, [
            "aggregate", "--data", synthetic_csv, *BASE,
            "--candidates", "series:d=1,series:d=3", "--quick", "--seed", "2"])
        assert code == 0
        assert len(report["results"]["weights"]) == 2


@pytest.mark.parametrize("command", [
    ["fit-projection", "--model", "expfam:d=3", "--distance", "hellinger"],
    ["density-effect", "--distance", "kl"],
    ["select-model", "--dims", "1..3"],
    ["aggregate", "--candidates", "series:d=2,expfam:d=3"]],
    ids=lambda command: command[0])
def test_gauss_legendre_grid(tmp_path, csv600, command):
    code, report = run_json(tmp_path, [
        *command, "--data", csv600, *BASE, "--grid-rule", "gauss_legendre",
        "--grid", "64", "--folds", "2", "--seed", "3"])
    assert code == 0
    grid = make_grid(64, "gauss_legendre")
    if "density_grid_unit" in report["results"]:
        points, density = np.array(report["results"]["density_grid_unit"]).T
        assert np.array_equal(points, grid.points)
        assert grid.weights @ density == pytest.approx(1.0, abs=1e-12)


class TestSimulate:
    def test_named_experiment_summary(self, tmp_path):
        rec_csv = tmp_path / "records.csv"
        code, report = run_json(tmp_path, [
            "simulate", "--experiment", "effect-null", "--reps", "3",
            "--csv-out", str(rec_csv)])
        assert code == 0
        assert report["results"]["reps"] == 3
        with open(rec_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3


    def test_projection_oracle_reports_its_warnings(self, tmp_path):
        code, report = run_json(tmp_path, [
            "simulate", "--experiment", "projection-coverage", "--reps", "2"])
        assert code == 0
        oracle = report["results"]["oracle"]
        assert oracle["method"] == "closed_form" and oracle["warnings"] == []


class TestErrors:
    def test_config_violations_enumerated(self, capsys, tmp_path):
        code = main(["fit-projection", "--data", str(tmp_path / "missing.csv"),
                     "--grid", "4", "--folds", "1", "--clip-eps", "0.9",
                     "--model", "mystery:d=2"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        violations = err["error"]["violations"]
        assert len(violations) >= 5
        joined = " ".join(violations)
        for field in ("data", "x-cols", "grid", "folds", "clip-eps", "model"):
            assert field in joined

    def test_data_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,a,y\n1.0,0,5\n2.0,1,5\n")
        code = main(["fit-projection", "--data", str(bad),
                     "--x-cols", "x1", "--quick"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 3

    def test_too_many_folds_is_data_error(self, capsys, synthetic_csv):
        code = main(["fit-projection", "--data", synthetic_csv, *BASE, "--folds", "500"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["exit_code"] == 3 and err["type"] == "FoldError"
        assert "200 rows into 500 folds" in err["message"]

    @pytest.mark.parametrize("cell", ["1.5", "inf"])
    def test_treatment_label_not_an_integer_is_data_error(self, capsys, tmp_path, cell):
        rows = ["x1,a,y"] + [f"{i / 10},{i % 2},{i}" for i in range(10)]
        rows[4] = f"0.3,{cell},3"
        bad = tmp_path / "labels.csv"
        bad.write_text("\n".join(rows) + "\n")
        code = main(["density-effect", "--data", str(bad), "--x-cols", "x1", "--quick"])
        assert code == 3
        stderr = capsys.readouterr().err
        err = json.loads(stderr)["error"]
        assert err["exit_code"] == 3 and err["type"] == "DataError"
        assert f"treatment label {float(cell)!r} at row 3" in err["message"]
        assert "traceback" not in err and "Traceback" not in stderr

    @pytest.mark.parametrize("dims", ["a..3", "0..3"])
    def test_bad_dims_is_config_error(self, capsys, synthetic_csv, dims):
        code = main(["select-model", "--data", synthetic_csv, *BASE, "--dims", dims])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert [v.split(":")[0] for v in err["error"]["violations"]] == ["dims"]

    @pytest.mark.parametrize("command", ["fit-projection", "density-effect"])
    @pytest.mark.parametrize("distance", ["tv:t=inf", "tv:kind=erf"])
    def test_bad_tv_distance_is_config_error(self, capsys, synthetic_csv, command, distance):
        code = main([command, "--data", synthetic_csv, *BASE, "--distance", distance])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert [v.split(":")[0] for v in err["violations"]] == ["distance"]

    def test_singular_moment_derivative_is_solver_error(self, capsys, csv600):
        code = main(["fit-projection", "--data", csv600, *BASE, "--model", "gmm:k=4",
                     "--distance", "kl", "--quick", "--seed", "4"])
        assert code == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["exit_code"] == 4 and err["type"] == "RankError"
        assert "numerically singular" in err["message"]

    def test_runaway_solve_reports_its_residual_history(self, capsys, csv600):
        code = main(["fit-projection", "--data", csv600, *BASE, "--model", "series:d=4",
                     "--distance", "tv:t=50", "--quick", "--seed", "4"])
        assert code == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["exit_code"] == 4 and err["type"] == "SolverError"
        assert "|beta_k| > 60 at iteration" in err["message"]
        history = err["residual_history"]
        assert isinstance(history, list) and len(history) > 0
        assert all(np.isfinite(history))

    @pytest.mark.parametrize("flags", [["fit-projection", "--level", "7"],
                                       ["density-effect", "--level1", "7"],
                                       ["select-model", "--dims", "1..2", "--level", "7"],
                                       ["aggregate", "--candidates", "series:d=2",
                                        "--level", "7"]])
    def test_absent_level_is_data_error(self, capsys, synthetic_csv, flags):
        code = main([flags[0], "--data", synthetic_csv, *BASE, "--quick", *flags[1:]])
        assert code == 3
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "level 7" in message and "[0, 1]" in message

    @pytest.mark.parametrize("flags", [["fit-projection", "--model", "series:d=2",
                                        "--distance", "l2"],
                                       ["density-effect", "--distance", "l2"],
                                       ["select-model", "--dims", "1..2"]],
                             ids=lambda flags: flags[0])
    def test_bandwidth_leaving_a_row_no_mass_is_data_error(self, capsys, recwarn, csv600,
                                                          flags):
        # at h_y = 1e-4 on an 8-point grid some training kernels vanish on every
        # node, and an eval row that weights only those has no mass
        code = main([flags[0], "--data", csv600, *BASE, "--folds", "2", "--grid", "8",
                     "--bandwidth", "0.0001", *flags[1:]])
        assert code == 3
        stderr = capsys.readouterr().err
        err = json.loads(stderr)["error"]
        assert err["exit_code"] == 3 and err["type"] == "DataError"
        assert "h_y=0.0001" in err["message"] and "8-point grid" in err["message"]
        assert not [str(w.message) for w in recwarn]    # no division by a zero mass

    @pytest.mark.parametrize("argv", [["simulate", "--grid", "64"],
                                      ["fit-projection", "--dims", "1..3"]])
    def test_flag_of_another_command_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        stderr = capsys.readouterr().err
        assert "unrecognized arguments" in stderr
        err = json.loads(stderr)["error"]
        assert err["exit_code"] == 2 and err["type"] == "ConfigError"
        assert "unrecognized arguments" in err["violations"][0]

    @pytest.mark.parametrize("flag", ["--out", "--csv-out"])
    def test_unwritable_output_is_internal_error(self, capsys, tmp_path, synthetic_csv,
                                                 flag):
        args = ["fit-projection", "--data", synthetic_csv, *BASE, "--quick",
                flag, str(tmp_path / "no" / "such" / "dir" / "x")]
        code = main(args)
        assert code == 5
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["exit_code"] == 5 and err["type"] == "FileNotFoundError"

    @pytest.mark.parametrize("reps", ["-3", "0", "1"])
    def test_reps_below_two_is_config_error(self, capsys, reps):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--experiment", "effect-null", "--reps", reps])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["exit_code"] == 2 and err["type"] == "ConfigError"
        assert "--reps" in err["violations"][0]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--experiment", "effect-null"],
        ["fit-projection", "--data", "{data}", *BASE, "--quick"],
        ["density-effect", "--data", "{data}", *BASE, "--quick"],
        ["select-model", "--data", "{data}", *BASE, "--quick", "--dims", "1..2"],
        ["aggregate", "--data", "{data}", *BASE, "--quick", "--candidates", "series:d=1"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_config_error(self, capsys, synthetic_csv, argv):
        argv = [a.replace("{data}", synthetic_csv) for a in argv]
        code = main(argv + ["--seed", "-1"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert err["violations"] == ["seed: need >= 0, got -1"]

    def test_effect_between_a_level_and_itself_is_config_error(self, capsys, synthetic_csv):
        code = main(["density-effect", "--data", synthetic_csv, *BASE, "--quick",
                     "--level1", "1", "--level0", "1"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["violations"] == ["level0: must differ from level1, both are 1"]

    @pytest.mark.parametrize("x_cols", ["x1,y", "x1,a"])
    def test_covariate_naming_treatment_or_outcome_is_config_error(self, capsys, csv600,
                                                                   x_cols):
        code = main(["density-effect", "--data", csv600, "--x-cols", x_cols, "--quick"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["violations"] == [f"x-cols: ['{x_cols[-1]}'] name the treatment "
                                     "or outcome column"]

    def test_outcome_naming_the_treatment_is_config_error(self, capsys, csv600):
        code = main(["density-effect", "--data", csv600, "--x-cols", "x1", "--y-col", "a",
                     "--quick"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["violations"] == ["y-col: 'a' names the treatment column"]

    def test_unknown_experiment(self, capsys):
        code = main(["simulate", "--experiment", "nope"])
        assert code == 2

    def test_missing_code_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = ["x1,x2,a,y"]
        rng = np.random.default_rng(0)
        for i in range(120):
            y = "-999" if i % 5 == 0 else f"{rng.uniform():.4f}"
            rows.append(f"{rng.uniform():.4f},{rng.uniform():.4f},{i % 2},{y}")
        path.write_text("\n".join(rows) + "\n")
        code, report = run_json(tmp_path, [
            "density-effect", "--data", str(path), *BASE,
            "--missing-code", "-999", "--quick", "--seed", "1"])
        assert code == 0
        assert report["results"]["n"] == 120


# per subcommand: flags with a list of values that each make the run invalid;
# "--level 7" names a level absent from the data (exit 3), the rest exit 2
_DATA_INVALID = {
    "--data": ["{missing}"],
    "--x-cols": [",", "x1,y", "x1,a"],
    "--y-col": ["a"],
    "--seed": ["-1"],
    "--grid": ["4", "0", "-3", "x"],
    "--folds": ["1", "0", "two", "500"],
    "--clip-eps": ["0", "0.5", "-0.1", "nan", "inf"],
    "--grid-rule": ["simpson", ""],
    "--nuisance-propensity": ["forest"],
    "--nuisance-density": ["gp"],
    "--bandwidth": ["0", "-1", "wide", "nan", "inf"],
}
_INVALID = {
    "fit-projection": {**_DATA_INVALID, "--model": ["mystery:d=2", "series:d=x"],
                       "--distance": ["l3", "tv:t=x", "tv:t=inf", "tv:kind=erf"],
                       "--level": ["7", "x"]},
    "density-effect": {**_DATA_INVALID, "--distance": ["l3", "tv:t=inf", "tv:kind=erf"],
                       "--level1": ["7"], "--level0": ["1"]},
    "select-model": {**_DATA_INVALID, "--dims": ["a..3", "0..3", ""], "--level": ["7"]},
    "aggregate": {**_DATA_INVALID, "--candidates": ["", "bogus"], "--level": ["7"]},
    "simulate": {"--experiment": ["nope", ""], "--reps": ["1", "0", "-3", "x"],
                 "--seed": ["x", "-1"]},
}


@st.composite
def invalid_argv(draw):
    command = draw(st.sampled_from(sorted(_INVALID)))
    table = _INVALID[command]
    flags = draw(st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=4,
                          unique=True))
    if command == "simulate":
        argv = ["simulate", "--experiment", "effect-null"]
    else:
        # --quick sets two folds, which would hide an invalid --folds value
        argv = [command, "--data", "{data}", *BASE] + ([] if "--folds" in flags else ["--quick"])
        argv += {"select-model": ["--dims", "1..2"],
                 "aggregate": ["--candidates", "series:d=1"]}.get(command, [])
    for flag in flags:
        argv += [flag, draw(st.sampled_from(table[flag]))]
    return argv


@pytest.fixture(scope="module")
def module_csv(tmp_path_factory):
    return write_sample_csv(tmp_path_factory.mktemp("cli") / "synthetic.csv", 200, 42)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=invalid_argv())
def test_invalid_config_exits_2_or_3_with_json(argv, module_csv):
    argv = [a.replace("{data}", str(module_csv))
            .replace("{missing}", str(module_csv.parent / "missing.csv")) for a in argv]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (2, 3), (argv, code, stderr.getvalue())
    err = json.loads(stderr.getvalue())["error"]
    assert err["exit_code"] == code
    assert "traceback" not in err and "Traceback" not in stderr.getvalue()
