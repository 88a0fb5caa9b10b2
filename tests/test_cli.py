import json
import subprocess
import sys

import pytest

from cvuq.cli import main
from cvuq.ecdf import uniform_ecdf


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


@pytest.fixture()
def workdir(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text(
        "y,x1\n" + "\n".join(f"{y},{x}" for y, x in zip(
            [0.2, 1.1, -0.5, 2.0, 0.9, 1.4, -1.2, 0.3, 0.8, 1.9],
            [0.1, 1.0, -0.4, 2.1, 1.0, 1.2, -1.0, 0.2, 0.7, 2.0],
        )) + "\n"
    )
    pred = tmp_path / "ridge.json"
    pred.write_text('{"kind": "ridge", "lambda": 1.0}')
    dgp = tmp_path / "dgp.json"
    dgp.write_text('{"kind": "gaussian_linear", "beta": [1.0], "sigma": 1.0}')
    return tmp_path


def test_interval_command(capsys, workdir):
    code, payload = run_cli(
        capsys,
        "interval", "--data", str(workdir / "d.csv"), "--predictor", str(workdir / "ridge.json"),
        "--method", "cv", "--k", "5", "--alpha1", "0.05", "--alpha2", "0.95",
        "--delta", "0", "--xnew", "1.0",
    )
    assert code == 0
    assert payload["schema"] == "1"
    assert payload["lo"] != payload["hi"]
    assert payload["length"] >= 0


def test_gauge_command(capsys, tmp_path):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    f.write_text(uniform_ecdf([0.0, 1.0, 2.0]).to_json())
    g.write_text(uniform_ecdf([0.0, 1.0, 5.0]).to_json())
    code, payload = run_cli(capsys, "gauge", "--f", str(f), "--g", str(g), "--delta", "1.0")
    assert code == 0
    assert payload["value"] == pytest.approx(1 / 3)
    assert payload["side"] in ("F_over_G", "G_over_F")


def test_risk_command(capsys, workdir):
    code, payload = run_cli(
        capsys,
        "risk", "--data", str(workdir / "d.csv"), "--predictor", str(workdir / "ridge.json"),
        "--k", "5", "--loss", "squared_hinge", "--eps", "0.2",
    )
    assert code == 0
    assert payload["mse"] > 0
    assert payload["loss_bounds"]["lo"] <= payload["loss_bounds"]["hi"]
    assert "misclassification" not in payload  # residuals not integer


def test_dgp_command_round_trip(capsys, workdir, tmp_path):
    out_file = tmp_path / "sampled.csv"
    code, payload = run_cli(
        capsys,
        "dgp", "--dgp", str(workdir / "dgp.json"), "--n", "25",
        "--data-out", str(out_file), "--seed", "3",
    )
    assert code == 0 and payload["n"] == 25
    from cvuq.data import load_dataset

    assert load_dataset(out_file).n == 25


def test_unknown_flag_exits_2(capsys, workdir):
    code, payload = run_cli(capsys, "interval", "--nonsense", "1")
    assert code == 2
    assert payload["error"] == "usage"


def test_missing_file_exits_3(capsys, workdir):
    code, payload = run_cli(
        capsys,
        "interval", "--data", str(workdir / "missing.csv"),
        "--predictor", str(workdir / "ridge.json"),
        "--alpha1", "0.1", "--alpha2", "0.9", "--xnew", "1.0",
    )
    assert code == 3


def test_degenerate_fit_exits_4(capsys, tmp_path):
    data = tmp_path / "singular.csv"
    data.write_text("y,x1,x2\n1.0,1.0,1.0\n2.0,2.0,2.0\n3.0,3.0,3.0\n")
    pred = tmp_path / "ols.json"
    pred.write_text('{"kind": "ridge", "lambda": 0.0}')
    code, payload = run_cli(
        capsys,
        "interval", "--data", str(data), "--predictor", str(pred),
        "--k", "3", "--alpha1", "0.1", "--alpha2", "0.9", "--xnew", "1.0,1.0",
    )
    assert code == 4
    assert payload["error"] == "DegenerateFit"


def test_stability_pacbound_arithmetic(capsys):
    code, payload = run_cli(
        capsys,
        "stability", "pacbound", "--kfolds", "100", "--delta", "1.0", "--eps", "0.1",
        "--bound-l", "0.0", "--tail", "0.05", "--abs-err", "0.0",
        "--stab", ",".join(["0"] * 100),
    )
    assert code == 0
    assert payload["bound_trunc"] == pytest.approx(-12.0)
    assert payload["bound_abs"] == 1.0


def test_stability_eqbound(capsys):
    code, payload = run_cli(
        capsys,
        "stability", "eqbound", "--eps", "0.5", "--delta", "0.1",
        "--exceed", ",".join(["0.05"] * 10),
    )
    assert code == 0
    assert payload["bound"] == pytest.approx(0.2)


def test_sim_coverage_reproducible_across_threads(capsys, workdir, tmp_path):
    pred = workdir / "ridge.json"
    dgp = workdir / "dgp.json"
    outputs = []
    for threads in ("1", "8"):
        code = main([
            "sim", "coverage", "--dgp", str(dgp), "--predictor", str(pred),
            "--n", "20", "--train-reps", "8", "--mc-test", "200",
            "--seed", "7", "--threads", threads,
        ])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_sim_equiv_and_csv(capsys, workdir, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, payload = run_cli(
        capsys,
        "sim", "equiv", "--dgp", str(workdir / "dgp.json"),
        "--predictor", str(workdir / "ridge.json"),
        "--n", "15", "--train-reps", "5", "--mc-test", "100", "--seed", "1",
        "--csv", str(csv_path),
    )
    assert code == 0
    assert payload["event_freq"] <= payload["bound"] + 3 * payload["event_std_err"] + 1e-12
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "rep,cov_cv,cov_cvp,gap"
    assert len(lines) == 6


def test_config_defaults_overridden_by_flags(capsys, workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha1": 0.2, "alpha2": 0.8, "xnew": "1.0"}))
    code, payload = run_cli(
        capsys,
        "--config", str(cfg),
        "interval", "--data", str(workdir / "d.csv"),
        "--predictor", str(workdir / "ridge.json"), "--alpha1", "0.1",
    )
    assert code == 0
    assert payload["alpha1"] == 0.1  # explicit flag wins
    assert payload["alpha2"] == 0.8  # config fills the rest
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_flag": 1}))
    code, payload = run_cli(capsys, "--config", str(bad), "interval", "--data", "x")
    assert code == 2


def test_stability_profile_csv(capsys, workdir, tmp_path):
    csv_path = tmp_path / "profile.csv"
    code, payload = run_cli(
        capsys,
        "stability", "profile", "--dgp", str(workdir / "dgp.json"),
        "--predictor", str(workdir / "ridge.json"),
        "--n", "12", "--reps", "6", "--eps-grid", "0.05,0.5", "--seed", "2",
        "--csv", str(csv_path),
    )
    assert code == 0
    assert len(payload["exceed_prob"]) == 2
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "eps,exceed_prob,std_err"
    assert len(lines) == 3


def test_entry_point_subprocess(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "cvuq.cli", "gauge", "--f", "missing.json", "--g", "x", "--delta", "0.1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "io"


def test_out_file_instead_of_stdout(capsys, workdir, tmp_path):
    out = tmp_path / "res.json"
    code = main([
        "risk", "--data", str(workdir / "d.csv"),
        "--predictor", str(workdir / "ridge.json"), "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["schema"] == "1"


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    lines = text.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0], parse_constant=reject)


@pytest.mark.parametrize(
    "spec",
    [
        '{"kind": "ridge", "lambda": "abc"}',
        '{"kind": "ridge", "lambda": NaN}',
        '{"kind": "knn_mean", "neighbors": "x"}',
        '{"kind": "constant", "value": Infinity}',
        '{"kind": "dirac_threshold", "level": -Infinity}',
    ],
)
def test_non_numeric_predictor_params_exit_3(capsys, workdir, spec):
    pred = workdir / "bad.json"
    pred.write_text(spec)
    code = main([
        "stability", "vargap", "--dgp", str(workdir / "dgp.json"), "--predictor", str(pred),
        "--n", "10", "--reps", "5",
    ])
    assert code == 3
    assert strict_json(capsys.readouterr().out)["error"] == "MalformedInput"


@pytest.mark.parametrize(
    "flags",
    [("--train-reps", "0"), ("--mc-test", "0"), ("--threads", "-2"), ("--threads", "0")],
)
def test_counts_below_one_exit_2(capsys, workdir, flags):
    code = main([
        "sim", "coverage", "--dgp", str(workdir / "dgp.json"),
        "--predictor", str(workdir / "ridge.json"), "--n", "10", "--train-reps", "2",
        "--mc-test", "50", *flags,
    ])
    assert code == 2
    assert strict_json(capsys.readouterr().out)["error"] == "usage"


@pytest.mark.parametrize("mode", ["profile", "vargap"])
def test_single_rep_std_err_is_inf_string(capsys, workdir, mode):
    code = main([
        "stability", mode, "--dgp", str(workdir / "dgp.json"),
        "--predictor", str(workdir / "ridge.json"), "--n", "10", "--reps", "1",
    ])
    assert code == 0
    payload = strict_json(capsys.readouterr().out)
    std_err = payload["exceed_std_err"] if mode == "profile" else [payload["std_err"]]
    assert std_err and all(v == "inf" for v in std_err)


def test_nan_result_exits_4(capsys, workdir):
    code = main([
        "interval", "--data", str(workdir / "d.csv"), "--predictor", str(workdir / "ridge.json"),
        "--alpha1", "0.1", "--alpha2", "0.9", "--xnew", "1.0", "--delta", "nan",
    ])
    assert code == 4
    assert strict_json(capsys.readouterr().out)["error"] == "NumericError"


@pytest.mark.parametrize(
    "command, flags, code",
    [
        pytest.param(["interval"], ["--alpha1", "nan"], 2, id="interval-alpha1-nan"),
        pytest.param(["interval"], ["--alpha2", "nan"], 2, id="interval-alpha2-nan"),
        pytest.param(["interval"], ["--delta", "iqr:abc"], 2, id="interval-delta-iqr_abc"),
        pytest.param(["interval"], ["--delta", "iqr:inf"], 2, id="interval-delta-iqr_inf"),
        pytest.param(["sim", "coverage"], ["--delta", "iqr:abc"], 2, id="sim-coverage-delta-iqr_abc"),
        pytest.param(["sim", "coverage"], ["--delta", "iqr:nan"], 2, id="sim-coverage-delta-iqr_nan"),
        pytest.param(["sim", "equiv"], ["--delta", "iqr:"], 2, id="sim-equiv-delta-iqr"),
        pytest.param(["sim", "equiv"], ["--stab-delta", "iqr:-inf"], 2, id="sim-equiv-stab-delta-iqr_-inf"),
        pytest.param(["gauge"], ["--delta", "-1"], 3, id="gauge-delta-minus1"),
        pytest.param(["sim", "coverage"], ["--delta", "nan"], 4, id="sim-coverage-delta-nan"),
        pytest.param(["sim", "equiv"], ["--delta", "nan"], 4, id="sim-equiv-delta-nan"),
    ],
)
def test_bad_level_or_tolerance_exits_with_json_error(capsys, workdir, command, flags, code):
    cdf = workdir / "f.json"
    cdf.write_text(uniform_ecdf([0.0, 1.0]).to_json())
    data, pred = str(workdir / "d.csv"), str(workdir / "ridge.json")
    valid = {
        "interval": ["--data", data, "--predictor", pred, "--alpha1", "0.1", "--alpha2", "0.9", "--xnew", "1.0"],
        "sim": ["--dgp", str(workdir / "dgp.json"), "--predictor", pred, "--n", "10",
                "--train-reps", "2", "--mc-test", "20"],
        "gauge": ["--f", str(cdf), "--g", str(cdf), "--delta", "0.1"],
    }
    # the bad flag comes last, so it overrides the valid one
    assert main([*command, *valid[command[0]], *flags]) == code
    payload = strict_json(capsys.readouterr().out)
    assert payload["error"] == {2: "usage", 3: "InvalidTolerance", 4: "NumericError"}[code]


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param('{"kind": "gaussian_linear", "beta": "ab"}', id="beta-string"),
        pytest.param('{"kind": "classification_grid", "p": -1, "class_count": 3}', id="grid-p-negative"),
        pytest.param('{"kind": "classification_grid", "class_count": "abc"}', id="grid-class-count-string"),
        pytest.param('{"kind": "dirac_first_coord", "p": 1}', id="dirac-without-point"),
        pytest.param('{"kind": "custom_table", "table_y": [1.0, 2.0], "table_x": [[1.0]]}', id="table-lengths-differ"),
        pytest.param('{"kind": "gaussian_linear", "beta": [1.0], "sigma": 1%s}' % ("0" * 400), id="sigma-overflows"),
        pytest.param('{"kind": "gaussian_linear", "beta": [1%s]}' % ("0" * 400), id="beta-overflows"),
        pytest.param('{"kind": "classification_grid", "p": 1%s, "class_count": 3}' % ("0" * 400), id="grid-p-overflows"),
    ],
)
def test_malformed_dgp_exits_3(capsys, tmp_path, spec):
    dgp = tmp_path / "bad_dgp.json"
    dgp.write_text(spec)
    code = main(["dgp", "--dgp", str(dgp), "--n", "10", "--data-out", str(tmp_path / "out.csv")])
    assert code == 3
    assert strict_json(capsys.readouterr().out)["error"] == "MalformedInput"
