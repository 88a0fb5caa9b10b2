import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvuq.cli import main
from cvuq.data import DgpSpec
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
        "stability", "pacbound", "--delta", "1.0", "--eps", "0.1",
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


@pytest.mark.parametrize(
    "config, command, flags, code",
    [
        pytest.param({"xnew": 1.0}, ["interval"], ["--xnew", "1.0"], 0, id="xnew-number"),
        pytest.param({"n_grid": 5}, ["sim", "problen"], ["--n-grid", "5"], 0, id="n_grid-number"),
        pytest.param({"data": 5}, ["risk"], ["--data", "5"], 3, id="data-number"),
        pytest.param({"n": 2.5}, ["stability", "vargap"], ["--n", "2.5"], 2, id="n-fraction"),
        pytest.param({"eps_grid": 0.1}, ["stability", "profile"], ["--eps-grid", "0.1"], 0, id="eps_grid-number"),
        pytest.param({"k": 2.5}, ["interval"], ["--k", "2.5"], 2, id="k-fraction"),
        pytest.param({"alpha1": [0.1]}, ["interval"], ["--alpha1", "[0.1]"], 2, id="alpha1-list"),
        pytest.param({"alpha2": 1}, ["interval"], ["--alpha2", "1"], 0, id="alpha2-int"),
        pytest.param({"symmetrized": "false"}, ["interval"], None, 2, id="symmetrized-string"),
    ],
)
def test_config_value_parses_like_the_flag(capsys, workdir, tmp_path, config, command, flags, code):
    data, pred = str(workdir / "d.csv"), str(workdir / "ridge.json")
    base = {
        "interval": ["--data", data, "--predictor", pred, "--alpha1", "0.1", "--alpha2", "0.9", "--xnew", "0.5"],
        "risk": ["--predictor", pred],
        "sim": ["--dgp", str(workdir / "dgp.json"), "--predictor", pred, "--train-reps", "2"],
        "stability": ["--dgp", str(workdir / "dgp.json"), "--predictor", pred, "--n", "10", "--reps", "3"],
    }
    # the config value is the only source of its flag
    valid = list(base[command[0]])
    for key in config:
        flag = "--" + key.replace("_", "-")
        if flag in valid:
            del valid[valid.index(flag):valid.index(flag) + 2]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), *command, *valid]) == code
    from_config = capsys.readouterr().out
    strict_json(from_config)
    if flags is not None:
        assert main([*command, *valid, *flags]) == code
        assert from_config == capsys.readouterr().out
    if "alpha2" in config:
        assert '"alpha2": 1.0,' in from_config


def test_config_key_applies_only_where_the_flag_exists(capsys, workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reps": 0, "method": "cv_plus"}))
    argv = ["sim", "coverage", "--dgp", str(workdir / "dgp.json"), "--predictor", str(workdir / "ridge.json"),
            "--n", "10", "--train-reps", "2", "--mc-test", "20"]
    assert main(["--config", str(cfg), *argv]) == 0  # sim has no --reps
    from_config = capsys.readouterr().out
    assert main([*argv, "--method", "cv_plus"]) == 0
    assert from_config == capsys.readouterr().out
    assert main(["--config", str(cfg), "stability", "vargap"]) == 2  # stability has --reps
    assert "--reps" in strict_json(capsys.readouterr().out)["message"]


def test_parser_is_built_once_per_config_and_keeps_no_other_default(capsys, workdir, tmp_path, monkeypatch):
    # config A, then no config, then config B, twice over in one process:
    # each call reads its own defaults only, and each config's parser is built once
    from cvuq import cli

    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda defaults: builds.append(defaults) or build(defaults))
    cli._parser_for.cache_clear()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"alpha1": 0.2, "mc_test": 30}))
    b.write_text(json.dumps({"alpha2": 0.7}))
    argv = ["sim", "coverage", "--dgp", str(workdir / "dgp.json"), "--predictor", str(workdir / "ridge.json"),
            "--n", "10", "--train-reps", "2"]
    runs = [(["--config", str(a)], 0.95 - 0.2, 30), ([], 0.95 - 0.05, 1000), (["--config", str(b)], 0.7 - 0.05, 1000)]
    try:
        for _ in range(2):
            for config, nominal, mc_test in runs:
                code, payload = run_cli(capsys, *config, *argv)
                assert (code, payload["nominal"], payload["mc_test_points"]) == (0, nominal, mc_test), config
        assert builds == [{"alpha1": 0.2, "mc_test": 30}, {}, {"alpha2": 0.7}]
    finally:
        cli._parser_for.cache_clear()


def test_cli_runs_print_the_same_at_one_and_two_blas_threads(workdir, tmp_path):
    # the float32 screen's sgemm may be split across BLAS threads; the
    # certified counts, and so stdout, must not move.  Nor may a 50,001-row
    # p = 50 dataset, whose x'beta a threaded BLAS would split if it were one
    # matrix product
    dgp = tmp_path / "p50.json"
    dgp.write_text(json.dumps({"kind": "gaussian_linear", "beta": [50 ** -0.5] * 50, "sigma": 1.0}))
    pred = tmp_path / "ridge.json"
    pred.write_text(json.dumps({"kind": "ridge", "lambda": 1e-8}))
    data = tmp_path / "sampled.csv"
    common = ["--dgp", str(dgp), "--predictor", str(pred), "--n", "60", "--train-reps", "2", "--mc-test", "6000"]
    runs = [["sim", "equiv", *common], ["sim", "coverage", "--method", "cv_plus", "--delta", "iqr:0.1", *common],
            ["dgp", "--dgp", str(dgp), "--n", "50001", "--data-out", str(data)]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = []
        for argv in runs:
            proc = subprocess.run([sys.executable, "-m", "cvuq.cli", *argv], capture_output=True, text=True,
                                  env=env, timeout=300)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            out.append(proc.stdout)
        out.append(data.read_text())
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [["--help"], ["sim", "--help"], ["stability", "profile", "-h"]])
def test_help_goes_to_stderr_and_returns_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: cvuq")


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


def test_csv_cells_are_plain_numbers(capsys, workdir, tmp_path):
    data = ["--dgp", str(workdir / "dgp.json"), "--predictor", str(workdir / "ridge.json")]
    runs = {
        **{f"stability {mode}": ["stability", mode, *data, "--n", "10", "--reps", "3", "--outer", "2",
                                 "--inner", "2", "--delta", "0.1", "--stab", "0.1,0.2", "--exceed", "0.05,0.05"]
           for mode in ("profile", "mstab", "pacbound", "eqbound", "vargap", "drift")},
        **{f"sim {mode}": ["sim", mode, *data, "--n", "10", "--n-grid", "5,8", "--train-reps", "2",
                           "--mc-test", "20", "--mc-oracle", "20"]
           for mode in ("coverage", "equiv", "length", "gauge", "problen")},
    }
    written = set()
    for name, argv in runs.items():
        csv_path = tmp_path / f"{name.replace(' ', '_')}.csv"
        assert main([*argv, "--csv", str(csv_path)]) == 0, name
        capsys.readouterr()
        if not csv_path.exists():
            continue
        written.add(name)
        header, *rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        assert rows, name
        for row in rows:
            for column, cell in zip(header, row, strict=True):
                if column != "kind":
                    float(cell)  # raises on a cell such as np.float64(0.5)
    assert written == set(runs) - {"stability pacbound", "stability eqbound"}


def test_entry_point_subprocess(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "cvuq.cli", "gauge", "--f", "missing.json", "--g", "x", "--delta", "0.1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "io"


@pytest.mark.parametrize("exceed", ["0.05,0.05", "0.1,nan"], ids=["result", "error"])
def test_closed_stdout_exits_1_without_a_traceback(exceed):
    # the reader of stdout is gone before the JSON, a result or an error, is
    # written: the run ends with exit 1 and nothing on stderr
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cvuq.cli", "stability", "eqbound", "--eps", "0.5", "--delta", "0.1",
             "--exceed", exceed],
            stdout=write, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


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
        '{"kind": "knn_mean", "neighbors": 2.5}',
        '{"kind": "dirac_threshold", "level": 1.0, "threshold_uses_train_size": "no"}',
        pytest.param('{"kind": "ridge", "lambda": 1%s}' % ("0" * 400), id="ridge-lambda-10^400"),
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


@pytest.mark.parametrize("kind", ["ridge", "dirac_threshold", "constant", "max_response", "knn_mean"])
def test_zero_feature_data_exits_3_for_kinds_that_read_features(capsys, tmp_path, kind):
    # a dataset of responses alone (header "y", as save_dataset writes p = 0)
    # or a custom_table DGP with empty feature rows
    data, pred, dgp = tmp_path / "y.csv", tmp_path / "pred.json", tmp_path / "dgp.json"
    data.write_text("y\n0.2\n1.1\n-0.5\n2.0\n0.9\n")
    pred.write_text(json.dumps({"kind": kind, "lambda": 1.0, "level": 1.0, "value": 0.5, "neighbors": 2}))
    dgp.write_text('{"kind": "custom_table", "table_y": [1.0, 2.0, 3.0], "table_x": [[], [], []]}')
    runs = [
        ("interval", "--data", str(data), "--predictor", str(pred), "--alpha1", "0.1", "--alpha2", "0.9",
         "--xnew", ""),
        ("risk", "--data", str(data), "--predictor", str(pred)),
        ("sim", "coverage", "--dgp", str(dgp), "--predictor", str(pred), "--n", "3", "--train-reps", "2",
         "--mc-test", "5"),
    ]
    for argv in runs:
        code = main(list(argv))
        payload = strict_json(capsys.readouterr().out)
        if kind in ("ridge", "dirac_threshold"):
            assert (code, payload["error"]) == (3, "DimensionMismatch"), argv
        else:
            assert code == 0 and "error" not in payload, argv


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


@pytest.mark.parametrize("mode", ["profile", "vargap", "gauge", "problen"])
def test_single_rep_std_err_is_inf_string(capsys, workdir, mode):
    data = ["--dgp", str(workdir / "dgp.json"), "--predictor", str(workdir / "ridge.json")]
    if mode in ("gauge", "problen"):
        code = main(["sim", mode, *data, "--n-grid", "5,8", "--train-reps", "1", "--mc-oracle", "20"])
    else:
        code = main(["stability", mode, *data, "--n", "10", "--reps", "1"])
    assert code == 0
    payload = strict_json(capsys.readouterr().out)
    std_err = payload["exceed_std_err"] if mode == "profile" else payload["std_err"]
    std_err = std_err if isinstance(std_err, list) else [std_err]
    assert std_err and all(v == "inf" for v in std_err)


def test_nan_result_exits_4(capsys, workdir):
    code = main([
        "interval", "--data", str(workdir / "d.csv"), "--predictor", str(workdir / "ridge.json"),
        "--alpha1", "0.1", "--alpha2", "0.9", "--xnew", "1.0", "--delta", "nan",
    ])
    assert code == 4
    assert strict_json(capsys.readouterr().out)["error"] == "NumericError"


def test_wrong_xnew_length_exits_3_before_a_nan_delta(capsys, workdir):
    code = main([
        "interval", "--data", str(workdir / "d.csv"), "--predictor", str(workdir / "ridge.json"),
        "--alpha1", "0.1", "--alpha2", "0.9", "--xnew", "1.0,2.0", "--delta", "nan",
    ])
    assert code == 3
    assert strict_json(capsys.readouterr().out)["error"] == "DimensionMismatch"


@pytest.mark.parametrize("xnew", ["nan", "inf", "-inf"])
def test_non_finite_xnew_exits_3(capsys, workdir, xnew):
    # a NaN would reach the fit as a numeric failure, an infinity an empty interval at infinity
    code = main([
        "interval", "--data", str(workdir / "d.csv"), "--predictor", str(workdir / "ridge.json"),
        "--alpha1", "0.1", "--alpha2", "0.9", f"--xnew={xnew}",
    ])
    assert code == 3
    assert strict_json(capsys.readouterr().out)["error"] == "MalformedInput"


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
        pytest.param(["interval"], ["--alpha1", "0", "--delta=-inf"], 3, id="interval-delta-minus-inf"),
        pytest.param(["interval"], ["--delta", "inf"], 3, id="interval-delta-inf"),
        pytest.param(["sim", "coverage"], ["--method", "cv_plus", "--delta=-inf"], 3, id="sim-coverage-delta-minus-inf"),
        pytest.param(["sim", "coverage"], ["--delta", "nan"], 4, id="sim-coverage-delta-nan"),
        pytest.param(["interval"], ["--symmetrized", "--alpha1", "inf", "--alpha2", "inf"], 3,
                     id="interval-symmetrized-alphas-inf"),
        pytest.param(["interval"], ["--symmetrized", "--alpha1=-inf", "--alpha2=-inf"], 3,
                     id="interval-symmetrized-alphas-minus-inf"),
        pytest.param(["sim", "coverage"], ["--symmetrized", "--alpha1", "inf", "--alpha2", "inf"], 3,
                     id="sim-coverage-symmetrized-alphas-inf"),
        pytest.param(["sim", "coverage"], ["--alpha1", "inf", "--alpha2", "inf"], 3, id="sim-coverage-alphas-inf"),
        pytest.param(["sim", "coverage"], ["--method", "cv_plus", "--alpha1=-inf", "--alpha2=-inf"], 3,
                     id="sim-coverage-cv_plus-alphas-minus-inf"),
        pytest.param(["sim", "equiv"], ["--delta", "nan"], 4, id="sim-equiv-delta-nan"),
        pytest.param(["sim", "equiv"], ["--eps", "nan"], 2, id="sim-equiv-eps-nan"),
        pytest.param(["sim", "problen"], ["--nominal", "nan"], 2, id="sim-problen-nominal-nan"),
        pytest.param(["sim", "problen"], ["--nominal", "1.5"], 3, id="sim-problen-nominal-above-1"),
        pytest.param(["sim", "problen"], ["--nominal", "0"], 3, id="sim-problen-nominal-0"),
        pytest.param(["risk"], ["--indicator-at", "nan"], 2, id="risk-indicator-at-nan"),
        pytest.param(["stability", "profile"], ["--predictor", "ridge.json", "--dgp", "dgp.json", "--n", "10",
                                                "--reps", "2", "--eps-grid", "0.1,nan"], 3,
                     id="stability-profile-eps-grid-nan"),
        pytest.param(["sim", "problen"], ["--n-grid", ""], 2, id="sim-problen-empty-n-grid"),
        pytest.param(["sim", "gauge"], ["--n-grid", "5,nan"], 2, id="sim-gauge-n-grid-nan"),
        pytest.param(["sim", "coverage"], ["--seed", "-1"], 2, id="sim-coverage-seed-negative"),
        pytest.param(["stability", "pacbound"], ["--stab", ""], 3, id="stability-pacbound-no-folds"),
        pytest.param(["stability", "eqbound"], ["--exceed", ""], 3, id="stability-eqbound-no-folds"),
        pytest.param(["stability", "eqbound"], ["--delta", "nan"], 3, id="stability-eqbound-delta-nan"),
        pytest.param(["stability", "eqbound"], ["--exceed", "0.1,nan"], 3, id="stability-eqbound-exceed-nan"),
        pytest.param(["stability", "pacbound"], ["--delta", "nan"], 3, id="stability-pacbound-delta-nan"),
        pytest.param(["stability", "pacbound"], ["--bound-l", "nan"], 3, id="stability-pacbound-bound-l-nan"),
        pytest.param(["stability", "pacbound"], ["--tail", "nan"], 3, id="stability-pacbound-tail-nan"),
        pytest.param(["stability", "pacbound"], ["--abs-err", "nan"], 3, id="stability-pacbound-abs-err-nan"),
        pytest.param(["stability", "pacbound"], ["--stab", "0.1,nan"], 3, id="stability-pacbound-stab-nan"),
        pytest.param(["stability", "pacbound"], ["--stab-trunc", "0.1,nan"], 3, id="stability-pacbound-stab-trunc-nan"),
        pytest.param(["sim", "equiv"], ["--stab-delta", "nan"], 3, id="sim-equiv-stab-delta-nan"),
        pytest.param(["gauge"], ["--g", "nan_last.json"], (3, "WeightSumError"), id="gauge-cum-nan-last"),
        pytest.param(["gauge"], ["--g", "nan_first.json"], (3, "WeightSumError"), id="gauge-cum-nan-first"),
    ],
)
def test_bad_level_or_tolerance_exits_with_json_error(capsys, workdir, command, flags, code):
    names = {2: "usage", 3: "InvalidTolerance", 4: "NumericError"}
    code, error = code if isinstance(code, tuple) else (code, names[code])
    cdf = workdir / "f.json"
    cdf.write_text(uniform_ecdf([0.0, 1.0]).to_json())
    (workdir / "nan_last.json").write_text('{"jumps": [0.0, 1.0], "cum": [0.5, NaN]}')
    (workdir / "nan_first.json").write_text('{"jumps": [0.0, 1.0], "cum": [NaN, 1.0]}')
    flags = [str(workdir / f) if f.endswith(".json") else f for f in flags]
    data, pred = str(workdir / "d.csv"), str(workdir / "ridge.json")
    valid = {
        "interval": ["--data", data, "--predictor", pred, "--alpha1", "0.1", "--alpha2", "0.9", "--xnew", "1.0"],
        "sim": ["--dgp", str(workdir / "dgp.json"), "--predictor", pred, "--n", "10",
                "--train-reps", "2", "--mc-test", "20"],
        "gauge": ["--f", str(cdf), "--g", str(cdf), "--delta", "0.1"],
        "stability": ["--eps", "0.5", "--delta", "0.1", "--stab", "0.1,0.2", "--exceed", "0.05,0.05"],
        "risk": ["--data", data, "--predictor", pred],
    }
    # the bad flag comes last, so it overrides the valid one
    assert main([*command, *valid[command[0]], *flags]) == code
    payload = strict_json(capsys.readouterr().out)
    assert payload["error"] == error


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


# Argv fragments for the fuzz test: non-finite, negative, zero, tiny and
# non-numeric values.  Sizes stay tiny (n <= 12, reps <= 3, threads <= 2), so
# no example starts more than two threads or runs for long.
NUMBERS = st.sampled_from(["nan", "inf", "-inf", "-1", "-0.5", "0", "1e-13", "0.5", "1", "2", "abc"])
DELTAS = st.sampled_from(["0", "0.1", "-0.1", "nan", "inf", "-inf", "iqr:0.1", "iqr:-inf", "iqr:x", "x"])
COUNTS = st.sampled_from(["-2", "0", "1", "2", "3", "nan", "x", "1.5"])
SIZES = st.sampled_from(["-1", "0", "1", "2", "5", "12", "nan", "x"])
RULES = st.sampled_from(["jackknife", "n", "-1", "0", "1", "2", "3", "12", "x"])
LISTS = st.sampled_from(["0.1,0.2", "nan,0.1", "inf", "-1,2", "x", "", "0,0,0"])
GRIDS = st.sampled_from(["5,8", "0,5", "-3,5", "1", "12", "nan", "x", "", "2.5"])
METHODS = st.sampled_from(["cv", "cv_plus", "fitted_values", "bogus"])
COMMON = {"--seed": st.sampled_from(["0", "-1", "3", "x"]), "--threads": st.sampled_from(["-2", "0", "1", "2", "x"])}
SIM = {"--n": SIZES, "--n-grid": GRIDS, "--k": RULES, "--method": METHODS, "--alpha1": NUMBERS,
       "--alpha2": NUMBERS, "--delta": DELTAS, "--nominal": NUMBERS, "--train-reps": COUNTS,
       "--mc-test": COUNTS, "--mc-oracle": COUNTS, "--eps": NUMBERS, "--stab-delta": DELTAS,
       "--predictors": st.sampled_from(["max_response", "neg_max_response,constant", "bogus"])}
STABILITY = {"--n": SIZES, "--k": RULES, "--eps-grid": LISTS, "--reps": COUNTS, "--m": COUNTS,
             "--outer": COUNTS, "--inner": COUNTS, "--delta": DELTAS, "--eps": NUMBERS,
             "--bound-l": NUMBERS, "--tail": NUMBERS, "--abs-err": NUMBERS, "--stab": LISTS,
             "--stab-trunc": LISTS, "--exceed": LISTS}
# name: (subcommand argv, valid flags given before the fuzzed ones, fuzzable
# flags, fuzzable switches)
FUZZ_COMMANDS = {
    "interval": (["interval"], ["--data", "{data}", "--predictor", "{pred}", "--alpha1", "0.1",
                                "--alpha2", "0.9", "--xnew", "1.0"],
                 {"--alpha1": NUMBERS, "--alpha2": NUMBERS, "--delta": DELTAS, "--k": RULES,
                  "--xnew": LISTS, "--method": METHODS}, ["--symmetrized", "--shortest"]),
    "gauge": (["gauge"], ["--f", "{cdf}", "--g", "{cdf}", "--delta", "0.1"], {"--delta": NUMBERS}, []),
    "risk": (["risk"], ["--data", "{data}", "--predictor", "{pred}", "--loss", "absolute"],
             {"--k": RULES, "--eps": NUMBERS, "--indicator-at": NUMBERS}, []),
    "dgp": (["dgp"], ["--dgp", "{dgp}", "--n", "5", "--data-out", "{out}"], {"--n": SIZES}, []),
    **{f"stability {mode}": (["stability", mode], ["--dgp", "{dgp}", "--predictor", "{pred}", "--n", "8",
                                                  "--reps", "3", "--outer", "2", "--inner", "2",
                                                  "--stab", "0.1,0.2", "--exceed", "0.05,0.05"], STABILITY, [])
       for mode in ("profile", "mstab", "pacbound", "eqbound", "vargap", "drift")},
    **{f"sim {mode}": (["sim", mode], ["--dgp", "{dgp}", "--predictor", "{pred}", "--n", "8",
                                      "--n-grid", "5,8", "--train-reps", "2", "--mc-test", "20",
                                      "--mc-oracle", "20"], SIM, ["--symmetrized"])
       for mode in ("coverage", "equiv", "length", "gauge", "problen")},
}


# Wrong-typed JSON config values (numbers, strings, lists, objects, booleans,
# null) for flags and switches; numbers stay at most 2.5, so no count or size
# they set exceeds the limits above.
CONFIG_KEYS = st.sampled_from(["xnew", "n_grid", "eps_grid", "k", "n", "data", "symmetrized", "seed", "threads",
                               "alpha2", "delta", "method", "train_reps", "scale", "no_such_key"])
CONFIG_VALUES = st.sampled_from([-1, 0, 1, 2, 2.5, "x", "", "1.0", "false", [0.1], [], {}, True, False, None])


@st.composite
def fuzz_argv(draw):
    command, valid, flags, switches = FUZZ_COMMANDS[draw(st.sampled_from(sorted(FUZZ_COMMANDS)))]
    options = {**COMMON, **flags}
    chosen = draw(st.lists(st.sampled_from(sorted(options)), max_size=3, unique=True))
    fuzzed = [token for flag in chosen for token in (flag, draw(options[flag]))]
    for switch in switches:
        fuzzed += [switch] if draw(st.booleans()) else []
    config = draw(st.none() | st.dictionaries(CONFIG_KEYS, CONFIG_VALUES, min_size=1, max_size=3))
    if config is None:
        return [*command, *valid, *fuzzed]
    # a configured flag leaves the valid flags, so the config value is the one parsed
    pairs = zip(valid[::2], valid[1::2])
    valid = [token for flag, value in pairs if flag[2:].replace("-", "_") not in config for token in (flag, value)]
    return ["--config", json.dumps(config), *command, *valid, *fuzzed]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "d.csv").write_text("y,x1\n" + "".join(f"{0.3 * i - 1},{0.1 * i}\n" for i in range(10)))
    (root / "ridge.json").write_text('{"kind": "ridge", "lambda": 1.0}')
    (root / "dgp.json").write_text('{"kind": "gaussian_linear", "beta": [1.0], "sigma": 1.0}')
    (root / "f.json").write_text(uniform_ecdf([0.0, 1.0, 2.0]).to_json())
    paths = {"data": "d.csv", "pred": "ridge.json", "dgp": "dgp.json", "cdf": "f.json", "out": "out.csv",
             "config": "config.json"}
    return {key: str(root / name) for key, name in paths.items()}


@settings(max_examples=300, deadline=None, derandomize=True)
@example(argv=["sim", "equiv", "--dgp", "{dgp}", "--predictor", "{pred}", "--n", "10",
               "--train-reps", "2", "--mc-test", "20", "--eps", "nan"])
@example(argv=["sim", "problen", "--dgp", "{dgp}", "--predictor", "{pred}", "--n-grid", "10",
               "--train-reps", "2", "--nominal", "nan"])
@example(argv=["sim", "gauge", "--dgp", "{dgp}", "--predictor", "{pred}", "--n-grid", "5,8",
               "--train-reps", "1", "--mc-oracle", "20"])
@example(argv=["interval", "--data", "{data}", "--predictor", "{pred}", "--alpha1", "0", "--alpha2", "0.9",
               "--xnew", "1.0", "--delta=-inf"])
@example(argv=["sim", "problen", "--dgp", "{dgp}", "--predictor", "{pred}", "--n-grid=-1", "--train-reps", "2"])
@example(argv=["--config", '{"xnew": 1.0, "symmetrized": "false"}', "interval", "--data", "{data}",
               "--predictor", "{pred}", "--alpha1", "0.1", "--alpha2", "0.9"])
@given(argv=fuzz_argv())
def test_fuzzed_argv_exits_with_strict_json(fuzz_files, argv):
    if argv[0] == "--config":
        Path(fuzz_files["config"]).write_text(argv[1])
        argv = ["--config", fuzz_files["config"], *argv[2:]]
    argv = [token.format(**fuzz_files) for token in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 2, 3, 4), argv
    strict_json(out.getvalue())


def test_equiv_rejects_zero_eps_before_drawing(capsys, workdir, monkeypatch):
    calls = []
    sample = DgpSpec.sample
    monkeypatch.setattr(DgpSpec, "sample", lambda self, n, rng: calls.append(n) or sample(self, n, rng))
    code = main(["sim", "equiv", "--dgp", str(workdir / "dgp.json"), "--predictor", str(workdir / "ridge.json"),
                 "--n", "20", "--train-reps", "3", "--mc-test", "500", "--eps", "0"])
    out = capsys.readouterr().out
    assert code == 3 and calls == []
    assert out.count("\n") == 1
    assert json.loads(out) == {"schema": "1", "error": "InvalidTolerance", "message": "eps must be positive"}


def test_overflowing_features_exit_4(capsys, workdir):
    # X'X of features near 1e200 overflows: a numeric failure, not beta = 0
    rng = np.random.default_rng(0)
    table = np.column_stack([rng.normal(size=20), rng.normal(size=(20, 2)) * 1e200])
    rows = [",".join(repr(float(v)) for v in row) for row in table]
    (workdir / "huge.csv").write_text("y,x1,x2\n" + "\n".join(rows) + "\n")
    code = main(["interval", "--data", str(workdir / "huge.csv"), "--predictor", str(workdir / "ridge.json"),
                 "--alpha1", "0.1", "--alpha2", "0.9", "--xnew", "1e200,1e200"])
    out = capsys.readouterr().out
    assert code == 4 and out.count("\n") == 1
    assert json.loads(out)["error"] == "DegenerateFit"


# A file of each kind, the command that reads it, and the valid file the
# fuzzed one stands in for.  Each command is tiny: n <= 10, no replications.
FILE_COMMANDS = {
    "dgp": ["dgp", "--dgp", "{file}", "--n", "5", "--data-out", "{out}"],
    "predictor": ["risk", "--data", "{data}", "--predictor", "{file}"],
    "cdf": ["gauge", "--f", "{file}", "--g", "{cdf}", "--delta", "0.1"],
    "dataset": ["risk", "--data", "{file}", "--format", "json", "--predictor", "{pred}"],
}


@pytest.mark.parametrize(
    "kind, text",
    [
        pytest.param("dgp", '{"kind": "student_linear", "beta": [1.0], "dof": 1e999}', id="dgp-dof-inf"),
        pytest.param("dgp", '{"kind": "gaussian_linear", "beta": [1.0], "sigma": 1e999}', id="dgp-sigma-inf"),
        pytest.param("dgp", '{"kind": "dirac_first_coord", "p": 1, "point": -1e999}', id="dgp-point-minus-inf"),
        pytest.param("dgp", '{"kind": "gaussian_linear", "beta": ["1.0"]}', id="dgp-beta-string"),
        pytest.param("dgp", '{"kind": "gaussian_linear", "beta": [true]}', id="dgp-beta-bool"),
        pytest.param("dgp", '{"kind": "custom_table", "table_y": [1, 2], "table_x": [[0], [1, 2]]}',
                     id="dgp-table-ragged"),
        pytest.param("dataset", '[{"y": "1.5", "x": ["2"]}, {"y": 1.0, "x": [1.0]}]', id="dataset-strings"),
        pytest.param("dataset", '[{"y": 1.5, "x": [true]}, {"y": 1.0, "x": [1.0]}]', id="dataset-bool"),
        pytest.param("dataset", '[{"y": true, "x": [2.0]}, {"y": 1.0, "x": [1.0]}]', id="dataset-y-bool"),
        pytest.param("cdf", '{"jumps": [true, "2"], "cum": ["0.5", 1]}', id="cdf-bool-and-strings"),
        pytest.param("cdf", '{"jumps": [[0.0, 1.0]], "cum": [[0.5, 1.0]]}', id="cdf-two-axes"),
        pytest.param("dgp", '"ab"', id="dgp-string"),
        pytest.param("dgp", '[["kind", "gaussian_linear"], ["beta", [1.0]]]', id="dgp-list-of-pairs"),
        pytest.param("dgp", '{"beta": [1.0]}', id="dgp-without-kind"),
        pytest.param("dgp", '{"kind": "classification_grid", "p": 1, "class_count": 1%s}' % ("0" * 5000),
                     id="dgp-integer-of-5000-digits"),
        pytest.param("predictor", '{"kind": "ridge", "lambda": 1%s}' % ("0" * 5000),
                     id="predictor-integer-of-5000-digits"),
        pytest.param("dataset", '[{"y": 1%s, "x": [1.0]}, {"y": 1.0, "x": [2.0]}]' % ("0" * 5000),
                     id="dataset-integer-of-5000-digits"),
        pytest.param("predictor", '"ab"', id="predictor-string"),
        pytest.param("cdf", "[0.5, 1.0]", id="cdf-array"),
    ],
)
def test_json_inputs_outside_the_formats_exit_3(capsys, workdir, kind, text):
    cdf = workdir / "f.json"
    cdf.write_text(uniform_ecdf([0.0, 1.0]).to_json())
    (workdir / "input.json").write_text(text)
    paths = {"file": workdir / "input.json", "out": workdir / "out.csv", "data": workdir / "d.csv", "cdf": cdf,
             "pred": workdir / "ridge.json"}
    code = main([token.format(**paths) for token in FILE_COMMANDS[kind]])
    out = capsys.readouterr().out
    assert code == 3 and out.count("\n") == 1
    assert strict_json(out)["error"] == "MalformedInput"


@pytest.mark.parametrize(
    "argv, code",
    [
        *(pytest.param(argv, 3, id=kind) for kind, argv in FILE_COMMANDS.items()),
        pytest.param(["risk", "--data", "{file}", "--predictor", "{pred}"], 3, id="csv-dataset"),
        pytest.param(["--config", "{file}", "gauge", "--f", "{cdf}", "--g", "{cdf}", "--delta", "0.1"], 2,
                     id="config"),
    ],
)
def test_input_files_that_are_not_utf8_exit_with_json_error(capsys, workdir, argv, code):
    # a 0xff byte, which no UTF-8 text holds; a config file stays a usage error
    cdf = workdir / "f.json"
    cdf.write_text(uniform_ecdf([0.0, 1.0]).to_json())
    (workdir / "input").write_bytes(b'{"kind": "\xff"}\n')
    paths = {"file": workdir / "input", "out": workdir / "out.csv", "data": workdir / "d.csv", "cdf": cdf,
             "pred": workdir / "ridge.json"}
    assert main([token.format(**paths) for token in argv]) == code
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert strict_json(out)["error"] == ("MalformedInput" if code == 3 else "usage")


def test_an_allocation_numpy_refuses_exits_4(capsys, tmp_path):
    # NumPy refuses the 14.2 PiB block of normals at once, so nothing is allocated
    dgp = tmp_path / "bigp.json"
    dgp.write_text('{"kind": "classification_grid", "p": 1e15, "class_count": 2}')
    code = main(["dgp", "--dgp", str(dgp), "--n", "2", "--data-out", str(tmp_path / "o.csv")])
    out = capsys.readouterr().out
    assert code == 4 and out.count("\n") == 1
    assert strict_json(out)["error"] == "MemoryError"


def test_sim_length_rejects_a_repeated_predictor_kind(capsys, workdir):
    code, payload = run_cli(capsys, "sim", "length", "--dgp", str(workdir / "dgp.json"), "--n", "6",
                            "--train-reps", "2", "--predictors", "max_response,max_response")
    assert code == 3 and payload["error"] == "MalformedInput"


# JSON values for one slot of an input file, as file text: numbers, non-finite
# and overflowing ones, numeric strings, bools, null, nested arrays, objects,
# arrays of pairs and a bare string.
FILE_VALUES = st.sampled_from([
    "0", "1", "2", "-1", "0.5", "3.0", "1e999", "-1e999", "NaN", "1" + "0" * 400, '"1.5"', '"2"', "true",
    "false", "null", "[]", "[1.0]", "[1.0, 2.0]", "[[1.0]]", "[[1.0], [2.0, 3.0]]", "[true]", '["1.0"]',
    "{}", '{"a": 1}', '[["kind", "ridge"]]', '"ab"',
])
# File texts with one slot, @, for a value
FILE_TEMPLATES = {
    "dgp": [
        '{"kind": "gaussian_linear", "beta": @, "sigma": 1.0}',
        '{"kind": "gaussian_linear", "beta": [1.0, @], "sigma": 1.0}',
        '{"kind": "gaussian_linear", "beta": [1.0], "sigma": @}',
        '{"kind": "student_linear", "beta": [1.0], "dof": @}',
        '{"kind": "classification_grid", "p": @, "class_count": 3}',
        '{"kind": "classification_grid", "p": 1, "class_count": @}',
        '{"kind": "dirac_first_coord", "p": 2, "point": @}',
        '{"kind": "custom_table", "table_y": @, "table_x": [[0.0], [1.0]]}',
        '{"kind": "custom_table", "table_y": [1.0, 2.0], "table_x": @}',
        '{"kind": "custom_table", "table_y": [1.0, 2.0], "table_x": [[0.0], @]}',
        '{"kind": @, "beta": [1.0]}',
        "@",
    ],
    "predictor": [
        '{"kind": "ridge", "lambda": @}',
        '{"kind": "knn_mean", "neighbors": @}',
        '{"kind": "constant", "value": @}',
        '{"kind": "dirac_threshold", "level": @}',
        '{"kind": "dirac_threshold", "level": 1.0, "threshold_uses_train_size": @, "threshold": 0.5}',
        '{"kind": "dirac_threshold", "level": 1.0, "threshold_uses_train_size": false, "threshold": @}',
        '{"kind": @}',
        "@",
    ],
    "cdf": [
        '{"jumps": @, "cum": [0.5, 1.0]}',
        '{"jumps": [0.0, 1.0], "cum": @}',
        '{"jumps": [0.0, @], "cum": [0.5, 1.0]}',
        '{"jumps": [0.0, 1.0], "cum": [@, 1.0]}',
        "@",
    ],
    "dataset": [
        '[{"y": @, "x": [0.1]}, {"y": 1.0, "x": [0.5]}, {"y": 2.0, "x": [0.9]}]',
        '[{"y": 0.5, "x": @}, {"y": 1.0, "x": [0.5]}, {"y": 2.0, "x": [0.9]}]',
        '[{"y": 0.5, "x": [@]}, {"y": 1.0, "x": [0.5]}, {"y": 2.0, "x": [0.9]}]',
        '[@, {"y": 1.0, "x": [0.5]}, {"y": 2.0, "x": [0.9]}]',
        "@",
    ],
}


@st.composite
def fuzz_file(draw):
    kind = draw(st.sampled_from(sorted(FILE_TEMPLATES)))
    return kind, draw(st.sampled_from(FILE_TEMPLATES[kind])).replace("@", draw(FILE_VALUES))


@settings(max_examples=200, deadline=None, derandomize=True)
@example(file=("dgp", '{"kind": "student_linear", "beta": [1.0], "dof": 1e999}'))
@example(file=("dgp", '{"kind": "gaussian_linear", "beta": [1.0], "sigma": 1e999}'))
@example(file=("dgp", '{"kind": "gaussian_linear", "beta": ["1.0"]}'))
@example(file=("dgp", '{"kind": "gaussian_linear", "beta": [true]}'))
@example(file=("dataset", '[{"y": "1.5", "x": ["2"]}, {"y": 1.0, "x": [1.0]}]'))
@example(file=("dataset", '[{"y": 1.5, "x": [true]}, {"y": 1.0, "x": [1.0]}]'))
@example(file=("predictor", '{"kind": "ridge", "lambda": 1%s}' % ("0" * 400)))
@example(file=("predictor", '{"kind": "knn_mean", "neighbors": 2.5}'))
@example(file=("cdf", '{"jumps": [true, "2"], "cum": ["0.5", 1]}'))
@example(file=("dgp", '"ab"'))
@example(file=("dgp", '[["kind", "gaussian_linear"], ["beta", [1.0]]]'))
@given(file=fuzz_file())
def test_fuzzed_input_files_exit_with_strict_json(fuzz_files, file):
    kind, text = file
    path = Path(fuzz_files["config"]).with_name(f"fuzzed_{kind}.json")
    path.write_text(text)
    argv = [token.format(**fuzz_files, file=path) for token in FILE_COMMANDS[kind]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 3, 4), (argv, text)
    strict_json(out.getvalue())
