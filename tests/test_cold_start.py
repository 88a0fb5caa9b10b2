"""Cold start: ``scipy`` is loaded on the first draw that needs it, not by
``import cvuq``, and ``concurrent.futures`` is not loaded at all.  Each check
runs in a fresh interpreter, so the state of ``sys.modules`` reflects only
what the script itself did."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import contextlib, io, json, sys
from pathlib import Path

from cvuq.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()

workdir = Path(sys.argv[1])
"""


def run_fresh(script: str, workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(script), str(workdir)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_specs(workdir: Path) -> None:
    specs = {
        "ridge.json": {"kind": "ridge", "lambda": 0.5},
        "max.json": {"kind": "max_response"},
        "gauss.json": {"kind": "gaussian_linear", "beta": [1.0, -0.5], "sigma": 1.0},
        "student.json": {"kind": "student_linear", "beta": [0.5], "sigma": 1.0, "dof": 2.5},
        "grid.json": {"kind": "classification_grid", "p": 2, "class_count": 3},
    }
    for name, spec in specs.items():
        (workdir / name).write_text(json.dumps(spec))


def test_scipy_is_loaded_only_by_draws_that_need_it(tmp_path):
    write_specs(tmp_path)
    result = run_fresh("""
        import cvuq, cvuq.cli
        after_import = scipy_modules() + sorted(m for m in sys.modules if m.startswith("concurrent"))
        code, out = cli(["sim", "coverage", "--dgp", str(workdir / "gauss.json"),
                         "--predictor", str(workdir / "ridge.json"), "--n", "20",
                         "--train-reps", "3", "--mc-test", "200", "--seed", "1",
                         "--threads", "2"])
        from cvuq.data import DgpSpec
        from cvuq.rng import stream
        DgpSpec("dirac_first_coord", {"p": 2, "point": 1.0}).draw(5, stream(0))
        after_gaussian = scipy_modules()
        DgpSpec("student_linear", {"beta": [1.0], "dof": 3.0}).draw(5, stream(0))
        print(json.dumps({"code": code, "after_import": after_import,
                          "after_gaussian": after_gaussian,
                          "after_student": "scipy.special" in sys.modules}))
    """, tmp_path)
    assert result["code"] == 0
    assert result["after_import"] == []
    assert result["after_gaussian"] == []
    assert result["after_student"]


def test_first_scipy_use_in_worker_threads_keeps_stdout(tmp_path):
    write_specs(tmp_path)
    commands = {
        "vargap": ["stability", "vargap", "--dgp", "student.json", "--predictor", "max.json",
                   "--n", "30", "--reps", "40", "--seed", "3"],
        "coverage": ["sim", "coverage", "--dgp", "grid.json", "--predictor", "ridge.json",
                     "--n", "20", "--train-reps", "6", "--mc-test", "300", "--seed", "3"],
    }
    for label, argv in commands.items():
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        # 2 threads first: the calling thread and a worker start their first
        # replications together, so scipy.special is first imported by both at once
        result = run_fresh(f"""
            argv = {argv!r}
            cold = "scipy.special" not in sys.modules
            two = cli(argv + ["--threads", "2"])
            one = cli(argv + ["--threads", "1"])
            print(json.dumps({{"cold": cold, "two": two, "one": one}}))
        """, tmp_path)
        assert result["cold"], label
        assert result["two"][0] == result["one"][0] == 0, label
        assert result["two"][1] == result["one"][1] != "", label
