"""Workload definitions: the spec files and the fixed list of ``cvuq``
invocations each workload runs.

A *rep* is one sampled training set with its fold fits.  Rep counts are
taken from the invocation arguments, never from the program's output, so a
change to the program cannot change what a rep is.

Only the standard library is imported here, so run.py can import this module
before it pins the BLAS thread count and imports ``cvuq``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# The seed whose outputs are stored in reference.json.
REFERENCE_SEED = 0

SPEC_FILES = {
    "ridge_1e-8.json": {"kind": "ridge", "lambda": 1e-8},
    "ridge_1.json": {"kind": "ridge", "lambda": 1.0},
    "constant_0.json": {"kind": "constant", "value": 0.0},
    "max_response.json": {"kind": "max_response"},
    "gauss_p2.json": {"kind": "gaussian_linear", "beta": [1 / math.sqrt(2)] * 2, "sigma": 1.0},
    "gauss_p50.json": {"kind": "gaussian_linear", "beta": [1 / math.sqrt(50)] * 50, "sigma": 1.0},
    "gauss_null.json": {"kind": "gaussian_linear", "beta": [0.0], "sigma": 1.0},
    "gauss_p3.json": {"kind": "gaussian_linear", "beta": [1.0, 0.0, -0.5], "sigma": 1.0},
    "student_t.json": {"kind": "student_linear", "beta": [0.0], "sigma": 1.0, "dof": 2.5},
}


@dataclass(frozen=True)
class Invocation:
    """One ``cvuq.cli.main`` call, minus ``--seed`` and ``--threads``.

    ``atoms_per_rep`` is the computed size of the per-rep cv+ atom matrix
    (test points times training rows), zero where no cv+ coverage is taken.
    """

    label: str
    argv: tuple
    reps: int
    atoms_per_rep: int = 0

    @property
    def mode(self) -> str:
        return self.argv[1]

    def resolve(self, workdir: Path, seed: int, threads: int) -> list[str]:
        args = [str(workdir / a) if a in SPEC_FILES else str(a) for a in self.argv]
        return args + ["--seed", str(seed), "--threads", str(threads)]


def _coverage(p: int, delta: str, n: int, reps: int, mc: int) -> Invocation:
    argv = ("sim", "coverage", "--method", "cv", "--dgp", f"gauss_p{p}.json",
            "--predictor", "ridge_1e-8.json", "--n", n, "--k", "jackknife",
            "--delta", delta, "--train-reps", reps, "--mc-test", mc)
    return Invocation(f"coverage_p{p}_delta{delta}", argv, reps)


def _equiv(n: int, reps: int, mc: int) -> Invocation:
    argv = ("sim", "equiv", "--dgp", "gauss_p50.json", "--predictor", "ridge_1e-8.json",
            "--n", n, "--k", "jackknife", "--train-reps", reps, "--mc-test", mc)
    return Invocation("equiv_p50", argv, reps, atoms_per_rep=mc * n)


def _problen(grid: tuple, reps: int) -> Invocation:
    argv = ("sim", "problen", "--dgp", "gauss_null.json", "--predictor", "constant_0.json",
            "--scale", "sqrt_n", "--n-grid", ",".join(map(str, grid)), "--nominal", 0.8,
            "--train-reps", reps)
    return Invocation("problen_constant", argv, reps * len(grid))


def _vargap(label: str, dgp: str, predictor: str, n: int, reps: int) -> Invocation:
    argv = ("stability", "vargap", "--dgp", dgp, "--predictor", predictor, "--n", n, "--reps", reps)
    return Invocation(label, argv, reps)


def _length(n: int, reps: int) -> Invocation:
    argv = ("sim", "length", "--dgp", "gauss_null.json",
            "--predictors", "max_response,neg_max_response", "--n", n, "--train-reps", reps)
    return Invocation("length_max", argv, reps)


def _gauge(grid: tuple, reps: int, oracle: int) -> Invocation:
    argv = ("sim", "gauge", "--dgp", "gauss_p3.json", "--predictor", "ridge_1.json",
            "--n-grid", ",".join(map(str, grid)), "--delta", 0.1, "--train-reps", reps,
            "--mc-oracle", oracle)
    return Invocation("gauge_ridge", argv, reps * len(grid))


def _probes(smoke: bool) -> list[Invocation]:
    if not smoke:
        return [
            _problen((50, 100, 200), 20),
            _vargap("vargap_ridge", "gauss_p3.json", "ridge_1.json", 100, 50),
            _vargap("vargap_max_t", "student_t.json", "max_response.json", 100, 400),
            _length(20, 100),
            _gauge((50, 100), 20, 2000),
        ]
    return [
        _problen((10, 20), 4),
        _vargap("vargap_ridge", "gauss_p3.json", "ridge_1.json", 20, 20),
        _vargap("vargap_max_t", "student_t.json", "max_response.json", 20, 40),
        _length(10, 4),
        _gauge((10, 20), 3, 200),
    ]


def _coverages(smoke: bool) -> list[Invocation]:
    n, reps, mc = (60, 2, 500) if smoke else (200, 4, 50_000)
    return [_coverage(p, delta, n, reps, mc) for p in (2, 50) for delta in ("0", "iqr:-0.1")]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: Callable[[bool], list]  # smoke -> the fixed invocation list
    warmup: Invocation
    # span names the traced run must see at least once on this workload
    expected_spans: tuple = field(default=())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "equiv_p50",
            "jackknife vs jackknife+ at p=50, 50k test points: cv+ atom kernel, fold matrix and memory",
            lambda smoke: [_equiv(*((60, 2, 500) if smoke else (200, 4, 50_000)))],
            _equiv(60, 2, 500),
            ("data.draw", "predictors.foldfits.ridge", "predictors.fold_predictions",
             "simlab.coverage", "simlab.jk_vs_jkplus_gap", "rng.indexed_map", "rng.rep", "rng.stream"),
        ),
        Workload(
            "coverage_cv",
            "cv coverage at p in {2, 50}, delta in {0, iqr:-0.1}: DGP draw and ridge fold fits, no cv+ kernel",
            _coverages,
            _coverage(2, "0", 20, 2, 500),
            ("data.draw", "predictors.foldfits.ridge", "simlab.coverage",
             "simlab.coverage_distribution", "rng.indexed_map", "rng.rep", "rng.stream"),
        ),
        Workload(
            "probes_loo",
            "small-n necessity probes: per-fold Python refits, scalar intervals, exact gauge, GIL-bound threads",
            _probes,
            _length(10, 4),
            ("data.draw", "predictors.foldfits.ridge", "predictors.foldfits.constant",
             "predictors.foldfits.max_response", "predictors.foldfits.neg_max_response",
             "predictors.fit", "intervals.interval", "ecdf.build", "ecdf.quantile",
             "levy_gauge.gauge", "stability.variance_gap", "simlab.length_compare",
             "simlab.gauge_convergence", "simlab.infinite_length_probe",
             "rng.indexed_map", "rng.rep", "rng.stream"),
        ),
    )
}


def cvuq_seed(bench_seed: int, index: int) -> int:
    """The ``--seed`` given to invocation ``index`` of a run."""
    return 1000 * bench_seed + index


def write_inputs(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, spec in SPEC_FILES.items():
        (workdir / name).write_text(json.dumps(spec))
