"""Single entry point exposing every module as subcommands.

Machine-readable JSON goes to stdout (or ``--out``); optional tidy CSV, its
cells plain numbers or labels, goes to ``--csv``; anything human-facing,
``--help`` included, goes to stderr.  Every output object carries
``"schema": "1"``.  Exit codes: 0 success, 2 usage error, 3 data error (an
input file that is not UTF-8 among them), 4 numeric failure or an allocation
NumPy refuses, each with a one-line JSON error object on stdout; 1 when
stdout is closed before the JSON is written, with nothing on stderr.

A JSON config file (``--config``) supplies defaults; explicit flags win.  A
value parses like the same flag, a switch takes only true or false, and a key
applies only to the subcommands that have that flag (one that none has exits
2).  Every subcommand accepts ``--seed`` and ``--threads`` and is
bit-reproducible for a fixed seed regardless of the thread count.  Each
subcommand is a handler in ``COMMANDS`` returning its JSON payload and its
CSV ``(header, rows)``, or ``None``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import risk as risk_mod
from . import simlab, stability
from .data import DgpSpec, json_flag, json_object, load_dataset, read_json, read_text, save_dataset, write_csv
from .ecdf import StepCdf
from .errors import DataError, InvalidTolerance, MalformedInput, NumericError
from .intervals import IntervalMethod, interval, shortest_interval
from .levy_gauge import gauge
from .predictors import FoldFits, PredictorSpec, feature_row
from .rng import stream
from .stability import resolve_partition

SCHEMA = "1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through our exit codes
        raise UsageError(message)

    def print_help(self, file=None):  # stdout carries only JSON
        super().print_help(sys.stderr)


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def _ints(text: str) -> list[int]:
    values = _floats(text)
    if not values or not all(v.is_integer() for v in values):
        raise UsageError(f"expected comma-separated integers, got {text!r}")
    return [int(v) for v in values]


def _float_flag(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"{flag} must be a number, got {text!r}") from exc


def _delta(text: str):
    if text.startswith("iqr:"):
        try:
            simlab.iqr_factor(text)
        except InvalidTolerance as exc:
            raise UsageError(str(exc)) from exc
        return text
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"bad delta {text!r}: use a number or iqr:FACTOR") from exc


def _fold_rule(text: str):
    if text in ("n", "jackknife"):
        return "jackknife"
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"bad --k {text!r}: use an integer, 'n', or 'jackknife'") from exc


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(payload: dict, out: str | None, code: int = 0) -> int:
    """Write strict JSON: infinities become "inf"/"-inf", a NaN is a numeric
    failure.  Returns the exit code, 1 if stdout is closed."""
    try:
        text = json.dumps(_jsonable({"schema": SCHEMA, **payload}), allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"result is not a number: {exc}") from exc
    if out:
        Path(out).write_text(text + "\n")
        return code
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the interpreter's last flush of stdout would fail again, with a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _build_parser(defaults: dict) -> _Parser:
    parser = _Parser(prog="cvuq", description="cross-validation uncertainty quantification")
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> _Parser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--csv", help="write tidy per-rep/grid CSV here")
        return p

    p = command("interval", "prediction interval for one test point")
    p.add_argument("--data")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--predictor", help="predictor spec JSON file")
    p.add_argument("--method", choices=("cv", "cv_plus", "fitted_values"), default="cv")
    p.add_argument("--symmetrized", action="store_true")
    p.add_argument("--k", default="jackknife")
    p.add_argument("--alpha1", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--delta", default="0")
    p.add_argument("--xnew", help="comma-separated feature vector")
    p.add_argument("--shortest", action="store_true", help="scan pairs at nominal alpha2-alpha1")

    p = command("gauge", "gauge distance between two step-cdf JSON files")
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--delta", type=float)

    p = command("risk", "leave-fold-out risk estimates for a dataset")
    p.add_argument("--data")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--predictor")
    p.add_argument("--k", default="jackknife")
    p.add_argument("--loss", choices=("squared_hinge", "absolute"), help="loss for plug-in bounds")
    p.add_argument("--indicator-at", type=float, help="indicator loss threshold")
    p.add_argument("--eps", type=float, default=0.1)

    p = command("dgp", "sample a synthetic dataset to a file")
    p.add_argument("--dgp", help="dgp spec JSON file")
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--data-out")

    p = command("stability", "stability estimators and bounds")
    p.add_argument("mode", choices=("profile", "mstab", "pacbound", "eqbound", "vargap", "drift"))
    p.add_argument("--predictor")
    p.add_argument("--dgp")
    p.add_argument("--n", type=int)
    p.add_argument("--k", default="jackknife")
    p.add_argument("--eps-grid", default="0.01,0.05,0.1,0.5")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--outer", type=int, default=100)
    p.add_argument("--inner", type=int, default=10)
    p.add_argument("--delta", default="0.1")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--bound-l", dest="bound_l", type=float, default=0.0)
    p.add_argument("--tail", type=float, default=0.0)
    p.add_argument("--abs-err", type=float, default=0.0)
    p.add_argument("--stab", default="", help="comma list: per-fold E|yhat - yhat_fold|")
    p.add_argument("--stab-trunc", default=None, help="comma list: per-fold truncated terms")
    p.add_argument("--exceed", default="", help="comma list: per-fold exceedance probabilities")

    p = command("sim", "Monte-Carlo experiments")
    p.add_argument("mode", choices=("coverage", "equiv", "length", "gauge", "problen"))
    p.add_argument("--predictor")
    p.add_argument("--predictors", help="comma list of predictor kinds (length mode)")
    p.add_argument("--dgp")
    p.add_argument("--n", type=int)
    p.add_argument("--n-grid", default="50,100,200")
    p.add_argument("--k", default="jackknife")
    p.add_argument("--method", choices=("cv", "cv_plus", "fitted_values"), default="cv")
    p.add_argument("--symmetrized", action="store_true")
    p.add_argument("--alpha1", type=float, default=0.05)
    p.add_argument("--alpha2", type=float, default=0.95)
    p.add_argument("--delta", default="0")
    p.add_argument("--nominal", type=float, default=0.9)
    p.add_argument("--train-reps", type=int, default=50)
    p.add_argument("--mc-test", type=int, default=1000)
    p.add_argument("--mc-oracle", type=int, default=2000)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--stab-delta", default="iqr:0.1")
    p.add_argument("--scale", choices=("none", "sqrt_n"), default="sqrt_n")

    # A config value becomes the default of every flag with its dest, as the string the flag would
    # read, so argparse's type= and the handlers' parsers treat it as they treat the flag.
    flags = [a for sp in sub.choices.values() for a in sp._actions if a.option_strings]
    unknown = set(defaults) - {a.dest for a in flags}
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for action in (a for a in flags if a.dest in defaults):
        switch = isinstance(action, argparse._StoreTrueAction)  # a JSON flag; main makes its error a usage error
        action.default = json_flag(defaults, action.dest, "config key") if switch else str(defaults[action.dest])
        if action.choices and action.default not in action.choices:
            raise UsageError(f"config key {action.dest!r} cannot be {defaults[action.dest]!r}")
    return parser


@functools.lru_cache(maxsize=8)
def _parser_for(config: str) -> _Parser:
    """The parser for the config defaults whose canonical JSON is ``config``,
    built once per process: parsing reads it and never changes it."""
    return _build_parser(json.loads(config))


# Flags that count replications, test points or worker threads, and the seed: least valid value.
_COUNT_FLAGS = {"threads": 1, "reps": 1, "train_reps": 1, "mc_test": 1, "mc_oracle": 1, "outer": 1, "inner": 1,
                "seed": 0}


def _check_counts(args) -> None:
    for name, least in _COUNT_FLAGS.items():
        value = getattr(args, name, least)
        if value < least:
            raise UsageError(f"--{name.replace('_', '-')} must be an integer >= {least}, got {value!r}")


def _check_levels(args) -> None:
    for name in ("alpha1", "alpha2", "eps", "nominal", "indicator_at"):
        value = getattr(args, name, None)
        if value is not None and math.isnan(value):
            raise UsageError(f"--{name.replace('_', '-')} must be a number, got {value!r}")


def _require(args, *names) -> None:
    missing = [name for name in names if getattr(args, name, None) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise UsageError(f"missing required option(s): {flags}")


def _fields(report, *names) -> dict:
    return {name: getattr(report, name) for name in names}


def _cmd_interval(args):
    _require(args, "data", "predictor", "alpha1", "alpha2", "xnew")
    train = load_dataset(args.data, args.format)
    spec = PredictorSpec.from_json(read_text(args.predictor, "predictor file"))
    partition = resolve_partition(_fold_rule(args.k), train.n)
    xnew = np.asarray(_floats(args.xnew))
    method = IntervalMethod(args.method, symmetrized=args.symmetrized)
    fits = FoldFits(spec, train, partition)
    feature_row(xnew, train.p)  # a wrong --xnew is a data error even when the delta is NaN
    delta = simlab.resolve_delta(_delta(args.delta), fits.loo_residuals)
    if args.shortest:
        a1, a2, piv = shortest_interval(method, fits, xnew, args.alpha2 - args.alpha1, delta)
    else:
        a1, a2 = args.alpha1, args.alpha2
        piv = interval(method, fits, xnew, a1, a2, delta)
    return {"alpha1": a1, "alpha2": a2, "delta": delta, **piv.as_jsonable()}, None


def _cmd_gauge(args):
    _require(args, "f", "g", "delta")
    F = StepCdf.from_json(read_text(args.f, "step cdf file"))
    G = StepCdf.from_json(read_text(args.g, "step cdf file"))
    return _fields(gauge(F, G, args.delta), "value", "witness_t", "side"), None


def _cmd_risk(args):
    _require(args, "data", "predictor")
    train = load_dataset(args.data, args.format)
    spec = PredictorSpec.from_json(read_text(args.predictor, "predictor file"))
    partition = resolve_partition(_fold_rule(args.k), train.n)
    u = FoldFits(spec, train, partition).loo_residuals
    payload: dict = {"mse": risk_mod.mse_estimate(u)}
    try:
        payload["misclassification"] = risk_mod.misclassification_estimate(u)
    except DataError:
        pass
    loss = None
    if args.indicator_at is not None:
        loss = risk_mod.indicator(args.indicator_at)
    elif args.loss == "squared_hinge":
        loss = risk_mod.squared_hinge()
    elif args.loss == "absolute":
        loss = risk_mod.absolute()
    if loss is not None:
        lo, hi = risk_mod.loss_plugin_bounds(u, loss, args.eps)
        payload["loss_bounds"] = {"loss": loss.name, "eps": args.eps, "lo": lo, "hi": hi}
    return payload, None


def _cmd_dgp(args):
    _require(args, "dgp", "n", "data_out")
    dgp = DgpSpec.from_json(read_text(args.dgp, "DGP file"))
    train = dgp.sample(args.n, stream(args.seed))
    save_dataset(train, args.data_out, args.format)
    return {"written": str(args.data_out), "n": train.n, "p": train.p}, None


def _cmd_stability(args):
    mode = args.mode
    if mode == "pacbound":
        trunc = _floats(args.stab_trunc) if args.stab_trunc else None
        bt, ba = stability.pac_bound_cv(
            _float_flag(args.delta, "--delta"), args.eps, args.bound_l,
            args.tail, args.abs_err, _floats(args.stab), trunc,
        )
        return {"mode": mode, "bound_trunc": bt, "bound_abs": ba}, None
    if mode == "eqbound":
        value = stability.equivalence_bound(args.eps, _float_flag(args.delta, "--delta"), _floats(args.exceed))
        return {"mode": mode, "bound": value}, None
    _require(args, "predictor", "dgp", "n")
    spec = PredictorSpec.from_json(read_text(args.predictor, "predictor file"))
    dgp = DgpSpec.from_json(read_text(args.dgp, "DGP file"))
    payload = {"mode": mode}
    if mode == "profile":
        prof = stability.oos_stability_profile(
            spec, dgp, args.n, _fold_rule(args.k), _floats(args.eps_grid),
            args.reps, args.seed, args.threads,
        )
        payload.update(_fields(prof, "eps_grid", "exceed_prob", "exceed_std_err"), mean_abs=prof.mean_abs.value,
                       mean_abs_std_err=prof.mean_abs.std_err, reps=prof.reps)
        return payload, (["eps", "exceed_prob", "std_err"],
                         zip(prof.eps_grid, prof.exceed_prob, prof.exceed_std_err))
    if mode == "mstab":
        est = stability.m_stability(spec, dgp, args.n, args.m, args.reps, args.seed, args.threads)
        payload["m"] = args.m
    elif mode == "vargap":
        est = stability.variance_gap(spec, dgp, args.n, args.reps, args.seed, args.threads)
    else:
        est = stability.update_drift(spec, dgp, args.n, args.outer, args.inner, args.seed, args.threads)
    return {**payload, **_fields(est, "value", "std_err")}, (["value", "std_err"], [(est.value, est.std_err)])


# Flags each sim mode needs besides --dgp.
_SIM_NEEDS = {"coverage": ("predictor", "n"), "equiv": ("predictor", "n"), "length": ("n",),
              "gauge": ("predictor",), "problen": ("predictor",)}


def _cmd_sim(args):
    mode = args.mode
    _require(args, "dgp")
    _require(args, *_SIM_NEEDS[mode])
    dgp = DgpSpec.from_json(read_text(args.dgp, "DGP file"))
    if mode == "length":
        kinds = (args.predictors or "max_response,neg_max_response").split(",")
        rep = simlab.length_compare(
            [PredictorSpec(kind.strip()) for kind in kinds], dgp, args.n, args.nominal,
            args.train_reps, args.seed, alpha1=args.alpha1, threads=args.threads,
        )
        payload, rows = {"mode": mode, "kinds": rep.kinds}, []
        for kind in rep.kinds:
            lj, lp = rep.lengths_cv[kind], rep.lengths_cvp[kind]
            payload[kind] = {"mean_cv": np.mean(lj), "mean_cvp": np.mean(lp),
                             "frac_cvp_shorter_or_equal": np.mean(lp <= lj + 1e-12)}
            rows.extend((kind, i, a, b) for i, (a, b) in enumerate(zip(lj, lp)))
        return payload, (["kind", "rep", "len_cv", "len_cvp"], rows)
    spec = PredictorSpec.from_json(read_text(args.predictor, "predictor file"))
    if mode == "coverage":
        rep = simlab.coverage_distribution(
            spec, dgp, args.n, IntervalMethod(args.method, symmetrized=args.symmetrized),
            args.alpha1, args.alpha2, _delta(args.delta),
            args.train_reps, args.mc_test, args.seed,
            partition_rule=_fold_rule(args.k), threads=args.threads,
        )
        fields = _fields(rep, "nominal", "mean", "q05", "q50", "q95", "reps", "mc_test_points", "conditional_cov")
        csv = ["rep", "coverage"], enumerate(rep.conditional_cov)
    elif mode == "equiv":
        rep = simlab.jk_vs_jkplus_gap(
            spec, dgp, args.n, args.alpha1, args.alpha2, _delta(args.delta),
            args.train_reps, args.mc_test, args.seed,
            partition_rule=_fold_rule(args.k), eps=args.eps,
            stability_delta=_delta(args.stab_delta), threads=args.threads,
        )
        fields = _fields(rep, "sup_gap", "q95_gap", "event_freq", "event_std_err", "bound",
                         "stability_delta", "eps", "cov_cv", "cov_cvp")
        gaps = zip(rep.cov_cv, rep.cov_cvp, np.abs(rep.cov_cv - rep.cov_cvp))
        csv = ["rep", "cov_cv", "cov_cvp", "gap"], ((i, *row) for i, row in enumerate(gaps))
    else:
        if mode == "gauge":
            rep = simlab.gauge_convergence(
                spec, dgp, _ints(args.n_grid), _float_flag(args.delta, "--delta"),
                args.train_reps, args.mc_oracle, args.seed, args.threads,
            )
        else:  # problen
            family = simlab.sqrt_n_family(dgp) if args.scale == "sqrt_n" else simlab.constant_family(dgp)
            rep = simlab.infinite_length_probe(
                spec, family, _ints(args.n_grid), args.nominal,
                args.train_reps, args.seed, args.threads,
            )
        fields = _fields(rep, "n_grid", "mean", "std_err")
        rows = zip(rep.n_grid, rep.per_rep)
        csv = ["n", "rep", "value"], ((n, r, v) for n, values in rows for r, v in enumerate(values))
    return {"mode": mode, **fields}, csv


COMMANDS = {"interval": _cmd_interval, "gauge": _cmd_gauge, "risk": _cmd_risk, "dgp": _cmd_dgp,
            "stability": _cmd_stability, "sim": _cmd_sim}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        pre = _Parser(add_help=False)
        pre.add_argument("--config")
        known, _ = pre.parse_known_args(argv)
        defaults = {}
        try:
            if known.config:
                defaults = json_object(read_json(read_text(known.config, "config"), "config"), "config")
            parser = _parser_for(json.dumps(defaults, sort_keys=True))
        except (OSError, MalformedInput) as exc:
            raise UsageError(f"bad config file: {exc}") from exc
        args = parser.parse_args(argv)
        _check_counts(args)
        _check_levels(args)
        payload, csv = COMMANDS[args.command](args)
        if csv and args.csv:
            write_csv(args.csv, *csv)
        return _emit(payload, args.out)
    except SystemExit:  # argparse exits only after printing --help: error() raises UsageError
        return 0
    except UsageError as exc:
        failure = 2, "usage", exc
    except DataError as exc:
        failure = 3, type(exc).__name__, exc
    except (NumericError, FloatingPointError, np.linalg.LinAlgError) as exc:
        failure = 4, type(exc).__name__, exc
    except OSError as exc:
        failure = 3, "io", exc
    except MemoryError as exc:  # an allocation NumPy refuses at once; the OS may still kill a run short of RAM
        failure = 4, "MemoryError", exc
    code, error, exc = failure
    return _emit({"error": error, "message": str(exc)}, None, code)


if __name__ == "__main__":
    sys.exit(main())
