"""Single entry point exposing every module as subcommands.

Machine-readable JSON goes to stdout (or ``--out``); optional tidy CSV goes
to ``--csv``; anything human-facing goes to stderr.  Every output object
carries ``"schema": "1"``.  Exit codes: 0 success, 2 usage error, 3 data
error, 4 numeric failure, each with a one-line JSON error object on stdout.

A JSON config file (``--config``) supplies defaults; explicit flags win.
Every subcommand accepts ``--seed`` and ``--threads`` and is bit-reproducible
for a fixed seed regardless of the thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import risk as risk_mod
from . import simlab, stability
from .data import DgpSpec, load_dataset, save_dataset
from .ecdf import StepCdf
from .errors import DataError, InvalidTolerance, MalformedInput, NumericError
from .intervals import IntervalMethod, interval, shortest_interval
from .levy_gauge import gauge
from .predictors import FoldFits, PredictorSpec, feature_row
from .stability import resolve_partition

SCHEMA = "1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through our exit codes
        raise UsageError(message)


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


def _float_flag(text, flag: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{flag} must be a number, got {text!r}") from exc


def _delta(text: str):
    if isinstance(text, str) and text.startswith("iqr:"):
        try:
            simlab.iqr_factor(text)
        except InvalidTolerance as exc:
            raise UsageError(str(exc)) from exc
        return text
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad delta {text!r}: use a number or iqr:FACTOR") from exc


def _load_predictor(path: str) -> PredictorSpec:
    return PredictorSpec.from_json(Path(path).read_text())


def _load_dgp(path: str) -> DgpSpec:
    try:
        return DgpSpec.from_dict(json.loads(Path(path).read_text()))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise MalformedInput(f"bad dgp file {path}: {exc}") from exc


def _fold_rule(text):
    if text in (None, "n", "jackknife"):
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


def _emit(payload: dict, out: str | None) -> None:
    """Write strict JSON: infinities become "inf"/"-inf", a NaN is a numeric failure."""
    try:
        text = json.dumps(_jsonable({"schema": SCHEMA, **payload}), allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"result is not a number: {exc}") from exc
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _write_csv(path: str | None, header: list[str], rows) -> None:
    if not path:
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _build_parser(defaults: dict) -> _Parser:
    parser = _Parser(prog="cvuq", description="cross-validation uncertainty quantification")
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--csv", help="write tidy per-rep/grid CSV here")

    p = sub.add_parser("interval", help="prediction interval for one test point")
    common(p)
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

    p = sub.add_parser("gauge", help="gauge distance between two step-cdf JSON files")
    common(p)
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--delta", type=float)

    p = sub.add_parser("risk", help="leave-fold-out risk estimates for a dataset")
    common(p)
    p.add_argument("--data")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--predictor")
    p.add_argument("--k", default="jackknife")
    p.add_argument("--loss", choices=("squared_hinge", "absolute"), help="loss for plug-in bounds")
    p.add_argument("--indicator-at", type=float, help="indicator loss threshold")
    p.add_argument("--eps", type=float, default=0.1)

    p = sub.add_parser("dgp", help="sample a synthetic dataset to a file")
    common(p)
    p.add_argument("--dgp", help="dgp spec JSON file")
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--data-out")

    p = sub.add_parser("stability", help="stability estimators and bounds")
    common(p)
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
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--bound-l", dest="bound_l", type=float, default=0.0)
    p.add_argument("--tail", type=float, default=0.0)
    p.add_argument("--abs-err", type=float, default=0.0)
    p.add_argument("--stab", default="", help="comma list: per-fold E|yhat - yhat_fold|")
    p.add_argument("--stab-trunc", default=None, help="comma list: per-fold truncated terms")
    p.add_argument("--exceed", default="", help="comma list: per-fold exceedance probabilities")
    p.add_argument("--kfolds", type=int, help="fold count for pacbound/eqbound arithmetic")

    p = sub.add_parser("sim", help="Monte-Carlo experiments")
    common(p)
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

    if defaults:
        known = {a.dest for sp in sub.choices.values() for a in sp._actions}
        unknown = set(defaults) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for sp in sub.choices.values():
            sp.set_defaults(**{k: v for k, v in defaults.items()})
    return parser


# Flags that count replications, test points or worker threads, and the seed: least valid value.
_COUNT_FLAGS = {"threads": 1, "reps": 1, "train_reps": 1, "mc_test": 1, "mc_oracle": 1, "outer": 1, "inner": 1,
                "seed": 0}


def _check_counts(args) -> None:
    for name, least in _COUNT_FLAGS.items():
        value = getattr(args, name, least)
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise UsageError(f"--{name.replace('_', '-')} must be an integer >= {least}, got {value!r}")


def _check_levels(args) -> None:
    for name in ("alpha1", "alpha2", "eps", "nominal"):
        value = getattr(args, name, None)
        if value is not None and (not isinstance(value, (int, float)) or math.isnan(value)):
            raise UsageError(f"--{name} must be a number, got {value!r}")


def _require(args, *names) -> None:
    missing = [name for name in names if getattr(args, name, None) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise UsageError(f"missing required option(s): {flags}")


def _cmd_interval(args) -> dict:
    _require(args, "data", "predictor", "alpha1", "alpha2", "xnew")
    train = load_dataset(args.data, args.format)
    spec = _load_predictor(args.predictor)
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
    return {"alpha1": a1, "alpha2": a2, "delta": delta, **piv.as_jsonable()}


def _cmd_gauge(args) -> dict:
    _require(args, "f", "g", "delta")
    F = StepCdf.from_json(Path(args.f).read_text())
    G = StepCdf.from_json(Path(args.g).read_text())
    res = gauge(F, G, args.delta)
    return {"value": res.value, "witness_t": res.witness_t, "side": res.side}


def _cmd_risk(args) -> dict:
    _require(args, "data", "predictor")
    train = load_dataset(args.data, args.format)
    spec = _load_predictor(args.predictor)
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
    return payload


def _cmd_dgp(args) -> dict:
    _require(args, "dgp", "n", "data_out")
    dgp = _load_dgp(args.dgp)
    from .rng import stream

    train = dgp.sample(args.n, stream(args.seed))
    save_dataset(train, args.data_out, args.format)
    return {"written": str(args.data_out), "n": train.n, "p": train.p}


def _cmd_stability(args) -> dict:
    mode = args.mode
    if mode == "pacbound":
        k = args.kfolds or len(_floats(args.stab))
        trunc = _floats(args.stab_trunc) if args.stab_trunc else None
        bt, ba = stability.pac_bound_cv(
            k, _float_flag(args.delta, "--delta"), args.eps, args.mu, args.bound_l,
            args.tail, args.abs_err, _floats(args.stab), trunc,
        )
        return {"mode": mode, "bound_trunc": bt, "bound_abs": ba}
    if mode == "eqbound":
        probs = _floats(args.exceed)
        k = args.kfolds or len(probs)
        value = stability.equivalence_bound(k, args.eps, _float_flag(args.delta, "--delta"), probs)
        return {"mode": mode, "bound": value}
    _require(args, "predictor", "dgp", "n")
    spec = _load_predictor(args.predictor)
    dgp = _load_dgp(args.dgp)
    if mode == "profile":
        prof = stability.oos_stability_profile(
            spec, dgp, args.n, _fold_rule(args.k), _floats(args.eps_grid),
            args.reps, args.seed, args.threads,
        )
        return {
            "mode": mode,
            "eps_grid": prof.eps_grid,
            "exceed_prob": prof.exceed_prob,
            "exceed_std_err": prof.exceed_std_err,
            "mean_abs": prof.mean_abs.value,
            "mean_abs_std_err": prof.mean_abs.std_err,
            "reps": prof.reps,
        }
    if mode == "mstab":
        est = stability.m_stability(spec, dgp, args.n, args.m, args.reps, args.seed, args.threads)
        return {"mode": mode, "m": args.m, "value": est.value, "std_err": est.std_err}
    if mode == "vargap":
        est = stability.variance_gap(spec, dgp, args.n, args.reps, args.seed, args.threads)
        return {"mode": mode, "value": est.value, "std_err": est.std_err}
    est = stability.update_drift(
        spec, dgp, args.n, args.outer, args.inner, args.seed, args.threads
    )
    return {"mode": mode, "value": est.value, "std_err": est.std_err}


def _cmd_sim(args) -> tuple[dict, list[str], list]:
    _require(args, "dgp")
    if args.mode in ("coverage", "equiv"):
        _require(args, "predictor", "n")
    elif args.mode == "length":
        _require(args, "n")
    else:
        _require(args, "predictor")
    dgp = _load_dgp(args.dgp)
    mode = args.mode
    if mode == "coverage":
        spec = _load_predictor(args.predictor)
        rep = simlab.coverage_distribution(
            spec, dgp, args.n, IntervalMethod(args.method, symmetrized=args.symmetrized),
            args.alpha1, args.alpha2, _delta(args.delta),
            args.train_reps, args.mc_test, args.seed,
            partition_rule=_fold_rule(args.k), threads=args.threads,
        )
        payload = {
            "mode": mode,
            "nominal": rep.nominal,
            "mean": rep.mean,
            "q05": rep.q05,
            "q50": rep.q50,
            "q95": rep.q95,
            "reps": rep.reps,
            "mc_test_points": rep.mc_test_points,
            "conditional_cov": rep.conditional_cov,
        }
        rows = [(i, float(c)) for i, c in enumerate(rep.conditional_cov)]
        return payload, ["rep", "coverage"], rows
    if mode == "equiv":
        spec = _load_predictor(args.predictor)
        rep = simlab.jk_vs_jkplus_gap(
            spec, dgp, args.n, args.alpha1, args.alpha2, _delta(args.delta),
            args.train_reps, args.mc_test, args.seed,
            partition_rule=_fold_rule(args.k), eps=args.eps,
            stability_delta=_delta(args.stab_delta), threads=args.threads,
        )
        payload = {
            "mode": mode,
            "sup_gap": rep.sup_gap,
            "q95_gap": rep.q95_gap,
            "event_freq": rep.event_freq,
            "event_std_err": rep.event_std_err,
            "bound": rep.bound,
            "stability_delta": rep.stability_delta,
            "eps": rep.eps,
            "cov_cv": rep.cov_cv,
            "cov_cvp": rep.cov_cvp,
        }
        rows = [
            (i, float(a), float(b), float(abs(a - b)))
            for i, (a, b) in enumerate(zip(rep.cov_cv, rep.cov_cvp))
        ]
        return payload, ["rep", "cov_cv", "cov_cvp", "gap"], rows
    if mode == "length":
        kinds = (args.predictors or "max_response,neg_max_response").split(",")
        specs = [PredictorSpec(kind.strip()) for kind in kinds]
        rep = simlab.length_compare(
            specs, dgp, args.n, args.nominal, args.train_reps, args.seed,
            alpha1=args.alpha1, threads=args.threads,
        )
        payload = {"mode": mode, "kinds": list(rep.kinds)}
        rows = []
        for kind in rep.kinds:
            lj = rep.lengths_cv[kind]
            lp = rep.lengths_cvp[kind]
            payload[kind] = {
                "mean_cv": float(np.mean(lj)),
                "mean_cvp": float(np.mean(lp)),
                "frac_cvp_shorter_or_equal": float(np.mean(lp <= lj + 1e-12)),
            }
            rows.extend((kind, i, float(a), float(b)) for i, (a, b) in enumerate(zip(lj, lp)))
        return payload, ["kind", "rep", "len_cv", "len_cvp"], rows
    if mode == "gauge":
        spec = _load_predictor(args.predictor)
        rep = simlab.gauge_convergence(
            spec, dgp, _ints(args.n_grid), _float_flag(args.delta, "--delta"),
            args.train_reps, args.mc_oracle, args.seed, args.threads,
        )
    else:  # problen
        spec = _load_predictor(args.predictor)
        family = simlab.sqrt_n_family(dgp) if args.scale == "sqrt_n" else simlab.constant_family(dgp)
        rep = simlab.infinite_length_probe(
            spec, family, _ints(args.n_grid), args.nominal,
            args.train_reps, args.seed, args.threads,
        )
    payload = {
        "mode": mode,
        "n_grid": list(rep.n_grid),
        "mean": rep.mean,
        "std_err": rep.std_err,
    }
    rows = [
        (n, r, float(rep.per_rep[i, r]))
        for i, n in enumerate(rep.n_grid)
        for r in range(rep.per_rep.shape[1])
    ]
    return payload, ["n", "rep", "value"], rows


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        pre = _Parser(add_help=False)
        pre.add_argument("--config")
        known, _ = pre.parse_known_args(argv)
        defaults = {}
        if known.config:
            try:
                defaults = json.loads(Path(known.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"bad config file: {exc}") from exc
            if not isinstance(defaults, dict):
                raise UsageError("config must be a JSON object")
        args = _build_parser(defaults).parse_args(argv)
        _check_counts(args)
        _check_levels(args)
        csv_payload = None
        if args.command == "interval":
            payload = _cmd_interval(args)
        elif args.command == "gauge":
            payload = _cmd_gauge(args)
        elif args.command == "risk":
            payload = _cmd_risk(args)
        elif args.command == "dgp":
            payload = _cmd_dgp(args)
        elif args.command == "stability":
            payload = _cmd_stability(args)
            if args.csv:
                if payload["mode"] == "profile":
                    rows = list(zip(payload["eps_grid"], payload["exceed_prob"], payload["exceed_std_err"]))
                    csv_payload = (["eps", "exceed_prob", "std_err"], rows)
                elif "value" in payload:
                    csv_payload = (["value", "std_err"], [(payload["value"], payload["std_err"])])
        else:
            payload, header, rows = _cmd_sim(args)
            csv_payload = (header, rows)
        if csv_payload and args.csv:
            _write_csv(args.csv, *csv_payload)
        _emit(payload, args.out)
        return 0
    except UsageError as exc:
        print(json.dumps({"schema": SCHEMA, "error": "usage", "message": str(exc)}))
        return 2
    except DataError as exc:
        print(json.dumps({"schema": SCHEMA, "error": type(exc).__name__, "message": str(exc)}))
        return 3
    except (NumericError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": type(exc).__name__, "message": str(exc)}))
        return 4
    except OSError as exc:
        print(json.dumps({"schema": SCHEMA, "error": "io", "message": str(exc)}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
