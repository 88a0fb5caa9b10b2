"""Output checks for ``cvuq`` invocations.

Every invocation must return 0 and print exactly one line of strict JSON
(no bare NaN/Infinity).  On the reference seed its values must match
reference.json; on any other seed they get structural checks.

Tolerances.  Coverage-valued fields are means of 0/1 hits over the test
points, so a last-bit change in a fit can at most flip a test point that sits
on an interval endpoint, moving a coverage by 1/mc_test (2e-5 at 50k).
Moving a quantile by one atom moves a coverage by about 1/n (0.005 at
n=200).  ``COVERAGE_ATOL`` sits between the two.  Every other number is a
smooth function of the fits and gets ``VALUE_RTOL``.
"""

from __future__ import annotations

import json
import math

COVERAGE_ATOL = 1e-3
VALUE_RTOL = 1e-6
VALUE_ATOL = 1e-12

COVERAGE_FIELDS = {
    "coverage": {"nominal", "mean", "q05", "q50", "q95", "conditional_cov"},
    "equiv": {"cov_cv", "cov_cvp", "sup_gap", "q95_gap", "event_freq", "event_std_err"},
    "length": {"frac_cvp_shorter_or_equal"},
}

EXPECTED_KEYS = {
    "coverage": {"schema", "mode", "nominal", "mean", "q05", "q50", "q95", "reps",
                 "mc_test_points", "conditional_cov"},
    "equiv": {"schema", "mode", "sup_gap", "q95_gap", "event_freq", "event_std_err", "bound",
              "stability_delta", "eps", "cov_cv", "cov_cvp"},
    "length": {"schema", "mode", "kinds", "max_response", "neg_max_response"},
    "gauge": {"schema", "mode", "n_grid", "mean", "std_err"},
    "problen": {"schema", "mode", "n_grid", "mean", "std_err"},
    "vargap": {"schema", "mode", "value", "std_err"},
}


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def parse_strict(stdout: str):
    """The one JSON object printed, or raise ValueError."""
    if not stdout.endswith("\n") or stdout.count("\n") != 1:
        raise ValueError("expected exactly one line of output")
    obj = json.loads(stdout, parse_constant=_reject_constant)
    if not isinstance(obj, dict):
        raise ValueError("output is not a JSON object")
    return obj


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _fraction(x) -> bool:
    return _finite(x) and 0.0 <= x <= 1.0


def structural(obj: dict, mode: str, reps: int) -> list[str]:
    """Shape and range checks that hold for any seed."""
    errors = []
    missing = EXPECTED_KEYS[mode] - obj.keys()
    if missing:
        return [f"missing keys {sorted(missing)}"]
    if obj["schema"] != "1" or obj["mode"] != mode:
        errors.append("wrong schema or mode")
    if mode == "coverage":
        covs = obj["conditional_cov"]
        if obj["reps"] != reps or len(covs) != reps:
            errors.append("rep count differs from --train-reps")
        if not all(_fraction(c) for c in covs + [obj["mean"], obj["q05"], obj["q50"], obj["q95"]]):
            errors.append("coverage outside [0, 1]")
        elif not obj["q05"] <= obj["q50"] <= obj["q95"]:
            errors.append("coverage quantiles out of order")
    elif mode == "equiv":
        covs = obj["cov_cv"] + obj["cov_cvp"]
        if len(covs) != 2 * reps:
            errors.append("rep count differs from --train-reps")
        if not all(_fraction(c) for c in covs + [obj["sup_gap"], obj["q95_gap"], obj["event_freq"]]):
            errors.append("coverage or gap outside [0, 1]")
        if not all(_finite(obj[k]) and obj[k] >= 0 for k in ("bound", "stability_delta", "event_std_err")):
            errors.append("bound, stability delta or standard error not finite and nonnegative")
    elif mode == "length":
        for kind in obj["kinds"]:
            row = obj[kind]
            if not (_finite(row["mean_cv"]) and _finite(row["mean_cvp"])
                    and row["mean_cv"] >= 0 and row["mean_cvp"] >= 0):
                errors.append(f"{kind}: lengths not finite and nonnegative")
            if not _fraction(row["frac_cvp_shorter_or_equal"]):
                errors.append(f"{kind}: fraction outside [0, 1]")
    elif mode in ("gauge", "problen"):
        means, ses = obj["mean"], obj["std_err"]
        if not len(means) == len(ses) == len(obj["n_grid"]):
            errors.append("grid, mean and std_err lengths differ")
        ok_mean = _fraction if mode == "gauge" else (lambda v: _finite(v) and v >= 0)
        if not all(ok_mean(v) for v in means) or not all(_finite(v) and v >= 0 for v in ses):
            errors.append("mean or std_err out of range")
    elif mode == "vargap":
        if not (_finite(obj["value"]) and _finite(obj["std_err"]) and obj["std_err"] >= 0):
            errors.append("value or std_err not finite")
    return errors


def against_reference(got, ref, mode: str, path: str = "") -> list[str]:
    """Differences between an output and its stored reference."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or got.keys() != ref.keys():
            return [f"{path or 'output'}: keys differ from reference"]
        errors = []
        for key in ref:
            errors += against_reference(got[key], ref[key], mode, f"{path}.{key}" if path else key)
        return errors
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs from reference"]
        errors = []
        for i, (g, r) in enumerate(zip(got, ref)):
            errors += against_reference(g, r, mode, path)
            if errors:
                return [f"{errors[0]} (item {i})"]
        return errors
    if isinstance(ref, float) or (isinstance(ref, int) and isinstance(got, float)):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return [f"{path}: not a number"]
        if path.rsplit(".", 1)[-1] in COVERAGE_FIELDS.get(mode, ()):
            tol = COVERAGE_ATOL
        else:
            tol = VALUE_ATOL + VALUE_RTOL * abs(ref)
        if not abs(got - ref) <= tol:
            return [f"{path}: {got!r} differs from reference {ref!r} by more than {tol:.3g}"]
        return []
    if got != ref:
        return [f"{path}: {got!r} differs from reference {ref!r}"]
    return []


def check_output(rc: int, stdout: str, mode: str, reps: int, reference) -> list[str]:
    """All checks for one invocation; an empty list means it passed."""
    if rc != 0:
        return [f"exit code {rc}: {stdout.strip()[:200]}"]
    try:
        obj = parse_strict(stdout)
    except ValueError as exc:
        return [f"not strict JSON: {exc}"]
    errors = structural(obj, mode, reps)
    if reference is not None and not errors:
        errors = against_reference(obj, reference, mode)
    return errors
