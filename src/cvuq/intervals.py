"""Prediction-interval constructions on leave-fold-out residual bundles.

Bases:
  cv             atoms yhat_full + u_i with fold weights 1/(k*|K_j|)
  cv_plus        atoms yhat^{fold(i)}(x_new) + u_i, same weights
  fitted_values  atoms yhat_full + (y_i - yhat_i), uniform weights

An interval is [Q_{a1} - delta, Q_{a2} + delta] of the method's weighted
atoms; ``delta`` may be negative (shrunken).  Every endpoint follows one
quantile rule, :func:`cvuq.ecdf.quantiles` on the sorted atoms
(:class:`cvuq.ecdf.SortedAtoms`): Q_a is the first sorted atom whose
cumulative weight reaches a (within LEVEL_GUARD), -inf for a <= 0 and +inf
for a > 1, an order statistic of the atoms; no step cdf is built.
Symmetrized variants replace the atoms by centered absolute residuals: for cv
and fitted_values the interval is ``center +- (Q_{a2-a1}(|residual|) + delta)``,
while for cv_plus the atoms ``yhat^{fold(i)} + |u_i|`` keep the asymmetric
two-quantile form.

Intervals are closed at finite endpoints and empty iff lo > hi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ecdf import SortedAtoms, eval_cdf, left_limit, quantile, quantiles, weighted_ecdf
from .errors import InvalidBundle, InvalidTolerance, MissingFittedValues
from .predictors import ResidualBundle

BASES = ("cv", "cv_plus", "fitted_values")


@dataclass(frozen=True)
class IntervalMethod:
    base: str = "cv"
    symmetrized: bool = False

    def __post_init__(self):
        if self.base not in BASES:
            raise InvalidBundle(f"unknown interval base {self.base!r}")


@dataclass(frozen=True)
class PredInterval:
    """Closed extended-real interval; empty iff lo > hi."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    @property
    def length(self) -> float:
        if self.empty:
            return 0.0
        if math.isinf(self.lo) or math.isinf(self.hi):
            return math.inf
        return self.hi - self.lo

    def contains(self, y: float) -> bool:
        return self.lo <= y <= self.hi

    def as_jsonable(self) -> dict:
        def enc(v):
            if v == math.inf:
                return "inf"
            if v == -math.inf:
                return "-inf"
            return v

        return {
            "lo": enc(self.lo),
            "hi": enc(self.hi),
            "lo_closed": math.isfinite(self.lo),
            "hi_closed": math.isfinite(self.hi),
            "empty": self.empty,
            "length": enc(self.length),
        }


def interval_atoms(method: IntervalMethod, bundle: ResidualBundle) -> SortedAtoms:
    """The sorted atoms the interval's quantiles are taken from: the method's
    residuals, absolute when symmetrized, with their weights; for cv_plus each
    added to its fold's prediction at the test point."""
    if method.base == "fitted_values":
        if bundle.fitted_values is None:
            raise MissingFittedValues("fitted_values base needs a bundle with fitted values")
        res = bundle.y - bundle.fitted_values
        weights = np.full(res.size, 1.0 / res.size)
    else:
        res, weights = bundle.loo_residuals, bundle.partition.atom_weights
    if method.symmetrized:
        res = np.abs(res)
    if method.base == "cv_plus":
        res = bundle.fold_predictions_at_xnew[bundle.partition.fold_of] + res
    return SortedAtoms(res, weights)


def interval_ends(method: IntervalMethod, center, atoms: SortedAtoms, alpha1, alpha2, delta):
    """(lo, hi) at each pair of levels, from ``atoms = interval_atoms(method, .)``
    and the full-data prediction ``center`` (an array for many test points).
    Q_a(center + r) is center + Q_a(r): rounding keeps x -> fl(center + x)
    nondecreasing."""
    if method.symmetrized and method.base != "cv_plus":  # center +- radius
        radius = quantiles(atoms, alpha2 - alpha1) + delta
        return center - radius, center + radius
    q1, q2 = quantiles(atoms, [alpha1, alpha2])
    if method.base != "cv_plus":
        q1, q2 = center + q1, center + q2
    return q1 - delta, q2 + delta


def interval(
    method: IntervalMethod,
    bundle: ResidualBundle,
    alpha1: float,
    alpha2: float,
    delta: float = 0.0,
) -> PredInterval:
    """The delta-distorted interval with nominal coverage alpha2 - alpha1."""
    lo, hi = interval_ends(method, bundle.full_prediction, interval_atoms(method, bundle), alpha1, alpha2, delta)
    return PredInterval(float(lo), float(hi))


def shortest_interval(
    method: IntervalMethod,
    bundle: ResidualBundle,
    nominal: float,
    delta: float = 0.0,
):
    """Scan the atom-aligned (alpha1, alpha2) pairs with alpha2 - alpha1 equal
    to ``nominal`` and return ``(alpha1, alpha2, interval)`` of minimum length,
    ties broken by the smallest alpha1.  The atoms are sorted once and every
    candidate pair is read off that one sort."""
    if not 0.0 < nominal <= 1.0:
        raise InvalidTolerance("nominal must be in (0, 1]")
    atoms = interval_atoms(method, bundle)
    top = 1.0 - nominal
    # the cumulative weight at the last of each run of equal atoms: a StepCdf's cum
    cum = atoms.cum[np.append(atoms.jumps[1:] != atoms.jumps[:-1], True)]
    cand = np.concatenate(([0.0, top], cum[cum <= top], cum[cum >= nominal] - nominal))
    a1 = np.unique(np.clip(cand, 0.0, top))
    lo, hi = interval_ends(method, bundle.full_prediction, atoms, a1, a1 + nominal, delta)
    # as PredInterval.length, with an empty interval of length 0
    best = int(np.argmin(np.where(lo > hi, 0.0, hi - lo)))
    return float(a1[best]), float(a1[best]) + nominal, PredInterval(float(lo[best]), float(hi[best]))


def coverage_ceiling(bundle: ResidualBundle, alpha1: float, alpha2: float, delta: float) -> float:
    """Computable upper diagnostic F(Q_{a2} + 2d) - F((Q_{a1} - 2d)-) on the
    leave-fold-out residual ecdf; compare it to alpha2 - alpha1."""
    if not delta > 0:
        raise InvalidTolerance("delta must be positive")
    F = weighted_ecdf(bundle.loo_residuals, bundle.partition.atom_weights)
    q1 = quantile(F, alpha1)
    q2 = quantile(F, alpha2)
    return eval_cdf(F, q2 + 2 * delta) - left_limit(F, q1 - 2 * delta)
