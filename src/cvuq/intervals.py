"""Prediction-interval constructions on the leave-fold-out fits of a
:class:`cvuq.predictors.FoldFits` at one test point.

Bases:
  cv             atoms yhat_full + u_i with fold weights 1/(k*|K_j|)
  cv_plus        atoms yhat^{fold(i)}(x_new) + u_i, same weights
  fitted_values  atoms yhat_full + (y_i - yhat_i), uniform weights

Each construction computes only what its method reads: the full-data
prediction at x_new for cv and fitted_values, the fold predictions at x_new
for cv_plus, and the in-sample fitted values for fitted_values.

An interval is [Q_{a1} - delta, Q_{a2} + delta] of the method's weighted
atoms; ``delta`` may be negative (shrunken) but must be finite.  Every
endpoint follows one quantile rule, :func:`cvuq.ecdf.quantiles` on the sorted
atoms (:class:`cvuq.ecdf.SortedAtoms`): Q_a is the first sorted atom whose
cumulative weight reaches a (within LEVEL_GUARD), -inf for a <= 0 and +inf
for a > 1, an order statistic of the atoms; no step cdf is built.
Symmetrized variants replace the atoms by centered absolute residuals: for cv
and fitted_values the interval is ``center +- (Q_{a2-a1}(|residual|) + delta)``,
which levels at the same infinity (inf - inf) leave undefined, while for
cv_plus the atoms ``yhat^{fold(i)} + |u_i|`` keep the asymmetric two-quantile
form.

Intervals are closed at finite endpoints and open at infinite ones, so an
interval is empty iff lo > hi or both ends are open at the same infinity
(lo = hi = +-inf); an empty interval has length 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ecdf import SortedAtoms, eval_cdf, left_limit, quantile, quantiles, weighted_ecdf
from .errors import InvalidBundle, InvalidTolerance, NumericError
from .predictors import FoldFits, feature_row

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
    """Extended-real interval, closed at finite ends and open at infinite
    ones; empty iff lo > hi or lo = hi = +-inf, where no real y lies."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi or (self.lo == self.hi and math.isinf(self.lo))

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
        return {
            "lo": self.lo,
            "hi": self.hi,
            "lo_closed": math.isfinite(self.lo),
            "hi_closed": math.isfinite(self.hi),
            "empty": self.empty,
            "length": self.length,
        }


def checked_delta(d: float, rule=None) -> float:
    """``d``, the tolerance that ``rule`` (default ``d``) resolves to, if it is
    finite.  A NaN is a NumericError, since every comparison with a NaN end
    is false; an infinity is an InvalidTolerance, since at an infinite
    quantile the end Q -+ d would be inf - inf."""
    rule = d if rule is None else rule
    if math.isnan(d):
        raise NumericError(f"delta {rule!r} resolves to NaN")
    if math.isinf(d):
        raise InvalidTolerance(f"delta {rule!r} resolves to {d}: a tolerance must be finite")
    return d


def check_nominal(nominal: float) -> None:
    """Raise InvalidTolerance unless the nominal coverage is in (0, 1]."""
    if not 0.0 < nominal <= 1.0:
        raise InvalidTolerance(f"nominal must be in (0, 1], got {nominal!r}")


def interval_atoms(method: IntervalMethod, fits: FoldFits, fold_predictions=None) -> SortedAtoms:
    """The sorted atoms the interval's quantiles are taken from: the method's
    residuals, absolute when symmetrized, with their integer weights (the
    partition's atom units out of its unit total, or 1 out of n for
    fitted_values), so every cumulative weight is fl(C / W) of an exact
    integer C; for cv_plus each residual is added to its fold's entry of
    ``fold_predictions``, the row of fold predictions at the test point, which
    only cv_plus reads."""
    if method.base == "fitted_values":
        res = fits.train.y - fits.fitted_values()
        units, total = np.ones(res.size, dtype=np.int64), res.size
    else:
        res, units, total = fits.loo_residuals, fits.partition.atom_units, fits.partition.unit_total
    if method.symmetrized:
        res = np.abs(res)
    if method.base == "cv_plus":
        res = fold_predictions[fits.partition.fold_of] + res
    return SortedAtoms(res, units, total)


def interval_ends(method: IntervalMethod, center, atoms: SortedAtoms, alpha1, alpha2, delta):
    """(lo, hi) at each pair of levels, from ``atoms = interval_atoms(method, .)``
    and the full-data prediction ``center`` (an array for many test points;
    unread for cv_plus).  Q_a(center + r) is center + Q_a(r): rounding keeps
    x -> fl(center + x) nondecreasing."""
    checked_delta(delta)
    if method.symmetrized and method.base != "cv_plus":  # center +- radius
        if np.any(np.isinf(alpha1) & (alpha1 == alpha2)):  # alpha2 - alpha1 would be inf - inf
            raise InvalidTolerance(f"symmetrized levels alpha1 = {alpha1}, alpha2 = {alpha2} have no alpha2 - alpha1")
        radius = quantiles(atoms, alpha2 - alpha1) + delta
        return center - radius, center + radius
    q1, q2 = quantiles(atoms, [alpha1, alpha2])
    if method.base != "cv_plus":
        q1, q2 = center + q1, center + q2
    return q1 - delta, q2 + delta


def _at_row(method: IntervalMethod, fits: FoldFits, row: np.ndarray) -> tuple:
    """The atoms and the full-data prediction (None for cv_plus) at the
    checked test point ``row = feature_row(xnew, p)``, each computed only if
    the method reads it."""
    if method.base == "cv_plus":
        return interval_atoms(method, fits, fits.fold_predictions(row)[0]), None
    return interval_atoms(method, fits), float(fits.full_model.predict(row)[0])


def interval(
    method: IntervalMethod,
    fits: FoldFits,
    xnew,
    alpha1: float,
    alpha2: float,
    delta: float = 0.0,
) -> PredInterval:
    """The delta-distorted interval at ``xnew`` with nominal coverage alpha2 - alpha1."""
    return interval_at_row(method, fits, feature_row(xnew, fits.train.p), alpha1, alpha2, delta)


def interval_at_row(
    method: IntervalMethod,
    fits: FoldFits,
    row: np.ndarray,
    alpha1: float,
    alpha2: float,
    delta: float = 0.0,
) -> PredInterval:
    """:func:`interval` at the test point ``row = feature_row(xnew, p)``,
    checked once by a caller that takes several intervals there."""
    atoms, center = _at_row(method, fits, row)
    lo, hi = interval_ends(method, center, atoms, alpha1, alpha2, delta)
    return PredInterval(float(lo), float(hi))


def shortest_interval(
    method: IntervalMethod,
    fits: FoldFits,
    xnew,
    nominal: float,
    delta: float = 0.0,
):
    """Scan the atom-aligned (alpha1, alpha2) pairs with alpha2 - alpha1 equal
    to ``nominal`` and return ``(alpha1, alpha2, interval)`` of minimum length
    at ``xnew``, ties broken by the smallest alpha1.  The atoms are sorted
    once and every candidate pair is read off that one sort.  A symmetrized
    cv or fitted_values interval is centered with a radius set by ``nominal``
    alone, so its levels are not identified: every candidate ties and the
    scan returns (0, nominal)."""
    check_nominal(nominal)
    atoms, center = _at_row(method, fits, feature_row(xnew, fits.train.p))
    top = 1.0 - nominal
    cum = atoms.cum[atoms.run_ends()]  # a StepCdf's cum
    cand = np.concatenate(([0.0, top], cum[cum <= top], cum[cum >= nominal] - nominal))
    a1 = np.unique(np.clip(cand, 0.0, top))
    lo, hi = interval_ends(method, center, atoms, a1, a1 + nominal, delta)
    # as PredInterval.length, with an empty interval of length 0
    best = int(np.argmin(np.where(lo > hi, 0.0, hi - lo)))
    return float(a1[best]), float(a1[best]) + nominal, PredInterval(float(lo[best]), float(hi[best]))


def coverage_ceiling(fits: FoldFits, alpha1: float, alpha2: float, delta: float) -> float:
    """Computable upper diagnostic F(Q_{a2} + 2d) - F((Q_{a1} - 2d)-) on the
    leave-fold-out residual ecdf; compare it to alpha2 - alpha1."""
    if not delta > 0:
        raise InvalidTolerance("delta must be positive")
    F = weighted_ecdf(fits.loo_residuals, fits.partition.atom_units, fits.partition.unit_total)
    q1 = quantile(F, alpha1)
    q2 = quantile(F, alpha2)
    return eval_cdf(F, q2 + 2 * delta) - left_limit(F, q1 - 2 * delta)
