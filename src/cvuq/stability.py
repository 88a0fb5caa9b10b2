"""Monte-Carlo estimators for out-of-sample stability quantities and
evaluators for the finite-sample coverage/equivalence bounds.

Every estimator reports a standard error next to its value; downstream checks
use 3-sigma bands.  Replications are keyed by index (see :mod:`cvuq.rng`), so
results do not depend on the worker count, and samples drawn at different n
under the same seed share their leading rows (nested common random numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DgpSpec, TrainingSet
from .errors import InnerTooSmall, InvalidTolerance, TooFewRows
from .predictors import FoldFits, FoldPartition, fit
from .rng import indexed_map, stream


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_err: float

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class StabilityProfile:
    """Per-epsilon exceedance probabilities of |yhat - yhat^{fold}| plus the
    mean absolute difference, averaged over folds and replications."""

    eps_grid: np.ndarray
    exceed_prob: np.ndarray
    exceed_std_err: np.ndarray
    mean_abs: McEstimate
    reps: int


def resolve_partition(rule, n: int) -> FoldPartition:
    """Accept 'jackknife'/None, a fold count, or a callable n -> partition."""
    if rule is None or rule == "jackknife":
        return FoldPartition.singletons(n)
    if isinstance(rule, int):
        return FoldPartition.singletons(n) if rule >= n else FoldPartition.contiguous(n, rule)
    if callable(rule):
        return rule(n)
    raise InvalidTolerance(f"cannot interpret partition rule {rule!r}")


def se_of_mean(values, axis: int = 0) -> np.ndarray:
    """Standard error of the mean of ``values`` along ``axis``: the sample
    standard deviation over sqrt(replications), or inf from fewer than two."""
    values = np.asarray(values, dtype=float)
    reps = values.shape[axis]
    if reps < 2:
        return np.full(np.delete(values.shape, axis), math.inf)
    with np.errstate(invalid="ignore"):  # an infinite value has a NaN deviation: a result, not a fault
        return values.std(axis=axis, ddof=1) / math.sqrt(reps)


def _mean_se(values) -> McEstimate:
    return McEstimate(float(np.mean(values)), float(se_of_mean(values)))


def _draw_train_and_x(dgp: DgpSpec, n: int, rng) -> tuple[TrainingSet, np.ndarray]:
    """A training set of n rows and a test point after it, from one draw of
    n + 1 rows: by the prefix rule the bits of ``dgp.sample(n, rng)`` and
    then ``dgp.draw(1, rng)``."""
    if n < 2:  # sample()'s check, made before any row is drawn
        raise TooFewRows("a sampled training set needs n >= 2")
    y, x = dgp.draw(n + 1, rng)
    return TrainingSet(y[:n], x[:n]), x[n]


def oos_stability_profile(
    spec,
    dgp: DgpSpec,
    n: int,
    partition_rule,
    eps_grid,
    reps: int,
    seed: int,
    threads: int = 1,
) -> StabilityProfile:
    """Estimate (1/k) sum_j P(|yhat_{n+1} - yhat^{fold j}| >= eps) on a grid
    of eps values, together with the fold-averaged mean absolute difference."""
    if reps < 1:
        raise InvalidTolerance("reps must be at least 1")
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.isnan(eps_grid).any():
        raise InvalidTolerance(f"eps_grid must hold numbers, got {eps_grid.tolist()}")
    partition = resolve_partition(partition_rule, n)

    def one(r: int):
        rng = stream(seed, r)
        train, xnew = _draw_train_and_x(dgp, n, rng)
        fits = FoldFits(spec, train, partition)
        d = np.abs(fits.full_model.predict_one(xnew) - fits.fold_predictions(xnew[None])[0])
        return np.mean(d[None, :] >= eps_grid[:, None], axis=1), float(np.mean(d))

    results = indexed_map(one, reps, threads)
    exceed = np.stack([r[0] for r in results])  # (reps, n_eps)
    mean_abs = np.array([r[1] for r in results])
    return StabilityProfile(eps_grid, exceed.mean(axis=0), se_of_mean(exceed), _mean_se(mean_abs), reps)


def m_stability(spec, dgp: DgpSpec, n: int, m: int, reps: int, seed: int, threads: int = 1) -> McEstimate:
    """Expected |A(x, T_{n+m-1}) - A(x, T_{n-1})| where the augmented sample
    extends the base sample by m rows and x is a fresh feature draw."""
    if m < 1:
        raise InvalidTolerance("m must be at least 1")

    def one(r: int) -> float:
        rng = stream(seed, r)
        data = dgp.sample(n + m, rng)
        small = data.head(n - 1)
        big = data.head(n + m - 1)
        x = data.x[n + m - 1]
        return abs(fit(spec, big).predict_one(x) - fit(spec, small).predict_one(x))

    return _mean_se(np.array(indexed_map(one, reps, threads)))


def pac_bound_cv(
    delta: float,
    eps: float,
    L: float,
    est_pred_err_tail: float,
    est_pred_err_abs: float,
    est_stability_terms,
    est_stability_trunc=None,
) -> tuple[float, float]:
    """Finite-sample lower bounds for the probability that CV conditional
    coverage stays within 2*eps of nominal, from externally estimated inputs.

    ``est_pred_err_tail`` estimates P(|y - yhat - mu| >= L) and
    ``est_pred_err_abs`` estimates E|y - yhat - mu|, for a centering mu that
    enters the bounds only through them; ``est_stability_terms`` holds the
    per-fold E|yhat - yhat^{fold}|, so its length is the fold count k.  The
    truncated bound wants per-fold E min(2L + 3*delta, |.|); when
    ``est_stability_trunc`` is omitted the plain absolute terms are used,
    which can only loosen the bound.  Every input must be a number (not
    NaN).  Returns ``(bound_trunc, bound_abs)``, both clamped to at most 1.
    """
    if not (delta > 0 and eps > 0):
        raise InvalidTolerance("delta and eps must be positive")
    if not L >= 0:
        raise InvalidTolerance("L must be nonnegative")
    stab_abs = np.asarray(est_stability_terms, dtype=float)
    stab_trunc = stab_abs if est_stability_trunc is None else np.asarray(est_stability_trunc, dtype=float)
    k = stab_abs.size
    if k < 1 or stab_trunc.size != k:
        raise InvalidTolerance("need at least one fold and one stability term per fold")
    if np.isnan([est_pred_err_tail, est_pred_err_abs]).any() or np.isnan(stab_abs).any() or np.isnan(stab_trunc).any():
        raise InvalidTolerance("prediction-error and stability estimates must be numbers")
    bound_trunc = (
        1.0
        - 2.0 * est_pred_err_tail / eps
        - (8.0 * L + 12.0 * delta) / (k * delta * eps**2)
        - 4.0 * (5.0 * k + 1.0) / (k**2 * delta * eps**2) * float(np.sum(np.minimum(stab_trunc, 2 * L + 3 * delta)))
    )
    bound_abs = (
        1.0
        - est_pred_err_abs / (k * delta * eps**2)
        - (5.0 * k + 1.0) / (k**2 * delta * eps**2) * float(np.sum(stab_abs))
    )
    return min(bound_trunc, 1.0), min(bound_abs, 1.0)


def equivalence_bound(eps: float, delta: float, exceed_probs) -> float:
    """CV vs CV+ finite-sample bound (1/(k*eps^2)) * sum_j P(|yhat - yhat^{fold j}| > delta)
    from the k per-fold probabilities ``exceed_probs``."""
    if not eps > 0:
        raise InvalidTolerance("eps must be positive")
    if not delta >= 0:
        raise InvalidTolerance("delta must be nonnegative")
    probs = np.asarray(exceed_probs, dtype=float)
    if probs.size < 1 or not np.all((probs >= 0) & (probs <= 1)):
        raise InvalidTolerance("need one probability in [0, 1] per fold")
    return float(np.sum(probs) / (probs.size * eps**2))


def variance_gap(spec, dgp: DgpSpec, n: int, reps: int, seed: int, threads: int = 1) -> McEstimate:
    """Var(yhat on n rows) - Var(yhat on n-1 rows) with common random numbers.

    For a symmetric predictor every leave-one-out prediction is distributed
    like the (n-1)-row predictor, so each replication contributes all n of
    them; this collapses the heavy-tailed single-increment noise.
    """
    partition = FoldPartition.singletons(n)

    def one(r: int):
        rng = stream(seed, r)
        train, x = _draw_train_and_x(dgp, n, rng)
        fits = FoldFits(spec, train, partition)
        pred_n = fits.full_model.predict_one(x)
        loo = fits.fold_predictions(x.reshape(1, -1))[0]
        return pred_n, pred_n**2, float(loo.mean()), float(np.mean(loo**2))

    cols = np.array(indexed_map(one, reps, threads))

    def gap_of(rows: np.ndarray) -> float:
        m1, m2, l1, l2 = rows.mean(axis=0)
        return (m2 - m1**2) - (l2 - l1**2)

    batches = np.array_split(cols, min(25, max(2, reps // 50)))
    return McEstimate(gap_of(cols), float(se_of_mean([gap_of(b) for b in batches if b.shape[0] > 1])))


def update_drift(
    spec,
    dgp: DgpSpec,
    n: int,
    outer_reps: int,
    inner_reps: int,
    seed: int,
    threads: int = 1,
) -> McEstimate:
    """Nested Monte Carlo for E[(E[yhat_{n+1} | T_{n-1}, x] - yhat^{leave-last})^2].

    The inner average over fresh n-th rows estimates the conditional mean; its
    squared difference from the leave-last prediction is debiased by
    Var(inner) / inner_reps.
    """
    if inner_reps < 2:
        raise InnerTooSmall("inner_reps must be at least 2")

    def one(r: int) -> float:
        rng = stream(seed, r, 0)
        base, x = _draw_train_and_x(dgp, n - 1, rng)
        b = fit(spec, base).predict_one(x)
        inner_rng = stream(seed, r, 1)
        ys, xs = dgp.draw(inner_reps, inner_rng)
        preds = np.empty(inner_reps)
        for t in range(inner_reps):
            aug = TrainingSet(np.append(base.y, ys[t]), np.vstack([base.x, xs[t]]))
            preds[t] = fit(spec, aug).predict_one(x)
        return float((preds.mean() - b) ** 2 - np.var(preds, ddof=1) / inner_reps)

    return _mean_se(np.array(indexed_map(one, outer_reps, threads)))
