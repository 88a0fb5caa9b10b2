"""Independent reference implementations used as test oracles.

These deliberately avoid the library's breakpoint algorithms: the gauge
oracle scans a dense grid, the Levy metric oracle bisects the defining
infimum, the sandwich oracle bisects the quantile characterization, the
leave-fold-out oracles refit the predictor once per fold (ridge also by
orthogonal least squares, without normal equations), and the coverage
oracles build every test point's interval, from a validated step cdf or by
sorting each row of cv_plus atoms.
"""

from __future__ import annotations

import math

import numpy as np

from cvuq.ecdf import LEVEL_GUARD, StepCdf, fold_ecdf, quantile, quantiles, uniform_ecdf
from cvuq.intervals import PredInterval
from cvuq.predictors import fit


def ceil_guarded(x: float, guard: float = LEVEL_GUARD) -> int:
    """ceil(x), except values within ``guard`` of an integer round to it.

    Avoids off-by-one jumps at levels like 0.9*n whose floating-point product
    lands a hair above the intended integer.
    """
    nearest = round(x)
    if abs(x - nearest) <= guard:
        return int(nearest)
    return int(math.ceil(x))


def eval_many(F: StepCdf, t: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(F.jumps, t, side="right")
    padded = np.concatenate(([0.0], F.cum))
    return padded[idx]


def random_step_cdf(rng: np.random.Generator, max_atoms: int = 25, lattice: bool = False) -> StepCdf:
    """Random step cdf; with ``lattice=True`` values land on 0.25 multiples so
    exact ties across two cdfs occur."""
    m = int(rng.integers(1, max_atoms + 1))
    values = rng.normal(0.0, 2.0, size=m)
    if lattice:
        values = np.round(values * 4.0) / 4.0
    values = np.unique(values)
    weights = rng.exponential(1.0, size=values.size)
    weights /= weights.sum()
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return StepCdf(values, cum)


def grid_gauge(F: StepCdf, G: StepCdf, delta: float, num: int = 100_000, pad: float = 1.0) -> float:
    """Brute-force sup over a dense uniform grid of t values."""
    lo = min(F.jumps[0], G.jumps[0]) - delta - pad
    hi = max(F.jumps[-1], G.jumps[-1]) + delta + pad
    t = np.linspace(lo, hi, num)
    d1 = eval_many(F, t) - eval_many(G, t + delta)
    d2 = eval_many(G, t) - eval_many(F, t + delta)
    return max(0.0, float(d1.max()), float(d2.max()))


def supnorm_scan(F: StepCdf, G: StepCdf) -> float:
    """Kolmogorov distance by direct scan over both jump sets."""
    t = np.union1d(F.jumps, G.jumps)
    return float(np.max(np.abs(eval_many(F, t) - eval_many(G, t))))


def _feasible_levy(F: StepCdf, G: StepCdf, eps: float) -> bool:
    # F(t - eps) - eps <= G(t) <= F(t + eps) + eps for all t, checked on the
    # breakpoints of both one-sided difference functions.
    t = np.union1d(np.union1d(F.jumps, G.jumps - eps), np.union1d(G.jumps, F.jumps - eps))
    d1 = eval_many(F, t) - eval_many(G, t + eps)
    d2 = eval_many(G, t) - eval_many(F, t + eps)
    return max(float(d1.max()), float(d2.max())) <= eps


def levy_metric(F: StepCdf, G: StepCdf, tol: float = 1e-13) -> float:
    """Classical Levy metric via bisection of its defining infimum."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _feasible_levy(F, G, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _sandwich_holds(F: StepCdf, G: StepCdf, delta: float, eps: float) -> bool:
    # Q_{a-eps}(F) - delta <= Q_a(G) <= Q_{a+eps}(F) + delta for all a.  The
    # three quantile curves are piecewise constant and left-continuous in a,
    # so checking every piece's right endpoint is exhaustive.
    levels = np.concatenate(([0.0, 1.0], F.cum, G.cum))
    alphas = np.unique(np.concatenate((levels, levels + eps, levels - eps)))
    qg = quantiles(G, alphas)
    lo = quantiles(F, alphas - eps)
    hi = quantiles(F, alphas + eps)
    lo = np.where(np.isfinite(lo), lo - delta, lo)
    hi = np.where(np.isfinite(hi), hi + delta, hi)
    return bool(np.all(lo <= qg) and np.all(qg <= hi))


def sandwich_inf_eps(F: StepCdf, G: StepCdf, delta: float, tol: float = 1e-13) -> float:
    """Smallest eps for which the quantile sandwich holds at all levels."""
    lo, hi = 0.0, 1.0
    if _sandwich_holds(F, G, delta, 0.0):
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _sandwich_holds(F, G, delta, mid):
            hi = mid
        else:
            lo = mid
    return hi


def jackknife_formula(u, yhat, a1, a2, delta) -> PredInterval:
    """Independent oracle: yhat + [u_(ceil(a1 n)) - d, u_(ceil(a2 n)) + d]."""
    s = np.sort(np.asarray(u, dtype=float))
    n = s.size

    def q(a):
        if a <= 0:
            return -math.inf
        if a > 1:
            return math.inf
        return float(s[ceil_guarded(a * n) - 1])

    return PredInterval(yhat + q(a1) - delta, yhat + q(a2) + delta)


def feasible_levy(F: StepCdf, G: StepCdf, eps: float) -> bool:
    """Public wrapper used by bracket checks."""
    return _feasible_levy(F, G, eps)


def sandwich_holds(F: StepCdf, G: StepCdf, delta: float, eps: float) -> bool:
    return _sandwich_holds(F, G, delta, eps)


def refit_leave_fold_out(spec, train, partition, X) -> tuple[np.ndarray, np.ndarray]:
    """Naive leave-fold-out fits: refit on the rows outside each fold.

    Returns the leave-fold-out residuals and the (m, k) matrix of per-fold
    predictions at the rows of ``X``.
    """
    keep_all = np.arange(train.n)
    resid = np.empty(train.n)
    cols = []
    for f in partition.folds:
        model = fit(spec, train.subset(np.delete(keep_all, f)))
        resid[f] = train.y[f] - model.predict(train.x[f])
        cols.append(model.predict(X))
    return resid, np.column_stack(cols)


def lstsq_refit_leave_fold_out(lam, train, partition, X) -> tuple[np.ndarray, np.ndarray]:
    """Leave-fold-out ridge fits by orthogonal least squares, never forming
    normal equations: each fold solves min |[X_keep; sqrt(lam n_keep) I] b -
    [y_keep; 0]| with ``np.linalg.lstsq``.  Same returns as
    :func:`refit_leave_fold_out`.
    """
    keep_all = np.arange(train.n)
    resid = np.empty(train.n)
    cols = []
    for f in partition.folds:
        keep = np.delete(keep_all, f)
        A = np.vstack([train.x[keep], math.sqrt(lam * keep.size) * np.eye(train.p)])
        rhs = np.concatenate([train.y[keep], np.zeros(train.p)])
        beta = np.linalg.lstsq(A, rhs, rcond=None)[0]
        resid[f] = train.y[f] - train.x[f] @ beta
        cols.append(X @ beta)
    return resid, np.column_stack(cols)


def stepcdf_interval(method, bundle, alpha1, alpha2, delta=0.0) -> PredInterval:
    """:func:`cvuq.intervals.interval` read off a validated :class:`StepCdf`:
    the fold ecdf of per-fold atom lists (the uniform ecdf for fitted values)
    and :func:`cvuq.ecdf.quantile` on its merged jumps."""
    part = bundle.partition
    if method.base == "fitted_values":
        res, ecdf = bundle.y - bundle.fitted_values, uniform_ecdf
    else:
        res, ecdf = bundle.loo_residuals, lambda values: fold_ecdf([values[f] for f in part.folds])
    if method.symmetrized:
        res = np.abs(res)
    if method.symmetrized and method.base != "cv_plus":
        radius = quantile(ecdf(res), alpha2 - alpha1) + delta
        return PredInterval(bundle.full_prediction - radius, bundle.full_prediction + radius)
    if method.base == "cv_plus":
        F = ecdf(bundle.fold_predictions_at_xnew[part.fold_of] + res)
    else:
        F = ecdf(bundle.full_prediction + res)
    return PredInterval(quantile(F, alpha1) - delta, quantile(F, alpha2) + delta)


def per_point_coverage(fits, method, alpha1, alpha2, delta, x_test, y_test) -> float:
    """Coverage from one :func:`stepcdf_interval` per test point."""
    hits = 0
    for y, x in zip(y_test, x_test):
        bundle = fits.bundle_at(x, want_fitted=True)
        hits += stepcdf_interval(method, bundle, alpha1, alpha2, delta).contains(y)
    return hits / y_test.size


def sorted_atom_coverage(fits, alpha1, alpha2, delta, x_test, y_test, absolute=False) -> float:
    """cv_plus coverage by sorting each test point's atom row and reading the
    quantiles off it: the first atom whose cumulative fold weight reaches the
    level."""
    part = fits.partition
    res = np.abs(fits.loo_residuals) if absolute else fits.loo_residuals
    A = fits.fold_predictions(x_test)[:, part.fold_of] + res[None, :]
    m = A.shape[0]
    sizes = np.array([f.size for f in part.folds])
    order = np.argsort(A, axis=1, kind="stable")
    cums = np.cumsum((1.0 / (part.k * sizes))[part.fold_of][order], axis=1)
    cums[:, -1] = 1.0
    A = np.take_along_axis(A, order, axis=1)

    def row_quantile(alpha):
        if alpha <= 0.0:
            return np.full(m, -math.inf)
        if alpha > 1.0:
            return np.full(m, math.inf)
        return A[np.arange(m), np.argmax(cums >= alpha - LEVEL_GUARD, axis=1)]

    lo = row_quantile(alpha1) - delta
    hi = row_quantile(alpha2) + delta
    return float(np.mean((y_test >= lo) & (y_test <= hi)))


def dense_fold_exceedance(fits, x_test, delta) -> np.ndarray:
    """Per-fold fraction of test points with |full - fold prediction| > delta,
    from the whole (m, k) difference matrix."""
    full = fits.full_model.predict(x_test)
    return (np.abs(full[:, None] - fits.fold_predictions(x_test)) > delta).mean(axis=0)
