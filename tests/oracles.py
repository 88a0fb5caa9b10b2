"""Independent reference implementations used as test oracles.

These deliberately avoid the library's breakpoint algorithms: the gauge
oracles scan a dense grid or merge and re-sort both jump sets, the Levy
metric oracle bisects the defining infimum, the sandwich oracle bisects the
quantile characterization, the
leave-fold-out oracles refit the predictor once per fold (ridge also by
orthogonal least squares, without normal equations), and the coverage
oracles build every test point's interval, from a validated step cdf or by
sorting each row of cv_plus atoms, with each cumulative weight an exact
integer sum over the least common denominator, rounded once; the integer
reach of a level bisects its defining float test.  ``merged_ecdf`` builds a step cdf by
merging equal atoms before it sums their weights, and ``ReadCountingDict``
counts the reads of a spec's parameters.
"""

from __future__ import annotations

import math

import numpy as np

from cvuq.ecdf import LEVEL_GUARD, StepCdf, eval_cdf, quantile, quantiles
from cvuq.intervals import PredInterval
from cvuq.predictors import FoldPartition, fit


class ReadCountingDict(dict):
    """A parameter dict that counts the reads of its entries."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)


def merged_ecdf(values, weights) -> StepCdf:
    """The weighted ecdf with equal atoms merged by ``np.unique`` and
    ``np.bincount`` before the cumulative sum."""
    jumps, inverse = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    cum = np.cumsum(np.bincount(inverse, weights=weights, minlength=jumps.size))
    cum[-1] = 1.0
    return StepCdf(jumps, cum)


def ceil_guarded(x: float, guard: float = LEVEL_GUARD) -> int:
    """ceil(x), except values within ``guard`` of an integer round to it.

    Avoids off-by-one jumps at levels like 0.9*n whose floating-point product
    lands a hair above the intended integer.
    """
    nearest = round(x)
    if abs(x - nearest) <= guard:
        return int(nearest)
    return int(math.ceil(x))


def least_reach(alpha: float, total: int) -> float:
    """The least C in [1, W] with fl(C / W) >= alpha - LEVEL_GUARD, by
    bisection, since the test is monotone in C; -inf for alpha <= 0 and +inf
    for alpha > 1."""
    if alpha <= 0:
        return -math.inf
    if alpha > 1:
        return math.inf
    lo, hi = 1, total
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid / total >= alpha - LEVEL_GUARD else (mid + 1, hi)
    return lo


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


def _one_side(F: StepCdf, G: StepCdf, delta: float):
    # sup_t F(t) - G(t + delta), attained at a jump of F or a shifted jump of G
    candidates = np.union1d(F.jumps, G.jumps - delta)
    diffs = eval_cdf(F, candidates) - eval_cdf(G, candidates + delta)
    best = int(np.argmax(diffs))
    return float(diffs[best]), float(candidates[best])


def union_gauge(F: StepCdf, G: StepCdf, delta: float) -> tuple[float, float, str]:
    """(value, witness_t, side) of the gauge at finite ``delta >= 0``, each
    one-sided sup taken over the merged and re-sorted candidates
    ``np.union1d(F.jumps, G.jumps - delta)``, first maximizer in that order."""
    v_fg, t_fg = _one_side(F, G, delta)
    v_gf, t_gf = _one_side(G, F, delta)
    if v_fg >= v_gf:
        return max(v_fg, 0.0), t_fg, "F_over_G"
    return max(v_gf, 0.0), t_gf, "G_over_F"


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


def unequal_folds(n: int) -> FoldPartition:
    """A callable partition rule: non-contiguous folds of sizes 3, 2 and 5 (n = 10)."""
    return FoldPartition(([0, 3, 7], [1, 8], [2, 4, 5, 6, 9]), n)


def fold_denominators(part) -> np.ndarray:
    """Per row, the d with the row's atom weight 1/d: k times its fold's size."""
    sizes = np.array([f.size for f in part.folds])
    return (part.k * sizes)[part.fold_of]


def exact_ecdf(values, denominators) -> StepCdf:
    """Step cdf of atoms weighing 1/d, d each atom's entry of ``denominators``,
    with every cumulative weight summed exactly, as integers over the least
    common denominator, and rounded once."""
    total = math.lcm(*set(denominators.tolist()))
    order = np.argsort(values, kind="stable")
    jumps, cum = values[order], np.cumsum((total // denominators)[order])
    assert cum[-1] == total <= 2**53  # the weights sum to 1, and every sum is exact
    last = np.append(jumps[1:] != jumps[:-1], True)
    return StepCdf(jumps[last], cum[last] / total)


def stepcdf_interval(method, fits, xnew, alpha1, alpha2, delta=0.0) -> PredInterval:
    """:func:`cvuq.intervals.interval` read off a validated :class:`StepCdf`:
    the fold ecdf of the atoms (the uniform ecdf for fitted values), with
    exact cumulative weights rounded once (:func:`exact_ecdf`), and
    :func:`cvuq.ecdf.quantile` on its merged jumps."""
    part = fits.partition
    row = np.asarray(xnew, dtype=float).reshape(1, -1)
    full = float(fits.full_model.predict(row)[0])
    if method.base == "fitted_values":
        res, denominators = fits.train.y - fits.fitted_values(), np.full(part.n, part.n)
    else:
        res, denominators = fits.loo_residuals, fold_denominators(part)

    def ecdf(values):
        return exact_ecdf(values, denominators)

    if method.symmetrized:
        res = np.abs(res)
    if method.symmetrized and method.base != "cv_plus":
        radius = quantile(ecdf(res), alpha2 - alpha1) + delta
        return PredInterval(full - radius, full + radius)
    if method.base == "cv_plus":
        F = ecdf(fits.fold_predictions(row)[0][part.fold_of] + res)
    else:
        F = ecdf(full + res)
    return PredInterval(quantile(F, alpha1) - delta, quantile(F, alpha2) + delta)


def per_point_coverage(fits, method, alpha1, alpha2, delta, x_test, y_test) -> float:
    """Coverage from one :func:`stepcdf_interval` per test point."""
    hits = 0
    for y, x in zip(y_test, x_test):
        hits += stepcdf_interval(method, fits, x, alpha1, alpha2, delta).contains(y)
    return hits / y_test.size


def sorted_atom_coverage(fits, alpha1, alpha2, delta, x_test, y_test, absolute=False) -> float:
    """cv_plus coverage by sorting each test point's atom row and reading the
    quantiles off it: the first atom whose cumulative fold weight, summed
    exactly and rounded once, reaches the level."""
    part = fits.partition
    res = np.abs(fits.loo_residuals) if absolute else fits.loo_residuals
    A = fits.fold_predictions(x_test)[:, part.fold_of] + res[None, :]
    m = A.shape[0]
    denominators = fold_denominators(part)
    total = math.lcm(*set(denominators.tolist()))
    order = np.argsort(A, axis=1, kind="stable")
    cums = np.cumsum((total // denominators)[order], axis=1) / total
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


def isotonic_trend_ok(values, std_errs, direction: str, sigmas: float = 3.0) -> bool:
    """Monotone-trend check across a grid, slack of `sigmas` combined errors."""
    values = np.asarray(values, dtype=float)
    std_errs = np.asarray(std_errs, dtype=float)
    sign = 1.0 if direction == "increasing" else -1.0
    for i in range(values.size - 1):
        slack = sigmas * math.hypot(std_errs[i], std_errs[i + 1])
        if sign * (values[i + 1] - values[i]) < -slack:
            return False
    return True
