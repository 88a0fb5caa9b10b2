"""Monte-Carlo experiments for conditional coverage, CV/CV+ equivalence,
interval length, and gauge convergence at desk scale.

Coverage is evaluated with a fresh-test-point oracle: freeze the training
set, draw test pairs, and count hits of the per-test-point interval.  Fold
fits are cached per training set (they do not depend on the test point), and
the per-point interval endpoints are computed vectorized with exactly the
same quantile semantics and floating-point operation order as
:func:`cvuq.intervals.interval`.

``delta`` arguments accept a float, a string ``"iqr:FACTOR"`` (factor times
the interquartile range of the leave-fold-out residuals), or a callable
mapping the residual vector to a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DgpSpec
from .ecdf import LEVEL_GUARD, ceil_guarded, fold_ecdf, quantile, uniform_ecdf
from .errors import InvalidTolerance
from .intervals import IntervalMethod, interval
from .levy_gauge import gauge
from .predictors import FoldFits
from .rng import indexed_map, stream
from .stability import equivalence_bound, resolve_partition


def resolve_delta(delta, residuals) -> float:
    if callable(delta):
        return float(delta(residuals))
    if isinstance(delta, str):
        kind, _, factor = delta.partition(":")
        if kind != "iqr" or not factor:
            raise InvalidTolerance(f"cannot parse delta rule {delta!r}")
        q75, q25 = np.quantile(residuals, [0.75, 0.25])
        return float(factor) * float(q75 - q25)
    return float(delta)


class CoverageEngine:
    """Vectorized per-test-point interval coverage for one training set."""

    def __init__(self, fits: FoldFits):
        self.fits = fits
        self.partition = fits.partition
        self.u = fits.loo_residuals
        sizes = np.array([f.size for f in self.partition.folds])
        self.atom_weights = (1.0 / (self.partition.k * sizes))[self.partition.fold_of]
        self.equal_weights = bool(np.all(sizes == sizes[0]))

    def residual_quantile(self, alpha: float, absolute: bool = False) -> float:
        values = np.abs(self.u) if absolute else self.u
        return quantile(fold_ecdf([values[f] for f in self.partition.folds]), alpha)

    def fitted_residuals(self) -> np.ndarray:
        return self.fits.train.y - self.fits.fitted_values()

    def prepare(self, x_test: np.ndarray) -> "PreparedTests":
        """Cache the per-test-set work shared across levels and methods."""
        return PreparedTests(self, np.ascontiguousarray(x_test, dtype=float))

    def endpoints(self, method: IntervalMethod, alpha1: float, alpha2: float, delta, prepared):
        """(lo, hi) arrays over test rows, matching intervals.interval exactly."""
        d = resolve_delta(delta, self.u)
        if method.symmetrized and method.base != "cv_plus":
            if method.base == "cv":
                radius = self.residual_quantile(alpha2 - alpha1, absolute=True) + d
            else:
                radius = quantile(uniform_ecdf(np.abs(self.fitted_residuals())), alpha2 - alpha1) + d
            return prepared.full - radius, prepared.full + radius
        if method.base == "cv":
            lo_off = self.residual_quantile(alpha1)
            hi_off = self.residual_quantile(alpha2)
            return (prepared.full + lo_off) - d, (prepared.full + hi_off) + d
        if method.base == "fitted_values":
            F = uniform_ecdf(self.fitted_residuals())
            return (prepared.full + quantile(F, alpha1)) - d, (prepared.full + quantile(F, alpha2)) + d
        q1 = prepared.row_quantile(alpha1, method.symmetrized)
        q2 = prepared.row_quantile(alpha2, method.symmetrized)
        return q1 - d, q2 + d

    def coverage(self, method, alpha1, alpha2, delta, y_test, prepared) -> float:
        lo, hi = self.endpoints(method, alpha1, alpha2, delta, prepared)
        return float(np.mean((y_test >= lo) & (y_test <= hi)))


class PreparedTests:
    """Lazy per-test-set caches: full predictions, fold-prediction matrix, and
    the row-sorted cv_plus atom matrix reused across quantile levels."""

    def __init__(self, engine: CoverageEngine, x_test: np.ndarray):
        self.engine = engine
        self.x_test = x_test
        self._full = None
        self._P = None
        self._sorted = {}

    @property
    def full(self) -> np.ndarray:
        if self._full is None:
            self._full = np.asarray(self.engine.fits.full_model.predict(self.x_test), dtype=float)
        return self._full

    @property
    def fold_matrix(self) -> np.ndarray:
        if self._P is None:
            self._P = self.engine.fits.fold_predictions(self.x_test)
        return self._P

    def _sorted_atoms(self, absolute: bool):
        if absolute not in self._sorted:
            engine = self.engine
            res = np.abs(engine.u) if absolute else engine.u
            A = self.fold_matrix[:, engine.partition.fold_of] + res[None, :]
            if engine.equal_weights:
                self._sorted[absolute] = (np.sort(A, axis=1), None)
            else:
                order = np.argsort(A, axis=1, kind="stable")
                cums = np.cumsum(engine.atom_weights[order], axis=1)
                cums[:, -1] = 1.0
                self._sorted[absolute] = (np.take_along_axis(A, order, axis=1), cums)
        return self._sorted[absolute]

    def row_quantile(self, alpha: float, absolute: bool = False) -> np.ndarray:
        """Per-row quantile of the cv_plus atoms, same semantics as StepCdf."""
        sorted_A, cums = self._sorted_atoms(absolute)
        m, n = sorted_A.shape
        if alpha <= 0.0:
            return np.full(m, -math.inf)
        if alpha > 1.0:
            return np.full(m, math.inf)
        if cums is None:
            k = min(max(ceil_guarded(alpha * n), 1), n)
            return sorted_A[:, k - 1]
        idx = np.argmax(cums >= alpha - LEVEL_GUARD, axis=1)
        return sorted_A[np.arange(m), idx]


def conditional_coverage(
    spec,
    dgp: DgpSpec,
    train,
    method: IntervalMethod,
    alpha1: float,
    alpha2: float,
    delta,
    mc_test: int,
    seed: int,
    partition_rule="jackknife",
) -> float:
    """P(y in PI | training set), estimated from mc_test fresh test pairs."""
    if mc_test < 1:
        raise InvalidTolerance("mc_test must be at least 1")
    fits = FoldFits(spec, train, resolve_partition(partition_rule, train.n))
    y_test, x_test = dgp.draw(mc_test, stream(seed))
    engine = CoverageEngine(fits)
    return engine.coverage(method, alpha1, alpha2, delta, y_test, engine.prepare(x_test))


@dataclass(frozen=True)
class CoverageReport:
    nominal: float
    conditional_cov: np.ndarray
    mean: float
    q05: float
    q50: float
    q95: float
    mc_test_points: int
    reps: int


def coverage_distribution(
    spec,
    dgp: DgpSpec,
    n: int,
    method: IntervalMethod,
    alpha1: float,
    alpha2: float,
    delta,
    train_reps: int,
    mc_test: int,
    seed: int,
    partition_rule="jackknife",
    threads: int = 1,
) -> CoverageReport:
    """Distribution of the conditional coverage over fresh training sets."""
    partition = resolve_partition(partition_rule, n)

    def one(r: int) -> float:
        train = dgp.sample(n, stream(seed, r, 0))
        fits = FoldFits(spec, train, partition)
        y_test, x_test = dgp.draw(mc_test, stream(seed, r, 1))
        engine = CoverageEngine(fits)
        return engine.coverage(method, alpha1, alpha2, delta, y_test, engine.prepare(x_test))

    cov = np.array(indexed_map(one, train_reps, threads))
    q05, q50, q95 = np.quantile(cov, [0.05, 0.5, 0.95])
    return CoverageReport(
        nominal=alpha2 - alpha1,
        conditional_cov=cov,
        mean=float(cov.mean()),
        q05=float(q05),
        q50=float(q50),
        q95=float(q95),
        mc_test_points=mc_test,
        reps=train_reps,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-training-set CV vs CV+ conditional coverages plus the finite-sample
    equivalence check: the frequency of the coverage-deficit event must stay
    below the stability-based bound."""

    cov_cv: np.ndarray
    cov_cvp: np.ndarray
    sup_gap: float
    q95_gap: float
    event_freq: float
    event_std_err: float
    bound: float
    stability_delta: float
    eps: float
    fold_exceed: np.ndarray


# (alpha1, alpha2) pairs over which the equivalence event takes its infimum
DEFAULT_PAIR_GRID = ((0.0, 0.9), (0.05, 0.95), (0.1, 0.9), (0.25, 0.75), (0.1, 1.0), (0.5, 0.99))


def jk_vs_jkplus_gap(
    spec,
    dgp: DgpSpec,
    n: int,
    alpha1: float,
    alpha2: float,
    delta,
    train_reps: int,
    mc_test: int,
    seed: int,
    partition_rule="jackknife",
    eps: float = 0.05,
    stability_delta="iqr:0.1",
    pair_grid=DEFAULT_PAIR_GRID,
    threads: int = 1,
) -> EquivalenceReport:
    """Jackknife vs Jackknife+ (general CV vs CV+) on identical bundles."""
    partition = resolve_partition(partition_rule, n)
    cv = IntervalMethod("cv")
    cvp = IntervalMethod("cv_plus")

    def one(r: int):
        train = dgp.sample(n, stream(seed, r, 0))
        fits = FoldFits(spec, train, partition)
        engine = CoverageEngine(fits)
        y_test, x_test = dgp.draw(mc_test, stream(seed, r, 1))
        prepared = engine.prepare(x_test)
        d = resolve_delta(delta, engine.u)
        d_stab = resolve_delta(stability_delta, engine.u)
        c_j = engine.coverage(cv, alpha1, alpha2, d, y_test, prepared)
        c_jp = engine.coverage(cvp, alpha1, alpha2, d, y_test, prepared)
        # per-fold exceedance of the stability tolerance across test points
        diffs = np.abs(prepared.full[:, None] - prepared.fold_matrix)
        exceed = (diffs > d_stab).mean(axis=0)
        # equivalence-deficit event: CV at widened levels and inflated
        # distortion falls short of CV+ by eps somewhere on the pair grid
        worst = math.inf
        for b1, b2 in pair_grid:
            c_infl = engine.coverage(cv, b1 - eps, b2 + eps, d_stab, y_test, prepared)
            c_plus = engine.coverage(cvp, b1, b2, 0.0, y_test, prepared)
            worst = min(worst, c_infl - c_plus)
        return c_j, c_jp, worst <= -eps, exceed, d_stab

    results = indexed_map(one, train_reps, threads)
    cov_cv = np.array([r[0] for r in results])
    cov_cvp = np.array([r[1] for r in results])
    events = np.array([r[2] for r in results], dtype=float)
    fold_exceed = np.mean(np.stack([r[3] for r in results]), axis=0)
    d_stab = float(np.mean([r[4] for r in results]))
    gaps = np.abs(cov_cv - cov_cvp)
    freq = float(events.mean())
    se = float(math.sqrt(max(freq * (1 - freq), 1e-12) / train_reps))
    bound = equivalence_bound(partition.k, eps, d_stab, fold_exceed)
    return EquivalenceReport(
        cov_cv=cov_cv,
        cov_cvp=cov_cvp,
        sup_gap=float(gaps.max()),
        q95_gap=float(np.quantile(gaps, 0.95)),
        event_freq=freq,
        event_std_err=se,
        bound=float(bound),
        stability_delta=d_stab,
        eps=eps,
        fold_exceed=fold_exceed,
    )


@dataclass(frozen=True)
class LengthReport:
    kinds: tuple
    lengths_cv: dict
    lengths_cvp: dict


def length_compare(
    specs,
    dgp: DgpSpec,
    n: int,
    nominal: float,
    train_reps: int,
    seed: int,
    alpha1: float | None = None,
    threads: int = 1,
) -> LengthReport:
    """Per-replication Jackknife vs Jackknife+ interval lengths for each spec."""
    if not 0 < nominal <= 1:
        raise InvalidTolerance("nominal must be in (0, 1]")
    a1 = (1.0 - nominal) / 2.0 if alpha1 is None else alpha1
    a2 = a1 + nominal
    partition = resolve_partition("jackknife", n)
    cv = IntervalMethod("cv")
    cvp = IntervalMethod("cv_plus")

    def one(r: int):
        train = dgp.sample(n, stream(seed, r, 0))
        _, xs = dgp.draw(1, stream(seed, r, 1))
        out = []
        for spec in specs:
            bundle = FoldFits(spec, train, partition).bundle_at(xs[0])
            out.append((interval(cv, bundle, a1, a2).length, interval(cvp, bundle, a1, a2).length))
        return out

    results = indexed_map(one, train_reps, threads)
    names = [getattr(s, "kind", f"spec{i}") for i, s in enumerate(specs)]
    lengths_cv = {name: np.array([res[i][0] for res in results]) for i, name in enumerate(names)}
    lengths_cvp = {name: np.array([res[i][1] for res in results]) for i, name in enumerate(names)}
    return LengthReport(tuple(names), lengths_cv, lengths_cvp)


@dataclass(frozen=True)
class TrendReport:
    n_grid: tuple
    mean: np.ndarray
    std_err: np.ndarray
    per_rep: np.ndarray  # (len(n_grid), reps)


def _trend(n_grid, train_reps: int, threads: int, rep_at) -> TrendReport:
    """Evaluate ``rep_at(n)``, a function of the replication index, for
    ``train_reps`` replications at every training size in ``n_grid``."""
    n_grid = tuple(int(n) for n in n_grid)
    per_rep = np.stack([np.array(indexed_map(rep_at(n), train_reps, threads)) for n in n_grid])
    return TrendReport(
        n_grid=n_grid,
        mean=per_rep.mean(axis=1),
        std_err=per_rep.std(axis=1, ddof=1) / math.sqrt(train_reps),
        per_rep=per_rep,
    )


def gauge_convergence(
    spec,
    dgp: DgpSpec,
    n_grid,
    delta: float,
    train_reps: int,
    mc_oracle: int,
    seed: int,
    threads: int = 1,
) -> TrendReport:
    """Mean gauge between the leave-one-out residual ecdf and an oracle ecdf
    of fresh prediction errors, per training size.

    Replications share streams across n (nested samples), so trend
    comparisons use common random numbers.
    """

    def rep_at(n: int):
        partition = resolve_partition("jackknife", n)

        def one(r: int) -> float:
            train = dgp.sample(n, stream(seed, r, 0))
            fits = FoldFits(spec, train, partition)
            F_hat = fold_ecdf([fits.loo_residuals[f] for f in partition.folds])
            y_o, x_o = dgp.draw(mc_oracle, stream(seed, r, 1))
            errors = y_o - fits.full_model.predict(x_o)
            return gauge(F_hat, uniform_ecdf(errors), delta).value

        return one

    return _trend(n_grid, train_reps, threads, rep_at)


def sqrt_n_family(base: DgpSpec):
    """DGP family n -> base with its noise scale multiplied by sqrt(n)."""
    if base.kind not in ("gaussian_linear", "student_linear"):
        raise InvalidTolerance("sqrt_n scaling needs a linear-noise dgp")

    def family(n: int) -> DgpSpec:
        params = dict(base.params)
        params["sigma"] = float(params.get("sigma", 1.0)) * math.sqrt(n)
        return DgpSpec(base.kind, params)

    return family


def constant_family(base: DgpSpec):
    return lambda n: base


def infinite_length_probe(
    spec,
    dgp_family,
    n_grid,
    nominal: float,
    train_reps: int,
    seed: int,
    threads: int = 1,
) -> TrendReport:
    """Mean symmetrized-Jackknife interval length per training size for a DGP
    family whose error scale may grow with n."""
    method = IntervalMethod("cv", symmetrized=True)

    def rep_at(n: int):
        dgp = dgp_family(n)
        partition = resolve_partition("jackknife", n)

        def one(r: int) -> float:
            train = dgp.sample(n, stream(seed, r, 0))
            _, xs = dgp.draw(1, stream(seed, r, 1))
            bundle = FoldFits(spec, train, partition).bundle_at(xs[0])
            return interval(method, bundle, 0.0, nominal).length

        return one

    return _trend(n_grid, train_reps, threads, rep_at)


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
