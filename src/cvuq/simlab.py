"""Monte-Carlo experiments for conditional coverage, CV/CV+ equivalence,
interval length, and gauge convergence at desk scale.

Coverage is evaluated with a fresh-test-point oracle: freeze the training
set, draw test pairs, and count hits of the per-test-point interval; every
hit equals that of :func:`cvuq.intervals.interval` exactly.  Both follow one
quantile rule, :func:`cvuq.ecdf.quantiles`: Q_a is the first sorted atom
whose cumulative fold weight reaches a.  The cv and fitted_values offsets
are order statistics of the residuals, sorted once per engine.  The cv_plus
atoms a_j = yhat^{(-fold(j))}(x) + u_j are counted, never sorted: rounding
keeps x -> fl(x -+ d) nondecreasing, so with Q_a the k(a)-th smallest atom

    y >= fl(Q_{a1} - d)  iff  #{j : fl(a_j - d) <= y} >= k(a1),
    y <= fl(Q_{a2} + d)  iff  #{j : fl(a_j + d) <  y} <  k(a2),

the comparison form of the jackknife+ coverage argument (Barber, Candes,
Ramdas and Tibshirani, Ann. Statist. 49(1), 2021).

``delta`` arguments accept a float, a string ``"iqr:FACTOR"`` (factor times
the interquartile range of the leave-fold-out residuals), or a callable
mapping the residual vector to a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DgpSpec
from .ecdf import LEVEL_GUARD, ceil_guarded, uniform_ecdf, weighted_ecdf
from .errors import InvalidTolerance, NumericError
from .intervals import IntervalMethod, interval, interval_atoms, interval_ends
from .levy_gauge import gauge
from .predictors import FoldFits, ResidualBundle
from .rng import indexed_map, stream
from .stability import equivalence_bound, resolve_partition

# Test rows are processed in blocks of about this many cells (256 KiB of
# float64), which keeps them in cache and bounds the kernel's memory.
BLOCK_ATOMS = 1 << 15


def _row_blocks(m: int, width: int):
    step = max(1, BLOCK_ATOMS // width)
    return (slice(s, s + step) for s in range(0, m, step))


def _infinite_end(alpha: float) -> float:
    return math.inf if alpha > 1.0 else -math.inf


def iqr_factor(rule: str) -> float:
    """FACTOR of the delta rule ``"iqr:FACTOR"``, which must be finite."""
    kind, _, text = rule.partition(":")
    try:
        factor = float(text) if kind == "iqr" else math.nan
    except ValueError:
        factor = math.nan
    if not math.isfinite(factor):
        raise InvalidTolerance(f"cannot parse delta rule {rule!r}: use iqr:FACTOR with a finite FACTOR")
    return factor


def resolve_delta(delta, residuals) -> float:
    """The tolerance ``delta`` stands for; a NaN tolerance is a NumericError,
    since every comparison with a NaN interval end is false."""
    if callable(delta):
        d = float(delta(residuals))
    elif isinstance(delta, str):
        factor = iqr_factor(delta)
        q75, q25 = np.quantile(residuals, [0.75, 0.25])
        d = factor * float(q75 - q25)
    else:
        d = float(delta)
    if math.isnan(d):
        raise NumericError(f"delta {delta!r} resolves to NaN")
    return d


class CoverageEngine:
    """Vectorized per-test-point interval coverage for one training set."""

    def __init__(self, fits: FoldFits):
        self.fits = fits
        self.partition = fits.partition
        self.u = fits.loo_residuals
        self.equal_weights = bool(np.all(self.partition.atom_weights == self.partition.atom_weights[0]))
        # the fold-matrix column of each cv_plus atom; None when it is the identity
        fold_of = self.partition.fold_of
        self.columns = None if np.array_equal(fold_of, np.arange(fold_of.size)) else fold_of
        self._offsets = {}

    def prepare(self, x_test: np.ndarray, y_test: np.ndarray) -> "PreparedTests":
        """Cache the per-test-set work shared across levels and methods."""
        return PreparedTests(self, np.ascontiguousarray(x_test, dtype=float), np.asarray(y_test, dtype=float))

    def coverage(self, method: IntervalMethod, alpha1: float, alpha2: float, delta, prepared) -> float:
        """Fraction of the prepared test pairs whose y lies in its interval."""
        d = resolve_delta(delta, self.u)
        if method.base == "cv_plus":
            return float(np.mean(prepared.cv_plus_hits(alpha1, alpha2, d, method.symmetrized)))
        if method not in self._offsets:  # the residual atoms, sorted once: they need no test point
            fitted = self.fits.fitted_values() if method.base == "fitted_values" else None
            bundle = ResidualBundle(self.partition, self.fits.train.y, self.u, fold_predictions_at_xnew=None,
                                    full_prediction=math.nan, fitted_values=fitted)
            self._offsets[method] = interval_atoms(method, bundle)
        lo, hi = interval_ends(method, prepared.full, self._offsets[method], alpha1, alpha2, d)
        return float(np.mean((prepared.y_test >= lo) & (prepared.y_test <= hi)))


class PreparedTests:
    """Test pairs of one engine with lazy caches: full-data predictions, the
    (m, k) fold-prediction matrix, and per (d, absolute) the row counts
    #{j : fl(a_j - d) <= y} and #{j : fl(a_j + d) < y}.  fl(. -+ d) keeps the
    atoms' order, so each counted set is a prefix of the sorted atoms and
    holds the k-th one exactly when that quantile's interval end passes y:
    one pass serves every level pair.  With unequal folds an atom of fold j
    weighs 1/(k |K_j|) and the counts are weights, compared with the level.
    """

    def __init__(self, engine: CoverageEngine, x_test: np.ndarray, y_test: np.ndarray):
        self.engine = engine
        self.x_test = x_test
        self.y_test = y_test
        self._full = None
        self._P = None
        self._counts = {}

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

    def _count(self, hit: np.ndarray) -> np.ndarray:
        """Per row, the number of hit atoms, or their weight with unequal folds."""
        if self.engine.equal_weights:
            return np.count_nonzero(hit, axis=1)
        return np.where(hit, self.engine.partition.atom_weights, 0.0).sum(axis=1)

    def _atom_counts(self, d: float, absolute: bool):
        if (d, absolute) not in self._counts:
            engine, P, y = self.engine, self.fold_matrix, self.y_test
            res = np.abs(engine.u) if absolute else engine.u
            le, lt = [], []
            for rows in _row_blocks(y.size, res.size):
                atoms = (P[rows] if engine.columns is None else P[rows][:, engine.columns]) + res
                lower, upper = (atoms, atoms) if d == 0 else (atoms - d, atoms + d)
                le.append(self._count(lower <= y[rows, None]))
                lt.append(self._count(upper < y[rows, None]))
            self._counts[d, absolute] = (np.concatenate(le), np.concatenate(lt))
        return self._counts[d, absolute]

    def _reaches(self, counts: np.ndarray, alpha: float) -> np.ndarray:
        """Rows whose counted atoms reach the level alpha in (0, 1]."""
        engine = self.engine
        if engine.equal_weights:
            n = engine.partition.n
            return counts >= min(max(ceil_guarded(alpha * n), 1), n)
        # any atom reaches a level at or below the lightest atom's weight
        return counts >= max(alpha - LEVEL_GUARD, float(engine.partition.atom_weights.min()))

    def cv_plus_hits(self, alpha1: float, alpha2: float, d: float, absolute: bool) -> np.ndarray:
        """Rows with y in [Q_{a1} - d, Q_{a2} + d]; a level outside (0, 1]
        puts that end at an infinite quantile, as in :func:`cvuq.ecdf.quantiles`."""
        y, (le, lt) = self.y_test, self._atom_counts(d, absolute)
        lower = self._reaches(le, alpha1) if 0.0 < alpha1 <= 1.0 else y >= _infinite_end(alpha1) - d
        upper = ~self._reaches(lt, alpha2) if 0.0 < alpha2 <= 1.0 else y <= _infinite_end(alpha2) + d
        return lower & upper

    def fold_exceedance(self, d: float) -> np.ndarray:
        """Per fold j, the fraction of test points with |yhat(x) - yhat^{(-K_j)}(x)| > d."""
        P, full = self.fold_matrix, self.full
        exceed = np.zeros(P.shape[1], dtype=np.intp)
        for rows in _row_blocks(*P.shape):
            exceed += np.count_nonzero(np.abs(full[rows, None] - P[rows]) > d, axis=0)
        return exceed / P.shape[0]


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
    return engine.coverage(method, alpha1, alpha2, delta, engine.prepare(x_test, y_test))


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
        return engine.coverage(method, alpha1, alpha2, delta, engine.prepare(x_test, y_test))

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
        prepared = engine.prepare(x_test, y_test)
        d = resolve_delta(delta, engine.u)
        d_stab = resolve_delta(stability_delta, engine.u)
        c_j = engine.coverage(cv, alpha1, alpha2, d, prepared)
        c_jp = engine.coverage(cvp, alpha1, alpha2, d, prepared)
        # per-fold exceedance of the stability tolerance across test points
        exceed = prepared.fold_exceedance(d_stab)
        # equivalence-deficit event: CV at widened levels and inflated
        # distortion falls short of CV+ by eps somewhere on the pair grid
        worst = math.inf
        for b1, b2 in pair_grid:
            c_infl = engine.coverage(cv, b1 - eps, b2 + eps, d_stab, prepared)
            c_plus = engine.coverage(cvp, b1, b2, 0.0, prepared)
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
            F_hat = weighted_ecdf(fits.loo_residuals, partition.atom_weights)
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
