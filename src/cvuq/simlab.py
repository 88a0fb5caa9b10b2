"""Monte-Carlo experiments for conditional coverage, CV/CV+ equivalence,
interval length, and gauge convergence at desk scale.

Coverage is evaluated with a fresh-test-point oracle: freeze the training
set, draw test pairs, and count hits of the per-test-point interval.  Given
the same predictions, every hit equals that of
:func:`cvuq.intervals.interval` exactly.  The predictions themselves are
matrix products over a block of test rows, which can round differently in
the last bits from a product over one row or over a block of another size
(ridge at n = 200 differs in up to about 1e-14), so a hit can differ from
``interval``'s when y lies within a few ulps of an interval end.  One
:class:`CoverageEngine` serves one :class:`cvuq.predictors.FoldFits` and one
test set, from one pass over it; it and ``interval`` follow one quantile
rule, :func:`cvuq.ecdf.quantiles`: Q_a is the first sorted atom whose
cumulative fold weight reaches a.  The cv and fitted_values offsets are
order statistics of the residuals, sorted per query.  The cv_plus atoms
a_j = yhat^{(-fold(j))}(x) + u_j are counted, never sorted, one C-contiguous
(n, rows) block at a time, so every comparison with the test responses runs
along contiguous memory: rounding keeps x -> fl(x -+ d) nondecreasing, so
with Q_a the k(a)-th smallest atom

    y >= fl(Q_{a1} - d)  iff  #{j : fl(a_j - d) <= y} >= k(a1),
    y <= fl(Q_{a2} + d)  iff  #{j : fl(a_j + d) <  y} <  k(a2),

the comparison form of the jackknife+ coverage argument (Barber, Candes,
Ramdas and Tibshirani, Ann. Statist. 49(1), 2021).  The rank k(a) is the
same quantile rule applied to the ranks 1..n.  No count exceeds n, so the
hits are summed as bytes into, and stored in, the narrowest unsigned integer
type that holds n (uint8 up to n = 255): exact, and smaller and faster to
sum than machine integers.

The pass draws the test set chunk by chunk from the DGP (see
:meth:`CoverageEngine.drawn`) and counts the cv_plus atoms at the
tolerances the engine was built with, so its memory is O(block) plus about
20 B per test row at n <= 255 and equal folds, whatever p: y and the
full-data prediction, 8 B each, and the byte counts of two tolerances.  x is
never held whole.

``delta`` arguments accept a float, a string ``"iqr:FACTOR"`` (factor times
the interquartile range of the leave-fold-out residuals), or a callable
mapping the residual vector to a float; the tolerance it resolves to must be
finite.  The standard errors of the trend probes follow
:func:`cvuq.stability.se_of_mean`: inf from a single replication.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import DgpSpec, chunk_slices
from .ecdf import LEVEL_GUARD, SortedAtoms, quantiles, uniform_ecdf, weighted_ecdf
from .errors import InvalidTolerance
from .intervals import IntervalMethod, checked_delta, interval, interval_atoms, interval_ends
from .levy_gauge import gauge
from .predictors import FoldFits
from .rng import indexed_map, stream
from .stability import equivalence_bound, resolve_partition, se_of_mean

# Test rows are processed in blocks of about this many cells, (k or n) x
# rows: 1 MiB of float64 per scratch block, which bounds a pass's memory.  At
# n = 200, p = 50 blocks of 64k to 262k cells ran within noise of each other
# on a 2-core Xeon with 2 MiB of L2 per core; 32k and 400k or more were slower.
BLOCK_ATOMS = 1 << 17
# A pass takes the test set in chunks of this many row blocks: a multiple of
# 4 rows, so each chunk's products round as the whole set's do (see
# cvuq.data.DgpSpec.draw_chunks), and 1.07 MB of x at n = 200, p = 50.
CHUNK_BLOCKS = 4


def chunk_rows(n: int) -> int:
    """Rows of a pass's test-set chunk: ``CHUNK_BLOCKS`` blocks at n atoms per row."""
    return CHUNK_BLOCKS * max(1, BLOCK_ATOMS // n)


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
    """The tolerance ``delta`` stands for, which must be finite (see
    :func:`cvuq.intervals.checked_delta`)."""
    if callable(delta):
        d = float(delta(residuals))
    elif isinstance(delta, str):
        factor = iqr_factor(delta)
        q75, q25 = np.quantile(residuals, [0.75, 0.25])
        d = factor * float(q75 - q25)
    else:
        d = float(delta)
    return checked_delta(d, delta)


class CoverageEngine:
    """Vectorized per-test-point interval coverage for one training set and
    m test pairs, from one pass that takes the pairs from a source chunk by
    chunk: given arrays, which it does not copy (a strided view is kept as
    it is), it reads slices; built by :meth:`drawn`, it draws each chunk
    from the DGP inside the pass, so x is never held whole.  A chunk is
    ``CHUNK_BLOCKS`` row blocks of about ``BLOCK_ATOMS`` cells, (k or n) x
    rows, and the blocks start at multiples of their width from row 0, chunk
    boundaries included, so the rounding of every product matches a pass
    over the whole test set (see :meth:`cvuq.data.DgpSpec.draw_chunks`).

    The first :meth:`coverage` or :meth:`fold_exceedance` call runs the
    pass, which keeps y and the full-data prediction of each row: all that
    cv and fitted_values need.  cv_plus is counted at the tolerances
    ``cv_plus`` declares (numbers, ``"iqr:FACTOR"`` rules or callables,
    resolved once), on the residuals or, if ``symmetrized``, their absolute
    values; a cv_plus query at another tolerance or flag raises
    :class:`cvuq.errors.InvalidTolerance`.  Per tolerance d, the (k, rows)
    blocks of fold predictions give each row the counts
    #{j : fl(a_j - d) <= y} and #{j : fl(a_j + d) < y}; each counted set is
    a prefix of the sorted atoms, so the counts serve every level pair.
    They are byte sums stored as ``np.min_scalar_type(n)``.  With unequal
    folds an atom of fold j weighs 1/(k |K_j|) and a count is the float64
    weight of the hit atoms (hits compared into a float scratch block, then
    summed by a product with the weights), compared with the level.  With
    ``exceed_delta`` set, the pass also counts, per fold, the test points
    whose fold prediction is more than ``exceed_delta`` from the full-data
    one.

    Memory is O(block) plus about 20 B per test row: a few scratch blocks
    of 1 MiB and one chunk (2,620 rows at n = 200, 1.07 MB at p = 50),
    then y and the full-data prediction (8 B each) and the counts (1 B per
    tolerance and side up to n = 255; 8 B with unequal folds).  Chunks do
    not change the rounding, but blocks do (see the module docstring).
    """

    def __init__(self, fits: FoldFits, x_test: np.ndarray, y_test: np.ndarray, cv_plus=(),
                 symmetrized: bool = False, exceed_delta: float | None = None):
        x_test = np.asarray(x_test, dtype=float)
        y_test = np.asarray(y_test, dtype=float)
        self._start(fits, y_test.size, cv_plus, symmetrized, exceed_delta,
                    lambda rows: ((y_test[s], x_test[s]) for s in chunk_slices(y_test.size, rows)))
        self.y_test = y_test

    @classmethod
    def drawn(cls, fits: FoldFits, dgp: DgpSpec, m: int, seed: int, *key, cv_plus=(),
              symmetrized: bool = False, exceed_delta: float | None = None) -> "CoverageEngine":
        """An engine on m test pairs of ``dgp`` drawn from ``stream(seed,
        *key)``: the pairs ``dgp.draw(m, stream(seed, *key))`` returns."""
        engine = cls.__new__(cls)
        engine._start(fits, m, cv_plus, symmetrized, exceed_delta,
                      lambda rows: dgp.draw_chunks(m, stream(seed, *key), rows))
        return engine

    def _start(self, fits: FoldFits, m: int, cv_plus, symmetrized: bool, exceed_delta, chunks) -> None:
        self.fits = fits
        self.partition = fits.partition
        self.u = fits.loo_residuals
        self.m = m
        self._chunks = chunks  # rows -> (y, x) chunks of that many rows
        self.y_test = self.full = None  # per row, kept by the pass
        # each declared cv_plus tolerance and its index in the counts
        self.cv_plus = {d: i for i, d in enumerate(dict.fromkeys(resolve_delta(d, self.u) for d in cv_plus))}
        self.symmetrized = symmetrized
        self.exceed_delta = exceed_delta
        weights = self.partition.atom_weights
        self.equal_weights = bool(np.all(weights == weights[0]))
        self.ranks = SortedAtoms(np.arange(1.0, weights.size + 1), weights)
        # the fold-prediction column of each cv_plus atom; None when it is the identity
        fold_of = self.partition.fold_of
        self.columns = None if np.array_equal(fold_of, np.arange(fold_of.size)) else fold_of
        self._counts = self._exceed = None

    def coverage(self, method: IntervalMethod, alpha1: float, alpha2: float, delta) -> float:
        """Fraction of the test pairs whose y lies in its interval."""
        d = resolve_delta(delta, self.u)
        cv_plus = method.base == "cv_plus"
        if cv_plus and (d not in self.cv_plus or method.symmetrized != self.symmetrized):
            raise InvalidTolerance(f"cv_plus at delta {d}, symmetrized={method.symmetrized}, was not declared to this engine")
        self._pass()
        if not cv_plus:
            lo, hi = interval_ends(method, self.full, interval_atoms(method, self.fits), alpha1, alpha2, d)
            return float(np.mean((self.y_test >= lo) & (self.y_test <= hi)))
        le, lt = self._counts[self.cv_plus[d]]
        return float(np.mean((le >= self._reach(alpha1)) & ~(lt >= self._reach(alpha2))))

    def fold_exceedance(self) -> np.ndarray:
        """Per fold j, the fraction of test points with
        |yhat(x) - yhat^{(-K_j)}(x)| > exceed_delta."""
        if self.exceed_delta is None:
            raise InvalidTolerance("fold_exceedance needs an engine built with exceed_delta")
        self._pass()
        return self._exceed

    def _pass(self) -> None:
        """The engine's one pass over the chunks of the test set and over row
        blocks of fold predictions in each, each a C-contiguous (k, rows)
        block: it keeps y and the full-data predictions, counts the atoms at
        every declared cv_plus tolerance (per row, the number of hit atoms,
        or their weight with unequal folds) and takes the per-fold
        exceedance.  Scratch blocks are allocated once."""
        if self.full is not None:  # the pass has run
            return
        m, n, k = self.m, self.u.size, self.partition.k
        ds, take = list(self.cv_plus), self.exceed_delta is not None
        width = min(chunk_rows(n) // CHUNK_BLOCKS, m)
        self.full = np.empty(m)
        keep_y = self.y_test is None
        if keep_y:
            self.y_test = np.empty(m)
        folds = ds or take  # fold predictions are needed
        if folds:
            buf, hit = np.empty((n, width)), np.empty((n, width), dtype=bool)
            gather = None if self.columns is None else np.empty((n, width))
        res = (np.abs(self.u) if self.symmetrized else self.u)[:, None]
        weights = None if self.equal_weights else self.partition.atom_weights
        # no count exceeds n (per row) or width (per fold and block), so these are exact
        count_type, fold_type = np.min_scalar_type(n), np.min_scalar_type(width)
        counts = np.empty((len(ds), 2, m), dtype=count_type if weights is None else float)
        exceed = np.zeros(k, dtype=np.intp)
        start = 0
        for y_chunk, x_chunk in self._chunks(chunk_rows(n)):
            chunk = slice(start, start + y_chunk.size)
            self.full[chunk] = self.fits.full_model.predict(x_chunk)
            if keep_y:
                self.y_test[chunk] = y_chunk
            for at in range(0, y_chunk.size, width) if folds else ():
                rows = slice(start + at, start + at + width)
                block = self.fits.fold_predictions(x_chunk[at:at + width]).T
                w = block.shape[1]
                b, h = buf[:, :w], hit[:, :w]
                if take:
                    np.abs(np.subtract(block, self.full[rows], out=b[:k]), out=b[:k])
                    np.greater(b[:k], self.exceed_delta, out=h[:k])
                    exceed += np.add.reduce(h[:k].view(np.uint8), axis=1, dtype=fold_type)
                if ds:
                    # atom j is block[fold(j)] + u_j, in place when fold(j) = j
                    if gather is not None:  # mode "raise" would buffer the whole output
                        block = np.take(block, self.columns, axis=0, out=gather[:, :w], mode="clip")
                    block += res
                    y = y_chunk[at:at + width]
                    into = h if weights is None else b  # with unequal folds, hits as floats for the weights to sum
                    for i, d in enumerate(ds):
                        for side, (compare, shift) in enumerate(((np.less_equal, np.subtract), (np.less, np.add))):
                            hits = compare(block if d == 0 else shift(block, d, out=b), y, out=into)
                            if weights is None:
                                np.add.reduce(hits.view(np.uint8), axis=0, dtype=count_type, out=counts[i, side, rows])
                            else:
                                counts[i, side, rows] = weights @ hits
                del block  # freed before the next block is computed
            start = chunk.stop
            del x_chunk  # freed before the next chunk is drawn
        self._counts = counts
        if take:
            self._exceed = exceed / m

    def _reach(self, alpha: float) -> float:
        """The count (weight, with unequal folds) at which a row's counted
        atoms hold Q_alpha: -inf for alpha <= 0 and +inf for alpha > 1, as
        the infinite quantile there passes every y or none."""
        rank = float(quantiles(self.ranks, alpha))
        if self.equal_weights or math.isinf(rank):
            return rank
        # any atom reaches a level at or below the lightest atom's weight
        return max(alpha - LEVEL_GUARD, float(self.partition.atom_weights.min()))


def _declared(method: IntervalMethod, delta) -> dict:
    """The engine arguments that declare one coverage query of ``method``."""
    return {"cv_plus": [delta] if method.base == "cv_plus" else [], "symmetrized": method.symmetrized}


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
    engine = CoverageEngine.drawn(fits, dgp, mc_test, seed, **_declared(method, delta))
    return engine.coverage(method, alpha1, alpha2, delta)


@dataclass(frozen=True)
class CoverageReport:
    """Conditional coverages over training sets; ``std_err`` is the standard
    error of their mean (:func:`cvuq.stability.se_of_mean`) and
    ``binomial_se`` the Monte-Carlo standard error of each rep's coverage c
    from its test points, sqrt(c (1 - c) / mc_test_points)."""

    nominal: float
    conditional_cov: np.ndarray
    binomial_se: np.ndarray
    mean: float
    std_err: float
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
    if math.isinf(alpha1) and alpha1 == alpha2:  # the nominal alpha2 - alpha1 would be inf - inf
        raise InvalidTolerance(f"levels alpha1 = {alpha1}, alpha2 = {alpha2} have no nominal alpha2 - alpha1")
    partition = resolve_partition(partition_rule, n)

    def one(r: int) -> float:
        train = dgp.sample(n, stream(seed, r, 0))
        fits = FoldFits(spec, train, partition)
        engine = CoverageEngine.drawn(fits, dgp, mc_test, seed, r, 1, **_declared(method, delta))
        return engine.coverage(method, alpha1, alpha2, delta)

    cov = np.array(indexed_map(one, train_reps, threads))
    q05, q50, q95 = np.quantile(cov, [0.05, 0.5, 0.95])
    return CoverageReport(
        nominal=alpha2 - alpha1,
        conditional_cov=cov,
        binomial_se=np.sqrt(cov * (1.0 - cov) / mc_test),
        mean=float(cov.mean()),
        std_err=float(se_of_mean(cov)),
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

    @property
    def vacuous(self) -> bool:
        """True when the bound is at least 1, so it constrains nothing."""
        return self.bound >= 1.0


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
    threads: int = 1,
) -> EquivalenceReport:
    """Jackknife vs Jackknife+ (general CV vs CV+) on identical fold fits."""
    # the bound's checks of eps and a numeric stability tolerance, before any rep (a rule resolves per rep)
    equivalence_bound(eps, stability_delta if isinstance(stability_delta, numbers.Real) else 0.0, [0.0])
    partition = resolve_partition(partition_rule, n)
    cv = IntervalMethod("cv")
    cvp = IntervalMethod("cv_plus")

    def one(r: int):
        train = dgp.sample(n, stream(seed, r, 0))
        fits = FoldFits(spec, train, partition)
        d = resolve_delta(delta, fits.loo_residuals)
        d_stab = resolve_delta(stability_delta, fits.loo_residuals)
        # CV+ at delta and, on the pair grid, at 0
        engine = CoverageEngine.drawn(fits, dgp, mc_test, seed, r, 1, cv_plus=[d, 0.0], exceed_delta=d_stab)
        c_j = engine.coverage(cv, alpha1, alpha2, d)
        c_jp = engine.coverage(cvp, alpha1, alpha2, d)
        # per-fold exceedance of the stability tolerance across test points
        exceed = engine.fold_exceedance()
        # equivalence-deficit event: CV at widened levels and inflated
        # distortion falls short of CV+ by eps somewhere on the pair grid
        worst = min(engine.coverage(cv, b1 - eps, b2 + eps, d_stab) - engine.coverage(cvp, b1, b2, 0.0)
                    for b1, b2 in DEFAULT_PAIR_GRID)
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
    bound = equivalence_bound(eps, d_stab, fold_exceed)
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
            fits = FoldFits(spec, train, partition)
            out.append((interval(cv, fits, xs[0], a1, a2).length, interval(cvp, fits, xs[0], a1, a2).length))
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
        std_err=se_of_mean(per_rep, axis=1),
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
    comparisons use common random numbers.  The oracle rows are drawn and
    predicted in the chunks of a coverage pass, so the errors do not depend
    on the BLAS thread count (see :meth:`cvuq.data.DgpSpec.draw_chunks`).
    """

    def rep_at(n: int):
        partition = resolve_partition("jackknife", n)

        def one(r: int) -> float:
            train = dgp.sample(n, stream(seed, r, 0))
            fits = FoldFits(spec, train, partition)
            F_hat = weighted_ecdf(fits.loo_residuals, partition.atom_weights)
            chunks = dgp.draw_chunks(mc_oracle, stream(seed, r, 1), chunk_rows(n))
            errors = np.concatenate([y - fits.full_model.predict(x) for y, x in chunks])
            return gauge(F_hat, uniform_ecdf(errors), delta).value

        return one

    return _trend(n_grid, train_reps, threads, rep_at)


def sqrt_n_family(base: DgpSpec):
    """DGP family n -> base with its noise scale multiplied by sqrt(n)."""
    if base.sigma is None:
        raise InvalidTolerance("sqrt_n scaling needs a linear-noise dgp")
    return lambda n: DgpSpec.from_dict({**base.to_dict(), "sigma": base.sigma * math.sqrt(n)})


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
        partition = resolve_partition("jackknife", n)  # first: a size below 2 is a data error
        dgp = dgp_family(n)

        def one(r: int) -> float:
            train = dgp.sample(n, stream(seed, r, 0))
            _, xs = dgp.draw(1, stream(seed, r, 1))
            return interval(method, FoldFits(spec, train, partition), xs[0], 0.0, nominal).length

        return one

    return _trend(n_grid, train_reps, threads, rep_at)

