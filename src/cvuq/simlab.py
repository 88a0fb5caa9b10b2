"""Monte-Carlo experiments for conditional coverage, CV/CV+ equivalence,
interval length, and gauge convergence at desk scale.

Coverage is evaluated with a fresh-test-point oracle: freeze the training
set, draw test pairs, and count hits of the per-test-point interval.  Every
hit equals :func:`cvuq.intervals.interval`'s: the full-data predictions
(``full_model.predict``) and the exact fold predictions
(:meth:`cvuq.predictors.FoldFits.fold_predictions`) give each row the same
bits in any block as alone.  One :class:`CoverageEngine` serves one
:class:`cvuq.predictors.FoldFits` and one test set, from one pass over it;
it and ``interval`` follow one quantile rule, :func:`cvuq.ecdf.quantiles`:
Q_a is the first sorted atom whose cumulative fold weight reaches a.  The cv
and fitted_values offsets are order statistics of the residuals, sorted per
query.  The cv_plus atoms a_j = yhat^{(-fold(j))}(x) + u_j are counted,
never sorted, one C-contiguous (n, rows) block at a time, so every
comparison with the test responses runs along contiguous memory.

The weights are exact.  An atom of fold j weighs 1/(k |K_j|) (Barber,
Candes, Ramdas and Tibshirani, Ann. Statist. 49(1), 2021), held as the
integer L/|K_j| out of W = kL, L the lcm of the fold sizes
(:class:`cvuq.predictors.FoldPartition`; a partition with W > 2^53 is
rejected), so every set of atoms weighs an exact integer C and every
cumulative weight ``interval`` reads is fl(C / W), rounded once (1 out of n
per atom for fitted_values).  Rounding keeps x -> fl(x -+ d) nondecreasing,
so each counted set below is a prefix of the sorted atoms, and with Q_a the
first atom whose prefix weight C has fl(C / W) >= a - LEVEL_GUARD

    y >= fl(Q_{a1} - d)  iff  weight{j : fl(a_j - d) <= y} >= k(a1),
    y <= fl(Q_{a2} + d)  iff  weight{j : fl(a_j + d) <  y} <  k(a2),

the comparison form of the jackknife+ coverage argument, where the reach
k(a) is the least integer C >= 1 with fl(C / W) >= a - LEVEL_GUARD, found in
closed form.  The atoms are ordered by weight: each run of equal weight (one
for the jackknife, at most two for contiguous folds) is summed as bytes into
the narrowest unsigned integer type that holds n (uint8 up to n = 255),
exact and fast to sum, and after the pass each row's run counts are weighted
once into the narrowest type that holds W.

Ridge fits are screened in float32; every other kind, and ridge whose
coefficients the screen cannot take, is counted from the exact fold
predictions (:meth:`cvuq.predictors.FoldFits.fold_predictions`) one block
of rows at a time.  The screen never forms the exact atoms of a whole block.
With c_j the fold coefficients, beta the full-data ones and x a test row,
one sgemm gives s = d_j'x in float32 for every fold and row, d_j = c_j -
beta, in place of v - f: the exact fold prediction v (c_j'x in float64)
less the full-data one f (beta'x in float64).  Let u and eta be the unit roundoff and the
smallest subnormal of float32, U that roundoff of float64, gamma_p =
p u / (1 - p u) and Gamma_p = p U / (1 - p U) (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., section 3.1).  Casting d and x
to float32, then the product in any summation order, underflows included,
leaves s within (gamma_p (1 + u)^2 + 2u + u^2) sum_l |d_l x_l| +
2 (1 + gamma_p) eta (||d||_1 + ||x||_1 + p) of d'x; v is within Gamma_p
sum_l |c_l x_l| of c_j'x and f within Gamma_p sum_l |beta_l x_l| of beta'x.
By Cauchy-Schwarz each sum is at most ||x|| times the largest norm of its
coefficients, D = max ||d_j||, C = max ||c_j|| and B = ||beta||, and
||d||_1 <= sqrt(p) D, so s is within

    e = (1 + 2^-20) ((gamma_p (1 + u)^2 + 2u + u^2) D + Gamma_p (C + B)) ||x||
        + 4 (1 + gamma_p) eta (sqrt(p) (||x|| + D) + p)

of v - f, the 2^-20 and the doubled eta term covering the float64 rounding
of the norms and of e itself.  Leaving out a fold moves a stable fit little,
so D and e are small.  The pass forms the offsets fl(s + u) of the atoms from
f in float32 and compares them with per-row thresholds widened by a band M:
with the edge t = y - f + d for fl(a - d) <= y and t = y - f - d for
fl(a + d) < y,

    fl(s + u) <= fl(t - M)  implies the exact comparison holds,
    fl(s + u) >  fl(t + M)  implies it fails,

with t and t -+ M computed in float64 and rounded to nearest into float32.
The band: rounding to nearest is monotone and moves a value x by at most
u |x| + eta, so fl(s + u) <= fl(t - M) gives s + u <= t - M +
u (2 |t| + 2M + |u|) + 3 eta; then v - f + u <= s + u + e, and the float64
roundings of y - f, of fl(v + u) and of its shift by d add at most
10 U (|y| + |f| + |d|) + 2 eta' (eta' the smallest float64 subnormal).  So

    M = (1 + 2^-16) (e + 20 u (|y - f| + |d| + max |u| + e) + 6 eta)
        + 20 U (|y| + |f| + |d|)

exceeds their sum strictly, and the same holds on the other side.  The
exceedance |fl(v - f)| > delta is decided likewise from |s| against
delta -+ M, with delta in place of |y - f| + |d| + max |u|.  A row is
decided when the counts at its two thresholds agree for every tolerance
and side, and the exceedance's for every fold; at d = 0 the two sides share
one pair of comparisons, since a decided row has no atom equal to y.

Float32 overflows near 2^128.  The screen runs only while p u < 1/2 and
max(1, C, B) < ``SCREEN_LIMIT`` = 2^100, and takes a row only while
max(1, C, B) ||x|| + e + |y| + |f| + max |d| + max |u| + delta stays below
``SCREEN_LIMIT``: then no cast, product, sum or threshold overflows.  A row
with a value inside its band, or past that limit, is recounted from
``fold_predictions`` of just such rows of its block, with the exact
comparisons.  At n = 200, p = 50 about 0.1% of rows are recounted.

The pass draws the test set block by block from the DGP (see
:meth:`CoverageEngine.drawn`) and counts the cv_plus atoms at the
tolerances the engine was built with, so its memory is O(block) plus about
20 B per test row at n <= 255 for the jackknife, whatever p: y and the
full-data prediction, 8 B each, and the counts of two tolerances, 4 B (8 B
at k = 7, whose W needs 2 B), with byte counts of 4 B per weight run during
the pass.  x is never held whole.

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

from .data import DgpSpec
from .ecdf import LEVEL_GUARD, uniform_ecdf, weighted_ecdf
from .errors import InvalidTolerance, MalformedInput
from .intervals import (IntervalMethod, check_nominal, checked_delta, interval, interval_at_row, interval_atoms,
                        interval_ends)
from .levy_gauge import gauge
from .predictors import FoldFits, feature_row
from .rng import indexed_map, stream
from .stability import equivalence_bound, resolve_partition, se_of_mean

# A pass takes the test set in blocks of about this many cells, n atoms x
# rows: 1 MiB of float32 per scratch block, which bounds a pass's memory.  An
# equivalence-shaped pass (n = 200, p = 50, 50k rows, one BLAS thread) took
# 77 ms at 262k cells, 79 ms at 197k and 83 ms at 131k (medians of 10 runs)
# on a 2-core Xeon with 2 MiB of L2 per core (BENCH_one_loop.json).
BLOCK_ATOMS = 1 << 18


def block_rows(n: int) -> int:
    """Rows of a pass's test-set block: ``BLOCK_ATOMS`` cells at n atoms per row."""
    return max(1, BLOCK_ATOMS // n)


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


# The float32 screen (module docstring) runs while its magnitudes stay below
# this, far enough under float32's largest finite value (about 2^128) that
# no cast, product, sum or threshold overflows.
SCREEN_LIMIT = 2.0**100
_U32, _U64 = 2.0**-24, 2.0**-53  # unit roundoffs of float32 and float64
_ETA32 = 2.0**-149  # bounds a float32 underflow: the smallest subnormal
# The band M of the module docstring is _BAND_E e + _BAND_S s + _BAND_ETA +
# _BAND_U64 s64 at bound e, float32 scale s = |y - f| + |d| + max |u| and
# float64 scale s64 = |y| + |f| + |d|.
_SLACK = 1 + 2.0**-16
_BAND_E, _BAND_S, _BAND_ETA = _SLACK * (1 + 20 * _U32), _SLACK * 20 * _U32, _SLACK * 6 * _ETA32
_BAND_U64 = _SLACK * 20 * _U64


def _ridge_screen(fits: FoldFits):
    """The float32 screen of a ridge ``fits``, as the module docstring
    derives it: the (k, p) float32 differences c_j - beta of its fold and
    full-data coefficients, the bound e's slope in the row norm and its
    constant term, and max(1, C, B); None for any other kind, or when the
    screen would take no row (p u or a coefficient norm too large)."""
    if fits.coef is None:
        return None
    coef, beta = fits.coef, fits.full_model.theta
    p = coef.shape[0]
    diff = coef - beta[:, None]
    # the largest fold difference, fold coefficient and full-data norms, widened by 2^-20
    D, C, B = (float(np.sqrt(np.einsum("ij,ij->j", a, a).max())) * (1 + 2.0**-20)
               for a in (diff, coef, beta[:, None]))
    top = max(1.0, C, B)
    if not (p * _U32 < 0.5 and top < SCREEN_LIMIT):
        return None
    g32, g64 = p * _U32 / (1 - p * _U32), p * _U64 / (1 - p * _U64)
    slope = ((g32 * (1 + _U32) ** 2 + 2 * _U32 + _U32**2) * D + g64 * (C + B)) * (1 + 2.0**-20)
    absolute = 4 * (1 + g32) * _ETA32
    root_p = math.sqrt(p)
    return (np.ascontiguousarray(diff.T, dtype=np.float32), slope + absolute * root_p, absolute * (root_p * D + p),
            top)


class CoverageEngine:
    """Vectorized per-test-point interval coverage for one training set and
    m >= 1 test pairs (InvalidTolerance for none), from one pass, run when
    the engine is built, that takes the pairs from a source block by block:
    given arrays, it reads slices and copies no x whose rows have unit stride
    (a strided view of whole rows is kept as it is; other blocks are copied
    for their products); built by :meth:`drawn`, it draws each block from
    the DGP inside the pass, so x is never held whole.  A block is
    :func:`block_rows` rows, about ``BLOCK_ATOMS`` cells at n atoms per row,
    the last block shorter; each is drawn, predicted and counted before the
    next.

    The pass keeps y and the full-data prediction of each row: all that cv
    and fitted_values need.  cv_plus is counted at the tolerances ``cv_plus``
    declares (numbers, ``"iqr:FACTOR"`` rules or callables, resolved once),
    on the residuals or, if ``symmetrized``, their absolute values; a cv_plus
    query at another tolerance or flag raises
    :class:`cvuq.errors.InvalidTolerance`.  Per tolerance d each row gets the
    weights of {j : fl(a_j - d) <= y} and {j : fl(a_j + d) < y}; each
    counted set is a prefix of the sorted atoms, so the counts serve every
    level pair.  An atom of fold j weighs the integer L/|K_j| out of W = kL
    (:class:`cvuq.predictors.FoldPartition`): the atoms are ordered by weight,
    then by fold, each run of equal weight (one for the jackknife, at most two
    for contiguous folds) is summed as bytes into ``np.min_scalar_type(n)``,
    and after the pass each row's run counts are weighted once into
    ``np.min_scalar_type(W)``: exact integers, compared with the integer reach
    of the level (:meth:`_reach`).  With ``exceed_delta`` (>= 0) set, the
    pass also counts, per fold, the test points whose fold prediction is more
    than ``exceed_delta`` from the full-data one.

    Both equal those computed from the exact
    :meth:`~cvuq.predictors.FoldFits.fold_predictions`, which are
    :func:`cvuq.intervals.interval`'s.  For ridge they come from float32
    blocks of fold predictions less the full-data one, compared with per-row
    thresholds widened by the band of the module docstring; a row with a
    value inside its band, or past ``SCREEN_LIMIT``, is recounted from the
    exact predictions of just such rows of its block.  Every other kind is
    counted from the exact predictions one block at a time.  ``recounted`` is
    how many rows the pass counted from exact predictions: all m without the
    screen.

    Memory is O(block) plus about 20 B per test row: one block of x (1,310
    rows at n = 200, 0.53 MB at p = 50), a few scratch blocks (float32: 1 MiB
    at 262k cells), then y and the full-data prediction (8 B each) and the
    counts (1 B per tolerance, side and weight run up to n = 255 during the
    pass; then 1 B per tolerance and side for the jackknife, 2 B at k = 7).
    """

    def __init__(self, fits: FoldFits, x_test: np.ndarray, y_test: np.ndarray, cv_plus=(),
                 symmetrized: bool = False, exceed_delta: float | None = None):
        x_test = np.asarray(x_test, dtype=float)
        y_test = np.asarray(y_test, dtype=float)
        self._start(fits, y_test.size, cv_plus, symmetrized, exceed_delta,
                    lambda rows: ((y_test[a:a + rows], x_test[a:a + rows]) for a in range(0, y_test.size, rows)))

    @classmethod
    def drawn(cls, fits: FoldFits, dgp: DgpSpec, m: int, seed: int, *key, cv_plus=(),
              symmetrized: bool = False, exceed_delta: float | None = None) -> "CoverageEngine":
        """An engine on m test pairs of ``dgp`` drawn from ``stream(seed,
        *key)``: the pairs ``dgp.draw(m, stream(seed, *key))`` returns."""
        engine = cls.__new__(cls)
        engine._start(fits, m, cv_plus, symmetrized, exceed_delta,
                      lambda rows: dgp.draw_chunks(m, stream(seed, *key), rows))
        return engine

    def _start(self, fits: FoldFits, m: int, cv_plus, symmetrized: bool, exceed_delta, blocks) -> None:
        """Set the engine up and run its pass over ``blocks``, a function of
        rows to the (y, x) blocks of that many rows."""
        if m < 1:
            raise InvalidTolerance(f"a coverage pass needs at least one test point, got {m!r}")
        if exceed_delta is not None and not exceed_delta >= 0:
            raise InvalidTolerance(f"exceed_delta must be a nonnegative number, got {exceed_delta!r}")
        self.fits = fits
        self.partition = fits.partition
        self.u = fits.loo_residuals
        self.m = m
        # each declared cv_plus tolerance and its index in the counts
        self.cv_plus = {d: i for i, d in enumerate(dict.fromkeys(resolve_delta(d, self.u) for d in cv_plus))}
        self.symmetrized = symmetrized
        self.exceed_delta = exceed_delta
        # the atoms by weight, then fold, so each run of equal weight is one run of block rows:
        # the fold-prediction row of each (None when it is the identity) and its residual
        units, fold_of = self.partition.atom_units, self.partition.fold_of
        order = np.lexsort((fold_of, units))
        columns = fold_of[order]
        self.columns = None if np.array_equal(columns, np.arange(columns.size)) else columns
        res = np.abs(self.u) if symmetrized else self.u
        self._res, self._res_top = res[order], float(np.max(np.abs(res)))
        units = units[order]
        starts = np.flatnonzero(np.diff(units, prepend=0))
        self._runs = [slice(a, b) for a, b in zip(starts, [*starts[1:], units.size])]
        self._run_units = units[starts].tolist()
        self._count_type = np.min_scalar_type(units.size)  # no byte count exceeds n
        self.recounted = 0
        self._pass(blocks)

    def coverage(self, method: IntervalMethod, alpha1: float, alpha2: float, delta) -> float:
        """Fraction of the test pairs whose y lies in its interval."""
        d = resolve_delta(delta, self.u)
        if method.base != "cv_plus":
            lo, hi = interval_ends(method, self.full, interval_atoms(method, self.fits), alpha1, alpha2, d)
            return float(np.mean((self.y_test >= lo) & (self.y_test <= hi)))
        if d not in self.cv_plus or method.symmetrized != self.symmetrized:
            raise InvalidTolerance(f"cv_plus at delta {d}, symmetrized={method.symmetrized}, was not declared to this engine")
        le, lt = self._counts[self.cv_plus[d]]
        return float(np.mean((le >= self._reach(alpha1)) & ~(lt >= self._reach(alpha2))))

    def fold_exceedance(self) -> np.ndarray:
        """Per fold j, the fraction of test points with
        |yhat(x) - yhat^{(-K_j)}(x)| > exceed_delta."""
        if self.exceed_delta is None:
            raise InvalidTolerance("fold_exceedance needs an engine built with exceed_delta")
        return self._exceed

    def _tally(self, hits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per column of a (n, rows) block of atom hits in weight order, the
        hit count of each run of equal weight, into ``out`` (runs, rows)."""
        if out is None:
            out = np.empty((len(self._runs), hits.shape[1]), self._count_type)
        for run, row in zip(self._runs, out):
            np.add.reduce(hits[run].view(np.uint8), axis=0, dtype=self._count_type, out=row)
        return out

    def _pass(self, blocks) -> None:
        """The engine's one pass over the blocks of the test set: it keeps y
        and the full-data predictions of each block and, when fold
        predictions are needed, counts the block, screened (:meth:`_screen`)
        or exactly (:meth:`_recount`); then it weighs each row's run counts
        once."""
        m, rows = self.m, block_rows(self.u.size)
        self.y_test, self.full = np.empty(m), np.empty(m)
        counts = np.empty((len(self.cv_plus), 2, len(self._runs), m), self._count_type)
        exceed = np.zeros(self.partition.k, dtype=np.intp)
        counted = bool(self.cv_plus) or self.exceed_delta is not None  # fold predictions are needed
        screen = _ridge_screen(self.fits) if counted else None
        scratch = self._scratch(min(rows, m)) if screen is not None else None
        start = 0
        for y_block, x_block in blocks(rows):
            block = slice(start, start + y_block.size)
            self.y_test[block] = y_block
            full = self.full[block]
            full[:] = self.fits.full_model.predict(x_block)
            if screen is not None:
                exceed += self._screen(x_block, y_block, full, counts[..., block], screen, scratch)
            elif counted:
                exceed += self._recount(x_block, y_block, full, counts[..., block], slice(None))
                self.recounted += y_block.size
            start = block.stop
            del x_block  # freed before the next block is drawn
        # the weight of a row's counted atoms: an integer of at most W <= 2^53
        weight_type = np.min_scalar_type(self.partition.unit_total)
        self._counts = np.zeros(counts.shape[:2] + (m,), weight_type)
        for run, unit in enumerate(self._run_units):
            self._counts += np.multiply(counts[:, :, run], unit, dtype=weight_type)
        self._exceed = exceed / m if self.exceed_delta is not None else None

    def _scratch(self, rows: int) -> dict:
        """The screen's scratch for blocks of at most ``rows`` test rows,
        allocated once."""
        n, k = self.u.size, self.partition.k
        return {"values": np.empty(k * rows, np.float32), "floats": np.empty((n, rows), np.float32),
                "hits": np.empty((2, n, rows), bool), "res": self._res.astype(np.float32)[:, None],
                "per_fold": np.min_scalar_type(rows), "maybe": np.empty((len(self._runs), rows), self._count_type)}

    def _screen(self, x, y, full, counts, screen, scratch) -> np.ndarray:
        """Count one block into ``counts``, its (tolerances, 2, runs, rows)
        slice, from float32 fold predictions less the full-data one compared
        with thresholds widened by the band of the module docstring
        (``screen`` from :func:`_ridge_screen`), then recount exactly the rows
        the screen cannot decide; return the block's per-fold exceedance
        counts."""
        k, w, delta = self.partition.k, y.size, self.exceed_delta
        diff32, slope, constant, top = screen
        lo, hi = scratch["hits"][:, :, :w]
        maybe = scratch["maybe"][:, :w]
        exceed = np.zeros(k, dtype=np.intp)
        with np.errstate(over="ignore", invalid="ignore"):  # rows past SCREEN_LIMIT are recounted
            values = np.matmul(diff32, x.astype(np.float32).T, out=scratch["values"][:k * w].reshape(k, w))
            norms = np.sqrt(np.einsum("ij,ij->i", x, x))
            bound = slope * norms + constant
            y_abs, f_abs, rest = np.abs(y), np.abs(full), y - full
            # a row's magnitudes besides those of its products
            sizes = y_abs + f_abs + (max(map(abs, self.cv_plus), default=0.0) + self._res_top + (delta or 0.0))
            unsure = ~np.less(top * norms + bound + sizes, SCREEN_LIMIT)  # NaN included
            bound *= _BAND_E
            if delta is not None:  # |value| > delta about where it crosses delta
                band = bound + (_BAND_S * delta + _BAND_ETA)
                inside, outside = (delta - band).astype(np.float32), (delta + band).astype(np.float32)
                gap = np.abs(values, out=scratch["floats"][:k, :w])  # values are offsets from f
                certain = np.greater(gap, outside, out=hi[:k])
                possible = np.greater(gap, inside, out=lo[:k])
                unsure = unsure | np.logical_or.reduce(np.not_equal(certain, possible, out=possible), axis=0)
                # the exceedance of rows it leaves undecided, or cannot screen, comes from the recount
                exceed += np.add.reduce(certain.view(np.uint8), axis=1, dtype=scratch["per_fold"])
                if unsure.any():
                    exceed -= np.add.reduce(certain[:, unsure], axis=1)
            exceed_unsure = unsure  # the rows whose exceedance is recounted; unsure is only rebound below
            if self.cv_plus:
                # atom j less full is values[fold(j)] + u_j, in place when fold(j) = j
                if self.columns is not None:  # mode "raise" would buffer the whole output
                    values = np.take(values, self.columns, axis=0, out=scratch["floats"][:, :w], mode="clip")
                atoms = np.add(values, scratch["res"], out=values)
                rest_abs = np.abs(rest)
                for i, d in enumerate(self.cv_plus):
                    band = bound + (_BAND_S * (rest_abs + (abs(d) + self._res_top))
                                    + (_BAND_U64 * (y_abs + f_abs + abs(d)) + _BAND_ETA))
                    # fl(a - d) <= y about where a - f crosses y - f + d, fl(a + d) < y where it crosses y - f - d
                    for side, t in enumerate([rest + d, rest - d] if d else [rest]):
                        below, above = (t - band).astype(np.float32), (t + band).astype(np.float32)
                        self._tally(np.less_equal(atoms, below, out=lo), counts[i, side])
                        self._tally(np.less_equal(atoms, above, out=hi), maybe)
                        unsure = unsure | np.logical_or.reduce(counts[i, side] != maybe, axis=0)
                    if not d:  # both sides, which differ only at ties
                        counts[i, 1] = counts[i, 0]
        redo = np.flatnonzero(unsure)
        if redo.size:
            self.recounted += redo.size
            exceed += self._recount(x[redo], y[redo], full[redo], counts, redo, exceed_unsure[redo])
        return exceed

    def _recount(self, x, y, full, counts, rows, exceed_rows=True) -> np.ndarray:
        """Count the test rows ``rows`` (with features x, responses y and
        full-data predictions ``full``) into ``counts`` from their exact fold
        predictions, and return the per-fold exceedance counts of those that
        the mask ``exceed_rows`` marks (all of them by default)."""
        exact = self.fits.fold_predictions(x).T
        atoms = (exact if self.columns is None else exact[self.columns]) + self._res[:, None]
        for i, d in enumerate(self.cv_plus):
            counts[i, 0][:, rows] = self._tally(atoms - d <= y)
            counts[i, 1][:, rows] = self._tally(atoms + d < y)
        if self.exceed_delta is None:
            return 0
        return np.add.reduce((np.abs(exact - full) > self.exceed_delta) & exceed_rows, axis=1)

    def _reach(self, alpha: float) -> float:
        """The least weight C >= 1 of a row's counted atoms at which they
        hold Q_alpha: the least integer with fl(C / W) >= alpha - LEVEL_GUARD,
        W the unit total, as :func:`cvuq.ecdf.quantiles` reads the cumulative
        weights fl(C / W) of :func:`cvuq.intervals.interval_atoms`; -inf for
        alpha <= 0 and +inf for alpha > 1, as the infinite quantile there
        passes every y or none."""
        if math.isnan(alpha):
            raise ValueError("alpha must not be NaN")
        if alpha <= 0.0:
            return -math.inf
        if alpha > 1.0:
            return math.inf
        level, total = alpha - LEVEL_GUARD, self.partition.unit_total
        # level * total and C / total each round by less than 1 in C: a step or two from the answer
        reach = max(1, math.ceil(level * total))
        while reach > 1 and (reach - 1) / total >= level:
            reach -= 1
        while reach / total < level:
            reach += 1
        return reach


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
    """Per-replication Jackknife vs Jackknife+ interval lengths for each spec, named by its kind."""
    check_nominal(nominal)
    names = [getattr(s, "kind", f"spec{i}") for i, s in enumerate(specs)]
    if len(set(names)) < len(names):
        raise MalformedInput(f"each spec needs its own name, got {names}")
    a1 = (1.0 - nominal) / 2.0 if alpha1 is None else alpha1
    a2 = a1 + nominal
    partition = resolve_partition("jackknife", n)
    cv = IntervalMethod("cv")
    cvp = IntervalMethod("cv_plus")

    def one(r: int):
        train = dgp.sample(n, stream(seed, r, 0))
        _, xs = dgp.draw(1, stream(seed, r, 1))
        row = feature_row(xs[0], train.p)  # one check for every interval of the replication
        out = []
        for spec in specs:
            fits = FoldFits(spec, train, partition)
            out.append(tuple(interval_at_row(m, fits, row, a1, a2).length for m in (cv, cvp)))
        return out

    results = indexed_map(one, train_reps, threads)
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
    comparisons use common random numbers.  Each replication draws its
    ``mc_oracle`` test rows at once, so a running replication peaks near
    ``mc_oracle * (p + 10) * 8`` bytes: 48 MB traced at 1e5 rows and p = 50,
    104 MB at 1e6 rows and p = 3.
    """

    def rep_at(n: int):
        partition = resolve_partition("jackknife", n)

        def one(r: int) -> float:
            train = dgp.sample(n, stream(seed, r, 0))
            fits = FoldFits(spec, train, partition)
            F_hat = weighted_ecdf(fits.loo_residuals, partition.atom_units, partition.unit_total)
            y, x = dgp.draw(mc_oracle, stream(seed, r, 1))
            return gauge(F_hat, uniform_ecdf(y - fits.full_model.predict(x)), delta).value

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
    check_nominal(nominal)
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

