"""Prediction algorithms and leave-fold-out fits.

Each built-in kind has one prediction rule ``rule(X, theta)`` at the rows of
X, and a fit (:class:`Fitted`) is its kind's rule at the parameter theta
fitted on the training set:

ridge            x'theta (:func:`cvuq.data.row_products`), theta = beta_hat =
                 (X'X + lambda*n*I)^{-1} X'Y
knn_mean         mean response of the theta[2] = min(neighbors, n) nearest of
                 the canonically ordered rows (ties by lowest index)
max_response     theta = max_i y_i at every row, ignoring x
neg_max_response the same rule, theta = -max_i y_i
constant         the same rule, theta = a fixed value
dirac_threshold  level * 1{x1 < theta}, theta = m, the training-set size, or a
                 fixed threshold

All built-ins are symmetric.  To make that exact in floating point, fitting
canonicalizes the row order (lexicographic in (y, x)), so any permutation of
the training rows yields bit-identical predictions.  ridge and
dirac_threshold raise DimensionMismatch on a training set without features.
Predictor arguments throughout the library accept either a
:class:`PredictorSpec` or a plain callable ``(xnew, train) -> float`` for
ad-hoc algorithms, with theta = (callable, training set).

:func:`fit` alone chooses by kind: each kind's branch gives its rule, its
full-data parameter and the parameters of the fits on the rows outside each
fold, which :class:`FoldFits` keeps, predicting with the full-data fit's
rule: one rule per kind gives the full-data predictions, every fold's
predictions and the leave-fold-out residuals alike.  For ridge they come
from a batched Woodbury update of the full fit's thin SVD of X (never X'X,
so accuracy follows the condition number of X, not its square), guarded by
``WOODBURY_MIN_EIG`` and ``PIVOT_RTOL``; closed forms give them for
constant, the max kinds and dirac_threshold, one refit per fold for knn_mean
and callables.  A FoldFits is the only input of the interval constructions
in :mod:`cvuq.intervals`, which read from it what their method needs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import TrainingSet, json_flag, json_integer, json_number, json_object, read_json, row_products
from .ecdf import fold_units
from .errors import DegenerateFit, DimensionMismatch, EmptyFold, FoldLeavesNothing, MalformedInput

PREDICTOR_KINDS = ("ridge", "knn_mean", "max_response", "neg_max_response", "dirac_threshold", "constant")

# X'X + cI counts as singular when (d_min^2 + c)/(d_max^2 + c) < PIVOT_RTOL^2,
# d_min = 0 if rank X < p: [X; sqrt(c) I] has condition number > 1/PIVOT_RTOL.
PIVOT_RTOL = 1e-12

# Smallest eigenvalue of a ridge fold's Woodbury capacitance matrix
# I - Z_f'Z_f (equivalently I - Z_f Z_f'), relative to its largest when p >= n,
# at which the fold is updated from the shared SVD.  Rounding error is
# amplified by at most its inverse, so an updated fold loses at most ~4 more
# digits than a direct solve of its rows; below it the fold is refitted.
WOODBURY_MIN_EIG = 1e-4


@dataclass(frozen=True)
class PredictorSpec:
    """Algorithm kind plus its hyperparameters, which the constructor alone
    reads from ``params``, parsing them once into the read-only attributes
    fitting uses: ridge ``lam`` (``lambda >= 0``); knn_mean ``neighbors``, an
    integer >= 1 (3.0 counts); constant ``value``; dirac_threshold ``level``
    and ``threshold``, None for the training-set size unless the flag
    ``threshold_uses_train_size`` is false.  An absent number is 0, but
    constant needs its value and dirac_threshold its level.  Equality and
    :meth:`to_json` use ``params``.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise MalformedInput(f"unknown predictor kind {self.kind!r}")
        params, what = self.params, f"{self.kind} parameter"
        lam = json_number(params, "lambda", what, 0.0)
        neighbors = json_integer(params, "neighbors", what, 0, least=1 if self.kind == "knn_mean" else -math.inf)
        value = json_number(params, "value", what, None if self.kind == "constant" else 0.0)
        level = json_number(params, "level", what, None if self.kind == "dirac_threshold" else 0.0)
        threshold = json_number(params, "threshold", what, 0.0)
        if self.kind == "ridge" and not lam >= 0:
            raise MalformedInput("ridge lambda must be nonnegative")
        uses_train_size = json_flag(params, "threshold_uses_train_size", what, True)
        vars(self).update(lam=lam, neighbors=neighbors, value=value, level=level,
                          threshold=None if uses_train_size else threshold)  # frozen: set past __setattr__

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, **self.params})

    @classmethod
    def from_json(cls, text: str) -> "PredictorSpec":
        obj = json_object(read_json(text, "predictor file"), "predictor file")
        return cls(obj.pop("kind", None), obj)


def ridge(lam: float) -> PredictorSpec:
    return PredictorSpec("ridge", {"lambda": float(lam)})


def knn_mean(neighbors: int) -> PredictorSpec:
    return PredictorSpec("knn_mean", {"neighbors": int(neighbors)})


def max_response() -> PredictorSpec:
    return PredictorSpec("max_response")


def neg_max_response() -> PredictorSpec:
    return PredictorSpec("neg_max_response")


def dirac_threshold(level: float) -> PredictorSpec:
    return PredictorSpec("dirac_threshold", {"level": float(level)})


def constant(value: float) -> PredictorSpec:
    return PredictorSpec("constant", {"value": float(value)})


def _canonical_order(train: TrainingSet) -> np.ndarray:
    """The row order lexicographic in (y, x): a stable argsort of y, which is
    that order when the sorted responses strictly increase; otherwise (equal
    neighbours, -0.0 and 0.0 included) a lexsort of all p + 1 keys."""
    order = np.argsort(train.y, kind="stable")
    ys = train.y[order]
    if np.all(ys[1:] > ys[:-1]):
        return order
    keys = tuple(train.x[:, j] for j in range(train.p - 1, -1, -1)) + (train.y,)
    return np.lexsort(keys)


def _ridge_svd(train: TrainingSet) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """U (rows in training order), d, V' and U'Y of the thin SVD U diag(d) V' of the canonically
    ordered X (any row order gives the same bits); DimensionMismatch at p = 0."""
    if train.p == 0:
        raise DimensionMismatch("ridge reads features, and the training set has none")
    order = _canonical_order(train)
    u, d, vt = np.linalg.svd(train.x[order], full_matrices=False)
    # np.linalg.matrix_rank's rule: singular values at the SVD's rounding are 0
    d[d <= d[0] * max(train.n, train.p) * np.finfo(float).eps] = 0.0
    U = np.empty_like(u)
    U[order] = u
    return U, d, vt, u.T @ train.y[order]


def _spectrum(d: np.ndarray, p: int, c: float) -> tuple[float, float]:
    """The extreme eigenvalues d_min^2 + c and d_max^2 + c of X'X + cI;
    DegenerateFit when d_max^2 overflows or they fail the ``PIVOT_RTOL`` rule."""
    top = float(d[0]) * float(d[0])  # Python floats overflow to inf without a warning
    if top == math.inf:  # inf >= inf would pass the rule below
        raise DegenerateFit("X'X is not finite: a singular value of X squares to inf")
    lo, hi = (d[-1] ** 2 if d.size == p else 0.0) + c, top + c
    if not (lo > 0 and lo >= PIVOT_RTOL**2 * hi):
        raise DegenerateFit("[X; sqrt(shift) I] has condition number above 1/PIVOT_RTOL")
    return lo, hi


def _ridge_solve(d: np.ndarray, vt: np.ndarray, uty: np.ndarray, c: float) -> np.ndarray:
    """beta = V (d / (d^2 + c) * U'Y), the solution of (X'X + cI) beta = X'Y."""
    _spectrum(d, vt.shape[1], c)
    return vt.T @ (d / (d * d + c) * uty)


def ridge_coefficients(train: TrainingSet, lam: float) -> np.ndarray:
    """Solve (X'X + lambda*n*I) beta = X'Y through the SVD of X."""
    if lam < 0:
        raise MalformedInput("lambda must be nonnegative")
    _, d, vt, uty = _ridge_svd(train)
    return _ridge_solve(d, vt, uty, lam * train.n)


def _ridge_folds(spec: PredictorSpec, train: TrainingSet, partition: FoldPartition, svd) -> tuple[np.ndarray, tuple]:
    """The C-contiguous (k, p) leave-fold-out coefficient rows (which row
    products read with unit stride) and the folds refitted from their own
    rows, from the full fit's thin SVD X = U diag(d) V' (r = min(n, p)
    singular values).  For fold size s and c = lambda*(n - s), X'X + cI has
    spectrum d^2 + c; with h = 1/sqrt(d^2 + c), beta_s = V(d h^2 U'Y) and
    Z_f = U_f diag(d h), a fold f has the Woodbury update beta_f = beta_s -
    V diag(h) Z_f' (I - Z_f Z_f')^{-1} r_f, r_f = y_f - X_f beta_s, solved
    for all folds in one stacked call (the r x r form when s > r).  When
    p >= n, U_f U_f' = I, so I - Z_f Z_f' = U_f diag(c h^2) U_f' has no
    cancellation.  A fold is refitted when its capacitance matrix fails
    ``WOODBURY_MIN_EIG``, when its own X'X + cI may count as singular (by
    the bound eig * (d_min^2 + c) on its smallest eigenvalue), or when its
    size's X'X + cI does, raising ``DegenerateFit`` as a direct fit would."""
    U, d, vt, uty = svd
    lam, folds = spec.lam, partition.folds
    coef = np.empty((len(folds), train.p))
    sizes = np.array([f.size for f in folds])
    square = d.size == train.n  # p >= n: U is orthogonal, so U_f U_f' = I
    fallback = []
    for s in np.unique(sizes):
        members = np.flatnonzero(sizes == s)
        c = lam * (train.n - s)
        try:
            lo, hi = _spectrum(d, train.p, c)
        except DegenerateFit:
            fallback.extend(members)
            continue
        h2 = 1.0 / (d * d + c)
        h = np.sqrt(h2)
        rows = np.concatenate([folds[j] for j in members]).reshape(-1, s)  # (folds, s)
        Uf = U[rows]  # (folds, s, r)
        Z = Uf * (d * h)
        Zt = Z.transpose(0, 2, 1)
        small = s <= d.size  # s x s capacitance matrices, else r x r by push-through
        if square:  # I - Z_f Z_f' and r_f without cancellation, to relative precision
            M, r = (Uf * (c * h2)) @ Uf.transpose(0, 2, 1), Uf @ (c * h2 * uty)
        else:
            M = np.eye(s) - Z @ Zt if small else np.eye(d.size) - Zt @ Z
            r = train.y[rows] - Uf @ (d * d * h2 * uty)
        eig = np.linalg.eigvalsh(M)
        # rounding error in M is relative to its largest eigenvalue, at most 1
        # for I - Z_f Z_f'; the fold's own X'X + cI has eigenvalues in [eig lo, hi]
        ok = (eig[:, 0] >= WOODBURY_MIN_EIG * (eig[:, -1] if square else 1.0)) & (
            eig[:, 0] * lo >= PIVOT_RTOL**2 * hi)
        Z, Zt, M, r = Z[ok], Zt[ok], M[ok], r[ok, :, None]
        v = Zt @ np.linalg.solve(M, r) if small else np.linalg.solve(M, Zt @ r)
        coef[members[ok]] = (vt.T @ ((d * h2 * uty)[:, None] - h[:, None] * v[..., 0].T)).T
        fallback.extend(members[~ok])
    fallback = tuple(sorted(int(j) for j in fallback))
    for j in fallback:
        coef[j] = _refits(spec, train, [folds[j]])[0]
    return coef, fallback


def _refits(spec, train: TrainingSet, folds) -> list:
    """The parameters of the fits of ``spec`` on the rows outside each fold."""
    return [fit(spec, train.subset(np.delete(np.arange(train.n), f))).theta for f in folds]


def _values(X: np.ndarray, value) -> np.ndarray:
    """The rule of constant, max_response and neg_max_response: the value
    copied to every row (its last axis, if any, lines up with the rows)."""
    out = np.empty(np.shape(value)[:-1] + (X.shape[0],))
    out[...] = value
    return out


def _knn(X: np.ndarray, theta) -> np.ndarray:
    """The rule of knn_mean at theta = (canonical x, y, neighbors)."""
    x, y, neighbors = theta
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        d = np.einsum("ij,ij->i", x - row, x - row)
        sel = np.argsort(d, kind="stable")[:neighbors]
        out[i] = y[np.sort(sel)].sum() / neighbors
    return out


def _call(X: np.ndarray, theta) -> np.ndarray:
    """The rule of a callable predictor at theta = (fn, training set)."""
    fn, train = theta
    return np.array([fn(row, train) for row in X], dtype=float)


class Fitted:
    """A fitted model: its kind's rule at the fitted parameter ``theta``, and
    ``fold_parameters(partition)``, the parameters of the fits on the rows
    outside each fold and the folds refitted from their own rows
    (:class:`FoldFits`)."""

    def __init__(self, rule, theta, fold_parameters):
        self.rule, self.theta, self.fold_parameters = rule, theta, fold_parameters

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.rule(X, self.theta)

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict(np.asarray(x, dtype=float).reshape(1, -1))[0])


def fit(spec, train: TrainingSet) -> Fitted:
    """Fit ``spec`` on ``train``: its kind's rule, parameter and fold
    parameters, from the one place that chooses by kind; DimensionMismatch
    for ridge and dirac_threshold on a training set without features."""
    if not isinstance(spec, PredictorSpec):
        return Fitted(_call, (spec, train), lambda part: (_refits(spec, train, part.folds), ()))
    kind = spec.kind
    if kind == "ridge":
        svd = _ridge_svd(train)
        beta = _ridge_solve(*svd[1:], spec.lam * train.n)
        return Fitted(row_products, beta, lambda part: _ridge_folds(spec, train, part, svd))
    if kind == "knn_mean":  # fold refits shrink the sample: clamp to the available rows
        order = _canonical_order(train)
        return Fitted(_knn, (train.x[order], train.y[order], min(spec.neighbors, train.n)),
                      lambda part: (_refits(spec, train, part.folds), ()))
    if kind == "dirac_threshold":
        if train.p == 0:
            raise DimensionMismatch("dirac_threshold reads features, and the training set has none")

        def threshold(size: int) -> float:
            return float(size) if spec.threshold is None else spec.threshold

        return Fitted(lambda X, t: spec.level * (X[:, 0] < t), threshold(train.n),
                      lambda part: (np.array([threshold(part.n - f.size) for f in part.folds]), ()))
    if kind == "constant":
        return Fitted(_values, spec.value, lambda part: (np.full(part.k, spec.value), ()))
    if kind == "max_response":
        return Fitted(_values, train.y.max(), lambda part: (_max_outside(train.y, part), ()))
    return Fitted(_values, -train.y.max(), lambda part: (-_max_outside(train.y, part), ()))


def _max_outside(y: np.ndarray, part: FoldPartition) -> np.ndarray:
    """Per fold, the largest response outside it: only the fold holding the
    first argmax can lose the maximum."""
    i = y.argmax()
    top = part.fold_of[i]
    rest = y.copy()
    rest[part.folds[top]] = -np.inf
    values = np.full(part.k, y[i])
    values[top] = rest.max()
    return values


def feature_row(xnew, p: int) -> np.ndarray:
    """The feature vector ``xnew`` as a (1, p) row; DimensionMismatch unless
    it has p entries, MalformedInput unless they are finite."""
    xnew = np.asarray(xnew, dtype=float)
    if xnew.shape != (p,):
        raise DimensionMismatch(f"xnew has shape {xnew.shape}, expected ({p},)")
    if not np.isfinite(xnew).all():
        raise MalformedInput(f"xnew must be finite, got {xnew.tolist()}")
    return xnew.reshape(1, -1)


def fit_predict(spec, train: TrainingSet, xnew) -> float:
    """One-shot prediction at a single feature vector."""
    row = feature_row(xnew, train.p)
    return float(fit(spec, train).predict(row)[0])


@dataclass(frozen=True)
class FoldPartition:
    """Partition of row indices 0..n-1 into k >= 2 nonempty folds.

    An atom of fold j weighs 1/(k |K_j|) (the CV+ weights of Barber, Candes,
    Ramdas and Tibshirani, Ann. Statist. 49(1), 2021), held exactly as the
    integer ``atom_units`` L/|K_j| out of ``unit_total`` W = kL, L the lcm of
    the fold sizes (:func:`cvuq.ecdf.fold_units`): every sum C of atom units
    is an exact integer, and every cumulative weight is C/W rounded once.  A
    partition whose W exceeds 2^53, past which float64 no longer holds every
    integer, raises WeightSumError.
    """

    folds: tuple
    n: int

    def __post_init__(self):
        folds = tuple(np.asarray(f, dtype=int) for f in self.folds)
        if len(folds) == 1:
            raise FoldLeavesNothing("a single fold would leave nothing to train on")
        if len(folds) < 2:
            raise EmptyFold("need at least two folds")
        if any(f.size == 0 for f in folds):
            raise EmptyFold("every fold must be nonempty")
        seen = np.concatenate(folds)
        if not np.array_equal(np.sort(seen), np.arange(self.n)):
            raise EmptyFold("folds must partition exactly 0..n-1")
        object.__setattr__(self, "folds", folds)
        units, total = fold_units([f.size for f in folds])
        units = units[self.fold_of]
        units.setflags(write=False)
        object.__setattr__(self, "atom_units", units)
        object.__setattr__(self, "unit_total", total)

    @property
    def k(self) -> int:
        return len(self.folds)

    @cached_property
    def fold_of(self) -> np.ndarray:
        out = np.empty(self.n, dtype=int)
        for j, f in enumerate(self.folds):
            out[f] = j
        return out

    @classmethod
    def singletons(cls, n: int) -> "FoldPartition":
        return cls(tuple(np.array([i]) for i in range(n)), n)

    @classmethod
    def contiguous(cls, n: int, k: int) -> "FoldPartition":
        if k == 1:
            raise FoldLeavesNothing("a single fold would leave nothing to train on")
        if not 2 <= k <= n:
            raise EmptyFold(f"cannot split {n} rows into {k} nonempty folds")
        return cls(tuple(np.array_split(np.arange(n), k)), n)


class FoldFits:
    """Cached full-data and leave-fold-out fits for one training set, computed
    once and reused across test points.  Fold j predicts with the full-data
    fit's rule at theta_j, the parameter of the fit on the rows outside it:
    the leave-fold-out residual of row i is y_i - rule(x_i, theta_{j(i)}).
    The fold parameters, one array or one refit's per fold, and
    ``fallback_folds``, the folds refitted from their own rows when a closed
    form would be inaccurate (a tuple of fold indices), come from the
    full-data fit (:func:`fit`).  ``coef`` is the (p, k) view of the fold
    coefficient rows of a linear rule x'theta (ridge), else None.
    """

    def __init__(self, spec, train: TrainingSet, partition: FoldPartition):
        if partition.n != train.n:
            raise DimensionMismatch("partition size differs from training size")
        self.train = train
        self.partition = partition
        self.full_model = fit(spec, train)
        self._theta, self.fallback_folds = self.full_model.fold_parameters(partition)
        rule, theta = self.full_model.rule, self._theta
        self.coef = theta.T if rule is row_products else None
        if isinstance(theta, list):
            self.loo_residuals = np.empty(train.n)
            for t, f in zip(theta, partition.folds):
                self.loo_residuals[f] = train.y[f] - rule(train.x[f], t)
        else:
            self.loo_residuals = train.y - rule(train.x, theta[partition.fold_of])

    def fold_predictions(self, X: np.ndarray) -> np.ndarray:
        """(m, k) matrix of per-fold predictions rule(X, theta_j) at the rows
        of X, in Fortran order: its transpose is a C-contiguous (k, m) block.
        These are the exact values: each row's is its own computation, so a
        row gets the same bits in any block, alone (as
        :func:`cvuq.intervals.interval` asks for it) or among others, in any
        memory order, at any BLAS thread count, and the bits of the
        leave-fold-out residuals."""
        rule, theta = self.full_model.rule, self._theta
        if isinstance(theta, list):
            return np.stack([rule(X, t) for t in theta]).T
        return rule(X, theta[:, None]).T

    def fitted_values(self) -> np.ndarray:
        return self.full_model.predict(self.train.x)
