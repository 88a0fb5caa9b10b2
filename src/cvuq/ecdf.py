"""Weighted step distribution functions and extended quantiles.

A :class:`StepCdf` stores the jump locations and cumulative weights of a
right-continuous step function: ``F(t) = cum[j]`` for ``jumps[j] <= t <
jumps[j+1]``, ``0`` before the first jump and ``1`` from the last jump on.
Quantiles follow the extended definition ``Q_a(F) = inf{x: F(x) >= a}`` with
``-inf`` for ``a <= 0`` and ``+inf`` for ``a > 1``, one rule in :func:`quantile`,
which also reads order statistics off unmerged weighted atoms (:class:`SortedAtoms`),
whose run ends (:meth:`SortedAtoms.run_ends`) are a step cdf: one sort-and-merge rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import json_array, json_object, read_json
from .errors import EmptyFold, WeightSumError

# Cumulative weights are rounded (float weights also accumulated) in floating
# point, so level comparisons tolerate this much slack.
LEVEL_GUARD = 1e-12


@dataclass(frozen=True)
class StepCdf:
    """Sorted jump locations with strictly increasing cumulative weights."""

    jumps: np.ndarray
    cum: np.ndarray

    def __post_init__(self):
        jumps = np.asarray(self.jumps, dtype=float)
        cum = np.asarray(self.cum, dtype=float)
        if jumps.ndim != 1 or cum.shape != jumps.shape or jumps.size == 0:
            raise WeightSumError("jumps and cum must be matching nonempty 1-d arrays")
        if not np.all(np.isfinite(jumps)):
            raise WeightSumError("jump locations must be finite")
        if np.any(np.diff(jumps) <= 0):
            raise WeightSumError("jump locations must be strictly increasing")
        weights = np.diff(cum, prepend=0.0)
        if not np.all(weights > 0):  # NaN fails both comparisons, so test the good case
            raise WeightSumError("every atom must carry positive weight")
        if not abs(cum[-1] - 1.0) <= LEVEL_GUARD:
            raise WeightSumError(f"cumulative weights end at {cum[-1]!r}, expected 1")
        cum = cum.copy()
        cum[-1] = 1.0
        jumps = jumps.copy()
        jumps.setflags(write=False)
        cum.setflags(write=False)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "cum", cum)

    @property
    def weights(self) -> np.ndarray:
        return np.diff(self.cum, prepend=0.0)

    def to_json(self) -> str:
        return json.dumps({"jumps": self.jumps.tolist(), "cum": self.cum.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "StepCdf":
        obj = json_object(read_json(text, "step-cdf file"), "step-cdf file")
        return cls(json_array(obj, "jumps", "step cdf", 1), json_array(obj, "cum", "step cdf", 1))


def weighted_ecdf(values, weights, total=1) -> StepCdf:
    """Weighted empirical cdf with cumulative weights cumsum(weights) / total
    (:class:`SortedAtoms`); atoms at duplicate values merge their weights.
    Integer weights out of their integer sum make every cumulative weight
    fl(C / total) of an exact integer C; float weights pass total 1."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)  # integers up to 2^53 stay exact, and so does their cumsum
    _check_values(values, weights.shape)
    if not np.all(weights > 0):  # NaN fails both comparisons, so test the good case
        raise WeightSumError("weights must be positive")
    mass = float(np.sum(weights))
    if not abs(mass / total - 1.0) <= LEVEL_GUARD:
        raise WeightSumError(f"weights sum to {mass!r}, expected {total!r} within a factor 1 +- {LEVEL_GUARD}")
    atoms = SortedAtoms(values, weights, total)
    ends = atoms.run_ends()
    return StepCdf(atoms.jumps[ends], atoms.cum[ends])


def uniform_ecdf(values) -> StepCdf:
    """Plain empirical cdf with weight 1/n per observation: the run ends of
    one ``np.sort``, each with cumulative weight fl(C / n), C its integer
    rank.  Equal weights need no permutation, so these are the bits of
    ``weighted_ecdf(values, ones, n)``, whose cumsum of ones is exact,
    without its stable argsort."""
    values = np.asarray(values, dtype=float)
    _check_values(values, (values.size,))
    jumps = np.sort(values)
    zero_end = jumps.searchsorted(0.0, "right") - 1
    if zero_end >= 0 and jumps[zero_end] == 0:  # -0.0 == 0.0: the stable order ends the run at the last zero given
        jumps[zero_end] = values[np.flatnonzero(values == 0)[-1]]
    ends = np.flatnonzero(_run_ends(jumps))
    return StepCdf(jumps[ends], (ends + 1) / values.size)


def _check_values(values: np.ndarray, weights_shape) -> None:
    if values.ndim != 1 or values.shape != weights_shape or values.size == 0:
        raise WeightSumError("values and weights must be matching nonempty 1-d arrays")
    if not np.all(np.isfinite(values)):
        raise WeightSumError("atom values must be finite")


def _run_ends(jumps: np.ndarray) -> np.ndarray:
    """Mask of the last of each run of equal sorted values."""
    return np.append(jumps[1:] != jumps[:-1], True)


def fold_units(sizes) -> tuple[np.ndarray, int]:
    """The exact integer weights of k folds of the given sizes: per fold the
    units L/|K_j| of each of its atoms, out of the total W = kL, L the lcm of
    the sizes, so an atom of fold j weighs 1/(k |K_j|).  WeightSumError when
    W exceeds 2^53, past which float64 no longer holds every integer."""
    lcm = math.lcm(*sizes)
    if len(sizes) * lcm > 2**53:
        raise WeightSumError(f"fold sizes {sorted(set(sizes))} have no exact integer weights: "
                             f"k * lcm = {len(sizes) * lcm} exceeds 2^53")
    return lcm // np.array(sizes, dtype=np.int64), len(sizes) * lcm


def fold_ecdf(per_fold_values) -> StepCdf:
    """Fold-weighted ecdf: an atom in fold j carries weight 1/(k*|K_j|), held
    exactly as :func:`fold_units`, so its cumulative weights are fl(C / W).

    With equal fold sizes this reduces to the uniform ecdf, and with
    singleton folds to the plain leave-one-out ecdf.
    """
    groups = [np.asarray(g, dtype=float) for g in per_fold_values]
    if len(groups) < 2:
        raise EmptyFold("need at least two folds")
    if any(g.size == 0 for g in groups):
        raise EmptyFold("every fold must be nonempty")
    sizes = [g.size for g in groups]
    units, total = fold_units(sizes)
    return weighted_ecdf(np.concatenate(groups), np.repeat(units, sizes), total)


def _weight_below(F: StepCdf, t, side: str):
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise ValueError("t must not be NaN")
    w = np.concatenate(([0.0], F.cum))[np.searchsorted(F.jumps, t, side=side)]
    return float(w) if w.ndim == 0 else w


def eval_cdf(F: StepCdf, t):
    """F(t): total weight of atoms at or below t; an array at an array of t."""
    return _weight_below(F, t, "right")


def left_limit(F: StepCdf, t):
    """F(t-): total weight of atoms strictly below t; an array at an array of t."""
    return _weight_below(F, t, "left")


def quantile(F, alpha):
    """Extended quantile: -inf for alpha <= 0, +inf for alpha > 1, else the
    smallest jump whose cumulative weight reaches alpha (within LEVEL_GUARD);
    a float at one level, an array at an array of levels.  ``F`` is a
    :class:`StepCdf` or :class:`SortedAtoms`."""
    alpha = np.asarray(alpha, dtype=float)
    if np.isnan(alpha).any():
        raise ValueError("alpha must not be NaN")
    # the index is clamped to the last jump only for levels above 1
    q = F.jumps[np.minimum(F.cum.searchsorted(alpha - LEVEL_GUARD), F.jumps.size - 1)]
    q = np.where(alpha <= 0.0, -math.inf, np.where(alpha > 1.0, math.inf, q))
    return float(q) if q.ndim == 0 else q


class SortedAtoms:
    """Weighted atoms sorted, repeats kept, with unvalidated cumulative weights
    cumsum(weights) / total (the last set to 1).  Integer weights out of an
    integer ``total`` of at most 2^53 (:func:`fold_units`) make every
    cumulative weight an exact integer C divided once: fl(C / total).  At
    :meth:`run_ends` they are :func:`weighted_ecdf`'s jumps and cumulative
    weights.  The stable argsort carries each weight with its value; of the
    order within a run of equal values only the sign of a zero shows.  Equal
    weights need no permutation, so :func:`uniform_ecdf` sorts the values
    alone."""

    def __init__(self, values: np.ndarray, weights: np.ndarray, total=1):
        order = np.argsort(values, kind="stable")
        self.jumps = values[order]
        self.cum = weights[order].cumsum() / total
        self.cum[-1] = 1.0

    def run_ends(self) -> np.ndarray:
        """Mask of the last atom of each run of equal values, whose cum holds the run."""
        return _run_ends(self.jumps)
