"""Weighted step distribution functions and extended quantiles.

A :class:`StepCdf` stores the jump locations and cumulative weights of a
right-continuous step function: ``F(t) = cum[j]`` for ``jumps[j] <= t <
jumps[j+1]``, ``0`` before the first jump and ``1`` from the last jump on.
Quantiles follow the extended definition ``Q_a(F) = inf{x: F(x) >= a}`` with
``-inf`` for ``a <= 0`` and ``+inf`` for ``a > 1``, one rule in :func:`quantiles`,
which also reads order statistics off unmerged weighted atoms (:class:`SortedAtoms`),
whose run ends (:meth:`SortedAtoms.run_ends`) are a step cdf: one sort-and-merge rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFold, MalformedInput, WeightSumError

# Cumulative weights are accumulated in floating point, so level comparisons
# tolerate this much slack.
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
        try:
            obj = json.loads(text)
            jumps = np.asarray(obj["jumps"], dtype=float)
            cum = np.asarray(obj["cum"], dtype=float)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad step-cdf JSON: {exc}") from exc
        return cls(jumps, cum)


def weighted_ecdf(values, weights) -> StepCdf:
    """Weighted empirical cdf; atoms at duplicate values merge their weights."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 1 or values.shape != weights.shape or values.size == 0:
        raise WeightSumError("values and weights must be matching nonempty 1-d arrays")
    if not np.all(np.isfinite(values)):
        raise WeightSumError("atom values must be finite")
    if not np.all(weights > 0):  # NaN fails both comparisons, so test the good case
        raise WeightSumError("weights must be positive")
    total = float(np.sum(weights))
    if not abs(total - 1.0) <= LEVEL_GUARD:
        raise WeightSumError(f"weights sum to {total!r}, expected 1 within {LEVEL_GUARD}")
    atoms = SortedAtoms(values, weights)
    ends = atoms.run_ends()
    return StepCdf(atoms.jumps[ends], atoms.cum[ends])


def uniform_ecdf(values) -> StepCdf:
    """Plain empirical cdf with weight 1/n per observation."""
    values = np.asarray(values, dtype=float)
    return weighted_ecdf(values, np.full(values.size, 1.0 / values.size))


def fold_ecdf(per_fold_values) -> StepCdf:
    """Fold-weighted ecdf: an atom in fold j carries weight 1/(k*|K_j|).

    With equal fold sizes this reduces to the uniform ecdf, and with
    singleton folds to the plain leave-one-out ecdf.
    """
    groups = [np.asarray(g, dtype=float) for g in per_fold_values]
    if len(groups) < 2:
        raise EmptyFold("need at least two folds")
    if any(g.size == 0 for g in groups):
        raise EmptyFold("every fold must be nonempty")
    sizes = np.array([g.size for g in groups])
    weights = np.repeat(1.0 / (len(groups) * sizes), sizes)
    return weighted_ecdf(np.concatenate(groups), weights)


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


def quantile(F: StepCdf, alpha: float) -> float:
    """Extended quantile: -inf for alpha <= 0, +inf for alpha > 1, else the
    smallest jump whose cumulative weight reaches alpha (within LEVEL_GUARD).
    """
    return float(quantiles(F, alpha))


def quantiles(F, alphas) -> np.ndarray:
    """:func:`quantile` at every level of ``alphas``; ``F`` is a
    :class:`StepCdf` or :class:`SortedAtoms`."""
    alphas = np.asarray(alphas, dtype=float)
    if np.isnan(alphas).any():
        raise ValueError("alpha must not be NaN")
    # the index is clamped to the last jump only for levels above 1
    q = F.jumps[np.minimum(F.cum.searchsorted(alphas - LEVEL_GUARD), F.jumps.size - 1)]
    return np.where(alphas <= 0.0, -math.inf, np.where(alphas > 1.0, math.inf, q))


class SortedAtoms:
    """Weighted atoms sorted, repeats kept, with unvalidated cumulative weights
    (the last set to 1).  At :meth:`run_ends` they are :func:`weighted_ecdf`'s
    jumps and cumulative weights."""

    def __init__(self, values: np.ndarray, weights: np.ndarray):
        order = np.argsort(values, kind="stable")
        self.jumps = values[order]
        self.cum = np.cumsum(weights[order])
        self.cum[-1] = 1.0

    def run_ends(self) -> np.ndarray:
        """Mask of the last atom of each run of equal values, whose cum holds the run."""
        return np.append(self.jumps[1:] != self.jumps[:-1], True)
