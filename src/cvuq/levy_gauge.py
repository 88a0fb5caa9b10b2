"""Tolerance-delta gauge distance between step cdfs, with computable bounds.

For cdfs F, G and a tolerance ``delta >= 0`` the gauge is

    L_delta(F, G) = sup_t max(F(t) - G(t + delta), G(t) - F(t + delta)),

the smallest eps such that ``F(t - delta) - eps <= G(t) <= F(t + delta) + eps``
for all t.  At ``delta = 0`` it is the Kolmogorov distance.  For step cdfs the
sup is attained on a finite candidate set, so everything here is exact: each
one-sided difference is right-continuous and piecewise constant with
breakpoints at the jumps of F and the shifted jumps of G, hence its sup over
every constancy interval is the value at the interval's left endpoint.

The sup of F(t) - G(t + delta) is taken over the two sorted candidate groups
apart, with no merge or re-sort.  At F's own jumps F is ``F.cum``; at G's
shifted jumps fl(b - delta) G is ``G.cum`` wherever fl(fl(b - delta) + delta)
= b.  The other cdf, and G where that rounding misses b, are read by binary
search, always of the smaller sorted set in the larger.  The first maximizer
in candidate order is the smaller of the two groups' first maximizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ecdf import StepCdf, eval_cdf, quantile
from .errors import DimensionMismatch, InvalidTolerance, UnboundedLoss


@dataclass(frozen=True)
class GaugeResult:
    """Gauge value with a location attaining it.

    ``side`` tells which one-sided difference wins: ``"F_over_G"`` for
    F(t) - G(t + delta) and ``"G_over_F"`` for G(t) - F(t + delta).
    """

    value: float
    witness_t: float
    side: str

    def __float__(self) -> float:
        return self.value


def _at_sorted(F: StepCdf, t: np.ndarray) -> np.ndarray:
    """F(t) at nondecreasing t, the bits of ``eval_cdf(F, t)``.  Many points
    against few jumps search each jump in t and repeat the cdf's values."""
    levels = np.concatenate(([0.0], F.cum))
    if t.size <= F.jumps.size:
        return levels[F.jumps.searchsorted(t, "right")]
    firsts = t.searchsorted(F.jumps, "left")  # the first point at or past each jump
    return np.repeat(levels, np.diff(firsts, prepend=0, append=t.size))


def _one_side(F: StepCdf, G: StepCdf, delta: float):
    # sup_t F(t) - G(t + delta), attained at a jump a of F or a shifted jump fl(b - delta) of G;
    # both groups are sorted, since x -> fl(x +- delta) is nondecreasing
    at_a = F.cum - _at_sorted(G, F.jumps + delta)
    shifted = G.jumps - delta
    back = shifted + delta
    g_shifted = G.cum.copy()
    missed = back != G.jumps
    g_shifted[missed] = _at_sorted(G, back[missed])
    at_b = _at_sorted(F, shifted) - g_shifted
    i, j = int(np.argmax(at_a)), int(np.argmax(at_b))
    if at_a[i] > at_b[j] or (at_a[i] == at_b[j] and F.jumps[i] <= shifted[j]):
        return float(at_a[i]), float(F.jumps[i])
    return float(at_b[j]), float(shifted[j])


def gauge(F: StepCdf, G: StepCdf, delta: float) -> GaugeResult:
    """Exact gauge between two step cdfs; the witness is the first maximizer
    in candidate order, preferring the F-over-G side on ties."""
    if not delta >= 0:
        raise InvalidTolerance("delta must be nonnegative")
    if delta == math.inf:  # F(t) <= 1 = G(t + inf): both sides are 0 everywhere
        return GaugeResult(0.0, float(F.jumps[-1]), "F_over_G")
    v_fg, t_fg = _one_side(F, G, delta)
    v_gf, t_gf = _one_side(G, F, delta)
    if v_fg >= v_gf:
        return GaugeResult(max(v_fg, 0.0), t_fg, "F_over_G")
    return GaugeResult(max(v_gf, 0.0), t_gf, "G_over_F")


def kolmogorov_distance(F: StepCdf, G: StepCdf) -> float:
    """Sup-norm distance; the gauge at tolerance zero."""
    return gauge(F, G, 0.0).value


def quantile_sandwich(F: StepCdf, G: StepCdf, delta: float, alpha: float):
    """Bracket for Q_alpha(G) in terms of the quantiles of F:

        Q_{alpha - L}(F) - delta <= Q_alpha(G) <= Q_{alpha + L}(F) + delta

    with L the gauge between F and G at tolerance delta.  Returns (lo, hi).
    """
    L = gauge(F, G, delta).value
    lo = quantile(F, alpha - L)
    hi = quantile(F, alpha + L)
    lo = lo - delta if math.isfinite(lo) else lo
    hi = hi + delta if math.isfinite(hi) else hi
    return lo, hi


def gauge_bound_matched_pairs(a, b, weights, delta: float) -> float:
    """Identity-coupling bound sum_i p_i * 1{|a_i - b_i| > delta}.

    Dominates the gauge between the weighted ecdfs of a and b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if a.shape != b.shape or a.shape != weights.shape:
        raise DimensionMismatch("a, b and weights must have equal length")
    return float(np.sum(weights[np.abs(a - b) > delta]))


def gauge_bound_wasserstein(a, b, weights, delta: float) -> float:
    """Identity-coupling first-moment bound (1/delta) * sum_i p_i |a_i - b_i|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if a.shape != b.shape or a.shape != weights.shape:
        raise DimensionMismatch("a, b and weights must have equal length")
    if not delta > 0:
        raise InvalidTolerance("delta must be positive")
    return float(np.sum(weights * np.abs(a - b)) / delta)


def _squared_diff_integral(F: StepCdf, G: StepCdf, lo: float, hi: float) -> float:
    """Exact integral of (F - G)^2 over [lo, hi] by breakpoint decomposition."""
    if hi <= lo:
        return 0.0
    breaks = np.union1d(F.jumps, G.jumps)
    breaks = breaks[(breaks > lo) & (breaks < hi)]
    edges = np.concatenate(([lo], breaks, [hi]))
    lefts = edges[:-1]
    diffs = eval_cdf(F, lefts) - eval_cdf(G, lefts)
    return float(np.sum(diffs**2 * np.diff(edges)))


def gauge_bound_l2(F: StepCdf, G: StepCdf, delta: float, mu: float, K: float) -> float:
    """Windowed L2 bound: tail mass outside [mu-K, mu+K] plus the root of
    (1/delta) * integral of (F-G)^2 over [mu-K-delta, mu+K+2*delta]."""
    if not delta > 0:
        raise InvalidTolerance("delta must be positive")
    if not K >= 0:
        raise InvalidTolerance("K must be nonnegative")
    tail = 1.0 - eval_cdf(F, mu + K) + eval_cdf(F, mu - K)
    integral = _squared_diff_integral(F, G, mu - K - delta, mu + K + 2 * delta)
    return tail + math.sqrt(integral / delta)


def gauge_bound_l2_global(F: StepCdf, G: StepCdf, delta: float) -> float:
    """Global form: the gauge squared is at most (1/delta) * integral (F-G)^2.

    Returns the square root, an upper bound for the gauge itself.
    """
    if not delta > 0:
        raise InvalidTolerance("delta must be positive")
    lo = min(F.jumps[0], G.jumps[0]) - 1.0
    hi = max(F.jumps[-1], G.jumps[-1]) + 1.0
    return math.sqrt(_squared_diff_integral(F, G, lo, hi) / delta)


@dataclass(frozen=True)
class MonotoneFn:
    """Nondecreasing bounded function descriptor for expectation transfer.

    ``lower``/``upper`` are the declared range bounds; ``lipschitz`` and
    ``total_variation`` are optional extra regularity declarations.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float
    lipschitz: float | None = None
    total_variation: float | None = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def step_expectation(F: StepCdf, fn: Callable[[np.ndarray], np.ndarray], shift: float = 0.0) -> float:
    """Exact E f(X + shift) for X distributed by the step cdf F."""
    return float(np.sum(F.weights * np.asarray(fn(F.jumps + shift), dtype=float)))


def expectation_transfer(f: MonotoneFn, F: StepCdf, G: StepCdf, delta: float):
    """Bracket E f(X), X ~ F, using Y ~ G:

        E f(Y - delta) - (M2 - M1) L  <=  E f(X)  <=  E f(Y + delta) + (M2 - M1) L

    with L the gauge between F and G at tolerance delta.  Returns (lo, hi).
    """
    if not (math.isfinite(f.lower) and math.isfinite(f.upper)):
        raise UnboundedLoss("expectation transfer needs finite declared bounds")
    L = gauge(F, G, delta).value
    span = f.upper - f.lower
    lo = step_expectation(G, f, -delta) - span * L
    hi = step_expectation(G, f, +delta) + span * L
    return lo, hi


def koksma_bound(g: MonotoneFn, F: StepCdf, G: StepCdf) -> float:
    """Upper bound V(g) * L_0(F, G) for |E g(X) - E g(Y)|; g must declare a
    finite total variation."""
    if g.total_variation is None or not math.isfinite(g.total_variation):
        raise UnboundedLoss("Koksma bound needs a declared finite total variation")
    return g.total_variation * kolmogorov_distance(F, G)


def lipschitz_transfer_bound(f: MonotoneFn, F: StepCdf, G: StepCdf, delta: float) -> float:
    """Upper bound L*delta + (M2 - M1) * gauge for |E f(X) - E f(Y)|."""
    if f.lipschitz is None:
        raise UnboundedLoss("Lipschitz transfer needs a declared constant")
    span = f.upper - f.lower
    return f.lipschitz * delta + span * gauge(F, G, delta).value


def scaled(F: StepCdf, c: float) -> StepCdf:
    """The cdf of X/c for X ~ F, i.e. t -> F(c*t); needs c > 0."""
    if not c > 0:
        raise InvalidTolerance("c must be positive")
    return StepCdf(F.jumps / c, F.cum)


__all__ = [
    "GaugeResult",
    "MonotoneFn",
    "expectation_transfer",
    "gauge",
    "gauge_bound_l2",
    "gauge_bound_l2_global",
    "gauge_bound_matched_pairs",
    "gauge_bound_wasserstein",
    "koksma_bound",
    "kolmogorov_distance",
    "lipschitz_transfer_bound",
    "quantile_sandwich",
    "scaled",
    "step_expectation",
]
