import math
import tracemalloc

import numpy as np
import pytest

from cvuq.data import DgpSpec, TrainingSet
from cvuq.errors import InvalidTolerance, NumericError
from cvuq.intervals import IntervalMethod, interval
from cvuq.levy_gauge import gauge
from cvuq.predictors import FoldFits, FoldPartition, constant, max_response, ridge
from cvuq.rng import stream
from cvuq.simlab import (
    DEFAULT_PAIR_GRID,
    CoverageEngine,
    conditional_coverage,
    constant_family,
    coverage_distribution,
    gauge_convergence,
    infinite_length_probe,
    isotonic_trend_ok,
    jk_vs_jkplus_gap,
    length_compare,
    resolve_delta,
    sqrt_n_family,
)
from cvuq.stability import resolve_partition
from oracles import dense_fold_exceedance, per_point_coverage, sorted_atom_coverage

GAUSS = DgpSpec("gaussian_linear", {"beta": [1.0, -0.5], "sigma": 1.0})
GAUSS1 = DgpSpec("gaussian_linear", {"beta": [0.0], "sigma": 1.0})

ALL_METHODS = [
    IntervalMethod("cv"),
    IntervalMethod("cv_plus"),
    IntervalMethod("fitted_values"),
    IntervalMethod("cv", symmetrized=True),
    IntervalMethod("cv_plus", symmetrized=True),
    IntervalMethod("fitted_values", symmetrized=True),
]


def test_engine_matches_per_point_intervals_exactly():
    rng = np.random.default_rng(0)
    for part_rule in ("jackknife", 3):
        train = GAUSS.sample(10, stream(1, 0))
        fits = FoldFits(ridge(0.5), train, resolve_partition(part_rule, train.n))
        y_test, x_test = GAUSS.draw(200, stream(1, 1))
        engine = CoverageEngine(fits, x_test, y_test)
        for method in ALL_METHODS:
            for a1, a2, d in ((0.1, 0.9, 0.0), (0.0, 0.8, 0.3), (0.25, 1.0, -0.2), (0.5, 0.5, 0.1)):
                fast = engine.coverage(method, a1, a2, d)
                assert fast == per_point_coverage(fits, method, a1, a2, d, x_test, y_test), (method, a1, a2, d)


def test_conditional_coverage_trivial_cases():
    train = GAUSS.sample(20, stream(2))
    # whole-line interval
    full = conditional_coverage(
        constant(0.0), GAUSS, train, IntervalMethod("cv"), 0.0, 1.0, 100.0, 500, seed=3
    )
    assert full == 1.0
    # crossed alphas with delta=0: empty interval
    empty = conditional_coverage(
        constant(0.0), GAUSS, train, IntervalMethod("cv"), 0.9, 0.1, 0.0, 500, seed=3
    )
    assert empty == 0.0


def test_coverage_matches_exchangeability_oracle_small_n():
    # constant predictor, continuous iid y, delta 0: expected conditional
    # coverage is (ceil(a2 n) - ceil(a1 n)) / (n + 1) by the rank argument
    n, a1, a2 = 8, 0.25, 0.75
    rep = coverage_distribution(
        constant(0.0), GAUSS1, n, IntervalMethod("cv"), a1, a2, 0.0,
        train_reps=600, mc_test=300, seed=4,
    )
    k1, k2 = math.ceil(a1 * n), math.ceil(a2 * n)
    expect = (k2 - k1) / (n + 1)
    se = rep.conditional_cov.std(ddof=1) / math.sqrt(rep.reps)
    assert abs(rep.mean - expect) <= 3 * se + 1 / 300
    assert rep.q05 <= rep.q50 <= rep.q95


def test_jk_vs_jkplus_constant_predictor_identical():
    rep = jk_vs_jkplus_gap(
        constant(1.0), GAUSS, 15, 0.05, 0.95, 0.0,
        train_reps=20, mc_test=200, seed=5,
    )
    assert rep.sup_gap == 0.0
    assert rep.event_freq == 0.0
    assert np.all(rep.fold_exceed == 0.0)
    assert rep.bound == 0.0


def test_jk_vs_jkplus_event_frequency_below_bound():
    rep = jk_vs_jkplus_gap(
        ridge(0.1), GAUSS, 40, 0.05, 0.95, 0.0,
        train_reps=60, mc_test=400, seed=6, eps=0.05,
    )
    assert rep.event_freq <= rep.bound + 3 * rep.event_std_err + 1e-12
    assert rep.q95_gap <= rep.sup_gap


def test_length_compare_dominance():
    from cvuq.predictors import neg_max_response

    rep = length_compare(
        [max_response(), neg_max_response()], GAUSS1, 12, 0.6, train_reps=50, seed=7, alpha1=0.2
    )
    j = rep.lengths_cv["max_response"]
    jp = rep.lengths_cvp["max_response"]
    assert np.all(jp <= j + 1e-12)
    j = rep.lengths_cv["neg_max_response"]
    jp = rep.lengths_cvp["neg_max_response"]
    assert np.all(j <= jp + 1e-12)


def test_gauge_convergence_decreasing_for_stable():
    rep = gauge_convergence(
        constant(0.0), GAUSS1, (20, 60, 180), 0.2, train_reps=30, mc_oracle=2000, seed=8
    )
    assert isotonic_trend_ok(rep.mean, rep.std_err, "decreasing")
    assert rep.mean[-1] < rep.mean[0]


def test_gauge_monotone_in_delta_per_rep():
    train = GAUSS1.sample(30, stream(9, 0))
    fits = FoldFits(constant(0.0), train, FoldPartition.singletons(30))
    from cvuq.ecdf import fold_ecdf, uniform_ecdf

    F_hat = fold_ecdf([fits.loo_residuals[f] for f in fits.partition.folds])
    y_o, x_o = GAUSS1.draw(500, stream(9, 1))
    F_or = uniform_ecdf(y_o - fits.full_model.predict(x_o))
    assert gauge(F_hat, F_or, 0.5).value <= gauge(F_hat, F_or, 0.0).value


def test_infinite_length_probe_growth_and_control():
    grid = (20, 80, 320)
    growing = infinite_length_probe(
        constant(0.0), sqrt_n_family(GAUSS1), grid, 0.8, train_reps=40, seed=10
    )
    flat = infinite_length_probe(
        constant(0.0), constant_family(GAUSS1), grid, 0.8, train_reps=40, seed=10
    )
    assert isotonic_trend_ok(growing.mean, growing.std_err, "increasing")
    assert growing.mean[-1] > 2.0 * growing.mean[0]
    # control arm: no systematic growth
    assert abs(flat.mean[-1] - flat.mean[0]) <= 4 * math.hypot(flat.std_err[0], flat.std_err[-1])


def test_shrunken_inflated_duality_set_algebra():
    # with the same atoms and test points: the -2d shrunken interval and the
    # two d-inflated flank intervals are disjoint, so their empirical
    # coverages sum to at most one; an empty shrunken interval covers nothing
    train = GAUSS.sample(25, stream(11, 0))
    fits = FoldFits(ridge(0.5), train, FoldPartition.singletons(25))
    y_test, x_test = GAUSS.draw(2000, stream(11, 1))
    engine = CoverageEngine(fits, x_test, y_test)
    cv = IntervalMethod("cv")
    for d in (0.05, 0.2, 1.0):
        for a1, a2 in ((0.1, 0.9), (0.3, 0.6), (0.45, 0.55)):
            shr = engine.coverage(cv, a1, a2, -2 * d)
            lo_flank = engine.coverage(cv, 0.0, a1, d)
            hi_flank = engine.coverage(cv, a2, 1.0, d)
            bundle = fits.bundle_at(x_test[0])
            if interval(cv, bundle, a1, a2, -2 * d).empty:
                pass  # empty intervals cover nothing by construction
            else:
                assert shr <= 1.0 - lo_flank - hi_flank + 1e-12


def test_coverage_distribution_thread_invariance():
    kwargs = dict(
        alpha1=0.1, alpha2=0.9, delta=0.0, train_reps=12, mc_test=100, seed=12
    )
    a = coverage_distribution(ridge(0.5), GAUSS, 15, IntervalMethod("cv"), threads=1, **kwargs)
    b = coverage_distribution(ridge(0.5), GAUSS, 15, IntervalMethod("cv"), threads=8, **kwargs)
    np.testing.assert_array_equal(a.conditional_cov, b.conditional_cov)


def test_resolve_delta_rules():
    u = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    iqr = np.quantile(u, 0.75) - np.quantile(u, 0.25)
    assert resolve_delta("iqr:-0.1", u) == pytest.approx(-0.1 * iqr)
    assert resolve_delta(0.7, u) == 0.7
    assert resolve_delta(lambda r: r.max(), u) == 4.0
    for rule in ("bogus:1", "iqr:", "iqr:abc", "iqr:inf", "iqr:nan"):
        with pytest.raises(InvalidTolerance):
            resolve_delta(rule, u)
    for rule in (math.nan, lambda r: math.nan):
        with pytest.raises(NumericError):
            resolve_delta(rule, u)


CV_PLUS = [IntervalMethod("cv_plus"), IntervalMethod("cv_plus", symmetrized=True)]


@pytest.mark.parametrize("rule", ["jackknife", 7])
def test_kernel_matches_sorted_atom_oracle(rule):
    n, m = 200, 5000
    train = GAUSS.sample(n, stream(14, 0))
    fits = FoldFits(ridge(0.5), train, resolve_partition(rule, n))
    y_test, x_test = GAUSS.draw(m, stream(14, 1))
    engine = CoverageEngine(fits, x_test, y_test)
    for method in CV_PLUS:
        for d in (0.0, 0.05, -0.2):
            for a1, a2 in DEFAULT_PAIR_GRID:
                fast = engine.coverage(method, a1, a2, d)
                slow = sorted_atom_coverage(fits, a1, a2, d, x_test, y_test, method.symmetrized)
                assert fast == slow, (method, d, a1, a2)
    # the exceedance from its own pass, and from the first counting pass
    for d in (0.0, 0.01, 0.1):
        dense = dense_fold_exceedance(fits, x_test, d)
        before = CoverageEngine(fits, x_test, y_test, exceed_delta=d)
        np.testing.assert_array_equal(before.fold_exceedance(), dense)
        after = CoverageEngine(fits, x_test, y_test, exceed_delta=d)
        after.coverage(CV_PLUS[0], 0.05, 0.95, 0.0)
        np.testing.assert_array_equal(after.fold_exceedance(), dense)


def _lattice_case(n, rule):
    # constant predictor 0 on responses that are multiples of 0.25: every atom
    # is a training response, test responses sit on atoms and on atoms +- 0.25
    y = np.round(GAUSS1.draw(n, stream(15, n))[0] * 4.0) / 4.0
    fits = FoldFits(constant(0.0), TrainingSet(y, np.zeros((n, 1))), resolve_partition(rule, n))
    y_test = np.unique(np.concatenate([y, y + 0.25, y - 0.25, [-10.0, 10.0]]))
    return fits, np.zeros((y_test.size, 1)), y_test


def _ridge_case(n, rule):
    train = GAUSS.sample(n, stream(16, n))
    y_test, x_test = GAUSS.draw(24, stream(16, n, 1))
    return FoldFits(ridge(0.5), train, resolve_partition(rule, n)), x_test, y_test


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: _ridge_case(10, 3), id="ridge-k3-n10"),
        pytest.param(lambda: _ridge_case(13, 4), id="ridge-k4-n13"),
        pytest.param(lambda: _ridge_case(12, "jackknife"), id="ridge-jackknife-n12"),
        pytest.param(lambda: _lattice_case(25, "jackknife"), id="ties-jackknife-n25"),
        pytest.param(lambda: _lattice_case(10, 3), id="ties-k3-n10"),
    ],
)
def test_kernel_matches_scalar_intervals_on_adversarial_inputs(case):
    fits, x_test, y_test = case()
    part = fits.partition
    n = part.n
    weights = np.concatenate([np.full(f.size, 1.0 / (part.k * f.size)) for f in part.folds])
    # every exact multiple of 1/n, the same a hair above (within LEVEL_GUARD
    # of j/n but more than LEVEL_GUARD / n above it), and cumulative fold
    # weight as either level, crossed pairs, and levels near and outside the
    # ends of (0, 1]
    grid = {j / n for j in range(n + 1)} | {j / n + 5e-13 for j in range(n + 1)}
    grid = sorted(grid | {float(c) for c in np.cumsum(weights)})
    pairs = [(a, 1.0) for a in grid] + [(0.0, b) for b in grid] + list(zip(grid, reversed(grid)))
    pairs += [(1e-13, 1.0), (0.0, 1e-13), (-0.1, 0.5), (0.0, 1.5), (1.2, 1.5), (-0.5, 0.0)]
    engine = CoverageEngine(fits, x_test, y_test)
    for method in CV_PLUS:
        for d in (0.0, 0.25, -0.25, -2.0):
            for a1, a2 in pairs:
                fast = engine.coverage(method, a1, a2, d)
                assert fast == per_point_coverage(fits, method, a1, a2, d, x_test, y_test), (method, d, a1, a2)


def test_kernel_matches_scalar_intervals_at_infinite_delta():
    # an infinite quantile's end passes every y, except at delta = -inf,
    # where it is NaN and, like every other lower end, passes none
    fits, x_test, y_test = _ridge_case(12, "jackknife")
    engine = CoverageEngine(fits, x_test, y_test)
    for method in CV_PLUS:
        for d in (math.inf, -math.inf):
            for a1, a2 in ((0.0, 1.5), (-0.1, 1.0), (0.1, 0.9), (1.2, 1.5), (-0.5, 0.0), (0.0, 1.0)):
                fast = engine.coverage(method, a1, a2, d)
                assert fast == per_point_coverage(fits, method, a1, a2, d, x_test, y_test), (method, d, a1, a2)


def test_cv_plus_coverages_share_one_pass(monkeypatch):
    # the equivalence check reads cv+ coverages at its delta and at 0: one
    # pass of fold predictions per method serves every tolerance of a batch
    fits, x_test, y_test = _ridge_case(13, 4)
    rows = []
    fold_predictions = fits.fold_predictions
    monkeypatch.setattr(fits, "fold_predictions", lambda x: rows.append(len(x)) or fold_predictions(x))
    engine = CoverageEngine(fits, x_test, y_test)
    levels = [(a1, a2, d) for d in (0.25, 0.0, -0.25, -math.inf) for a1, a2 in DEFAULT_PAIR_GRID]
    fast = {method: engine.coverages(method, levels) for method in CV_PLUS}
    assert sum(rows) == 2 * y_test.size
    assert [engine.coverage(CV_PLUS[0], *lv) for lv in levels] == fast[CV_PLUS[0]]
    assert sum(rows) == 2 * y_test.size  # counted tolerances are not counted again
    monkeypatch.undo()
    for method in CV_PLUS:
        for (a1, a2, d), cov in zip(levels, fast[method]):
            assert cov == per_point_coverage(fits, method, a1, a2, d, x_test, y_test), (method, d, a1, a2)


def test_cv_plus_kernel_memory_is_blocked():
    n, m = 200, 50_000
    train = GAUSS.sample(n, stream(17, 0))
    fits = FoldFits(ridge(0.5), train, FoldPartition.singletons(n))
    y_test, x_test = GAUSS.draw(m, stream(17, 1))
    tracemalloc.start()
    try:
        # no (m, n) fold-prediction matrix: built, counted and exceeded by row blocks
        engine = CoverageEngine(fits, x_test, y_test, exceed_delta=0.1)
        engine.coverage(IntervalMethod("cv_plus"), 0.05, 0.95, 0.1)
        engine.fold_exceedance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * n * 8 / 4
