import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvuq import simlab
from cvuq.data import DgpSpec, TrainingSet
from cvuq.ecdf import LEVEL_GUARD, fold_units
from cvuq.errors import DegenerateFit, InvalidTolerance, MalformedInput, NumericError
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
    jk_vs_jkplus_gap,
    length_compare,
    resolve_delta,
    sqrt_n_family,
)
from cvuq.stability import resolve_partition
from oracles import (dense_fold_exceedance, isotonic_trend_ok, least_reach, per_point_coverage, sorted_atom_coverage,
                     unequal_folds)

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
    levels = ((0.1, 0.9, 0.0), (0.0, 0.8, 0.3), (0.25, 1.0, -0.2), (0.5, 0.5, 0.1))
    for part_rule in ("jackknife", 3):
        train = GAUSS.sample(10, stream(1, 0))
        fits = FoldFits(ridge(0.5), train, resolve_partition(part_rule, train.n))
        y_test, x_test = GAUSS.draw(200, stream(1, 1))
        for method in ALL_METHODS:
            engine = CoverageEngine(fits, x_test, y_test, cv_plus=[d for _, _, d in levels],
                                    symmetrized=method.symmetrized)
            for a1, a2, d in levels:
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
    assert abs(rep.mean - expect) <= 3 * rep.std_err + 1 / 300
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


def test_coverage_report_std_err_is_se_of_the_mean():
    kwargs = dict(alpha1=0.05, alpha2=0.95, delta=0.0, mc_test=200, seed=8)
    rep = coverage_distribution(ridge(0.5), GAUSS, 15, IntervalMethod("cv"), train_reps=6, **kwargs)
    assert rep.std_err == rep.conditional_cov.std(ddof=1) / math.sqrt(6)
    assert 0 < rep.std_err < math.inf
    single = coverage_distribution(ridge(0.5), GAUSS, 15, IntervalMethod("cv"), train_reps=1, **kwargs)
    assert single.std_err == math.inf
    assert single.mean == single.conditional_cov[0]


def test_equivalence_report_flags_a_vacuous_bound():
    kwargs = dict(alpha1=0.05, alpha2=0.95, delta=0.0, train_reps=3, mc_test=100, seed=9)
    tight = jk_vs_jkplus_gap(constant(1.0), GAUSS, 15, **kwargs)
    assert tight.bound == 0.0 and not tight.vacuous
    # every ridge fold prediction moves by more than 0, so the bound is 1 / eps^2
    loose = jk_vs_jkplus_gap(ridge(0.5), GAUSS, 15, stability_delta=0.0, **kwargs)
    assert loose.bound > 1.0 and loose.vacuous
    assert dataclasses.replace(tight, bound=1.0).vacuous
    assert not dataclasses.replace(tight, bound=math.nextafter(1.0, 0.0)).vacuous


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


def test_length_compare_checks_each_test_point_once():
    # one feature_row per replication serves both specs' cv and cv+ intervals,
    # whose lengths are interval()'s at the drawn point; a non-finite point fails alike
    from cvuq import intervals, predictors

    specs, n, reps, seed = [max_response(), ridge(0.5)], 10, 6, 3
    checks = []

    def counted(xnew, p):
        checks.append(p)
        return predictors.feature_row(xnew, p)

    with mock.patch.object(intervals, "feature_row", counted), mock.patch.object(simlab, "feature_row", counted):
        rep = length_compare(specs, GAUSS1, n, 0.6, train_reps=reps, seed=seed)
    assert len(checks) == reps
    a1 = (1.0 - 0.6) / 2.0
    for r in range(reps):
        train = GAUSS1.sample(n, stream(seed, r, 0))
        _, xs = GAUSS1.draw(1, stream(seed, r, 1))
        for spec in specs:
            fits = FoldFits(spec, train, resolve_partition("jackknife", n))
            for lengths, base in ((rep.lengths_cv, "cv"), (rep.lengths_cvp, "cv_plus")):
                assert lengths[spec.kind][r] == interval(IntervalMethod(base), fits, xs[0], a1, a1 + 0.6).length

    draw = DgpSpec.draw

    def nan_point(dgp, m, rng):
        y, x = draw(dgp, m, rng)
        if m == 1:
            x = x.copy()
            x[0, 0] = np.nan
        return y, x

    with mock.patch.object(DgpSpec, "draw", nan_point), pytest.raises(MalformedInput, match="xnew must be finite"):
        length_compare(specs, GAUSS1, n, 0.6, train_reps=reps, seed=seed)


def test_gauge_convergence_decreasing_for_stable():
    rep = gauge_convergence(
        constant(0.0), GAUSS1, (20, 60, 180), 0.2, train_reps=30, mc_oracle=2000, seed=8
    )
    assert isotonic_trend_ok(rep.mean, rep.std_err, "decreasing")
    assert rep.mean[-1] < rep.mean[0]


def test_gauge_convergence_oracle_errors_do_not_depend_on_blas_threads():
    # a whole draw of 10,485 rows at p = 50, split across threads by a
    # 2-thread OpenBLAS if x'beta were one matrix product; each row's is its
    # own, so the oracle errors are the same bits at 1 and 2 threads
    script = textwrap.dedent("""
        import hashlib, json
        import numpy as np
        from cvuq import simlab
        from cvuq.data import DgpSpec
        from cvuq.predictors import ridge

        errors = []
        build = simlab.uniform_ecdf
        simlab.uniform_ecdf = lambda e: errors.append(hashlib.sha256(e.tobytes()).hexdigest()) or build(e)
        dgp = DgpSpec("gaussian_linear", {"beta": [50 ** -0.5] * 50, "sigma": 1.0})
        rep = simlab.gauge_convergence(ridge(1.0), dgp, [60], 0.1, 2, 10485, 0)
        print(json.dumps([errors, rep.per_rep.tolist()]))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]


def test_gauge_convergence_residual_ecdf_takes_interval_cumulative_weights(monkeypatch):
    # F_hat's cumulative weights are fl(C / W), the ones interval reads, even
    # at n = 10, where a float cumsum of 1/10 misses fl(3/10)
    built = []
    build = simlab.weighted_ecdf
    monkeypatch.setattr(simlab, "weighted_ecdf", lambda *args: built.append(build(*args)) or built[-1])
    gauge_convergence(constant(0.0), GAUSS1, [10], 0.1, train_reps=1, mc_oracle=50, seed=4)
    fits = FoldFits(constant(0.0), GAUSS1.sample(10, stream(4, 0, 0)), FoldPartition.singletons(10))
    atoms = simlab.interval_atoms(IntervalMethod("cv"), fits)
    assert [F.cum.tobytes() for F in built] == [atoms.cum[atoms.run_ends()].tobytes()]


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
            if interval(cv, fits, x_test[0], a1, a2, -2 * d).empty:
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
    for method in CV_PLUS:
        engine = CoverageEngine(fits, x_test, y_test, cv_plus=(0.0, 0.05, -0.2), symmetrized=method.symmetrized)
        for d in (0.0, 0.05, -0.2):
            for a1, a2 in DEFAULT_PAIR_GRID:
                fast = engine.coverage(method, a1, a2, d)
                slow = sorted_atom_coverage(fits, a1, a2, d, x_test, y_test, method.symmetrized)
                assert fast == slow, (method, d, a1, a2)
    # the exceedance from a pass without cv+ counts, and from one with them
    for d in (0.0, 0.01, 0.1):
        dense = dense_fold_exceedance(fits, x_test, d)
        alone = CoverageEngine(fits, x_test, y_test, exceed_delta=d)
        np.testing.assert_array_equal(alone.fold_exceedance(), dense)
        counted = CoverageEngine(fits, x_test, y_test, cv_plus=[0.0], exceed_delta=d)
        counted.coverage(CV_PLUS[0], 0.05, 0.95, 0.0)
        np.testing.assert_array_equal(counted.fold_exceedance(), dense)


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


def _count_width_case(n, rule):
    # the per-row counts are stored in the narrowest integer type that holds n
    # (uint8 up to 255): test responses above and below every atom make the
    # counts reach n and 0
    fits, x_test, y_test = _ridge_case(n, rule)
    y_test[0::3], y_test[1::3] = 100.0, -100.0
    return fits, x_test, y_test


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: _ridge_case(10, 3), id="ridge-k3-n10"),
        pytest.param(lambda: _ridge_case(13, 4), id="ridge-k4-n13"),
        pytest.param(lambda: _ridge_case(12, "jackknife"), id="ridge-jackknife-n12"),
        pytest.param(lambda: _lattice_case(25, "jackknife"), id="ties-jackknife-n25"),
        pytest.param(lambda: _lattice_case(10, 3), id="ties-k3-n10"),
        pytest.param(lambda: _count_width_case(255, "jackknife"), id="counts-jackknife-n255"),
        pytest.param(lambda: _count_width_case(256, "jackknife"), id="counts-jackknife-n256"),
        pytest.param(lambda: _count_width_case(300, "jackknife"), id="counts-jackknife-n300"),
        pytest.param(lambda: _count_width_case(256, 7), id="counts-k7-n256"),
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
    # ends of (0, 1]; for large n about ten of these and the top ones, where
    # the counts reach n
    grid = {j / n for j in range(n + 1)} | {j / n + 5e-13 for j in range(n + 1)}
    grid = sorted(grid | {float(c) for c in np.cumsum(weights)})
    if n > 100:
        grid = sorted(set(grid[:: len(grid) // 10] + grid[-4:]))
    pairs = [(a, 1.0) for a in grid] + [(0.0, b) for b in grid] + list(zip(grid, reversed(grid)))
    pairs += [(1e-13, 1.0), (0.0, 1e-13), (-0.1, 0.5), (0.0, 1.5), (1.2, 1.5), (-0.5, 0.0)]
    for method in CV_PLUS:
        engine = CoverageEngine(fits, x_test, y_test, cv_plus=(0.0, 0.25, -0.25, -2.0), symmetrized=method.symmetrized)
        for d in (0.0, 0.25, -0.25, -2.0):
            for a1, a2 in pairs:
                fast = engine.coverage(method, a1, a2, d)
                assert fast == per_point_coverage(fits, method, a1, a2, d, x_test, y_test), (method, d, a1, a2)
        if fits.coef is None:  # constant: every row counted from the exact fold predictions
            assert engine.recounted == y_test.size


def _fold_reader_case(rule, symmetrized):
    """Fits of a predictor whose fit without fold j predicts x[j] (the full
    fit: 0), and a test row at y = 0 for each weight C the cv+ atoms counted at
    y can have: x[j] sets how many of fold j's atoms, fl(x[j] + r_i) <= 0
    exactly when r_i <= -x[j], lie at or below y, so the rows realise every
    sum over folds of count times atom units.  Returns the fits, the test
    set and the weights."""
    n = 10
    part = resolve_partition(rule, n)
    rng = np.random.default_rng(31)
    train = TrainingSet(rng.normal(size=n), rng.normal(size=(n, part.k)))
    fold_without = {frozenset(np.delete(train.y, f).tolist()): j for j, f in enumerate(part.folds)}

    def reader(xnew, rows):
        j = fold_without.get(frozenset(rows.y.tolist()))
        return 0.0 if j is None else float(xnew[j])

    fits = FoldFits(reader, train, part)
    res = np.abs(fits.loo_residuals) if symmetrized else fits.loo_residuals
    # per fold, a threshold below, between and above its sorted residuals for each count
    cuts = []
    for f in part.folds:
        r = np.sort(res[f])
        cuts.append(np.concatenate(([r[0] - 1.0], (r[:-1] + r[1:]) / 2, [r[-1] + 1.0])))
    units = [int(part.atom_units[f[0]]) for f in part.folds]
    rows = {}
    for counts in itertools.product(*(range(f.size + 1) for f in part.folds)):
        rows.setdefault(sum(c * u for c, u in zip(counts, units)), [-cut[c] for cut, c in zip(cuts, counts)])
    return fits, np.array(list(rows.values())), np.zeros(len(rows)), sorted(rows)


@pytest.mark.parametrize("rule", [3, 4, 7, unequal_folds], ids=["k3-n10", "k4-n10", "k7-n10", "callable-unequal"])
def test_engine_reach_matches_interval_at_every_prefix_weight(rule):
    # every cumulative weight is fl(C / W) of an exact integer C, and a level
    # a reaches it when fl(a - LEVEL_GUARD) >= fl(C / W): at the two levels
    # one ulp either side of where that starts, for every weight C a row's
    # counted atoms can have, the engine's integer reach and the oracle's step
    # cdf take the same atom
    for method in CV_PLUS:
        fits, x_test, y_test, weights = _fold_reader_case(rule, method.symmetrized)
        total = fits.partition.unit_total
        assert weights[-1] == total and len(x_test) == len(weights)
        levels = []
        for c in weights:
            reach = c / total + LEVEL_GUARD
            while reach - LEVEL_GUARD >= c / total:
                reach = math.nextafter(reach, 0.0)
            while reach - LEVEL_GUARD < c / total:  # the least level that reaches fl(c / total)
                reach = math.nextafter(reach, 2.0)
            levels += [math.nextafter(reach, 0.0), reach]
        engine = CoverageEngine(fits, x_test, y_test, cv_plus=[0.0], symmetrized=method.symmetrized)
        assert engine.recounted == len(x_test)  # a callable: every row counted exactly
        for a1, a2 in [(a, 1.0) for a in levels] + [(0.0, a) for a in levels]:
            fast = engine.coverage(method, a1, a2, 0.0)
            assert fast == per_point_coverage(fits, method, a1, a2, 0.0, x_test, y_test), (method, a1, a2)


@st.composite
def reach_cases(draw):
    if draw(st.booleans()):
        total = int(fold_units(draw(st.lists(st.integers(1, 30), min_size=2, max_size=12)))[1])
    else:
        total = 2**53 - draw(st.integers(0, 2**20))
    return total, draw(st.integers(1, total)), draw(st.floats(-0.1, 1.1))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=reach_cases())
def test_engine_reach_is_the_least_count_that_reaches_the_level(case):
    total, count, free = case
    engine = SimpleNamespace(partition=SimpleNamespace(unit_total=total))  # all _reach reads
    at = count / total
    shifted = at + LEVEL_GUARD  # walked to the least alpha with alpha - LEVEL_GUARD >= fl(C / W)
    while shifted - LEVEL_GUARD >= at:
        shifted = math.nextafter(shifted, 0.0)
    while shifted - LEVEL_GUARD < at:
        shifted = math.nextafter(shifted, 2.0)
    for alpha in (at, math.nextafter(at, 0.0), math.nextafter(at, 2.0), at - LEVEL_GUARD, shifted,
                  math.nextafter(shifted, 0.0), math.nextafter(shifted, 2.0), 0.0, 5e-324, 1.0,
                  math.nextafter(1.0, 2.0), math.inf, -math.inf, free):
        assert CoverageEngine._reach(engine, alpha) == least_reach(alpha, total), (total, alpha)
    with pytest.raises(ValueError):
        CoverageEngine._reach(engine, math.nan)


def test_infinite_delta_is_rejected():
    # at an infinite quantile an end Q -+ delta would be inf - inf
    fits, x_test, y_test = _ridge_case(12, "jackknife")
    engine = CoverageEngine(fits, x_test, y_test)
    for method in ALL_METHODS:
        for d in (math.inf, -math.inf):
            with pytest.raises(InvalidTolerance):
                engine.coverage(method, 0.0, 0.9, d)
            with pytest.raises(InvalidTolerance):
                interval(method, fits, x_test[0], 0.0, 0.9, d)


def test_cv_plus_coverages_share_one_pass(monkeypatch):
    # the equivalence check reads cv+ coverages at its delta and at 0: one
    # pass of fold predictions per engine serves every declared tolerance
    fits, x_test, y_test = _ridge_case(13, 4)
    rows = []
    predict = fits.full_model.predict
    monkeypatch.setattr(fits.full_model, "predict", lambda x: rows.append(len(x)) or predict(x))
    levels = [(a1, a2, d) for d in (0.25, 0.0, -0.25) for a1, a2 in DEFAULT_PAIR_GRID]
    engines = {method: CoverageEngine(fits, x_test, y_test, cv_plus=(0.25, 0.0, -0.25),
                                      symmetrized=method.symmetrized) for method in CV_PLUS}
    fast = {method: [engine.coverage(method, *lv) for lv in levels] for method, engine in engines.items()}
    assert sum(rows) == 2 * y_test.size
    assert [engines[CV_PLUS[0]].coverage(CV_PLUS[0], *lv) for lv in levels] == fast[CV_PLUS[0]]
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
        engine = CoverageEngine(fits, x_test, y_test, cv_plus=[0.1], exceed_delta=0.1)
        engine.coverage(IntervalMethod("cv_plus"), 0.05, 0.95, 0.1)
        engine.fold_exceedance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * n * 8 / 4


def _traced_test_set_and_pass(rule):
    """Traced peaks, as fractions of the 20 MB test block (50k rows, p = 50),
    of drawing the test set and of one cv+ pass with exceedance at n = 200."""
    m, p, n = 50_000, 50, 200
    dgp = DgpSpec("gaussian_linear", {"beta": [1 / math.sqrt(p)] * p, "sigma": 1.0})
    fits = FoldFits(ridge(0.5), dgp.sample(n, stream(18, 0)), resolve_partition(rule, n))
    block = m * (p + 1) * 8
    tracemalloc.start()
    try:
        y_test, x_test = dgp.draw(m, stream(18, 1))
        drawn, draw_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        engine = CoverageEngine(fits, x_test, y_test, cv_plus=[0.1], exceed_delta=0.1)
        engine.coverage(IntervalMethod("cv_plus"), 0.05, 0.95, 0.1)
        engine_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return draw_peak / block, (engine_peak - drawn) / block


def test_test_set_costs_its_size_once():
    # a test draw's x is a view of its normal block, and the engine keeps it
    # as it is: neither copies the 20 MB block
    draw_peak, pass_peak = _traced_test_set_and_pass("jackknife")
    assert draw_peak <= 1.1
    assert pass_peak <= 1 / 4


def test_unequal_fold_pass_has_no_block_sized_temporaries():
    # with unequal folds the atoms are gathered into the scratch block and
    # each run of equal weight of the bool hits is summed as bytes: no block
    # is cast to a wider type and no gather output is buffered.  Each of
    # those would add 1 MiB, about 0.05 of the test block, to a pass
    assert _traced_test_set_and_pass(7)[1] <= 0.2


def test_drawn_engine_equals_array_engine():
    # one test set of two blocks of simlab.block_rows(n) rows and a one-row
    # tail, seen whole and drawn block by block inside the pass of each
    # engine, one engine per symmetrized flag
    n = 200
    m = 2 * simlab.block_rows(n) + 1
    levels = ((0.05, 0.95, 0.0), (0.1, 0.9, 0.2), (0.0, 0.8, -0.1))
    for rule in ("jackknife", 7):
        fits = FoldFits(ridge(0.5), GAUSS.sample(n, stream(19, 0)), resolve_partition(rule, n))
        y_test, x_test = GAUSS.draw(m, stream(19, 1))
        for symmetrized in (False, True):
            declared = dict(cv_plus=[d for _, _, d in levels], symmetrized=symmetrized, exceed_delta=0.05)
            whole = CoverageEngine(fits, x_test, y_test, **declared)
            drawn = CoverageEngine.drawn(fits, GAUSS, m, 19, 1, **declared)
            np.testing.assert_array_equal(drawn.fold_exceedance(), whole.fold_exceedance())
            for method in (meth for meth in ALL_METHODS if meth.symmetrized == symmetrized):
                for a1, a2, d in levels:
                    assert drawn.coverage(method, a1, a2, d) == whole.coverage(method, a1, a2, d), (rule, method, d)


def test_equivalence_draws_each_test_set_once(monkeypatch):
    # each rep's engine declares its cv+ tolerances, so one pass keeps y,
    # the full-data predictions and the exceedance, and counts the cv+ atoms
    n, reps, mc_test = 20, 3, 3000
    rows = []
    draw = DgpSpec.draw
    monkeypatch.setattr(DgpSpec, "draw", lambda self, m, rng: rows.append(m) or draw(self, m, rng))
    jk_vs_jkplus_gap(ridge(0.5), GAUSS, n, 0.05, 0.95, 0.1, train_reps=reps, mc_test=mc_test, seed=4)
    assert sum(rows) == reps * (n + mc_test)


@pytest.mark.parametrize("rule", ["jackknife", 7])
def test_drawn_pass_holds_no_test_block(rule):
    # a drawn engine holds one block of x at a time, never the 20 MB test set:
    # draw, y and full-data predictions, cv+ counts at two tolerances and
    # the exceedance in one pass.  Byte counts are 4 B per row and weight run
    # here (one run for the jackknife, two at k = 7), and the weighted counts
    # 4 B per row for the jackknife and 8 B at k = 7
    m, p, n = 50_000, 50, 200
    dgp = DgpSpec("gaussian_linear", {"beta": [1 / math.sqrt(p)] * p, "sigma": 1.0})
    fits = FoldFits(ridge(0.5), dgp.sample(n, stream(18, 0)), resolve_partition(rule, n))
    block = m * (p + 1) * 8
    tracemalloc.start()
    try:
        engine = CoverageEngine.drawn(fits, dgp, m, 18, 1, cv_plus=(0.1, 0.0), exceed_delta=0.1)
        engine.coverage(IntervalMethod("cv_plus"), 0.05, 0.95, 0.1)
        engine.coverage(IntervalMethod("cv_plus"), 0.1, 0.9, 0.0)
        engine.fold_exceedance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= block / 4


def test_engine_draws_and_predicts_its_test_set_once_whatever_the_query_order(monkeypatch):
    # cv first, then cv+, then the exceedance: one pass serves all three
    n, m = 20, 3000
    fits = FoldFits(ridge(0.5), GAUSS.sample(n, stream(20, 0)), resolve_partition(7, n))
    drawn, predicted = [], []
    draw = DgpSpec.draw
    monkeypatch.setattr(DgpSpec, "draw", lambda self, rows, rng: drawn.append(rows) or draw(self, rows, rng))
    predict = fits.full_model.predict
    monkeypatch.setattr(fits.full_model, "predict", lambda x: predicted.append(len(x)) or predict(x))
    engine = CoverageEngine.drawn(fits, GAUSS, m, 20, 1, cv_plus=["iqr:0.1", 0.0], exceed_delta=0.1)
    cv = engine.coverage(IntervalMethod("cv"), 0.05, 0.95, 0.0)
    cvp = engine.coverage(IntervalMethod("cv_plus"), 0.05, 0.95, "iqr:0.1")
    exceed = engine.fold_exceedance()
    assert sum(drawn) == m and sum(predicted) == m
    monkeypatch.undo()
    y_test, x_test = GAUSS.draw(m, stream(20, 1))
    assert cv == per_point_coverage(fits, IntervalMethod("cv"), 0.05, 0.95, 0.0, x_test, y_test)
    d = resolve_delta("iqr:0.1", fits.loo_residuals)
    assert cvp == per_point_coverage(fits, IntervalMethod("cv_plus"), 0.05, 0.95, d, x_test, y_test)
    np.testing.assert_array_equal(exceed, dense_fold_exceedance(fits, x_test, 0.1))


def test_undeclared_cv_plus_query_is_rejected():
    fits, x_test, y_test = _ridge_case(12, "jackknife")
    engine = CoverageEngine(fits, x_test, y_test, cv_plus=[0.0, "iqr:0.5"])
    for method, d in ((CV_PLUS[0], 0.1), (CV_PLUS[0], "iqr:0.4"), (CV_PLUS[1], 0.0), (CV_PLUS[1], "iqr:0.5")):
        with pytest.raises(InvalidTolerance, match="not declared"):
            engine.coverage(method, 0.05, 0.95, d)
    # declared queries, and cv at any tolerance, are answered
    iqr = resolve_delta("iqr:0.5", fits.loo_residuals)
    for method, d in ((CV_PLUS[0], "iqr:0.5"), (CV_PLUS[0], iqr), (IntervalMethod("cv", True), 0.1)):
        assert engine.coverage(method, 0.05, 0.95, d) == per_point_coverage(
            fits, method, 0.05, 0.95, resolve_delta(d, fits.loo_residuals), x_test, y_test)
    bare = CoverageEngine(fits, x_test, y_test)
    with pytest.raises(InvalidTolerance, match="not declared"):
        bare.coverage(CV_PLUS[0], 0.05, 0.95, 0.0)


def test_coverage_report_binomial_se_per_rep():
    kwargs = dict(train_reps=3, mc_test=200, seed=8)
    rep = coverage_distribution(ridge(0.5), GAUSS, 15, IntervalMethod("cv"), 0.05, 0.95, 0.0, **kwargs)
    c = rep.conditional_cov
    assert np.all((0 < c) & (c < 1))
    np.testing.assert_array_equal(rep.binomial_se, np.sqrt(c * (1 - c) / 200))
    # c = 1 on the whole line and c = 0 on an empty interval: no Monte-Carlo error
    for a1, a2, d, c in ((0.0, 1.0, 100.0, 1.0), (0.9, 0.1, 0.0, 0.0)):
        rep = coverage_distribution(constant(0.0), GAUSS, 15, IntervalMethod("cv"), a1, a2, d, **kwargs)
        np.testing.assert_array_equal(rep.conditional_cov, np.full(3, c))
        np.testing.assert_array_equal(rep.binomial_se, np.zeros(3))


@pytest.mark.parametrize(
    "eps,stability_delta,message",
    [
        (0.0, "iqr:0.1", "eps must be positive"),
        (-0.1, 0.1, "eps must be positive"),
        (math.nan, 0.1, "eps must be positive"),
        (0.05, -0.1, "delta must be nonnegative"),
    ],
)
def test_equivalence_rejects_bad_tolerances_before_any_rep(eps, stability_delta, message, monkeypatch):
    calls = []
    sample = DgpSpec.sample
    monkeypatch.setattr(DgpSpec, "sample", lambda self, n, rng: calls.append(n) or sample(self, n, rng))
    with pytest.raises(InvalidTolerance, match=message):
        jk_vs_jkplus_gap(ridge(0.5), GAUSS, 20, 0.05, 0.95, 0.1, train_reps=3, mc_test=500, seed=1,
                         eps=eps, stability_delta=stability_delta)
    assert calls == []


def test_coverage_pass_draws_chunks_and_gauge_oracle_one_draw(monkeypatch):
    # a pass draws its test rows in blocks of simlab.block_rows(n), 1,310
    # rows at n = 200, and the gauge oracle its rows in one draw
    assert simlab.block_rows(200) == 1310
    rows, sizes = [], []
    draw_chunks, draw = DgpSpec.draw_chunks, DgpSpec.draw
    monkeypatch.setattr(DgpSpec, "draw_chunks", lambda self, m, rng, r: rows.append(r) or draw_chunks(self, m, rng, r))
    monkeypatch.setattr(DgpSpec, "draw", lambda self, m, rng: sizes.append(m) or draw(self, m, rng))
    monkeypatch.setattr(simlab, "block_rows", lambda n: 8 * n)
    coverage_distribution(ridge(0.5), GAUSS, 12, IntervalMethod("cv_plus"), 0.05, 0.95, 0.0,
                          train_reps=1, mc_test=300, seed=2)
    assert rows == [96] and sizes[1:] == [96, 96, 96, 12]  # the training set, then the blocks
    rows.clear()
    sizes.clear()
    gauge_convergence(ridge(0.5), GAUSS, [10, 20], 0.1, train_reps=1, mc_oracle=300, seed=2)
    assert rows == [] and sizes == [10, 300, 20, 300]


TIE_LEVELS = ((0.05, 0.95), (0.1, 0.8))


def _tied_case(p, rule, d, method, fortran):
    """A ridge fit and test rows (x in Fortran order if ``fortran``) whose
    responses sit exactly on an end of their ``method`` interval, computed by
    ``interval`` from its one-row predictions: every row has a comparison
    decided by a tie."""
    dgp = DgpSpec("gaussian_linear", {"beta": [1 / math.sqrt(p)] * p, "sigma": 1.0})
    n, m = 60, 400
    fits = FoldFits(ridge(0.5), dgp.sample(n, stream(21, p)), resolve_partition(rule, n))
    y_test, x_test = dgp.draw(m, stream(21, p, 1))
    y_test = y_test.copy()
    if fortran:
        x_test = np.asfortranarray(x_test)
    for i in range(m):
        ends = interval(method, fits, x_test[i], *TIE_LEVELS[i % 2], d)
        y_test[i] = ends.lo if i % 4 < 2 else ends.hi
    return fits, x_test, y_test


@pytest.mark.parametrize("p", [2, 50])
@pytest.mark.parametrize("rule", ["jackknife", 7])
def test_engine_hits_equal_interval_at_exact_ties(p, rule):
    # the full-data predictions are one-row products in a block as alone, and
    # the screen hands every row with an atom inside its band to the exact
    # one-row fold predictions, so for every base, and x in either memory
    # order, ties resolve as interval resolves them
    cases = itertools.product(("cv", "cv_plus", "fitted_values"), (False, True), (0.0, 0.1), (False, True))
    for base, symmetrized, d, fortran in cases:
        method = IntervalMethod(base, symmetrized)
        fits, x_test, y_test = _tied_case(p, rule, d, method, fortran)
        # an exceedance tolerance equal to one of the fold-prediction gaps
        gaps = np.abs(fits.fold_predictions(x_test) - fits.full_model.predict(x_test)[:, None])
        delta = float(np.sort(gaps, axis=None)[gaps.size // 2])
        engine = CoverageEngine(fits, x_test, y_test, cv_plus=[d] if base == "cv_plus" else [],
                                symmetrized=symmetrized, exceed_delta=delta)
        case = (method, d, fortran)
        for a1, a2 in TIE_LEVELS:
            want = np.mean([interval(method, fits, x, a1, a2, d).contains(y) for y, x in zip(y_test, x_test)])
            assert engine.coverage(method, a1, a2, d) == want, (*case, a1, a2)
        np.testing.assert_array_equal(engine.fold_exceedance(), (gaps > delta).mean(axis=0))
        if base == "cv_plus":
            assert engine.recounted == y_test.size, case  # every row has an atom on its edge


def _tied_case_responses(fits, x_test):
    """Responses on the lower end of each row's (0.05, 0.95) cv_plus interval."""
    return np.array([interval(CV_PLUS[0], fits, x, 0.05, 0.95).lo for x in x_test])


@pytest.mark.parametrize("lam,scale", [pytest.param(0.5, 1e150, id="1e+150"), pytest.param(0.5, 1e-30, id="1e-30"),
                                       pytest.param(0.0, 1e-100, id="ridge0-1e-100")])
def test_screen_past_float32_range_stays_exact(lam, scale):
    # at 1e150 the features overflow float32, so no row can be screened and
    # every row is recounted; at 1e-30 the float32 products underflow, which
    # the bound's absolute term covers; at 1e-100 the coefficients (norm
    # about 1.5e100) pass SCREEN_LIMIT, so every row is counted exactly.  No
    # RuntimeWarning may escape
    n, m = 40, 600
    train = GAUSS.sample(n, stream(22, 0))
    fits = FoldFits(ridge(lam), TrainingSet(train.y, train.x * scale), resolve_partition(7, n))
    y_test, x_test = GAUSS.draw(m, stream(22, 1))
    x_test = x_test * scale
    gaps = np.abs(fits.fold_predictions(x_test) - fits.full_model.predict(x_test)[:, None])
    delta = float(np.sort(gaps, axis=None)[gaps.size // 2])
    for y in (y_test, _tied_case_responses(fits, x_test)):
        engine = CoverageEngine(fits, x_test, y, cv_plus=[0.0, 0.1], exceed_delta=delta)
        for d in (0.0, 0.1):
            for a1, a2 in TIE_LEVELS:
                want = per_point_coverage(fits, CV_PLUS[0], a1, a2, d, x_test, y)
                assert engine.coverage(CV_PLUS[0], a1, a2, d) == want, (scale, d, a1, a2)
        np.testing.assert_array_equal(engine.fold_exceedance(), (gaps > delta).mean(axis=0))
        if scale != 1e-30:
            assert engine.recounted == m


def test_screen_recounts_few_rows_at_the_equivalence_shape():
    # n = 200, p = 50, ridge(1e-8), 50k test points, cv+ at 0 and the
    # exceedance at iqr:0.1: the float32 band leaves a small share of rows
    # to the exact path
    p, n, m = 50, 200, 50_000
    dgp = DgpSpec("gaussian_linear", {"beta": [1 / math.sqrt(p)] * p, "sigma": 1.0})
    fits = FoldFits(ridge(1e-8), dgp.sample(n, stream(0, 0, 0)), resolve_partition("jackknife", n))
    d_stab = resolve_delta("iqr:0.1", fits.loo_residuals)
    engine = CoverageEngine.drawn(fits, dgp, m, 0, 0, 1, cv_plus=[0.0], exceed_delta=d_stab)
    engine.fold_exceedance()
    assert 0 < engine.recounted < m / 20


def test_negative_exceedance_tolerance_is_rejected():
    fits, x_test, y_test = _ridge_case(12, "jackknife")
    for bad in (-0.1, math.nan):
        with pytest.raises(InvalidTolerance):
            CoverageEngine(fits, x_test, y_test, exceed_delta=bad)


@st.composite
def _engine_cases(draw):
    """A small ridge problem on lattices, so that responses, features and
    predictions tie: n in [3, 40], p in [1, 60], one row (training or test)
    scaled by 10^+-k, a tiny or unit lambda, a jackknife, contiguous or
    unequal non-contiguous partition, and the block size of the pass."""
    n, p, m = draw(st.integers(3, 40)), draw(st.integers(1, 60)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-8, 9, size=(n + m, p)) / 4
    y = rng.integers(-8, 9, size=n + m) / 4
    x[draw(st.integers(0, n + m - 1))] *= 10.0 ** draw(st.sampled_from([-6, -3, 0, 3, 6]))
    rule = draw(st.sampled_from(["jackknife", "contiguous", "unequal"]))
    k = draw(st.integers(2, n))
    if rule == "contiguous":
        partition = FoldPartition.contiguous(n, k)
    elif rule == "unequal":
        cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
        folds = np.split(rng.permutation(n), cuts)
        partition = resolve_partition(lambda size: FoldPartition(folds, size), n)
    else:
        partition = FoldPartition.singletons(n)
    return dict(lam=draw(st.sampled_from([0.0, 1e-12, 1e-8, 1.0])), train=TrainingSet(y[:n], x[:n]),
                partition=partition, x_test=x[n:], y_test=y[n:], d=draw(st.sampled_from([0.0, 0.25, -0.25, 0.1, -1.0])),
                symmetrized=draw(st.booleans()), exceed=draw(st.sampled_from(["tie", 0.0, 0.1])),
                rows=draw(st.integers(1, m)))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_engine_cases())
def test_engine_does_not_depend_on_the_block_size(case):
    # the pass counts each block of simlab.block_rows rows on its own: at any
    # block size every cv, cv_plus and fitted_values hit equals interval's
    # and the exceedance equals the dense one, ties and high leverage included
    try:
        fits = FoldFits(ridge(case["lam"]), case["train"], case["partition"])
    except DegenerateFit:  # lambda = 0 with a rank-deficient X: no fit to count
        return
    x_test, y_test, d = case["x_test"], case["y_test"], case["d"]
    delta = case["exceed"]
    if delta == "tie":  # an exceedance tolerance equal to one of the fold-prediction gaps
        gaps = np.abs(fits.fold_predictions(x_test) - fits.full_model.predict(x_test)[:, None])
        delta = float(np.sort(gaps, axis=None)[gaps.size // 2])
    with mock.patch.object(simlab, "block_rows", lambda n: case["rows"]):
        engine = CoverageEngine(fits, x_test, y_test, cv_plus=[d], symmetrized=case["symmetrized"],
                                exceed_delta=delta)
    for base in ("cv", "cv_plus", "fitted_values"):
        method = IntervalMethod(base, case["symmetrized"])
        for a1, a2 in TIE_LEVELS:
            want = per_point_coverage(fits, method, a1, a2, d, x_test, y_test)
            assert engine.coverage(method, a1, a2, d) == want, (method, a1, a2)
    np.testing.assert_array_equal(engine.fold_exceedance(), dense_fold_exceedance(fits, x_test, delta))


def test_experiments_without_test_points_raise_invalid_tolerance():
    # one check, in the engine, for every experiment that counts test points
    method = IntervalMethod("cv")
    with pytest.raises(InvalidTolerance):
        coverage_distribution(ridge(1.0), GAUSS, 10, method, 0.1, 0.9, 0.0, train_reps=2, mc_test=0, seed=1)
    with pytest.raises(InvalidTolerance):
        jk_vs_jkplus_gap(ridge(1.0), GAUSS, 10, 0.1, 0.9, 0.0, train_reps=2, mc_test=0, seed=1)
    with pytest.raises(InvalidTolerance):
        conditional_coverage(ridge(1.0), GAUSS, GAUSS.sample(10, stream(2)), method, 0.1, 0.9, 0.0, 0, seed=3)


def test_length_compare_rejects_a_repeated_name_before_any_replication():
    calls = []
    sample = DgpSpec.sample
    with mock.patch.object(DgpSpec, "sample", lambda self, n, rng: calls.append(n) or sample(self, n, rng)):
        with pytest.raises(MalformedInput):
            length_compare([ridge(0.01), ridge(100.0)], GAUSS1, 10, 0.6, train_reps=3, seed=1)
    assert calls == []
