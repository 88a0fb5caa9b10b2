import math

import numpy as np
import pytest

from cvuq.data import TrainingSet, sample_gaussian_linear
from cvuq.ecdf import fold_ecdf, quantile, uniform_ecdf, weighted_ecdf
from cvuq.errors import InvalidTolerance
from cvuq.intervals import IntervalMethod, coverage_ceiling, interval, interval_atoms, shortest_interval
from cvuq.levy_gauge import gauge_bound_matched_pairs
from oracles import ceil_guarded, jackknife_formula, stepcdf_interval, unequal_folds
from cvuq.predictors import (
    FoldFits,
    FoldPartition,
    constant,
    max_response,
    neg_max_response,
    ridge,
)
from cvuq.stability import resolve_partition

CV = IntervalMethod("cv")
CVP = IntervalMethod("cv_plus")
FV = IntervalMethod("fitted_values")
ALL_METHODS = [IntervalMethod(base, symmetrized=sym) for base in ("cv", "cv_plus", "fitted_values")
               for sym in (False, True)]


def toy_train(y, x=None):
    y = np.asarray(y, dtype=float)
    if x is None:
        x = np.zeros((y.size, 1))
    return TrainingSet(y, np.asarray(x, dtype=float))


# the test point of the one-feature toy training sets
X0 = [0.0]


def singleton_fits(spec, y):
    train = toy_train(y)
    return FoldFits(spec, train, FoldPartition.singletons(train.n))


def test_interval_constant_predictor_full_range():
    y = [1.0, 5.0, 3.0]
    fits = singleton_fits(constant(0.0), y)
    piv = interval(CV, fits, X0, 0.0, 1.0, 0.0)
    assert piv.lo == -math.inf
    assert piv.hi == 5.0  # c + max residual = 0 + 5
    assert piv.length == math.inf
    assert not piv.empty


def test_interval_max_predictor_example():
    fits = singleton_fits(max_response(), [1.0, 5.0, 3.0])
    piv = interval(CV, fits, X0, 0.0, 2 / 3, 0.0)
    assert piv.hi == 3.0  # 5 + u_(2) = 5 - 2
    assert piv.lo == -math.inf


def test_interval_empty_when_alphas_cross():
    fits = singleton_fits(constant(0.0), [0.0, 10.0])
    piv = interval(CV, fits, X0, 0.9, 0.3, 0.0)
    assert piv.empty
    assert piv.length == 0.0


@pytest.mark.parametrize("level", [math.inf, -math.inf])
def test_interval_open_at_one_infinity_is_empty(level):
    # both levels outside (0, 1] on one side put both ends at the same
    # infinity, where the interval is open: no real y lies in it
    fits = singleton_fits(constant(0.0), [1.0, 5.0, 3.0])
    for method in (CV, CVP):
        piv = interval(method, fits, X0, level, level, 0.0)
        assert piv.lo == piv.hi == level
        assert piv.empty
        assert piv.length == 0.0
        assert piv.as_jsonable()["empty"] is True
    assert not interval(CV, fits, X0, -math.inf, math.inf, 0.0).empty


def test_jackknife_equals_cv_with_singletons():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        train = TrainingSet(rng.normal(size=n), rng.normal(size=(n, 2)))
        part = FoldPartition.singletons(n)
        fits, xnew = FoldFits(ridge(0.5), train, part), rng.normal(size=2)
        a1, a2 = sorted(rng.uniform(0, 1, size=2))
        delta = float(rng.normal(scale=0.3))
        got = interval(CV, fits, xnew, a1, a2, delta)
        want = jackknife_formula(fits.loo_residuals, fits.full_model.predict_one(xnew), a1, a2, delta)
        assert got.lo == want.lo and got.hi == want.hi


def test_monotone_in_delta_and_alpha_nesting():
    rng = np.random.default_rng(7)
    fits = singleton_fits(constant(1.0), rng.normal(size=15))
    for method in (CV, CVP):
        base = interval(method, fits, X0, 0.2, 0.8, 0.1)
        wider_d = interval(method, fits, X0, 0.2, 0.8, 0.5)
        assert wider_d.lo <= base.lo and base.hi <= wider_d.hi
        wider_a = interval(method, fits, X0, 0.1, 0.9, 0.1)
        assert wider_a.lo <= base.lo and base.hi <= wider_a.hi


def test_max_predictor_length_dominance():
    rng = np.random.default_rng(11)
    for _ in range(30):
        y = rng.normal(size=int(rng.integers(3, 25)))
        fits_max = singleton_fits(max_response(), y)
        fits_neg = singleton_fits(neg_max_response(), y)
        for a1, a2 in ((0.1, 0.9), (0.3, 1.0), (0.0, 0.7)):
            assert interval(CVP, fits_max, X0, a1, a2).length <= interval(CV, fits_max, X0, a1, a2).length + 1e-12
            assert interval(CV, fits_neg, X0, a1, a2).length <= interval(CVP, fits_neg, X0, a1, a2).length + 1e-12


def test_strict_dominance_top_quantile():
    rng = np.random.default_rng(13)
    y = rng.normal(size=10)
    b = singleton_fits(max_response(), y)
    a1, a2 = 0.2, 1.0  # a2 > (n-1)/n
    assert interval(CVP, b, X0, a1, a2).length < interval(CV, b, X0, a1, a2).length


def test_fitted_values_interval():
    # constant predictor: fitted values equal the constant, so the fitted-value
    # atoms coincide with the cv atoms
    y = [1.0, 5.0, 3.0]
    fits = singleton_fits(constant(2.0), y)
    for a1, a2 in ((0.1, 0.9), (1 / 3, 1.0)):
        fv = interval(FV, fits, X0, a1, a2, 0.0)
        cv = interval(CV, fits, X0, a1, a2, 0.0)
        assert fv.lo == cv.lo and fv.hi == cv.hi


def test_fitted_vs_loo_matched_pairs_bound():
    train = sample_gaussian_linear(40, 3, [1.0, 0.0, -0.5], 1.0, seed=5)
    part = FoldPartition.singletons(train.n)
    fits = FoldFits(ridge(1.0), train, part)
    full = fits.full_model.predict_one(np.zeros(3))
    v = full + fits.loo_residuals
    w = full + (train.y - fits.fitted_values())
    delta = float(np.max(np.abs(v - w)))
    weights = np.full(train.n, 1.0 / train.n)
    assert gauge_bound_matched_pairs(v, w, weights, delta) == 0.0


def test_symmetrized_cv_centered():
    # constant 2 on y=(1,5,3): |u| = (1,3,1); radius at nominal 2/3 is 1
    fits = singleton_fits(constant(2.0), [1.0, 5.0, 3.0])
    piv = interval(IntervalMethod("cv", symmetrized=True), fits, X0, 0.0, 2 / 3, 0.0)
    assert piv.lo == 1.0 and piv.hi == 3.0
    # predictor always inside the symmetrized cv interval when nonempty
    assert piv.contains(fits.full_model.predict_one(X0))
    empty = interval(IntervalMethod("cv", symmetrized=True), fits, X0, 0.5, 0.5, 0.0)
    assert empty.empty


@pytest.mark.parametrize("base", ["cv", "fitted_values"])
def test_symmetrized_levels_at_one_infinity_are_rejected(base):
    # the centered radius is read at alpha2 - alpha1, which is inf - inf here
    fits = singleton_fits(constant(2.0), [1.0, 5.0, 3.0])
    for a in (math.inf, -math.inf):
        with pytest.raises(InvalidTolerance):
            interval(IntervalMethod(base, symmetrized=True), fits, X0, a, a, 0.0)
    piv = interval(IntervalMethod(base, symmetrized=True), fits, X0, -math.inf, math.inf, 0.0)
    assert (piv.lo, piv.hi) == (-math.inf, math.inf)


def test_symmetrized_cv_plus_atoms():
    fits = singleton_fits(max_response(), [1.0, 5.0, 3.0])
    piv = interval(IntervalMethod("cv_plus", symmetrized=True), fits, X0, 1 / 3, 1.0, 0.0)
    # atoms yhat^{\i} + |u_i| = (5+4, 3+2, 5+2) = (9, 5, 7)
    assert piv.lo == 5.0 and piv.hi == 9.0


def test_shortest_interval_exhaustive_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        fits = singleton_fits(constant(0.0), rng.normal(size=12))
        nominal = float(rng.uniform(0.3, 0.9))
        a1, a2, piv = shortest_interval(CV, fits, X0, nominal)
        assert a2 == pytest.approx(a1 + nominal)
        for g in np.linspace(0.0, 1.0 - nominal, 2001):
            other = interval(CV, fits, X0, g, g + nominal, 0.0)
            assert piv.length <= other.length + 1e-12


def test_shortest_interval_symmetric_residuals():
    fits = singleton_fits(constant(0.0), [-1.0, 0.0, 1.0])
    a1, a2, piv = shortest_interval(CV, fits, X0, 2 / 3)
    for g in np.linspace(0.0, 1 / 3, 301):
        assert piv.length <= interval(CV, fits, X0, g, g + 2 / 3, 0.0).length + 1e-12


def test_shortest_interval_nominal_one_and_single_atom():
    fits = singleton_fits(constant(0.0), [3.0, -1.0, 2.0])
    a1, a2, piv = shortest_interval(CV, fits, X0, 1.0)
    assert (a1, a2) == (0.0, 1.0)
    assert piv.lo == -math.inf and piv.hi == 3.0
    flat = singleton_fits(constant(0.0), [4.0, 4.0, 4.0])
    a1, a2, piv = shortest_interval(CV, flat, X0, 0.5)
    assert piv.lo == piv.hi == 4.0
    with pytest.raises(InvalidTolerance):
        shortest_interval(CV, flat, X0, 0.0)


@pytest.mark.parametrize("base", ["cv", "fitted_values"])
def test_shortest_symmetrized_centered_interval_is_at_zero_and_nominal(base):
    # the centered interval's length depends on the nominal level only
    method = IntervalMethod(base, symmetrized=True)
    rng = np.random.default_rng(37)
    train = TrainingSet(rng.normal(size=20), rng.normal(size=(20, 2)))
    fits, xnew = FoldFits(ridge(0.5), train, resolve_partition("jackknife", 20)), rng.normal(size=2)
    for nominal in (0.5, 0.8, 1.0):
        for d in (0.0, 0.1, -5.0):
            a1, a2, piv = shortest_interval(method, fits, xnew, nominal, d)
            assert (a1, a2) == (0.0, nominal)
            at = interval(method, fits, xnew, 0.0, nominal, d)
            assert (piv.lo, piv.hi) == (at.lo, at.hi)
            for g in np.linspace(0.0, 1.0 - nominal, 11):
                other = interval(method, fits, xnew, g, g + nominal, d)
                assert piv.length == pytest.approx(other.length, abs=1e-12)


def test_coverage_ceiling():
    fits = singleton_fits(constant(0.0), [0.0, 10.0, 20.0])
    # well separated atoms, 2*delta below the minimal gap
    got = coverage_ceiling(fits, 0.2, 0.9, 1.0)
    n = 3
    want = ceil_guarded(0.9 * n) / n - (ceil_guarded(0.2 * n) - 1) / n
    assert got == pytest.approx(want, abs=1e-12)
    # alpha1 = alpha2 at an interior atom still counts that atom
    assert coverage_ceiling(fits, 0.5, 0.5, 1.0) >= 1 / 3 - 1e-12
    # identical atoms: point mass gives ceiling one
    flat = singleton_fits(constant(0.0), [4.0, 4.0, 4.0])
    assert coverage_ceiling(flat, 0.5, 0.5, 0.1) == 1.0
    with pytest.raises(InvalidTolerance):
        coverage_ceiling(fits, 0.2, 0.9, 0.0)


def test_fold_ecdfs_take_interval_cumulative_weights():
    # constant(0) on y = 0..9, jackknife: interval reads the third cumulative
    # weight as fl(3/10) = 0.3, where a float cumsum of 1/10 gives
    # 0.30000000000000004; at a level between the two every fold ecdf takes
    # interval's quantile, 3.0, not 2.0
    fits = singleton_fits(constant(0.0), np.arange(10.0))
    part, res = fits.partition, fits.loo_residuals
    level = 0.30000000000000004 + 1e-12
    atoms = interval_atoms(CV, fits)
    assert interval(CV, fits, X0, level, 1.0).lo == 3.0
    ecdfs = [fold_ecdf([res[f] for f in part.folds]), uniform_ecdf(res),
             weighted_ecdf(res, part.atom_units, part.unit_total)]
    for F in ecdfs:
        assert F.cum.tobytes() == atoms.cum[atoms.run_ends()].tobytes()
        assert quantile(F, level) == 3.0
    # F(Q_{0.95} + 0.2) - F((Q_level - 0.2)-) = F(9.2) - F(2.8-) = 1 - fl(3/10)
    assert coverage_ceiling(fits, level, 0.95, 0.1) == 1.0 - 0.3


def test_interval_shrunken_can_be_empty():
    fits = singleton_fits(constant(0.0), [0.0, 0.1])
    piv = interval(CV, fits, X0, 0.4, 0.6, -5.0)
    assert piv.empty and piv.length == 0.0


def _oracle_case(rule, lattice):
    n = 12 if rule == "jackknife" else 10
    rng = np.random.default_rng(23)
    if lattice:
        # max_response on responses that are multiples of 0.25: tied atoms
        train = toy_train(np.round(rng.normal(size=n) * 4.0) / 4.0)
        spec, xnew = max_response(), np.zeros(1)
    else:
        train = TrainingSet(rng.normal(size=n), rng.normal(size=(n, 2)))
        spec, xnew = ridge(0.5), rng.normal(size=2)
    return FoldFits(spec, train, resolve_partition(rule, n)), xnew


@pytest.mark.parametrize("lattice", [False, True], ids=["distinct", "lattice"])
@pytest.mark.parametrize("rule", ["jackknife", 3, unequal_folds], ids=["singletons", "k3-n10", "callable-unequal"])
def test_interval_matches_stepcdf_oracle(rule, lattice):
    fits, xnew = _oracle_case(rule, lattice)
    n = fits.train.n
    # every cumulative fold weight and multiple of 1/n as either level, crossed
    # pairs, and levels near and outside the ends of (0, 1]
    part = fits.partition
    grid = sorted({j / n for j in range(n + 1)} | {float(c) for c in np.cumsum(part.atom_units) / part.unit_total})
    pairs = [(a, 1.0) for a in grid] + [(0.0, b) for b in grid] + list(zip(grid, reversed(grid)))
    pairs += [(1e-13, 1.0), (0.0, 1e-13), (1e-13, 1.0 + 1e-13), (0.5, 1.0 + 1e-13), (-0.1, 0.5)]
    for method in ALL_METHODS:
        for d in (0.0, 0.25, -0.25):
            for a1, a2 in pairs:
                got = interval(method, fits, xnew, a1, a2, d)
                want = stepcdf_interval(method, fits, xnew, a1, a2, d)
                assert (got.lo, got.hi) == (want.lo, want.hi), (method, d, a1, a2)


def test_shortest_interval_exhaustive_oracle_unequal_folds():
    rng = np.random.default_rng(29)
    for _ in range(5):
        train = TrainingSet(rng.normal(size=10), rng.normal(size=(10, 2)))
        fits, xnew = FoldFits(ridge(0.5), train, unequal_folds(10)), rng.normal(size=2)
        nominal = float(rng.uniform(0.3, 0.9))
        for method in (CV, CVP):
            for d in (0.0, 0.1):
                a1, a2, piv = shortest_interval(method, fits, xnew, nominal, d)
                at = interval(method, fits, xnew, a1, a2, d)
                assert (piv.lo, piv.hi) == (at.lo, at.hi)
                for g in np.linspace(0.0, 1.0 - nominal, 2001):
                    assert piv.length <= interval(method, fits, xnew, g, g + nominal, d).length + 1e-12
