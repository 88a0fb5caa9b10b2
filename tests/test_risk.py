import numpy as np
import pytest

from cvuq.data import sample_classification, sample_gaussian_linear
from cvuq.errors import InvalidTolerance, NonIntegerResiduals, NonMonotoneLoss
from cvuq.predictors import FoldFits, FoldPartition, constant
from cvuq.risk import (
    LossFn,
    absolute,
    indicator,
    loss_plugin_bounds,
    misclassification_estimate,
    mse_estimate,
    squared_hinge,
    table_loss,
)


def test_zero_loss_gives_pm_eps():
    zero = LossFn("zero", lambda x: np.zeros_like(x))
    lo, hi = loss_plugin_bounds([1.0, -2.0, 0.5], zero, 0.25)
    assert lo == -0.25 and hi == 0.25


def test_squared_hinge_two_atoms_by_hand():
    lo, hi = loss_plugin_bounds([1.0, -1.0], squared_hinge(), 0.5)
    assert lo == pytest.approx(0.25 - 0.5, abs=1e-15)
    assert hi == pytest.approx(2.25 + 0.5, abs=1e-15)


def test_bounds_tighten_as_eps_shrinks():
    rng = np.random.default_rng(1)
    u = rng.normal(size=50)
    plug = float(np.mean(np.maximum(np.abs(u), 0.0) ** 2))
    prev_lo, prev_hi = -np.inf, np.inf
    for eps in (1.0, 0.5, 0.1, 0.01, 1e-4):
        lo, hi = loss_plugin_bounds(u, squared_hinge(), eps)
        assert lo <= hi
        assert lo >= prev_lo - 1e-12 and hi <= prev_hi + 1e-12
        prev_lo, prev_hi = lo, hi
    assert lo == pytest.approx(plug, abs=1e-2)
    assert hi == pytest.approx(plug, abs=1e-2)


def test_loss_monotonicity_probe():
    with pytest.raises(NonMonotoneLoss):
        LossFn("bad", lambda x: -x)
    with pytest.raises(NonMonotoneLoss):
        table_loss([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])
    tab = table_loss([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    assert tab(1.5) == pytest.approx(2.5)


def test_mse_basics():
    assert mse_estimate(np.zeros(5)) == 0.0
    assert mse_estimate([3.0, 4.0]) == 12.5
    with pytest.raises(InvalidTolerance):
        mse_estimate([])


def test_mse_matches_population_for_zero_predictor():
    beta = np.array([1.0, -0.5])
    sigma = 0.8
    train = sample_gaussian_linear(10_000, 2, beta, sigma, seed=3)
    part = FoldPartition.singletons(train.n)
    fits = FoldFits(constant(0.0), train, part)
    target = sigma**2 + float(beta @ beta)
    assert mse_estimate(fits.loo_residuals) == pytest.approx(target, rel=0.05)


def test_mse_is_plugin_midpoint_limit():
    rng = np.random.default_rng(4)
    u = rng.normal(size=40)
    mse = mse_estimate(u)
    for eps in (0.1, 0.01, 1e-3):
        lo, hi = loss_plugin_bounds(u, squared_hinge(), eps)
        assert lo - 1e-12 <= mse <= hi + 1e-12
    lo, hi = loss_plugin_bounds(u, squared_hinge(), 1e-6)
    assert 0.5 * (lo + hi) == pytest.approx(mse, abs=1e-4)


def test_misclassification_basics():
    assert misclassification_estimate([0.0, 0.0]) == 0.0
    assert misclassification_estimate([0.0, 1.0, -2.0, 0.0]) == 0.5
    with pytest.raises(NonIntegerResiduals):
        misclassification_estimate([0.5, 1.0])


def test_constant_classifier_balanced_classes():
    train = sample_classification(5000, 1, 2, seed=9)
    part = FoldPartition.contiguous(train.n, 10)
    rate = misclassification_estimate(FoldFits(constant(1.0), train, part).loo_residuals)
    assert rate == pytest.approx(0.5, abs=0.05)


def test_indicator_and_absolute_descriptors():
    ind = indicator(1.0)
    np.testing.assert_array_equal(ind([0.5, 1.0, 2.0]), [0.0, 1.0, 1.0])
    ab = absolute()
    np.testing.assert_array_equal(ab([-1.0, 2.0]), [0.0, 2.0])


def test_mse_estimate_gap_shrinks_with_n():
    # stable predictor on a smooth DGP: E|conditional MSE - estimate| shrinks
    from cvuq.data import DgpSpec
    from cvuq.predictors import FoldFits, FoldPartition, ridge
    from cvuq.rng import stream
    from oracles import isotonic_trend_ok

    dgp = DgpSpec("gaussian_linear", {"beta": [1.0, -0.5], "sigma": 1.0})
    spec = ridge(0.5)
    means, ses = [], []
    for n in (50, 200, 800):
        gaps = []
        for r in range(30):
            train = dgp.sample(n, stream(77, r, 0))
            fits = FoldFits(spec, train, FoldPartition.singletons(n))
            est = mse_estimate(fits.loo_residuals)
            y_t, x_t = dgp.draw(2000, stream(77, r, 1))
            cond = float(np.mean((y_t - fits.full_model.predict(x_t)) ** 2))
            gaps.append(abs(cond - est))
        means.append(float(np.mean(gaps)))
        ses.append(float(np.std(gaps, ddof=1) / np.sqrt(len(gaps))))
    assert isotonic_trend_ok(means, ses, "decreasing")
    assert means[-1] < means[0]
