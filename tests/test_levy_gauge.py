import math
import warnings

import numpy as np
import pytest

from cvuq.ecdf import quantile, uniform_ecdf, weighted_ecdf
from cvuq.errors import InvalidTolerance, UnboundedLoss
from cvuq.levy_gauge import (
    GaugeResult,
    MonotoneFn,
    expectation_transfer,
    gauge,
    gauge_bound_l2,
    gauge_bound_l2_global,
    gauge_bound_matched_pairs,
    gauge_bound_wasserstein,
    koksma_bound,
    kolmogorov_distance,
    lipschitz_transfer_bound,
    quantile_sandwich,
    scaled,
    step_expectation,
)
from oracles import grid_gauge, levy_metric, random_step_cdf, sandwich_inf_eps, supnorm_scan


def dirac(x):
    return weighted_ecdf([x], [1.0])


def test_gauge_at_infinite_delta_is_zero_without_warnings():
    F = weighted_ecdf([0.0, 1.0, 5.0], [0.2, 0.3, 0.5])
    G = uniform_ecdf([-3.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((F, G), (G, F), (F, F)):
            assert gauge(a, b, math.inf) == GaugeResult(0.0, float(a.jumps[-1]), "F_over_G")


def test_dirac_chain_sharpness():
    # Diracs at 0, delta, 2*delta with delta = 1: gauges (0, 0, 1) exactly.
    D0, D1, D2 = dirac(0.0), dirac(1.0), dirac(2.0)
    assert gauge(D0, D1, 1.0).value == 0.0
    assert gauge(D1, D2, 1.0).value == 0.0
    assert gauge(D0, D2, 1.0).value == 1.0


def test_gauge_identity_is_zero():
    rng = np.random.default_rng(7)
    for _ in range(20):
        F = random_step_cdf(rng)
        for delta in (0.0, 0.3, 2.0):
            assert gauge(F, F, delta).value == 0.0


def test_gauge_documented_instance():
    F = uniform_ecdf([0.0, 1.0, 2.0])
    G = uniform_ecdf([0.0, 1.0, 5.0])
    res = gauge(F, G, 1.0)
    assert res.value == pytest.approx(1 / 3, abs=1e-15)
    # brute-force grid sup agrees
    assert grid_gauge(F, G, 1.0) == pytest.approx(res.value, abs=1e-12)
    # witness attains the sup on the reported side
    from cvuq.ecdf import eval_cdf

    assert eval_cdf(F, res.witness_t) - eval_cdf(G, res.witness_t + 1.0) == pytest.approx(res.value)


def test_gauge_matches_grid_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        F = random_step_cdf(rng)
        G = random_step_cdf(rng)
        delta = float(rng.uniform(0, 1.5))
        assert gauge(F, G, delta).value == pytest.approx(grid_gauge(F, G, delta), abs=1e-9)


def test_kolmogorov_special_case():
    rng = np.random.default_rng(3)
    F = random_step_cdf(rng)
    G = random_step_cdf(rng)
    assert kolmogorov_distance(F, F) == 0.0
    assert kolmogorov_distance(dirac(0.0), dirac(1.0)) == 1.0
    assert kolmogorov_distance(F, G) == pytest.approx(supnorm_scan(F, G), abs=1e-15)
    assert kolmogorov_distance(F, G) == gauge(F, G, 0.0).value


def test_gauge_symmetry_exact():
    rng = np.random.default_rng(5)
    for _ in range(50):
        F = random_step_cdf(rng)
        G = random_step_cdf(rng)
        delta = float(rng.uniform(0, 2))
        assert gauge(F, G, delta).value == gauge(G, F, delta).value


def test_gauge_monotone_in_delta():
    rng = np.random.default_rng(9)
    for _ in range(50):
        F = random_step_cdf(rng)
        G = random_step_cdf(rng)
        d1, d2 = sorted(rng.uniform(0, 2, size=2))
        g1 = gauge(F, G, float(d1)).value
        g2 = gauge(F, G, float(d2)).value
        assert 0.0 <= g2 <= g1 <= kolmogorov_distance(F, G) <= 1.0


def test_relaxed_triangle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        F, G, H = (random_step_cdf(rng) for _ in range(3))
        d1, d2 = rng.uniform(0, 1, size=2)
        lhs = gauge(F, H, float(d1 + d2)).value
        rhs = gauge(F, G, float(d1)).value + gauge(G, H, float(d2)).value
        assert lhs <= rhs + 1e-12


def test_scaling_identity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        F = random_step_cdf(rng)
        G = random_step_cdf(rng)
        delta = float(rng.uniform(0, 1.5))
        c = float(rng.uniform(0.5, 2.0))
        lhs = gauge(F, G, delta).value
        rhs = gauge(scaled(F, c), scaled(G, c), delta / c).value
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_levy_metric_bracket():
    rng = np.random.default_rng(19)
    for _ in range(25):
        F = random_step_cdf(rng)
        G = random_step_cdf(rng)
        L = levy_metric(F, G)
        for delta in (0.0, 0.05, 0.5, 1.5):
            g = gauge(F, G, delta).value
            assert min(delta, g) <= L + 1e-9
            assert L <= max(delta, g) + 1e-9


def test_quantile_sandwich_collapses_for_identical():
    F = uniform_ecdf([-1.0, 0.0, 2.0])
    for alpha in np.linspace(0.01, 1.0, 23):
        lo, hi = quantile_sandwich(F, F, 0.0, float(alpha))
        q = quantile(F, float(alpha))
        assert lo == q == hi


def test_quantile_sandwich_alpha_nonpositive():
    F = uniform_ecdf([0.0, 1.0])
    G = uniform_ecdf([5.0, 6.0])
    lo, hi = quantile_sandwich(F, G, 0.5, 0.0)
    assert lo == -math.inf
    assert quantile(G, 0.0) == -math.inf
    assert hi >= -math.inf


def test_quantile_sandwich_random_zero_violations():
    rng = np.random.default_rng(23)
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(40):
        F = random_step_cdf(rng, max_atoms=20)
        G = random_step_cdf(rng, max_atoms=20)
        for delta in (0.0, 0.3):
            L = gauge(F, G, delta).value
            for alpha in grid:
                qg = quantile(G, float(alpha))
                lo = quantile(F, float(alpha) - L)
                hi = quantile(F, float(alpha) + L)
                lo = lo - delta if math.isfinite(lo) else lo
                hi = hi + delta if math.isfinite(hi) else hi
                assert lo - 1e-9 <= qg <= hi + 1e-9


def test_quantile_characterization_bisection():
    rng = np.random.default_rng(29)
    for _ in range(20):
        F = random_step_cdf(rng, max_atoms=15)
        G = random_step_cdf(rng, max_atoms=15)
        for delta in (0.0, 0.1, 1.0):
            g = gauge(F, G, delta).value
            assert sandwich_inf_eps(F, G, delta) == pytest.approx(g, abs=1e-9)


def test_matched_pairs_bound():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([0.0, 1.0, 5.0])
    w = np.full(3, 1 / 3)
    bound = gauge_bound_matched_pairs(a, b, w, 1.0)
    assert bound == pytest.approx(1 / 3, abs=1e-15)
    F = uniform_ecdf(a)
    G = uniform_ecdf(b)
    assert gauge(F, G, 1.0).value == pytest.approx(bound, abs=1e-15)  # tight here
    assert gauge_bound_matched_pairs(a, a, w, 0.5) == 0.0
    assert gauge_bound_matched_pairs(a, b, w, 3.0) == 0.0  # delta >= max gap


def test_matched_pairs_dominates_gauge_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        a = rng.normal(size=n)
        b = a + rng.normal(scale=0.5, size=n)
        w = rng.exponential(size=n)
        w /= w.sum()
        delta = float(rng.uniform(0, 1))
        F = weighted_ecdf(a, w)
        G = weighted_ecdf(b, w)
        assert gauge(F, G, delta).value <= gauge_bound_matched_pairs(a, b, w, delta) + 1e-12
        if delta > 0:
            assert gauge(F, G, delta).value <= gauge_bound_wasserstein(a, b, w, delta) + 1e-12


def test_l2_bound_reduces_to_tail_mass_for_identical():
    F = uniform_ecdf([-1.0, 0.0, 1.0])
    bound = gauge_bound_l2(F, F, 0.5, 0.0, 0.5)
    # tail mass outside [-0.5, 0.5]: the atom at -1 keeps F(-0.5) = 1/3,
    # and 1 - F(0.5) = 1/3
    assert bound == pytest.approx(1 / 3 + 1 / 3, abs=1e-12)
    assert gauge_bound_l2(F, F, 0.5, 0.0, 100.0) == 0.0


def test_l2_bound_dominates_gauge_random():
    rng = np.random.default_rng(37)
    for _ in range(100):
        F = random_step_cdf(rng)
        G = random_step_cdf(rng)
        delta = float(rng.uniform(0.05, 1.0))
        mu = float(rng.normal())
        K = float(rng.uniform(0.5, 8.0))
        g = gauge(F, G, delta).value
        assert g <= gauge_bound_l2(F, G, delta, mu, K) + 1e-12
        assert g**2 <= gauge_bound_l2_global(F, G, delta) ** 2 + 1e-12


def indicator_at(c):
    return MonotoneFn(lambda x: (x >= c).astype(float), 0.0, 1.0, total_variation=1.0)


def test_expectation_transfer_identical_indicator():
    F = uniform_ecdf([-1.0, 0.0, 2.0])
    f = indicator_at(0.5)
    lo, hi = expectation_transfer(f, F, F, 0.0)
    exact = step_expectation(F, f)
    assert lo <= exact <= hi
    assert lo == pytest.approx(exact, abs=1e-15)
    assert hi == pytest.approx(exact, abs=1e-15)


def test_expectation_transfer_contains_exact_random():
    rng = np.random.default_rng(41)
    for _ in range(60):
        F = random_step_cdf(rng)
        G = random_step_cdf(rng)
        delta = float(rng.uniform(0, 1))
        c = float(rng.normal())
        f = indicator_at(c)
        lo, hi = expectation_transfer(f, F, G, delta)
        assert lo - 1e-12 <= step_expectation(F, f) <= hi + 1e-12


def test_koksma_inequality_random():
    rng = np.random.default_rng(43)
    for _ in range(60):
        F = random_step_cdf(rng)
        G = random_step_cdf(rng)
        c = float(rng.normal())
        g = indicator_at(c)
        diff = abs(step_expectation(F, g) - step_expectation(G, g))
        assert diff <= koksma_bound(g, F, G) + 1e-12


def test_lipschitz_transfer_random():
    rng = np.random.default_rng(47)
    clip = MonotoneFn(lambda x: np.clip(x, -2.0, 2.0), -2.0, 2.0, lipschitz=1.0)
    for _ in range(60):
        F = random_step_cdf(rng)
        G = random_step_cdf(rng)
        delta = float(rng.uniform(0.01, 1.0))
        diff = abs(step_expectation(F, clip) - step_expectation(G, clip))
        assert diff <= lipschitz_transfer_bound(clip, F, G, delta) + 1e-12


def test_unbounded_descriptor_rejected():
    f = MonotoneFn(lambda x: x, -math.inf, math.inf)
    F = uniform_ecdf([0.0, 1.0])
    with pytest.raises(UnboundedLoss):
        expectation_transfer(f, F, F, 0.1)
    with pytest.raises(UnboundedLoss):
        koksma_bound(MonotoneFn(lambda x: x, 0.0, 1.0), F, F)


def test_bad_tolerances_are_invalid_tolerance_errors():
    F = uniform_ecdf([0.0, 1.0])
    for bad in (-1.0, math.nan):
        with pytest.raises(InvalidTolerance):
            gauge(F, F, bad)
        with pytest.raises(InvalidTolerance):
            gauge_bound_l2_global(F, F, bad)
        with pytest.raises(InvalidTolerance):
            gauge_bound_l2(F, F, 0.1, 0.0, bad)
        with pytest.raises(InvalidTolerance):
            scaled(F, bad)
    with pytest.raises(InvalidTolerance):
        gauge_bound_wasserstein([0.0], [1.0], [1.0], 0.0)
