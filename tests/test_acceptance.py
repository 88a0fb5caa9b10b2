"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy coverage and
equivalence experiments (criteria 8 and 9) take a few minutes combined; the
rest completes in seconds.
"""

import math
import time

import numpy as np

import conftest

from cvuq.data import DgpSpec
from cvuq.ecdf import quantiles, uniform_ecdf, weighted_ecdf
from cvuq.intervals import IntervalMethod, interval
from cvuq.levy_gauge import (
    MonotoneFn,
    expectation_transfer,
    gauge,
    gauge_bound_l2,
    gauge_bound_matched_pairs,
    gauge_bound_wasserstein,
    koksma_bound,
    kolmogorov_distance,
    scaled,
    step_expectation,
)
from cvuq.predictors import (
    FoldFits,
    FoldPartition,
    constant,
    dirac_threshold,
    max_response,
    neg_max_response,
    ridge,
)
from cvuq.risk import loss_plugin_bounds, misclassification_estimate, mse_estimate, squared_hinge
from cvuq.rng import stream
from cvuq.simlab import (
    constant_family,
    coverage_distribution,
    infinite_length_probe,
    jk_vs_jkplus_gap,
    length_compare,
    sqrt_n_family,
)
from cvuq.stability import m_stability, variance_gap
from oracles import (
    feasible_levy,
    grid_gauge,
    isotonic_trend_ok,
    jackknife_formula,
    random_step_cdf,
    sandwich_holds,
)


def report(num: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {num}: {detail}"


def random_pair(rng, lattice_prob=0.25):
    lattice = rng.random() < lattice_prob
    return random_step_cdf(rng, lattice=lattice), random_step_cdf(rng, lattice=lattice)


def test_criterion_01_gauge_axioms():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260801)
    tol = 1e-12
    worst = 0.0
    for _ in range(1000):
        F, G = random_pair(rng)
        H = random_step_cdf(rng)
        d1, d2 = sorted(rng.uniform(0.0, 1.5, size=2))
        g1 = gauge(F, G, d1).value
        g2 = gauge(F, G, d2).value
        # symmetry (exact) and monotonicity in delta
        worst = max(worst, abs(g1 - gauge(G, F, d1).value))
        worst = max(worst, g2 - g1)
        worst = max(worst, g1 - kolmogorov_distance(F, G))
        # relaxed triangle
        worst = max(worst, gauge(F, H, d1 + d2).value - gauge(F, G, d1).value - gauge(G, H, d2).value)
        # scaling identity
        c = float(rng.uniform(0.5, 2.0))
        worst = max(worst, abs(g1 - gauge(scaled(F, c), scaled(G, c), d1 / c).value))
        # Levy-metric bracket via the independent feasibility oracle:
        # L <= max(delta, gauge) iff feasible there; min(delta, gauge) <= L
        # iff infeasible just below (or the min is zero)
        hi = max(d1, g1)
        lo = min(d1, g1)
        if not feasible_levy(F, G, hi + tol):
            worst = max(worst, 1.0)
        if lo - tol > 0 and feasible_levy(F, G, lo - tol):
            worst = max(worst, 1.0)
    # Dirac sharpness: tolerance delta chains of Diracs give (0, 0, 1)
    D = [uniform_ecdf([x]) for x in (0.0, 1.0, 2.0)]
    exact = (
        gauge(D[0], D[1], 1.0).value == 0.0
        and gauge(D[1], D[2], 1.0).value == 0.0
        and gauge(D[0], D[2], 1.0).value == 1.0
    )
    elapsed = time.monotonic() - t0
    report(
        1,
        worst <= tol and exact and elapsed < 5.0,
        f"axioms on 1000 pairs/triples, worst violation {worst:.2e}, "
        f"dirac chain exact={exact}, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_gauge_vs_brute_force():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260802)
    worst = 0.0
    for _ in range(500):
        F, G = random_pair(rng, lattice_prob=0.0)
        delta = float(rng.uniform(0.0, 1.5))
        exact = gauge(F, G, delta).value
        approx = grid_gauge(F, G, delta, num=100_000)
        worst = max(worst, abs(exact - approx))
    elapsed = time.monotonic() - t0
    report(
        2,
        worst <= 1e-9 and elapsed < 30.0,
        f"breakpoint vs 1e5-grid sup on 500 pairs, max |diff| {worst:.2e}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_03_quantile_sandwich_and_characterization():
    rng = np.random.default_rng(20260803)
    grid = np.linspace(0.0, 1.0, 101)
    violations = 0
    for _ in range(200):
        F, G = random_pair(rng)
        for delta in (0.0, 0.1, 1.0):
            L = gauge(F, G, delta).value
            qg = quantiles(G, grid)
            lo = quantiles(F, grid - L)
            hi = quantiles(F, grid + L)
            lo = np.where(np.isfinite(lo), lo - delta, lo)
            hi = np.where(np.isfinite(hi), hi + delta, hi)
            violations += int(np.sum(lo > qg + 1e-9) + np.sum(qg > hi + 1e-9))
            # characterization: sandwich holds at the gauge, fails just below
            if not sandwich_holds(F, G, delta, L + 1e-9):
                violations += 1
            if L > 1e-6 and sandwich_holds(F, G, delta, L - 1e-6):
                violations += 1
    report(3, violations == 0, f"sandwich + characterization, {violations} violations over 200x101x3")


def test_criterion_04_bounds_dominate():
    rng = np.random.default_rng(20260804)
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(2, 25))
        a = rng.normal(size=n) * 2
        b = a + rng.normal(scale=0.7, size=n)
        w = rng.exponential(size=n)
        w /= w.sum()
        delta = float(rng.uniform(0.05, 1.5))
        F = weighted_ecdf(a, w)
        G = weighted_ecdf(b, w)
        g = gauge(F, G, delta).value
        if g > gauge_bound_matched_pairs(a, b, w, delta) + 1e-12:
            bad += 1
        if g > gauge_bound_wasserstein(a, b, w, delta) + 1e-12:
            bad += 1
        mu = float(rng.normal())
        K = float(rng.uniform(0.5, 6.0))
        if g > gauge_bound_l2(F, G, delta, mu, K) + 1e-12:
            bad += 1
    # documented tight instance
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([0.0, 1.0, 5.0])
    w = np.full(3, 1 / 3)
    tight = (
        abs(gauge_bound_matched_pairs(a, b, w, 1.0) - 1 / 3) < 1e-15
        and abs(gauge(uniform_ecdf(a), uniform_ecdf(b), 1.0).value - 1 / 3) < 1e-15
    )
    report(4, bad == 0 and tight, f"matched-pairs/Wasserstein/L2 dominate gauge, {bad} failures; tight 1/3 case={tight}")


def test_criterion_05_expectation_transfer_and_koksma():
    rng = np.random.default_rng(20260805)
    violations = 0
    for _ in range(200):
        F, G = random_pair(rng)
        delta = float(rng.uniform(0.0, 1.0))
        c = float(rng.normal())
        K = float(rng.uniform(1.0, 4.0))
        losses = [
            MonotoneFn(lambda x, c=c: (x >= c).astype(float), 0.0, 1.0, lipschitz=None, total_variation=1.0),
            MonotoneFn(lambda x, K=K: np.clip(x, -K, K), -K, K, lipschitz=1.0, total_variation=2 * K),
            MonotoneFn(
                lambda x, K=K: np.minimum(np.maximum(x, 0.0) ** 2, K),
                0.0, K, lipschitz=2 * math.sqrt(K), total_variation=K,
            ),
        ]
        for f in losses:
            lo, hi = expectation_transfer(f, F, G, delta)
            exact = step_expectation(F, f)
            if not (lo - 1e-12 <= exact <= hi + 1e-12):
                violations += 1
            diff = abs(step_expectation(F, f) - step_expectation(G, f))
            if diff > koksma_bound(f, F, G) + 1e-12:
                violations += 1
    report(5, violations == 0, f"expectation transfer + Koksma, {violations} violations over 200 pairs x 3 losses")


def test_criterion_06_jackknife_is_singleton_cv():
    rng = np.random.default_rng(20260806)
    mismatches = 0
    from cvuq.data import TrainingSet

    for _ in range(100):
        n = int(rng.integers(3, 50))
        train = TrainingSet(rng.normal(size=n), rng.normal(size=(n, 2)))
        fits, xnew = FoldFits(ridge(0.5), train, FoldPartition.singletons(n)), rng.normal(size=2)
        a1, a2 = sorted(rng.uniform(0, 1, size=2))
        delta = float(rng.normal(scale=0.3))
        got = interval(IntervalMethod("cv"), fits, xnew, a1, a2, delta)
        want = jackknife_formula(fits.loo_residuals, fits.full_model.predict_one(xnew), a1, a2, delta)
        if got.lo != want.lo or got.hi != want.hi:
            mismatches += 1
    report(6, mismatches == 0, f"singleton-fold CV equals Jackknife formula atom-for-atom, {mismatches}/100 mismatches")


def test_criterion_07_length_dominance():
    t0 = time.monotonic()
    dgp = DgpSpec("gaussian_linear", {"beta": [0.0], "sigma": 1.0})
    n, reps = 20, 500
    plain = length_compare(
        [max_response(), neg_max_response()], dgp, n, 0.9, reps, seed=20260807, alpha1=0.05
    )
    strict = length_compare(
        [max_response(), neg_max_response()], dgp, n, 0.5, reps, seed=20260817, alpha1=0.5
    )  # alpha2 = 1.0 > (n-1)/n
    ok_max = bool(np.all(plain.lengths_cvp["max_response"] <= plain.lengths_cv["max_response"] + 1e-12))
    ok_neg = bool(np.all(plain.lengths_cv["neg_max_response"] <= plain.lengths_cvp["neg_max_response"] + 1e-12))
    ok_strict = bool(
        np.all(strict.lengths_cvp["max_response"] < strict.lengths_cv["max_response"])
        and np.all(strict.lengths_cv["neg_max_response"] < strict.lengths_cvp["neg_max_response"])
    )
    elapsed = time.monotonic() - t0
    report(
        7,
        ok_max and ok_neg and ok_strict and elapsed < 10.0,
        f"J+ <= J for max (strict at top quantile), reversed for neg-max, 500 reps, {elapsed:.1f}s (< 10s)",
    )


def _coverage_dgp(p: int) -> DgpSpec:
    beta = (np.ones(p) / math.sqrt(p)).tolist()
    return DgpSpec("gaussian_linear", {"beta": beta, "sigma": 1.0})


def test_criterion_08_conditional_coverage():
    t0 = time.monotonic()
    ok = True
    details = []
    for p in (2, 50):
        dgp = _coverage_dgp(p)
        base = coverage_distribution(
            ridge(1e-8), dgp, 200, IntervalMethod("cv"), 0.05, 0.95, 0.0,
            train_reps=200, mc_test=50_000, seed=20260808 + p,
        )
        frac_low = float(np.mean(base.conditional_cov >= 0.85))
        shrunk = coverage_distribution(
            ridge(1e-8), dgp, 200, IntervalMethod("cv"), 0.05, 0.95, "iqr:-0.1",
            train_reps=200, mc_test=50_000, seed=20260808 + p,
        )
        frac_over = float(np.mean(shrunk.conditional_cov > 0.95))
        ok = ok and frac_low >= 0.95 and frac_over <= 0.05
        details.append(f"p={p}: cov>=0.85 in {frac_low:.0%}, shrunken cov>0.95 in {frac_over:.0%}")
    elapsed = time.monotonic() - t0
    report(8, ok and elapsed < 300.0, "; ".join(details) + f", {elapsed:.0f}s (< 300s)")


def test_criterion_09_equivalence():
    ok = True
    details = []
    for p in (2, 50):
        dgp = _coverage_dgp(p)
        rep = jk_vs_jkplus_gap(
            ridge(1e-8), dgp, 200, 0.05, 0.95, 0.0,
            train_reps=200, mc_test=50_000, seed=20260809 + p, eps=0.05,
        )
        ok = ok and rep.q95_gap <= 0.02
        ok = ok and rep.event_freq <= rep.bound + 3 * rep.event_std_err + 1e-12
        details.append(
            f"p={p}: q95 |cov_J - cov_J+| = {rep.q95_gap:.4f}, "
            f"event freq {rep.event_freq:.3f} <= bound {rep.bound:.3f}"
            + (" (vacuous)" if rep.vacuous else "")
        )
    report(9, ok, "; ".join(details))


def test_criterion_10_m_stability_counterexample():
    L = 3.0
    ok = True
    for n in (10, 50):
        dgp = DgpSpec("dirac_first_coord", {"p": 1, "point": float(n)})
        for m in (1, 2, 5):
            est = m_stability(dirac_threshold(L), dgp, n, m, reps=8, seed=20260810)
            want = L if m >= 2 else 0.0
            ok = ok and est.value == want and est.std_err == 0.0
    report(10, ok, "dirac-threshold m-stability equals L*1{m>=2} with zero variance, L=3, n in {10,50}, m in {1,2,5}")


def _sqrt_m_ratio(n: int, reps: int, seed: int):
    m = n
    p = int(0.3 * m)
    beta = np.zeros(p)
    beta[0] = 1.0
    dgp = DgpSpec("gaussian_linear", {"beta": beta.tolist(), "sigma": 1.0})
    spec = ridge(1.0)
    bm = m_stability(spec, dgp, n, m, reps=reps, seed=seed)
    b1 = m_stability(spec, dgp, n, 1, reps=reps, seed=seed + 1)
    ratio = bm.value / (math.sqrt(m) * b1.value)
    rel_se = math.hypot(bm.std_err / bm.value, b1.std_err / b1.value)
    return ratio, ratio * rel_se


def test_criterion_11_ridge_sqrt_m_growth():
    r100, se100 = _sqrt_m_ratio(100, reps=300, seed=20260811)
    r400, se400 = _sqrt_m_ratio(400, reps=200, seed=20260821)
    slack = 3.0 * math.hypot(se400, 0.5 * se100)
    ok = r400 >= 0.5 * r100 - slack
    report(
        11,
        ok,
        f"beta_m/(sqrt(m) beta_1): {r100:.3f} at n=100 -> {r400:.3f} at n=400 "
        f"(no decay beyond 0.5x within 3 sigma = {slack:.3f})",
    )


def test_criterion_12_necessity_probes():
    grid = (50, 100, 200)
    base = DgpSpec("gaussian_linear", {"beta": [0.0], "sigma": 1.0})
    grow = infinite_length_probe(constant(0.0), sqrt_n_family(base), grid, 0.8, 200, seed=20260812)
    flat = infinite_length_probe(constant(0.0), constant_family(base), grid, 0.8, 200, seed=20260812)
    ok_grow = isotonic_trend_ok(grow.mean, grow.std_err, "increasing") and grow.mean[-1] > 1.5 * grow.mean[0]
    ok_flat = abs(flat.mean[-1] - flat.mean[0]) <= 4 * math.hypot(flat.std_err[0], flat.std_err[-1])

    ridge_dgp = DgpSpec("gaussian_linear", {"beta": [1.0, 0.0, -0.5], "sigma": 1.0})
    heavy = DgpSpec("student_linear", {"beta": [0.0], "sigma": 1.0, "dof": 2.5})
    ridge_gaps = [variance_gap(ridge(1.0), ridge_dgp, n, reps=3000, seed=20260813) for n in grid]
    max_gaps = [variance_gap(max_response(), heavy, n, reps=20_000, seed=20260814) for n in grid]
    # ridge: |gap| decays isotonically toward zero (vanishing variance increment)
    ok_ridge = isotonic_trend_ok(
        [abs(g.value) for g in ridge_gaps], [g.std_err for g in ridge_gaps], "decreasing"
    ) and abs(ridge_gaps[-1].value) <= 0.5 * abs(ridge_gaps[0].value)
    # heavy-tail max: gaps stay bounded away from zero across the grid
    ok_max = all(g.value > 3 * g.std_err for g in max_gaps)
    ok_max = ok_max and max_gaps[-1].value >= 0.5 * max_gaps[0].value - 3 * math.hypot(
        max_gaps[0].std_err, max_gaps[-1].std_err
    )
    ok_distinct = abs(ridge_gaps[-1].value) < 0.01 * max_gaps[-1].value
    report(
        12,
        ok_grow and ok_flat and ok_ridge and ok_max and ok_distinct,
        f"sqrt-n probe grows {grow.mean[0]:.2f}->{grow.mean[-1]:.2f} (control flat={ok_flat}); "
        f"|ridge gap| decays {abs(ridge_gaps[0].value):.1e}->{abs(ridge_gaps[-1].value):.1e} "
        f"vs heavy-tail max {[round(float(g.value), 2) for g in max_gaps]} all > 3 sigma, no decay beyond half",
    )


def test_criterion_13_risk_estimators():
    # conditional MSE for the zero predictor
    beta = np.array([1.0, -0.5])
    sigma = 0.8
    dgp = DgpSpec("gaussian_linear", {"beta": beta.tolist(), "sigma": sigma})
    train = dgp.sample(10_000, stream(20260813, 0))
    fits = FoldFits(constant(0.0), train, FoldPartition.singletons(train.n))
    target = sigma**2 + float(beta @ beta)
    got_mse = mse_estimate(fits.loo_residuals)
    ok_mse = abs(got_mse - target) <= 0.05 * target

    # misclassification of the always-class-1 predictor on two balanced classes
    cls = DgpSpec("classification_grid", {"p": 1, "class_count": 2})
    ctrain = cls.sample(5000, stream(20260813, 1))
    cfits = FoldFits(constant(1.0), ctrain, FoldPartition.contiguous(ctrain.n, 10))
    got_rate = misclassification_estimate(cfits.loo_residuals)
    ok_cls = abs(got_rate - 0.5) <= 0.05

    # plug-in bounds bracket the MC conditional risk in >= 95% of reps
    loss = squared_hinge()
    eps = 0.2
    hits = 0
    reps = 200
    rdgp = DgpSpec("gaussian_linear", {"beta": [1.0, -0.5], "sigma": 1.0})
    for r in range(reps):
        train = rdgp.sample(100, stream(20260823, r, 0))
        fits = FoldFits(ridge(0.1), train, FoldPartition.singletons(100))
        lo, hi = loss_plugin_bounds(fits.loo_residuals, loss, eps)
        y_t, x_t = rdgp.draw(4000, stream(20260823, r, 1))
        risk_mc = float(np.mean(loss(np.abs(y_t - fits.full_model.predict(x_t)))))
        hits += lo <= risk_mc <= hi
    ok_bounds = hits / reps >= 0.95
    report(
        13,
        ok_mse and ok_cls and ok_bounds,
        f"mse {got_mse:.3f} vs {target:.3f} (5%); misclassification {got_rate:.3f} vs 0.5 (0.05); "
        f"plug-in bracket hit {hits}/{reps} (>= 95%)",
    )


def test_criterion_14_cli_thread_reproducibility(tmp_path, capsys):
    from cvuq.cli import main

    pred = tmp_path / "ridge.json"
    pred.write_text('{"kind": "ridge", "lambda": 0.5}')
    dgp = tmp_path / "dgp.json"
    dgp.write_text('{"kind": "gaussian_linear", "beta": [1.0], "sigma": 1.0}')
    commands = [
        ["sim", "coverage", "--dgp", str(dgp), "--predictor", str(pred),
         "--n", "20", "--train-reps", "6", "--mc-test", "200", "--seed", "5"],
        ["sim", "equiv", "--dgp", str(dgp), "--predictor", str(pred),
         "--n", "15", "--train-reps", "4", "--mc-test", "100", "--seed", "5"],
        ["sim", "length", "--dgp", str(dgp), "--n", "12", "--train-reps", "6", "--seed", "5"],
        ["sim", "gauge", "--dgp", str(dgp), "--predictor", str(pred),
         "--n-grid", "15,30", "--train-reps", "4", "--mc-oracle", "300",
         "--delta", "0.2", "--seed", "5"],
        ["sim", "problen", "--dgp", str(dgp), "--predictor", str(pred),
         "--n-grid", "15,30", "--train-reps", "4", "--seed", "5"],
        ["stability", "profile", "--dgp", str(dgp), "--predictor", str(pred),
         "--n", "15", "--reps", "8", "--seed", "5"],
        ["stability", "mstab", "--dgp", str(dgp), "--predictor", str(pred),
         "--n", "10", "--m", "3", "--reps", "8", "--seed", "5"],
        ["stability", "vargap", "--dgp", str(dgp), "--predictor", str(pred),
         "--n", "15", "--reps", "64", "--seed", "5"],
        ["stability", "drift", "--dgp", str(dgp), "--predictor", str(pred),
         "--n", "10", "--outer", "8", "--inner", "4", "--seed", "5"],
    ]
    ok = True
    for argv in commands:
        outs = []
        for threads in ("1", "8"):
            code = main(argv + ["--threads", threads])
            outs.append(capsys.readouterr().out)
            ok = ok and code == 0
        ok = ok and outs[0] == outs[1] and len(outs[0]) > 0
        # reproducibility of the identical invocation
        code = main(argv + ["--threads", "1"])
        again = capsys.readouterr().out
        ok = ok and again == outs[0]
    report(14, ok, f"{len(commands)} CLI experiments bit-identical across 1 vs 8 worker threads")
