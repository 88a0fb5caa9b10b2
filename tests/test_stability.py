import numpy as np
import pytest

from cvuq.data import DgpSpec
from cvuq.errors import InnerTooSmall, InvalidTolerance, TooFewRows
from cvuq.rng import stream
from cvuq.stability import (
    _draw_train_and_x,
    equivalence_bound,
    m_stability,
    oos_stability_profile,
    pac_bound_cv,
    resolve_partition,
    update_drift,
    variance_gap,
)
from cvuq.predictors import constant, dirac_threshold, max_response, ridge

GAUSS = DgpSpec("gaussian_linear", {"beta": [1.0, 0.0], "sigma": 1.0})


def test_profile_constant_predictor_zero():
    prof = oos_stability_profile(constant(3.0), GAUSS, 20, "jackknife", [0.01, 0.1, 1.0], reps=5, seed=1)
    assert np.all(prof.exceed_prob == 0.0)
    assert prof.mean_abs.value == 0.0


def test_profile_max_response_one_over_n():
    n = 25
    prof = oos_stability_profile(max_response(), GAUSS, n, "jackknife", [1e-12], reps=40, seed=2)
    assert prof.exceed_prob[0] <= 1.0 / n + 1e-12


def test_profile_monotone_in_eps():
    prof = oos_stability_profile(ridge(0.1), GAUSS, 30, 5, [0.01, 0.05, 0.2, 1.0], reps=30, seed=3)
    assert np.all(np.diff(prof.exceed_prob) <= 1e-12)
    assert prof.reps == 30


def test_profile_dirac_threshold_stable():
    n = 12
    dgp = DgpSpec("dirac_first_coord", {"p": 1, "point": float(n)})
    prof = oos_stability_profile(dirac_threshold(3.0), dgp, n, "jackknife", [0.1, 1.0, 2.9], reps=8, seed=4)
    assert np.all(prof.exceed_prob == 0.0)


def test_m_stability_dirac_counterexample():
    L = 3.0
    for n in (10, 50):
        dgp = DgpSpec("dirac_first_coord", {"p": 1, "point": float(n)})
        for m in (1, 2, 5):
            est = m_stability(dirac_threshold(L), dgp, n, m, reps=6, seed=5)
            assert est.value == (L if m >= 2 else 0.0)
            assert est.std_err == 0.0


def test_m_stability_constant_zero():
    est = m_stability(constant(1.0), GAUSS, 10, 4, reps=5, seed=6)
    assert est.value == 0.0


def test_m_stability_matches_profile_for_m1():
    spec = ridge(0.5)
    prof = oos_stability_profile(spec, GAUSS, 20, "jackknife", [0.1], reps=400, seed=7)
    m1 = m_stability(spec, GAUSS, 20, 1, reps=400, seed=8)
    # same distribution for symmetric predictors; allow 3 combined sigma
    tol = 3 * np.hypot(prof.mean_abs.std_err, m1.std_err)
    assert abs(m1.value - prof.mean_abs.value) <= tol


def test_pac_bound_perfect_inputs():
    # the absolute-moment bound is exactly 1 for perfect inputs; the truncated
    # bound keeps its deterministic (8L + 12 delta)/(k delta eps^2) term, which
    # only vanishes as k grows
    bt, ba = pac_bound_cv(1.0, 0.1, 0.0, 0.0, 0.0, np.zeros(10))
    assert ba == 1.0
    assert bt == pytest.approx(1.0 - 12.0 / (10 * 0.1**2), abs=1e-12)
    bt_big, ba_big = pac_bound_cv(1.0, 0.5, 0.0, 0.0, 0.0, np.zeros(10**6))
    assert ba_big == 1.0
    assert bt_big == pytest.approx(1.0, abs=1e-4)


def test_pac_bound_tail_example():
    # tail = eps/2, everything else 0, L=0, delta=1, k=100, eps=0.1
    bt, ba = pac_bound_cv(1.0, 0.1, 0.0, 0.05, 0.0, np.zeros(100))
    assert bt == pytest.approx(1.0 - 1.0 - 12.0 / (100 * 0.01), abs=1e-12)
    assert ba == 1.0


def test_pac_bound_k_large_limit():
    tail = 0.001
    eps = 0.5
    prev = -np.inf
    for k in (10, 1000, 1_000_000):
        bt, _ = pac_bound_cv(1.0, eps, 0.0, tail, 0.0, np.zeros(k))
        assert bt >= prev  # k^{-1} terms shrink
        prev = bt
    assert prev == pytest.approx(1 - 2 * tail / eps, abs=1e-3)


def test_pac_bound_monotone_in_inputs():
    base = pac_bound_cv(0.5, 0.2, 1.0, 0.01, 0.1, np.full(10, 0.05))
    worse_tail = pac_bound_cv(0.5, 0.2, 1.0, 0.05, 0.1, np.full(10, 0.05))
    worse_stab = pac_bound_cv(0.5, 0.2, 1.0, 0.01, 0.1, np.full(10, 0.2))
    assert worse_tail[0] <= base[0] and worse_tail[1] <= base[1]
    assert worse_stab[0] <= base[0] and worse_stab[1] <= base[1]
    with pytest.raises(InvalidTolerance):
        pac_bound_cv(0.0, 0.2, 1.0, 0.0, 0.0, np.zeros(10))
    with pytest.raises(InvalidTolerance):
        pac_bound_cv(0.5, -1.0, 1.0, 0.0, 0.0, np.zeros(10))


def test_equivalence_bound_arithmetic():
    assert equivalence_bound(0.5, 0.1, np.zeros(10)) == 0.0
    assert equivalence_bound(0.5, 0.1, np.full(10, 0.05)) == pytest.approx(0.2, abs=1e-15)
    assert equivalence_bound(1e-4, 0.0, np.full(4, 0.5)) > 1.0  # vacuous
    with pytest.raises(InvalidTolerance):
        equivalence_bound(0.0, 0.1, np.zeros(10))
    with pytest.raises(InvalidTolerance):
        equivalence_bound(0.5, 0.1, np.full(10, 1.5))
    with pytest.raises(InvalidTolerance):
        equivalence_bound(0.5, np.nan, np.zeros(10))


def test_variance_gap_constant_zero():
    est = variance_gap(constant(2.0), GAUSS, 30, reps=200, seed=9)
    assert est.value == 0.0


def test_update_drift_constant_zero():
    est = update_drift(constant(2.0), GAUSS, 20, outer_reps=20, inner_reps=5, seed=10)
    assert est.value == 0.0
    with pytest.raises(InnerTooSmall):
        update_drift(constant(2.0), GAUSS, 20, outer_reps=5, inner_reps=1, seed=10)


def test_update_drift_parity_shift():
    # predictor mean(y) + c * 1{train size even}: consecutive sizes differ by c
    c = 1.0
    parity_mean = lambda x, t: float(np.mean(t.y)) + c * (t.n % 2 == 0)
    dgp = DgpSpec("gaussian_linear", {"beta": [0.0], "sigma": 1.0})
    est = update_drift(parity_mean, dgp, 10, outer_reps=400, inner_reps=20, seed=11)
    assert est.value == pytest.approx(c**2, abs=max(0.02, 4 * est.std_err))


def test_resolve_partition_forms():
    assert resolve_partition("jackknife", 5).k == 5
    assert resolve_partition(None, 4).k == 4
    assert resolve_partition(3, 9).k == 3
    assert resolve_partition(99, 6).k == 6  # k >= n collapses to jackknife
    with pytest.raises(InvalidTolerance):
        resolve_partition("bogus", 5)


def test_threaded_profile_bit_identical():
    kwargs = dict(eps_grid=[0.05, 0.5], reps=16, seed=12)
    a = oos_stability_profile(ridge(0.3), GAUSS, 24, 4, threads=1, **kwargs)
    b = oos_stability_profile(ridge(0.3), GAUSS, 24, 4, threads=8, **kwargs)
    np.testing.assert_array_equal(a.exceed_prob, b.exceed_prob)
    assert a.mean_abs.value == b.mean_abs.value


FIVE_KINDS = (
    GAUSS,
    DgpSpec("student_linear", {"beta": [0.5, -1.0], "sigma": 1.5, "dof": 3.0}),
    DgpSpec("classification_grid", {"p": 2, "class_count": 3}),
    DgpSpec("custom_table", {"table_y": [1.0, 2.0, 3.0], "table_x": [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]}),
    DgpSpec("dirac_first_coord", {"p": 3, "point": 1.5}),
)


@pytest.mark.parametrize("dgp", FIVE_KINDS, ids=lambda d: d.kind)
def test_train_and_test_point_come_from_one_draw(dgp):
    # the n + 1 rows drawn at once have the bits of the n-row sample and the
    # one-row draw after it; a size below 2 fails before the stream is read
    for n in (2, 7, 40):
        train, x = _draw_train_and_x(dgp, n, stream(13, n))
        rng = stream(13, n)
        want = dgp.sample(n, rng)
        _, want_x = dgp.draw(1, rng)
        assert train.y.tobytes() == want.y.tobytes() and train.x.tobytes() == want.x.tobytes()
        assert x.tobytes() == want_x[0].tobytes()
    for n in (1, 0, -1):
        rng = stream(13)
        with pytest.raises(TooFewRows):
            _draw_train_and_x(dgp, n, rng)
        assert rng.random() == stream(13).random()
