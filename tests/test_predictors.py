import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvuq import predictors
from cvuq.data import DgpSpec, TrainingSet, row_products
from cvuq.errors import DegenerateFit, DimensionMismatch, EmptyFold, FoldLeavesNothing, MalformedInput, WeightSumError
from cvuq.predictors import (
    FoldFits,
    FoldPartition,
    PredictorSpec,
    constant,
    dirac_threshold,
    fit_predict,
    knn_mean,
    max_response,
    neg_max_response,
    ridge,
    ridge_coefficients,
)
from cvuq.rng import stream
from cvuq.stability import resolve_partition
from oracles import ReadCountingDict, lstsq_refit_leave_fold_out, refit_leave_fold_out, unequal_folds


def toy_train(y, x=None):
    y = np.asarray(y, dtype=float)
    if x is None:
        x = np.zeros((y.size, 1))
    return TrainingSet(y, np.asarray(x, dtype=float))


def test_max_response_ignores_x():
    train = toy_train([1.0, 5.0, 3.0], [[0.0], [1.0], [2.0]])
    for xnew in ([0.0], [100.0]):
        assert fit_predict(max_response(), train, xnew) == 5.0
        assert fit_predict(neg_max_response(), train, xnew) == -5.0


def test_constant_predictor():
    train = toy_train([1.0, 2.0])
    assert fit_predict(constant(0.0), train, [9.0]) == 0.0


def test_ridge_scalar_closed_form():
    train = toy_train([1.0, 1.0], [[1.0], [1.0]])
    beta = ridge_coefficients(train, 1.0)
    assert beta[0] == pytest.approx(0.5, abs=1e-14)
    assert fit_predict(ridge(1.0), train, [1.0]) == pytest.approx(0.5, abs=1e-14)


def test_ridge_zero_response():
    train = toy_train([0.0, 0.0, 0.0], [[1.0], [2.0], [3.0]])
    assert np.all(ridge_coefficients(train, 0.5) == 0.0)


def test_ridge_shrinkage_limit():
    rng = np.random.default_rng(0)
    train = TrainingSet(rng.normal(size=20), rng.normal(size=(20, 3)))
    lam = 1e12
    beta = ridge_coefficients(train, lam)
    order = np.linalg.norm(train.x.T @ train.y) / (lam * train.n)
    assert np.linalg.norm(beta) <= (1 + 1e-6) * order


def test_ridge_degenerate_gram():
    train = toy_train([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(DegenerateFit):
        ridge_coefficients(train, 0.0)


def test_ridge_fold_fits_take_one_svd(monkeypatch):
    # the full fit reuses the fold path's SVD of X: ridge_coefficients'
    # result bit for bit, and a degenerate full-data X'X still raises
    calls = []
    order = predictors._canonical_order
    monkeypatch.setattr(predictors, "_canonical_order", lambda train: calls.append(1) or order(train))
    dgp = DgpSpec("gaussian_linear", {"beta": [1.0, 0.5, -1.0], "sigma": 1.0})
    for n, rule, lam in ((30, "jackknife", 0.5), (31, 4, 1e-8), (12, 2, 1.0)):
        train = dgp.sample(n, stream(31, n))
        calls.clear()
        fits = FoldFits(ridge(lam), train, resolve_partition(rule, n))
        assert len(calls) == 1
        assert np.array_equal(fits.full_model.theta, ridge_coefficients(train, lam))
    with pytest.raises(DegenerateFit):
        FoldFits(ridge(0.0), toy_train([1.0, 2.0, 3.0], [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
                 FoldPartition.singletons(3))


def test_partition_atom_weights():
    # an atom of fold j weighs the integer L/|K_j| out of W = kL, L the lcm of
    # the fold sizes; that rational rounded once has the bits of 1/(k |K_j|),
    # for a callable partition and contiguous ones
    for rule, n in [(unequal_folds, 10), *((k, n) for k in (2, 3, 7) for n in (k, 10, 23, 200, 1001))]:
        part = resolve_partition(rule, n)
        want = np.empty(n)
        for f in part.folds:
            want[f] = 1.0 / (part.k * f.size)
        assert (part.atom_units / part.unit_total).tobytes() == want.tobytes(), (rule, n)
        assert not part.atom_units.flags.writeable
        sizes = np.array([f.size for f in part.folds])
        assert part.unit_total == part.k * math.lcm(*sizes.tolist())
        assert np.all(part.atom_units * part.k * sizes[part.fold_of] == part.unit_total)


def test_partition_without_exact_integer_weights_is_rejected():
    # folds of sizes 1..37: W = 37 lcm(1..37) exceeds 2^53, past which
    # float64 does not hold every sum of atom units
    bounds = np.cumsum(range(38))
    assert 37 * math.lcm(*range(1, 38)) > 2**53
    with pytest.raises(WeightSumError):
        FoldPartition(tuple(np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])), int(bounds[-1]))
    bounds = np.cumsum(range(31))  # sizes 1..30: W = 30 lcm(1..30) < 2^53
    assert FoldPartition(tuple(np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])), int(bounds[-1])).unit_total < 2**53


def test_knn_mean_lowest_index_ties():
    # two rows at distance 0 from xnew; canonical order breaks the tie
    train = toy_train([4.0, 2.0, 10.0], [[0.0], [0.0], [5.0]])
    assert fit_predict(knn_mean(1), train, [0.0]) == 2.0  # canonical sort puts y=2 first
    assert fit_predict(knn_mean(2), train, [0.0]) == 3.0


def test_dirac_threshold_train_size_rule():
    train_n = toy_train(np.zeros(10), np.column_stack([np.full(10, 10.0), np.zeros(10)]))
    # x1 = 10 >= n = 10 -> 0
    assert fit_predict(dirac_threshold(3.0), train_n, [10.0, 0.0]) == 0.0
    # with 11 rows, x1 = 10 < 11 -> level
    train_n1 = toy_train(np.zeros(11), np.column_stack([np.full(11, 10.0), np.zeros(11)]))
    assert fit_predict(dirac_threshold(3.0), train_n1, [10.0, 0.0]) == 3.0


def test_permutation_invariance_exact():
    rng = np.random.default_rng(12)
    train = TrainingSet(rng.normal(size=30), rng.normal(size=(30, 2)))
    xnew = rng.normal(size=2)
    specs = [
        ridge(0.7),
        knn_mean(5),
        max_response(),
        neg_max_response(),
        dirac_threshold(2.0),
        constant(1.5),
    ]
    for spec in specs:
        base = fit_predict(spec, train, xnew)
        for _ in range(5):
            perm = rng.permutation(train.n)
            shuffled = TrainingSet(train.y[perm], train.x[perm])
            assert fit_predict(spec, shuffled, xnew) == base


def test_permutation_invariance_with_tied_responses():
    # responses on a lattice, so rows tie in y and the features break the ties
    rng = np.random.default_rng(13)
    train = TrainingSet(rng.integers(0, 3, size=30).astype(float), rng.normal(size=(30, 2)))
    xnew = rng.normal(size=2)
    for spec in (ridge(0.7), knn_mean(5)):
        base = fit_predict(spec, train, xnew)
        for _ in range(5):
            perm = rng.permutation(train.n)
            assert fit_predict(spec, TrainingSet(train.y[perm], train.x[perm]), xnew) == base


TIED_DGPS = {
    "classification_grid": DgpSpec("classification_grid", {"p": 2, "class_count": 3}),
    # rows resampled from an 8-row table: responses and whole rows repeat
    "custom_table": DgpSpec("custom_table", {"table_y": [0.0, 1.0, 1.0, 2.0, -0.0, 3.0, 1.0, 2.5],
                                             "table_x": np.random.default_rng(15).normal(size=(8, 2)).tolist()}),
}


@pytest.mark.parametrize("kind", sorted(TIED_DGPS))
def test_permutation_invariance_on_tied_response_dgps(kind):
    dgp = TIED_DGPS[kind]
    train = dgp.sample(40, stream(16, 0))
    _, xs = dgp.draw(3, stream(16, 1))
    rng = np.random.default_rng(17)
    for spec in (ridge(0.7), knn_mean(5)):
        base = [fit_predict(spec, train, x) for x in xs]
        for _ in range(5):
            perm = rng.permutation(train.n)
            shuffled = TrainingSet(train.y[perm], train.x[perm])
            assert [fit_predict(spec, shuffled, x) for x in xs] == base, (kind, spec)


def test_canonical_order_is_the_lexsort_of_y_then_x():
    # one argsort key when the responses are distinct, the lexsort of all
    # p + 1 keys when any tie (0.0 and -0.0 included): the same permutation
    rng = np.random.default_rng(18)
    x = rng.normal(size=(40, 3))
    near = 1.0 + rng.permutation(40) * np.spacing(1.0)  # neighbours one ulp apart
    signed_zeros = np.where(rng.random(40) < 0.5, 0.0, -0.0)
    for y in (rng.normal(size=40), near, np.round(rng.normal(size=40)), signed_zeros):
        train = TrainingSet(y, x)
        lexsort = np.lexsort(tuple(x[:, j] for j in range(2, -1, -1)) + (y,))
        assert np.array_equal(predictors._canonical_order(train), lexsort)


def test_ridge_fold_predictions_are_one_row_products_at_any_blas_thread_count():
    # every row of a block gets the bits of a one-row call (interval's),
    # fallback folds included, in C order, in Fortran order and as a view
    # whose rows are strided, and the same bits at 1 and 2 BLAS threads
    script = textwrap.dedent("""
        import hashlib, json, sys
        import numpy as np
        sys.path.insert(0, sys.argv[1])
        from test_predictors import _high_leverage_train
        from cvuq.data import DgpSpec
        from cvuq.predictors import FoldFits, FoldPartition, ridge
        from cvuq.rng import stream
        from cvuq.stability import resolve_partition

        digests = []
        cases = [(p, n, rule) for p, n in ((2, 60), (50, 200), (120, 100)) for rule in ("jackknife", 4, 7)]
        for p, n, rule in cases:
            dgp = DgpSpec("gaussian_linear", {"beta": [p ** -0.5] * p, "sigma": 1.0})
            fits = FoldFits(ridge(1e-8), dgp.sample(n, stream(19, p, n)), resolve_partition(rule, n))
            digests.append((fits, dgp.draw(700, stream(19, p, 1))[1]))
        lev = _high_leverage_train(1e7)
        for part in (FoldPartition.singletons(60), FoldPartition.contiguous(60, 4)):
            fits = FoldFits(ridge(1e-8), lev, part)
            assert fits.fallback_folds
            digests.append((fits, np.random.default_rng(20).normal(size=(300, 21))[:, :20]))
        out = []
        for fits, X in digests:
            P = fits.fold_predictions(X)
            one = np.stack([fits.fold_predictions(X[i].reshape(1, -1))[0] for i in range(len(X))])
            assert P.tobytes() == one.tobytes()
            for other in (np.asfortranarray(X), np.repeat(X, 2, axis=1)[:, ::2]):
                assert fits.fold_predictions(other).tobytes() == P.tobytes()
            out.append(hashlib.sha256(P.tobytes()).hexdigest())
        print(json.dumps(out))
    """)
    here = Path(__file__).resolve().parent
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script, str(here)], capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("p", [2, 50, 120])
@pytest.mark.parametrize("rule", ["jackknife", 7])
def test_ridge_leave_fold_out_products_follow_row_products(p, rule):
    # every x'c of a fold's coefficients is one dot product per row, the
    # rule of row_products: the leave-fold-out residuals are y less the
    # own-fold predictions, and each fold's predictions are row_products of
    # its coefficients, bit for bit
    n = 200
    dgp = DgpSpec("gaussian_linear", {"beta": [p ** -0.5] * p, "sigma": 1.0})
    train = dgp.sample(n, stream(23, p))
    fits = FoldFits(ridge(1e-8), train, resolve_partition(rule, n))
    fold_of = fits.partition.fold_of
    own = fits.fold_predictions(train.x)[np.arange(n), fold_of]
    assert fits.loo_residuals.tobytes() == (train.y - own).tobytes()
    assert own.tobytes() == row_products(train.x, fits.coef.T[fold_of]).tobytes()
    X = dgp.draw(300, stream(23, p, 1))[1]
    P = fits.fold_predictions(X)
    for j in range(fits.partition.k):
        assert P[:, j].tobytes() == row_products(X, fits.coef[:, j]).tobytes(), j


def test_dimension_mismatch():
    train = toy_train([1.0, 2.0], [[1.0], [2.0]])
    with pytest.raises(DimensionMismatch):
        fit_predict(constant(0.0), train, [1.0, 2.0])


def test_partition_validation():
    with pytest.raises(FoldLeavesNothing):
        FoldPartition((np.arange(4),), 4)
    with pytest.raises(EmptyFold):
        FoldPartition((np.array([0, 1]), np.array([])), 2)
    with pytest.raises(EmptyFold):
        FoldPartition((np.array([0]), np.array([0])), 2)
    part = FoldPartition.contiguous(7, 3)
    assert part.k == 3
    assert sorted(np.concatenate(part.folds).tolist()) == list(range(7))
    singles = FoldPartition.singletons(4)
    assert singles.k == 4
    assert singles.fold_of.tolist() == [0, 1, 2, 3]


def test_constant_bundle():
    train = toy_train([1.0, 5.0, 3.0])
    part = FoldPartition.singletons(3)
    fits = FoldFits(constant(2.0), train, part)
    np.testing.assert_array_equal(fits.loo_residuals, train.y - 2.0)
    np.testing.assert_array_equal(fits.fold_predictions(np.zeros((1, 1)))[0], np.full(3, 2.0))
    assert fits.full_model.predict_one([0.0]) == 2.0


def test_max_response_loo_residuals_by_hand():
    train = toy_train([1.0, 5.0, 3.0])
    part = FoldPartition.singletons(3)
    fits = FoldFits(max_response(), train, part)
    # leave-one-out maxima: without y1 -> 5, without y2 -> 3, without y3 -> 5
    np.testing.assert_array_equal(fits.loo_residuals, [1.0 - 5.0, 5.0 - 3.0, 3.0 - 5.0])
    assert fits.full_model.predict_one([0.0]) == 5.0


def test_loo_residual_definition_holds():
    rng = np.random.default_rng(5)
    train = TrainingSet(rng.normal(size=12), rng.normal(size=(12, 2)))
    part = FoldPartition.contiguous(12, 4)
    fits = FoldFits(ridge(0.5), train, part)
    keep_all = np.arange(12)
    for j, f in enumerate(part.folds):
        sub = train.subset(np.delete(keep_all, f))
        for i in f:
            pred = fit_predict(ridge(0.5), sub, train.x[i])
            assert fits.loo_residuals[i] == pytest.approx(train.y[i] - pred, abs=1e-10)


def test_ridge_fast_path_matches_naive():
    dgp = DgpSpec("gaussian_linear", {"beta": [1.0, 0.5, 0.0, -1.0, 0.2], "sigma": 1.0})
    train = dgp.sample(50, stream(21))
    part = FoldPartition.contiguous(50, 10)
    xnew = np.zeros(5)
    fast = FoldFits(ridge(0.3), train, part)
    resid, preds = refit_leave_fold_out(ridge(0.3), train, part, xnew.reshape(1, -1))
    scale = max(1.0, np.max(np.abs(resid)))
    assert np.max(np.abs(fast.loo_residuals - resid)) <= 1e-8 * scale
    assert np.max(np.abs(fast.fold_predictions(xnew.reshape(1, -1))[0] - preds[0])) <= 1e-8


def _assert_close(got, want, rtol=1e-8):
    assert np.max(np.abs(got - want)) <= rtol * max(1.0, np.max(np.abs(want)))


def test_fold_fits_match_refit_oracle():
    rng = np.random.default_rng(2024)
    specs = [ridge(0.5), ridge(1e-8), knn_mean(2), max_response(), neg_max_response(),
             dirac_threshold(2.0), constant(1.5)]
    for part in (FoldPartition.singletons(7), FoldPartition.contiguous(7, 3), FoldPartition.contiguous(12, 4)):
        n = part.n
        # first coordinate near n so the size-dependent dirac threshold bites
        x = np.column_stack([rng.integers(n - 4, n + 1, size=n), rng.normal(size=n)])
        y = rng.normal(size=n)
        top = y.max() + 1.0
        tie_across = y.copy()
        tie_across[[part.folds[0][0], part.folds[-1][0]]] = top
        datasets = [y, tie_across]
        if part.folds[0].size > 1:
            tie_within = y.copy()
            tie_within[part.folds[0][:2]] = top
            datasets.append(tie_within)
        X = np.column_stack([rng.integers(n - 4, n + 1, size=5), rng.normal(size=5)])
        for yy in datasets:
            train = TrainingSet(yy, x)
            for spec in specs:
                fits = FoldFits(spec, train, part)
                resid, preds = refit_leave_fold_out(spec, train, part, X)
                if spec.kind == "ridge":
                    _assert_close(fits.loo_residuals, resid)
                    _assert_close(fits.fold_predictions(X), preds)
                else:
                    np.testing.assert_array_equal(fits.loo_residuals, resid)
                    np.testing.assert_array_equal(fits.fold_predictions(X), preds)


def test_ridge_high_leverage_row_matches_refit_oracle():
    # One row scaled by 1e5 or 1e6 makes the downdate cancel catastrophically
    # for the fold holding it.  Fold predictions are compared at the training
    # rows; fresh rows are compared with the least-squares oracle in
    # LSTSQ_CASES, which, unlike this refit oracle, shares no code with the
    # library.
    for scale in (1e5, 1e6):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 20))
        y = x @ rng.normal(size=20) + rng.normal(size=60)
        x[7] *= scale
        train = TrainingSet(y, x)
        for part in (FoldPartition.singletons(60), FoldPartition.contiguous(60, 4)):
            fits = FoldFits(ridge(1e-8), train, part)
            resid, preds = refit_leave_fold_out(ridge(1e-8), train, part, train.x)
            _assert_close(fits.loo_residuals, resid)
            _assert_close(fits.fold_predictions(train.x), preds)


def _gaussian_train(n, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    return TrainingSet(x @ rng.normal(size=p) + rng.normal(size=n), x)


def _high_leverage_train(scale):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 20))
    y = x @ rng.normal(size=20) + rng.normal(size=60)
    x[7] *= scale
    return TrainingSet(y, x)


# (lambda, training set, partition, tolerance on residuals, on fresh-row
# predictions), relative to max(1, largest oracle magnitude).
LSTSQ_CASES = {
    "singletons": (0.5, _gaussian_train(30, 4, 1), FoldPartition.singletons(30), 1e-12, 1e-12),
    "k3-n10-unequal": (1e-8, _gaussian_train(10, 2, 2), FoldPartition.contiguous(10, 3), 1e-12, 1e-12),
    "k4-n40": (0.5, _gaussian_train(40, 5, 3), FoldPartition.contiguous(40, 4), 1e-12, 1e-12),
    "p>n-lambda0.1": (0.1, _gaussian_train(40, 80, 4), FoldPartition.contiguous(40, 4), 1e-12, 1e-12),
    # the shared fit nearly interpolates every row: I - Z_f Z_f' has smallest
    # eigenvalue ~3e-7, so it is formed as U_f diag(c h^2) U_f' (measured
    # errors 1.8e-13 on residuals and 2.3e-13 on predictions)
    "p>n-lambda1e-6": (1e-6, _gaussian_train(40, 80, 4), FoldPartition.contiguous(40, 4), 1e-10, 1e-10),
    # the same at n = 100, p = 120 (measured 1.9e-12 and 3.6e-12)
    "p>n-n100-p120-lambda1e-8": (1e-8, _gaussian_train(100, 120, 6), FoldPartition.singletons(100), 1e-10, 1e-10),
    # folds of 6 rows with p = 2: the p x p form of the update
    "k2-n12-p2": (0.3, _gaussian_train(12, 2, 5), FoldPartition.contiguous(12, 2), 1e-12, 1e-12),
    # the folds that keep the big row have X of condition ~1e5 (x1e5) and
    # ~1e7 (x1e7), so at fresh rows a solve through the SVD of X is good to
    # about that times the unit roundoff (measured 3.7e-12 and 1.5e-10;
    # residuals 1.6e-15 and 1.4e-15), where the normal equations square it
    "high-leverage-1e5": (1e-8, _high_leverage_train(1e5), FoldPartition.singletons(60), 1e-12, 1e-10),
    "high-leverage-1e7": (1e-8, _high_leverage_train(1e7), FoldPartition.singletons(60), 1e-12, 1e-8),
}


@pytest.mark.parametrize("case", LSTSQ_CASES)
def test_ridge_fold_fits_match_lstsq_oracle(case):
    lam, train, part, rtol_resid, rtol_pred = LSTSQ_CASES[case]
    X = np.random.default_rng(8).normal(size=(5, train.p))
    fits = FoldFits(ridge(lam), train, part)
    resid, preds = lstsq_refit_leave_fold_out(lam, train, part, X)
    _assert_close(fits.loo_residuals, resid, rtol_resid)
    _assert_close(fits.fold_predictions(X), preds, rtol_pred)


@st.composite
def _fold_fit_cases(draw):
    """A small problem on lattices, so that responses and features tie: n in
    [3, 30], p in [1, 40], a first feature on 0..n (where the size-dependent
    dirac thresholds bite), a jackknife, contiguous or unequal callable
    partition, and one spec of every kind."""
    n, p = draw(st.integers(3, 30)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-4, 5, size=(n + 4, p)) / 2
    x[:, 0] = rng.integers(0, n + 1, size=n + 4)
    y = rng.integers(-4, 5, size=n) / 2
    rule = draw(st.sampled_from(["jackknife", "contiguous", "unequal"]))
    k = draw(st.integers(2, n))
    if rule == "contiguous":
        rule = k
    elif rule == "unequal":
        cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
        folds = np.split(rng.permutation(n), cuts)
        rule = lambda size: FoldPartition(folds, size)
    partition = resolve_partition(rule, n)
    level, value = (float(v) for v in rng.integers(-4, 5, size=2) / 2)
    spec = draw(st.sampled_from([
        *(ridge(lam) for lam in (0.0, 1e-12, 1e-8, 1.0)), constant(value), max_response(), neg_max_response(),
        dirac_threshold(level),
        PredictorSpec("dirac_threshold", {"level": level, "threshold_uses_train_size": False,
                                          "threshold": float(rng.integers(0, n + 1))}),
        knn_mean(draw(st.integers(1, n))), lambda row, train: float(np.median(train.y) + row[0] / train.n),
    ]))
    return spec, TrainingSet(y, x[:n]), partition, x[n:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fold_fit_cases())
def test_fold_fits_of_every_kind_match_their_refits(case):
    # the leave-fold-out residuals are y less the own-fold predictions, bit for
    # bit; every kind but ridge equals its refits bit for bit, and ridge lies
    # within LSTSQ_CASES' widest tolerances of its refits, or raises
    # DegenerateFit exactly where they do.  The least-squares oracle is no
    # reference here: at p > n and lambda = 1e-12, [X; sqrt(c) I] has condition
    # number ~1e7, and lstsq missed an exact rational solution by 1.9e-10
    # where FoldFits (every fold refitted) was within 4e-15 of it
    spec, train, part, X = case
    try:
        resid, preds = refit_leave_fold_out(spec, train, part, X)
    except DegenerateFit:
        with pytest.raises(DegenerateFit):
            FoldFits(spec, train, part)
        return
    fits = FoldFits(spec, train, part)
    own = fits.fold_predictions(train.x)[np.arange(train.n), part.fold_of]
    assert fits.loo_residuals.tobytes() == (train.y - own).tobytes()
    if getattr(spec, "kind", None) == "ridge":
        _assert_close(fits.loo_residuals, resid, max(c[3] for c in LSTSQ_CASES.values()))
        _assert_close(fits.fold_predictions(X), preds, max(c[4] for c in LSTSQ_CASES.values()))
    else:
        assert fits.loo_residuals.tobytes() == resid.tobytes()
        assert fits.fold_predictions(X).tobytes() == preds.tobytes()


def test_ridge_fallback_folds_hold_the_high_leverage_row():
    train = _high_leverage_train(1e5)
    assert FoldFits(ridge(1e-8), train, FoldPartition.singletons(60)).fallback_folds == (7,)
    assert FoldFits(ridge(1e-8), train, FoldPartition.contiguous(60, 4)).fallback_folds == (0,)


@pytest.mark.parametrize("case", ["p>n-lambda1e-6", "p>n-n100-p120-lambda1e-8"])
def test_ridge_p_ge_n_folds_are_updated_not_refitted(case):
    # with p >= n, U is orthogonal and the capacitance matrix U_f diag(c h^2)
    # U_f' has no cancellation, so a tiny lambda no longer forces refits
    lam, train, part, _, _ = LSTSQ_CASES[case]
    assert FoldFits(ridge(lam), train, part).fallback_folds == ()


def test_ridge_fold_size_failing_pivot_check_is_refitted():
    # two equal unit columns: X'X has eigenvalues 2 and 0 (the SVD's rounding
    # level counts as 0), so X'X + shift*I has eigenvalue ratio
    # shift/(2 + shift), against PIVOT_RTOL^2 = 1e-24.  The full fit's shift
    # lambda*n = 3e-24 gives 1.5e-24, above it; the fold size's
    # lambda*(n - 5) = 1.5e-24 gives 0.75e-24, below it, so every fold is
    # refitted; each fold's own rows (|c_keep|^2 = a < 0.6) give
    # 1.5e-24/(2a + 1.5e-24) > 1.25e-24, above it again, so the refits succeed.
    rng = np.random.default_rng(3)
    c = rng.normal(size=10)
    c /= np.linalg.norm(c)
    train = TrainingSet(rng.normal(size=10), np.column_stack([c, c]))
    part = FoldPartition.contiguous(10, 2)
    spec = ridge(3e-24 / 10)
    fits = FoldFits(spec, train, part)
    assert fits.fallback_folds == (0, 1)
    resid, preds = refit_leave_fold_out(spec, train, part, train.x)
    _assert_close(fits.loo_residuals, resid, 1e-12)
    _assert_close(fits.fold_predictions(train.x), preds, 1e-12)


@pytest.mark.parametrize("k", [2, 10], ids=["p-by-p-form", "jackknife"])
def test_ridge_nearly_collinear_fold_raises_like_refit(k):
    # X = [c, c + eps*e], c and e unit, e nonzero only on fold 0's rows, so X
    # has d_max^2 ~ 2 and d_min^2 ~ eps^2 (1 - (c'e)^2)/2 ~ 1.7e-21 at
    # eps = 6e-11.  With c = lambda*(n - s) of 5e-25 (k = 2, the r x r form)
    # or 9e-25 (k = 10):
    # * the fold sizes' X'X + cI pass the spectral rule (ratio ~8.5e-22);
    # * fold 0's capacitance eigenvalue, ~c/(d_min^2 + c), is 2.8e-4 or
    #   5e-4 and passes WOODBURY_MIN_EIG;
    # * its bound eig*(d_min^2 + c)/(d_max^2 + c), 2.5e-25 or 4.1e-25, is
    #   below PIVOT_RTOL^2 = 1e-24, so the fold is refitted;
    # * without fold 0 the columns are equal, so the fold's own ratio
    #   c/(2|c_keep|^2 + c) ~ 4.9e-25 fails the rule and the refit raises.
    rng = np.random.default_rng(5)
    c = rng.normal(size=10)
    c /= np.linalg.norm(c)
    part = FoldPartition.contiguous(10, k)
    e = np.zeros(10)
    e[part.folds[0]] = 1.0
    e /= np.linalg.norm(e)
    train = TrainingSet(rng.normal(size=10), np.column_stack([c, c + 6e-11 * e]))
    spec = ridge(1e-25)
    with pytest.raises(DegenerateFit):
        refit_leave_fold_out(spec, train, part, train.x)
    with pytest.raises(DegenerateFit):
        FoldFits(spec, train, part)


@pytest.mark.parametrize("p", [2, 50])
def test_ridge_no_fallback_on_gaussian_draws(p):
    # the coverage benchmark's draws: n = 200, jackknife, lambda = 1e-8
    dgp = DgpSpec("gaussian_linear", {"beta": [1 / math.sqrt(p)] * p, "sigma": 1.0})
    for seed in range(3):
        for r in range(4):
            train = dgp.sample(200, stream(seed, r, 0))
            assert FoldFits(ridge(1e-8), train, FoldPartition.singletons(200)).fallback_folds == ()


def test_ridge_fold_fits_memory_is_linear_in_n():
    # two folds of 2,000 rows: an s x s capacitance matrix per fold would take
    # 64 MB; the p x p form keeps the peak at a few copies of X
    n, p = 4000, 3
    train = _gaussian_train(n, p, 9)
    part = FoldPartition.contiguous(n, 2)
    tracemalloc.start()
    try:
        fits = FoldFits(ridge(0.1), train, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fits.fallback_folds == ()
    assert peak < 50 * n * p * 8


def test_max_response_stability_fraction():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        train = TrainingSet(rng.normal(size=n), rng.normal(size=(n, 1)))
        fits = FoldFits(max_response(), train, FoldPartition.singletons(n))
        full = fits.full_model.predict_one(np.zeros(1))
        changed = np.count_nonzero(fits.fold_predictions(np.zeros((1, 1)))[0] != full)
        assert changed / n <= 1.0 / n + 1e-15


def test_dirac_threshold_counterexample_pattern():
    # x1 Dirac at n=10: fits on n-1 and n rows output 0, on n+m-1 (m>=2) rows output level
    n, level = 10, 3.0
    dgp = DgpSpec("dirac_first_coord", {"p": 1, "point": float(n)})
    spec = dirac_threshold(level)
    rng = stream(77)
    big = dgp.sample(n + 5, rng)
    xnew = np.array([float(n)])
    assert fit_predict(spec, big.head(n - 1), xnew) == 0.0
    assert fit_predict(spec, big.head(n), xnew) == 0.0
    for m in (2, 3, 5):
        assert fit_predict(spec, big.head(n + m - 1), xnew) == level


def test_fitted_values_from_full_fit():
    train = toy_train([1.0, 5.0, 3.0])
    part = FoldPartition.singletons(3)
    fits = FoldFits(max_response(), train, part)
    np.testing.assert_array_equal(fits.fitted_values(), np.full(3, 5.0))


def test_callable_predictor_accepted():
    train = toy_train([1.0, 2.0, 3.0])
    mean_fn = lambda x, t: float(np.mean(t.y))
    assert fit_predict(mean_fn, train, [0.0]) == 2.0
    part = FoldPartition.singletons(3)
    fits = FoldFits(mean_fn, train, part)
    assert fits.full_model.predict_one([0.0]) == 2.0
    np.testing.assert_allclose(fits.loo_residuals, [1 - 2.5, 2 - 2.0, 3 - 1.5])


def test_spec_json_round_trip():
    spec = ridge(0.25)
    back = PredictorSpec.from_json(spec.to_json())
    assert back == spec
    with pytest.raises(MalformedInput):
        PredictorSpec.from_json("[1, 2]")
    with pytest.raises(MalformedInput):
        PredictorSpec("nonsense")


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(dirac_threshold(2.0), id="train-size"),
        pytest.param(dirac_threshold(-1.5), id="negative-level"),
        pytest.param(PredictorSpec("dirac_threshold", {"level": 2.0, "threshold_uses_train_size": False,
                                                       "threshold": 8.0}), id="fixed-threshold"),
    ],
)
def test_dirac_threshold_folds_are_closed_form_and_match_refit_oracle(spec, monkeypatch):
    # unequal folds of 4, 4 and 3 rows: the refit thresholds are 7 and 8, and
    # x1 sits exactly on them (and the full fit's 11) at training and test rows
    n = 11
    part = FoldPartition.contiguous(n, 3)
    rng = np.random.default_rng(5)
    x = np.column_stack([rng.choice([6.0, 7.0, 8.0, 11.0, 12.0], size=n), rng.normal(size=n)])
    train = TrainingSet(rng.normal(size=n), x)
    X = np.column_stack([[6.0, 7.0, 7.5, 8.0, 11.0, 12.0], np.zeros(6)])
    calls = []
    fit = predictors.fit
    monkeypatch.setattr(predictors, "fit", lambda *a: calls.append(a) or fit(*a))
    fits = FoldFits(spec, train, part)
    monkeypatch.undo()
    assert len(calls) == 1  # the full-data fit only: no fold is refitted
    resid, preds = refit_leave_fold_out(spec, train, part, X)
    assert fits.loo_residuals.tobytes() == resid.tobytes()
    assert fits.fold_predictions(X).tobytes() == preds.tobytes()


def test_fold_predictions_transpose_is_c_contiguous():
    rng = np.random.default_rng(6)
    train = TrainingSet(rng.normal(size=9), rng.normal(size=(9, 2)))
    # a strided view, as a test draw's x is
    X = rng.normal(size=(5, 3))[:, :2]
    specs = [ridge(0.5), knn_mean(2), max_response(), neg_max_response(), dirac_threshold(1.0), constant(0.5),
             lambda x, t: float(t.y.mean() + x[0])]
    for spec in specs:
        for part in (FoldPartition.singletons(9), FoldPartition.contiguous(9, 4)):
            P = FoldFits(spec, train, part).fold_predictions(X)
            assert P.shape == (5, part.k) and P.T.flags.c_contiguous, spec


@pytest.mark.parametrize(
    "kind,params",
    [
        ("ridge", {"lambda": 0.5}),
        ("ridge", {}),
        ("knn_mean", {"neighbors": 2}),
        ("dirac_threshold", {"level": 2.0}),
        ("dirac_threshold", {"level": -1.0, "threshold_uses_train_size": False, "threshold": 0.2}),
        ("constant", {"value": 1.5}),
    ],
)
def test_predictor_params_are_parsed_once(kind, params):
    # only the constructor reads params; fit and FoldFits use what it parsed
    counted = ReadCountingDict(params)
    spec = PredictorSpec(kind, counted)
    counted.reads = 0
    rng = np.random.default_rng(8)
    train = TrainingSet(rng.normal(size=12), rng.normal(size=(12, 2)))
    X = rng.normal(size=(4, 2))
    part = FoldPartition.contiguous(12, 3)
    fits = FoldFits(spec, train, part)
    full = predictors.fit(spec, train).predict(X)
    assert counted.reads == 0
    resid, preds = refit_leave_fold_out(PredictorSpec(kind, dict(params)), train, part, X)
    np.testing.assert_allclose(fits.loo_residuals, resid, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fits.fold_predictions(X), preds, rtol=0, atol=1e-12)
    assert full.tobytes() == fits.full_model.predict(X).tobytes()
    assert spec == PredictorSpec(kind, dict(params))


def test_predictor_spec_keeps_parsed_values():
    assert ridge(0.25).lam == 0.25 and PredictorSpec("ridge").lam == 0.0
    assert knn_mean(3).neighbors == 3 and constant(-2.0).value == -2.0
    assert dirac_threshold(1.5).level == 1.5 and dirac_threshold(1.5).threshold is None
    fixed = PredictorSpec("dirac_threshold", {"level": 1.0, "threshold_uses_train_size": False})
    assert fixed.threshold == 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        fixed.level = 2.0


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_ridge_on_overflowing_features_raises(lam):
    # at features near 1e200, d_max^2 overflows to inf and the spectral rule
    # would compare inf with inf, then return beta = 0
    rng = np.random.default_rng(0)
    y, x = rng.normal(size=20), rng.normal(size=(20, 3))
    huge = TrainingSet(y, x * 1e200)
    with pytest.raises(DegenerateFit):
        ridge_coefficients(huge, lam)
    with pytest.raises(DegenerateFit):
        FoldFits(ridge(lam), huge, FoldPartition.singletons(20))
    # at 1e150, X'X is finite and beta scales back exactly as it should
    beta = ridge_coefficients(TrainingSet(y, x * 1e150), 0.0) * 1e150
    np.testing.assert_allclose(beta, ridge_coefficients(TrainingSet(y, x), 0.0), rtol=1e-12)


def test_ridge_without_features_raises_dimension_mismatch_on_every_path():
    # a direct ridge_coefficients call reaches the same SVD check as fit and FoldFits
    train = TrainingSet(np.array([0.5, 1.0, -0.2]), np.empty((3, 0)))
    with pytest.raises(DimensionMismatch):
        ridge_coefficients(train, 1.0)
    with pytest.raises(DimensionMismatch):
        predictors.fit(ridge(1.0), train)
    with pytest.raises(DimensionMismatch):
        FoldFits(ridge(1.0), train, FoldPartition.singletons(3))
