import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvuq.ecdf import (
    LEVEL_GUARD,
    SortedAtoms,
    StepCdf,
    eval_cdf,
    fold_ecdf,
    left_limit,
    quantile,
    quantiles,
    uniform_ecdf,
    weighted_ecdf,
)
from cvuq.errors import EmptyFold, WeightSumError
from oracles import ceil_guarded, eval_many, merged_ecdf


def test_weighted_ecdf_merges_duplicates():
    F = weighted_ecdf([0.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
    assert F.jumps.tolist() == [0.0, 1.0]
    assert F.cum[0] == pytest.approx(2 / 3, abs=1e-15)
    assert F.cum[1] == 1.0


def test_weighted_ecdf_dirac():
    F = weighted_ecdf([5.0], [1.0])
    assert F.jumps.tolist() == [5.0]
    assert F.cum.tolist() == [1.0]
    assert eval_cdf(F, 5.0) == 1.0
    assert left_limit(F, 5.0) == 0.0


def test_right_continuity():
    F = uniform_ecdf([1.0, 2.0, 3.0])
    assert eval_cdf(F, 2.0) == pytest.approx(2 / 3, abs=1e-15)
    assert eval_cdf(F, 1.999) == pytest.approx(1 / 3, abs=1e-15)
    assert left_limit(F, 2.0) == pytest.approx(1 / 3, abs=1e-15)
    assert eval_cdf(F, 1e300) == 1.0


def test_eval_cdf_and_left_limit_take_arrays():
    F = weighted_ecdf([-1.0, 0.5, 2.0, 7.0], [0.1, 0.2, 0.3, 0.4])
    t = np.concatenate((F.jumps, np.nextafter(F.jumps, -np.inf), [-math.inf, math.inf, -1e300, 1e300, 3.0]))
    np.testing.assert_array_equal(eval_cdf(F, t), eval_many(F, t))
    np.testing.assert_array_equal(left_limit(F, t), eval_many(F, np.nextafter(t, -np.inf)))
    for ti, right, left in zip(t, eval_cdf(F, t), left_limit(F, t)):
        assert type(eval_cdf(F, float(ti))) is float and eval_cdf(F, float(ti)) == right
        assert type(left_limit(F, float(ti))) is float and left_limit(F, float(ti)) == left
    for bad in (math.nan, np.array([0.0, math.nan])):
        with pytest.raises(ValueError):
            eval_cdf(F, bad)
        with pytest.raises(ValueError):
            left_limit(F, bad)


def test_uniform_ecdf_rejects_what_weighted_ecdf_rejects():
    for bad in ([], [[0.0, 1.0], [2.0, 3.0]], 1.0, [0.0, np.nan], [np.inf, 1.0]):
        for build in (uniform_ecdf, lambda v: weighted_ecdf(v, np.ones(np.size(v)), np.size(v))):
            with pytest.raises(WeightSumError):
                build(bad)


def test_weighted_ecdf_rejects_bad_weights():
    with pytest.raises(WeightSumError):
        weighted_ecdf([0.0, 1.0], [0.5, 0.6])
    with pytest.raises(WeightSumError):
        weighted_ecdf([0.0, 1.0], [1.2, -0.2])
    with pytest.raises(WeightSumError):
        weighted_ecdf([], [])
    with pytest.raises(WeightSumError):
        weighted_ecdf([0.0, np.nan], [0.5, 0.5])
    with pytest.raises(WeightSumError):
        weighted_ecdf([0.0, 1.0], [np.nan, np.nan])
    with pytest.raises(WeightSumError):
        weighted_ecdf([0.0, 1.0], [0.5, np.nan])
    for cum in ([0.5, np.nan], [np.nan, 1.0]):
        with pytest.raises(WeightSumError):
            StepCdf(np.array([0.0, 1.0]), np.array(cum))


def test_fold_ecdf_equal_sizes_matches_uniform():
    values = np.array([3.0, -1.0, 2.0, 0.5])
    F = fold_ecdf([values[:2], values[2:]])
    G = uniform_ecdf(values)
    np.testing.assert_array_equal(F.jumps, G.jumps)
    np.testing.assert_allclose(F.cum, G.cum, atol=1e-15)


def test_fold_ecdf_unequal_weights():
    # folds {0,1} and {2} with values (0, 0, 1): weights 1/4, 1/4, 1/2
    F = fold_ecdf([[0.0, 0.0], [1.0]])
    assert eval_cdf(F, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert eval_cdf(F, 1.0) == 1.0


def test_fold_ecdf_singletons_is_uniform():
    values = [4.0, -2.0, 7.0]
    F = fold_ecdf([[v] for v in values])
    G = uniform_ecdf(values)
    np.testing.assert_array_equal(F.jumps, G.jumps)
    np.testing.assert_allclose(F.cum, G.cum, atol=1e-15)


def test_fold_ecdf_rejects_empty_fold():
    with pytest.raises(EmptyFold):
        fold_ecdf([[1.0, 2.0], []])
    with pytest.raises(EmptyFold):
        fold_ecdf([[1.0, 2.0]])


def test_quantile_extended_range():
    F = uniform_ecdf([-4.0, -2.0, 2.0])
    assert quantile(F, 0.0) == -math.inf
    assert quantile(F, -0.3) == -math.inf
    assert quantile(F, 1.1) == math.inf
    # ceil(2/3 * 3) = 2 -> second order statistic
    assert quantile(F, 2 / 3) == -2.0
    assert quantile(F, 1.0) == 2.0
    assert quantile(F, 1e-9) == -4.0


def test_quantiles_vectorized_matches_scalar():
    F = uniform_ecdf([0.0, 1.0, 5.0, 9.0])
    alphas = np.linspace(-0.2, 1.2, 29)
    vec = quantiles(F, alphas)
    for a, q in zip(alphas, vec):
        assert quantile(F, float(a)) == q


def test_quantile_guard_at_machine_levels():
    # 0.9 * 10 = 9.000000000000002 in floats; the guard keeps the 9th atom.
    F = uniform_ecdf(np.arange(10.0))
    assert quantile(F, 0.9) == 8.0  # 9th of 0..9
    assert ceil_guarded(0.9 * 10) == 9
    assert ceil_guarded(2.001) == 3
    assert ceil_guarded(2.0) == 2


def test_json_round_trip():
    F = weighted_ecdf([0.5, -1.0, 3.0], [0.2, 0.3, 0.5])
    G = StepCdf.from_json(F.to_json())
    np.testing.assert_array_equal(F.jumps, G.jumps)
    np.testing.assert_array_equal(F.cum, G.cum)
    payload = json.loads(F.to_json())
    assert set(payload) == {"jumps", "cum"}


def test_stepcdf_is_immutable():
    F = uniform_ecdf([1.0, 2.0])
    with pytest.raises(ValueError):
        F.jumps[0] = 7.0


@st.composite
def step_cdfs(draw):
    m = draw(st.integers(min_value=1, max_value=12))
    values = draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=m, max_size=m))
    weights = np.asarray(raw) / np.sum(raw)
    return weighted_ecdf(values, weights)


@settings(max_examples=200, deadline=None)
@given(step_cdfs(), st.floats(min_value=1e-6, max_value=1.0))
def test_quantile_sandwich_property(F, alpha):
    q = quantile(F, alpha)
    assert math.isfinite(q)
    assert left_limit(F, q) <= alpha + 1e-9
    assert eval_cdf(F, q) >= alpha - 1e-9


@settings(max_examples=100, deadline=None)
@given(step_cdfs(), st.floats(min_value=-0.5, max_value=1.5), st.floats(min_value=-0.5, max_value=1.5))
def test_quantile_monotone_in_alpha(F, a, b):
    lo, hi = min(a, b), max(a, b)
    assert quantile(F, lo) <= quantile(F, hi)


def test_weighted_ecdf_is_sorted_atoms_at_run_ends():
    # one sort-and-merge rule: a step cdf is the sorted atoms at the last atom
    # of each run of equal values; distinct atoms give the merged cdf bit for
    # bit, ties only reorder the additions inside a run
    rng = np.random.default_rng(9)
    for values in (rng.normal(size=40), rng.integers(0, 6, size=40).astype(float), np.zeros(5)):
        weights = rng.uniform(0.5, 1.5, size=values.size)
        weights /= weights.sum()
        F = weighted_ecdf(values, weights)
        atoms = SortedAtoms(values, weights)
        ends = atoms.run_ends()
        assert F.jumps.tobytes() == atoms.jumps[ends].tobytes()
        assert F.cum.tobytes() == atoms.cum[ends].tobytes()
        merged = merged_ecdf(values, weights)
        assert np.array_equal(F.jumps, merged.jumps)
        if np.unique(values).size == values.size:
            assert F.cum.tobytes() == merged.cum.tobytes()
        else:
            np.testing.assert_allclose(F.cum, merged.cum, rtol=0, atol=LEVEL_GUARD)
