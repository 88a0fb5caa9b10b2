import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from cvuq.data import (
    DgpSpec,
    TrainingSet,
    json_array,
    json_flag,
    json_integer,
    json_number,
    load_dataset,
    row_products,
    sample_classification,
    sample_gaussian_linear,
    save_dataset,
    write_csv,
)
from cvuq.errors import DimensionMismatch, MalformedInput, TooFewRows
from cvuq.rng import stream
from oracles import ReadCountingDict


def test_csv_parse(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("y,x1\n1.0,2.0\n3.0,4.0\n")
    train = load_dataset(f, "csv")
    assert train.n == 2 and train.p == 1
    assert train.y.tolist() == [1.0, 3.0]
    assert train.x.tolist() == [[2.0], [4.0]]


def test_json_empty_is_too_few(tmp_path):
    f = tmp_path / "d.json"
    f.write_text("[]")
    with pytest.raises(TooFewRows):
        load_dataset(f, "json")


def test_csv_rejects_nan(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("y,x1\n1.0,NaN\n2.0,3.0\n")
    with pytest.raises(MalformedInput):
        load_dataset(f, "csv")


def test_csv_rejects_bad_header_and_ragged(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("y,z1\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(MalformedInput):
        load_dataset(f, "csv")
    f.write_text("y,x1,x2\n1.0,2.0,3.0\n3.0,4.0\n")
    with pytest.raises(MalformedInput):
        load_dataset(f, "csv")


def test_json_parse(tmp_path):
    f = tmp_path / "d.json"
    f.write_text('[{"y": 1.5, "x": [1, 2]}, {"y": -0.5, "x": [3, 4]}]')
    train = load_dataset(f, "json")
    assert train.n == 2 and train.p == 2
    assert train.y.tolist() == [1.5, -0.5]


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    train = TrainingSet(rng.normal(size=5), rng.normal(size=(5, 3)))
    f = tmp_path / "rt.csv"
    save_dataset(train, f, "csv")
    back = load_dataset(f, "csv")
    np.testing.assert_array_equal(train.y, back.y)
    np.testing.assert_array_equal(train.x, back.x)
    g = tmp_path / "rt.json"
    save_dataset(train, g, "json")
    back = load_dataset(g, "json")
    np.testing.assert_array_equal(train.y, back.y)
    np.testing.assert_array_equal(train.x, back.x)


def test_gaussian_linear_zero_signal_tiny_noise():
    train = sample_gaussian_linear(2, 1, [0.0], 1e-12, seed=1)
    assert np.all(np.abs(train.y) < 1e-9)


def test_gaussian_linear_mean_near_zero():
    train = sample_gaussian_linear(1000, 3, [1.0, 0.0, 0.0], 1.0, seed=2)
    assert abs(train.y.mean()) < 0.15


def test_gaussian_linear_deterministic():
    a = sample_gaussian_linear(50, 2, [1.0, -1.0], 0.5, seed=42)
    b = sample_gaussian_linear(50, 2, [1.0, -1.0], 0.5, seed=42)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.x, b.x)


def test_gaussian_linear_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        sample_gaussian_linear(10, 3, [1.0, 2.0], 1.0, seed=0)


def test_gaussian_linear_variance():
    beta = np.array([1.0, 2.0])
    sigma = 0.5
    train = sample_gaussian_linear(100_000, 2, beta, sigma, seed=7)
    target = sigma**2 + float(beta @ beta)
    assert np.var(train.y) == pytest.approx(target, rel=0.05)


def test_classification_codomain_and_determinism():
    train = sample_classification(10, 2, 2, seed=3)
    assert set(np.unique(train.y)) <= {1.0, 2.0}
    again = sample_classification(10, 2, 2, seed=3)
    np.testing.assert_array_equal(train.y, again.y)


def test_classification_all_classes_present():
    train = sample_classification(500, 1, 3, seed=4)
    assert set(np.unique(train.y)) == {1.0, 2.0, 3.0}


def test_classification_rule_deterministic_in_x():
    from scipy.special import ndtr

    train = sample_classification(200, 1, 4, seed=5)
    expect = 1.0 + np.floor(4 * ndtr(train.x[:, 0])) % 4
    np.testing.assert_array_equal(train.y, expect)


def test_prefix_nesting_across_sizes():
    dgp = DgpSpec("gaussian_linear", {"beta": [1.0, 0.0], "sigma": 1.0})
    big = dgp.sample(80, stream(9, 0))
    small = dgp.sample(30, stream(9, 0))
    np.testing.assert_array_equal(big.y[:30], small.y)
    np.testing.assert_array_equal(big.x[:30], small.x)


def test_student_linear_and_dirac_kinds():
    heavy = DgpSpec("student_linear", {"beta": [0.0], "sigma": 1.0, "dof": 2.0})
    train = heavy.sample(100, stream(11))
    assert train.n == 100 and np.all(np.isfinite(train.y))
    dirac = DgpSpec("dirac_first_coord", {"p": 3, "point": 17.0})
    train = dirac.sample(20, stream(12))
    assert np.all(train.x[:, 0] == 17.0)
    assert train.x.shape == (20, 3)


def test_custom_table_resamples_rows():
    table_y = [1.0, 2.0, 3.0]
    table_x = [[0.0], [1.0], [2.0]]
    dgp = DgpSpec("custom_table", {"table_y": table_y, "table_x": table_x})
    train = dgp.sample(200, stream(13))
    assert set(np.unique(train.y)) <= {1.0, 2.0, 3.0}
    # y and x stay paired
    for yv, xv in zip(train.y, train.x[:, 0]):
        assert xv == yv - 1.0


def test_dgp_spec_round_trip():
    dgp = DgpSpec("gaussian_linear", {"beta": np.array([1.0, 2.0]), "sigma": 0.5})
    back = DgpSpec.from_dict(dgp.to_dict())
    assert back.kind == "gaussian_linear"
    assert back.params["beta"] == [1.0, 2.0]


def test_training_set_immutable():
    train = sample_gaussian_linear(5, 1, [1.0], 1.0, seed=0)
    with pytest.raises(ValueError):
        train.y[0] = 3.0


class _FixedNormals:
    """Stands in for a Generator: hands out one fixed block of normals."""

    def __init__(self, block):
        self.block = np.asarray(block, dtype=float)

    def standard_normal(self, shape):
        assert shape == self.block.shape
        return self.block.copy()


@pytest.mark.parametrize("dof", [0.3, 1.0, 2.5, 30.0, 1e6])
def test_student_linear_draw_matches_scipy_t_ppf(dof):
    from scipy.special import ndtr
    from scipy.stats import t as student_t

    z = np.concatenate([[-40.0, -38.5, -8.0, 0.0, 8.0, 38.0, 40.0], np.random.default_rng(14).normal(size=500)])
    x = np.random.default_rng(15).normal(size=z.size)
    dgp = DgpSpec("student_linear", {"beta": [0.5], "sigma": 1.5, "dof": dof})
    y, _ = dgp.draw(z.size, _FixedNormals(np.column_stack([x, z])))
    expect = x * 0.5 + 1.5 * student_t.ppf(ndtr(z), dof)
    assert y[0] == -np.inf and y[6] == np.inf
    np.testing.assert_array_equal(y, expect)


# one spec of each DGP kind, the linear kinds at p = 2 and p = 50
CONTRACT_SPECS = {
    "gaussian_p2": {"kind": "gaussian_linear", "beta": [1.0, -0.5], "sigma": 1.0},
    "gaussian_p50": {"kind": "gaussian_linear", "beta": [50 ** -0.5] * 50, "sigma": 1.0},
    "student_p2": {"kind": "student_linear", "beta": [1.0, -0.5], "sigma": 1.0, "dof": 2.5},
    "student_p50": {"kind": "student_linear", "beta": [50 ** -0.5] * 50, "sigma": 2.0, "dof": 4.0},
    "classification_grid": {"kind": "classification_grid", "p": 3, "class_count": 4},
    "custom_table": {"kind": "custom_table", "table_y": [1.0, 2.0, 3.0],
                     "table_x": [[0.0, 1.0], [1.0, 0.5], [2.0, -1.0]]},
    "dirac_first_coord": {"kind": "dirac_first_coord", "p": 2, "point": 0.5},
}


def test_draw_chunks_concatenate_to_one_draw():
    # any chunk size, odd ones and one-row chunks and tails included, with the
    # BLAS thread count left as it is: each row's x'beta is its own product.
    # The sizes below 7 are checked on the smaller draws, to keep the test short
    failures = []
    for name, spec in CONTRACT_SPECS.items():
        dgp = DgpSpec.from_dict(spec)
        for m in (1, 2, 2621, 50001):
            y, x = dgp.draw(m, stream(31, m))
            for rows in (2620, 20, 7, 3, 1)[:3 if m > 2621 else 5]:
                chunks = list(dgp.draw_chunks(m, stream(31, m), rows))
                sizes = [len(c[0]) for c in chunks]
                if sizes != [rows] * (m // rows) + [m % rows] * (m % rows > 0):
                    failures.append([name, m, rows, "sizes", sizes[-3:]])
                if not (np.array_equal(np.concatenate([c[0] for c in chunks]), y)
                        and np.array_equal(np.concatenate([c[1] for c in chunks]), x)):
                    failures.append([name, m, rows, "values"])
    assert failures == []


def test_row_products_do_not_depend_on_blas_threads_at_any_p():
    # OpenBLAS splits one dot of more than 10,000 entries across threads, so
    # each product is summed over fixed segments; a row keeps its bits alone,
    # in a block, and at 1 and 2 BLAS threads, past p = 10,000 too
    script = textwrap.dedent("""
        import hashlib, json
        import numpy as np
        from cvuq.data import row_products

        rng = np.random.default_rng(23)
        out = []
        for p in (8192, 8193, 20000):
            x, beta = rng.normal(size=(12, p)), rng.normal(size=(3, 1, p))
            block = row_products(x, beta)
            assert block.tobytes() == np.stack([row_products(x, b[0]) for b in beta]).tobytes()
            assert block[:, 5].tobytes() == row_products(x[5:6], beta)[:, 0].tobytes()
            out.append(hashlib.sha256(block.tobytes()).hexdigest())
        print(json.dumps(out))
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


def test_row_products_take_one_vecdot_up_to_one_segment():
    rng = np.random.default_rng(24)
    for p in (1, 50, 8192):
        x, beta = rng.normal(size=(9, p)), rng.normal(size=p)
        assert row_products(x, beta).tobytes() == np.vecdot(x, beta).tobytes()


DGP_CASES = {
    "gaussian_linear": {"beta": [1.0, -0.5], "sigma": 2.0},
    "student_linear": {"beta": [0.5], "sigma": 1.5, "dof": 3.0},
    "classification_grid": {"p": 2, "class_count": 3},
    "custom_table": {"table_y": [1.0, 2.0, 3.0], "table_x": [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]},
    "dirac_first_coord": {"p": 3, "point": 1.5},
}


@pytest.mark.parametrize("kind", DGP_CASES)
def test_dgp_params_are_parsed_once(kind):
    # only the constructor reads params; p, draw, draw_chunks and sample use
    # what it parsed, and equality stays on (kind, params)
    counted = ReadCountingDict(DGP_CASES[kind])
    dgp = DgpSpec(kind, counted)
    counted.reads = 0
    y, x = dgp.draw(9, stream(3))
    chunks = list(dgp.draw_chunks(9, stream(3), 4))
    train = dgp.sample(5, stream(4))
    assert counted.reads == 0
    assert x.shape == (9, dgp.p) and train.p == dgp.p
    assert np.array_equal(np.concatenate([c[0] for c in chunks]), y)
    assert dgp == DgpSpec(kind, dict(DGP_CASES[kind]))


def test_dgp_parsed_arrays_are_read_only_copies():
    beta = np.array([1.0, 2.0])
    dgp = DgpSpec("gaussian_linear", {"beta": beta})
    y, _ = dgp.draw(6, stream(5))
    beta[:] = 0.0  # the caller's array stays its own and writable
    assert np.array_equal(dgp.draw(6, stream(5))[0], y)
    assert dgp.beta.tolist() == [1.0, 2.0] and dgp.sigma == 1.0 and dgp.dof is None
    with pytest.raises(ValueError):
        dgp.beta[0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        dgp.sigma = 3.0
    table = DgpSpec("custom_table", DGP_CASES["custom_table"])
    assert not (table.table_y.flags.writeable or table.table_x.flags.writeable)


BIG = 10**400  # an integer too large for a float


@pytest.mark.parametrize("value", [True, "1.5", None, [1.0], {}, math.inf, -math.inf, math.nan, BIG, -BIG])
def test_json_number_is_a_finite_real_but_not_a_bool(value):
    with pytest.raises(MalformedInput):
        json_number({"v": value}, "v", "test")


def test_json_number_integer_and_flag_rules():
    assert json_number({"v": 2}, "v", "test") == 2.0 and json_number({}, "v", "test", 0.5) == 0.5
    with pytest.raises(MalformedInput):
        json_number({}, "v", "test")  # no default: required
    assert json_integer({"v": 3.0}, "v", "test") == 3
    for value, least in ((2.5, 1), (0, 1), (1, 2), (True, 0)):
        with pytest.raises(MalformedInput):
            json_integer({"v": value}, "v", "test", least=least)
    assert json_flag({"v": False}, "v", "test") is False and json_flag({}, "v", "test", True) is True
    for value in (0, 1, "true", None):
        with pytest.raises(MalformedInput):
            json_flag({"v": value}, "v", "test")


def test_json_array_is_rectangular_reals_and_leaves_finiteness_to_the_caller():
    got = json_array({"v": [[1, 2.5], [BIG, -BIG]]}, "v", "test", 2)
    assert got.tolist() == [[1.0, 2.5], [math.inf, -math.inf]]
    assert json_array({"v": np.array([0.5, 1.0])}, "v", "test", 1).tolist() == [0.5, 1.0]
    assert json_array({"v": [[], []]}, "v", "test", 2).shape == (2, 0)
    for value, ndim in (([True], 1), (["1.0"], 1), ([None], 1), ([[1.0], [2.0, 3.0]], 2), ([1.0], 2),
                        ([[1.0]], 1), (1.0, 1), ({"a": 1}, 1), ("ab", 1)):
        with pytest.raises(MalformedInput):
            json_array({"v": value}, "v", "test", ndim)


def test_save_dataset_csv_is_write_csv_of_the_rows(tmp_path):
    train = TrainingSet(np.array([0.1, -2.0]), np.array([[1.0 / 3.0, 1e-300], [-0.0, 5.0]]))
    save_dataset(train, tmp_path / "a.csv", "csv")
    write_csv(tmp_path / "b.csv", ["y", "x1", "x2"], [(0.1, 1.0 / 3.0, 1e-300), (-2.0, -0.0, 5.0)])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_text() == "y,x1,x2\n0.1,0.3333333333333333,1e-300\n-2.0,-0.0,5.0\n"


@pytest.mark.parametrize(
    "kind, params",
    [
        ("gaussian_linear", {"beta": [1.0], "sigma": math.inf}),
        ("student_linear", {"beta": [1.0], "dof": math.inf}),
        ("dirac_first_coord", {"p": 1, "point": -math.inf}),
        ("gaussian_linear", {"beta": [1.0], "sigma": BIG}),
    ],
)
def test_infinite_dgp_numbers_are_malformed_at_parse(kind, params):
    # gaussian_linear is the infinite-dof DGP; no DGP number may be infinite
    with pytest.raises(MalformedInput):
        DgpSpec(kind, params)
