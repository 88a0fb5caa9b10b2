"""Training-set container, CSV/JSON ingestion, and synthetic DGPs.

File formats
------------
CSV with header ``y,x1,...,xp`` and one row per observation, numbers written
with full round-trip precision by :func:`write_csv`, the one CSV writer; or a
JSON array of ``{"y": number, "x": [number, ...]}`` objects.  Non-finite
values are rejected.

Every JSON input (dataset, DGP, predictor and step-cdf files) goes through
one reader: :func:`read_json`, :func:`json_object`, and one rule each for a
number (a real but not a bool, and finite: an integer too large for a float
is infinite), an integer, a flag and a rectangular array of numbers.

Sampling contract
-----------------
Every DGP draws exactly ``p + 1`` standard normals per row, in row order, and
transforms them deterministically, each row on its own: the linear kinds take
x'beta from :func:`row_products`.  Hence the first ``m`` rows drawn from a
stream equal an ``m``-row draw from a fresh stream with the same key, which
gives nested common random numbers across sample sizes, and successive draws
from one generator continue its stream: :meth:`DgpSpec.draw_chunks` yields
chunks of any size that concatenate to one ``draw`` of all their rows, bit
for bit, at any BLAS thread count.  A draw's x is a view of its (n, p + 1)
block of normals (for ``custom_table``, rows of the table), not a copy, so a
test set costs its size once; :class:`TrainingSet` keeps its own contiguous,
read-only copy.

``scipy`` is loaded only on the first ``student_linear``,
``classification_grid`` or ``custom_table`` draw, the kinds that need the
normal cdf or the Student-t quantile; ``import cvuq`` and the other kinds
load no scipy module.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MalformedInput, TooFewRows
from .rng import stream


@dataclass(frozen=True)
class TrainingSet:
    """Immutable i.i.d. sample of response-feature rows.

    Datasets enter the library with n >= 2 (enforced by loaders and
    samplers); leave-fold-out refits may construct single-row subsets.
    """

    y: np.ndarray  # shape (n,)
    x: np.ndarray  # shape (n, p)

    def __post_init__(self):
        y = np.ascontiguousarray(self.y, dtype=float)
        x = np.ascontiguousarray(self.x, dtype=float)
        if y.ndim != 1 or x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise DimensionMismatch("y must be (n,) and x must be (n, p)")
        if y.shape[0] < 1:
            raise TooFewRows("training set must not be empty")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise MalformedInput("non-finite value in training data")
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def subset(self, idx) -> "TrainingSet":
        return TrainingSet(self.y[idx], self.x[idx])

    def head(self, m: int) -> "TrainingSet":
        return TrainingSet(self.y[:m], self.x[:m])


def _parse_float(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise MalformedInput(f"{where}: not a number: {token!r}") from exc
    if not math.isfinite(value):
        raise MalformedInput(f"{where}: non-finite value {token!r}")
    return value


def _from_rows(rows: list[tuple[float, list[float]]]) -> TrainingSet:
    if len(rows) < 2:
        raise TooFewRows(f"need at least 2 rows, got {len(rows)}")
    p = len(rows[0][1])
    if any(len(x) != p for _, x in rows):
        raise MalformedInput("ragged rows: feature dimensions differ")
    return TrainingSet([y for y, _ in rows], np.array([x for _, x in rows], dtype=float).reshape(len(rows), p))


def load_dataset(path, format: str = "csv") -> TrainingSet:
    """Read a dataset file; ``format`` is ``"csv"`` or ``"json"``."""
    text = read_text(path, "dataset")
    if format == "csv":
        return _parse_csv(text)
    if format != "json":
        raise MalformedInput(f"unknown format {format!r}")
    data = read_json(text, "JSON dataset")
    if not isinstance(data, list):
        raise MalformedInput("JSON dataset must be an array of {y, x} objects")
    rows = []
    for i, obj in enumerate(data):
        obj = json_object(obj, f"element {i}")
        rows.append((json_number(obj, "y", f"element {i}"), json_array(obj, "x", f"element {i}", 1)))
    return _from_rows(rows)


def _parse_csv(text: str) -> TrainingSet:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise TooFewRows("empty file") from None
    header = [h.strip() for h in header]
    p = len(header) - 1
    if p < 0 or header[0] != "y" or header[1:] != [f"x{i}" for i in range(1, p + 1)]:
        raise MalformedInput(f"bad header {header!r}, expected y,x1,...,xp")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != p + 1:
            raise MalformedInput(f"line {lineno}: expected {p + 1} fields, got {len(row)}")
        values = [_parse_float(tok, f"line {lineno}") for tok in row]
        rows.append((values[0], values[1:]))
    return _from_rows(rows)


def save_dataset(train: TrainingSet, path, format: str = "csv") -> None:
    """Write a dataset with round-trip decimal precision."""
    path = Path(path)
    if format == "csv":
        write_csv(path, ["y", *(f"x{i}" for i in range(1, train.p + 1))], np.column_stack((train.y, train.x)))
    elif format == "json":
        path.write_text(json.dumps([{"y": y, "x": x} for y, x in zip(train.y.tolist(), train.x.tolist())]))
    else:
        raise MalformedInput(f"unknown format {format!r}")


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row: floats as ``repr(float(v))``, other cells as ``str(v)``."""
    lines = (",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row) for row in rows)
    Path(path).write_text("\n".join([",".join(header), *lines]) + "\n")


def read_text(path, what: str) -> str:
    """The text of the input file at ``path``, read as UTF-8; MalformedInput
    when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{what} is not UTF-8 text: {exc}") from exc


def read_json(text: str, what: str):
    """The value of the JSON ``text``; MalformedInput unless it parses."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or an integer of too many digits
        raise MalformedInput(f"{what}: invalid JSON: {exc}") from exc


def json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object, else MalformedInput."""
    if not isinstance(value, dict):
        raise MalformedInput(f"{what} must be a JSON object, got {value!r}")
    return value


def _entry(obj: dict, key: str, what: str, default):
    """``obj[key]``, or ``default`` where it is absent (None: required)."""
    if key not in obj and default is None:
        raise MalformedInput(f"{what} {key!r} is required")
    return obj.get(key, default)


def _real(value, what: str, key: str) -> float:
    """A real but not a bool, as a float (an integer too large for one is +-inf)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise MalformedInput(f"{what} {key!r} must hold numbers only, got {value!r}")


def json_number(obj: dict, key: str, what: str, default=None) -> float:
    """``obj[key]`` (:func:`_entry`): a real but not a bool, and finite."""
    number = _real(_entry(obj, key, what, default), what, key)
    if not math.isfinite(number):
        raise MalformedInput(f"{what} {key!r} must be a finite number, got {number!r}")
    return number


def json_integer(obj: dict, key: str, what: str, default=None, least=1) -> int:
    """A :func:`json_number` with no fraction, at least ``least``."""
    value = json_number(obj, key, what, default)
    if not (value.is_integer() and value >= least):
        raise MalformedInput(f"{what} {key!r} must be an integer >= {least}, got {value!r}")
    return int(value)


def json_flag(obj: dict, key: str, what: str, default=None) -> bool:
    """``obj[key]`` (:func:`_entry`): true or false."""
    value = _entry(obj, key, what, default)
    if not isinstance(value, bool):
        raise MalformedInput(f"{what} {key!r} must be true or false, got {value!r}")
    return value


def json_array(obj: dict, key: str, what: str, ndim: int) -> np.ndarray:
    """``obj[key]`` (required): nested arrays (or a NumPy array) of ``ndim`` equal-length
    axes, of reals but not bools, as floats; finiteness is the caller's check."""
    value = _entry(obj, key, what, None)
    items, shape = [value.tolist() if isinstance(value, np.ndarray) else value], []
    for _ in range(ndim):
        if not all(isinstance(v, (list, tuple)) for v in items) or len({len(v) for v in items}) > 1:
            raise MalformedInput(f"{what} {key!r} must be a rectangular array of {ndim} axes, got {value!r}")
        shape.append(len(items[0]) if items else 0)
        items = [v for row in items for v in row]
    return np.array([_real(v, what, key) for v in items], dtype=float).reshape(shape)


def _special():
    """``scipy.special``, imported on first use: the import takes longer than
    the rest of ``import cvuq`` and only three DGP kinds need it."""
    import scipy.special

    return scipy.special


def _student_t_quantile(q: np.ndarray, dof: float) -> np.ndarray:
    """Student-t quantile function; stdtrit maps q = 0 to +inf, not -inf."""
    t = _special().stdtrit(dof, q)
    t[q == 0.0] = -math.inf
    return t


def _finite_array(params: dict, name: str, ndim: int) -> np.ndarray:
    values = json_array(params, name, "dgp parameter", ndim)
    if not np.all(np.isfinite(values)):
        raise MalformedInput(f"dgp parameter {name!r} must be finite")
    values.setflags(write=False)
    return values


# row_products takes each dot product in segments of this many entries:
# OpenBLAS 0.3.31 splits a dot of more than 10,000 entries across threads.
ROW_SEGMENT = 8192


def row_products(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """x'beta for each row of the (m, p) x, each row its own dot product, so
    a row has the same bits alone or in any block, at any BLAS thread count:
    the dot is the sum, left to right, of one ``np.vecdot`` per segment of
    ``ROW_SEGMENT`` entries (one segment up to p = 8,192).  ``beta``
    broadcasts against the rows as a vector argument of ``np.vecdot``: a (p,)
    vector gives (m,) products, an (m, p) array one vector per row, and
    (k, 1, p) a (k, m) block.  Rows of x or beta whose entries are not
    adjacent in memory are copied first: a strided dot rounds differently."""
    x, beta = unit_stride_rows(x), np.ascontiguousarray(beta, dtype=float)
    out = np.vecdot(x[..., :ROW_SEGMENT], beta[..., :ROW_SEGMENT])
    for at in range(ROW_SEGMENT, x.shape[-1], ROW_SEGMENT):
        out += np.vecdot(x[..., at:at + ROW_SEGMENT], beta[..., at:at + ROW_SEGMENT])
    return out


def unit_stride_rows(x) -> np.ndarray:
    """The float array ``x``, copied to C order unless its rows already have
    unit stride (a strided view of whole rows is kept as it is)."""
    x = np.asarray(x, dtype=float)
    return x if x.strides[-1] == x.itemsize else np.ascontiguousarray(x)


DGP_KINDS = ("gaussian_linear", "student_linear", "classification_grid", "custom_table", "dirac_first_coord")


@dataclass(frozen=True)
class DgpSpec:
    """Synthetic data-generating process.

    kinds and params:
      gaussian_linear:    beta (len p), sigma > 0 (default 1); y = beta'x + sigma*z
      student_linear:     beta, sigma > 0, dof > 0; heavy-tailed t noise
      classification_grid: p (default 1), class_count K >= 2; y = 1 + (floor(K*Phi(x1)) mod K)
      custom_table:       table_y, table_x; rows resampled uniformly
      dirac_first_coord:  p, point; x1 pinned to `point`, y standard normal

    The constructor alone reads ``params``: it parses ``p`` and each param
    above once into a read-only attribute (None where the kind has none), for
    :meth:`draw`.  Equality and :meth:`to_dict` use ``params``.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DGP_KINDS:
            raise MalformedInput(f"unknown dgp kind {self.kind!r}")
        params = self.params
        beta = sigma = dof = class_count = point = table_y = table_x = None
        if self.kind in ("gaussian_linear", "student_linear"):
            beta = _finite_array(params, "beta", 1)
            sigma = json_number(params, "sigma", "dgp parameter", 1.0)
            if not sigma > 0:
                raise MalformedInput("sigma must be positive")
            if self.kind == "student_linear":
                dof = json_number(params, "dof", "dgp parameter")
                if not dof > 0:
                    raise MalformedInput("dof must be positive")
            p = beta.size
        elif self.kind == "custom_table":
            table_y, table_x = _finite_array(params, "table_y", 1), _finite_array(params, "table_x", 2)
            if table_y.size == 0 or table_x.shape[0] != table_y.size:
                raise MalformedInput("table_y must be a nonempty vector and table_x a matrix with one row per entry")
            p = table_x.shape[1]
        else:
            p = json_integer(params, "p", "dgp parameter", 1)
            if self.kind == "classification_grid":
                class_count = json_integer(params, "class_count", "dgp parameter", least=2)
            if self.kind == "dirac_first_coord":
                point = json_number(params, "point", "dgp parameter")
        vars(self).update(p=p, beta=beta, sigma=sigma, dof=dof, class_count=class_count, point=point,
                          table_y=table_y, table_x=table_x)  # frozen: set past __setattr__

    def draw(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw n rows (y, x); consumes (p + 1) normals per row in row order.
        Except for ``custom_table``, x is a view of the (n, p + 1) block."""
        block = rng.standard_normal((n, self.p + 1))
        x, z = block[:, :self.p], block[:, self.p]  # strided views: the draw costs one block, not two
        if self.kind == "gaussian_linear":
            y = row_products(x, self.beta) + self.sigma * z
        elif self.kind == "student_linear":
            y = row_products(x, self.beta) + self.sigma * _student_t_quantile(_special().ndtr(z), self.dof)
        elif self.kind == "classification_grid":
            y = 1.0 + np.floor(self.class_count * _special().ndtr(x[:, 0])) % self.class_count
        elif self.kind == "custom_table":
            idx = np.minimum((_special().ndtr(z) * self.table_y.size).astype(int), self.table_y.size - 1)
            y, x = self.table_y[idx], self.table_x[idx]
        else:  # dirac_first_coord
            x[:, 0] = self.point
            y = z.copy()
        return y, x

    def draw_chunks(self, m: int, rng: np.random.Generator, rows: int):
        """Draw m rows as successive draws of ``rows`` rows, the last one
        shorter: chunks that concatenate to ``draw(m, rng)`` of a fresh ``rng``."""
        for start in range(0, m, rows):
            yield self.draw(min(rows, m - start), rng)

    def sample(self, n: int, rng: np.random.Generator) -> TrainingSet:
        if n < 2:
            raise TooFewRows("a sampled training set needs n >= 2")
        return TrainingSet(*self.draw(n, rng))

    def to_dict(self) -> dict:
        params = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in self.params.items()}
        return {"kind": self.kind, **params}

    @classmethod
    def from_dict(cls, obj: dict) -> "DgpSpec":
        obj = dict(obj)
        return cls(obj.pop("kind", None), obj)

    @classmethod
    def from_json(cls, text: str) -> "DgpSpec":
        return cls.from_dict(json_object(read_json(text, "dgp file"), "dgp file"))


def sample_gaussian_linear(n: int, p: int, beta, sigma: float, seed: int) -> TrainingSet:
    """i.i.d. rows with x ~ N(0, I_p) and y = beta'x + N(0, sigma^2)."""
    if np.shape(beta) != (p,):
        raise DimensionMismatch(f"beta has length {np.size(beta)}, expected {p}")
    return DgpSpec("gaussian_linear", {"beta": beta, "sigma": float(sigma)}).sample(n, stream(seed))


def sample_classification(n: int, p: int, class_count: int, seed: int) -> TrainingSet:
    """x ~ N(0, I_p); class y = 1 + (floor(K * Phi(x1)) mod K), K = class_count."""
    dgp = DgpSpec("classification_grid", {"p": int(p), "class_count": int(class_count)})
    return dgp.sample(n, stream(seed))
