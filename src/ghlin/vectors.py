"""Points of the ambient space.

Two backends are supported: dense finite-dimensional vectors and sparse,
finitely supported sequences indexed over all of Z.  Sparse vectors never
store explicit zeros, so arithmetic on them is exact on the stored support.
All values are immutable; every operation returns a fresh vector.

A ``Batch`` holds many points of one backend as the rows of one float
array, which is how the conjugacy engine evaluates them: dense rows are the
coordinates, sparse rows are laid out over a sorted array of coordinate
indices (``cols``) and are zero off it.  Entrywise arithmetic on a batch
does, row by row, exactly what the vector arithmetic does, so a point gives
the same bits alone or in a batch.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "NormKind",
    "SUP_NORM",
    "SparseVector",
    "DenseVector",
    "StateVector",
    "norm",
    "zero_like",
    "Batch",
    "pack",
    "stack",
    "merge_rows",
    "zero_rows",
    "row_norms",
    "vector_from_json",
]


@dataclass(frozen=True)
class NormKind:
    """Ambient norm selector: an l^p norm (finite p >= 1) or the sup norm.

    ``p is None`` means the sup norm.  The ambient norm is fixed per problem;
    the default everywhere is the sup norm.
    """

    p: float | None = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if not math.isfinite(self.p) or self.p < 1:
                raise ValueError(f"l^p norm needs finite p >= 1, got p={self.p}")

    @property
    def is_sup(self) -> bool:
        return self.p is None

    @staticmethod
    def sup() -> "NormKind":
        return NormKind(None)

    @staticmethod
    def lp(p: float) -> "NormKind":
        return NormKind(float(p))

    @staticmethod
    def from_descriptor(obj: dict) -> "NormKind":
        if obj.get("kind") == "sup":
            return NormKind.sup()
        if obj.get("kind") == "lp":
            return NormKind(_number(obj, "p"))
        raise ValueError(f"unknown norm descriptor {obj!r}")


SUP_NORM = NormKind.sup()


class SparseVector:
    """Finitely supported sequence over Z; stored entries are all nonzero."""

    __slots__ = ("_coords",)

    def __init__(self, coords: Mapping[int, float] | Iterable[tuple[int, float]] = ()):
        items = coords.items() if isinstance(coords, Mapping) else coords
        self._coords = {int(i): float(v) for i, v in items if v != 0.0}

    def items(self) -> Iterator[tuple[int, float]]:
        return iter(self._coords.items())

    def support(self) -> list[int]:
        return sorted(self._coords)

    def to_dict(self) -> dict[int, float]:
        return dict(self._coords)

    def __getitem__(self, index: int) -> float:
        return self._coords.get(index, 0.0)

    def __len__(self) -> int:
        return len(self._coords)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SparseVector) and self._coords == other._coords

    def __repr__(self) -> str:
        inside = ", ".join(f"{i}: {v}" for i, v in sorted(self._coords.items()))
        return f"SparseVector({{{inside}}})"

    def __add__(self, other: "SparseVector") -> "SparseVector":
        if not isinstance(other, SparseVector):
            return NotImplemented
        return _sparse_raw(_add_coords(self._coords, other._coords, 1.0))

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        if not isinstance(other, SparseVector):
            return NotImplemented
        return _sparse_raw(_add_coords(self._coords, other._coords, -1.0))

    def __mul__(self, a: float) -> "SparseVector":
        if a == 0.0:
            return _sparse_raw({})
        return _sparse_raw({i: a * v for i, v in self._coords.items() if a * v != 0.0})

    __rmul__ = __mul__

    def __neg__(self) -> "SparseVector":
        return _sparse_raw({i: -v for i, v in self._coords.items()})

    def memo_key(self) -> tuple:
        """Exact-bits key, distinct for distinct points; kept for tests and ``bench/tracer.py``."""
        return tuple(sorted(self._coords.items()))


def _add_coords(a: dict[int, float], b: dict[int, float], scale: float) -> dict[int, float]:
    # a + scale * b on coordinate dicts, dropping entries that cancel to zero
    out = dict(a)
    for i, v in b.items():
        s = out.get(i, 0.0) + scale * v
        if s == 0.0:
            out.pop(i, None)
        else:
            out[i] = s
    return out


def _sparse_raw(coords: dict[int, float]) -> SparseVector:
    # Internal constructor for dicts already free of zeros.
    v = SparseVector.__new__(SparseVector)
    v._coords = coords
    return v


class DenseVector:
    """Fixed-dimension real vector backed by a read-only numpy array."""

    __slots__ = ("array",)

    def __init__(self, values: Iterable[float] | np.ndarray):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"dense vector must be 1-d, got shape {arr.shape}")
        arr.flags.writeable = False
        self.array = arr

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DenseVector)
            and self.dim == other.dim
            and bool(np.all(self.array == other.array))
        )

    def __repr__(self) -> str:
        return f"DenseVector({self.array.tolist()})"

    def __getitem__(self, index: int) -> float:
        return float(self.array[index])

    def __add__(self, other: "DenseVector") -> "DenseVector":
        if not isinstance(other, DenseVector):
            return NotImplemented
        _check_dims(self, other)
        return _dense_raw(self.array + other.array)

    def __sub__(self, other: "DenseVector") -> "DenseVector":
        if not isinstance(other, DenseVector):
            return NotImplemented
        _check_dims(self, other)
        return _dense_raw(self.array - other.array)

    def __mul__(self, a: float) -> "DenseVector":
        return _dense_raw(a * self.array)

    __rmul__ = __mul__

    def __neg__(self) -> "DenseVector":
        return _dense_raw(-self.array)

    def memo_key(self) -> bytes:
        """Exact-bits key, distinct for distinct points; kept for tests and ``bench/tracer.py``."""
        return self.array.tobytes()


def _dense_raw(arr: np.ndarray) -> DenseVector:
    v = DenseVector.__new__(DenseVector)
    arr.flags.writeable = False
    v.array = arr
    return v


StateVector = SparseVector | DenseVector


def _check_dims(x: DenseVector, y: DenseVector) -> None:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")


def norm(v: StateVector, kind: NormKind = SUP_NORM) -> float:
    """Ambient norm of a vector: ``row_norms`` of a batch of one."""
    return float(row_norms(pack([v]), kind)[0])


def _lp_fsum(values: list[float], p: float) -> float:
    # l^p norm of nonzero magnitudes by math.fsum, rescaled only on overflow
    try:
        return math.fsum(x**p for x in values) ** (1.0 / p)
    except OverflowError:
        top = max(values)
        return top * math.fsum((x / top) ** p for x in values) ** (1.0 / p)


def zero_like(v: StateVector) -> StateVector:
    if isinstance(v, SparseVector):
        return _sparse_raw({})
    return _dense_raw(np.zeros(v.dim))


class Batch:
    """Points of one backend as the rows of one array.

    Dense: ``rows`` has shape (..., n) and ``cols`` is None.  Sparse:
    ``cols`` is a sorted int array and column c of ``rows`` holds the
    coordinate with index ``cols[c]``; every coordinate off ``cols`` is zero.
    The leading axes index the points; ``unpack`` needs exactly one.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: np.ndarray, cols: np.ndarray | None = None):
        self.rows = rows
        self.cols = cols

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, index) -> "Batch":
        return Batch(self.rows[index], self.cols)

    def __neg__(self) -> "Batch":
        return Batch(-self.rows, self.cols)

    def __add__(self, other: "Batch") -> "Batch":
        cols = _common_cols(self, other)
        return Batch(self.on(cols).rows + other.on(cols).rows, cols)

    def __sub__(self, other: "Batch") -> "Batch":
        cols = _common_cols(self, other)
        return Batch(self.on(cols).rows - other.on(cols).rows, cols)

    def on(self, cols: np.ndarray | None) -> "Batch":
        """The same points laid out over ``cols``; coordinates off it are dropped."""
        if self.cols is None or _same(self.cols, cols):
            return self
        rows = np.zeros(self.rows.shape[:-1] + (len(cols),))
        if len(cols):
            pos = np.minimum(np.searchsorted(cols, self.cols), len(cols) - 1)
            hit = cols[pos] == self.cols
            rows[..., pos[hit]] = self.rows[..., hit]
        return Batch(rows, cols)

    def unpack(self) -> list[StateVector]:
        """The rows of a 2-d batch as vectors; sparse vectors drop zeros."""
        if self.cols is None:
            return [_dense_raw(row.copy()) for row in self.rows]
        cols = self.cols.tolist()
        return [
            _sparse_raw({i: v for i, v in zip(cols, row) if v != 0.0})
            for row in self.rows.tolist()
        ]


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or (len(a) == len(b) and bool((a == b).all()))


def _common_cols(a: Batch, b: Batch) -> np.ndarray | None:
    if (a.cols is None) != (b.cols is None):
        raise ValueError("backend mismatch: a dense batch cannot combine with a sparse one")
    if a.cols is None or _same(a.cols, b.cols):
        return a.cols
    return np.union1d(a.cols, b.cols)


def pack(points: Sequence[StateVector]) -> Batch:
    """One 2-d batch holding the points (at least one) as its rows."""
    if all(isinstance(p, DenseVector) for p in points):
        if len({p.dim for p in points}) != 1:
            raise ValueError("dense points of different dimensions cannot share a batch")
        return Batch(np.array([p.array for p in points]))
    if not all(isinstance(p, SparseVector) for p in points):
        raise ValueError("backend mismatch: a batch holds sparse or dense points, not both")
    if len(points) == 1:
        cols = sorted(points[0]._coords)
        rows = [[points[0]._coords[i] for i in cols]]
        return Batch(np.array(rows, dtype=float), np.array(cols, dtype=np.int64))
    counts = [len(p) for p in points]
    keys = np.fromiter((i for p in points for i in p._coords), dtype=np.int64, count=sum(counts))
    vals = np.fromiter((v for p in points for v in p._coords.values()), dtype=float, count=len(keys))
    cols = np.unique(keys)
    rows = np.zeros((len(points), len(cols)))
    rows[np.repeat(np.arange(len(points)), counts), np.searchsorted(cols, keys)] = vals
    return Batch(rows, cols)


def _at_point(f: Callable[[Batch], Batch], x: StateVector) -> StateVector:
    # a batch map at a single point, as a batch of one
    return f(pack([x])).unpack()[0]


def _row_wise(f: Callable[[StateVector], StateVector]) -> Callable[[Batch], Batch]:
    # a single-point map on every row of a 2-d batch
    def rows(b: Batch) -> Batch:
        return pack([f(x) for x in b.unpack()]) if len(b) else b

    return rows


def stack(batches: Sequence[Batch], within: tuple[int, int] | None = None) -> Batch:
    """2-d batches of equal row count as one batch with a new leading axis.

    Sparse columns are the union of the batches' columns, kept only inside
    the index range ``within`` when one is given.
    """
    if batches[0].cols is None:
        return Batch(np.stack([b.rows for b in batches]))
    keys = np.concatenate([b.cols for b in batches])
    entry = np.repeat(np.arange(len(batches)), [len(b.cols) for b in batches])
    values = np.concatenate([b.rows for b in batches], axis=-1)
    cols = np.unique(keys)
    if within is not None:
        cols = cols[(cols >= within[0]) & (cols <= within[1])]
    out = np.zeros((len(batches), len(batches[0]), len(cols)))
    if len(cols):
        pos = np.minimum(np.searchsorted(cols, keys), len(cols) - 1)
        hit = cols[pos] == keys
        out[entry[hit], :, pos[hit]] = values[:, hit].T
    return Batch(out, cols)


def zero_rows(b: Batch) -> Batch:
    """The zero point of b's backend once for every row of b."""
    if b.cols is None:
        return Batch(np.zeros(b.rows.shape))
    return Batch(np.zeros(b.rows.shape[:-1] + (0,)), b.cols[:0])


def merge_rows(parts: Sequence[tuple[np.ndarray, Batch]], count: int) -> Batch:
    """A 2-d batch of ``count`` rows from (row indices, batch) parts; rows no part names are zero."""
    cols = None
    if parts[0][1].cols is not None:
        cols = np.unique(np.concatenate([b.cols for _, b in parts]))
    out = np.zeros((count, parts[0][1].rows.shape[-1] if cols is None else len(cols)))
    for index, b in parts:
        out[index] = b.on(cols).rows
    return Batch(out, cols)


def row_norms(b: Batch, kind: NormKind = SUP_NORM) -> np.ndarray:
    """The ambient norm of each row of a 2-d batch; 0 exactly on an all-zero row.

    The sup norm is the exact largest magnitude, NaN if any entry is NaN.
    Every l^p sum, dense or sparse, is one correctly rounded ``math.fsum``
    of the nonzero powers, so a point's norm depends neither on its backend
    nor on its coordinate order.  An l^p sum that overflows is redone
    scaled by the largest magnitude; every norm that does not overflow is
    the direct sum.
    """
    magnitudes = np.abs(b.rows)
    if kind.is_sup:
        if not magnitudes.shape[-1]:
            return np.zeros(len(b))
        return magnitudes.max(axis=-1)
    return np.array(
        [_lp_fsum(values, kind.p) if (values := [x for x in row.tolist() if x]) else 0.0
         for row in magnitudes]
    )


#: magnitude bound of a config's sparse indices: their orbit steps stay far inside int64
INDEX_LIMIT = 2**62

#: most indices in a config window: the perturbation lists them, and the sampler draws
#: samples x (width + 20) coordinates, about 52 MB at this width for 100 samples
WINDOW_LIMIT = 2**16


def _required(obj: dict, key: str):
    """``obj[key]``; an absent key raises ValueError saying that the config requires it."""
    if key not in obj:
        raise ValueError(f"config key '{key}' is required")
    return obj[key]


def _number(obj: dict, key: str, *default):
    """``obj[key]``, a JSON number (an int or a float, not a bool), as a float.

    ``default`` if given and ``key`` is absent; any other value, an absent key without a
    default, or an integer beyond float range, raises ValueError naming the key.
    """
    if default and key not in obj:
        return default[0]
    value = _required(obj, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} must be a number in float range, got a larger integer") from None


def _object(obj: dict, key: str, *default) -> dict:
    """``obj[key]``, a JSON object such as a descriptor; ``default`` and errors as in ``_number``."""
    if default and key not in obj:
        return default[0]
    value = _required(obj, key)
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a JSON object, got {value!r}")
    return value


def _numbers(value, key: str) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as a float array (entries by ``_number``)."""
    entries = np.array(value, dtype=object)
    return np.reshape([_number({key: v}, key) for v in entries.flat], entries.shape)


def _window(obj: dict) -> range:
    """The index window ``obj["window"]``: [lo, hi], two integers below ``INDEX_LIMIT``.

    It may hold at most ``WINDOW_LIMIT`` indices.
    """
    window = _required(obj, "window")
    if type(window) is not list or len(window) != 2 or any(type(i) is not int for i in window):
        raise ValueError(f"window must be [lo, hi] with integers lo and hi, got {window!r}")
    if max(map(abs, window)) >= INDEX_LIMIT:
        raise ValueError(f"window indices must lie below 2^62 in magnitude, got {window!r}")
    if window[1] - window[0] + 1 > WINDOW_LIMIT:
        raise ValueError(f"window may hold at most 2^16 indices, got {window!r}")
    return range(window[0], window[1] + 1)


def _indexed(obj: dict, key: str, entry: str) -> dict[int, float]:
    """The JSON object ``obj`` (config key ``key``) of numbers by sparse index, as a dict.

    Each index must be a canonical decimal integer (``str(int(k)) == k``: no sign but "-", no
    leading zero, no "_"), so no two keys name one index; entries are read by ``_numbers``.
    """
    for k in obj:
        if not re.fullmatch(r"0|-?[1-9][0-9]*", k):
            raise ValueError(f"{key} index must be a decimal integer such as -3 or 12, got {k!r}")
        if abs(int(k)) >= INDEX_LIMIT:
            raise ValueError(f"{key} index must lie below 2^62 in magnitude, got {k}")
    return dict(zip(map(int, obj), _numbers(list(obj.values()), entry).tolist()))


def vector_from_json(obj) -> StateVector:
    if isinstance(obj, dict):
        return SparseVector(_indexed(obj, "vector", "vector entry"))
    if isinstance(obj, list):
        return DenseVector(_numbers(obj, "vector entry"))
    raise ValueError(f"cannot read a vector from {type(obj).__name__}")
