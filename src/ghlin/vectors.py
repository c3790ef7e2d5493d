"""Points of the ambient space.

Two backends are supported: dense finite-dimensional vectors and sparse,
finitely supported sequences indexed over all of Z.  Sparse vectors never
store explicit zeros, so arithmetic on them is exact on the stored support.
All values are immutable; every operation returns a fresh vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "NormKind",
    "SUP_NORM",
    "SparseVector",
    "DenseVector",
    "StateVector",
    "norm",
    "axpy",
    "zero_like",
    "vector_to_json",
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
            return NormKind.lp(obj["p"])
        raise ValueError(f"unknown norm descriptor {obj!r}")


SUP_NORM = NormKind.sup()


class SparseVector:
    """Finitely supported sequence over Z; stored entries are all nonzero."""

    __slots__ = ("_coords", "_key")

    def __init__(self, coords: Mapping[int, float] | Iterable[tuple[int, float]] = ()):
        items = coords.items() if isinstance(coords, Mapping) else coords
        self._coords = {int(i): float(v) for i, v in items if v != 0.0}
        self._key = None

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
        """Hashable key on the exact coordinates: distinct points never share one."""
        if self._key is None:
            self._key = tuple(sorted(self._coords.items()))
        return self._key


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
    v._key = None
    return v


class DenseVector:
    """Fixed-dimension real vector backed by a read-only numpy array."""

    __slots__ = ("array", "_key")

    def __init__(self, values: Iterable[float] | np.ndarray):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"dense vector must be 1-d, got shape {arr.shape}")
        arr.flags.writeable = False
        self.array = arr
        self._key = None

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
        """Hashable key on the exact coordinate bits: distinct points never share one."""
        if self._key is None:
            self._key = self.array.tobytes()
        return self._key


def _dense_raw(arr: np.ndarray) -> DenseVector:
    v = DenseVector.__new__(DenseVector)
    arr.flags.writeable = False
    v.array = arr
    v._key = None
    return v


StateVector = SparseVector | DenseVector


def _check_dims(x: DenseVector, y: DenseVector) -> None:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")


def norm(v: StateVector, kind: NormKind = SUP_NORM) -> float:
    """Ambient norm of a vector; 0 exactly on empty support / all zeros.

    Sparse l^p sums use ``math.fsum``, so they do not depend on coordinate order.
    """
    if isinstance(v, SparseVector):
        values = [abs(x) for _, x in v.items()]
        if not values:
            return 0.0
        if kind.is_sup:
            return max(values)
        return math.fsum(x**kind.p for x in values) ** (1.0 / kind.p)
    if kind.is_sup:
        return float(np.max(np.abs(v.array))) if v.dim else 0.0
    return float(np.sum(np.abs(v.array) ** kind.p) ** (1.0 / kind.p))


def axpy(a: float, x: StateVector, y: StateVector) -> StateVector:
    """Return a*x + y.  Backends (and dense dimensions) must match."""
    if isinstance(x, SparseVector) and isinstance(y, SparseVector):
        if a == 0.0:
            return _sparse_raw(dict(y.items()))
        return _sparse_raw(_add_coords(y._coords, x._coords, a))
    if isinstance(x, DenseVector) and isinstance(y, DenseVector):
        _check_dims(x, y)
        return _dense_raw(a * x.array + y.array)
    raise ValueError(
        f"backend mismatch: {type(x).__name__} cannot combine with {type(y).__name__}"
    )


def zero_like(v: StateVector) -> StateVector:
    if isinstance(v, SparseVector):
        return _sparse_raw({})
    return _dense_raw(np.zeros(v.dim))


def vector_to_json(v: StateVector):
    """Sparse vectors serialize to {"index": value} objects, dense to arrays."""
    if isinstance(v, SparseVector):
        return {str(i): val for i, val in sorted(v.items())}
    return list(map(float, v.array))


def vector_from_json(obj) -> StateVector:
    if isinstance(obj, dict):
        return SparseVector({int(k): float(val) for k, val in obj.items()})
    if isinstance(obj, list):
        return DenseVector(obj)
    raise ValueError(f"cannot read a vector from {type(obj).__name__}")
