"""Grids on the truncated layer, the weight at infinity, and the compactified cylinder.

The infinite layer R^n x [0,T] is truncated to a periodic box [-L,L]^n so that
transform-based convolutions apply; this assumes fields vanish at the box
boundary, which not every corpus field does (see `corpus`), and L is reported
with every result. GridSpec, _count (integers) and _check_mu (viscosity) own
the rules of their values; each refusal starts with the field's name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class _Infinity:
    """Sentinel for the point at infinity (never a grid node)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of the truncated layer [-L,L]^n x [0,T].

    Spatial nodes are x_i = -L + i*h with h = 2L/N (periodic: the node +L is
    identified with -L), time nodes t_j = j*dt with dt = T/M. This class is
    the one owner of the grid rules; each refusal names its field ("N: ...").
    """

    n: int
    N: int
    L: float
    M: int
    T: float

    def __post_init__(self) -> None:
        _set_counts(self, "n", "N")
        if self.n not in (2, 3):
            raise ValueError(f"n: must be 2 or 3, got {self.n}")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N: must be a power of two >= 8, got {self.N}")
        if not 0.0 < self.L < math.inf:
            raise ValueError(f"L: must be positive and finite, got {self.L}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T: must be positive and finite, got {self.T}")
        _set_counts(self, "M", least=1)

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    def axis(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.N)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.M + 1)

    def mesh(self) -> tuple[np.ndarray, ...]:
        return _mesh(self)

    def radius2(self) -> np.ndarray:
        """|x|^2 on the grid."""
        return _radius2(self)


def _count(name: str, value, least: int | None = None) -> int:
    """value as an int; refuse, naming it, a count that is not an integer
    (bool included) or is below least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}: must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name}: must be >= {least}, got {value}")
    return int(value)


def _set_counts(obj, *names: str, least: int | None = None) -> None:
    """_count each named field of a frozen dataclass, stored back as an int."""
    for name in names:
        object.__setattr__(obj, name, _count(name, getattr(obj, name), least))


def _check_mu(mu: float) -> None:
    """Refuse a viscosity for which exp(-mu |k|^2 t) does not decay; every
    callable that takes mu runs it first."""
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu: must be positive and finite, got {mu}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so no caller can change it for the next."""
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=16)
def _mesh(grid: GridSpec) -> tuple[np.ndarray, ...]:
    return tuple(_read_only(x) for x in np.meshgrid(*([grid.axis()] * grid.n), indexing="ij"))


@lru_cache(maxsize=16)
def _radius2(grid: GridSpec) -> np.ndarray:
    r2 = np.zeros(grid.spatial_shape)
    for x in _mesh(grid):
        r2 += x * x
    return _read_only(r2)


@dataclass(frozen=True)
class CylinderPoint:
    """Point (z0, z, zt) on the compact cylinder {z0^2 + |z|^2 = 1} x [0,T]."""

    z0: float
    z: tuple[float, ...]
    zt: float

    def __post_init__(self) -> None:
        r = self.z0 ** 2 + sum(c * c for c in self.z)
        if abs(r - 1.0) > 1e-12:
            raise ValueError(f"point off the unit cylinder: z0^2+|z|^2 = {r}")

    def coords(self) -> np.ndarray:
        return np.array((self.z0, *self.z, self.zt))


def weight(x) -> float:
    """Weight w(x) = sqrt(1 + |x|^2) controlling growth at infinity."""
    x = np.asarray(x, dtype=float)
    return float(math.sqrt(1.0 + float(np.dot(x, x))))


@lru_cache(maxsize=16)
def weight_grid(grid: GridSpec, delta: float = 1.0) -> np.ndarray:
    """w(x)^delta sampled on the spatial grid. Cached: read-only."""
    return _read_only((1.0 + grid.radius2()) ** (0.5 * delta))


def pair_weight(x, y) -> float:
    """Two-point weight w(x,y) = max{w(x), w(y)}."""
    return max(weight(x), weight(y))


def compactify(x, t: float, n: int | None = None) -> CylinderPoint:
    """One-point compactification map: x -> ((|x|^2-1)/w^2, 2x/w^2, t), infinity -> (1, 0, t).

    The sentinel INFINITY carries no dimension, so `n` must be supplied for it.
    """
    if x is INFINITY:
        if n is None:
            raise TypeError("compactify(INFINITY, t) needs the dimension n")
        return CylinderPoint(1.0, (0.0,) * n, float(t))
    x = np.asarray(x, dtype=float)
    w2 = 1.0 + float(np.dot(x, x))
    z0 = (float(np.dot(x, x)) - 1.0) / w2
    z = tuple(2.0 * x / w2)
    return CylinderPoint(z0, z, float(t))


def cyl_metric(p, q) -> float:
    """Distance |iota(x,t') - iota(y,t'')| on the compactified cylinder.

    Arguments are (x, t) pairs where x is an n-vector or the INFINITY sentinel.
    """
    xp, tp = p
    xq, tq = q
    n = None
    for x in (xp, xq):
        if x is not INFINITY:
            n = len(np.atleast_1d(x))
    if n is None:
        # both at infinity: distance is purely temporal
        return abs(float(tp) - float(tq))
    cp = compactify(xp, tp, n=n)
    cq = compactify(xq, tq, n=n)
    return float(np.linalg.norm(cp.coords() - cq.coords()))
