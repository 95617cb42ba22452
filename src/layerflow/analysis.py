"""Series machinery: Abel coefficients, the series solving the weighted
Poisson equation, harmonic-polynomial counting/bases, and moment checks."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .forms import FormField
from .holder import sphere_area

_PROHIBITED_TOL = 1e-12


class ProhibitedWeightError(ValueError):
    """Raised when delta hits the singular set {0, n-2, n-4, ...}."""


def _check_weight(n: int, delta: float) -> None:
    if abs(delta) < _PROHIBITED_TOL:
        raise ProhibitedWeightError(f"delta = {delta} is prohibited (singular recurrence)")
    v = n - 2.0
    while v > delta - 1.0:
        if abs(delta - v) < _PROHIBITED_TOL:
            raise ProhibitedWeightError(
                f"delta = {delta} lies in the prohibited set {{0, n-2, n-4, ...}}")
        v -= 2.0


@dataclass(frozen=True)
class AbelSeries:
    """Coefficients a_0..a_K of the series F(x) = sum a_k (1+|x|^2)^(-(delta+2k)/2)."""

    n: int
    delta: float
    coeffs: tuple[float, ...]

    @property
    def K(self) -> int:
        return len(self.coeffs) - 1


def abel_coefficients(n: int, delta: float, K: int) -> AbelSeries:
    """Coefficients from the recurrence a_0 = 1/(delta(delta+2-n)),
    a_k = (delta+2k-2)/(delta+2k+2-n) a_{k-1}, cross-checked against the
    closed product form."""
    if n < 1:
        raise ValueError(f"n: must be >= 1, got {n}")
    if K < 0:
        raise ValueError(f"K: must be >= 0, got {K}")
    if not math.isfinite(delta):
        raise ValueError(f"delta: must be finite, got {delta}")
    _check_weight(n, delta)
    a = [closed_form_coefficient(n, delta, 0)]
    for k in range(1, K + 1):
        a.append((delta + 2 * k - 2.0) / (delta + 2 * k + 2.0 - n) * a[-1])
    for k in range(1, K + 1):
        closed = closed_form_coefficient(n, delta, k)
        if not math.isclose(a[k], closed, rel_tol=1e-10, abs_tol=0.0):
            raise ArithmeticError(f"recurrence/product mismatch at k={k}: {a[k]} vs {closed}")
    return AbelSeries(n, delta, tuple(a))


def closed_form_coefficient(n: int, delta: float, k: int) -> float:
    """Product form prod_{j<k}(delta+2j) / prod_{j<=k+1}(delta+2j-n), valid k >= 1."""
    if k == 0:
        return 1.0 / (delta * (delta + 2.0 - n))
    num = math.prod(delta + 2.0 * j for j in range(1, k))
    return num / math.prod(delta + 2.0 * j - n for j in range(1, k + 2))


def series_F(x, series: AbelSeries, strict: bool = True) -> tuple[float, float]:
    """Truncated sum F(x) with a geometric tail bound; requires |x| >= 1.

    strict=False admits points slightly inside the unit sphere (the series
    still converges there); used by the finite-difference oracle whose stencil
    straddles |x| = 1.
    """
    x = np.asarray(x, dtype=float)
    r2 = float(np.dot(x, x))
    if r2 < (1.0 if strict else 0.25):
        raise ValueError("series evaluation requires |x| >= 1")
    rho = 1.0 / (1.0 + r2)
    base = (1.0 + r2) ** (-series.delta / 2.0)
    powers = rho ** np.arange(series.K + 1)
    value = base * float(np.dot(series.coeffs, powers))
    # |a_k| decreases for large k in dimensions 2, 3; bound the tail by the
    # next coefficient times the geometric remainder.
    ratio = abs(series.coeffs[-1]) * (series.delta + 2 * series.K) / abs(
        series.delta + 2 * series.K + 4 - series.n)
    tail = base * ratio * rho ** (series.K + 1) / (1.0 - rho)
    return value, tail


def series_F_auto(x, n: int, delta: float, tol: float = 1e-12, K0: int = 60,
                  K_max: int = 4000) -> tuple[float, float, AbelSeries]:
    """Evaluate F with the truncation order raised until the tail bound meets
    tol (slow convergence near |x| = 1 makes adaptivity necessary)."""
    K = K0
    while True:
        series = abel_coefficients(n, delta, K)
        value, tail = series_F(x, series)
        if tail <= tol or K >= K_max:
            return value, tail, series
        K = min(2 * K, K_max)


def rhs_weight(x, delta: float) -> float:
    """The target right-hand side (1+|x|^2)^(-(delta+2)/2)."""
    x = np.asarray(x, dtype=float)
    return float((1.0 + np.dot(x, x)) ** (-(delta + 2.0) / 2.0))


def series_laplacian_fd(series: AbelSeries, x, h: float = 1e-3) -> float:
    """Finite-difference Laplacian of the truncated series at spacing h
    (fourth-order central stencil per axis); the independent oracle for the
    defining equation of F."""
    x = np.asarray(x, dtype=float)
    lap = 0.0
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        vals = [series_F(x + s * e, series, strict=False)[0] for s in (-2, -1, 0, 1, 2)]
        lap += (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
    return lap


def series_residuals(series: AbelSeries) -> list[tuple[float, float]]:
    """(r, |Laplacian F - rhs|) at 9 radii on the annulus 1 <= |x| <= 3 along
    the first axis, the Laplacian by finite differences at spacing 1e-3."""
    rows = []
    for r in np.linspace(1.0, 3.0, 9):
        x = np.zeros(series.n)
        x[0] = r
        rows.append((r, abs(series_laplacian_fd(series, x) - rhs_weight(x, series.delta))))
    return rows


def harmonic_poly_count(n: int, k: int) -> int:
    """Number of degree-k elements in an orthonormal basis of spherical
    harmonics: (n+2k-2)(n+k-3)! / (k!(n-2)!), with the convention J(0) = 1."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    if k == 0:
        return 1
    return (n + 2 * k - 2) * math.factorial(n + k - 3) // (math.factorial(k) * math.factorial(n - 2))


@dataclass(frozen=True)
class HarmonicPolynomial:
    """Homogeneous harmonic polynomial, orthonormal on the unit sphere, with
    its formula: a function of points x (coordinates on the last axis) that
    evaluates the polynomial named by label, normalization included."""

    n: int
    degree: int
    label: str
    _formula: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> np.ndarray:
        return self._formula(np.asarray(x, dtype=float))


@lru_cache(maxsize=16)
def harmonic_basis(n: int, k: int) -> tuple[HarmonicPolynomial, ...]:
    """L2(S^{n-1})-orthonormal homogeneous harmonic polynomials of degree k
    <= 2 in dimensions 2 and 3: a fixed table, whose count and Gram matrix
    the test suite checks (ValueError for any other n, k)."""
    poly = partial(HarmonicPolynomial, n, k)
    if k == 0:
        c = 1.0 / math.sqrt(sphere_area(n))
        return (poly("1", lambda x: np.full(x.shape[:-1], c)),)
    if n == 2 and k in (1, 2):
        c = 1.0 / math.sqrt(math.pi)
        if k == 1:
            return (poly("x", lambda x: c * x[..., 0]), poly("y", lambda x: c * x[..., 1]))
        return (poly("x^2-y^2", lambda x: c * (x[..., 0] ** 2 - x[..., 1] ** 2)),
                poly("2xy", lambda x: 2.0 * c * x[..., 0] * x[..., 1]))
    if n == 3 and k == 1:
        c = math.sqrt(3.0 / (4.0 * math.pi))
        return tuple(poly(f"x{i+1}", lambda x, i=i: c * x[..., i]) for i in range(3))
    if n == 3 and k == 2:
        c = math.sqrt(15.0 / (4.0 * math.pi))
        d = math.sqrt(5.0 / (16.0 * math.pi))
        return (poly("xy", lambda x: c * x[..., 0] * x[..., 1]),
                poly("yz", lambda x: c * x[..., 1] * x[..., 2]),
                poly("xz", lambda x: c * x[..., 0] * x[..., 2]),
                poly("x^2-y^2", lambda x: 0.5 * c * (x[..., 0] ** 2 - x[..., 1] ** 2)),
                poly("2z^2-x^2-y^2",
                     lambda x: d * (2.0 * x[..., 2] ** 2 - x[..., 0] ** 2 - x[..., 1] ** 2)))
    raise ValueError(f"harmonic basis not tabulated for n={n}, k={k}")


def moment_check(f: FormField, m: int) -> dict[str, np.ndarray]:
    """Grid quadrature of the moments int f * h dx against every basis element
    of the harmonic polynomials of degree <= m, componentwise.

    Vanishing moments certify membership in the potential ranges used by the
    corrected kernels and the large-weight branches. harmonic_basis refuses
    the degrees it does not tabulate, m > 2.
    """
    grid = f.grid
    pts = np.stack(grid.mesh(), axis=-1)
    hn = grid.h ** grid.n
    axes = tuple(range(-grid.n, 0))
    out: dict[str, np.ndarray] = {}
    for k in range(m + 1):
        for h in harmonic_basis(grid.n, k):
            out[f"deg{k}:{h.label}"] = np.sum(f.data * h(pts), axis=axes) * hn
    return out
