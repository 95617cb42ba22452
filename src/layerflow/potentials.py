"""Newton and parabolic potentials: the analytic engine of the reduction.

Convolutions are realized on the periodic truncation through discrete
transforms; they match the free-space ones only as far as a field vanishes at
the box boundary. `corpus.random_field` is below 1e-12 there on an L = 6 box;
`corpus.divergence_free_velocity` is not (see `corpus`). The Newton zero mode
is always dropped (the potential is defined modulo constants). The fields a
solve inverts are exterior derivatives and have none; a forcing's mean, which
no decaying field on R^n carries, shows in the momentum residual instead.

The 2-D Newton constant is 1/(2*pi): this is the normalization for which the
inverse relation of the Laplacian holds, validated by the quadrature tests.

grad_newton and the Duhamel recursion apply cached read-only symbols (signs,
i k and 1/|k|^2 folded together) in place. The recursion (_duhamel) is the one
heat propagator: poisson_potential runs it from u0 unforced, volume_potential
on a forcing from zero, and nse's fused pass Psi_mu d on the coefficients of
d q (from du0 for g0, and over the window t_1..t_M from a carried F_0, into a
whole field for a residual and into the window alone for a Newton matvec).
The heat potentials take the viscosity mu itself and check it first;
PotentialConfig is only the `potential` section of a solver config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import GridSpec, _check_mu, _read_only, weight_grid
from .forms import FormField, _apply_symbol, _codiff_symbol
from .holder import sphere_area
from .analysis import harmonic_basis
from . import spectral


@dataclass(frozen=True)
class PotentialConfig:
    mu: float = 0.1

    def __post_init__(self) -> None:
        _check_mu(self.mu)


class SingularEvaluationError(ValueError):
    pass


def _laplace(r, n: int):
    """Fundamental solution of the Laplacian at radius r > 0 (floats or arrays):
    log r/(2*pi) in 2-D, r^(2-n)/((2-n)*sigma_n) for n >= 3."""
    if n == 2:
        return np.log(r) / (2.0 * math.pi)
    return r ** (2 - n) / ((2 - n) * sphere_area(n))


def _point(x, n: int) -> np.ndarray:
    """x as a point of R^n; a point of any other length is refused."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected a point of R^{n}, got shape {x.shape}")
    return x


def newton_kernel(x, n: int) -> float:
    """Fundamental solution of the Laplacian at the point x of R^n: _laplace(|x|, n)."""
    x = _point(x, n)
    r = float(np.sqrt(np.dot(x, x)))
    if r == 0.0:
        raise SingularEvaluationError("Newton kernel is singular at x = 0")
    return float(_laplace(r, n))


def newton_potential(f: FormField) -> FormField:
    """Componentwise inverse of the Laplacian on the nonzero modes:
    Laplacian(newton_potential(f)) = f - mean(f)."""
    hat = spectral.fft_spatial(f.data, f.grid) * -spectral.inv_ksq(f.grid)
    return FormField(f.grid, f.degree, spectral.ifft_spatial(hat, f.grid))


def grad_newton(g: FormField) -> FormField:
    """The de Rham solution composite in one multiplier pass: the
    codifferential symbol divided by |symbol|^2, zero mode dropped.

    This is the codifferential of the Green operator of the form Laplacian
    (d*d + dd* = -Laplacian componentwise), so for g = du with d*u = 0 and
    zero mean it reconstructs u exactly.
    """
    g._require("g", range(1, g.grid.n + 1))
    grid = g.grid
    out_hat = _apply_symbol(_grad_newton_symbol(grid, g.degree), spectral.fft_spatial(g.data, grid))
    return FormField(grid, g.degree - 1, spectral.ifft_spatial(out_hat, grid))


@lru_cache(maxsize=16)
def _grad_newton_symbol(grid: GridSpec, degree: int) -> tuple:
    """The symbol of grad_newton on degree-q coefficients: the codifferential
    table with 1/|k|^2 folded in, in the layout of forms._d_symbol. Read-only."""
    inv = spectral.inv_ksq(grid)
    return tuple(tuple((src, _read_only(mult * inv)) for src, mult in terms)
                 for terms in _codiff_symbol(grid, degree))


def _smoothed(r):
    """<x> as a function of the radius r = |x|, on floats or arrays."""
    return np.where(r >= 2.0, r, 1.5 + r ** 4 / 32.0)


def norm_smoothing(x) -> float:
    """C^1 interpolant <x> with <x> = |x| for |x| >= 2 and <x> >= 1 everywhere.

    Inside the ball of radius 2 we use 3/2 + |x|^4/32, which matches value and
    slope at |x| = 2 and is smooth through the origin.
    """
    x = np.asarray(x, dtype=float)
    return float(_smoothed(float(np.sqrt(np.dot(x, x)))))


def _multipole(xs: np.ndarray, n: int, m: int) -> tuple:
    """phi(<x>) at the points xs (..., n), and for each harmonic h of degree
    k = 1..m the pair (h, h(x) (<x>/|x|)^k / ((n+2k-2) <x>^(n+2k-2))); the
    coefficient is zero at x = 0, where the degree-k factor vanishes."""
    r = np.sqrt(np.sum(xs * xs, axis=-1))
    box = _smoothed(r)
    safe_r = np.where(r > 0, r, 1.0)
    terms = [(h, np.where(r > 0, h(xs) * (box / safe_r) ** k, 0.0)
              / ((n + 2 * k - 2) * box ** (n + 2 * k - 2)))
             for k in range(1, m + 1) for h in harmonic_basis(n, k)]
    return _laplace(box, n), terms


def corrected_kernel(x, y, m: int, n: int) -> float:
    """Kernel phi_m(x,y): the fundamental solution with its leading multipole
    expansion about the origin removed up to degree m.

    The radial profile is recentered at the smoothed norm <x>, and the degree-k
    harmonics are evaluated at x rescaled to length <x> (their homogeneous
    extension), so the correction coincides with the exact expansion terms for
    |x| >= 2.
    """
    if n not in (2, 3) or m not in (0, 1):
        raise ValueError("corrected kernels are provided for n in {2,3}, m in {0,1}")
    x, y = _point(x, n), _point(y, n)
    if np.allclose(x, y):
        raise SingularEvaluationError("corrected kernel is singular at x = y")
    phi_box, terms = _multipole(x, n, m)
    return newton_kernel(x - y, n) - float(phi_box) + sum(float(c * h(y)) for h, c in terms)


def newton_potential_quadrature(f: FormField, flat_points: np.ndarray) -> np.ndarray:
    """Plain Riemann-sum quadrature of the singular Newton convolution at the
    selected grid nodes, with the singular node skipped; the reference side of
    the corrected-kernel comparison (both sides share these weights)."""
    f._require("f", 0, False)
    grid = f.grid
    pts = np.stack(grid.mesh(), axis=-1).reshape(-1, grid.n)
    hn = grid.h ** grid.n
    dens = f.data[0].ravel()
    out = np.zeros(len(flat_points))
    for j, flat_j in enumerate(flat_points):
        d = pts - pts[flat_j]
        r = np.sqrt(np.sum(d * d, axis=1))
        r[flat_j] = 1.0
        ker = _laplace(r, grid.n)
        ker[flat_j] = 0.0
        out[j] = float(np.dot(ker, dens)) * hn
    return out


def corrected_potential_quadrature(f: FormField, m: int,
                                   flat_points: np.ndarray) -> np.ndarray:
    """Quadrature of the corrected potential at the selected grid nodes: the
    singular part shares the Newton quadrature (same weights, same skipped
    node); the recentered radial profile and the multipole corrections are
    smooth and enter through their closed forms against the moments of f."""
    grid = f.grid
    pts = np.stack(grid.mesh(), axis=-1).reshape(-1, grid.n)
    hn = grid.h ** grid.n
    dens = f.data[0].ravel()
    phi_box, terms = _multipole(pts[flat_points], grid.n, m)
    out = newton_potential_quadrature(f, flat_points) - phi_box * (float(np.sum(dens)) * hn)
    for h, coeff in terms:
        out += coeff * (float(np.sum(h(pts) * dens)) * hn)
    return out


def _heat(r2, t: float, mu: float, n: int):
    """Heat kernel psi_mu at r2 = |x|^2 and t > 0 (floats or arrays)."""
    return np.exp(-r2 / (4.0 * mu * t)) / (4.0 * math.pi * mu * t) ** (n / 2.0)


def heat_kernel(x, t: float, mu: float) -> float:
    """Fundamental solution of the heat operator; zero for t <= 0."""
    _check_mu(mu)
    if t <= 0.0:
        return 0.0
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] if x.ndim else 1
    return float(_heat(float(np.dot(x, x)), t, mu, n))


def poisson_potential(u0: FormField, mu: float) -> FormField:
    """Heat semigroup of static initial data on the periodic truncation on all
    time slices, the Duhamel recursion from u0 unforced; t = 0 is u0, bit-exact."""
    _check_mu(mu)
    u0._require("u0", time_dependent=False)
    return FormField(u0.grid, u0.degree, _duhamel(u0.grid, mu, u0.data))


@lru_cache(maxsize=16)
def _duhamel_symbols(grid: GridSpec, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """One time interval of the Duhamel recursion as two multipliers: with
    F_j the forcing's coefficients at t_j, the potential's obey
    P_j = step * P_{j-1} + left * F_{j-1} + (dt/2) * F_j. One trapezoid panel
    per interval, with exact propagation step = exp(-mu |k|^2 dt) across it,
    so left = (dt/2) * step. Read-only."""
    step = np.exp(-mu * spectral.ksq(grid) * grid.dt)
    return _read_only(step), _read_only((grid.dt / 2.0) * step)


def _duhamel(grid: GridSpec, mu: float, start: np.ndarray | None,
             fhat: np.ndarray | None = None, f0: np.ndarray | None = None,
             window: bool = False) -> np.ndarray:
    """The one heat propagator: the recursion of _duhamel_symbols from P_0, the
    coefficients of the static data start (zero when None), which is also the
    t = 0 slice, bit-exact; then one inverse transform. fhat, a forcing's
    coefficients (components, time slices, half spectrum), is overwritten;
    with none the forcing panels, and their one-slice scratch, are skipped.
    Returns the data of the field over t_0..t_M, with as many components as
    start or fhat: a form of the same degree.

    A forcing of M slices is the window t_1..t_M of one that starts from
    zero: the recursion runs from the carried history, P_0 = 0 and the
    forcing's coefficients f0 at t = 0 (zero when None), and transforms the
    window only. With window, the data returned is that of the window alone,
    transformed straight into a fresh array of M slices: no slice 0 is
    formed."""
    step, left = _duhamel_symbols(grid, mu)
    hat = np.empty((len(start), grid.M + 1) + step.shape, dtype=complex) if fhat is None else fhat
    slices = hat.shape[1]
    first = grid.M + 1 - slices  # the window's first slice: 1, or 0 for the whole field
    if fhat is not None:
        scratch = np.empty_like(hat[:, 0])
        for j in range(slices - 1, 0, -1):  # newest first: F_{j-1} is still the forcing
            np.multiply(hat[:, j - 1], left, out=scratch)
            hat[:, j] *= grid.dt / 2.0
            hat[:, j] += scratch
    if first:  # the panel of t_1, whose left end F_0 is carried
        hat[:, 0] *= grid.dt / 2.0
        if f0 is not None:
            hat[:, 0] += np.multiply(f0, left, out=scratch)
    if start is not None:
        hat[:, 0] = spectral.fft_spatial(start, grid)
    for j in range(1 if start is not None else 2 - first, slices):  # P_0 = 0 adds nothing
        np.multiply(hat[:, j - 1], step, out=hat[:, j] if fhat is None else scratch)
        if fhat is not None:
            hat[:, j] += scratch
    if window:
        return spectral.ifft_spatial(hat, grid)
    out = np.empty((len(hat), grid.M + 1) + grid.spatial_shape)
    spectral.ifft_spatial(hat, grid, out=out[:, first:])
    out[:, 0] = 0.0 if start is None else start
    return out


def volume_potential(f: FormField, mu: float) -> FormField:
    """Duhamel integral of a forcing: exact semigroup propagation between
    time nodes and one trapezoid panel per interval in the time variable.
    The t = 0 slice vanishes."""
    _check_mu(mu)
    f._require("f", time_dependent=True)
    return FormField(f.grid, f.degree,
                     _duhamel(f.grid, mu, None, spectral.fft_spatial(f.data, f.grid)))


def trace(u: FormField, t0: float) -> FormField:
    """Restriction to the time slice t = t0 (grid time nodes only)."""
    u._require("u", time_dependent=True)
    j = t0 / u.grid.dt
    if not math.isfinite(j) or abs(j - round(j)) > 1e-9 or not 0 <= round(j) <= u.grid.M:
        raise ValueError(f"t0 = {t0} is not a grid time node")
    return u.slice_at(int(round(j)))


def key0_bound_check(grid: GridSpec, delta: float, gamma: float, mu: float,
                     times=None) -> dict:
    """Empirical constant for the weighted heat-kernel bound: the ratio of
    int (1 + |x-y|^2/4mu t)^gamma psi_mu(x-y,t) (1+|y|^2)^(-delta/2) dy
    to (1+|x|^2)^(-delta/2), maximized over sampled (x, t): points on the
    coordinate rays plus 24 nodes from one fixed random stream.

    The times, one or more, positive and finite, default to a spread over (0, T].
    Quadrature is the plain grid sum, valid while 4*mu*t stays well inside L^2.
    """
    _check_mu(mu)
    times = tuple(grid.T * f for f in (0.05, 0.25, 0.5, 1.0)) if times is None else tuple(times)
    for name, value in (("delta", delta), ("gamma", gamma)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name}: must be positive and finite, got {value}")
    if not times or not all(0.0 < t < math.inf for t in times):
        raise ValueError(f"times: must be one or more, positive and finite, got {times}")
    rng = np.random.default_rng(0)
    pts = np.stack(grid.mesh(), axis=-1).reshape(-1, grid.n)
    wy = weight_grid(grid, -delta).ravel()
    hn = grid.h ** grid.n
    # sample along coordinate rays plus random nodes so the radial profile of
    # the ratio is well covered
    xs = [np.zeros(grid.n)]
    axis = grid.axis()
    for frac in (0.1, 0.25, 0.5, 0.75, 0.95):
        v = np.zeros(grid.n)
        v[0] = axis[int(frac * (grid.N - 1))]
        xs += [v, -v]
    xs += [axis[rng.integers(0, grid.N, size=grid.n)] for _ in range(24)]
    ratios = []
    for t in times:
        for x in xs:
            d = pts - x
            r2 = np.sum(d * d, axis=1)
            psi = _heat(r2, t, mu, grid.n)
            lhs = float(np.sum((1.0 + r2 / (4.0 * mu * t)) ** gamma * psi * wy)) * hn
            rhs = (1.0 + float(np.dot(x, x))) ** (-delta / 2.0)
            ratios.append((lhs / rhs, t, tuple(x)))
    c = max(r[0] for r in ratios)
    return {"constant": c, "delta": delta, "gamma": gamma, "mu": mu,
            "samples": len(ratios), "ratios": ratios}
