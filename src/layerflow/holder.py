"""Estimators for weighted and anisotropic Holder norms of sampled fields.

Seminorm suprema over continuum point pairs are estimated from a deterministic
pair set: all nearest-neighbor grid pairs plus a seeded random sample of
admissible far pairs obeying |x-y| <= |x|/2. The reported values are certified
lower bounds of the continuum seminorms, which is the right direction for
every inequality test in the suite; pair counts are recorded in the report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.integrate
import scipy.special

from .geometry import GridSpec, _read_only, weight_grid
from .forms import FormField, time_derivative
from . import spectral

DEFAULT_RANDOM_PAIRS = 100_000


@dataclass(frozen=True)
class HolderParams:
    """Norm indices (s, lambda, lambda', delta, k) selecting a weighted norm."""

    s: int = 0
    lam: float = 0.5
    delta: float = 1.5
    k: int = 0
    lam_prime: float | None = None

    def __post_init__(self) -> None:
        if self.s < 0 or self.k < 0:
            raise ValueError("s and k must be nonnegative")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0,1], got {self.lam}")
        if self.lam_prime is not None and not self.lam < self.lam_prime <= 1.0:
            raise ValueError(f"need lambda < lambda' <= 1, got {self.lam}, {self.lam_prime}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


@dataclass
class NormReport:
    total: float
    breakdown: dict[str, float]
    pairs_sampled: int


# ---------------------------------------------------------------------------
# pair sets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _neighbor_pairs(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Flat-index nearest-neighbor pairs (no wrap across the box boundary)."""
    N, n = grid.N, grid.n
    idx = np.arange(N ** n).reshape((N,) * n)
    ix, iy = [], []
    for axis in range(n):
        sl_lo = [slice(None)] * n
        sl_hi = [slice(None)] * n
        sl_lo[axis] = slice(0, N - 1)
        sl_hi[axis] = slice(1, N)
        ix.append(idx[tuple(sl_lo)].ravel())
        iy.append(idx[tuple(sl_hi)].ravel())
    return _read_only(np.concatenate(ix)), _read_only(np.concatenate(iy))


@lru_cache(maxsize=32)
def _random_pairs(grid: GridSpec, seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded random admissible far pairs with |x-y| <= |x|/2."""
    rng = np.random.default_rng(seed)
    N, n, h = grid.N, grid.n, grid.h
    axis = grid.axis()
    ix_parts, iy_parts = [], []
    have = 0
    while have < count:
        batch = max(4 * (count - have), 1024)
        ix = rng.integers(0, N, size=(batch, n))
        x = axis[ix]
        rmax = 0.5 * np.sqrt(np.sum(x * x, axis=1))
        span = np.floor(rmax / h).astype(int)
        off = rng.integers(-np.maximum(span, 1)[:, None], np.maximum(span, 1)[:, None] + 1,
                           size=(batch, n))
        iy = ix + off
        ok = np.all((iy >= 0) & (iy < N), axis=1) & np.any(off != 0, axis=1) & (span >= 1)
        y = axis[np.clip(iy, 0, N - 1)]
        dist = np.sqrt(np.sum((x - y) ** 2, axis=1))
        ok &= dist <= rmax + 1e-15
        ix, iy = ix[ok], iy[ok]
        ix_parts.append(np.ravel_multi_index(ix.T, (N,) * n))
        iy_parts.append(np.ravel_multi_index(iy.T, (N,) * n))
        have += ok.sum()
    return (_read_only(np.concatenate(ix_parts)[:count]),
            _read_only(np.concatenate(iy_parts)[:count]))


@lru_cache(maxsize=32)
def pair_set(grid: GridSpec, seed: int = 0, n_random: int = DEFAULT_RANDOM_PAIRS):
    """Admissible pair set: flat indices, separations and pair weights.

    A pair enters with whichever ordering satisfies |x-y| <= |x|/2; both the
    quotient and the weight are symmetric, so one orientation suffices.
    """
    nn = _neighbor_pairs(grid)
    rnd = _random_pairs(grid, seed, n_random)
    ix = np.concatenate([nn[0], rnd[0]])
    iy = np.concatenate([nn[1], rnd[1]])
    axis = grid.axis()
    coords = np.stack(np.unravel_index(np.arange(grid.N ** grid.n), (grid.N,) * grid.n), axis=1)
    x = axis[coords[ix]]
    y = axis[coords[iy]]
    dist = np.sqrt(np.sum((x - y) ** 2, axis=1))
    rx = np.sqrt(np.sum(x * x, axis=1))
    ry = np.sqrt(np.sum(y * y, axis=1))
    keep = (dist <= np.maximum(rx, ry) / 2.0 + 1e-15) & (dist > 0)
    ix, iy, dist = ix[keep], iy[keep], dist[keep]
    wpair = np.sqrt(1.0 + np.maximum(rx, ry)[keep] ** 2)
    return tuple(_read_only(a) for a in (ix, iy, dist, wpair))


@lru_cache(maxsize=8)
def _ball_pairs(grid: GridSpec, seed: int = 0, n_random: int = 20_000):
    """Pairs inside the unit ball for the near-origin Holder term."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    flat_r2 = grid.radius2().ravel()
    inside = np.flatnonzero(flat_r2 < 1.0)
    nn = _neighbor_pairs(grid)
    mask = np.isin(nn[0], inside) & np.isin(nn[1], inside)
    ix, iy = nn[0][mask], nn[1][mask]
    if len(inside) >= 2:
        a = rng.choice(inside, size=n_random)
        b = rng.choice(inside, size=n_random)
        ok = a != b
        ix = np.concatenate([ix, a[ok]])
        iy = np.concatenate([iy, b[ok]])
    axis = grid.axis()
    coords = np.stack(np.unravel_index(np.arange(grid.N ** grid.n), (grid.N,) * grid.n), axis=1)
    dist = np.sqrt(np.sum((axis[coords[ix]] - axis[coords[iy]]) ** 2, axis=1))
    keep = dist > 0
    return tuple(_read_only(a) for a in (ix[keep], iy[keep], dist[keep], inside))


# ---------------------------------------------------------------------------
# elementary estimators
# ---------------------------------------------------------------------------


def _flat_space(u: FormField) -> np.ndarray:
    """Data reshaped to (components, slices, N^n)."""
    lead = (u.data.shape[0], u.grid.M + 1 if u.time_dependent else 1)
    return u.data.reshape(lead + (-1,))


def weighted_sup(u: FormField, delta: float) -> float:
    """sup over grid, slices and components of w(x)^delta |u|."""
    w = weight_grid(u.grid, delta).ravel()
    return float(np.max(np.abs(_flat_space(u)) * w)) if u.data.size else 0.0


def holder_seminorm(u: FormField, lam: float, delta: float, seed: int = 0,
                    n_random: int = DEFAULT_RANDOM_PAIRS) -> float:
    """Weighted Holder seminorm sup w(x,y)^(delta+lam) |u(x)-u(y)| / |x-y|^lam
    over the admissible pair sample (a lower bound of the continuum value)."""
    if not lam > 0:
        raise ValueError("lambda must be positive; use weighted_sup for lambda = 0")
    ix, iy, dist, wpair = pair_set(u.grid, seed, n_random)
    flat = _flat_space(u)
    diff = np.abs(flat[..., ix] - flat[..., iy])
    factor = wpair ** (delta + lam) / dist ** lam
    return float(np.max(diff * factor))


def _ball_holder_norm(u: FormField, lam: float, seed: int = 0) -> float:
    """Unweighted Holder norm over the closed unit ball around the origin."""
    ix, iy, dist, inside = _ball_pairs(u.grid, seed)
    flat = _flat_space(u)
    sup = float(np.max(np.abs(flat[..., inside]))) if inside.size else 0.0
    if lam > 0 and ix.size:
        diff = np.abs(flat[..., ix] - flat[..., iy])
        sup += float(np.max(diff / dist ** lam))
    return sup


def _time_seminorm(u: FormField, lam: float, delta: float) -> float:
    """sup over x and sampled t' != t'' of w^delta |u(x,t')-u(x,t'')| over
    |t'-t''|^(lam/2); slice pairs run over all dyadic gaps (a deterministic
    lower-bound sample, like the spatial pair set)."""
    if not u.time_dependent or lam <= 0:
        return 0.0
    w = weight_grid(u.grid, delta).ravel()
    flat = _flat_space(u)  # (C, M+1, P)
    dt = u.grid.dt
    best = 0.0
    gap = 1
    while gap <= u.grid.M:
        diff = np.abs(flat[:, gap:] - flat[:, :-gap]) * w
        best = max(best, float(np.max(diff)) / (gap * dt) ** (lam / 2.0))
        gap *= 2
    return best


# ---------------------------------------------------------------------------
# assembled norms
# ---------------------------------------------------------------------------


def _spatial_derivative_field(u: FormField, alpha: tuple[int, ...]) -> FormField:
    """Mixed spectral derivative d^alpha applied componentwise."""
    out = u.data
    ks = spectral.wavenumbers(u.grid)
    if sum(alpha) == 0:
        return u
    hat = spectral.fft_spatial(out, u.grid)
    for axis, order in enumerate(alpha):
        if order:
            hat = hat * (1j * ks[axis]) ** order
    return FormField(u.grid, u.degree, spectral.ifft_spatial(hat, u.grid), u.time_dependent)


def _multi_orders(n: int, total: int):
    """All alpha in Z_{>=0}^n with |alpha| == total."""
    for cuts in itertools.combinations_with_replacement(range(n), total):
        alpha = [0] * n
        for c in cuts:
            alpha[c] += 1
        yield tuple(alpha)


def spatial_norm(u: FormField, p: HolderParams, seed: int = 0,
                 n_random: int = DEFAULT_RANDOM_PAIRS) -> NormReport:
    """Weighted spatial Holder norm: sum over |alpha| <= s of sup parts with
    weight delta+|alpha|, lambda-seminorm parts, and the unweighted Holder
    norm over the unit ball around the origin."""
    if u.time_dependent:
        raise ValueError("spatial_norm expects a static field")
    breakdown: dict[str, float] = {}
    pairs = pair_set(u.grid, seed, n_random)[0].size
    for total in range(p.s + 1):
        for alpha in _multi_orders(u.grid.n, total):
            du = _spatial_derivative_field(u, alpha)
            d_eff = p.delta + total
            label = "a=" + "".join(map(str, alpha))
            breakdown[f"sup[{label}]"] = weighted_sup(du, d_eff)
            if p.lam > 0:
                breakdown[f"seminorm[{label}]"] = holder_seminorm(du, p.lam, d_eff, seed, n_random)
                breakdown[f"origin[{label}]"] = _ball_holder_norm(du, p.lam, seed)
    return NormReport(total=float(sum(breakdown.values())), breakdown=breakdown,
                      pairs_sampled=pairs)


def anisotropic_norm(u: FormField, p: HolderParams, seed: int = 0,
                     n_random: int = DEFAULT_RANDOM_PAIRS) -> NormReport:
    """Anisotropic weighted norm summing, over |alpha| + 2j <= 2s and
    |beta| <= k, sup terms with weight delta+|alpha|+|beta|, spatial
    lambda-seminorms, near-origin terms, and temporal (lambda/2)-seminorms."""
    breakdown: dict[str, float] = {}
    pairs = pair_set(u.grid, seed, n_random)[0].size
    n = u.grid.n
    for bt in range(p.k + 1):
        for beta in _multi_orders(n, bt):
            base = _spatial_derivative_field(u, beta)
            for j in range(p.s + 1):
                v = base
                for _ in range(j):
                    v = time_derivative(v)
                for at in range(2 * (p.s - j) + 1):
                    for alpha in _multi_orders(n, at):
                        dv = _spatial_derivative_field(v, alpha)
                        d_eff = p.delta + at + bt
                        label = f"a={''.join(map(str, alpha))},j={j},b={''.join(map(str, beta))}"
                        breakdown[f"sup[{label}]"] = weighted_sup(dv, d_eff)
                        if p.lam > 0:
                            breakdown[f"seminorm[{label}]"] = holder_seminorm(
                                dv, p.lam, d_eff, seed, n_random)
                            breakdown[f"origin[{label}]"] = _ball_holder_norm(dv, p.lam, seed)
                            breakdown[f"time[{label}]"] = _time_seminorm(dv, p.lam, d_eff)
    return NormReport(total=float(sum(breakdown.values())), breakdown=breakdown,
                      pairs_sampled=pairs)


def f_norm(u: FormField, p: HolderParams, seed: int = 0,
           n_random: int = DEFAULT_RANDOM_PAIRS) -> float:
    """Two-norm space value: the (k+1, lambda) anisotropic norm plus the
    (k, lambda') one."""
    if p.lam_prime is None:
        raise ValueError("f_norm needs lambda_prime")
    first = anisotropic_norm(u, replace(p, k=p.k + 1, lam_prime=None), seed, n_random)
    second = anisotropic_norm(u, replace(p, lam=p.lam_prime, lam_prime=None), seed, n_random)
    return first.total + second.total


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / scipy.special.gamma(n / 2.0)


def l2_embedding_constant(n: int, delta: float) -> float:
    """Constant c with ||u(.,t)||_L2 <= c * weighted_sup(u, delta); finite for
    delta > n/2, computed by adaptive quadrature in spherical coordinates."""
    if not delta > n / 2.0:
        raise ValueError(f"integral diverges for delta <= n/2 (delta={delta}, n={n})")
    sigma = sphere_area(n)
    val, _ = scipy.integrate.quad(lambda r: sigma * r ** (n - 1) * (1.0 + r * r) ** (-delta),
                                  0.0, np.inf, limit=200)
    return math.sqrt(val)
