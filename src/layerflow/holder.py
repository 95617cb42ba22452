"""Estimators for weighted and anisotropic Holder norms of sampled fields.

Seminorm suprema over continuum point pairs are estimated from a deterministic
pair set: all nearest-neighbor grid pairs plus one fixed sample of n_random
admissible far pairs obeying |x-y| <= |x|/2, the same for every field of a
grid. The near-origin term takes every pair of grid nodes in the closed unit
ball. The reported values are certified lower bounds of the continuum
seminorms, which is the right direction for every inequality test in the
suite; pair counts are recorded in the report.

Each estimator reduces a field over its components and time slices on its
per-slice view FormField.flat() before it weights anything: the largest |u|
per point P(x), and the largest difference per slice gap or per pair. The
(lambda, delta) weights of a pair set are one read-only table per grid and
weighting. Weights are positive and rounding is monotone, so the values are
the same, bit for bit, as weighting every sample before the maximum.

No maximum forms every difference. The rounded difference |u(x,t) - u(y,t)|
is at most the rounded P(x) + P(y), and every rounded slice difference at x
is at most the rounded range R(x) = max_t u(x,t) - min_t u(x,t). Weighting
keeps that order, and every slice gap's divisor is at least the smallest, so
each pair and each point has a bound no smaller than its weighted value. The
pairs, or the points, of largest bound are gathered first; their maximum is
a bar that no candidate of smaller bound can beat, and only the candidates
whose bound reaches the bar (or is NaN) are gathered after them. The value is
the full maximum bit for bit, NaN and inf included; only the work falls.
A norm streams its derivative fields d_t^j d^gamma u: each is formed once from
the norm's one forward transform, enters every term that reads it (in both
norms of f_norm), and is freed before the next, so a norm holds one at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .geometry import GridSpec, _count, _read_only, _set_counts, weight_grid
from .forms import FormField, time_derivative
from . import spectral

DEFAULT_RANDOM_PAIRS = 100_000
_CHUNK = 1024  # pairs or points gathered at a time, so the gathered block stays in cache
_WARM_PAIRS = 512  # pairs of largest bound gathered first, to set the bar for the rest
_WARM_POINTS = 16  # points of largest bound whose time series are gathered first


@dataclass(frozen=True)
class HolderParams:
    """Norm indices (s, lambda, lambda', delta, k) selecting a weighted norm."""

    s: int = 0
    lam: float = 0.25
    delta: float = 1.5
    k: int = 0
    lam_prime: float | None = None

    def __post_init__(self) -> None:
        _set_counts(self, "s", "k", least=0)
        _check_lam("lam", self.lam)
        if self.lam_prime is not None:
            _check_lam("lam_prime", self.lam_prime, low=self.lam, closed=False)
        _check_delta(self.delta)


def _check_lam(name: str, lam: float, low: float = 0, closed: bool = True) -> None:
    """Refuse, naming it, a Holder exponent outside [low, 1] ((low, 1] unless closed)."""
    if not (low <= lam if closed else low < lam) or not lam <= 1.0:
        raise ValueError(f"{name}: must lie in {'[' if closed else '('}{low}, 1], got {lam}")


def _check_delta(delta: float) -> None:
    """Refuse a weight exponent delta that is negative or not finite."""
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta: must be nonnegative and finite, got {delta}")


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


def _random_pairs(grid: GridSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `count` admissible far pairs with |x-y| <= |x|/2 of one fixed
    random stream; none when count is 0."""
    count = _count("n_random", count, least=0)
    rng = np.random.default_rng(0)
    N, n, h = grid.N, grid.n, grid.h
    axis = grid.axis()
    ix_parts, iy_parts = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
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
    return np.concatenate(ix_parts)[:count], np.concatenate(iy_parts)[:count]


def _distinct_pairs(ix: np.ndarray, iy: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Each unordered pair once, as (smaller, larger) flat index: a sample
    draws some pairs more than once, and a repeat changes no maximum."""
    return np.divmod(np.unique(np.minimum(ix, iy) * points + np.maximum(ix, iy)), points)


@lru_cache(maxsize=32, typed=True)  # so that a bool n_random is refused, not read as 0 or 1
def pair_set(grid: GridSpec, n_random: int = DEFAULT_RANDOM_PAIRS):
    """Admissible pair set: flat indices, separations and pair weights, each
    unordered pair once.

    A pair enters with whichever ordering satisfies |x-y| <= |x|/2; both the
    quotient and the weight are symmetric, so one orientation suffices.
    """
    nn = _neighbor_pairs(grid)
    rnd = _random_pairs(grid, n_random)
    ix, iy = _distinct_pairs(np.concatenate([nn[0], rnd[0]]), np.concatenate([nn[1], rnd[1]]),
                             grid.N ** grid.n)
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


@lru_cache(maxsize=16)
def _pair_weight(grid: GridSpec, n_random: int, lam: float, delta: float) -> np.ndarray:
    """The seminorm weight w(x,y)^(delta+lam) / |x-y|^lam of each pair of
    pair_set(grid, n_random)."""
    _, _, dist, wpair = pair_set(grid, n_random)
    return _read_only(wpair ** (delta + lam) / dist ** lam)


@lru_cache(maxsize=8)
def _ball_pairs(grid: GridSpec):
    """Every pair of grid nodes in the closed unit ball around the origin, for
    the near-origin Holder term, each unordered pair once."""
    inside = np.flatnonzero(grid.radius2().ravel() <= 1.0)
    points = np.stack(grid.mesh(), axis=-1).reshape(-1, grid.n)[inside]
    first, second = np.triu_indices(inside.size, k=1)
    dist = np.sqrt(np.sum((points[first] - points[second]) ** 2, axis=1))
    return tuple(_read_only(a) for a in (inside[first], inside[second], dist, inside))


def _dyadic_gaps(M: int) -> list[int]:
    """The slice gaps 1, 2, 4, ... up to M of the time seminorm."""
    return [2 ** i for i in range(M.bit_length())]


@lru_cache(maxsize=8)
def _ball_divisor(grid: GridSpec, lam: float) -> np.ndarray:
    """|x-y|^lam of each unit-ball pair, the divisor of the near-origin term."""
    return _read_only(_ball_pairs(grid)[2] ** lam)


# ---------------------------------------------------------------------------
# elementary estimators
# ---------------------------------------------------------------------------


class _Maxima:
    """One field reduced over its components and time slices. The largest
    and smallest value of each series u(x, .) are formed once, on first use,
    and give the two per-point reductions that every weight shares:

    - point: P(x) = max |u(x,t)|, the larger of |max_t u| and |min_t u|;
    - span: R(x) = max over components of max_t u(x,t) - min_t u(x,t). Both
      ends of a slice difference at x lie in that range and rounding is
      monotone, so every rounded |u(x,t+g dt) - u(x,t)| is at most R(x).

    A pair term weights the largest difference D(p) = max |u(x_p,t) -
    u(y_p,t)| of each pair p, the time term the largest difference of each
    slice gap at each point; _pruned_max forms either maximum from the
    candidates whose bound can reach it. Every weight is positive and
    rounding is monotone, so max(|.|) * w equals max(|.| * w) bit for bit.
    """

    def __init__(self, u: FormField, n_random: int = DEFAULT_RANDOM_PAIRS):
        self.u, self.n_random, self.flat = u, n_random, u.flat()

    def _pair_max(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        out = np.empty(ix.size)
        for start in range(0, ix.size, _CHUNK):
            part = slice(start, start + _CHUNK)
            diff = np.take(self.flat, ix[part], axis=2)
            diff -= np.take(self.flat, iy[part], axis=2)
            np.max(np.abs(diff, out=diff), axis=(0, 1), out=out[part])
        return out

    def _gap_max(self, pts: np.ndarray) -> np.ndarray:
        """max |u(x,t+g dt) - u(x,t)| of each point x of pts, one row per
        dyadic slice gap g."""
        gaps = _dyadic_gaps(self.u.grid.M)
        out = np.empty((len(gaps), pts.size))
        for start in range(0, pts.size, _CHUNK):
            part = slice(start, start + _CHUNK)
            series = np.take(self.flat, pts[part], axis=2)
            for row, gap in enumerate(gaps):
                diff = series[:, gap:] - series[:, :-gap]
                np.max(np.abs(diff, out=diff), axis=(0, 1), out=out[row, part])
        return out

    @staticmethod
    def _pruned_max(bound: np.ndarray, exact, warm_size: int) -> float:
        """The largest of the values exact(idx) of all candidates, given
        bound[i] no smaller than candidate i's value, and NaN or inf wherever
        that value can be NaN; bound is overwritten.

        The warm_size candidates of largest bound set a bar, and only the
        candidates whose bound reaches it are evaluated after them: one below
        the bar cannot hold the maximum, and a NaN bound is never below it,
        so the value is the full maximum bit for bit, NaN included.
        """
        warm = np.argpartition(bound, -warm_size)[-warm_size:] \
            if bound.size > warm_size else np.arange(bound.size)
        bar = np.max(exact(warm))
        bound[warm] = -np.inf  # already in bar
        rest = np.flatnonzero(~(bound < bar))  # keeps NaN bounds, and every candidate if bar is NaN
        return float(np.max(exact(rest), initial=bar))

    def _pruned_pair_max(self, ix: np.ndarray, iy: np.ndarray, weight: np.ndarray, op) -> float:
        """max over pairs p of op(D(p), weight[p]), op being np.multiply or
        np.true_divide by a positive weight. Each difference obeys
        |u(x,t) - u(y,t)| <= P(x) + P(y), P = point, so op(P(x) + P(y),
        weight) bounds each pair's rounded value."""
        bound = self.point[ix]
        bound += self.point[iy]
        op(bound, weight, out=bound)
        return self._pruned_max(
            bound, lambda sel: op(self._pair_max(ix[sel], iy[sel]), weight[sel]), _WARM_PAIRS)

    @cached_property
    def _reductions(self) -> tuple[np.ndarray, np.ndarray]:
        """(point, span), from the extremes of each series; a NaN in a series
        makes both NaN."""
        hi, lo = np.max(self.flat, axis=1), np.min(self.flat, axis=1)
        return np.max(np.maximum(np.abs(hi), np.abs(lo)), axis=0), np.max(hi - lo, axis=0)

    @property
    def point(self) -> np.ndarray:
        return self._reductions[0]

    @property
    def span(self) -> np.ndarray:
        return self._reductions[1]

    def weighted_sup(self, delta: float) -> float:
        """sup over grid, slices and components of w(x)^delta |u|."""
        return float(np.max(self.point * weight_grid(self.u.grid, delta).ravel()))

    def holder_seminorm(self, lam: float, delta: float) -> float:
        """sup over the pair sample of w(x,y)^(delta+lam) |u(x)-u(y)| / |x-y|^lam."""
        ix, iy = pair_set(self.u.grid, self.n_random)[:2]
        return self._pruned_pair_max(ix, iy, _pair_weight(self.u.grid, self.n_random, lam, delta),
                                     np.multiply)

    def ball_holder_norm(self, lam: float) -> float:
        """Unweighted Holder norm over the closed unit ball around the origin."""
        ix, iy, dist, inside = _ball_pairs(self.u.grid)
        sup = float(np.max(self.point[inside])) if inside.size else 0.0
        if lam > 0 and dist.size:
            sup += self._pruned_pair_max(ix, iy, _ball_divisor(self.u.grid, lam), np.true_divide)
        return sup

    def time_seminorm(self, lam: float, delta: float) -> float:
        """sup over x and sampled t' != t'' of w^delta |u(x,t')-u(x,t'')| over
        |t'-t''|^(lam/2); slice pairs run over all dyadic gaps (a
        deterministic lower-bound sample, like the spatial pair set).

        Every slice difference at x is at most R(x) = span, and every divisor
        is at least the smallest, so R(x) w(x) / (smallest divisor) bounds
        each point's rounded value; _pruned_max gathers the time series of
        only the points that can reach the maximum."""
        if not self.u.time_dependent or lam <= 0:
            return 0.0
        w = weight_grid(self.u.grid, delta).ravel()
        dt = self.u.grid.dt
        divisor = np.array([(gap * dt) ** (lam / 2.0) for gap in _dyadic_gaps(self.u.grid.M)])
        bound = self.span * w
        bound /= np.min(divisor)

        def exact(sel):
            # np.max, not max(): a NaN gap value must not lose to a finite one
            return np.max(self._gap_max(sel) * w[sel] / divisor[:, None], axis=0)

        return self._pruned_max(bound, exact, _WARM_POINTS)

    def add_terms(self, breakdown: dict[str, float], label: str, lam: float, delta: float,
                  time: bool) -> None:
        """Enter the sup, seminorm, origin and (if `time`) temporal parts."""
        breakdown[f"sup[{label}]"] = self.weighted_sup(delta)
        if lam > 0:
            breakdown[f"seminorm[{label}]"] = self.holder_seminorm(lam, delta)
            breakdown[f"origin[{label}]"] = self.ball_holder_norm(lam)
            if time:
                breakdown[f"time[{label}]"] = self.time_seminorm(lam, delta)


def weighted_sup(u: FormField, delta: float) -> float:
    """sup over grid, slices and components of w(x)^delta |u|."""
    _check_delta(delta)
    return _Maxima(u).weighted_sup(delta)


def holder_seminorm(u: FormField, lam: float, delta: float, *,
                    n_random: int = DEFAULT_RANDOM_PAIRS) -> float:
    """Weighted Holder seminorm sup w(x,y)^(delta+lam) |u(x)-u(y)| / |x-y|^lam
    over the admissible pair sample (a lower bound of the continuum value)."""
    _check_lam("lam", lam, closed=False)  # weighted_sup is the lambda = 0 term
    _check_delta(delta)
    return _Maxima(u, n_random).holder_seminorm(lam, delta)


# ---------------------------------------------------------------------------
# assembled norms
# ---------------------------------------------------------------------------


def _multi_orders(n: int, total: int):
    """All alpha in Z_{>=0}^n with |alpha| == total."""
    for cuts in itertools.combinations_with_replacement(range(n), total):
        alpha = [0] * n
        for c in cuts:
            alpha[c] += 1
        yield tuple(alpha)


def _derivative(u: FormField, hat: np.ndarray, gamma: tuple[int, ...], j: int) -> FormField:
    """d_t^j d^gamma u from the coefficients hat of u, which are left unchanged."""
    if any(gamma):
        ks = spectral.wavenumbers(u.grid)
        for axis, order in enumerate(gamma):
            if order:
                hat = hat * (1j * ks[axis]) ** order
        u = FormField(u.grid, u.degree, spectral.ifft_spatial(hat, u.grid))
        del hat  # the product: freed before any time derivative
    for _ in range(j):
        u = time_derivative(u)
    return u


def _norms(u: FormField, n_random: int, *plans) -> list[NormReport]:
    """The report of each plan (terms, lam, time), terms being the (label,
    (gamma, j), delta) of each term in label order.

    Each distinct (gamma, j) is formed in order of first use from one forward
    transform of u, enters every term of every plan that reads it, and is
    freed before the next is formed. Each breakdown is assembled and summed
    in label order. Only n_random is checked: the indices come from a HolderParams."""
    n_random = _count("n_random", n_random, least=0)
    parts = [[{} for _ in terms] for terms, _, _ in plans]
    uses: dict[tuple, list] = {}
    for plan, (terms, lam, time) in enumerate(plans):
        for term, (label, key, delta) in enumerate(terms):
            uses.setdefault(key, []).append((parts[plan][term], label, lam, delta, time))
    hat = spectral.fft_spatial(u.data, u.grid) if any(any(g) for g, _ in uses) else None
    for key, entries in uses.items():
        maxima = _Maxima(_derivative(u, hat, *key), n_random)
        for entry in entries:
            maxima.add_terms(*entry)
        del maxima
    reports = []
    for part, (_, lam, _) in zip(parts, plans):
        # pairs are counted (and sampled) only if lam > 0
        pairs = pair_set(u.grid, n_random)[0].size if lam > 0 else 0
        breakdown = {name: value for terms in part for name, value in terms.items()}
        reports.append(NormReport(float(sum(breakdown.values())), breakdown, pairs))
    return reports


def spatial_norm(u: FormField, p: HolderParams, *,
                 n_random: int = DEFAULT_RANDOM_PAIRS) -> NormReport:
    """Weighted spatial Holder norm: sum over |alpha| <= s of sup parts with
    weight delta+|alpha|, lambda-seminorm parts, and the unweighted Holder
    norm over the unit ball around the origin."""
    u._require("u", time_dependent=False)
    terms = [("a=" + "".join(map(str, alpha)), (alpha, 0), p.delta + total)
             for total in range(p.s + 1) for alpha in _multi_orders(u.grid.n, total)]
    return _norms(u, n_random, (terms, p.lam, False))[0]


def _anisotropic_plan(n: int, p: HolderParams) -> tuple[list, float, bool]:
    """The plan of the anisotropic norm at p, for _norms."""
    terms = []
    for bt in range(p.k + 1):
        for beta in _multi_orders(n, bt):
            for j in range(p.s + 1):
                for at in range(2 * (p.s - j) + 1):
                    for alpha in _multi_orders(n, at):
                        gamma = tuple(a + b for a, b in zip(alpha, beta))
                        label = f"a={''.join(map(str, alpha))},j={j},b={''.join(map(str, beta))}"
                        terms.append((label, (gamma, j), p.delta + at + bt))
    return terms, p.lam, True


def anisotropic_norm(u: FormField, p: HolderParams, *,
                     n_random: int = DEFAULT_RANDOM_PAIRS) -> NormReport:
    """Anisotropic weighted norm summing, over |alpha| + 2j <= 2s and
    |beta| <= k, sup terms with weight delta+|alpha|+|beta|, spatial
    lambda-seminorms, near-origin terms, and temporal (lambda/2)-seminorms
    of d_t^j d^(alpha+beta) u."""
    return _norms(u, n_random, _anisotropic_plan(u.grid.n, p))[0]


def f_norm(u: FormField, p: HolderParams, *, n_random: int = DEFAULT_RANDOM_PAIRS) -> float:
    """Two-norm space value: the (k+1, lambda) anisotropic norm plus the
    (k, lambda') one, streamed in one pass that forms each derivative once."""
    if p.lam_prime is None:
        raise ValueError("f_norm needs lambda_prime")
    first, second = _norms(
        u, n_random, _anisotropic_plan(u.grid.n, replace(p, k=p.k + 1, lam_prime=None)),
        _anisotropic_plan(u.grid.n, replace(p, lam=p.lam_prime, lam_prime=None)))
    return first.total + second.total


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def l2_embedding_constant(n: int, delta: float) -> float:
    """Constant c with ||u(.,t)||_L2 <= c * weighted_sup(u, delta); finite for
    delta > n/2, where c^2 = int_{R^n} (1+|x|^2)^(-delta) dx
    = pi^(n/2) Gamma(delta - n/2) / Gamma(delta)."""
    if not math.isfinite(delta):
        raise ValueError(f"delta: must be finite, got {delta}")
    if not delta > n / 2.0:
        raise ValueError(f"integral diverges for delta <= n/2 (delta={delta}, n={n})")
    return math.sqrt(math.pi ** (n / 2.0) * math.gamma(delta - n / 2.0) / math.gamma(delta))
