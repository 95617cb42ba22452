"""Exterior algebra and calculus on differential forms sampled over the grid.

Forms of degree q carry binom(n,q) component arrays indexed by increasing
multi-indices. Spatial derivatives are spectral on the periodic truncation,
time derivatives are second-order finite differences, so the continuum
identities (d^2 = 0, the de Rham Laplacian factorization, commutation with the
heat operator) hold to rounding in space and to O(dt^2) in time.

Every spectral operator is a cached read-only symbol table applied to the
Fourier coefficients by _apply_symbol: d and the codifferential here, whose
table is d's transposed and negated (its formal adjoint), grad_newton in
potentials, and Leray projection and the dissipation in nse built from those
tables. The pointwise product *(*a ^ b) of a 2-form and a 1-form, the Q stage
of the reduced map, is _star_wedge_sum. Every operator states its arguments'
degree, time extent and grid once, through FormField._require, and the time
stencil its M; each refusal starts with the argument's name. The module holds
no mutable state. It alone states the layout of a form's data (_layout):
components, then the M+1 slices of a field over time, then space. A FormField
reads its time extent from its data's axes, and FormField.flat() is the one
per-slice view, (components, time slices, N^n), that other modules reduce over.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import GridSpec, _check_mu, _read_only
from . import spectral


def multi_indices(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Increasing multi-indices of length q from {0,...,n-1}."""
    return tuple(itertools.combinations(range(n), q))


def form_rank(n: int, q: int) -> int:
    return math.comb(n, q)


def _layout(grid: GridSpec, degree: int, time_dependent: bool) -> tuple[int, ...]:
    """The shape of the data of a degree-q form on grid, static or over time."""
    return (form_rank(grid.n, degree),) + (grid.M + 1,) * time_dependent + grid.spatial_shape


def _perm_sign(seq) -> int:
    """Sign of the permutation sorting `seq` (distinct entries)."""
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _wedge_sign(I: tuple[int, ...], J: tuple[int, ...]):
    """Merged index and sign of dx^I ^ dx^J, or (None, 0) if they collide."""
    if set(I) & set(J):
        return None, 0
    concat = I + J
    return tuple(sorted(concat)), _perm_sign(concat)


def _star_pair(n: int, I: tuple[int, ...]):
    """Complement index I^c and sign with dx^I ^ (star dx^I) = dx."""
    comp = tuple(j for j in range(n) if j not in I)
    return comp, _perm_sign(I + comp)


@dataclass
class FormField:
    """Degree-q differential form sampled on a grid.

    data has shape (binom(n,q), N, ..., N) for a static field and
    (binom(n,q), M+1, N, ..., N) for a field over time: the number of axes is
    the time extent, which time_dependent reads. Component order follows
    increasing multi-indices. data may be assigned again, in place (+=) or
    whole, only with an array of its shape, so a form keeps its layout.
    """

    grid: GridSpec
    degree: int
    data: np.ndarray

    def __setattr__(self, name: str, value) -> None:
        if name == "data" and "data" in vars(self):
            value = np.asarray(value, dtype=float)
            if value.shape != self.data.shape:
                raise ValueError(f"data: shape {value.shape}, expected {self.data.shape}: "
                                 "a form keeps its layout")
        super().__setattr__(name, value)

    def __post_init__(self) -> None:
        n = self.grid.n
        if not 0 <= self.degree <= n:
            raise ValueError(f"degree must lie in 0..{n}, got {self.degree}")
        self.data = np.asarray(self.data, dtype=float)
        want = _layout(self.grid, self.degree, self.time_dependent)
        if self.data.shape != want:
            raise ValueError(f"component array shape {self.data.shape}, expected {want}")

    @property
    def time_dependent(self) -> bool:
        return self.data.ndim == self.grid.n + 2

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, grid: GridSpec, degree: int, time_dependent: bool = False) -> "FormField":
        return cls(grid, degree, np.zeros(_layout(grid, degree, time_dependent)))

    @classmethod
    def from_components(cls, grid: GridSpec, degree: int, comps) -> "FormField":
        return cls(grid, degree, np.stack([np.asarray(c, dtype=float) for c in comps]))

    # -- access -------------------------------------------------------------

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return multi_indices(self.grid.n, self.degree)

    def component(self, I: tuple[int, ...]) -> np.ndarray:
        return self.data[self.indices.index(tuple(I))]

    def copy(self) -> "FormField":
        return FormField(self.grid, self.degree, self.data.copy())

    def flat(self) -> np.ndarray:
        """data as (components, time slices, N^n), one slice for a static
        form: a view on data's memory when data is contiguous, as every
        operator's output is."""
        return self.data.reshape(len(self.data), -1, self.grid.N ** self.grid.n)

    def slice_at(self, j: int) -> "FormField":
        """Static field holding time slice j, an integer in 0..M."""
        self._require("self", time_dependent=True)
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or not 0 <= j <= self.grid.M:
            raise ValueError(f"j: must be an integer in 0..{self.grid.M}, got {j!r}")
        return FormField(self.grid, self.degree, self.data[:, j].copy())

    def _require(self, name: str, degree: int | range | None = None,
                 time_dependent: bool | None = None, like: tuple | None = None) -> None:
        """The one signature rule of the operators: refuse, naming the argument, a
        form not of degree `degree` (an int, or a range open at one end of 0..n),
        not time_dependent, or not on the grid of the form in like = (name, form)."""
        extent = {None: "", False: "static ", True: "time-dependent "}
        ok = self.degree in degree if isinstance(degree, range) else degree in (None, self.degree)
        kind = "form" if degree is None else f"{degree}-form"
        if isinstance(degree, range):
            kind = f"form of degree {f'>= {degree.start}' if degree.start else f'<= {degree[-1]}'}"
        if not ok or time_dependent not in (None, self.time_dependent):
            raise ValueError(f"{name}: must be a {extent[time_dependent]}{kind}, "
                             f"got a {extent[self.time_dependent]}{self.degree}-form")
        if like is not None and self.grid != like[1].grid:
            raise ValueError(f"{name}: grid mismatch, {self.grid} against {like[1].grid} "
                             f"of {like[0]}")

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "FormField") -> "FormField":
        other._require("other", self.degree, self.time_dependent, like=("self", self))
        return FormField(self.grid, self.degree, self.data + other.data)

    def __sub__(self, other: "FormField") -> "FormField":
        other._require("other", self.degree, self.time_dependent, like=("self", self))
        return FormField(self.grid, self.degree, self.data - other.data)

    def __mul__(self, a: float) -> "FormField":
        return FormField(self.grid, self.degree, self.data * float(a))

    __rmul__ = __mul__

    def __neg__(self) -> "FormField":
        return self * -1.0

    # -- measures -----------------------------------------------------------

    def sup_norm(self) -> float:
        """max |data|, from the largest and the smallest entry, so that no
        array the size of the field is formed; a NaN entry gives NaN, and
        adding 0.0 turns the -0.0 of a field of zeros into 0.0, as abs does."""
        if not self.data.size:
            return 0.0
        return float(np.maximum(self.data.max(), -self.data.min()) + 0.0)

    def l2_slices(self) -> np.ndarray:
        """Plain Riemann-sum L2 norm per time slice, summed over components."""
        sq = np.sum(self.flat() ** 2, axis=2) * self.grid.h ** self.grid.n
        return np.sqrt(np.sum(sq, axis=0))

    def l2_norm(self) -> float:
        return float(np.max(self.l2_slices()))


def rel_err(a: FormField, b: FormField) -> float:
    """sup|a-b| / sup|b| (or absolute sup when b vanishes)."""
    denom = b.sup_norm()
    diff = (a - b).sup_norm()
    return diff / denom if denom > 0 else diff


# ---------------------------------------------------------------------------
# exterior calculus
# ---------------------------------------------------------------------------


def wedge(u: FormField, v: FormField) -> FormField:
    """Pointwise exterior product of a q-form and an r-form."""
    v._require("v", time_dependent=u.time_dependent, like=("u", u))
    q, r = u.degree, v.degree
    if q + r > u.grid.n:
        raise ValueError(f"degree overflow: {q} + {r} > {u.grid.n}")
    out = FormField.zero(u.grid, q + r, u.time_dependent)
    pos = {I: c for c, I in enumerate(out.indices)}
    for I, uI in zip(u.indices, u.data):
        for J, vJ in zip(v.indices, v.data):
            K, s = _wedge_sign(I, J)
            if s:
                out.data[pos[K]] += s * uI * vJ
    return out


def hodge_star(u: FormField) -> FormField:
    """Hodge star: component permutation with signs, dx^I ^ (star dx^I) = dx."""
    n = u.grid.n
    out = FormField.zero(u.grid, n - u.degree, u.time_dependent)
    pos = {I: c for c, I in enumerate(out.indices)}
    for I, uI in zip(u.indices, u.data):
        comp, s = _star_pair(n, I)
        out.data[pos[comp]] = s * uI
    return out


@lru_cache(maxsize=32)
def _d_symbol(grid: GridSpec, degree: int) -> tuple:
    """Symbol table of d on the Fourier coefficients of a degree-q form: for
    each component of the (q+1)-form, the terms (source component,
    sign * i k_i), sources in increasing order. Read-only."""
    n = grid.n
    ks = spectral.wavenumbers(grid)
    pos = {I: c for c, I in enumerate(multi_indices(n, degree))}
    table = []
    for K in multi_indices(n, degree + 1):
        terms = []
        for i in K:
            I = tuple(j for j in K if j != i)
            terms.append((pos[I], _read_only(_perm_sign((i,) + I) * (1j * ks[i]))))
        table.append(tuple(sorted(terms, key=lambda term: term[0])))
    return tuple(table)


@lru_cache(maxsize=32)
def _codiff_symbol(grid: GridSpec, degree: int) -> tuple:
    """Symbol table of the codifferential on the Fourier coefficients of a
    degree-q form, in the layout of _d_symbol: as the formal adjoint of d, it
    is d's table on (q-1)-forms transposed and negated, the term (c, m) of d's
    row src becoming the term (src, -m) of row c. Read-only."""
    table = [[] for _ in multi_indices(grid.n, degree - 1)]
    for c, terms in enumerate(_d_symbol(grid, degree - 1)):
        for src, mult in terms:
            table[src].append((c, _read_only(-mult)))
    return tuple(map(tuple, table))


def _apply_symbol(table: tuple, hat: np.ndarray, out: np.ndarray | None = None,
                  tmp: np.ndarray | None = None) -> np.ndarray:
    """out[c] = sum of mult * hat[src] over the terms (src, mult) of table[c],
    written in place. out (components first) and tmp (one component) are
    allocated when not given."""
    if out is None:
        out = np.empty((len(table),) + hat.shape[1:], dtype=complex)
    for c, ((src, mult), *rest) in enumerate(table):
        np.multiply(hat[src], mult, out=out[c])
        for src, mult in rest:
            if tmp is None:
                tmp = np.empty(hat.shape[1:], dtype=complex)
            np.multiply(hat[src], mult, out=tmp)
            out[c] += tmp
    return out


@lru_cache(maxsize=2)
def _star_wedge_table(n: int) -> tuple:
    """Terms of *(*a ^ b) for a 2-form a and a 1-form b: for each component
    of the resulting 1-form, the tuples (sign, component of a, component of
    b)."""
    pos = {I: c for c, I in enumerate(multi_indices(n, 1))}
    table = [[] for _ in pos]
    for ia, I in enumerate(multi_indices(n, 2)):
        comp, s_a = _star_pair(n, I)
        for ib, J in enumerate(multi_indices(n, 1)):
            K, s_k = _wedge_sign(comp, J)
            if s_k:
                out, s_out = _star_pair(n, K)
                table[pos[out]].append((s_a * s_k * s_out, ia, ib))
    return tuple(tuple(terms) for terms in table)


def _star_wedge_sum(pairs, out: np.ndarray | None = None,
                    tmp: np.ndarray | None = None) -> np.ndarray:
    """out = sum over (a, b) in pairs of *(*a ^ b), for component arrays a of
    2-forms and b of 1-forms, written in place. out (the shape of b) and tmp
    (one component) are allocated when not given."""
    if out is None:
        out = np.empty(pairs[0][1].shape)
    for c, terms in enumerate(_star_wedge_table(len(out))):
        (sign, x, y), *rest = [(sign, a[ia], b[ib]) for a, b in pairs for sign, ia, ib in terms]
        np.multiply(x, y, out=out[c])
        if sign < 0:
            np.negative(out[c], out=out[c])
        for sign, x, y in rest:
            if tmp is None:
                tmp = np.empty(out.shape[1:])
            np.multiply(x, y, out=tmp)
            (np.add if sign > 0 else np.subtract)(out[c], tmp, out=out[c])
    return out


def exterior_derivative(u: FormField) -> FormField:
    """Exterior derivative with spectral spatial derivatives."""
    u._require("u", range(u.grid.n))
    out_hat = _apply_symbol(_d_symbol(u.grid, u.degree), spectral.fft_spatial(u.data, u.grid))
    return FormField(u.grid, u.degree + 1, spectral.ifft_spatial(out_hat, u.grid))


def codifferential(u: FormField) -> FormField:
    """Formal adjoint of d for the flat metric; on 1-forms equals -div."""
    u._require("u", range(1, u.grid.n + 1))
    out_hat = _apply_symbol(_codiff_symbol(u.grid, u.degree),
                            spectral.fft_spatial(u.data, u.grid))
    return FormField(u.grid, u.degree - 1, spectral.ifft_spatial(out_hat, u.grid))


def componentwise_laplacian(u: FormField) -> FormField:
    """Scalar Laplacian applied to every component (spectral)."""
    hat = -spectral.ksq(u.grid) * spectral.fft_spatial(u.data, u.grid)
    return FormField(u.grid, u.degree, spectral.ifft_spatial(hat, u.grid))


def laplacian_form(u: FormField) -> FormField:
    """Form Laplacian d*d + dd* (equals minus the componentwise Laplacian)."""
    n = u.grid.n
    out = FormField.zero(u.grid, u.degree, u.time_dependent)
    if u.degree < n:
        out = out + codifferential(exterior_derivative(u))
    if u.degree > 0:
        out = out + exterior_derivative(codifferential(u))
    return out


def time_derivative(u: FormField) -> FormField:
    """d/dt by second-order central differences, one-sided at t = 0, T."""
    if not u.time_dependent:
        return FormField.zero(u.grid, u.degree, False)
    return FormField(u.grid, u.degree, _time_difference(u.data, u.grid.dt, np.empty_like(u.data)))


def _check_time_stencil(M: int) -> None:
    """Refuse M time intervals, too few for the stencil of time_derivative."""
    if M < 4:
        raise ValueError(f"M: need M >= 4 time intervals for the time stencil, got {M}")


def _time_difference(a: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
    """The stencil of time_derivative on component arrays a (components, time
    slices, space), written into out."""
    _check_time_stencil(a.shape[1] - 1)
    np.subtract(a[:, 2:], a[:, :-2], out=out[:, 1:-1])
    out[:, 1:-1] /= 2.0 * dt
    out[:, 0] = (-3.0 * a[:, 0] + 4.0 * a[:, 1] - a[:, 2]) / (2.0 * dt)
    out[:, -1] = (3.0 * a[:, -1] - 4.0 * a[:, -2] + a[:, -3]) / (2.0 * dt)
    return out


def heat_operator(u: FormField, mu: float) -> FormField:
    """Heat operator d/dt - mu*Laplacian, applied componentwise."""
    _check_mu(mu)
    return time_derivative(u) - mu * componentwise_laplacian(u)


def substantial_derivative(u: FormField) -> FormField:
    """Advective derivative of a 1-form in Lamb form: d(|u|^2/2) + *(*du ^ u).

    The kinetic term is evaluated as *(u ^ *u)/2, the ordering for which the
    pairing equals |u|^2 pointwise in every dimension (the commuted order
    picks up (-1)^(n-1) for 1-forms, so the two agree only in odd dimension).
    """
    u._require("u", 1)
    kinetic = hodge_star(wedge(u, hodge_star(u))) * 0.5
    rotational = hodge_star(wedge(hodge_star(exterior_derivative(u)), u))
    return exterior_derivative(kinetic) + rotational


def bilinear_advective(u: FormField, v: FormField) -> FormField:
    """Symmetrized advection of two 1-forms:
    d*(u ^ *v) + *((*du)^v) + *((*dv)^u) = (v.grad)u + (u.grad)v."""
    u._require("u", 1)
    v._require("v", 1, u.time_dependent, like=("u", u))
    t1 = exterior_derivative(hodge_star(wedge(u, hodge_star(v))))
    t2 = hodge_star(wedge(hodge_star(exterior_derivative(u)), v))
    t3 = hodge_star(wedge(hodge_star(exterior_derivative(v)), u))
    return t1 + t2 + t3


def verify_factorization(u: FormField, p: FormField, mu: float) -> dict:
    """Apply both factor orders of the block matrices around the Stokes-type
    linear part to (u,p) and report deviations from the diagonal target
    (Lap^1 H_mu u, Lap^0 H_mu p).

    Returns relative sup-norm residuals: left/right products vs the target and
    the two products against each other.
    """
    _check_mu(mu)
    u._require("u", 1)
    p._require("p", 0, u.time_dependent, like=("u", u))

    def block_a(uu, h_uu, d_pp):  # A(uu, pp), given H uu and d pp
        return h_uu + d_pp, codifferential(uu)

    def block_b(uu, h_uu, h_pp, d_pp):  # B(uu, pp), given H uu, H pp and d pp
        return (codifferential(exterior_derivative(uu)) + heat_operator(d_pp, mu),
                codifferential(h_uu) - heat_operator(h_pp, mu))

    # each operator image is formed once and read by every product that needs it
    h_u, h_p, d_p = heat_operator(u, mu), heat_operator(p, mu), exterior_derivative(p)
    top, bot = block_b(u, h_u, h_p, d_p)
    left = block_a(top, heat_operator(top, mu), exterior_derivative(bot))
    top, bot = block_a(u, h_u, d_p)
    right = block_b(top, heat_operator(top, mu), heat_operator(bot, mu), exterior_derivative(bot))
    target = (laplacian_form(h_u), laplacian_form(h_p))

    scale = max(target[0].sup_norm(), target[1].sup_norm(), 1e-300)

    def dev(pair):
        return max((pair[0] - target[0]).sup_norm(), (pair[1] - target[1]).sup_norm()) / scale

    return {
        "left_vs_diag": dev(left),
        "right_vs_diag": dev(right),
        "left_vs_right": max((left[0] - right[0]).sup_norm(), (left[1] - right[1]).sup_norm()) / scale,
        "scale": scale,
    }
