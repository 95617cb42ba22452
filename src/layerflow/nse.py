"""The Navier-Stokes reduction: quadratic vorticity operators, their
linearizations, the fixed-point solve of the reduced equation
g + Psi_mu D2 g = g0, recovery of velocity and pressure, and diagnostics.

The solver treats the whole space-time vorticity field as one unknown; Picard
mirrors the contraction structure for small data, Newton mode the invertible
derivative, with matrix-free Krylov linear solves (_gmres). The reduced map is
two plain functions that hold no state: the residual (_residual) and the
Krylov matvec of its derivative (_derivative). Both form the coefficients of
d q with one helper (_d_q_hat): the Q stage *(*a ^ b), which op_Q and op_U0
form with the same forms._star_wedge_sum, its forward transform and d; then
they run the Duhamel recursion and add their argument, each intermediate a
fresh array freed once the next stage has used it. assemble_g0 runs the same
d and Duhamel recursion on df. Psi_mu vanishes at t = 0, where the data fix
every solution (g_0 = g0_0 = du0), so a solve's unknown is the window
t_1..t_M. Its first residual transforms the whole field and returns F_0, the
coefficients of d q at t = 0; the solve keeps that F_0 as a local and passes
it to every later residual, which transforms and propagates the window alone.
Every residual returns slices 1..M. A Newton step's GMRES runs on the window
too: its right-hand side is the residual, its Krylov vectors and matvecs span
slices 1..M, and Picard and Newton both subtract their step from those slices,
bit for bit as over whole-field vectors under one BLAS thread (a
multi-threaded inner product may split M and M + 1 slices at other points and
round apart). The pressure, the momentum residual and, per time slice,
sup |d*u| and the sums of |du|^2 and |d*u|^2 of a time-dependent velocity
come from one spectral pass (_momentum), which recover_pressure, the recovery
of a solve, nse_residual and momentum_operator share; it refuses a static
velocity, as energy_report does, before any transform. It and energy_report
bring du and d*u back with one table and one inverse (_d_and_codiff), and the
pass reduces them to those figures as soon as du has served, so no divergence
field outlives it. A solve's recovery builds its residual diagnostics and its
energy table (diagnostics["energy"], energy_report's bit for bit) from those
figures. A solved state keeps the flow-map image H_mu u + D1 u + dp that its
residual diagnostics formed (the residual plus f), so momentum_operator (with
it solution_metric) reads it there instead of running the pass again; it and
the arrays of u and p are read-only. Every function that needs the
viscosity takes mu itself and checks it first; a solve reads it from
SolverConfig.potential. Each operator checks its form arguments with
FormField._require, and LinearizationData and FlowState their fields when
built, so the reduced map trusts its inputs. The residual diagnostics and
energy_report reduce each slice over FormField.flat(), the per-slice view of
forms, which owns the layout of a form's data. The velocity that the reduced
map and its derivative form is grad_newton's own: its symbol table, applied
by forms._multiplier, the one spectral round trip.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from .forms import (FormField, _apply_symbol, _check_time_stencil, _codiff_symbol, _d_symbol,
                    _multiplier, _star_wedge_sum, _sup, _time_difference, exterior_derivative,
                    hodge_star, wedge)
from .geometry import GridSpec, _check_mu, _read_only, _set_counts
from .holder import HolderParams, f_norm, spatial_norm
from .potentials import (PotentialConfig, _duhamel, _grad_newton_symbol, grad_newton,
                         poisson_potential)
from . import spectral


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "picard"
    tol: float = 1e-8
    max_iter: int = 50
    krylov_tol: float = 1e-10
    krylov_max: int = 200
    potential: PotentialConfig = field(default_factory=PotentialConfig)

    def __post_init__(self) -> None:
        if self.mode not in ("picard", "newton"):
            raise ValueError(f"mode: must be 'picard' or 'newton', got {self.mode!r}")
        for name in ("tol", "krylov_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be positive and finite, got {getattr(self, name)}")
        _set_counts(self, "max_iter", least=0)
        _set_counts(self, "krylov_max", least=1)
        if not isinstance(self.potential, PotentialConfig):
            raise ValueError(f"potential: must be a PotentialConfig, got {self.potential!r}")


@dataclass
class LinearizationData:
    """Frozen coefficients (g0_form, v1) of the first-order linearization."""

    g0_form: FormField
    v1: FormField

    def __post_init__(self) -> None:
        self.g0_form._require("g0_form", 2)
        self.v1._require("v1", 1, self.g0_form.time_dependent, like=("g0_form", self.g0_form))

    @classmethod
    def from_base_velocity(cls, u0: FormField) -> "LinearizationData":
        """Base-point data g0 = du0, v1 = u0 (the linearization of the
        advective term at u0)."""
        return cls(g0_form=exterior_derivative(u0), v1=u0)

    @classmethod
    def from_base_vorticity(cls, g0: FormField) -> "LinearizationData":
        """Base-point data built from a vorticity 2-form: v1 is its
        divergence-free primitive."""
        return cls(g0_form=g0, v1=grad_newton(g0))


@dataclass
class FlowState:
    """Solution triple (u, p, g = du) plus diagnostics; carries its data.

    A state recovered from a solve also carries its flow-map image
    H_mu u + D1 u + dp, read-only, with the mu and the arrays of u and p it
    was formed from; momentum_operator reads it there (see its docstring).
    """

    u: FormField
    p: FormField
    g: FormField
    f: FormField | None = None
    u0: FormField | None = None
    diagnostics: dict = field(default_factory=dict)
    _image: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        u, td = self.u, self.u.time_dependent
        u._require("u", 1)
        for name, x, degree, extent in (("p", self.p, 0, td), ("g", self.g, 2, td),
                                        ("f", self.f, 1, True), ("u0", self.u0, 1, None)):
            if x is not None:
                x._require(name, degree, extent, like=("u", u))


class ReducedSolveError(RuntimeError):
    """A failed reduced solve: its last iterate, history and last residual,
    and the state solve_nse recovers from last_g (None from solve_reduced)."""

    def __init__(self, message: str, last_g: FormField, history: list[dict]):
        super().__init__(message)
        self.last_g = last_g
        self.history = history
        self.residual = history[-1]["residual"] if history else float("nan")
        self.state: FlowState | None = None


def leray_project(u: FormField) -> FormField:
    """Divergence-free projection u - d(grad_newton(u)) on the nonzero modes
    (the zero mode, a constant field, is already divergence-free and passes
    through)."""
    u._require("u", 1)
    grid = u.grid
    hat = spectral.fft_spatial(u.data, grid)
    hat -= _apply_symbol(_d_symbol(grid, 0), _apply_symbol(_grad_newton_symbol(grid, 1), hat))
    return FormField(grid, 1, spectral.ifft_spatial(hat, grid))


def op_Q(g: FormField) -> FormField:
    """Quadratic operator *(*g ^ grad_newton(g)) taking 2-forms to 1-forms."""
    g._require("g", 2)
    return FormField(g.grid, 1, _star_wedge_sum(((g.data, grad_newton(g).data),)))


def op_D2(g: FormField) -> FormField:
    """Quadratic vorticity operator d(op_Q(g)); the degree-2 face of the
    advective nonlinearity."""
    return exterior_derivative(op_Q(g))


def op_V0(u: FormField, lin: LinearizationData) -> FormField:
    """First-order linearization *(*g0 ^ u) + *(*du ^ v1) + d*(v1 ^ *u).

    The gradient term pairs v1 with u in the ordering that equals (v1 . u)
    pointwise in every dimension; it is annihilated by d in the homomorphism
    identity either way.
    """
    u._require("u", 1, lin.v1.time_dependent, like=("lin", lin.v1))
    out = hodge_star(wedge(hodge_star(lin.g0_form), u))
    out = out + hodge_star(wedge(hodge_star(exterior_derivative(u)), lin.v1))
    out = out + exterior_derivative(hodge_star(wedge(lin.v1, hodge_star(u))))
    return out


def op_U0(f: FormField, lin: LinearizationData) -> FormField:
    """Linearized transfer *(*g0 ^ grad_newton(f)) + *(*f ^ v1) on 2-forms."""
    f._require("f", 2, lin.g0_form.time_dependent, like=("lin", lin.g0_form))
    return FormField(f.grid, 1, _star_wedge_sum(((lin.g0_form.data, grad_newton(f).data),
                                                 (f.data, lin.v1.data))))


def op_W0(f: FormField, lin: LinearizationData) -> FormField:
    """d comp op_U0: the 2-form side of the linearized homomorphism."""
    return exterior_derivative(op_U0(f, lin))


def assemble_g0(f: FormField | None, u0: FormField, mu: float) -> FormField:
    """Right-hand side of the reduced equation, g0 = P_mu du0 + Psi_mu df:
    one Duhamel recursion started from du0, forced by df when f is given."""
    _check_mu(mu)
    _check_data(f, u0)
    du0 = exterior_derivative(u0)
    if f is None:
        return poisson_potential(du0, mu)
    grid = u0.grid
    dfhat = _apply_symbol(_d_symbol(grid, 1), spectral.fft_spatial(f.data, grid))
    return FormField(grid, 2, _duhamel(grid, mu, du0.data, dfhat))


def _check_data(f: FormField | None, u0: FormField) -> None:
    """Refuse, naming the argument, a u0 that is not a static 1-form and an f
    that is not a time-dependent 1-form on the grid of u0."""
    u0._require("u0", 1, False)
    if f is not None:
        f._require("f", 1, True, like=("u0", u0))


def _d_q_hat(grid: GridSpec, pairs: list) -> np.ndarray:
    """The coefficients of d q, q = sum of *(*a ^ b) over the list pairs of
    (a, b): one forward transform. pairs is emptied once q is formed,
    freeing a velocity no caller keeps, and q once transformed."""
    q = _star_wedge_sum(pairs)
    pairs.clear()
    q = spectral.fft_spatial(q, grid)
    return _apply_symbol(_d_symbol(grid, 1), q)


def _residual(g: FormField, g0: FormField, mu: float, f0: np.ndarray | None = None,
              keep_velocity: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Slices 1..M of the reduced map g + Psi_mu D2 g - g0 at a g whose slice 0
    is g0's, as every solution's is (Psi_mu vanishes at t = 0); the F_0 it
    propagated from, the t = 0 coefficients of d q, which that slice fixes;
    and, if kept, the velocity grad_newton(g) over slices 1..M it formed on
    the way, the v1 of the linearization at g. With no f0 it transforms the
    whole field and forms F_0; given the F_0 of an earlier residual with
    g0's slice 0, the window t_1..t_M only. Four transforms; each
    intermediate is a fresh array, freed once the next stage has used it,
    and a velocity not kept is freed before the Duhamel pass."""
    grid, first = g.grid, int(f0 is not None)
    window = g.data[:, first:]
    pairs = [(window, _multiplier(grid, _grad_newton_symbol(grid, 2), window))]
    v = pairs[0][1] if keep_velocity else None
    if v is not None and not first:  # a copy of slices 1..M, so the whole velocity is freed
        v = v[:, 1:].copy()
    dq = _d_q_hat(grid, pairs)
    if f0 is None:
        f0, dq = dq[:, 0].copy(), dq[:, 1:]
    res = _duhamel(grid, mu, None, dq, f0)
    res += g.data[:, 1:]
    res -= g0.data[:, 1:]
    return res, f0, v


def _derivative(grid: GridSpec, mu: float, g0: np.ndarray, v1: np.ndarray):
    """The matvec h -> h + Psi_mu W0 h of the reduced map's derivative at the
    linearization (g0, v1), the data of a 2-form over time and of its
    velocity, on the time slices v1 spans: the window t_1..t_M when v1 holds
    that window only (M slices), for vectors that vanish at t = 0 (F_0 = 0),
    as every Krylov vector of a right-hand side that does; the whole field
    otherwise. It maps the data h of a 2-form over those slices to a fresh
    array over them, with four transforms."""
    first = grid.M + 1 - v1.shape[1]

    def matvec(h: np.ndarray) -> np.ndarray:
        # the velocity of h is held by the pair list alone, which _d_q_hat empties
        pairs = [(g0[:, first:], _multiplier(grid, _grad_newton_symbol(grid, 2), h)), (h, v1)]
        out = _duhamel(grid, mu, None, _d_q_hat(grid, pairs))
        out += h
        return out

    return matvec


def frechet_apply(h: FormField, base_g: FormField, mu: float) -> FormField:
    """Derivative of the reduced map at base_g applied to h:
    h + Psi_mu W0 h with the linearization frozen at base_g, the whole-field
    matvec of _derivative on the data of h."""
    _check_mu(mu)
    base_g._require("base_g", 2, True)
    h._require("h", 2, True, like=("base_g", base_g))
    matvec = _derivative(base_g.grid, mu, base_g.data, grad_newton(base_g).data)
    return FormField(h.grid, 2, matvec(h.data))


def _gmres(matvec, b: np.ndarray, rtol: float, max_matvecs: int) -> tuple[np.ndarray, dict]:
    """Restarted GMRES (Saad & Schultz 1986) for A x = b from x = 0, as
    scipy.sparse.linalg.gmres runs it with atol 0: modified Gram-Schmidt,
    Givens rotations, a restart every 60 matvecs, each cycle ending on the
    true residual b - A x and the next cycle's inner tolerance adapted to it.
    The vectors have the shape of b and matvec maps one to a fresh one.

    The basis is a list that grows by the array each matvec returns,
    orthogonalized and normalized in place; each modified Gram-Schmidt
    product is a transient formed after the matvec has returned. The update
    scales the spent basis in place and sums it into the memory of its first
    vector, which holds x from then on: no x is held before the first cycle
    ends, and no scratch vector at all, so a cycle of k matvecs holds the
    basis, the matvec's output and at most one transient. At most
    max_matvecs matvecs go into the basis, plus one per cycle for the true
    residual. Returns x and the matvecs spent with the relative true
    residual reached."""
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros_like(b), {"krylov_matvecs": 0, "krylov_residual": 0.0}
    eps = np.finfo(float).eps
    restart = min(max_matvecs, 60, b.size)
    atol = ptol = rtol * bnorm
    factor, spent, cycles = 1.0, 0, 0
    x, r, rnorm = None, b.copy(), bnorm
    while True:
        basis, rhs = [np.multiply(r, 1.0 / rnorm, out=r)], [rnorm]
        h = np.zeros((restart, restart + 1))  # h[j] is column j of the Hessenberg matrix
        rot: list[tuple[float, float]] = []
        breakdown = False
        for col in range(min(restart, max_matvecs - spent)):
            w = matvec(basis[col])
            spent += 1
            h0 = np.linalg.norm(w)
            for k, v in enumerate(basis):
                h[col, k] = np.vdot(v, w)
                w -= v * h[col, k]
            h1 = np.linalg.norm(w)
            breakdown = h1 <= eps * h0
            h[col, col + 1] = 0.0 if breakdown else h1
            if not breakdown:
                basis.append(np.multiply(w, 1.0 / h1, out=w))
            # the earlier Givens rotations, then one that zeroes the
            # subdiagonal (LAPACK dlartg's: the diagonal keeps the sign of f)
            for k, (c, s) in enumerate(rot):
                h[col, k], h[col, k + 1] = c * h[col, k] + s * h[col, k + 1], \
                    c * h[col, k + 1] - s * h[col, k]
            f, g = h[col, col], h[col, col + 1]
            if g == 0:
                c, s, mag = 1.0, 0.0, f
            else:
                mag = math.copysign(math.sqrt(f * f + g * g), f)
                c, s = f / mag, g / mag
            rot.append((c, s))
            h[col, col], h[col, col + 1] = mag, 0.0
            rhs[col:] = [c * rhs[col], -s * rhs[col]]
            presid = abs(rhs[col + 1])
            if presid <= ptol or breakdown:
                break
        # back substitution; a zero pivot (singular A) drops its term
        y = np.array(rhs[:col + 1])
        if h[col, col] == 0:
            y[col] = 0.0
        for k in range(col, -1, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        for k in range(col + 1):
            basis[k] *= y[k]
        # x + y[0] basis[0] in the memory of basis[0]: the first cycle adds
        # 0.0, as a sum from zeros does, which turns a -0.0 into +0.0
        x = np.add(basis[0], 0.0 if x is None else x, out=basis[0])
        for v in basis[1:col + 1]:
            x += v
        del basis, v, w  # freed before the true-residual matvec allocates
        r = matvec(x)
        cycles += 1
        np.subtract(b, r, out=r)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown or spent >= max_matvecs:
            return x, {"krylov_matvecs": spent + cycles, "krylov_residual": rnorm / bnorm}
        # the next inner tolerance, tightened when the last one was met
        factor = max(eps, 0.25 * factor) if presid <= ptol else min(1.0, 1.5 * factor)
        ptol = presid * min(factor, atol / rnorm)


def _check_krylov(krylov: dict, cfg: SolverConfig, last_g: FormField, history: list[dict],
                  prefix: str = "") -> None:
    """Raise ReducedSolveError, carrying last_g and history, for a Krylov
    solve that missed krylov_tol."""
    if not krylov["krylov_residual"] <= cfg.krylov_tol:
        raise ReducedSolveError(
            f"{prefix}Krylov solve not converged: relative residual "
            f"{krylov['krylov_residual']:.3e} > krylov_tol {cfg.krylov_tol:.1e} after "
            f"{krylov['krylov_matvecs']} matvecs", last_g, history)


def solve_linear_reduced(g0: FormField, lin: LinearizationData, cfg: SolverConfig) -> FormField:
    """Krylov solve of the linear reduced equation (I + Psi_mu W0) g = g0; one
    that misses krylov_tol raises ReducedSolveError carrying the partial
    iterate."""
    g0._require("g0", 2, True)
    lin.g0_form._require("lin.g0_form", time_dependent=True, like=("g0", g0))
    matvec = _derivative(g0.grid, cfg.potential.mu, lin.g0_form.data, lin.v1.data)
    sol, krylov = _gmres(matvec, g0.data, cfg.krylov_tol, cfg.krylov_max)
    sol = FormField(g0.grid, 2, sol)
    _check_krylov(krylov, cfg, sol, [])
    return sol


def solve_reduced(g0: FormField, base: FormField | None,
                  cfg: SolverConfig) -> tuple[FormField, list[dict]]:
    """Fixed-point solve of g + Psi_mu D2 g = g0 in the discrete sup norm.

    Picard iterates g <- g - damping * (g + Psi_mu D2 g - g0), reusing the
    residual already held; the damping starts at 1, is halved whenever a
    step would raise the residual (down to 1/64) and doubled back toward 1
    after each accepted step. Newton solves the linearized update by
    matrix-free Krylov iteration. Both start from base (from g0 when base is
    None) with g0's slice 0, which every solution has, as Psi_mu vanishes at
    t = 0. Returns the solution and the iteration history; a non-finite
    residual or a stalled Krylov solve raises ReducedSolveError carrying the
    last iterate and the history so far.
    """
    g0._require("g0", 2, True)
    if base is not None:
        base._require("base", 2, True, like=("g0", g0))
    g = (g0 if base is None else base).copy()
    g.data[:, 0] = g0.data[:, 0]
    damping = 1.0
    history: list[dict] = []
    grid, mu = g0.grid, cfg.potential.mu
    newton = cfg.mode == "newton"
    # Newton keeps the velocity each residual forms: the v1 of the next step
    res, f0, v1 = _residual(g, g0, mu, keep_velocity=newton)
    res_norm = _sup(res)
    history.append({"iteration": 0, "residual": res_norm, "damping": damping})
    _check_finite(res_norm, 0, g, history)
    for it in range(1, cfg.max_iter + 1):
        if res_norm <= cfg.tol:
            return g, history
        krylov = {}
        if newton:
            # the Newton update is -step: GMRES from 0 is odd in its right-hand
            # side, bit for bit, so res serves without a negated copy. It runs
            # on the window t_1..t_M, as res and every Krylov vector vanish at t = 0
            step, krylov = _gmres(_derivative(grid, mu, g.data, v1), res,
                                  cfg.krylov_tol, cfg.krylov_max)
            _check_krylov(krylov, cfg, g, history, f"Newton step {it}: ")
        else:
            step = res
        g_new = g.copy()
        g_new.data[:, 1:] -= damping * step
        del step  # freed before the residual at g_new
        res_new, _, v1_new = _residual(g_new, g0, mu, f0, keep_velocity=newton)
        res_new_norm = _sup(res_new)
        _check_finite(res_new_norm, it, g, history)
        if res_new_norm > res_norm and damping > 1.0 / 64.0:
            damping *= 0.5
            history.append({"iteration": it, "residual": res_norm, "damping": damping, **krylov})
            continue
        g, res, res_norm, v1 = g_new, res_new, res_new_norm, v1_new
        history.append({"iteration": it, "residual": res_norm, "damping": damping, **krylov})
        damping = min(1.0, 2.0 * damping)
    if res_norm <= cfg.tol:
        return g, history
    raise ReducedSolveError(
        f"no convergence after {cfg.max_iter} iterations (residual {res_norm:.3e})",
        g, history)


def _check_finite(res_norm: float, it: int, g: FormField, history: list[dict]) -> None:
    if not math.isfinite(res_norm):
        raise ReducedSolveError(
            f"non-finite residual ({res_norm}) at iteration {it}", g, history)


def recover_velocity(g: FormField) -> FormField:
    """Divergence-free velocity d*(Phi x I)g of a closed vorticity 2-form."""
    return grad_newton(g)


def recover_pressure(u: FormField, f: FormField | None, mu: float) -> FormField:
    """Pressure d*(Phi x I)(f - H_mu u - D1 u), zero mode fixed to 0."""
    _check_mu(mu)
    return _momentum(u, None, f, mu)[0]


def _d_and_codiff(grid: GridSpec, uhat: np.ndarray) -> tuple[FormField, FormField]:
    """du and d*u, for the coefficients uhat of a 1-form: one symbol table and
    one inverse, stacked in one array."""
    dw = spectral.ifft_spatial(
        _apply_symbol(_d_symbol(grid, 1) + _codiff_symbol(grid, 1), uhat), grid)
    return FormField(grid, 2, dw[:-1]), FormField(grid, 0, dw[-1:])


def _squared_sums(*forms: FormField, out: np.ndarray | None = None) -> np.ndarray:
    """The sum of |x|^2 over components and space, per time slice, of each
    form, squared in place: one row per form, in out when given."""
    if out is None:
        out = np.empty((len(forms), forms[0].data.shape[1]))
    for x, row in zip(forms, out):
        np.square(x.data, out=x.data)
        np.sum(x.flat(), axis=(0, 2), out=row)
    return out


def _gradient_add(grid: GridSpec, hat: np.ndarray, scalar: np.ndarray, tmp: np.ndarray) -> None:
    """hat += the coefficients of d of a 0-form whose coefficients are scalar."""
    for c, ((_, mult),) in enumerate(_d_symbol(grid, 0)):
        np.multiply(scalar, mult, out=tmp)
        hat[c] += tmp


def _momentum(u: FormField, p: FormField | None, f: FormField | None,
              mu: float) -> tuple[FormField, FormField, tuple[np.ndarray, ...]]:
    """The pressure, the momentum residual H_mu u + D1 u + dp - f and, per
    time slice, sup |d*u| and the sums of |du|^2 and |d*u|^2 of a velocity
    u, in one spectral pass.

    With B = H_mu u + D1 u - f (no f term when f is None), the pressure is
    p = -grad_newton(B) unless p is given. B's mean, which only a forcing
    with a mean brings, has no pressure and stays in the residual. The pass
    transforms u forward; brings du and d*u back in one inverse and reduces
    them to their per-slice figures once du has served; sends
    X = d_t u + *(*du ^ u) - f and |u|^2/2 (and a given p) forward in one;
    assembles B = X + mu |k|^2 u + d(|u|^2/2) and p on the coefficients;
    brings a recovered p back and forward again, so that the residual sees
    the p a caller passing it would; and brings B + dp back. Every inverse
    consumes coefficients of its own, and each array is freed once no later
    stage reads it. A static u, which has no time derivative, is refused
    before any transform.
    """
    grid, n = u.grid, u.grid.n
    for name, x, degree in (("u", u, 1), ("p", p, 0), ("f", f, 1)):
        if x is not None:
            x._require(name, degree, True, like=("u", u))
    uhat = spectral.fft_spatial(u.data, grid)
    du, div = _d_and_codiff(grid, uhat)
    np.abs(div.data, out=div.data)
    # one array for the three per-slice figures, so that fewer objects are
    # held through the transforms below
    figures = np.empty((3, u.data.shape[1]))
    np.max(div.flat(), axis=(0, 2), out=figures[0])
    x = np.empty((n + 1 + (p is not None),) + u.data.shape[1:])
    _star_wedge_sum(((du.data, u.data),), x[:n], x[n])
    _squared_sums(du, div, out=figures[1:])
    del du, div
    for c in range(n):
        x[c] += _time_difference(u.data[c:c + 1], grid.dt, x[n:n + 1])[0]
    if f is not None:
        x[:n] -= f.data
    np.multiply(u.data[0], u.data[0], out=x[n])
    for c in range(1, n):
        x[n] += u.data[c] * u.data[c]
    x[n] *= 0.5
    if p is not None:
        x[n + 1] = p.data[0]
    xhat = spectral.fft_spatial(x, grid)
    del x
    bhat, tmp = xhat[:n], np.empty_like(xhat[n])
    uhat *= mu * spectral.ksq(grid)
    bhat += uhat
    del uhat
    _gradient_add(grid, bhat, xhat[n], tmp)
    if p is None:
        phat = _apply_symbol(_grad_newton_symbol(grid, 1), bhat, xhat[n:], tmp)
        np.negative(phat, out=phat)
        p = FormField(grid, 0, spectral.ifft_spatial(phat, grid))
        phat = spectral.fft_spatial(p.data, grid)
    else:
        phat = xhat[n + 1:]
    _gradient_add(grid, bhat, phat[0], tmp)
    del phat, tmp
    residual = FormField(grid, 1, spectral.ifft_spatial(bhat, grid))
    return p, residual, figures


def _recover_state(g: FormField, f: FormField | None, u0: FormField, mu: float,
                   history: list[dict]) -> FlowState:
    """The state of a reduced solution g: velocity, then pressure, residual
    diagnostics and energy table from one momentum pass. Once the residual's
    norms are taken, f is added back to it in place: the state keeps the sum,
    the flow-map image H_mu u + D1 u + dp, for momentum_operator."""
    u = recover_velocity(g)
    p, residual, (div_sup, du_sq, div_sq) = _momentum(u, None, f, mu)
    state = FlowState(u=u, p=p, g=g, f=f, u0=u0,
                      diagnostics={"iterations": history,
                                   "residuals": _residuals(u, residual, div_sup, div_sq, u0),
                                   "energy": _energy_table(u, f, mu, (du_sq, div_sq))})
    if f is not None:
        residual.data += f.data
    state._image = (mu, u.data, p.data, _read_only(residual.data))
    for x in (u, p):  # a write into them would leave the image stale
        _read_only(x.data)
    return state


def _edge_sup(u: FormField) -> float:
    """The largest |value| of u on the box faces x_i = -L (periodic, so also
    +L), over components and time slices."""
    faces = u.data.reshape((-1,) + u.grid.spatial_shape)
    return max(float(np.max(np.abs(np.take(faces, 0, axis=1 + i)))) for i in range(u.grid.n))


def solve_nse(f: FormField | None, u0: FormField, cfg: SolverConfig) -> FlowState:
    """Full pipeline: project the initial velocity, assemble g0, solve the
    reduced equation, recover (u, p), attach diagnostics. Bad data
    (_check_data) and a grid too coarse in time are refused before any work.
    A failed solve's error carries the recovery of its last iterate (err.state).

    diagnostics holds the iteration history ("iterations"), the nse_residual
    norms ("residuals"), the table of energy_report(u, f, mu) ("energy") and
    ("edge") the largest |value| on the box faces of the projected u0, of f
    (when given), of g and of u: the periodic truncation stands in for R^n
    only as far as these vanish."""
    _check_data(f, u0)
    _check_time_stencil(u0.grid.M)
    u0p = leray_project(u0)
    err = None
    try:
        # g0 is freed when the solve returns, before recovery
        g, history = solve_reduced(assemble_g0(f, u0p, cfg.potential.mu), None, cfg)
    except ReducedSolveError as caught:
        err, g, history = caught, caught.last_g, caught.history
        # the traceback keeps the frames, not their locals (g0, the residuals,
        # the velocity), which recovery would otherwise add to
        for e in (err, err.__cause__):
            traceback.clear_frames(getattr(e, "__traceback__", None))
    state = _recover_state(g, f, u0p, cfg.potential.mu, history)
    state.diagnostics["edge"] = {name: _edge_sup(x) for name, x in
                                 (("u0", u0p), ("f", f), ("g", g), ("u", state.u))
                                 if x is not None}
    if err is None:
        return state
    err.state = state
    raise err


def nse_residual(state: FlowState, f: FormField | None, u0: FormField, mu: float) -> dict:
    """Sup and L2 norms of the momentum, divergence and initial-condition
    residuals, per time slice."""
    _check_mu(mu)
    u0._require("u0", 1, like=("state.u", state.u))
    _, residual, (div_sup, _, div_sq) = _momentum(state.u, state.p, f, mu)
    return _residuals(state.u, residual, div_sup, div_sq, u0)


def _residuals(u: FormField, mom: FormField, div_sup: np.ndarray, div_sq: np.ndarray,
               u0: FormField) -> dict:
    """nse_residual given the momentum residual and, per time slice, sup |d*u|
    and the sum of |d*u|^2."""
    ic = u.slice_at(0) - (u0 if not u0.time_dependent else u0.slice_at(0))
    hn = u.grid.h ** u.grid.n
    flat = mom.flat()
    return {"momentum_sup": np.max(np.abs(flat), axis=(0, 2)),
            "momentum_l2": np.sqrt(np.sum(flat ** 2, axis=(0, 2)) * hn),
            "divergence_sup": div_sup, "divergence_l2": np.sqrt(div_sq * hn),
            "initial_sup": ic.sup_norm(), "initial_l2": float(ic.l2_slices()[0])}


def energy_report(u: FormField, f: FormField | None, mu: float) -> dict:
    """Per-slice energy table: E = ||u||^2/2, dissipation
    D = mu (||du||^2 + ||d*u||^2) = mu sum ||d_i u||^2, power P = (f, u), and
    the defect |dE/dt + D - P|; dE/dt is the stencil of time_derivative."""
    return _energy_table(u, f, mu)


def _energy_table(u: FormField, f: FormField | None, mu: float,
                  sums: tuple[np.ndarray, np.ndarray] | None = None) -> dict:
    """energy_report, given the per-slice sums of |du|^2 and |d*u|^2 when a
    momentum pass has formed them (two transforms otherwise)."""
    _check_mu(mu)
    u._require("u", 1, True)
    if f is not None:
        f._require("f", 1, True, like=("u", u))
    grid = u.grid
    hn = grid.h ** grid.n
    axes = (0, 2)  # components and space of the per-slice view
    if sums is None:
        sums = _squared_sums(*_d_and_codiff(grid, spectral.fft_spatial(u.data, grid)))
    energy = 0.5 * np.sum(u.flat() ** 2, axis=axes) * hn
    # summed apart, so that D rounds as the sum of the two norms
    diss = mu * (sums[0] + sums[1]) * hn
    power = np.zeros(grid.M + 1) if f is None else np.sum(f.flat() * u.flat(), axis=axes) * hn
    dEdt = _time_difference(energy[None], grid.dt, np.empty((1, grid.M + 1)))[0]
    return {"t": grid.times(), "energy": energy, "dissipation": diss,
            "power": power, "defect": np.abs(dEdt + diss - power)}


def momentum_operator(state: FlowState, mu: float) -> tuple[FormField, FormField]:
    """The flow map applied to a state: (H_mu u + D1 u + dp, trace of u at 0).

    The first component is the image the state carries from its solve while
    mu and the arrays of state.u and state.p are those it was formed from; it
    is read-only, so a write to it raises ValueError, and so are the arrays
    of a solved state's u and p, which it depends on. Otherwise (a state
    built by hand, another mu, a field or its data replaced) the momentum
    pass forms it afresh.
    """
    _check_mu(mu)
    u = state.u
    if state._image is not None:
        image_mu, u_data, p_data, image = state._image
        if image_mu == mu and u_data is u.data and p_data is state.p.data:
            return FormField(u.grid, 1, image), u.slice_at(0)
    return _momentum(u, state.p, None, mu)[1], u.slice_at(0)


def solution_metric(a: FlowState, b: FlowState, params: HolderParams, mu: float, *,
                    n_random: int = 20_000) -> float:
    """Metric on solved states: two-norm distances of (u, p), of the vorticity
    forms, and of the flow-map images (momentum part in the two-norm scale,
    initial trace in the spatial scale).

    Weight shifts follow the solution-space convention: pressure one below,
    vorticity one above the velocity weight (clamped at zero).
    """
    _check_mu(mu)
    b.u._require("b", 1, a.u.time_dependent, like=("a", a.u))
    a.u._require("a", 1, True)  # the momentum pass's rule, checked before any norm
    p_lo = replace(params, delta=max(params.delta - 1.0, 0.0))
    p_hi = replace(params, delta=params.delta + 1.0)
    term_state = f_norm(a.u - b.u, params, n_random=n_random) \
        + f_norm(a.p - b.p, p_lo, n_random=n_random)
    term_vort = f_norm(a.g - b.g, p_hi, n_random=n_random)
    mom_a, ic_a = momentum_operator(a, mu)
    mom_b, ic_b = momentum_operator(b, mu)
    term_map = f_norm(mom_a - mom_b, params, n_random=n_random) \
        + spatial_norm(ic_a - ic_b, params, n_random=n_random).total
    return term_state + term_vort + term_map
