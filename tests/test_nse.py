import copy
import math
import traceback
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import face_sup, radial_velocity, run_python
from layerflow import nse, spectral
from layerflow.corpus import divergence_free_velocity, random_field
from layerflow.forms import (FormField, codifferential, exterior_derivative, heat_operator,
                             hodge_star, rel_err, substantial_derivative, wedge)
from layerflow.geometry import GridSpec
from layerflow.holder import HolderParams
from layerflow.nse import (FlowState, LinearizationData, ReducedSolveError, SolverConfig,
                           assemble_g0, energy_report, frechet_apply, leray_project,
                           momentum_operator, nse_residual, op_D2, op_Q, op_U0, op_V0, op_W0,
                           recover_pressure, recover_velocity, solution_metric,
                           solve_linear_reduced, solve_nse, solve_reduced, _derivative, _gmres,
                           _momentum, _recover_state, _residual)
from layerflow.potentials import PotentialConfig, grad_newton, poisson_potential, volume_potential
from layerflow.verify import taylor_remainders

MU = 0.1
POT = PotentialConfig(mu=MU)


def make_cfg(**kw):
    kw.setdefault("potential", POT)
    return SolverConfig(**kw)


def ref_op_Q(g):
    """op_Q as the FormField chain *(*g ^ grad_newton(g)): the reference the
    Q stage is checked against."""
    return hodge_star(wedge(hodge_star(g), grad_newton(g)))


def ref_op_U0(f, lin):
    """op_U0 as the FormField chain *(*g0 ^ grad_newton(f)) + *(*f ^ v1)."""
    return (hodge_star(wedge(hodge_star(lin.g0_form), grad_newton(f)))
            + hodge_star(wedge(hodge_star(f), lin.v1)))


def ref_recover_state(g, f, mu):
    """(u, p, momentum residual, divergence) of a reduced solution g by the
    FormField chain recovery ran before its one spectral pass: s = H_mu u +
    D1 u, p = grad_newton(f - s), residual s + dp - f, divergence d*u."""
    u = grad_newton(g)
    s = heat_operator(u, mu) + substantial_derivative(u)
    p = grad_newton(-1.0 * s if f is None else f - s)
    mom = s + exterior_derivative(p)
    return u, p, mom if f is None else mom - f, codifferential(u)


# -- projections and quadratic operators -------------------------------------


def test_leray_project(grid2):
    f0 = random_field(grid2, 0, 1)
    grad = exterior_derivative(f0)
    assert leray_project(grad).sup_norm() / grad.sup_norm() < 1e-13
    u = divergence_free_velocity(grid2, 2)
    assert (leray_project(u) - u).sup_norm() / u.sup_norm() < 1e-13
    v = random_field(grid2, 1, 3)
    pv = leray_project(v)
    assert (leray_project(pv) - pv).sup_norm() < 1e-13
    assert codifferential(pv).sup_norm() / v.sup_norm() < 1e-13


def test_op_q_and_d2(grid2, divfree2_td):
    z = FormField.zero(grid2, 2, time_dependent=True)
    assert op_Q(z).sup_norm() == 0.0
    assert op_D2(z).sup_norm() == 0.0
    g = exterior_derivative(divfree2_td)
    # quadratic homogeneity
    assert rel_err(op_Q(2.0 * g), 4.0 * op_Q(g)) < 1e-12
    assert rel_err(op_D2(3.0 * g), 9.0 * op_D2(g)) < 1e-12
    # d Q = D2 by construction
    assert (exterior_derivative(op_Q(g)) - op_D2(g)).sup_norm() == 0.0
    # nonlinear homomorphism with the advective operator
    target = exterior_derivative(substantial_derivative(divfree2_td))
    assert rel_err(op_D2(g), target) < 1e-8


@pytest.mark.parametrize("dim, td", [(2, False), (2, True), (3, False), (3, True)])
def test_q_stage_matches_reference_chain(dim, td, grid2, grid3_coarse):
    grid = grid2 if dim == 2 else grid3_coarse
    kw = {} if dim == 2 else {"kmax": 2, "sigma2": 0.8}
    g = exterior_derivative(divergence_free_velocity(grid, 31, time_dependent=td,
                                                     amplitude=2.0, **kw))
    f = random_field(grid, 2, 32, time_dependent=td)
    lin = LinearizationData.from_base_velocity(
        divergence_free_velocity(grid, 33, time_dependent=td, **kw))
    assert rel_err(op_Q(g), ref_op_Q(g)) <= 1e-13
    assert rel_err(op_D2(g), exterior_derivative(ref_op_Q(g))) <= 1e-13
    assert rel_err(op_U0(f, lin), ref_op_U0(f, lin)) <= 1e-13
    assert rel_err(op_W0(f, lin), exterior_derivative(ref_op_U0(f, lin))) <= 1e-13


def test_d2_annihilates_radial_vorticity(grid2):
    # radial stream function decaying below the periodization floor of 1e-8
    r2 = grid2.radius2()
    x, y = grid2.mesh()
    env = np.exp(-r2 / 1.6)
    u = FormField.from_components(grid2, 1, (y * env, -x * env))
    g = exterior_derivative(u)
    assert op_D2(g).sup_norm() / g.sup_norm() < 1e-8


def test_op_v0(grid2):
    base = divergence_free_velocity(grid2, 4, time_dependent=True)
    lin = LinearizationData.from_base_velocity(base)
    z = FormField.zero(grid2, 1, time_dependent=True)
    assert op_V0(z, lin).sup_norm() == 0.0
    a = random_field(grid2, 1, 5, time_dependent=True)
    b = random_field(grid2, 1, 6, time_dependent=True)
    lhs = op_V0(2.0 * a + 3.0 * b, lin)
    rhs = 2.0 * op_V0(a, lin) + 3.0 * op_V0(b, lin)
    assert (lhs - rhs).sup_norm() / max(lhs.sup_norm(), 1e-300) < 1e-12
    # Gateaux derivative of the advective operator at the base point
    h = divergence_free_velocity(grid2, 7, time_dependent=True)
    d0 = substantial_derivative(base)
    rem = []
    eps = (1e-2, 1e-3, 1e-4)
    for e in eps:
        r = substantial_derivative(base + e * h) - d0 - e * op_V0(h, lin)
        rem.append(r.sup_norm())
    slopes = np.diff(np.log(rem)) / np.diff(np.log(eps))
    assert np.all(np.abs(slopes - 2.0) < 0.1)


def test_operator_grid_mismatch_rejected(grid2, grid2_coarse):
    base = divergence_free_velocity(grid2, 50, time_dependent=True)
    lin = LinearizationData.from_base_velocity(base)
    with pytest.raises(ValueError):
        op_V0(random_field(grid2_coarse, 1, 0, time_dependent=True), lin)
    with pytest.raises(ValueError):
        op_U0(random_field(grid2_coarse, 2, 0, time_dependent=True), lin)
    with pytest.raises(ValueError):
        op_U0(random_field(grid2, 2, 0, time_dependent=True), LinearizationData(base, base))


def test_op_u0_w0_homomorphism(grid2):
    base = divergence_free_velocity(grid2, 8, time_dependent=True)
    lin = LinearizationData.from_base_velocity(base)
    z = FormField.zero(grid2, 2, time_dependent=True)
    assert op_U0(z, lin).sup_norm() == 0.0
    u = divergence_free_velocity(grid2, 9, time_dependent=True)
    lhs = exterior_derivative(op_V0(u, lin))
    rhs = op_W0(exterior_derivative(u), lin)
    assert rel_err(lhs, rhs) < 1e-8
    f = random_field(grid2, 2, 10, time_dependent=True)
    assert (op_W0(f, lin) - exterior_derivative(op_U0(f, lin))).sup_norm() == 0.0


def test_assemble_g0(grid2):
    z1 = FormField.zero(grid2, 1, time_dependent=True)
    z0 = FormField.zero(grid2, 1)
    assert assemble_g0(z1, z0, MU).sup_norm() == 0.0
    u0 = divergence_free_velocity(grid2, 11)
    g0 = assemble_g0(None, u0, MU)
    heat = poisson_potential(exterior_derivative(u0), MU)
    assert (g0 - heat).sup_norm() == 0.0
    # with a forcing, the Duhamel integral of df joins the heat evolution
    f = random_field(grid2, 1, 12, time_dependent=True)
    g0 = assemble_g0(f, u0, MU)
    assert rel_err(g0, heat + volume_potential(exterior_derivative(f), MU)) < 1e-14
    # a forcing on another box with the same N and M is refused
    f = random_field(replace(grid2, L=8.0), 1, 12, time_dependent=True)
    with pytest.raises(ValueError, match="grid mismatch"):
        assemble_g0(f, u0, MU)


def test_assemble_g0_refuses_initial_data_not_a_static_1_form(grid2, grid3_coarse):
    # unforced, a 0-form u0 came back as a 1-form "g0"; forced, a 0-form u0
    # on a 3-D grid has as many components as a 2-form
    f = random_field(grid3_coarse, 1, 13, time_dependent=True, kmax=2, sigma2=0.8)
    for forcing, u0 in ((None, random_field(grid2, 0, 11)),
                        (f, random_field(grid3_coarse, 0, 11, kmax=2, sigma2=0.8)),
                        (f, random_field(grid3_coarse, 1, 11, time_dependent=True, kmax=2,
                                         sigma2=0.8))):
        with pytest.raises(ValueError, match="static 1-form"):
            assemble_g0(forcing, u0, MU)


def test_assemble_g0_closed_in_3d(grid3_coarse):
    # d g0 = 0 through the commutation of d with both potentials
    u0 = divergence_free_velocity(grid3_coarse, 12, kmax=2, sigma2=0.8)
    f = random_field(grid3_coarse, 1, 13, time_dependent=True, kmax=2, sigma2=0.8)
    g0 = assemble_g0(f, u0, MU)
    assert exterior_derivative(g0).sup_norm() / g0.sup_norm() < 1e-8


def test_assemble_g0_transforms(grid2, transform_count):
    # forced: du0 (2), then du0 and f forward and one inverse of the recursion
    # started from du0 (6 while the heat evolution of du0 and the Duhamel
    # integral of df ran apart); unforced: du0 (2) and the heat evolution (2).
    # Never loosen
    u0 = divergence_free_velocity(grid2, 11)
    f = random_field(grid2, 1, 12, time_dependent=True)
    transform_count.clear()
    assemble_g0(f, u0, MU)
    assert transform_count.calls <= 5
    transform_count.clear()
    assemble_g0(None, u0, MU)
    assert transform_count.calls <= 4


# tracemalloc peak of one forced assemble_g0 after one warm-up call, in scalar
# fields over space-time, read in a fresh interpreter
ASSEMBLE_G0_PEAK = """
import sys, tracemalloc
from layerflow.corpus import divergence_free_velocity
from layerflow.geometry import GridSpec
from layerflow.nse import assemble_g0

n, N, M = map(int, sys.argv[1:])
grid = GridSpec(n=n, N=N, L=6.0, M=M, T=0.5)
shape = {"seed": 7} if n == 2 else {"seed": 9105, "kmax": 2, "sigma2": 0.8}
u0 = divergence_free_velocity(grid, **shape)
f = divergence_free_velocity(grid, 8, time_dependent=True, amplitude=0.5)
assemble_g0(f, u0, 0.1)
tracemalloc.start()
assemble_g0(f, u0, 0.1)
print(tracemalloc.get_traced_memory()[1] / ((M + 1) * N ** n * 8))
"""


@pytest.mark.memory
@pytest.mark.parametrize("dim, fields", [(2, 4.370), (3, 8.661)])
def test_assemble_g0_peak_memory(dim, fields):
    # 6.518 (2-D) and 11.706 (3-D) fields while the heat evolution of du0 was
    # a field of its own that the Duhamel integral of df was added onto;
    # 5.5766 and 9.0377 in one recursion on a reduced map's work buffers;
    # the bounds are the readings 4.3696 and 8.6603 of one recursion on
    # fresh intermediates, rounded up at the third decimal; never loosen
    grid_args = (2, 64, 16) if dim == 2 else (3, 16, 8)
    assert child_peak_fields(ASSEMBLE_G0_PEAK, *grid_args) <= fields


# -- solvers ------------------------------------------------------------------


def test_solve_reduced_zero_data(grid2):
    z = FormField.zero(grid2, 2, time_dependent=True)
    g, history = solve_reduced(z, None, make_cfg())
    assert g.sup_norm() == 0.0
    assert history[-1]["iteration"] == 0


def test_solve_reduced_radial_fast(grid2):
    u0 = radial_velocity(grid2, 0.0, 0.1)
    g0 = assemble_g0(None, u0, MU)
    g, history = solve_reduced(g0, None, make_cfg(tol=1e-8))
    assert history[-1]["residual"] < 1e-8
    assert len(history) - 1 <= 2  # the quadratic term annihilates radial data


def test_solve_reduced_contraction_small_data(grid2):
    g0 = 1e-2 * exterior_derivative(divergence_free_velocity(grid2, 12, time_dependent=True))
    cfg = make_cfg(tol=1e-13, max_iter=40)
    g, history = solve_reduced(g0, None, cfg)
    res = [h["residual"] for h in history if h["residual"] > 0]
    ratios = [b / a for a, b in zip(res, res[1:]) if a > 1e-12]
    assert all(r < 1.0 for r in ratios[1:4])


def test_solve_reduced_newton_matches_picard(grid2):
    u0 = divergence_free_velocity(grid2, 13, amplitude=4.0)
    f = divergence_free_velocity(grid2, 14, time_dependent=True, amplitude=4.0)
    g0 = assemble_g0(f, u0, MU)
    gp, _ = solve_reduced(g0, None, make_cfg(tol=1e-11, max_iter=80))
    gn, hist_n = solve_reduced(g0, None, make_cfg(mode="newton", tol=1e-11, max_iter=10))
    assert (gp - gn).sup_norm() / gp.sup_norm() < 1e-9
    assert len(hist_n) - 1 <= 5  # quadratic convergence


def test_solve_reduced_nonconvergence_carries_history(grid2):
    g0 = exterior_derivative(divergence_free_velocity(grid2, 15, time_dependent=True,
                                                      amplitude=3.0))
    with pytest.raises(ReducedSolveError) as info:
        solve_reduced(g0, None, make_cfg(tol=1e-14, max_iter=2))
    assert info.value.history
    assert info.value.last_g.sup_norm() > 0.0


def test_solve_reduced_returns_when_the_last_allowed_step_converges(grid2):
    # the loop tests the residual before each step, so one that converges
    # on step max_iter is tested once more after the loop
    g0 = 1e-2 * exterior_derivative(divergence_free_velocity(grid2, 12, time_dependent=True))
    g, history = solve_reduced(g0, None, make_cfg())
    assert len(history) >= 2
    g_last, history_last = solve_reduced(g0, None, make_cfg(max_iter=len(history) - 1))
    assert history_last == history
    assert np.array_equal(g_last.data, g.data)


def test_solve_reduced_error_carries_no_state(grid2):
    # only solve_nse recovers a state from the last iterate
    g0 = exterior_derivative(divergence_free_velocity(grid2, 15, time_dependent=True,
                                                      amplitude=3.0))
    with pytest.raises(ReducedSolveError) as info:
        solve_reduced(g0, None, make_cfg(tol=1e-14, max_iter=1))
    assert info.value.state is None


def test_solve_nse_error_carries_state_of_last_iterate(grid2):
    # the state of a failed solve is recovered from its last iterate and
    # measured against the projected initial velocity the solve worked from
    u0 = random_field(grid2, 1, 3)
    f = divergence_free_velocity(grid2, 14, time_dependent=True)
    with pytest.raises(ReducedSolveError) as info:
        solve_nse(f, u0, make_cfg(tol=1e-30, max_iter=1))
    err = info.value
    state = err.state
    u0p = leray_project(u0)
    assert state.g is err.last_g
    assert np.array_equal(state.u0.data, u0p.data)
    assert np.array_equal(state.u.data, recover_velocity(err.last_g).data)
    assert state.diagnostics["iterations"] is err.history
    ic = state.u.slice_at(0) - u0p
    assert state.diagnostics["residuals"]["initial_sup"] == ic.sup_norm()
    assert (state.u.slice_at(0) - u0).sup_norm() > 10.0 * ic.sup_norm()
    # the traceback still names the failed solve, but recovery ran with the
    # locals of its frames (g0, the residuals, the work buffers) freed
    frames = {fr.f_code.co_name: fr for fr, _ in traceback.walk_tb(err.__traceback__)}
    assert frames["solve_reduced"].f_locals == {}


def test_solve_nse_refuses_coarse_time_grid_before_work(monkeypatch):
    # recovery needs the time stencil; a grid too coarse for it was refused
    # only after the whole reduced solve had run
    from layerflow import nse
    calls = []
    real = nse.solve_reduced
    monkeypatch.setattr(nse, "solve_reduced", lambda *args: calls.append(args) or real(*args))
    grid = GridSpec(n=2, N=16, L=6.0, M=3, T=0.5)
    f = divergence_free_velocity(grid, 14, time_dependent=True)
    with pytest.raises(ValueError, match="time stencil"):
        solve_nse(f, divergence_free_velocity(grid, 13), make_cfg())
    assert calls == []


def test_solve_reduced_stops_on_nonfinite_residual(grid2):
    g0 = exterior_derivative(divergence_free_velocity(grid2, 15, time_dependent=True))
    g0.data[0, 3, 5, 7] = np.nan
    with pytest.raises(ReducedSolveError, match="non-finite residual") as info:
        solve_reduced(g0, None, make_cfg(max_iter=20))
    assert len(info.value.history) == 1


def test_newton_krylov_stagnation_reports_iterate(grid2):
    # one matvec cannot reach krylov_tol: the error carries the iterate the
    # Newton step started from and the history so far, not the partial update,
    # and names the matvecs spent and the residual reached
    g0 = exterior_derivative(divergence_free_velocity(grid2, 15, time_dependent=True,
                                                      amplitude=3.0))
    with pytest.raises(ReducedSolveError, match=r"Krylov solve not converged: relative "
                       r"residual \S+ > krylov_tol 1.0e-10 after 2 matvecs") as info:
        solve_reduced(g0, None, make_cfg(mode="newton", krylov_max=1))
    err = info.value
    assert [h["iteration"] for h in err.history] == [0]
    assert (err.last_g - g0).sup_norm() == 0.0
    assert err.residual == err.history[-1]["residual"] > 0.0


def count_matvecs(monkeypatch) -> list:
    """Counts the calls of every matvec nse._derivative hands out."""
    calls = []
    real = nse._derivative

    def derivative(grid, mu, *lin):
        matvec = real(grid, mu, *lin)

        def counted(h):
            calls.append(lin)
            return matvec(h)
        return counted

    monkeypatch.setattr(nse, "_derivative", derivative)
    return calls


def capped_linear_solve(grid, monkeypatch, krylov_max: int) -> int:
    """Matvecs a linear reduced solve spends when krylov_tol is out of reach."""
    calls = count_matvecs(monkeypatch)
    g0 = exterior_derivative(divergence_free_velocity(grid, 18, time_dependent=True))
    lin = LinearizationData.from_base_velocity(
        divergence_free_velocity(grid, 19, time_dependent=True, amplitude=3.0))
    with pytest.raises(ReducedSolveError) as info:
        solve_linear_reduced(g0, lin, make_cfg(krylov_max=krylov_max, krylov_tol=1e-300))
    assert f"after {len(calls)} matvecs" in str(info.value)
    return len(calls)


def test_krylov_max_bounds_total_matvecs(grid2, monkeypatch):
    # krylov_max is an exact cap on the matvecs that go into the Krylov basis;
    # the restart cycle spends one more on the true residual
    assert capped_linear_solve(grid2, monkeypatch, 5) == 5 + 1


def test_krylov_max_caps_matvecs_across_restarts(grid2, monkeypatch):
    # a cycle of 60 and a cycle of the 2 left, each ending on the true residual
    assert capped_linear_solve(grid2, monkeypatch, 62) == 60 + 1 + 2 + 1


def test_krylov_max_must_allow_a_matvec():
    with pytest.raises(ValueError, match="krylov_max"):
        make_cfg(krylov_max=0)


@pytest.mark.parametrize("key,value", [("tol", math.inf), ("krylov_tol", math.inf),
                                       ("krylov_tol", math.nan), ("krylov_tol", 0.0),
                                       ("max_iter", -2)])
def test_solver_config_rejects_non_finite_and_negative(key, value):
    with pytest.raises(ValueError, match=key):
        make_cfg(**{key: value})


def dense_system(n=40, seed=0):
    rng = np.random.default_rng(seed)
    return np.eye(n) + 0.1 * rng.standard_normal((n, n)), rng.standard_normal(n)


def test_gmres_dense_nonsymmetric():
    a, b = dense_system()
    x, krylov = _gmres(lambda v: a @ v, b, 1e-12, 200)
    exact = np.linalg.solve(a, b)
    assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)
    assert krylov["krylov_residual"] <= 1e-12
    assert np.linalg.norm(x - exact) <= 1e-11 * np.linalg.norm(exact)


def test_gmres_converges_across_restarts():
    # eigenvalues spread over [1, 1000] need about 200 matvecs, the restart is
    # every 60: the cycles still converge, each ending on one true-residual
    # matvec and adapting the next inner tolerance as scipy's gmres does
    n = 200
    rng = np.random.default_rng(0)
    a = np.diag(np.linspace(1.0, 1000.0, n)) + rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    calls, theirs = [], []
    x, krylov = _gmres(lambda v: calls.append(1) or a @ v, b, 1e-12, 1000)
    assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)
    op = scipy.sparse.linalg.LinearOperator(a.shape, matvec=lambda v: theirs.append(1) or a @ v,
                                            dtype=float)
    _, info = scipy.sparse.linalg.gmres(op, b, rtol=1e-12, atol=0.0, restart=60, maxiter=17)
    assert info == 0
    assert krylov["krylov_matvecs"] == len(calls) == len(theirs) > 3 * (60 + 1)


def test_gmres_identity_breaks_down_after_one_matvec():
    b = np.random.default_rng(1).standard_normal((3, 7))
    calls = []
    x, krylov = _gmres(lambda v: calls.append(1) or v.copy(), b, 1e-12, 200)
    # one matvec spans the solution, one more checks the true residual
    assert krylov["krylov_matvecs"] == len(calls) == 2
    assert krylov["krylov_residual"] <= 1e-15
    assert np.allclose(x, b, rtol=1e-15, atol=0.0)


def test_gmres_zero_right_hand_side_spends_no_matvec():
    b = np.zeros((3, 7))
    calls = []
    x, krylov = _gmres(lambda v: calls.append(1) or v.copy(), b, 1e-12, 200)
    assert not calls
    assert krylov == {"krylov_matvecs": 0, "krylov_residual": 0.0}
    assert np.array_equal(x, b) and x is not b


def test_gmres_sums_x_as_from_zeros_signed_zeros_included():
    # x is formed in the memory of the first basis vector: where y[0] basis[0]
    # is -0.0 the sum 0.0 + (-0.0) from zeros reads +0.0, and so must x. With
    # A = -I, y[0] < 0, so x = -b carries -0.0 wherever b holds +0.0
    b = np.array([1.0, 0.0, 2.0, 0.0, -3.0])
    x, krylov = _gmres(lambda v: -v, b, 1e-12, 200)
    assert krylov["krylov_matvecs"] == 2
    assert np.array_equal(x, -b)
    assert np.array_equal(np.signbit(x), b > 0)


# tracemalloc peak of a _gmres of k matvecs into its basis (a diagonal matvec
# on vectors of `size` entries, a tolerance out of reach) after one warm-up
# solve, in vectors, read in a fresh interpreter
GMRES_PEAK = """
import sys, tracemalloc
import numpy as np
from layerflow.nse import _gmres

size, k = map(int, sys.argv[1:])
d = np.linspace(1.0, 2.0, size)
b = np.random.default_rng(0).standard_normal(size)


def matvec(v):
    return d * v


_gmres(matvec, b, 1e-300, k)
tracemalloc.start()
x, krylov = _gmres(matvec, b, 1e-300, k)
assert krylov["krylov_matvecs"] == k + 1
del x
print(tracemalloc.get_traced_memory()[1] / b.nbytes)
"""


@pytest.mark.memory
@pytest.mark.parametrize("k", [1, 8])
def test_gmres_peak_memory(k):
    # the basis of k vectors, the output of the last matvec and one
    # transient (a Gram-Schmidt product): k + 2 vectors, read 3.0001 and
    # 10.0004. With x held from the start and a resident scratch vector
    # GMRES read 5.0002 and 11.0006. Never loosen
    assert child_peak_fields(GMRES_PEAK, 10 ** 6, k) <= k + 2.001


def test_gmres_capped_returns_partial_iterate(grid2):
    a, b = dense_system()
    x, krylov = _gmres(lambda v: a @ v, b, 1e-12, 5)
    assert krylov["krylov_matvecs"] == 6
    assert 1e-12 < krylov["krylov_residual"] < 1.0
    assert krylov["krylov_residual"] == np.linalg.norm(b - a @ x) / np.linalg.norm(b)
    # on FormFields the error carries that partial iterate
    h = exterior_derivative(divergence_free_velocity(grid2, 24, time_dependent=True))
    lin = LinearizationData.from_base_vorticity(
        exterior_derivative(divergence_free_velocity(grid2, 21, time_dependent=True,
                                                     amplitude=4.0)))
    matvec = _derivative(grid2, MU, lin.g0_form.data, lin.v1.data)
    with pytest.raises(ReducedSolveError, match="not converged") as info:
        solve_linear_reduced(h, lin, make_cfg(krylov_max=3))
    partial, _ = _gmres(matvec, h.data, 1e-10, 3)
    assert np.array_equal(info.value.last_g.data, partial)
    assert info.value.last_g.sup_norm() > 0.0


@pytest.mark.parametrize("amplitude", [1.0, 4.0])
def test_gmres_matches_scipy_on_reduced_matvec(grid2, amplitude):
    # scipy's gmres as the oracle: the same algorithm, so the same matvecs and
    # the same solution up to the order of the final sum over the basis
    base = exterior_derivative(divergence_free_velocity(grid2, 21, time_dependent=True,
                                                        amplitude=amplitude))
    rhs = exterior_derivative(divergence_free_velocity(grid2, 24, time_dependent=True))
    lin = LinearizationData.from_base_vorticity(base)
    matvec = _derivative(grid2, MU, lin.g0_form.data, lin.v1.data)
    ours, theirs = [], []

    def mv(vec):
        theirs.append(1)
        return matvec(vec.reshape(rhs.data.shape)).ravel()

    op = scipy.sparse.linalg.LinearOperator((rhs.data.size,) * 2, matvec=mv, dtype=float)
    expected, info = scipy.sparse.linalg.gmres(op, rhs.data.ravel(), rtol=1e-10, atol=0.0,
                                               restart=60, maxiter=4)
    assert info == 0
    x, krylov = _gmres(lambda v: ours.append(1) or matvec(v), rhs.data, 1e-10, 200)
    assert krylov["krylov_matvecs"] == len(ours) == len(theirs)
    assert np.linalg.norm(x.ravel() - expected) <= 1e-12 * np.linalg.norm(expected)


def test_newton_history_records_krylov(grid2, monkeypatch):
    calls = count_matvecs(monkeypatch)
    g0 = exterior_derivative(divergence_free_velocity(grid2, 15, time_dependent=True,
                                                      amplitude=3.0))
    _, history = solve_reduced(g0, None, make_cfg(mode="newton"))
    assert "krylov_matvecs" not in history[0]
    steps = history[1:]
    assert len(steps) >= 2
    assert sum(h["krylov_matvecs"] for h in steps) == len(calls)
    for h in steps:
        assert 0.0 < h["krylov_residual"] <= 1e-10


def test_newton_linearizes_at_the_kept_iterate(grid2, monkeypatch):
    # the velocity each Newton step linearizes at is grad_newton of the
    # iterate it starts from, also after a rejected (damped) step
    calls = count_matvecs(monkeypatch)
    g0 = exterior_derivative(divergence_free_velocity(grid2, 15, time_dependent=True))
    base = exterior_derivative(divergence_free_velocity(grid2, 16, time_dependent=True,
                                                        amplitude=50.0))
    with pytest.raises(ReducedSolveError, match="no convergence") as info:
        solve_reduced(g0, base, make_cfg(mode="newton", max_iter=2, krylov_tol=1e-6))
    assert [h["damping"] for h in info.value.history] == [1.0, 0.5, 0.5]
    lins = list({id(lin): lin for lin in calls}.values())
    assert len(lins) == 2
    assert lins[0][0] is lins[1][0]
    for g, v1 in lins:
        # the velocity over the time slices the matvec transforms
        assert np.array_equal(v1, grad_newton(FormField(grid2, 2, g)).data[:, -v1.shape[1]:])


def test_picard_halves_damping_when_residual_grows(grid2):
    # from a large base the first full Picard step raises the residual: the
    # step is rejected at damping 1 and the solve goes on at 1/2
    g0 = exterior_derivative(divergence_free_velocity(grid2, 15, time_dependent=True))
    base = exterior_derivative(divergence_free_velocity(grid2, 16, time_dependent=True,
                                                        amplitude=50.0))
    cfg = make_cfg(tol=1e-10, max_iter=80)
    g, history = solve_reduced(g0, base, cfg)
    assert [h["damping"] for h in history[:2]] == [1.0, 0.5]
    assert history[-1]["residual"] <= 1e-10
    full, _ = solve_reduced(g0, None, cfg)
    assert (g - full).sup_norm() / full.sup_norm() < 1e-8


def test_damping_recovers_after_a_rejected_step(grid2):
    # each accepted step doubles the damping back toward 1, so one rejected
    # step does not make every later Newton step a half step (with the
    # damping left at 1/2 this solve stands at 2.2e-4 after 20 steps)
    g0 = exterior_derivative(divergence_free_velocity(grid2, 15, time_dependent=True))
    base = exterior_derivative(divergence_free_velocity(grid2, 16, time_dependent=True,
                                                        amplitude=50.0))
    _, history = solve_reduced(g0, base, make_cfg(mode="newton", max_iter=20))
    assert [h["damping"] for h in history[:2]] == [1.0, 0.5]
    assert history[-1]["damping"] == 1.0
    assert history[-1]["residual"] <= 1e-8


@pytest.mark.parametrize("dim", [2, 3])
def test_fused_passes_match_reference(dim, grid2, grid3_coarse):
    # each evaluation returns a fresh array: an earlier result must survive
    # a later call with other inputs
    grid = grid2 if dim == 2 else grid3_coarse
    kw = {} if dim == 2 else {"kmax": 2, "sigma2": 0.8}

    def vorticity(seed, **extra):
        return exterior_derivative(divergence_free_velocity(grid, seed, time_dependent=True,
                                                            **kw, **extra))

    def window_err(res, want):
        """rel_err of a residual, slices 1..M, against those of the field want."""
        return np.max(np.abs(res - want.data[:, 1:])) / np.max(np.abs(want.data[:, 1:]))

    g, g_other = vorticity(21, amplitude=4.0), vorticity(25, amplitude=2.0)
    g0 = vorticity(22)
    res = _residual(g, g0, MU)[0]
    kept = res.copy()
    res_other = _residual(g_other, g, MU)[0]
    assert np.array_equal(res, kept)
    psi_d2 = volume_potential(exterior_derivative(ref_op_Q(g)), MU)
    assert window_err(res, g + psi_d2 - g0) <= 1e-13
    assert window_err(res_other, g_other + volume_potential(
        exterior_derivative(ref_op_Q(g_other)), MU) - g) <= 1e-13
    assert window_err(_residual(g, g, MU)[0], psi_d2) <= 1e-13
    h, h_other = vorticity(24), vorticity(26, amplitude=3.0)
    base_u = divergence_free_velocity(grid, 23, time_dependent=True, **kw)
    for lin in (LinearizationData.from_base_vorticity(g),
                LinearizationData.from_base_velocity(base_u)):
        matvec = _derivative(grid, MU, lin.g0_form.data, lin.v1.data)
        got = FormField(grid, 2, matvec(h.data))
        kept = got.data.copy()
        got_other = FormField(grid, 2, matvec(h_other.data))
        assert np.array_equal(got.data, kept)
        psi_w0 = volume_potential(exterior_derivative(ref_op_U0(h, lin)), MU)
        assert rel_err(got, h + psi_w0) <= 1e-13
        assert rel_err(got - h, psi_w0) <= 1e-13
        assert rel_err(got_other, h_other + volume_potential(
            exterior_derivative(ref_op_U0(h_other, lin)), MU)) <= 1e-13


def test_reduced_map_leaves_inputs_unchanged(grid2):
    # the Krylov matvec gets a view of gmres's own vector, not a copy
    g = exterior_derivative(divergence_free_velocity(grid2, 21, time_dependent=True,
                                                     amplitude=4.0))
    g0 = exterior_derivative(divergence_free_velocity(grid2, 22, time_dependent=True))
    h = exterior_derivative(divergence_free_velocity(grid2, 24, time_dependent=True))
    lin = LinearizationData.from_base_vorticity(g)
    inputs = (g, g0, h, lin.g0_form, lin.v1)
    before = [x.data.copy() for x in inputs]
    _residual(g, g0, MU)
    _derivative(grid2, MU, lin.g0_form.data, lin.v1.data)(h.data)
    frechet_apply(h, g, MU)
    for x, saved in zip(inputs, before):
        assert np.array_equal(x.data, saved)


def test_residual_from_its_carried_f0_is_the_whole_field_residual(grid2):
    # at an iterate with g0's slice 0, the residual over the window t_1..t_M
    # from the F_0 a whole-field residual carried is that residual bit for
    # bit, and so is the velocity it keeps; F_0 is the one slice of half-
    # spectrum coefficients of d q at t = 0, and the window run leaves it as
    # it was
    g0 = assemble_g0(divergence_free_velocity(grid2, 14, time_dependent=True),
                     divergence_free_velocity(grid2, 13), MU)
    g = g0 + 0.3 * exterior_derivative(divergence_free_velocity(grid2, 29, time_dependent=True))
    g.data[:, 0] = g0.data[:, 0]
    res, f0, v1 = _residual(g, g0, MU, keep_velocity=True)
    kept = f0.copy()
    res_window, f0_window, v1_window = _residual(g, g0, MU, f0, keep_velocity=True)
    assert res.shape == res_window.shape == (1, grid2.M) + grid2.spatial_shape
    assert np.array_equal(res_window.view(np.int64), res.view(np.int64))
    assert v1.shape == (2, grid2.M) + grid2.spatial_shape
    assert np.array_equal(v1_window.view(np.int64), v1.view(np.int64))
    assert f0_window is f0 and np.array_equal(f0, kept)
    assert f0.dtype == complex
    assert f0.shape == (1,) + grid2.spatial_shape[:-1] + (grid2.N // 2 + 1,)


@pytest.mark.parametrize("dim", [2, 3])
def test_kept_velocity_is_grad_newton(dim, grid2, grid3_coarse):
    # the velocity a residual keeps, the v1 of a Newton step's linearization,
    # is grad_newton's own, bit for bit: the solve forms no second copy of it
    grid = grid2 if dim == 2 else grid3_coarse
    kw = {} if dim == 2 else {"kmax": 2, "sigma2": 0.8}
    g0 = assemble_g0(divergence_free_velocity(grid, 14, time_dependent=True, **kw),
                     divergence_free_velocity(grid, 13, **kw), MU)
    g = g0 + 0.3 * exterior_derivative(divergence_free_velocity(grid, 29, time_dependent=True,
                                                                **kw))
    g.data[:, 0] = g0.data[:, 0]
    v1 = _residual(g, g0, MU, keep_velocity=True)[2]
    want = grad_newton(g).data[:, 1:]
    assert v1.shape == want.shape == (dim, grid.M) + grid.spatial_shape
    assert np.array_equal(v1.view(np.int64), want.view(np.int64))


def test_reduced_map_drops_zero_mode(grid2):
    # grad_newton drops the mean of what it inverts
    base = exterior_derivative(divergence_free_velocity(grid2, 21, time_dependent=True))
    g0 = exterior_derivative(divergence_free_velocity(grid2, 22, time_dependent=True))
    h = exterior_derivative(divergence_free_velocity(grid2, 24, time_dependent=True))
    shifted_h = FormField(grid2, 2, h.data + 1.0)
    shifted_base = FormField(grid2, 2, base.data + 1.0)
    frechet_apply(shifted_h, base, MU)
    solve_reduced(g0, shifted_base, make_cfg(max_iter=2, tol=1e3))


def test_reduced_map_rejects_mismatched_inputs(grid2):
    base = exterior_derivative(divergence_free_velocity(grid2, 21, time_dependent=True))
    g0 = exterior_derivative(divergence_free_velocity(grid2, 22, time_dependent=True))
    h_static = exterior_derivative(divergence_free_velocity(grid2, 24))
    with pytest.raises(ValueError, match="^h: must be a time-dependent 2-form, got a static "):
        frechet_apply(h_static, base, MU)
    static_lin = LinearizationData.from_base_velocity(divergence_free_velocity(grid2, 19))
    with pytest.raises(ValueError, match="^lin.g0_form: must be a time-dependent form, got a "
                                         "static 2-form$"):
        solve_linear_reduced(g0, static_lin, make_cfg())
    # the same array shape on a wider box
    wide = GridSpec(n=2, N=grid2.N, L=2.0 * grid2.L, M=grid2.M, T=grid2.T)
    other = FormField(wide, 2, g0.data.copy())
    with pytest.raises(ValueError, match="grid mismatch"):
        frechet_apply(other, base, MU)
    with pytest.raises(ValueError, match="grid mismatch"):
        solve_reduced(other, base, make_cfg())
    with pytest.raises(ValueError, match="^base: must be a time-dependent 2-form, got a "
                                         "time-dependent 1-form$"):
        solve_reduced(g0, recover_velocity(base), make_cfg())


def test_linearization_data_checks_its_fields(grid2_coarse):
    # swapped degrees were accepted, and op_V0 then failed with "degree
    # overflow: 2 + 1 > 2"
    u = divergence_free_velocity(grid2_coarse, 19, time_dependent=True)
    du = exterior_derivative(u)
    with pytest.raises(ValueError, match="^g0_form: must be a 2-form, got a time-dependent "
                                         "1-form$"):
        LinearizationData(u, du)
    with pytest.raises(ValueError, match="^v1: must be a time-dependent 1-form, got a static "
                                         "1-form$"):
        LinearizationData(du, u.slice_at(0))
    lin = LinearizationData.from_base_velocity(u)
    assert np.array_equal(lin.g0_form.data, du.data) and lin.v1 is u


def test_picard_transforms_per_iteration(grid2, transform_count):
    # one residual per Picard step, four transform calls each; never loosen
    u0 = divergence_free_velocity(grid2, 13, amplitude=2.0)
    f = divergence_free_velocity(grid2, 14, time_dependent=True, amplitude=2.0)
    g0 = assemble_g0(f, u0, MU)
    transform_count.clear()
    _, history = solve_reduced(g0, None, make_cfg(tol=1e-10, max_iter=80))
    iterations = len(history) - 1
    assert iterations >= 5
    assert transform_count.calls <= 5 * iterations


def test_newton_transforms_per_solve(grid2, transform_count):
    # four transform calls per residual and per matvec; each Newton step linearizes
    # at the velocity its residual formed (80 when it formed it again); never
    # loosen
    g0 = assemble_g0(divergence_free_velocity(grid2, 8, time_dependent=True, amplitude=0.5),
                     divergence_free_velocity(grid2, 7), MU)
    transform_count.clear()
    solve_reduced(g0, None, make_cfg(mode="newton"))
    assert transform_count.calls <= 76


@pytest.mark.parametrize("mode, from_base", [("picard", False), ("newton", False),
                                             ("picard", True), ("newton", True)],
                         ids=["picard", "newton", "picard-base", "newton-base"])
def test_evaluations_after_the_first_transform_the_window(grid2, transform_count, mode,
                                                          from_base):
    # slice 0 of every iterate is g0's, bit for bit, so after the first
    # residual (which carries F_0) every residual and matvec transforms the
    # M slices t_1..t_M of each component instead of all M + 1; a 2-D
    # evaluation transforms 1 + 2 + 2 + 1 components in 4 calls. The first
    # residual brings back slices 1..M of its one component alone: slice 0
    # of a residual is zero, never transformed. A base start, whose slice 0
    # differs from g0's, starts from g0's slice 0 too. Never loosen
    g0 = assemble_g0(divergence_free_velocity(grid2, 14, time_dependent=True, amplitude=2.0),
                     divergence_free_velocity(grid2, 13, amplitude=2.0), MU)
    base = g0 + 0.3 * exterior_derivative(
        divergence_free_velocity(grid2, 29, time_dependent=True)) if from_base else None
    transform_count.clear()
    g, history = solve_reduced(g0, base, make_cfg(mode=mode))
    evaluations = len(history) + sum(h.get("krylov_matvecs", 0) for h in history)
    assert evaluations >= 5
    assert transform_count.calls == 4 * evaluations
    assert transform_count.slices == 6 * (grid2.M + 1) - 1 + 6 * grid2.M * (evaluations - 1)
    assert np.array_equal(g.data[:, 0], g0.data[:, 0])


def whole_field_solve(g0, cfg):
    """solve_reduced with full steps and every evaluation over the whole
    field: each residual is given no F_0, so it transforms every slice and
    forms F_0 afresh, and a matvec at the whole velocity transforms every
    slice. GMRES runs over slices 1..M of its vectors, as solve_reduced's
    does: each matvec pads slice 0 with zeros and keeps slices 1..M of its
    whole-field result. (Over whole-field vectors, a multi-threaded BLAS
    splits the inner products of M and M + 1 slices at other points, so they
    may round apart: see
    test_window_krylov_matches_whole_field_vectors_bit_for_bit.) Returns the
    iterate, the residuals and the Krylov facts of each step."""
    def residual(g):
        return _residual(g, g0, MU)[0]

    g = g0.copy()
    res = residual(g)
    history, krylov = [float(np.max(np.abs(res)))], []
    while history[-1] > cfg.tol:
        step = res
        if cfg.mode == "newton":
            matvec = _derivative(g0.grid, MU, g.data, grad_newton(g).data)

            def window_matvec(hw):
                h = np.zeros_like(g.data)
                h[:, 1:] = hw
                return matvec(h)[:, 1:]

            step, facts = _gmres(window_matvec, res, cfg.krylov_tol, cfg.krylov_max)
            krylov.append(facts)
        g = g.copy()
        g.data[:, 1:] -= 1.0 * step
        res = residual(g)
        history.append(float(np.max(np.abs(res))))
    return g, history, krylov


@pytest.mark.parametrize("mode, dim", [("picard", 2), ("newton", 2), ("picard", 3),
                                       ("newton", 3)],
                         ids=["picard", "newton", "picard-3d", "newton-3d"])
def test_window_solve_matches_the_whole_field_bit_for_bit(grid2, mode, dim):
    # 3-D runs on the grid and corpus shape of the cube_picard bench problem;
    # each row of d and of grad_newton has two terms there, so every symbol
    # application also uses its scratch component, which 2-D never forms
    grid = grid2 if dim == 2 else GridSpec(n=3, N=16, L=6.0, M=8, T=0.5)
    shape = {} if dim == 2 else {"kmax": 2, "sigma2": 0.8}
    g0 = assemble_g0(divergence_free_velocity(grid, 14, time_dependent=True, amplitude=2.0,
                                              **shape),
                     divergence_free_velocity(grid, 13, amplitude=2.0, **shape), MU)
    cfg = make_cfg(mode=mode)
    g, history = solve_reduced(g0, None, cfg)
    assert all(h["damping"] == 1.0 for h in history)
    g_whole, residuals, krylov = whole_field_solve(g0, cfg)
    assert [h["residual"] for h in history] == residuals
    assert [{k: h[k] for k in ("krylov_matvecs", "krylov_residual")}
            for h in history[1:] if mode == "newton"] == krylov
    assert np.array_equal(g.data.view(np.int64), g_whole.data.view(np.int64))


# Desk-scale Newton solve_reduced (the vortex u0, forcings of the
# benchmark's shape) against Newton over whole-field evaluations and
# whole-field GMRES vectors, each residual given no F_0: the iterate as
# int64 bits, the residuals and the Krylov facts of every step, as float.hex.
# Prints, per forcing, whether they agree and the most matvecs of a step
WHOLE_VECTORS = """
import numpy as np
from layerflow.corpus import divergence_free_velocity
from layerflow.forms import FormField
from layerflow.geometry import GridSpec
from layerflow.nse import (SolverConfig, _derivative, _gmres, _residual, assemble_g0,
                           leray_project, solve_reduced)
from layerflow.potentials import PotentialConfig, grad_newton

MU = 0.1
grid = GridSpec(n=2, N=64, L=6.0, M=16, T=0.5)
cfg = SolverConfig(mode="newton", tol=1e-8, potential=PotentialConfig(mu=MU))
x, y = grid.mesh()
env = np.exp(-grid.radius2() / 2.0)
u0 = FormField.from_components(grid, 1, (y * env, -x * env))


def residual(g, g0):  # as a whole-field vector: slice 0 zero, then slices 1..M
    out = np.zeros_like(g.data)
    out[:, 1:] = _residual(g, g0, MU)[0]
    return out


def facts(history):
    return [[float(h[k]).hex() for k in ("residual", "krylov_matvecs", "krylov_residual")
             if k in h] for h in history]


for seed, amplitude in ((8, 0.5), (9, 80.0)):
    f = divergence_free_velocity(grid, seed, time_dependent=True, amplitude=amplitude)
    g0 = assemble_g0(f, leray_project(u0), MU)
    g, history = solve_reduced(g0, None, cfg)
    assert all(h["damping"] == 1.0 for h in history)
    ref = g0.copy()
    res = residual(ref, g0)
    whole = [{"residual": float(np.max(np.abs(res)))}]
    while whole[-1]["residual"] > cfg.tol:
        matvec = _derivative(grid, MU, ref.data, grad_newton(ref).data)
        step, krylov = _gmres(matvec, res, cfg.krylov_tol, cfg.krylov_max)
        ref = FormField(grid, 2, ref.data - 1.0 * step)
        res = residual(ref, g0)
        whole.append({"residual": float(np.max(np.abs(res))), **krylov})
    assert len(history) > 2
    same = np.array_equal(g.data.view(np.int64), ref.data.view(np.int64))
    print(same and facts(history) == facts(whole), max(h.get("krylov_matvecs", 0) for h in whole))
"""


def test_window_krylov_matches_whole_field_vectors_bit_for_bit(monkeypatch):
    # one BLAS thread, the benchmark's setting: a multi-threaded ddot splits
    # vectors of M and of M + 1 slices at other points, so the window's inner
    # products may round apart from the whole field's
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = run_python("-c", WHOLE_VECTORS)
    assert out.returncode == 0, out.stderr
    (same_small, most_small), (same_large, most_large) = map(str.split, out.stdout.splitlines())
    assert same_small == same_large == "True"
    # the large forcing restarts GMRES (60 matvecs a cycle) in its first steps
    assert 0 < int(most_small) <= 61 < int(most_large)


# tracemalloc peak of a solve_nse after a first one filled the symbol caches,
# in scalar fields over space-time, read in a fresh interpreter: in the test
# process the peak depended on which tests ran before
SOLVE_PEAK = """
import sys, tracemalloc
from layerflow.corpus import divergence_free_velocity
from layerflow.geometry import GridSpec
from layerflow.nse import ReducedSolveError, SolverConfig, solve_nse
from layerflow.potentials import PotentialConfig

n, N, M = map(int, sys.argv[1:4])
mode, tol = sys.argv[4], float(sys.argv[5])
# a max_iter given as a sixth argument is one the solve must fail within
fails = len(sys.argv) > 6
grid = GridSpec(n=n, N=N, L=6.0, M=M, T=0.5)
shape = {"seed": 7} if n == 2 else {"seed": 9105, "kmax": 2, "sigma2": 0.8}
u0 = divergence_free_velocity(grid, **shape)
f = divergence_free_velocity(grid, 8, time_dependent=True, amplitude=0.5)
cfg = SolverConfig(mode=mode, tol=tol, potential=PotentialConfig(mu=0.1),
                   **({"max_iter": int(sys.argv[6])} if fails else {}))


def solve():
    try:
        solve_nse(f, u0, cfg)
    except ReducedSolveError as err:
        if not fails or err.state is None:
            raise
    else:
        assert not fails, "the solve converged"


solve()
tracemalloc.start()
solve()
print(tracemalloc.get_traced_memory()[1] / ((M + 1) * N ** n * 8))
"""


def child_peak_fields(script: str, *args) -> float:
    """The peak in fields that script prints, run in a fresh interpreter."""
    out = run_python("-c", script, *args)
    assert out.returncode == 0, out.stderr
    return float(out.stdout)


@pytest.mark.memory
@pytest.mark.parametrize("mode, fields", [("picard", 11.281), ("newton", 16.359)])
def test_solve_nse_peak_memory(mode, fields):
    # Measured in the test process: Picard 13.50 fields before the reduced
    # map owned its buffers, 13.49 after; Newton 76.70 with scipy's GMRES,
    # whose Krylov basis took 61 fields up front, and 20.70 with a basis that
    # grows one matvec at a time. Read in a fresh interpreter: 12.2794 and
    # 20.6982; then 11.2803 (recovery keeps no divergence field) and 20.3375
    # (evaluations transform the window t_1..t_M); Newton 16.9225 since its
    # GMRES vectors span the window alone, with no resident x or scratch
    # vector, and its first step keeps the velocity over the window alone;
    # 16.4177 since each evaluation forms its intermediates afresh and frees
    # each once the next stage has used it, with no work buffers held
    # between evaluations; 16.3580 since the solve holds its residuals and
    # updates over the window t_1..t_M alone. Each bound is its reading,
    # rounded up at the third decimal. Never loosen
    assert child_peak_fields(SOLVE_PEAK, 2, 64, 16, mode, 1e-8) <= fields


@pytest.mark.memory
@pytest.mark.parametrize("mode, fields", [("picard", 11.283), ("newton", 16.359)])
def test_failed_solve_nse_peak_memory(mode, fields):
    # a failed solve peaks no higher than a converged one: its recovery ran
    # while the error's traceback held the locals of solve_reduced, 18.50
    # fields for Picard; 12.281 with them freed first, 11.2820 since
    # recovery keeps no divergence field. Newton reads 20.698 either way,
    # 20.3378 with window evaluations, 16.9233 with window GMRES vectors,
    # 16.4185 without the reduced map's work buffers, 16.3586 with residuals
    # and updates over the window alone (bound rounded up at the third
    # decimal). Never loosen
    assert child_peak_fields(SOLVE_PEAK, 2, 64, 16, mode, 1e-30, 2) <= fields


@pytest.mark.memory
def test_solve_nse_peak_memory_3d():
    # a Picard residual frees the velocity it forms before its Duhamel pass,
    # which is the peak of a 3-D solve (24.05 fields in the test process while
    # it was held, 23.23 after); 21.0467 in a fresh interpreter, 20.5928 with
    # buffers and transforms sized to the window t_1..t_M, 20.1653 with no
    # buffers and each intermediate freed once used, 19.8306 with residuals
    # and updates over the window alone; never loosen
    assert child_peak_fields(SOLVE_PEAK, 3, 16, 8, "picard", 1e-9) <= 19.831


# tracemalloc peak of one solution_metric (default pair count) between two
# solved states after one warm-up call, in scalar fields over space-time, read
# in a fresh interpreter
METRIC_PEAK = """
import sys, tracemalloc
import numpy as np
from layerflow.corpus import divergence_free_velocity
from layerflow.forms import FormField
from layerflow.geometry import GridSpec
from layerflow.holder import HolderParams
from layerflow.nse import SolverConfig, solution_metric, solve_nse
from layerflow.potentials import PotentialConfig

N, M = map(int, sys.argv[1:])
grid = GridSpec(n=2, N=N, L=6.0, M=M, T=0.5)
cfg = SolverConfig(mode="picard", tol=1e-8, potential=PotentialConfig(mu=0.1))
x, y = grid.mesh()
env = np.exp(-grid.radius2() / 2.0)
u0 = FormField.from_components(grid, 1, (y * env, -x * env))
a = solve_nse(None, u0, cfg)
b = solve_nse(None, u0 + 1e-2 * divergence_free_velocity(grid, 63), cfg)
params = HolderParams(s=0, lam=0.25, delta=1.5, k=0, lam_prime=0.5)
solution_metric(a, b, params, 0.1)
tracemalloc.start()
solution_metric(a, b, params, 0.1)
print(tracemalloc.get_traced_memory()[1] / ((M + 1) * N ** 2 * 8))
"""


@pytest.mark.memory
def test_solution_metric_peak_memory():
    # 14.4155 fields while every field kept its per-pair maxima over the
    # whole pair sample; 12.8453 once the pair maxima gathered only the pairs
    # their point bound cannot rule out, while the time term still formed a
    # full-size difference per slice gap; the bound is the reading 10.6081
    # (Python 3.11) of a time term that gathers only the time series its
    # range bound cannot rule out; 8.3701 once each norm streams its
    # derivative fields and holds one at a time (bound rounded up at the
    # third decimal); never loosen
    assert child_peak_fields(METRIC_PEAK, 64, 16) <= 8.371


def test_solve_nse_recovery_transforms(grid2, transform_count, monkeypatch):
    # transform calls: velocity 2, then the momentum pass 6 (u forward, du
    # and d*u back, X and |u|^2/2 forward, p back and forward, B + dp back):
    # 8, against 14 when the FormField operators chained. Component-slices
    # per time slice: 1 + 2, then 2 + 2 + 3 + 1 + 1 + 2: 14, against 22.
    # Never loosen
    from layerflow import nse
    seen = {}
    real = nse.solve_reduced

    def counted(*args, **kw):
        out = real(*args, **kw)
        seen["calls"], seen["slices"] = transform_count.calls, transform_count.slices
        return out

    monkeypatch.setattr(nse, "solve_reduced", counted)
    u0 = divergence_free_velocity(grid2, 13, amplitude=2.0)
    f = divergence_free_velocity(grid2, 14, time_dependent=True, amplitude=2.0)
    solve_nse(f, u0, make_cfg())
    assert transform_count.calls - seen["calls"] <= 8
    assert transform_count.slices - seen["slices"] <= 14 * (grid2.M + 1)


def test_solve_nse_recovery_matches_public_functions(grid2):
    u0 = divergence_free_velocity(grid2, 22)
    f = divergence_free_velocity(grid2, 23, time_dependent=True)
    state = solve_nse(f, u0, make_cfg())
    assert np.array_equal(state.u.data, recover_velocity(state.g).data)
    assert np.array_equal(state.p.data, recover_pressure(state.u, f, MU).data)
    public = nse_residual(state, f, state.u0, MU)
    # the viscosity is the caller's to pass; the diagnostics do not carry it
    assert state.diagnostics.keys() == {"iterations", "residuals", "energy", "edge"}
    shared = state.diagnostics["residuals"]
    assert public.keys() == shared.keys()
    for key in public:
        assert np.array_equal(public[key], shared[key])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("forced", [False, True])
def test_recover_state_matches_reference_chain(dim, forced, grid2, grid3_coarse):
    grid = grid2 if dim == 2 else grid3_coarse
    g = exterior_derivative(divergence_free_velocity(grid, 60, time_dependent=True))
    f = divergence_free_velocity(grid, 61, time_dependent=True) if forced else None
    u, p, mom, div = ref_recover_state(g, f, MU)
    state = _recover_state(g, f, u.slice_at(0), MU, [])
    assert np.array_equal(state.u.data, u.data)
    assert rel_err(state.p, p) < 1e-12
    p_pass, mom_pass, (div_sup, _, div_sq) = _momentum(state.u, None, f, MU)
    assert np.array_equal(p_pass.data, state.p.data)
    assert rel_err(mom_pass, mom) < 1e-12
    # the pass keeps the divergence only as its per-slice sup and L2
    axes = (0,) + tuple(range(-grid.n, 0))
    assert np.max(np.abs(div_sup - np.max(np.abs(div.data), axis=axes))) < 1e-12 * u.sup_norm()
    div_l2 = np.sqrt(div_sq * grid.h ** grid.n)
    assert np.max(np.abs(div_l2 - div.l2_slices())) < 1e-12 * u.sup_norm()
    res = state.diagnostics["residuals"]
    want = np.max(np.abs(mom.data), axis=axes)
    assert np.max(np.abs(res["momentum_sup"] - want)) < 1e-12 * np.max(want)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("forced", [False, True])
def test_recover_state_matches_reference_chain_solved(dim, forced, grid2, grid3_coarse):
    # on a solved state the momentum residual is small because O(1) terms
    # cancel, so the pass and the chain differ by rounding of those terms
    # (s = H_mu u + D1 u), not of the residual; the bound is on that scale
    grid = grid2 if dim == 2 else grid3_coarse
    u0 = divergence_free_velocity(grid, 22)
    f = divergence_free_velocity(grid, 23, time_dependent=True) if forced else None
    state = solve_nse(f, u0, make_cfg())
    u, p, mom, div = ref_recover_state(state.g, f, MU)
    scale = (heat_operator(u, MU) + substantial_derivative(u)).sup_norm()
    assert np.array_equal(state.u.data, u.data)
    assert rel_err(state.p, p) < 1e-14
    _, mom_pass, _ = _momentum(state.u, None, f, MU)
    assert (mom_pass - mom).sup_norm() < 1e-14 * scale
    axes = (0,) + tuple(range(-grid.n, 0))
    want = np.max(np.abs(mom.data), axis=axes)
    got = state.diagnostics["residuals"]["momentum_sup"]
    assert np.max(np.abs(got - want)) < 1e-14 * scale


def test_forcing_mean_shows_in_momentum_residual(grid2):
    # a constant forcing has no pressure on R^n: d annihilates it in g0 and the
    # pressure drops it, so the momentum residual keeps it on every slice
    u0 = radial_velocity(grid2, 0.0, 0.1)
    f = divergence_free_velocity(grid2, 5, time_dependent=True, amplitude=0.5)
    c = 1e-2
    shifted = solve_nse(FormField(grid2, 1, f.data + c), u0, make_cfg())
    assert np.all(shifted.diagnostics["residuals"]["momentum_sup"] >= c)
    plain = solve_nse(f, u0, make_cfg())
    assert np.all(plain.diagnostics["residuals"]["momentum_sup"] < 5 * grid2.dt ** 2)


def test_solve_nse_edge_diagnostics(grid2):
    # the largest |value| on the box faces of each field the periodic
    # truncation assumes to vanish there; a failed solve's state has it too
    u0 = radial_velocity(grid2, 0.0, 0.1)
    f = divergence_free_velocity(grid2, 5, time_dependent=True, amplitude=0.5)
    state = solve_nse(f, u0, make_cfg())
    edge = state.diagnostics["edge"]
    assert edge == {"u0": face_sup(state.u0), "f": face_sup(f), "g": face_sup(state.g),
                    "u": face_sup(state.u)}
    assert edge["f"] > 1e-3 and edge["u0"] < edge["u"]
    with pytest.raises(ReducedSolveError) as info:
        solve_nse(f, u0, make_cfg(max_iter=1))
    failed = info.value.state
    assert failed.diagnostics["edge"] == {"u0": face_sup(failed.u0), "f": edge["f"],
                                          "g": face_sup(failed.g), "u": face_sup(failed.u)}
    unforced = solve_nse(None, u0, make_cfg())
    assert sorted(unforced.diagnostics["edge"]) == ["g", "u", "u0"]


def test_recover_pressure_drops_zero_mode(grid2):
    # the pressure inverts grad_newton on B = H_mu u + D1 u - f, which drops
    # the mean of B
    u = divergence_free_velocity(grid2, 62, time_dependent=True)
    f = FormField(grid2, 1, np.ones((2, grid2.M + 1) + grid2.spatial_shape))
    recover_pressure(u, f, MU)
    zero = FormField.zero(grid2, 1, time_dependent=True)
    assert recover_pressure(zero, zero, MU).sup_norm() == 0.0


# tracemalloc peak of one _recover_state after one warm-up call, in scalar
# fields over space-time, read in a fresh interpreter: in the test process the
# peak also counted Python objects that depended on which tests ran before
RECOVER_STATE_PEAK = """
import sys, tracemalloc
from layerflow.corpus import divergence_free_velocity
from layerflow.forms import exterior_derivative
from layerflow.geometry import GridSpec
from layerflow.nse import _recover_state, recover_velocity

n, N, M = map(int, sys.argv[1:])
grid = GridSpec(n=n, N=N, L=6.0, M=M, T=0.5)
g = exterior_derivative(divergence_free_velocity(grid, 63, time_dependent=True))
f = divergence_free_velocity(grid, 64, time_dependent=True)
u0 = recover_velocity(g).slice_at(0)
_recover_state(g, f, u0, 0.1, [])
tracemalloc.start()
_recover_state(g, f, u0, 0.1, [])
print(tracemalloc.get_traced_memory()[1] / ((M + 1) * N ** n * 8))
"""


@pytest.mark.memory
@pytest.mark.parametrize("dim, fields", [(2, 10.16), (3, 14.882)])
def test_recover_state_peak_memory(dim, fields):
    # 11.37 (2-D) and 16.39 (3-D) fields when the FormField operators
    # chained, 11.159 and 15.881 in one pass that kept the divergence field
    # through the X transform; the bounds are the readings 10.1599 and
    # 14.8814 of the pass that reduces d*u to its per-slice figures at once;
    # never loosen
    grid_args = (2, 64, 16) if dim == 2 else (3, 16, 8)
    assert child_peak_fields(RECOVER_STATE_PEAK, *grid_args) <= fields


def test_frechet_apply(grid2):
    base = exterior_derivative(divergence_free_velocity(grid2, 16, time_dependent=True))
    h = exterior_derivative(divergence_free_velocity(grid2, 17, time_dependent=True))
    z = FormField.zero(grid2, 2, time_dependent=True)
    assert frechet_apply(z, base, MU).sup_norm() == 0.0
    # zero base point: the derivative is the identity
    got = frechet_apply(h, z, MU)
    assert (got - h).sup_norm() / h.sup_norm() < 1e-13

    eps = (1e-2, 1e-3, 1e-4)
    rem = taylor_remainders(base, h, MU, eps)
    slopes = np.diff(np.log(rem)) / np.diff(np.log(eps))
    assert np.all(np.abs(slopes - 2.0) < 0.1)


def test_solve_linear_reduced(grid2):
    g0 = exterior_derivative(divergence_free_velocity(grid2, 18, time_dependent=True))
    zero_lin = LinearizationData(g0_form=FormField.zero(grid2, 2, time_dependent=True),
                                 v1=FormField.zero(grid2, 1, time_dependent=True))
    cfg = make_cfg(krylov_tol=1e-12)
    sol = solve_linear_reduced(g0, zero_lin, cfg)
    assert (sol - g0).sup_norm() / g0.sup_norm() < 1e-11
    base = divergence_free_velocity(grid2, 19, time_dependent=True)
    lin = LinearizationData.from_base_velocity(base)
    sol2 = solve_linear_reduced(g0, lin, cfg)
    fwd = sol2 + volume_potential(op_W0(sol2, lin), MU)
    assert (fwd - g0).sup_norm() / g0.sup_norm() < 1e-9
    # two-term Neumann series for small coefficients
    small = LinearizationData(g0_form=0.02 * lin.g0_form, v1=0.02 * lin.v1)
    sol3 = solve_linear_reduced(g0, small, cfg)
    approx = g0 - volume_potential(op_W0(g0, small), MU)
    assert (sol3 - approx).sup_norm() / g0.sup_norm() < 1e-2 * 0.02


def test_recover_velocity_pressure(grid2, divfree2_td):
    g = exterior_derivative(divfree2_td)
    u = recover_velocity(g)
    assert rel_err(u, divfree2_td) < 1e-10
    assert rel_err(exterior_derivative(u), g) < 1e-10
    assert codifferential(u).sup_norm() / u.sup_norm() < 1e-12
    # shifting the forcing by an exact gradient moves the pressure, not u
    f = random_field(grid2, 1, 20, time_dependent=True)
    base = random_field(grid2, 0, 21, time_dependent=True)
    base.data -= base.data.mean(axis=tuple(range(-grid2.n, 0)), keepdims=True)
    p1 = recover_pressure(divfree2_td, f, MU)
    p2 = recover_pressure(divfree2_td, f + exterior_derivative(base), MU)
    assert rel_err(p2 - p1, base) < 1e-10


def test_solve_nse_zero_data(grid2):
    z1 = FormField.zero(grid2, 1, time_dependent=True)
    z0 = FormField.zero(grid2, 1)
    state = solve_nse(z1, z0, make_cfg())
    assert state.u.sup_norm() == 0.0
    assert state.p.sup_norm() == 0.0
    assert state.diagnostics["iterations"][-1]["iteration"] == 0


def test_solve_nse_radial_exact():
    mu = 0.1
    grid = GridSpec(n=2, N=128, L=6.0, M=64, T=0.5)
    u0 = radial_velocity(grid, 0.0, mu)
    cfg = SolverConfig(tol=1e-8, max_iter=10, potential=PotentialConfig(mu=mu))
    state = solve_nse(None, u0, cfg)
    exact_T = radial_velocity(grid, grid.T, mu)
    err = (state.u.slice_at(grid.M) - exact_T).sup_norm() / exact_T.sup_norm()
    assert err < 1e-4
    assert state.diagnostics["residuals"]["divergence_sup"].max() < 1e-10 * state.u.sup_norm()
    assert rel_err(exterior_derivative(state.u), state.g) < 1e-10


def test_nse_residual_properties(grid2):
    u0 = divergence_free_velocity(grid2, 22)
    f = divergence_free_velocity(grid2, 23, time_dependent=True)
    state = solve_nse(f, u0, make_cfg())
    res = state.diagnostics["residuals"]
    # zero state against nonzero forcing: momentum residual is ||f||
    zstate = FlowState(u=FormField.zero(grid2, 1, time_dependent=True),
                       p=FormField.zero(grid2, 0, time_dependent=True),
                       g=FormField.zero(grid2, 2, time_dependent=True))
    zres = nse_residual(zstate, f, FormField.zero(grid2, 1), MU)
    assert zres["momentum_sup"].max() == pytest.approx(f.sup_norm())
    # adding a constant to the pressure leaves the residual unchanged
    shifted = FlowState(u=state.u, p=FormField(grid2, 0, state.p.data + 3.0),
                        g=state.g)
    res2 = nse_residual(shifted, f, state.u0 if state.u0 is not None else u0, MU)
    assert np.allclose(res2["momentum_sup"], res["momentum_sup"], rtol=1e-12, atol=1e-14)


def test_reduction_round_trip(grid2):
    """Re-assembling g0 from the solved state's data closes the reduced
    equation within the solver tolerance."""
    cfg = make_cfg(tol=1e-9, max_iter=60)
    u0 = divergence_free_velocity(grid2, 40, amplitude=2.0)
    f = divergence_free_velocity(grid2, 41, time_dependent=True, amplitude=2.0)
    state = solve_nse(f, u0, cfg)
    g0 = assemble_g0(f, state.u0, MU)
    resid = state.g + volume_potential(op_D2(state.g), MU) - g0
    assert resid.sup_norm() <= cfg.tol


def test_energy_report(grid2, grid3_coarse, transform_count):
    z = FormField.zero(grid2, 1, time_dependent=True)
    er = energy_report(z, None, 0.1)
    assert np.all(er["energy"] == 0.0) and np.all(er["defect"] == 0.0)
    # unforced flow: energy nonincreasing slice to slice
    u0 = divergence_free_velocity(grid2, 24)
    state = solve_nse(None, u0, make_cfg())
    er2 = energy_report(state.u, None, 0.1)
    assert np.all(np.diff(er2["energy"]) <= 1e-12)
    # the dissipation mu (|du|^2 + |d*u|^2) against mu sum_i |d_i u|^2, on
    # fields that are not divergence-free, so that the d*u term counts; and
    # bit for bit against du and d*u from an inverse each, though it takes
    # 2 transform calls (u forward, du and d*u back in one) instead of 3.
    # Never loosen
    for grid in (grid2, grid3_coarse):
        u = random_field(grid, 1, 34, time_dependent=True)
        assert codifferential(u).sup_norm() > 0.1 * u.sup_norm()
        axes = tuple(range(-grid.n, 0))
        want = 0.1 * grid.h ** grid.n * sum(
            np.sum(spectral.derivative(u.data[c], grid, i) ** 2, axis=axes)
            for i in range(grid.n) for c in range(grid.n))
        axes = (0,) + axes
        each = 0.1 * (np.sum(exterior_derivative(u).data ** 2, axis=axes)
                      + np.sum(codifferential(u).data ** 2, axis=axes)) * grid.h ** grid.n
        transform_count.clear()
        got = energy_report(u, None, 0.1)["dissipation"]
        assert transform_count.calls <= 2
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        assert np.array_equal(got, each)


def assert_same_table(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key])


# transform calls of the solves below while the energy table was formed only
# on request, from the sums the momentum pass kept on the state
SOLVE_CALLS = {(2, False): 40, (2, True): 45, (3, False): 44, (3, True): 49}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("forced", [False, True])
def test_solve_nse_energy_table_is_energy_report(dim, forced, grid2, grid3_coarse,
                                                 transform_count):
    # recovery builds the table from the sums of |du|^2 and |d*u|^2 of its
    # momentum pass: energy_report's table bit for bit, at no transform
    # beyond those of the solve. Never loosen
    grid = grid2 if dim == 2 else grid3_coarse
    f = divergence_free_velocity(grid, 23, time_dependent=True) if forced else None
    transform_count.clear()
    state = solve_nse(f, divergence_free_velocity(grid, 22), make_cfg())
    assert transform_count.calls <= SOLVE_CALLS[dim, forced]
    assert_same_table(state.diagnostics["energy"], energy_report(state.u, f, MU))


@pytest.mark.parametrize("mode", ["picard", "newton"])
def test_failed_solve_nse_energy_table_is_energy_report(mode, grid2):
    # a failed solve's state goes through the same recovery
    f = divergence_free_velocity(grid2, 23, time_dependent=True)
    with pytest.raises(ReducedSolveError) as info:
        solve_nse(f, divergence_free_velocity(grid2, 22), make_cfg(mode=mode, tol=1e-30,
                                                                   max_iter=2))
    state = info.value.state
    assert_same_table(state.diagnostics["energy"], energy_report(state.u, f, MU))


def test_momentum_pass_refuses_a_static_velocity_before_any_transform(transform_count):
    # a static velocity has no time derivative: recover_pressure, nse_residual
    # and momentum_operator ended in numpy's "non-broadcastable operand" error
    grid = GridSpec(n=2, N=32, L=6.0, M=8, T=0.5)
    u = divergence_free_velocity(grid, 3)
    static = FlowState(u=u, p=FormField.zero(grid, 0), g=exterior_derivative(u))
    transform_count.clear()
    for call in (lambda: recover_pressure(u, None, 0.1), lambda: nse_residual(static, None, u, MU),
                 lambda: momentum_operator(static, MU)):
        with pytest.raises(ValueError, match="^u: must be a time-dependent 1-form, got a static "
                                             "1-form$"):
            call()
    assert transform_count.calls == 0


def test_energy_report_refuses_static_velocity_and_short_time_grid(grid2):
    # a static velocity failed in numpy with "operands could not be broadcast
    # together"; M = 3 intervals passed through np.gradient, which every other
    # caller of the time stencil refuses; a 2-form forcing's one component
    # broadcast against the velocity's two into a power column
    u = divergence_free_velocity(grid2, 24, time_dependent=True)
    with pytest.raises(ValueError, match="^u: must be a time-dependent 1-form, got a static "
                                         "1-form$"):
        energy_report(u.slice_at(0), None, 0.1)
    with pytest.raises(ValueError, match="^f: must be a time-dependent 1-form, got a "
                                         "time-dependent 2-form$"):
        energy_report(u, exterior_derivative(u), 0.1)
    short = replace(grid2, M=3)
    with pytest.raises(ValueError, match="M >= 4"):
        energy_report(random_field(short, 1, 34, time_dependent=True), None, 0.1)


def test_solution_metric_axioms(grid2):
    cfg = make_cfg()
    params = HolderParams(s=0, lam=0.25, delta=1.5, k=0, lam_prime=0.5)
    u0 = divergence_free_velocity(grid2, 25)
    f = divergence_free_velocity(grid2, 26, time_dependent=True)
    a = solve_nse(f, u0, cfg)
    b = solve_nse(1.2 * f, u0, cfg)
    assert solution_metric(a, a, params, 0.1) == 0.0
    dab = solution_metric(a, b, params, 0.1, n_random=5000)
    dba = solution_metric(b, a, params, 0.1, n_random=5000)
    assert dab == pytest.approx(dba, rel=1e-12)
    assert dab > 0.0


METRIC_PARAMS = HolderParams(s=0, lam=0.25, delta=1.5, k=0, lam_prime=0.5)


@pytest.fixture(scope="module")
def solved_states(grid2):
    """Two unforced solves and one forced solve on grid2."""
    cfg = make_cfg()
    u0 = divergence_free_velocity(grid2, 22)
    return (solve_nse(None, u0, cfg),
            solve_nse(None, u0 + 1e-2 * divergence_free_velocity(grid2, 25), cfg),
            solve_nse(divergence_free_velocity(grid2, 23, time_dependent=True), u0, cfg))


def test_solution_metric_transforms(solved_states, transform_count):
    # transform calls: f_norm's forward and two inverses for each of the
    # differences of u, p, g and the flow-map images; the images come with
    # the solved states (20 calls when each metric ran the momentum pass for
    # both); never loosen
    transform_count.clear()
    solution_metric(solved_states[0], solved_states[1], METRIC_PARAMS, MU, n_random=5000)
    assert transform_count.calls <= 12


def test_solution_metric_refuses_states_of_another_time_extent(solved_states):
    # a static state against a solved one was refused by the difference of
    # the velocities, whose message names its argument "other"
    solved = solved_states[0]
    static = FlowState(u=solved.u.slice_at(0), p=solved.p.slice_at(0), g=solved.g.slice_at(0))
    for a, b, want, got in ((solved, static, "time-dependent", "static"),
                            (static, solved, "static", "time-dependent")):
        with pytest.raises(ValueError, match=f"^b: must be a {want} 1-form, got a {got} 1-form$"):
            solution_metric(a, b, METRIC_PARAMS, MU)


def test_solution_metric_refuses_static_states_before_any_transform(transform_count):
    # two static states pass the check of b against a; a's own check refuses
    # them before the norm terms, which would make 9 transforms first
    u = divergence_free_velocity(GridSpec(n=2, N=32, L=6.0, M=8, T=0.5), 3)
    state = FlowState(u=u, p=FormField.zero(u.grid, 0), g=exterior_derivative(u))
    transform_count.clear()
    with pytest.raises(ValueError,
                       match="^a: must be a time-dependent 1-form, got a static 1-form$"):
        solution_metric(state, FlowState(u=u, p=state.p, g=state.g), METRIC_PARAMS, MU)
    assert transform_count.calls == 0


@pytest.mark.parametrize("forced", [False, True])
def test_solved_state_image_matches_momentum_pass(solved_states, forced):
    # the image is the residual of recovery plus f; unforced it is the
    # momentum pass at the state's p bit for bit; forced, f left the pass
    # before a transform and came back after, so the two differ by rounding
    # on the scale of H_mu u + D1 u
    state = solved_states[2 if forced else 0]
    got, trace = momentum_operator(state, MU)
    want = _momentum(state.u, state.p, None, MU)[1]
    assert np.array_equal(trace.data, state.u.data[:, 0])
    if forced:
        scale = (heat_operator(state.u, MU) + substantial_derivative(state.u)).sup_norm()
        assert (got - want).sup_norm() <= 1e-14 * scale
    else:
        assert np.array_equal(got.data, want.data)


def test_momentum_operator_forms_image_afresh(solved_states, monkeypatch):
    # only a solved state, at its own mu and with its own u and p objects,
    # skips the momentum pass
    from layerflow import nse
    state = solved_states[0]
    calls = []
    real = nse._momentum

    def counted(*args, **kw):
        calls.append(args[3])
        return real(*args, **kw)

    monkeypatch.setattr(nse, "_momentum", counted)
    moved = copy.copy(state)
    momentum_operator(moved, MU)
    assert calls == []
    moved.p = 2.0 * state.p
    cases = [(FlowState(u=state.u, p=state.p, g=state.g), MU),
             (state, 0.2),
             (replace(state, u=1.01 * state.u), MU),
             (moved, MU)]
    for other, mu in cases:
        got = momentum_operator(other, mu)[0]
        assert np.array_equal(got.data, real(other.u, other.p, None, mu)[1].data)
    assert calls == [MU, 0.2, MU, MU]


def test_flow_map_image_is_read_only(solved_states):
    state = solved_states[0]
    image = momentum_operator(state, MU)[0]
    before = image.data.copy()
    with pytest.raises(ValueError):
        image.data[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        image.data += 1.0
    # rebinding the returned field's array leaves the state's image alone
    image.data = np.zeros_like(before)
    assert np.array_equal(momentum_operator(state, MU)[0].data, before)


def test_solved_state_fields_are_read_only(solved_states):
    # a write into the arrays of a solved u or p left the image that
    # momentum_operator returns stale (by 0.063 sup on a 32^2 grid)
    for state in solved_states:
        for x in (state.u, state.p):
            before = x.data.copy()
            with pytest.raises(ValueError):
                x.data *= 2.0
            assert np.array_equal(x.data, before)
    state = solved_states[0]
    got = momentum_operator(state, MU)[0]
    assert np.array_equal(got.data, _momentum(state.u, state.p, None, MU)[1].data)


def test_solve_nse_refuses_bad_data_before_any_transform(grid2, transform_count):
    # the rules of a solve's data live in solve_nse alone, and each refusal
    # names the argument at fault
    u0 = divergence_free_velocity(grid2, 22)
    f = divergence_free_velocity(grid2, 23, time_dependent=True)
    wide = replace(grid2, L=2.0 * grid2.L)
    cases = [(f.slice_at(0), u0, "^f: must be a time-dependent 1-form, got a static 1-form$"),
             (exterior_derivative(f), u0, "^f: must be a time-dependent 1-form, got a "
                                          "time-dependent 2-form$"),
             (None, exterior_derivative(u0), "^u0: must be a static 1-form, got a static 2-form$"),
             (FormField(wide, 1, f.data), u0, "^f: grid mismatch")]
    transform_count.clear()
    for forcing, initial, message in cases:
        with pytest.raises(ValueError, match=message):
            solve_nse(forcing, initial, make_cfg())
    assert transform_count.calls == 0


@pytest.mark.parametrize("name, value", [("max_iter", 2.5), ("max_iter", True),
                                         ("krylov_max", 2.5), ("krylov_max", True)])
def test_solver_config_refuses_non_integer_counts(name, value):
    # max_iter = 2.5 failed late inside range(), and max_iter = True ran one
    # iteration and reported "no convergence after True iterations"
    with pytest.raises(ValueError, match=f"^{name}: must be an integer, got {value!r}$"):
        make_cfg(**{name: value})


@pytest.mark.parametrize("kw, message", [
    ({"tol": -1.0}, "tol: must be positive and finite, got -1.0"),
    ({"krylov_tol": math.inf}, "krylov_tol: must be positive and finite, got inf"),
    ({"mode": "gauss"}, "mode: must be 'picard' or 'newton', got 'gauss'"),
    ({"max_iter": -1}, "max_iter: must be >= 0, got -1"),
    ({"krylov_max": 0}, "krylov_max: must be >= 1, got 0")])
def test_solver_config_messages_name_the_field(kw, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_cfg(**kw)


def test_solver_config_refuses_a_potential_that_is_not_a_config():
    # SolverConfig(potential=0.1) was accepted, and solve_nse failed after
    # leray_project with AttributeError: 'float' object has no attribute 'mu'
    with pytest.raises(ValueError, match="^potential: must be a PotentialConfig, got 0.1$"):
        SolverConfig(potential=0.1)


def test_flow_state_checks_its_fields_when_built(grid2_coarse, transform_count):
    # FlowState(u, p, g=u) was accepted, and solution_metric refused it only
    # after the u and p terms had run their transforms, naming it "other"
    u = divergence_free_velocity(grid2_coarse, 1, time_dependent=True)
    g, p = exterior_derivative(u), random_field(grid2_coarse, 0, 2, time_dependent=True)
    wide = GridSpec(n=2, N=32, L=12.0, M=8, T=0.5)
    cases = [(dict(g=u), "g: must be a time-dependent 2-form, got a time-dependent 1-form"),
             (dict(u=g, g=g), "u: must be a 1-form, got a time-dependent 2-form"),
             (dict(p=p.slice_at(0)), "p: must be a time-dependent 0-form, got a static 0-form"),
             (dict(g=g.slice_at(0)), "g: must be a time-dependent 2-form, got a static 2-form"),
             (dict(p=FormField(wide, 0, p.data)),
              f"p: grid mismatch, {wide} against {grid2_coarse} of u"),
             (dict(f=u.slice_at(0)), "f: must be a time-dependent 1-form, got a static 1-form"),
             (dict(f=g), "f: must be a time-dependent 1-form, got a time-dependent 2-form"),
             (dict(u0=g.slice_at(0)), "u0: must be a 1-form, got a static 2-form"),
             (dict(u0=FormField(wide, 1, u.data[:, 0])),
              f"u0: grid mismatch, {wide} against {grid2_coarse} of u")]
    transform_count.clear()
    for kwargs, message in cases:
        with pytest.raises(ValueError) as info:
            FlowState(**{"u": u, "p": p, "g": g, **kwargs})
        assert str(info.value) == message
    assert transform_count.calls == 0
    assert FlowState(u=u, p=p, g=g, f=u, u0=u.slice_at(0)).u is u


def test_potential_config_owns_the_default_viscosity():
    assert SolverConfig().potential == PotentialConfig() == PotentialConfig(mu=0.1)
    with pytest.raises(ValueError, match="^mu: must be positive and finite, got 0.0$"):
        PotentialConfig(mu=0.0)


def test_uniqueness_probe(grid2):
    """Distinct initializations land on the same fixed point (metric gap
    below ten times the solver tolerance once the iterates sit well under
    tol; Picard stopping right at tol leaves a gap of a few tens of tol,
    the metric-assembly constant)."""
    tol = 1e-10
    cfg = make_cfg(mode="newton", tol=tol, max_iter=12)
    params = HolderParams(s=0, lam=0.25, delta=1.5, k=0, lam_prime=0.5)
    u0 = divergence_free_velocity(grid2, 27, amplitude=2.0)
    f = divergence_free_velocity(grid2, 28, time_dependent=True, amplitude=2.0)
    g0 = assemble_g0(f, leray_project(u0), MU)
    g_a, _ = solve_reduced(g0, None, cfg)
    other = g0 + 0.3 * exterior_derivative(
        divergence_free_velocity(grid2, 29, time_dependent=True))
    g_b, _ = solve_reduced(g0, other, cfg)
    assert (g_a - g_b).sup_norm() > 0.0
    states = [_recover_state(g, f, u0, MU, []) for g in (g_a, g_b)]
    dist = solution_metric(*states, params, MU, n_random=5000)
    assert dist < 10.0 * tol
    # Picard pair at the same data: agreement at the assembly-constant level
    gp_a, _ = solve_reduced(g0, None, make_cfg(tol=tol, max_iter=80))
    gp_b, _ = solve_reduced(g0, other, make_cfg(tol=tol, max_iter=80))
    states = [_recover_state(g, f, u0, MU, []) for g in (gp_a, gp_b)]
    dist_p = solution_metric(*states, params, MU, n_random=5000)
    assert dist_p < 1000.0 * tol
