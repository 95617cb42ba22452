import math

import numpy as np
import pytest

from layerflow import spectral
from layerflow.corpus import random_field
from layerflow.forms import (FormField, codifferential, componentwise_laplacian,
                             exterior_derivative, rel_err)
from layerflow.geometry import GridSpec
from layerflow.holder import weighted_sup
from layerflow.potentials import (PotentialConfig, SingularEvaluationError, corrected_kernel,
                                  corrected_potential_quadrature,
                                  grad_newton, heat_kernel, key0_bound_check,
                                  newton_kernel, newton_potential,
                                  newton_potential_quadrature, norm_smoothing,
                                  poisson_potential, trace, volume_potential)
from layerflow.verify import green_defect, newton_inverse_defect

MU = 0.1


def test_potential_config_invariants(grid2):
    # the config, both semigroup potentials and the heat-kernel bound refuse
    # a mu for which exp(-mu |k|^2 t) does not decay
    u0 = random_field(grid2, 1, 0)
    f = random_field(grid2, 1, 1, time_dependent=True)
    for make in (lambda mu: PotentialConfig(mu=mu), lambda mu: poisson_potential(u0, mu),
                 lambda mu: volume_potential(f, mu),
                 lambda mu: key0_bound_check(grid2, delta=2.0, gamma=1.0, mu=mu)):
        for mu in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                make(mu)


def test_newton_kernel_values():
    assert newton_kernel([1.0, 0.0, 0.0], 3) == pytest.approx(-1.0 / (4.0 * math.pi))
    assert newton_kernel([1.0, 0.0], 2) == 0.0
    assert newton_kernel([2.0, 0.0, 0.0], 3) == pytest.approx(
        newton_kernel([1.0, 0.0, 0.0], 3) / 2.0)
    with pytest.raises(SingularEvaluationError):
        newton_kernel([0.0, 0.0], 2)


@pytest.mark.parametrize("mu", [-0.1, 0.0, math.nan, math.inf])
def test_heat_kernel_refuses_bad_mu(mu):
    # mu = -0.1 gave -2,135,360.28, mu = 0 a ZeroDivisionError, nan a nan and
    # inf 0.0; the refusal does not depend on t
    for t in (0.1, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            heat_kernel([0.5, 0.5], t, mu)


def test_point_kernels_refuse_points_of_another_dimension():
    # newton_kernel([1, 2, 3], 2) returned 0.2100, and corrected_kernel
    # ignored the extra coordinate the same way
    for x, n in (([1.0, 2.0, 3.0], 2), ([1.0, 2.0], 3), (3.0, 2)):
        with pytest.raises(ValueError, match=f"point of R\\^{n}"):
            newton_kernel(x, n)
    for x, y in (([3.0, 0.0, 1.0], [0.5, 0.5, 0.5]), ([3.0, 0.0], [0.5, 0.5, 0.5]),
                 ([3.0, 0.0, 1.0], [0.5, 0.5])):
        with pytest.raises(ValueError, match="point of R\\^2"):
            corrected_kernel(x, y, 1, 2)


def test_newton_potential_inverse(grid2):
    # f = Laplacian(g): the potential gives back g - mean(g) on nonzero modes
    g_src = random_field(grid2, 0, 1)
    f = componentwise_laplacian(g_src)
    rec = newton_potential(f)
    target = FormField(grid2, 0, g_src.data - g_src.data.mean())
    assert rel_err(rec, target) < 1e-10
    # defining relation
    f2 = random_field(grid2, 0, 2)
    assert newton_inverse_defect(f2) < 1e-10
    # linearity
    a = newton_potential(f) + 2.0 * newton_potential(f2)
    b = newton_potential(f + 2.0 * f2)
    assert (a - b).sup_norm() < 1e-13


def test_newton_potential_drops_zero_mode(grid2):
    biased = FormField(grid2, 0, np.full((1,) + grid2.spatial_shape, 1.0))
    assert newton_potential(biased).sup_norm() < 1e-14  # only the zero mode, dropped


def test_grad_newton_reconstruction(grid2, divfree2, divfree2_td):
    for u in (divfree2, divfree2_td):
        rec = grad_newton(exterior_derivative(u))
        assert rel_err(rec, u) < 1e-10
    z = FormField.zero(grid2, 2)
    assert grad_newton(z).sup_norm() == 0.0
    g = random_field(grid2, 2, 3)
    assert codifferential(grad_newton(g)).sup_norm() / g.sup_norm() < 1e-13
    with pytest.raises(ValueError):
        grad_newton(random_field(grid2, 0, 0))


def test_norm_smoothing_constraints():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(size=3) * rng.uniform(0, 4)
        v = norm_smoothing(x)
        assert v >= 1.0
        if np.linalg.norm(x) >= 2.0:
            assert v == pytest.approx(np.linalg.norm(x))
    # C^1 match at |x| = 2
    eps = 1e-6
    lo = norm_smoothing([2.0 - eps, 0.0])
    hi = norm_smoothing([2.0 + eps, 0.0])
    assert abs(hi - lo) < 3.0 * eps


def test_corrected_kernel_pointwise():
    # m=0, y=0: phi_0(x,0) = phi(x) - phi(<x>) = 0 once <x> = |x|
    for r in (2.0, 3.5, 5.0):
        assert corrected_kernel([r, 0.0, 0.0], [0.0, 0.0, 0.0], 0, 3) == pytest.approx(0.0, abs=1e-15)
    # telescoping decay as |x| grows, fixed y
    y = [0.5, 0.3, 0.1]
    vals = [abs(corrected_kernel([r, 0.0, 0.0], y, 0, 3)) for r in (4.0, 8.0, 16.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-3
    with pytest.raises(ValueError):
        corrected_kernel([1.0, 0.0], [0.0, 0.0], 2, 2)
    with pytest.raises(SingularEvaluationError):
        corrected_kernel([1.0, 0.0], [1.0, 0.0], 0, 2)


def test_corrected_kernel_is_finite_at_distinct_points():
    # np.allclose took both pairs for x = y and raised, though |x - y| is
    # 5e-4 and 1e-9; only x - y = 0 is singular, as for newton_kernel
    for x, y in (([100.0, 0.0], [100.0005, 0.0]), ([1e-9, 0.0], [0.0, 0.0])):
        for m in (0, 1):
            assert math.isfinite(corrected_kernel(x, y, m, 2))
    with pytest.raises(SingularEvaluationError, match="^corrected kernel is singular at x = y$"):
        corrected_kernel([1e-9, 0.0], [1e-9, -0.0], 1, 2)


@pytest.mark.parametrize("n,m", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_corrected_kernel_harmonic_in_x(n, m):
    y = np.full(n, 0.25)
    x0 = np.full(n, 2.2)  # away from y and outside B_2
    eps = 1e-4
    lap = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = eps
        lap += (corrected_kernel(x0 + e, y, m, n) - 2.0 * corrected_kernel(x0, y, m, n)
                + corrected_kernel(x0 - e, y, m, n)) / eps ** 2
    assert abs(lap) < 1e-6


@pytest.mark.parametrize("n", [2, 3])
def test_corrected_potential_matches_newton_on_moment_free(n):
    grid = GridSpec(n=n, N=32, L=6.0, M=8, T=0.5)
    src = FormField(grid, 0, np.exp(-grid.radius2() / 0.6)[None])
    f = componentwise_laplacian(src)  # moments vanish through degree 2
    rng = np.random.default_rng(0)
    pts = rng.choice(grid.N ** n, size=60, replace=False)
    base = newton_potential_quadrature(f, pts)
    scale = np.max(np.abs(base))
    for m in (0, 1):
        corr = corrected_potential_quadrature(f, m, pts)
        assert np.max(np.abs(corr - base)) / scale < 1e-3
    # control: a field with nonzero total mass must disagree
    off = corrected_potential_quadrature(src, 0, pts)
    base2 = newton_potential_quadrature(src, pts)
    assert np.max(np.abs(off - base2)) / np.max(np.abs(base2)) > 1e-2


def test_heat_kernel_values():
    assert heat_kernel([1.0, 1.0], -0.5, 0.1) == 0.0
    assert heat_kernel([1.0, 1.0], 0.0, 0.1) == 0.0
    mu, t = 0.1, 0.3
    assert heat_kernel([0.0, 0.0], t, mu) == pytest.approx((4.0 * math.pi * mu * t) ** -1)
    # grid quadrature of the kernel integrates to one
    grid = GridSpec(n=2, N=64, L=6.0, M=4, T=0.5)
    pts = np.stack(grid.mesh(), axis=-1)
    vals = np.array([[heat_kernel(p, t, mu) for p in row] for row in pts.reshape(-1, 8, 2)])
    total = vals.sum() * grid.h ** 2
    assert total == pytest.approx(1.0, abs=1e-10)


def test_poisson_potential_gaussian_closed_form(grid2):
    mu = 0.1
    s2 = 0.5
    r2 = grid2.radius2()
    u0 = FormField(grid2, 0, np.exp(-r2 / (2.0 * s2))[None])
    ev = poisson_potential(u0, mu)
    assert np.array_equal(ev.data[0, 0], u0.data[0])  # t = 0 slice bit-exact
    for j in (grid2.M // 2, grid2.M):
        a = s2 + 2.0 * mu * grid2.times()[j]
        exact = (s2 / a) ** (grid2.n / 2.0) * np.exp(-r2 / (2.0 * a))
        assert np.max(np.abs(ev.data[0, j] - exact)) / np.max(exact) < 1e-10
    assert np.max(np.abs(ev.data)) <= u0.sup_norm() * (1.0 + 1e-13)  # max principle


@pytest.mark.parametrize("dim", [2, 3])
def test_poisson_potential_matches_closed_form_multiplier(dim, grid2, grid3_coarse):
    # the recursion P_j = step * P_{j-1} against the semigroup multiplier
    # exp(-mu |k|^2 t_j) applied to u0's coefficients at each time; never
    # loosen
    grid = grid2 if dim == 2 else grid3_coarse
    shape = {} if dim == 2 else {"kmax": 2, "sigma2": 0.8}
    u0 = random_field(grid, 1, 35, **shape)
    t = grid.times().reshape((-1,) + (1,) * grid.n)
    hat = spectral.fft_spatial(u0.data, grid)[:, None] * np.exp(-MU * spectral.ksq(grid) * t)
    want = spectral.ifft_spatial(hat, grid)
    got = poisson_potential(u0, MU).data
    assert np.array_equal(got[:, 0], u0.data)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_volume_potential_zero_and_single_mode(grid2):
    z = FormField.zero(grid2, 1, time_dependent=True)
    assert volume_potential(z, MU).sup_norm() == 0.0
    # time-constant single Fourier mode: exact scalar ODE solution per mode
    mu = 0.1
    k = 2.0 * np.pi / (2.0 * grid2.L) * 4
    X = grid2.mesh()[0]
    prof = np.cos(k * X)
    f = FormField(grid2, 0, np.tile(prof[None, None], (1, grid2.M + 1) + (1,) * 0)
                  if False else np.broadcast_to(prof, (1, grid2.M + 1) + grid2.spatial_shape).copy())
    got = volume_potential(f, mu)
    lam = mu * k ** 2
    worst = 0.0
    for j, t in enumerate(grid2.times()):
        exact = (1.0 - math.exp(-lam * t)) / lam * prof
        worst = max(worst, np.max(np.abs(got.data[0, j] - exact)))
    assert worst < 10.0 * grid2.dt ** 2
    assert np.all(got.data[:, 0] == 0.0)


def test_semigroup_potentials_bring_back_slices_1_to_M(grid2, monkeypatch):
    # slice 0 is the data, u0 or zero, written bit-exact and never brought
    # back: the one inverse transform covers components x M slices, not
    # components x (M + 1). Never loosen
    inverse = []
    real = spectral.ifft_spatial

    def counted(arr, grid, *args, **kw):
        inverse.append(math.prod(arr.shape[:-grid.n]))
        return real(arr, grid, *args, **kw)

    monkeypatch.setattr(spectral, "ifft_spatial", counted)
    u0 = random_field(grid2, 1, 6)
    flow = poisson_potential(u0, MU)
    vol = volume_potential(random_field(grid2, 2, 7, time_dependent=True), MU)
    assert inverse == [2 * grid2.M, 1 * grid2.M]
    assert np.array_equal(flow.data[:, 0].view(np.int64), u0.data.view(np.int64))
    assert not np.any(vol.data[:, 0].view(np.int64))  # +0.0 in every bit


def test_green_reconstruction_second_order():
    mu = 0.1
    errs = []
    for M in (16, 32, 64):
        grid = GridSpec(n=2, N=64, L=6.0, M=M, T=0.5)
        base = random_field(grid, 1, 5)
        t = grid.times().reshape((M + 1,) + (1,) * 2)
        u = FormField(grid, 1, base.data[:, None] * (1.0 + 0.4 * np.sin(3.0 * t)))
        errs.append(green_defect(u, mu))
    assert errs[2] < 1e-3
    order = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(order > 1.6) and np.all(order < 2.4)


def test_trace(grid2):
    u0 = random_field(grid2, 1, 6)
    flow = poisson_potential(u0, MU)
    assert (trace(flow, 0.0) - u0).sup_norm() == 0.0
    f = random_field(grid2, 1, 7, time_dependent=True)
    assert trace(volume_potential(f, MU), 0.0).sup_norm() == 0.0
    # commutation with d
    j = grid2.M // 2
    t0 = grid2.times()[j]
    a = exterior_derivative(trace(f, t0))
    b = trace(exterior_derivative(f), t0)
    assert (a - b).sup_norm() < 1e-13
    with pytest.raises(ValueError):
        trace(f, 0.123456)
    with pytest.raises(ValueError):
        trace(u0, 0.0)


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_trace_refuses_non_finite_time(grid2, t0):
    # a NaN time failed in round() with "cannot convert float NaN to integer"
    f = random_field(grid2, 1, 7, time_dependent=True)
    with pytest.raises(ValueError, match="is not a grid time node"):
        trace(f, t0)


def test_commutation_d_with_potentials(grid2):
    f = random_field(grid2, 1, 8, time_dependent=True)
    a = exterior_derivative(volume_potential(f, MU))
    b = volume_potential(exterior_derivative(f), MU)
    assert rel_err(a, b) < 1e-10
    u0 = random_field(grid2, 1, 9)
    a2 = exterior_derivative(poisson_potential(u0, MU))
    b2 = poisson_potential(exterior_derivative(u0), MU)
    assert rel_err(a2, b2) < 1e-10


def test_poisson_semigroup_property(grid2):
    # evolving to t1 and then restarting for t2 equals the single evolution
    # to t1 + t2 (multiplier composition)
    u0 = random_field(grid2, 0, 10)
    flow = poisson_potential(u0, MU)
    j_half = grid2.M // 2
    restart = poisson_potential(flow.slice_at(j_half), MU)
    composed = restart.slice_at(j_half)  # total time 2 * (T/2) = T
    direct = flow.slice_at(grid2.M)
    assert (composed - direct).sup_norm() / direct.sup_norm() < 1e-13


def test_key0_bound_report(grid2):
    rep = key0_bound_check(grid2, delta=2.0, gamma=1.0, mu=1.0, times=(0.1, 1.0))
    assert rep["constant"] < 100.0
    assert rep["samples"] > 0
    # radial symmetry: ratios at x and -x agree where the kernel mass stays
    # inside the box (interior samples, smallest diffusion width)
    by_x = {}
    for ratio, t, x in rep["ratios"]:
        if t == 0.1 and np.linalg.norm(x) <= grid2.L / 2.0:
            by_x.setdefault(tuple(np.abs(x)), []).append(ratio)
    checked = 0
    for vals in by_x.values():
        if len(vals) > 1:
            assert max(vals) - min(vals) < 1e-8 * max(vals)
            checked += 1
    assert checked >= 2
    with pytest.raises(ValueError):
        key0_bound_check(grid2, delta=0.0, gamma=1.0, mu=1.0)


@pytest.mark.parametrize("t", [0.0, -0.1, math.nan, math.inf])
def test_key0_bound_check_refuses_bad_times(grid2, t):
    # at t = 0 the ratio was nan and at t < 0 inf, each with RuntimeWarnings
    with pytest.raises(ValueError, match="positive and finite"):
        key0_bound_check(grid2, delta=2.0, gamma=1.0, mu=0.1, times=(0.5, t))


@pytest.mark.parametrize("name", ["delta", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_key0_bound_check_refuses_non_finite_indices(grid2_coarse, name, value):
    # a nan index gave the constant nan, delta = inf a ZeroDivisionError and
    # gamma = inf nan with a RuntimeWarning
    kw = {"delta": 2.0, "gamma": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name}: must be positive and finite, got {value}$"):
        key0_bound_check(grid2_coarse, mu=0.1, **kw)


def test_key0_bound_check_refuses_no_times(grid2_coarse):
    # no times ended in "max() arg is an empty sequence"
    message = r"^times: must be one or more, positive and finite, got \(\)$"
    with pytest.raises(ValueError, match=message):
        key0_bound_check(grid2_coarse, delta=2.0, gamma=1.0, mu=0.1, times=())


def test_poisson_weighted_sup_contraction(grid2):
    """The heat evolution contracts weighted sup norms up to the empirical
    kernel-bound constant."""
    delta = 2.0
    rep = key0_bound_check(grid2, delta=delta, gamma=0.1, mu=0.1)
    c = rep["constant"]
    for seed in range(3):
        u0 = random_field(grid2, 0, 30 + seed)
        ev = poisson_potential(u0, MU)
        assert weighted_sup(ev, delta) <= c * weighted_sup(u0, delta) * 1.05
