import ast
import dataclasses
import inspect
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import layerflow
from layerflow.corpus import divergence_free_velocity, random_field
from layerflow.forms import (FormField, bilinear_advective, codifferential,
                             componentwise_laplacian, exterior_derivative, heat_operator,
                             hodge_star, laplacian_form, rel_err, substantial_derivative,
                             time_derivative, verify_factorization, wedge)
from layerflow.geometry import GridSpec
from layerflow.nse import recover_pressure
from layerflow.potentials import poisson_potential
from layerflow.verify import advective_oracle
from layerflow import spectral


@pytest.mark.parametrize("n", [2, 3])
def test_spectral_half_spectrum(n):
    # real-to-complex transforms: coefficients and symbols live on the half
    # spectrum, and a derivative through it matches a full complex transform
    grid = GridSpec(n=n, N=16, L=6.0, M=4, T=0.5)
    half = (16,) * (n - 1) + (9,)
    f = random_field(grid, 0, 3, time_dependent=True, kmax=2, sigma2=0.8).data
    hat = spectral.fft_spatial(f, grid)
    assert hat.shape == f.shape[:-n] + half
    assert spectral.ksq(grid).shape == spectral.inv_ksq(grid).shape == half
    assert np.max(np.abs(spectral.ifft_spatial(hat, grid) - f)) < 1e-14 * np.max(np.abs(f))
    k = 2.0 * np.pi * np.fft.fftfreq(16, d=grid.h)
    k[8] = 0.0
    axes = tuple(range(-n, 0))
    for i in range(n):
        shape = [1] * n
        shape[i] = 16
        ref = np.fft.ifftn(1j * k.reshape(shape) * np.fft.fftn(f, axes=axes), axes=axes).real
        got = spectral.derivative(f, grid, i)
        assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, N, M", [(2, 64, 16), (2, 128, 64), (3, 16, 8), (3, 32, 8)])
def test_transforms_match_scipy_bit_for_bit(n, N, M):
    # the passes over numpy's pocketfft run in the order and with the scaling
    # of pocketfft's n-D transforms, so both directions are scipy.fft.rfftn
    # and irfftn bit for bit
    grid = GridSpec(n=n, N=N, L=6.0, M=M, T=0.5)
    axes = tuple(range(-n, 0))
    for f in (random_field(grid, 1, 5, time_dependent=True).data,
              random_field(grid, 0, 6, time_dependent=True).data):
        hat = spectral.fft_spatial(f, grid)
        assert np.array_equal(hat, scipy.fft.rfftn(f, axes=axes))
        want = scipy.fft.irfftn(hat, s=grid.spatial_shape, axes=axes)
        assert np.array_equal(spectral.ifft_spatial(hat, grid), want)


@pytest.mark.parametrize("n, N", [(2, 64), (3, 16)])
def test_consuming_inverse_matches_irfftn(n, N):
    # the consuming inverse (leading axes in place, then the last axis) is
    # irfftn bit for bit on power-of-two grids; a read-only array, like every
    # cached table, is refused and left as it was
    grid = GridSpec(n=n, N=N, L=6.0, M=16, T=0.5)
    hat = spectral.fft_spatial(random_field(grid, 1, 4, time_dependent=True).data, grid)
    want = scipy.fft.irfftn(hat, s=grid.spatial_shape, axes=tuple(range(-n, 0)))
    frozen = hat.copy()
    frozen.setflags(write=False)
    with pytest.raises(ValueError, match="not writeable"):
        spectral.ifft_spatial(frozen, grid)
    assert np.array_equal(frozen, hat)
    assert np.array_equal(spectral.ifft_spatial(hat, grid), want)


# -- wedge and star ---------------------------------------------------------


def test_wedge_basis_and_antisymmetry(grid2):
    one = np.ones(grid2.spatial_shape)
    dx1 = FormField.from_components(grid2, 1, (one, 0 * one))
    dx2 = FormField.from_components(grid2, 1, (0 * one, one))
    w = wedge(dx1, dx2)
    assert np.allclose(w.data[0], 1.0)
    u = random_field(grid2, 1, 3)
    assert wedge(u, u).sup_norm() < 1e-15
    # (2 dx1 + 3 dx2) ^ dx2 = 2 dx1^dx2
    v = FormField.from_components(grid2, 1, (2 * one, 3 * one))
    assert np.allclose(wedge(v, dx2).data[0], 2.0)


def test_wedge_graded_anticommutativity(grid3_coarse):
    u = random_field(grid3_coarse, 1, 4)
    v = random_field(grid3_coarse, 2, 5)
    lhs = wedge(u, v)
    rhs = wedge(v, u)  # (-1)^{qr} = (-1)^2 = +1
    assert (lhs - rhs).sup_norm() < 1e-15
    a = random_field(grid3_coarse, 1, 6)
    assert (wedge(u, a) + wedge(a, u)).sup_norm() < 1e-15


def test_wedge_degree_overflow_and_grid_mismatch(grid2, grid2_coarse):
    u = random_field(grid2, 1, 0)
    v = random_field(grid2, 2, 1)
    with pytest.raises(ValueError):
        wedge(u, v)
    with pytest.raises(ValueError):
        wedge(u, random_field(grid2_coarse, 1, 0))


def test_hodge_star_basis_orientation(grid3_coarse):
    one = np.ones(grid3_coarse.spatial_shape)
    dx1 = FormField.from_components(grid3_coarse, 1, (one, 0 * one, 0 * one))
    s = hodge_star(dx1)  # expect dx2^dx3
    assert np.allclose(s.component((1, 2)), 1.0)
    assert np.allclose(s.component((0, 1)), 0.0)
    assert np.allclose(s.component((0, 2)), 0.0)


@pytest.mark.parametrize("n,q", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)])
def test_hodge_double_star_sign(n, q):
    grid = GridSpec(n=n, N=16, L=3.0, M=4, T=0.5)
    u = random_field(grid, q, 9, kmax=2, sigma2=0.4)
    sign = (-1) ** (q * (n - q))
    ss = hodge_star(hodge_star(u))
    assert np.array_equal(ss.data, sign * u.data)  # exact permutation with signs


def test_hodge_pointwise_norm_identity(grid3_coarse):
    u = random_field(grid3_coarse, 1, 10)
    val = hodge_star(wedge(u, hodge_star(u)))
    target = np.sum(u.data ** 2, axis=0)
    assert np.max(np.abs(val.data[0] - target)) < 1e-14


# -- d, d*, Laplacian -------------------------------------------------------


def test_exterior_derivative_constant_and_gradient(grid2):
    c = FormField(grid2, 0, np.full((1,) + grid2.spatial_shape, 2.5))
    assert exterior_derivative(c).sup_norm() < 1e-14
    # df of a Gaussian against the closed-form gradient -2 x_i f
    r2 = grid2.radius2()
    f = FormField(grid2, 0, np.exp(-r2)[None])
    df = exterior_derivative(f)
    X, Y = grid2.mesh()
    exact = np.stack([-2.0 * X * np.exp(-r2), -2.0 * Y * np.exp(-r2)])
    assert np.max(np.abs(df.data - exact)) / np.max(np.abs(exact)) < 1e-8


def test_d_squared_zero(grid2, grid3_coarse):
    for grid in (grid2, grid3_coarse):
        f = random_field(grid, 0, 11)
        dd = exterior_derivative(exterior_derivative(f))
        assert dd.sup_norm() / f.sup_norm() < 1e-12
    with pytest.raises(ValueError):
        exterior_derivative(random_field(grid2, 2, 0))


def test_codifferential_closed_form(grid3):
    # d* u = -d1(x1 e^{-|x|^2}) for u = x1 e^{-|x|^2} dx1
    r2 = grid3.radius2()
    X = grid3.mesh()[0]
    zero = np.zeros(grid3.spatial_shape)
    u = FormField.from_components(grid3, 1, (X * np.exp(-r2), zero, zero))
    got = codifferential(u)
    exact = -(1.0 - 2.0 * X ** 2) * np.exp(-r2)
    assert np.max(np.abs(got.data[0] - exact)) / np.max(np.abs(exact)) < 1e-8


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("time_dependent", [False, True])
def test_d_and_codifferential_are_adjoint(n, time_dependent):
    # the codifferential's table is d's transposed and negated, so on the grid
    # sum(du . v) = sum(u . d*v) for q-forms u and (q+1)-forms v
    grid = GridSpec(n=n, N=16, L=6.0, M=4, T=0.5)
    for q in range(n):
        u = random_field(grid, q, 40 + q, time_dependent)
        v = random_field(grid, q + 1, 50 + q, time_dependent)
        du = exterior_derivative(u)
        defect = np.sum(du.data * v.data) - np.sum(u.data * codifferential(v).data)
        assert abs(defect) <= 1e-13 * np.linalg.norm(du.data) * np.linalg.norm(v.data)


def test_codifferential_squared_and_degree_guard(grid3_coarse, grid2):
    w = random_field(grid3_coarse, 2, 12)
    dd = codifferential(codifferential(w))
    assert dd.sup_norm() / w.sup_norm() < 1e-12
    const = FormField.from_components(
        grid2, 1, (np.full(grid2.spatial_shape, 1.0), np.full(grid2.spatial_shape, -2.0)))
    assert codifferential(const).sup_norm() < 1e-14
    with pytest.raises(ValueError):
        codifferential(random_field(grid2, 0, 0))


def test_laplacian_annihilates_interior_linear_field(grid2):
    # band-limited surrogate of the harmonic function x1: flat cutoff far out,
    # checked where the cutoff is numerically constant
    r2 = grid2.radius2()
    X = grid2.mesh()[0]
    bump = np.exp(-((r2 / 9.0) ** 4))
    f = FormField(grid2, 0, (X * bump)[None])
    lap = laplacian_form(f)
    interior = r2 <= 0.25
    assert np.max(np.abs(lap.data[0][interior])) < 1e-4


def test_form_laplacian_identity(grid2, grid3_coarse):
    # closed-form check on a Gaussian 0-form
    r2 = grid2.radius2()
    f = FormField(grid2, 0, np.exp(-r2)[None])
    lap = laplacian_form(f)
    exact = -(4.0 * r2 - 4.0) * np.exp(-r2)
    assert np.max(np.abs(lap.data[0] - exact)) / np.max(np.abs(exact)) < 1e-8
    # de Rham Laplacian equals minus the componentwise one, every degree
    for grid in (grid2, grid3_coarse):
        for q in range(grid.n + 1):
            u = random_field(grid, q, 13 + q)
            resid = laplacian_form(u) + componentwise_laplacian(u)
            assert resid.sup_norm() / max(componentwise_laplacian(u).sup_norm(), 1e-300) < 1e-10


# -- heat operator ----------------------------------------------------------


def test_heat_operator_static_and_commutation(grid2):
    mu = 0.1
    u = random_field(grid2, 1, 14)
    h = heat_operator(u, mu)
    assert rel_err(h, mu * laplacian_form(u)) < 1e-13
    ut = random_field(grid2, 1, 15, time_dependent=True)
    lhs = exterior_derivative(heat_operator(ut, mu))
    rhs = heat_operator(exterior_derivative(ut), mu)
    assert rel_err(lhs, rhs) < 1e-10


def test_heat_operator_annihilates_heat_flow(grid2):
    mu = 0.1
    u0 = random_field(grid2, 1, 16)
    flow = poisson_potential(u0, mu)
    resid = heat_operator(flow, mu)
    # second-order time differencing of the exact semigroup
    coarse = resid.sup_norm() / flow.sup_norm()
    fine_grid = GridSpec(n=2, N=64, L=6.0, M=32, T=0.5)
    flow_f = poisson_potential(random_field(fine_grid, 1, 16), mu)
    fine = heat_operator(flow_f, mu).sup_norm() / flow_f.sup_norm()
    assert coarse < 50.0 * grid2.dt ** 2
    order = np.log2(coarse / fine)
    assert 1.6 < order < 2.4


def test_heat_operator_needs_time_slices():
    # every caller of the time stencil relies on its one guard
    grid = GridSpec(n=2, N=16, L=3.0, M=2, T=0.5)
    u = random_field(grid, 1, 0, time_dependent=True)
    for apply in (lambda: heat_operator(u, 0.1), lambda: time_derivative(u),
                  lambda: recover_pressure(u, None, 0.1)):
        with pytest.raises(ValueError, match="time stencil"):
            apply()


# -- advective structure ----------------------------------------------------


def test_substantial_derivative_cases(grid2, divfree2):
    z = FormField.zero(grid2, 1)
    assert substantial_derivative(z).sup_norm() == 0.0
    const = FormField.from_components(
        grid2, 1, (np.full(grid2.spatial_shape, 0.7), np.full(grid2.spatial_shape, -0.3)))
    assert substantial_derivative(const).sup_norm() < 1e-13
    oracle = advective_oracle(divfree2, divfree2)
    assert rel_err(2.0 * substantial_derivative(divfree2), oracle) < 1e-8
    with pytest.raises(ValueError):
        substantial_derivative(random_field(grid2, 0, 0))


def test_substantial_derivative_3d(grid3):
    u = divergence_free_velocity(grid3, 21, kmax=2, sigma2=0.8)
    oracle = advective_oracle(u, u)
    assert rel_err(2.0 * substantial_derivative(u), oracle) < 1e-8


def test_bilinear_advective(grid2):
    u = random_field(grid2, 1, 17)
    v = random_field(grid2, 1, 18)
    b = bilinear_advective(u, v)
    assert (b - bilinear_advective(v, u)).sup_norm() < 1e-14
    assert rel_err(b, advective_oracle(u, v)) < 1e-8
    assert rel_err(bilinear_advective(u, u), 2.0 * substantial_derivative(u)) < 1e-12
    # u constant: reduces to (u.grad)v
    const = FormField.from_components(
        grid2, 1, (np.full(grid2.spatial_shape, 0.5), np.full(grid2.spatial_shape, 1.0)))
    got = bilinear_advective(const, v)
    assert rel_err(got, advective_oracle(const, v)) < 1e-8


# -- block factorization ----------------------------------------------------


def test_factorization_zero_and_random(grid2):
    z1 = FormField.zero(grid2, 1, time_dependent=True)
    z0 = FormField.zero(grid2, 0, time_dependent=True)
    rep = verify_factorization(z1, z0, 0.1)
    assert rep["left_vs_diag"] == 0.0 and rep["right_vs_diag"] == 0.0
    rng_seeds = range(3)
    for s in rng_seeds:
        u = random_field(grid2, 1, 30 + s, time_dependent=True)
        p = random_field(grid2, 0, 40 + s, time_dependent=True)
        rep = verify_factorization(u, p, 0.1)
        assert rep["left_vs_diag"] < 1e-8
        assert rep["right_vs_diag"] < 1e-8
        assert rep["left_vs_right"] < 1e-10


def test_factorization_forms_each_operator_image_once(grid2_coarse, transform_count):
    # H_mu u was formed three times, and H_mu p and dp twice each: 60
    # transforms a call in two dimensions
    u = random_field(grid2_coarse, 1, 30, time_dependent=True)
    p = random_field(grid2_coarse, 0, 40, time_dependent=True)
    transform_count.clear()
    verify_factorization(u, p, 0.1)
    assert transform_count.calls <= 52


@pytest.mark.parametrize("n", [2, 3])
def test_time_extent_follows_the_data(n):
    # the extent was a flag that every constructor call restated and
    # __post_init__ checked against the data; the data's axes are the extent
    grid = GridSpec(n=n, N=8, L=6.0, M=4, T=0.5)
    assert [f.name for f in dataclasses.fields(FormField)] == ["grid", "degree", "data"]
    for q in range(n + 1):
        for td in (False, True):
            shape = (math.comb(n, q),) + (grid.M + 1,) * td + grid.spatial_shape
            u = FormField(grid, q, np.arange(math.prod(shape), dtype=float).reshape(shape))
            assert u.time_dependent is td
            assert FormField.zero(grid, q, td).data.shape == shape
            assert FormField.from_components(grid, q, list(u.data)).time_dependent is td
            assert (-u).time_dependent is td and u.copy().time_dependent is td
            with pytest.raises(AttributeError):
                u.time_dependent = not td


def test_form_refuses_any_other_number_of_axes():
    grid = GridSpec(n=2, N=8, L=6.0, M=4, T=0.5)
    for shape, want in [((2, 8), (2, 8, 8)), ((2,), (2, 8, 8)), ((2, 5, 8), (2, 8, 8)),
                        ((2, 5, 1, 8, 8), (2, 8, 8)), ((2, 4, 8, 8), (2, 5, 8, 8)),
                        ((1, 8, 8), (2, 8, 8))]:
        with pytest.raises(ValueError) as info:
            FormField(grid, 1, np.zeros(shape))
        assert str(info.value) == f"component array shape {shape}, expected {want}"


@pytest.mark.parametrize("n, degree", [(2, -1), (2, 3), (3, 4)])
def test_form_refuses_a_degree_outside_0_to_n(n, degree):
    grid = GridSpec(n=n, N=8, L=6.0, M=4, T=0.5)
    with pytest.raises(ValueError, match=f"^degree must lie in 0..{n}, got {degree}$"):
        FormField(grid, degree, np.zeros((1,) + grid.spatial_shape))


@pytest.mark.parametrize("degree", [True, 1.0, "1"])
def test_form_refuses_a_degree_that_is_not_an_integer(degree):
    # True was taken for a 1-form, and 1.0 and "1" failed in math.comb or a
    # comparison with a message that did not name the degree
    grid = GridSpec(n=2, N=8, L=6.0, M=4, T=0.5)
    with pytest.raises(ValueError, match="^degree: must be an integer"):
        FormField(grid, degree, np.zeros((2,) + grid.spatial_shape))


def test_form_data_keeps_its_layout_when_assigned():
    # data was a plain attribute: u.data = u.data[:, 0] silently made a
    # time-dependent 1-form static, and u.data = u.data[0] left a (8, 8)
    # array in a 1-form
    grid = GridSpec(n=2, N=8, L=6.0, M=4, T=0.5)
    u = random_field(grid, 1, 3, time_dependent=True)
    shape = u.data.shape
    for bad in (u.data[:, 0], u.data[0], u.data[:, :-1], np.zeros((2, 5, 64))):
        with pytest.raises(ValueError) as info:
            u.data = bad
        assert str(info.value) == (f"data: shape {bad.shape}, expected {shape}: "
                                   "a form keeps its layout")
    assert u.time_dependent and u.data.shape == shape
    before = u.data
    u.data += 1.0  # an in-place update assigns the same array
    assert u.data is before
    u.data = u.data.astype(np.float32)  # a whole array of the same shape, as floats
    assert u.data.shape == shape and u.data.dtype == float


def test_form_refuses_complex_data():
    # complex data was cast to its real part with a ComplexWarning, when a
    # form was built, from components too, and when its data was assigned
    grid = GridSpec(n=2, N=8, L=6.0, M=4, T=0.5)
    ones = np.ones((8, 8))
    for make in (lambda: FormField(grid, 0, ones[None] * (1 + 2j)),
                 lambda: FormField.from_components(grid, 1, (ones, ones * 1j))):
        with pytest.raises(ValueError, match="^data: must be real, got complex128$"):
            make()
    u = FormField(grid, 0, np.ones((1, 8, 8)))
    with pytest.raises(ValueError, match="^data: must be real, got complex128$"):
        u.data = np.ones((1, 8, 8)) * 1j
    assert np.array_equal(u.data, np.ones((1, 8, 8)))


def test_flat_is_the_per_slice_view_of_the_data(grid2):
    for u in (random_field(grid2, 1, 3), random_field(grid2, 2, 4, time_dependent=True),
              random_field(grid2, 0, 5, time_dependent=True)):
        flat = u.flat()
        slices = grid2.M + 1 if u.time_dependent else 1
        assert flat.shape == (len(u.data), slices, grid2.N ** 2)
        assert np.shares_memory(flat, u.data)
        flat[-1, -1, -1] = 7.0
        assert u.data[(-1,) * u.data.ndim] == 7.0


def test_time_derivative_accuracy(grid2):
    t = grid2.times().reshape((grid2.M + 1,) + (1,) * grid2.n)
    base = random_field(grid2, 0, 19)
    u = FormField(grid2, 0, base.data[:, None] * np.sin(3.0 * t))
    du = time_derivative(u)
    exact = FormField(grid2, 0, base.data[:, None] * 3.0 * np.cos(3.0 * t))
    assert rel_err(du, exact) < 10.0 * grid2.dt ** 2


def test_sup_norm_matches_abs_max(grid2):
    # sup_norm reads the largest and the smallest entry instead of forming
    # |data|: the same float, 0.0 (not -0.0) for a field of zeros, and NaN
    # for a field holding one (solve_reduced stops on it, see
    # test_solve_reduced_stops_on_nonfinite_residual)
    neg = random_field(grid2, 0, 71)
    neg.data[...] = -np.abs(neg.data)
    fields = [random_field(grid2, 1, 70, time_dependent=True), neg, FormField.zero(grid2, 2),
              FormField(grid2, 0, np.full((1,) + grid2.spatial_shape, -0.0))]
    for u in fields:
        assert u.sup_norm().hex() == float(np.max(np.abs(u.data))).hex()
    assert fields[-1].sup_norm().hex() == "0x0.0p+0"
    u = random_field(grid2, 1, 72)
    u.data[1, 5, 9] = np.nan
    assert np.isnan(u.sup_norm())


def test_package_has_no_global_statements():
    # module-level mutable state leaks between calls; scope it instead
    src = Path(__file__).resolve().parent.parent / "src" / "layerflow"
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []


def _scipy_imports(tree):
    """Lines of tree that import scipy or one of its submodules."""
    def imports_scipy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"

    return [node.lineno for node in ast.walk(tree) if imports_scipy(node)]


def test_no_module_imports_scipy():
    # the transforms run on numpy alone, so the package needs no scipy at run
    # time; the tests and the benchmark still use it as an oracle
    planted = ast.parse("import scipy.fft\nfrom scipy import linalg\nimport numpy\n"
                        "def f():\n    import scipy\n")
    assert _scipy_imports(planted) == [1, 2, 5]
    src = Path(__file__).resolve().parent.parent / "src" / "layerflow"
    found = [f"{path.relative_to(src)}:{line}" for path in sorted(src.rglob("*.py"))
             for line in _scipy_imports(ast.parse(path.read_text()))]
    assert found == []


def _thread_imports(tree):
    """Lines of tree that import threading, concurrent.futures or
    contextvars, or a module below one of them."""
    banned = ("threading", "concurrent.futures", "contextvars")

    def below(name):
        return any(name == b or name.startswith(b + ".") for b in banned)

    def imports_threads(node):
        if isinstance(node, ast.Import):
            return any(below(alias.name) for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return below(module) or any(below(f"{module}.{alias.name}") for alias in node.names)
        return False

    return [node.lineno for node in ast.walk(tree) if imports_threads(node)]


def test_no_module_imports_threads_or_context_variables():
    # the transforms run on the caller's thread and the package keeps no
    # module-level mutable state, so no module needs a thread, a pool or a
    # context variable
    planted = ast.parse("import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
                        "from concurrent import futures\nimport contextvars as cv\n"
                        "import numpy\ndef f():\n    from contextvars import ContextVar\n")
    assert _thread_imports(planted) == [1, 2, 3, 4, 7]
    src = Path(__file__).resolve().parent.parent / "src" / "layerflow"
    found = [f"{path.relative_to(src)}:{line}" for path in sorted(src.rglob("*.py"))
             for line in _thread_imports(ast.parse(path.read_text()))]
    assert found == []


def _propagator_forks(tree):
    """Lines of tree that exponentiate an expression reading ksq outside the
    function _duhamel_symbols, or that name np.gradient."""
    exempt = {id(n) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              and fn.name == "_duhamel_symbols" for n in ast.walk(fn)}

    def fork(node):
        if isinstance(node, ast.Attribute):
            return ast.unparse(node) in ("np.gradient", "numpy.gradient")
        return (isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.exp", "numpy.exp")
                and any("ksq" in (getattr(n, "attr", None), getattr(n, "id", None))
                        for n in ast.walk(node)))

    return [node.lineno for node in ast.walk(tree) if id(node) not in exempt and fork(node)]


def test_one_heat_propagator_and_one_time_stencil():
    # heat propagates only through the Duhamel recursion, whose step
    # exp(-mu |k|^2 dt) is built in _duhamel_symbols; a time derivative uses
    # the one stencil of forms (np.gradient had its own)
    planted = ast.parse("def table(grid, mu, t):\n"
                        "    return np.exp(-mu * spectral.ksq(grid) * t)\n"
                        "def rate(e, dt):\n"
                        "    return np.gradient(e, dt)\n")
    assert _propagator_forks(planted) == [2, 4]
    src = Path(__file__).resolve().parent.parent / "src" / "layerflow"
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             for line in _propagator_forks(ast.parse(path.read_text()))]
    assert found == []


def test_exported_callables_take_no_seed():
    # an exported result depends on its inputs alone: a sampled estimate
    # draws from one fixed stream, never from a caller's seed
    found = [name for name, obj in vars(layerflow).items()
             if callable(obj) and not name.startswith("_")
             and "seed" in inspect.signature(obj).parameters]
    assert found == []


def test_exported_functions_take_mu_not_a_config():
    # the viscosity is the one physical parameter: an operator takes mu
    # itself, and PotentialConfig is only the potential section of SolverConfig
    found = [name for name, obj in vars(layerflow).items()
             if inspect.isfunction(obj) and not name.startswith("_")
             and any(p.annotation in ("PotentialConfig", layerflow.PotentialConfig)
                     for p in inspect.signature(obj).parameters.values())]
    assert found == []


def operator_fields():
    """Fields for the signature and viscosity tables, on a 32^2 grid with
    M = 8; wide(x) is x on a box twice as wide, with the same array shape."""
    from layerflow import nse
    grid = GridSpec(n=2, N=32, L=6.0, M=8, T=0.5)
    u = divergence_free_velocity(grid, 1, time_dependent=True)
    g, p = exterior_derivative(u), random_field(grid, 0, 2, time_dependent=True)
    return dict(grid=grid, u=u, u0=u.slice_at(0), g=g, p=p, lin=nse.LinearizationData(g, u),
                state=nse.FlowState(u=u, p=p, g=g), cfg=nse.SolverConfig(),
                params=layerflow.HolderParams(s=0, lam=0.25, delta=1.5, k=0, lam_prime=0.5),
                wide=lambda x: FormField(GridSpec(n=2, N=32, L=12.0, M=8, T=0.5), x.degree,
                                         x.data))


def signature_cases():
    """For each exported operator with a rule on its form arguments, calls
    that break it: (name, keyword arguments, the argument at fault)."""
    x = operator_fields()
    u, u0, g, p, lin, state, cfg, params, wide = (
        x[k] for k in ("u", "u0", "g", "p", "lin", "state", "cfg", "params", "wide"))
    static_lin = layerflow.LinearizationData(g.slice_at(0), u0)
    return [
        ("bilinear_advective", dict(u=u, v=g), "v"),
        ("bilinear_advective", dict(u=p, v=u), "u"),
        ("codifferential", dict(u=p), "u"),
        ("exterior_derivative", dict(u=g), "u"),
        ("substantial_derivative", dict(u=g), "u"),
        ("verify_factorization", dict(u=u, p=p.slice_at(0), mu=0.1), "p"),
        ("verify_factorization", dict(u=g, p=p, mu=0.1), "u"),
        ("wedge", dict(u=u, v=wide(u)), "v"),
        ("wedge", dict(u=u, v=u0), "v"),
        ("spatial_norm", dict(u=u, p=params), "u"),
        ("grad_newton", dict(g=p), "g"),
        ("poisson_potential", dict(u0=u, mu=0.1), "u0"),
        ("trace", dict(u=u0, t0=0.0), "u"),
        ("volume_potential", dict(f=u0, mu=0.1), "f"),
        ("assemble_g0", dict(f=wide(u), u0=u0, mu=0.1), "f"),
        ("assemble_g0", dict(f=None, u0=u, mu=0.1), "u0"),
        ("energy_report", dict(u=u, f=g, mu=0.1), "f"),
        ("energy_report", dict(u=u0, f=None, mu=0.1), "u"),
        ("frechet_apply", dict(h=g.slice_at(0), base_g=g, mu=0.1), "h"),
        ("frechet_apply", dict(h=g, base_g=u, mu=0.1), "base_g"),
        ("leray_project", dict(u=g), "u"),
        ("nse_residual", dict(state=state, f=wide(u), u0=u0, mu=0.1), "f"),
        ("nse_residual", dict(state=state, f=None, u0=g, mu=0.1), "u0"),
        ("op_D2", dict(g=u), "g"),
        ("op_Q", dict(g=u), "g"),
        ("op_U0", dict(f=u, lin=lin), "f"),
        ("op_V0", dict(u=wide(u), lin=lin), "u"),
        ("op_V0", dict(u=g, lin=lin), "u"),
        ("op_W0", dict(f=g.slice_at(0), lin=lin), "f"),
        ("recover_pressure", dict(u=u, f=u0, mu=0.1), "f"),
        ("recover_pressure", dict(u=g, f=None, mu=0.1), "u"),
        ("recover_velocity", dict(g=p), "g"),
        ("solution_metric", dict(a=state, b=layerflow.FlowState(u=wide(u), p=wide(p), g=wide(g)),
                                 params=params, mu=0.1), "b"),
        ("solve_linear_reduced", dict(g0=g, lin=static_lin, cfg=cfg), "lin"),
        ("solve_linear_reduced", dict(g0=u, lin=lin, cfg=cfg), "g0"),
        ("solve_nse", dict(f=u0, u0=u0, cfg=cfg), "f"),
        ("solve_reduced", dict(g0=g, base=wide(g), cfg=cfg), "base"),
        ("LinearizationData", dict(g0_form=u, v1=g), "g0_form"),
        ("LinearizationData", dict(g0_form=g, v1=wide(u)), "v1"),
        ("FlowState", dict(u=g, p=p, g=g), "u"),
        ("FlowState", dict(u=u, p=p.slice_at(0), g=g), "p"),
        ("FlowState", dict(u=u, p=p, g=u), "g"),
        ("FlowState", dict(u=u, p=p, g=g, f=u0), "f"),
        ("FlowState", dict(u=u, p=p, g=g, u0=wide(u0)), "u0"),
    ]


# exported callables that take forms of any degree, time extent and grid
# pairing
ANY_FORM = {"anisotropic_norm", "f_norm", "heat_operator", "holder_seminorm",
            "hodge_star", "laplacian_form", "moment_check", "newton_potential", "weighted_sup"}


def test_exported_operators_refuse_naming_the_argument(transform_count):
    # each operator states its domain once, through FormField._require: a
    # form of the wrong degree, time extent or grid is refused before any
    # transform, by a message that starts with the parameter's name (before,
    # energy_report took a 2-form forcing and LinearizationData swapped
    # degrees, and eight wordings named no argument)
    cases = signature_cases()
    transform_count.clear()
    for name, kwargs, at_fault in cases:
        assert at_fault in inspect.signature(getattr(layerflow, name)).parameters
        with pytest.raises(ValueError) as info:
            getattr(layerflow, name)(**kwargs)
        assert str(info.value).split(":")[0].split(".")[0] == at_fault, (name, info.value)
    assert transform_count.calls == 0
    # every exported callable that takes a form is in the table or takes any
    takes_forms = {name for name, obj in vars(layerflow).items()
                   if callable(obj) and not name.startswith("_") and not inspect.ismodule(obj)
                   and any(kind in str(p.annotation) for p in
                           inspect.signature(obj).parameters.values()
                           for kind in ("FormField", "LinearizationData", "FlowState"))}
    assert takes_forms == {name for name, _, _ in cases} | ANY_FORM


def test_signature_messages():
    # the one message form: the argument, what it must be, and what it is
    grid = GridSpec(n=2, N=32, L=6.0, M=8, T=0.5)
    u = random_field(grid, 1, 3, time_dependent=True)
    other = FormField(GridSpec(n=2, N=32, L=12.0, M=8, T=0.5), 1, u.data)
    cases = [(lambda: layerflow.grad_newton(FormField.zero(grid, 0)),
              "g: must be a form of degree >= 1, got a static 0-form"),
             (lambda: exterior_derivative(FormField.zero(grid, 2)),
              "u: must be a form of degree <= 1, got a static 2-form"),
             (lambda: layerflow.volume_potential(u.slice_at(0), 0.1),
              "f: must be a time-dependent form, got a static 1-form"),
             (lambda: layerflow.op_Q(u), "g: must be a 2-form, got a time-dependent 1-form"),
             (lambda: u - u.slice_at(0),
              "other: must be a time-dependent 1-form, got a static 1-form"),
             (lambda: u + other, f"other: grid mismatch, {other.grid} against {grid} of self"),
             (lambda: u.slice_at(0).slice_at(0),
              "self: must be a time-dependent form, got a static 1-form"),
             (lambda: time_derivative(random_field(GridSpec(n=2, N=32, L=6.0, M=3, T=0.5), 1, 3,
                                                   time_dependent=True)),
              "M: need M >= 4 time intervals for the time stencil, got 3")]
    for call, message in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_slice_at_refuses_an_index_outside_the_time_grid():
    # j = -1 returned the last slice, j = M + 1 and j = 2.5 raised IndexError,
    # and j = True indexed as a mask
    u = random_field(GridSpec(n=2, N=32, L=6.0, M=8, T=0.5), 1, 3, time_dependent=True)
    assert np.array_equal(u.slice_at(np.int64(8)).data, u.data[:, 8])
    for j in (-1, 9, 2.5, True):
        with pytest.raises(ValueError) as info:
            u.slice_at(j)
        assert str(info.value) == f"j: must be an integer in 0..8, got {j!r}"


def mu_cases():
    """Valid arguments, all but mu, for each callable that takes mu."""
    x = operator_fields()
    u, u0, g, p, state = (x[k] for k in ("u", "u0", "g", "p", "state"))
    return {
        "PotentialConfig": {},
        "heat_operator": dict(u=u),
        "verify_factorization": dict(u=u, p=p),
        "heat_kernel": dict(x=(0.5, 0.25), t=0.1),
        "poisson_potential": dict(u0=u0),
        "volume_potential": dict(f=u),
        "key0_bound_check": dict(grid=x["grid"], delta=1.0, gamma=0.5),
        "assemble_g0": dict(f=u, u0=u0),
        "energy_report": dict(u=u, f=None),
        "frechet_apply": dict(h=g, base_g=g),
        "nse_residual": dict(state=state, f=None, u0=u0),
        "recover_pressure": dict(u=u, f=None),
        "solution_metric": dict(a=state, b=state, params=x["params"]),
        "momentum_operator": dict(state=state),
    }


def test_every_callable_that_takes_mu_refuses_a_bad_one_first(transform_count):
    # six exported callables never checked mu (recover_pressure(u, None, -0.1)
    # returned a pressure, energy_report a negative dissipation); each one
    # now refuses it before any transform. nse.momentum_operator is not
    # exported but takes mu too
    from layerflow import nse
    cases = mu_cases()
    exported = {name for name, obj in vars(layerflow).items()
                if callable(obj) and not name.startswith("_") and not inspect.ismodule(obj)
                and "mu" in inspect.signature(obj).parameters}
    assert exported == set(cases) - {"momentum_operator"}
    transform_count.clear()
    for name, kwargs in cases.items():
        call = getattr(layerflow, name, None) or getattr(nse, name)
        for mu in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError) as info:
                call(**kwargs, mu=mu)
            assert str(info.value) == f"mu: must be positive and finite, got {mu}", name
    assert transform_count.calls == 0


def test_exported_callables_read_every_parameter():
    # a parameter that its body never reads (a config passed along to no one)
    # is an option that does nothing; checked on the exported functions and
    # the public methods of the exported classes
    def unread(fn):
        node = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
        loads = {n.id for stmt in node.body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        return [p for p in inspect.signature(fn).parameters
                if p not in loads and p not in ("self", "cls")]

    functions = []
    for name, obj in vars(layerflow).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            functions.append((name, obj))
        elif inspect.isclass(obj):
            functions += [(f"{name}.{attr}", getattr(member, "__func__", member))
                          for attr, member in vars(obj).items() if not attr.startswith("_")]
    functions = [(name, fn) for name, fn in functions if inspect.isfunction(fn)]
    found = [f"{name}({param})" for name, fn in functions for param in unread(fn)]
    assert len(functions) > 50
    assert found == []
