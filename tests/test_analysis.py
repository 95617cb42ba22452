import math

import numpy as np
import pytest

from layerflow.analysis import (AbelSeries, ProhibitedWeightError, abel_coefficients,
                                closed_form_coefficient, harmonic_basis,
                                harmonic_poly_count, moment_check,
                                series_F, series_F_auto, series_residuals)
from layerflow.forms import FormField, componentwise_laplacian
from layerflow.holder import sphere_area
from layerflow import spectral


def test_abel_first_coefficients():
    s = abel_coefficients(3, 1.5, 4)
    assert s.coeffs[0] == pytest.approx(4.0 / 3.0)  # 1/(1.5 * 0.5)
    # two routes: 1/((d+2-n)(d+4-n)) and the recurrence (1.5/2.5) a0
    assert s.coeffs[1] == pytest.approx(1.0 / (0.5 * 2.5))
    assert s.coeffs[1] == pytest.approx((1.5 / 2.5) * s.coeffs[0])


def test_abel_recurrence_vs_closed_form():
    for n, delta in ((2, 1.5), (3, 1.5), (3, 2.5)):
        s = abel_coefficients(n, delta, 100)
        for k in range(1, 101):
            assert s.coeffs[k] == pytest.approx(closed_form_coefficient(n, delta, k),
                                                rel=1e-12)
        ratio = s.coeffs[100] / s.coeffs[99]
        assert abs(ratio - 1.0) < 0.05  # unit radius of convergence


def test_abel_prohibited_weights():
    for n, delta in ((3, 1.0), (2, 0.0), (3, -1.0), (4, 2.0), (4, 0.0)):
        if n > 3:
            continue
        with pytest.raises(ProhibitedWeightError):
            abel_coefficients(n, delta, 5)


def test_series_F_solves_weighted_poisson():
    for n, delta in ((2, 1.5), (3, 1.5), (3, 2.5)):
        for _, res in series_residuals(abel_coefficients(n, delta, 60)):
            assert res < 1e-6


def test_series_F_guards_and_linearity():
    s = abel_coefficients(3, 1.5, 40)
    with pytest.raises(ValueError):
        series_F(np.array([0.5, 0.0, 0.0]), s)
    x = np.array([2.0, 0.0, 0.0])
    v, tail = series_F(x, s)
    doubled = AbelSeries(3, 1.5, tuple(2.0 * c for c in s.coeffs))
    v2, _ = series_F(x, doubled)
    assert v2 == pytest.approx(2.0 * v, rel=1e-15)
    # leading-term dominance: w^delta F -> a0 at large |x|
    far = np.array([60.0, 0.0, 0.0])
    vf, _ = series_F(far, s)
    assert vf * (1.0 + 60.0 ** 2) ** (1.5 / 2.0) == pytest.approx(s.coeffs[0], rel=1e-3)


def test_series_F_auto_tail():
    x = np.array([1.0, 0.0])
    val, tail, series = series_F_auto(x, 2, 1.5, tol=1e-12)
    assert tail <= 1e-12
    assert series.K >= 60


def test_harmonic_poly_count():
    assert harmonic_poly_count(3, 2) == 5  # 2k+1 at k=2
    assert [harmonic_poly_count(2, k) for k in range(4)] == [1, 2, 2, 2]
    assert harmonic_poly_count(2, 0) == 1 and harmonic_poly_count(3, 0) == 1
    assert harmonic_poly_count(3, 1) == 3


def sphere_quadrature(n: int, order: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights on the unit sphere: uniform angles on the
    circle, Gauss-Legendre in the polar angle times uniform azimuth on S^2."""
    if n == 2:
        theta = 2.0 * math.pi * np.arange(order) / order
        w = np.full(order, 2.0 * math.pi / order)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1), w
    zs, wz = np.polynomial.legendre.leggauss(order)
    phi = 2.0 * math.pi * np.arange(2 * order) / (2 * order)
    z = np.repeat(zs, 2 * order)
    w = np.repeat(wz, 2 * order) * (2.0 * math.pi / (2 * order))
    rho = np.sqrt(1.0 - z ** 2)
    pp = np.tile(phi, order)
    return np.stack([rho * np.cos(pp), rho * np.sin(pp), z], axis=1), w


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)])
def test_harmonic_basis_orthonormal_and_harmonic(n, k):
    basis = harmonic_basis(n, k)
    assert len(basis) == harmonic_poly_count(n, k)
    pts, w = sphere_quadrature(n)
    vals = np.stack([h(pts) for h in basis])
    gram = (vals * w) @ vals.T
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10
    rng = np.random.default_rng(0)
    for h in basis:
        x = rng.normal(size=n)
        # homogeneity h(t x) = t^k h(x)
        assert h(2.5 * x) == pytest.approx(2.5 ** k * h(x), rel=1e-12, abs=1e-12)
        # harmonicity by finite differences
        eps = 1e-4
        lap = 0.0
        for i in range(n):
            e = np.zeros(n)
            e[i] = eps
            lap += (h(x + e) - 2.0 * h(x) + h(x - e)) / eps ** 2
        assert abs(lap) < 1e-6


def test_harmonic_basis_k0_normalization():
    for n in (2, 3):
        h = harmonic_basis(n, 0)[0]
        assert h(np.ones(n)) == pytest.approx(1.0 / math.sqrt(sphere_area(n)))
    # n=2, k=1 basis elements are x/sqrt(pi), y/sqrt(pi)
    hx, hy = harmonic_basis(2, 1)
    assert hx(np.array([1.0, 0.0])) == pytest.approx(1.0 / math.sqrt(math.pi))
    assert hy(np.array([0.0, 1.0])) == pytest.approx(1.0 / math.sqrt(math.pi))


def test_moment_check(grid2):
    X = grid2.mesh()[0]
    r2 = grid2.radius2()
    odd = FormField(grid2, 0, (X * np.exp(-r2))[None])
    m = moment_check(odd, 0)
    assert abs(m["deg0:1"][0]) < 1e-12
    # gaussian against the constant: integral is pi, basis element is 1/sqrt(2 pi)
    gauss = FormField(grid2, 0, np.exp(-r2)[None])
    m0 = moment_check(gauss, 0)["deg0:1"][0]
    assert m0 * math.sqrt(sphere_area(2)) == pytest.approx(math.pi, abs=1e-10)
    # f = Laplacian(g): every moment up to degree 2 vanishes (Green formula)
    lap = componentwise_laplacian(FormField(grid2, 0, np.exp(-r2 / 0.8)[None]))
    for label, vals in moment_check(lap, 2).items():
        assert abs(vals[0]) < 1e-10, label
    # degrees above the tabulated harmonic basis are refused
    with pytest.raises(ValueError, match="not tabulated"):
        moment_check(lap, 3)


def test_moment_shift_under_derivative(grid2):
    """If moments of f vanish up to m, moments of its derivatives vanish up
    to m + |alpha| (within quadrature tolerance)."""
    r2 = grid2.radius2()
    f = componentwise_laplacian(FormField(grid2, 0, np.exp(-r2 / 0.8)[None]))
    # all moments of f up to 0 vanish; check derivatives up to |alpha| = 2
    for axis in range(2):
        d1 = FormField(grid2, 0, spectral.derivative(f.data, grid2, axis))
        for label, vals in moment_check(d1, 1).items():
            assert abs(vals[0]) < 1e-10, ("first derivative", label)
        d2 = FormField(grid2, 0, spectral.derivative(d1.data, grid2, axis))
        for label, vals in moment_check(d2, 2).items():
            assert abs(vals[0]) < 1e-10, ("second derivative", label)
