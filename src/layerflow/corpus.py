"""Seeded synthetic fields for the verification suite and the tests.

Fields are random low-wavenumber trigonometric polynomials under a Gaussian
envelope: smooth and effectively band-limited on the grid. With the default
shape parameters on an L = 6 box, `random_field` is below 1e-12 on the box
faces, as the periodic truncation assumes. `divergence_free_velocity` is not:
its Leray projection is non-local and leaves about 2e-3 to 2e-2 on the faces
in 2-D, so results on it carry that truncation error.
"""

from __future__ import annotations

import numpy as np

from .geometry import GridSpec
from .forms import FormField, form_rank
from .nse import leray_project

ENVELOPE_SIGMA2 = 0.6


def _scalar_sample(grid: GridSpec, rng: np.random.Generator, kmax: int,
                   sigma2: float, n_modes: int = 8) -> np.ndarray:
    mesh = grid.mesh()
    out = np.zeros(grid.spatial_shape)
    base = np.pi / grid.L
    for _ in range(n_modes):
        m = rng.integers(-kmax, kmax + 1, size=grid.n)
        amp = rng.normal() / n_modes
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = phase
        for i in range(grid.n):
            arg = arg + base * m[i] * mesh[i]
        out += amp * np.cos(arg)
    r2 = grid.radius2()
    return out * np.exp(-r2 / (2.0 * sigma2))


def _time_profile(grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    omega = rng.uniform(2.0, 6.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = grid.times()
    return 1.0 + 0.5 * np.sin(omega * t + phase)


def random_field(grid: GridSpec, degree: int, seed: int, time_dependent: bool = False,
                 kmax: int = 4, sigma2: float = ENVELOPE_SIGMA2,
                 amplitude: float = 1.0) -> FormField:
    """Random smooth decaying form; smooth separable time structure when
    time-dependent."""
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(form_rank(grid.n, degree)):
        if time_dependent:
            prof_a = _time_profile(grid, rng)
            prof_b = _time_profile(grid, rng)
            spat_a = _scalar_sample(grid, rng, kmax, sigma2)
            spat_b = _scalar_sample(grid, rng, kmax, sigma2)
            shape = (grid.M + 1,) + (1,) * grid.n
            comps.append(prof_a.reshape(shape) * spat_a + prof_b.reshape(shape) * spat_b)
        else:
            comps.append(_scalar_sample(grid, rng, kmax, sigma2))
    f = FormField.from_components(grid, degree, comps)
    return amplitude * f


def divergence_free_velocity(grid: GridSpec, seed: int, time_dependent: bool = False,
                             amplitude: float = 1.0, **kw) -> FormField:
    """Random mean-free divergence-free 1-form (the class on which the
    reconstruction identities are exact on the torus)."""
    u = random_field(grid, 1, seed, time_dependent, amplitude=amplitude, **kw)
    u = leray_project(u)
    axes = tuple(range(-grid.n, 0))
    u.data -= np.mean(u.data, axis=axes, keepdims=True)
    return u
