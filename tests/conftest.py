import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from layerflow import spectral
from layerflow.forms import FormField
from layerflow.geometry import GridSpec
from layerflow.corpus import divergence_free_velocity

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args, cwd=None):
    """Run a child interpreter that imports layerflow from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=env, timeout=600)


@pytest.fixture(scope="session")
def grid2():
    """2-D grid with enough spectral headroom for 1e-10 identity tests."""
    return GridSpec(n=2, N=64, L=6.0, M=16, T=0.5)


@pytest.fixture(scope="session")
def grid2_coarse():
    return GridSpec(n=2, N=32, L=6.0, M=8, T=0.5)


@pytest.fixture(scope="session")
def grid3():
    """3-D grid resolving products of corpus fields."""
    return GridSpec(n=3, N=64, L=6.0, M=8, T=0.5)


@pytest.fixture(scope="session")
def grid3_coarse():
    return GridSpec(n=3, N=32, L=6.0, M=8, T=0.5)


def radial_velocity(grid, t, mu):
    """Closed-form azimuthal flow of the heat-evolved radial vorticity
    Delta(e^{-r^2/2}): stream function e^{-r^2/2} widening under the heat
    semigroup, velocity its perp gradient."""
    a = 1.0 + 2.0 * mu * t
    r2 = grid.radius2()
    x, y = grid.mesh()
    env = np.exp(-r2 / (2.0 * a)) / a ** 2
    return FormField.from_components(grid, 1, (y * env, -x * env))


def face_sup(u):
    """The largest |value| of u on the box faces x_i = -L, one face at a time."""
    grid = u.grid
    data = u.data.reshape((-1,) + grid.spatial_shape)
    return max(float(np.max(np.abs(np.take(data, 0, axis=1 + axis))))
               for axis in range(grid.n))


@pytest.fixture(scope="session")
def divfree2(grid2):
    return divergence_free_velocity(grid2, 7)


@pytest.fixture(scope="session")
def divfree2_td(grid2):
    return divergence_free_velocity(grid2, 8, time_dependent=True)


class TransformCount:
    """Transforms through spectral.fft_spatial and ifft_spatial: calls, and
    component-slices, each call's product of the leading axes (components
    times time slices). Only the second compares one whole-field call with
    many one-slice calls, so each gate names the count it bounds."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.calls = 0
        self.slices = 0


@pytest.fixture
def transform_count(monkeypatch):
    """Counts the transforms, through which every spectral operator passes,
    while the test runs."""
    counts = TransformCount()
    for name in ("fft_spatial", "ifft_spatial"):
        real = getattr(spectral, name)

        def counted(arr, grid, *args, _real=real, **kw):
            counts.calls += 1
            counts.slices += math.prod(arr.shape[:-grid.n])
            return _real(arr, grid, *args, **kw)

        monkeypatch.setattr(spectral, name, counted)
    return counts
