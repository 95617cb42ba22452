"""Discrete Fourier machinery shared by the form calculus and the potentials.

All spatial derivatives and convolutions act on the periodic truncation
[-L,L]^n. Fields are real, so every transform is real-to-complex: the
coefficients of a field on an N^n grid fill the half spectrum of shape
(N, ..., N, N//2 + 1), whose last axis holds only the nonnegative
wavenumbers. The symbols below (wavenumbers, |k|^2 and 1/|k|^2) come in that
shape. The Nyquist wavenumber is zeroed in the derivative symbols so that
odd-order operators stay skew-adjoint on real fields; corpus fields carry no
energy there. Cached symbols are read-only. This is the one module that
imports scipy: the FFT backend is chosen here alone, and the transforms run
on the workers of the enclosing `workers` context (1 outside one). The work
buffers of the reduced map live in nse.

The inverse transform consumes its coefficients. It does not call scipy's
irfftn: over two or more axes that first copies its whole complex input into
a buffer of its own, which tracemalloc does not see and which the allocator
hands back to the OS after each call, so the next call faults its pages in
again. ifft_spatial inverts the leading axes in place with ifftn and the last
one with the complex-to-real kernel that irfft runs, called directly so that
it can write into an array the caller gives (irfft takes none). So every
caller passes coefficients it owns (a copy where it still needs them). A
cached, read-only array is refused with a ValueError and left as it was.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.fft
from scipy.fft._pocketfft import pypocketfft

from .geometry import GridSpec, _read_only


_INVERSE_NORM = 2  # pocketfft's code for the 1/N of an unnormalized inverse


def _spatial_axes(grid: GridSpec) -> tuple[int, ...]:
    return tuple(range(-grid.n, 0))


@lru_cache(maxsize=16)
def wavenumbers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Angular wavenumber arrays k_i, each shaped to broadcast over the half
    spectrum (the last axis holds the nonnegative wavenumbers only)."""
    full = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.h)
    full[grid.N // 2] = 0.0  # drop the unpaired Nyquist mode
    half = 2.0 * np.pi * np.fft.rfftfreq(grid.N, d=grid.h)
    half[-1] = 0.0  # the same Nyquist mode, last entry of the half axis
    out = []
    for i in range(grid.n):
        k1 = half if i == grid.n - 1 else full
        shape = [1] * grid.n
        shape[i] = k1.size
        out.append(_read_only(k1.reshape(shape).copy()))
    return tuple(out)


@lru_cache(maxsize=16)
def ksq(grid: GridSpec) -> np.ndarray:
    """|k|^2 on the half spectrum."""
    k2 = 0.0
    for ki in wavenumbers(grid):
        k2 = k2 + ki ** 2
    return _read_only(k2)


@lru_cache(maxsize=16)
def inv_ksq(grid: GridSpec) -> np.ndarray:
    """1/|k|^2 with dropped (zeroed) entries wherever |k|^2 vanishes."""
    k2 = ksq(grid)
    out = np.zeros_like(k2)
    nz = k2 > 0.0
    out[nz] = 1.0 / k2[nz]
    return _read_only(out)


def workers(count: int):
    """Context manager: the transforms run inside it run on `count` workers."""
    return scipy.fft.set_workers(count)


def fft_spatial(arr: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real-to-complex transform over the trailing n (spatial) axes."""
    return scipy.fft.rfftn(arr, axes=_spatial_axes(grid))


def ifft_spatial(arr: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of fft_spatial: half-spectrum coefficients to a real field.
    Consumes arr. The field is written into out when given (any view of
    the field's shape, such as some time slices of a larger field) and into
    a fresh array otherwise; the array written is returned.

    The leading spatial axes are inverted complex-to-complex in place, then
    the last axis complex-to-real; for the power-of-two N of every grid this
    is irfftn bit for bit. A read-only arr is refused with a ValueError and
    left unchanged."""
    arr = scipy.fft.ifftn(arr, axes=_spatial_axes(grid)[:-1], overwrite_x=True)
    # scipy.fft.irfft(arr, n=grid.N, axis=-1) runs this kernel; it takes no out
    return pypocketfft.c2r(arr, (arr.ndim - 1,), grid.N, False, _INVERSE_NORM, out,
                           scipy.fft.get_workers())


def derivative(arr: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """Spectral partial derivative along spatial axis `axis` (0-based)."""
    ki = wavenumbers(grid)[axis]
    return ifft_spatial(1j * ki * fft_spatial(arr, grid), grid)
