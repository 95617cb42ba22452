"""Discrete Fourier machinery shared by the form calculus and the potentials.

All spatial derivatives and convolutions act on the periodic truncation
[-L,L]^n. Fields are real, so every transform is real-to-complex: the
coefficients of a field on an N^n grid fill the half spectrum of shape
(N, ..., N, N//2 + 1), whose last axis holds only the nonnegative
wavenumbers. The symbols below (wavenumbers, |k|^2 and 1/|k|^2) come in that
shape. The Nyquist wavenumber is zeroed in the derivative symbols so that
odd-order operators stay skew-adjoint on real fields; corpus fields carry no
energy there. Cached symbols are read-only. The work buffers of the reduced
map live in nse.

The transforms run on numpy's pocketfft alone, one one-dimensional pass per
spatial axis, in the order and with the scaling of pocketfft's own n-D
transforms, so for the power-of-two N of every grid the coefficients and
fields are those of scipy.fft.rfftn and irfftn bit for bit:
- fft_spatial transforms the last axis real-to-complex into a fresh half
  spectrum, then each leading spatial axis, first to last, complex-to-complex
  in place;
- ifft_spatial transforms the leading spatial axes back in place, first to
  last, with the whole factor 1/N^(n-1) on the first pass, then the last
  axis complex-to-real (factor 1/N) into an array the caller gives or a
  fresh one.
So the inverse consumes its coefficients: every caller passes coefficients it
owns (a copy where it still needs them), and a read-only array, such as a
cached table, is refused with a ValueError and left as it was.

fft_spatial and ifft_spatial call numpy's transform kernels themselves, each
pass on a view whose last axis is the transformed one. The kernels are the
gufuncs behind numpy.fft (numpy.fft._pocketfft_umath, a private module of
numpy >= 2.0; the tests compare them with scipy.fft); they take out=, and
the gufunc's axes= keyword would do what the views do with more transient
memory per call. The kernel runs one inner loop over the axes that follow
the transformed one, per entry of those before it. When fewer than _SHORT_LOOP entries follow and
more precede (the middle axis of a 3-D half spectrum, 9 entries after it on
N=16), the view puts the half axis first and is iterated in C order, so
that the inner loop runs over the batch axes instead of over those few
entries.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .geometry import GridSpec, _read_only


# a pass whose axis is followed by fewer entries than this, and preceded by
# more, runs its inner loop over the batch axes (measured break-even between
# 9 and 33 entries)
_SHORT_LOOP = 16


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


@lru_cache(maxsize=16)
def _factors(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernels' scale factors as arrays: 1, 1/N^(n-1) and 1/N."""
    return tuple(_read_only(np.array(f)) for f in (1.0, 1.0 / grid.N ** (grid.n - 1), 1.0 / grid.N))


@lru_cache(maxsize=64)
def _pass_views(shape: tuple[int, ...], n: int) -> tuple[tuple[tuple[int, ...], str], ...]:
    """For each leading spatial axis of a half spectrum of this shape, first
    to last: the axis order of a view whose last axis is that axis, and the
    order the kernel iterates the view in."""
    d = len(shape)
    views = []
    for ax in range(d - n, d - 1):
        after = math.prod(shape[ax + 1:])
        if after < min(math.prod(shape[:ax]), _SHORT_LOOP):
            # half axis outermost, so the inner loop runs over the batch
            views.append(((d - 1, *range(ax), *range(ax + 1, d - 1), ax), "C"))
        else:
            views.append(((*range(ax), d - 1, *range(ax + 1, d - 1), ax), "K"))
    return tuple(views)


def _complex_passes(kernel, hat: np.ndarray, n: int, first: np.ndarray, rest: np.ndarray) -> None:
    """kernel in place over each leading spatial axis of hat, first to last,
    with the factor `first` on the first pass and `rest` on the others."""
    fct = first
    for perm, order in _pass_views(hat.shape, n):
        view = hat.transpose(perm)
        kernel(view, fct, view, order=order)
        fct = rest


def fft_spatial(arr: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real-to-complex transform over the trailing n (spatial) axes."""
    one = _factors(grid)[0]
    hat = np.empty(arr.shape[:-1] + (grid.N // 2 + 1,), dtype=complex)
    _pocketfft.rfft_n_even(arr, one, hat)
    _complex_passes(_pocketfft.fft, hat, grid.n, one, one)
    return hat


def ifft_spatial(arr: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of fft_spatial: half-spectrum coefficients to a real field.
    Consumes arr. The field is written into out when given (any view of
    the field's shape, such as some time slices of a larger field) and into
    a fresh array otherwise; the array written is returned. A read-only arr
    is refused with a ValueError and left unchanged."""
    if not arr.flags.writeable:
        raise ValueError("ifft_spatial: the coefficients are not writeable; the inverse "
                         "transforms them in place")
    if out is None:
        out = np.empty(arr.shape[:-1] + (grid.N,))
    one, first, last = _factors(grid)
    _complex_passes(_pocketfft.ifft, arr, grid.n, first, one)
    _pocketfft.irfft(arr, last, out)
    return out


def derivative(arr: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """Spectral partial derivative along spatial axis `axis` (0-based)."""
    ki = wavenumbers(grid)[axis]
    return ifft_spatial(1j * ki * fft_spatial(arr, grid), grid)
