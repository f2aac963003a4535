"""Uniform periodic 1-D grid with spectral calculus operators.

All operators act on the last axis of their input, so a stacked (q, n)
family of fields is processed in one call. Grids are power-of-two sized
for predictable FFT behaviour.

Every FFT pair (the operators below, the RK4 stage's stacked pair, which
may give one forward spectrum to two blocks of rows, and the split step's
linear flows in ``solver``) goes through ``_spectral_pair``,
which calls numpy's pocketfft ufuncs directly, with the factors and axes
that ``np.fft.fft`` and ``np.fft.ifft`` pass them, so the results have
np.fft's bytes without its Python wrapper. Fields are transformed in
double precision (complex128).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft  # numpy >= 2.0

__all__ = [
    "Grid1D",
    "make_grid",
    "derivative",
    "second_derivative",
    "antiderivative",
    "antiderivative_parts",
    "integrate",
]


@dataclass(frozen=True)
class Grid1D:
    """Periodic grid on [x_min, x_max); node i sits at x_min + i*dx."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        if not self.x_max > self.x_min:
            raise ValueError(
                f"domain endpoints out of order: x_min={self.x_min!r}, "
                f"x_max={self.x_max!r}"
            )
        if not np.isfinite(self.x_max - self.x_min):
            raise ValueError(
                f"domain length is not finite: x_min={self.x_min!r}, "
                f"x_max={self.x_max!r}"
            )
        n = self.n_points
        if n < 8 or n & (n - 1):
            raise ValueError(f"n_points must be a power of two >= 8, got {n!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @cached_property
    def k(self) -> np.ndarray:
        """Angular wavenumbers in FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @cached_property
    def _ik(self) -> np.ndarray:
        # First-derivative symbol; Nyquist zeroed (odd derivative of a real mode).
        ik = 1j * self.k
        ik[self.n_points // 2] = 0.0
        return ik

    @property
    def _inv_ik(self) -> np.ndarray:
        # Antiderivative symbol; mean and Nyquist modes handled separately.
        # Built at each use, not cached: a march that gauges only at its
        # samples would otherwise hold it through every step.
        inv = np.zeros(self.n_points, dtype=complex)
        np.divide(1.0, self._ik, out=inv, where=self._ik != 0)
        return inv

    @cached_property
    def _neg_k2(self) -> np.ndarray:
        # Second-derivative symbol -k^2.
        return -(self.k**2)


def make_grid(n_points: int, x_min: float, x_max: float) -> Grid1D:
    """Build a periodic grid; n_points must be a power of two >= 8."""
    return Grid1D(int(n_points), float(x_min), float(x_max))


def _check_field(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    f = np.asarray(f)
    if f.shape[-1] != grid.n_points:
        raise ValueError(
            f"field length {f.shape[-1]} does not match grid n_points {grid.n_points}"
        )
    return f


# the core axes np.fft._raw_fft gives the ufuncs for a transform along axis -1
_LAST_AXIS = [(-1,), (), (-1,)]


def _spectral_pair(
    rows: np.ndarray,
    symbol: np.ndarray,
    q: int | None = None,
    tail: np.ndarray | None = None,
    copies: int = 0,
) -> np.ndarray:
    """In place on complex ``rows``: every row becomes ifft(symbol * fft(row)),
    with the bytes of ``np.fft.ifft(symbol * np.fft.fft(row))``. Given q,
    only the first q rows take ``symbol`` and every later row takes
    ``tail``, with one product for all of them. Given ``copies``, the last
    ``copies`` rows are not read: they take the spectrum of the first
    ``copies`` rows, so each ends as ifft(tail * fft(row)) of its source
    row, with no forward transform of its own. Returns rows.

    The forward factor is 1 and the inverse 1/n, the factors np.fft passes
    for its default norm.
    """
    if copies:
        read = rows[:rows.shape[0] - copies]
        _pocketfft.fft(read, 1.0, axes=_LAST_AXIS, out=read)
        rows[-copies:] = rows[:copies]
    else:
        _pocketfft.fft(rows, 1.0, axes=_LAST_AXIS, out=rows)
    # symbol first, as in symbol * fft(row): the operand order decides the
    # sign of a NaN that a non-finite row produces
    if q is None:
        np.multiply(symbol, rows, out=rows)
    else:
        head = rows[:q]
        np.multiply(symbol, head, out=head)
        if rows.shape[0] > q:
            rest = rows[q:]
            np.multiply(tail, rest, out=rest)
    _pocketfft.ifft(rows, 1.0 / rows.shape[-1], axes=_LAST_AXIS, out=rows)
    return rows


def derivative(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Spectral first derivative; exact for band-limited periodic data."""
    f = _check_field(f, grid)
    out = _spectral_pair(np.array(f, dtype=complex), grid._ik)
    return out.real if np.isrealobj(f) else out


def second_derivative(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Spectral second derivative (1-D Laplacian)."""
    f = _check_field(f, grid)
    out = _spectral_pair(np.array(f, dtype=complex), grid._neg_k2)
    return out.real if np.isrealobj(f) else out


def _check_anchor(anchor: int, grid: Grid1D) -> int:
    anchor = int(anchor)
    if not 0 <= anchor < grid.n_points:
        raise ValueError(f"anchor index {anchor} out of range [0, {grid.n_points})")
    return anchor


def antiderivative_parts(
    f: np.ndarray, grid: Grid1D, anchor: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Split antiderivative of a real field into (periodic part, ramp slope).

    The antiderivative of f is ``periodic + ramp * (x - x[anchor])`` where
    ``ramp = mean(f)``. The periodic part vanishes at the anchor node. The
    split matters because the ramp is not grid-periodic and must not be fed
    to spectral operators.
    """
    f = _check_field(f, grid)
    if not np.isrealobj(f):
        raise ValueError("antiderivative takes a real field")
    anchor = _check_anchor(anchor, grid)
    ramp = f.mean(axis=-1)
    # f - ramp taken straight into the complex buffer: the real parts of
    # the complex difference, imaginary parts +0, as a cast would give
    fluct = np.subtract(f, ramp[..., None], out=np.empty(f.shape, dtype=complex))
    periodic = _spectral_pair(fluct, grid._inv_ik).real
    periodic = periodic - periodic[..., anchor, None]
    return periodic, ramp


def antiderivative(f: np.ndarray, grid: Grid1D, anchor: int = 0) -> np.ndarray:
    """Antiderivative samples with value 0 at the anchor node.

    Equals the periodic spectral antiderivative of the zero-mean part plus
    the linear ramp ``mean(f) * (x - x[anchor])``; the combined samples are
    not periodic when mean(f) != 0.
    """
    periodic, ramp = antiderivative_parts(f, grid, anchor)
    return periodic + ramp[..., None] * (grid.x - grid.x[_check_anchor(anchor, grid)])


def integrate(f: np.ndarray, grid: Grid1D) -> np.ndarray | float:
    """Periodic quadrature sum(f) * dx, spectrally accurate for periodic f."""
    f = _check_field(f, grid)
    out = f.sum(axis=-1) * grid.dx
    return float(out) if out.ndim == 0 else out
