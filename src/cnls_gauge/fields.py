"""q-component complex fields and their density/phase (hydrodynamic) form.

The commands read a ``ComplexFieldSet`` and its densities ``rho`` alone;
the identity checks read psi_k = rho_k^(1/2) exp(i S_k) (phi_k alike),
S_k the phase unwrapped along the grid from node 0 (``to_hydro``).
The integer winding of each unwrapped phase row, and the slope of the
ramp it adds, are read on Python floats (``_winding_from_samples``,
``_split_winding``) with the bytes of the numpy expression; the RK4 stage
and ``phase_gradient`` share that split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid1D, derivative

__all__ = [
    "VacuumError",
    "DispersionMatrix",
    "ComplexFieldSet",
    "HydroFields",
    "to_hydro",
    "from_hydro",
    "phase_winding",
    "phase_gradient",
    "DEFAULT_FLOOR",
]

# Relative density floor below which the phase is considered undefined.
DEFAULT_FLOOR = 1e-12


class VacuumError(ValueError):
    """Raised when a phase-based quantity is requested at vanishing density.

    ``t`` is, for a failure in a march (in a stage that divides by rho or
    reads the phase), the start time of the step; None otherwise.
    """

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class DispersionMatrix:
    """Diagonal real dispersion coefficients A_k; every entry must be nonzero."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if values.ndim != 1 or values.size < 1:
            raise ValueError("dispersion coefficients must form a 1-D list")
        if not np.all(np.isfinite(values)):
            raise ValueError("dispersion coefficients must be finite")
        if np.any(values == 0.0):
            raise ValueError("zero dispersion coefficient: every A_k must be nonzero")
        object.__setattr__(self, "values", values)

    @property
    def q(self) -> int:
        return self.values.size


def _kappa_values(kappa, q: int) -> np.ndarray:
    kappa = np.zeros(q) if kappa is None else np.asarray(kappa, dtype=float)
    if kappa.shape != (q,):
        raise ValueError(f"kappa must hold one value per species, got {kappa.shape}")
    return kappa


@dataclass(frozen=True)
class ComplexFieldSet:
    """q complex fields phi_k = exp(i kappa_k (x - x_min)) data_k on a shared
    periodic grid (rows are species), ``data`` grid-periodic. ``kappa``
    (zeros by default) holds a gauge ramp's fractional wavenumber.
    """

    data: np.ndarray
    grid: Grid1D
    kappa: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 2:
            raise ValueError(f"field data must be 2-D (q, n), got shape {data.shape}")
        if data.shape[0] < 1:
            raise ValueError("need at least one species")
        if data.shape[1] != self.grid.n_points:
            raise ValueError(
                f"field width {data.shape[1]} does not match grid "
                f"n_points {self.grid.n_points}"
            )
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "kappa", _kappa_values(self.kappa, data.shape[0]))

    @property
    def q(self) -> int:
        return self.data.shape[0]

    def samples(self) -> np.ndarray:
        """Node values of phi_k = exp(i kappa_k (x - x_min)) data_k."""
        if not self.kappa.any():
            return self.data
        return np.exp(1j * self.kappa[:, None] * (self.grid.x - self.grid.x_min)) * self.data

    @property
    def rho(self) -> np.ndarray:
        """|data_k|^2 = |phi_k|^2 as Re^2 + Im^2, a fresh array."""
        rho = self.data.real**2
        rho += self.data.imag**2
        return rho


@dataclass(frozen=True)
class HydroFields:
    """Densities rho_k >= 0 and unwrapped phases S_k on a shared grid.

    ``vacuum`` flags nodes whose density fell below the floor used at
    extraction time; the phase there is interpolated, not measured.
    ``kappa`` (zeros by default) is the fractional wavenumber of the field
    the phases were read from: S_k - kappa_k (x - x_min) has an integer
    winding.
    """

    rho: np.ndarray
    S: np.ndarray
    grid: Grid1D
    vacuum: np.ndarray = field(default=None)  # type: ignore[assignment]
    kappa: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=float)
        S = np.asarray(self.S, dtype=float)
        if rho.ndim != 2 or rho.shape != S.shape:
            raise ValueError(
                f"rho and S must share a 2-D (q, n) shape, got {rho.shape} and {S.shape}"
            )
        if rho.shape[1] != self.grid.n_points:
            raise ValueError(
                f"field width {rho.shape[1]} does not match grid "
                f"n_points {self.grid.n_points}"
            )
        if np.any(rho < 0.0):
            raise ValueError("negative density")
        vacuum = self.vacuum
        if vacuum is None:
            vacuum = np.zeros(rho.shape, dtype=bool)
        else:
            vacuum = np.asarray(vacuum, dtype=bool)
            if vacuum.shape != rho.shape:
                raise ValueError("vacuum mask shape mismatch")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "vacuum", vacuum)
        object.__setattr__(self, "kappa", _kappa_values(self.kappa, rho.shape[0]))

    @property
    def q(self) -> int:
        return self.rho.shape[0]


def _unwrap_rows(p: np.ndarray) -> np.ndarray:
    """np.unwrap(p, axis=-1), bit for bit, computing the 2 pi correction
    only where a step is a jump: not below pi in magnitude, NaN included.
    The differences and masks are freed before the result is allocated.
    """
    dd = p[:, 1:] - p[:, :-1]
    jump = ~(np.abs(dd) < np.pi)
    if jump.any():
        d = dd[jump]
        dmod = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
        dmod[(dmod == -np.pi) & (d > 0)] = np.pi
        correct = np.zeros_like(dd)
        correct[jump] = dmod - d
        del dd, jump, d, dmod
        correct = correct.cumsum(axis=-1)
    else:
        del dd, jump
        # numpy adds a zero cumsum, which turns -0.0 into +0.0
        correct = 0.0
    out = np.empty_like(p)
    out[:, 0] = p[:, 0]
    np.add(p[:, 1:], correct, out=out[:, 1:])
    return out


def _interp_vacuum(theta: np.ndarray, valid: np.ndarray, kappa_L: float) -> np.ndarray:
    """One species' phase unwrapped over its valid nodes and linearly
    interpolated across the flagged ones. Across the periodic seam it
    follows the wrapped jump from the last valid node to the first, which
    closes the period up to 2 pi m + kappa_L (kappa_L = kappa * L)."""
    n = theta.size
    idx = np.nonzero(valid)[0]
    s_valid = _unwrap_rows(theta[None, idx])[0]
    closing = _wrap_to_pi(s_valid[0] - s_valid[-1] + kappa_L)
    nodes = np.concatenate(([idx[-1] - n], idx, [idx[0] + n]))
    values = np.concatenate(([s_valid[0] - closing], s_valid, [s_valid[-1] + closing]))
    return np.interp(np.arange(n), nodes, values)


def to_hydro(psi: ComplexFieldSet, floor: float = DEFAULT_FLOOR) -> HydroFields:
    """Extract (rho, S) from psi's samples; S unwrapped along the grid from node 0.

    ``floor`` is relative: nodes with rho_k < floor * max(rho_k) are flagged
    as vacuum and their phase is linearly interpolated from neighbours.
    The result carries psi's kappa.
    """
    if floor < 0:
        raise ValueError("floor must be >= 0")
    data = psi.samples()
    rho = np.abs(data) ** 2
    peak = rho.max(axis=-1)
    vacuum = rho < floor * peak[:, None]
    for k in range(psi.q):
        if peak[k] <= 0.0:
            raise VacuumError(f"species {k + 1} is identically zero (all-vacuum)")
        if vacuum[k].all():
            raise VacuumError(f"species {k + 1} lies entirely below the density floor")
    theta = np.angle(data)
    S = _unwrap_rows(theta)
    for k in np.nonzero(vacuum.any(axis=-1))[0]:
        S[k] = _interp_vacuum(theta[k], ~vacuum[k], psi.kappa[k] * psi.grid.length)
    return HydroFields(rho=rho, S=S, grid=psi.grid, vacuum=vacuum, kappa=psi.kappa)


def from_hydro(h: HydroFields) -> ComplexFieldSet:
    """Rebuild the complex fields rho^(1/2) exp(i S): periodic data
    rho^(1/2) exp(i (S - kappa (x - x_min))) carrying h's kappa."""
    if np.any(h.rho < 0.0):
        raise ValueError("negative density")
    data = np.sqrt(h.rho) * np.exp(1j * _data_phase(h))
    return ComplexFieldSet(data=data, grid=h.grid, kappa=h.kappa)


def _wrap_to_pi(v: np.ndarray | float) -> np.ndarray | float:
    # Python's float % and numpy's remainder give the same bytes
    return (v + np.pi) % (2.0 * np.pi) - np.pi


def _rint(v: float) -> float:
    """np.rint of one float: half to even, the sign of a zero kept (-0.3
    gives -0.0), NaN and inf passed through, where round() would drop the
    sign or raise."""
    return math.copysign(round(v), v) if math.isfinite(v) else v


def _winding_from_samples(S: np.ndarray) -> list[float]:
    """Integer winding of each row of unwrapped phases, one Python float per
    row: the rise from the first to the last node plus the wrapped closing
    step, over 2 pi. The same bytes as the array expression, in q scalar
    operations rather than a dozen numpy calls on (q,) arrays."""
    return [
        _rint((last - first + _wrap_to_pi(first - last)) / (2.0 * np.pi))
        for first, last in zip(S[:, 0].tolist(), S[:, -1].tolist())
    ]


def _split_winding(S: np.ndarray, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """(periodic, slope) with S = periodic + slope (x - x_min): the
    non-periodic integer-winding ramp split off the unwrapped phases. The
    slopes 2 pi m_k / L are computed on Python floats."""
    length = grid.length
    slope = np.array([2.0 * np.pi * m / length for m in _winding_from_samples(S)])
    return S - slope[:, None] * (grid.x - grid.x_min), slope


def _phase_gradient_samples(S: np.ndarray, grid: Grid1D) -> np.ndarray:
    # differentiate the periodic part only, then add the ramp's exact slope
    periodic, slope = _split_winding(S, grid)
    return derivative(periodic, grid) + slope[:, None]


def _data_phase(h: HydroFields) -> np.ndarray:
    # S - kappa (x - x_min): the phase of the periodic data, whose winding
    # over the period is an integer
    if not h.kappa.any():
        return h.S
    return h.S - h.kappa[:, None] * (h.grid.x - h.grid.x_min)


def phase_winding(h: HydroFields) -> np.ndarray:
    """Integer winding number of each species' phase around the period,
    the fractional wavenumber kappa split off."""
    return np.array(_winding_from_samples(_data_phase(h))).astype(int)


def phase_gradient(h: HydroFields) -> np.ndarray:
    """Spectral dS/dx, winding-aware.

    An integer winding m adds a non-periodic ramp 2*pi*m*x/L to the
    unwrapped phase samples; the ramp is split off before differentiation
    and its exact slope added back. A fractional wavenumber kappa is split
    off (and added back) the same way, before the winding is read.
    """
    dS = _phase_gradient_samples(_data_phase(h), h.grid)
    if h.kappa.any():
        dS += h.kappa[:, None]
    return dS

