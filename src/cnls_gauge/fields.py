"""q-component complex fields and their density/phase (hydrodynamic) form.

A field set psi_k is decomposed as psi_k = rho_k^(1/2) exp(i S_k) with
rho_k = |psi_k|^2 and S_k the phase unwrapped along the grid from node 0.
The same containers hold the transformed fields phi_k and their phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid1D, derivative, integrate

__all__ = [
    "VacuumError",
    "DispersionMatrix",
    "ComplexFieldSet",
    "HydroFields",
    "to_hydro",
    "from_hydro",
    "norms",
    "phase_winding",
    "phase_gradient",
    "density_gradient",
    "DEFAULT_FLOOR",
]

# Relative density floor below which the phase is considered undefined.
DEFAULT_FLOOR = 1e-12


class VacuumError(ValueError):
    """Raised when a phase-based quantity is requested at vanishing density."""


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
    """
    dd = p[:, 1:] - p[:, :-1]
    jump = ~(np.abs(dd) < np.pi)
    out = np.empty_like(p)
    out[:, 0] = p[:, 0]
    if not jump.any():
        # numpy adds a zero cumsum, which turns -0.0 into +0.0
        np.add(p[:, 1:], 0.0, out=out[:, 1:])
        return out
    d = dd[jump]
    dmod = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
    dmod[(dmod == -np.pi) & (d > 0)] = np.pi
    correct = np.zeros_like(dd)
    correct[jump] = dmod - d
    np.add(p[:, 1:], correct.cumsum(axis=-1), out=out[:, 1:])
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
            raise VacuumError(f"species {k} is identically zero (all-vacuum)")
        if vacuum[k].all():
            raise VacuumError(f"species {k} lies entirely below the density floor")
    theta = np.angle(data)
    S = _unwrap_rows(theta)
    for k in np.nonzero(vacuum.any(axis=-1))[0]:
        S[k] = _interp_vacuum(theta[k], ~vacuum[k], psi.kappa[k] * psi.grid.length)
    return HydroFields(rho=rho, S=S, grid=psi.grid, vacuum=vacuum, kappa=psi.kappa)


def from_hydro(h: HydroFields) -> ComplexFieldSet:
    """Rebuild the complex fields rho^(1/2) exp(i S)."""
    if np.any(h.rho < 0.0):
        raise ValueError("negative density")
    data = np.sqrt(h.rho) * np.exp(1j * h.S)
    return ComplexFieldSet(data=data, grid=h.grid)


def norms(h: HydroFields) -> np.ndarray:
    """Per-species conserved norms N_k = integral of rho_k."""
    return np.atleast_1d(integrate(h.rho, h.grid))


def _wrap_to_pi(v: np.ndarray | float) -> np.ndarray | float:
    return (v + np.pi) % (2.0 * np.pi) - np.pi


def _winding_from_samples(S: np.ndarray) -> np.ndarray:
    closing = _wrap_to_pi(S[:, 0] - S[:, -1])
    total = S[:, -1] - S[:, 0] + closing
    return np.rint(total / (2.0 * np.pi))


def _phase_gradient_samples(S: np.ndarray, grid: Grid1D) -> np.ndarray:
    # split off the non-periodic winding ramp before differentiating
    slope = 2.0 * np.pi * _winding_from_samples(S) / grid.length
    periodic = S - slope[:, None] * (grid.x - grid.x_min)
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
    return _winding_from_samples(_data_phase(h)).astype(int)


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


def density_gradient(h: HydroFields) -> np.ndarray:
    """Spectral drho/dx per species."""
    return derivative(h.rho, h.grid)
