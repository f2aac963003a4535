"""1-D periodic time evolution by spectral method of lines with RK4.

Two system forms are evolved: the original fields with complex
nonlinearity,

    dpsi_k/dt = i A_k psi_k'' + i (W_k + i Wim_k) psi_k,

and the gauge-transformed fields with the real coefficient-form
nonlinearity,

    dphi_k/dt = i A_k phi_k'' + i R_k phi_k.

Hydrodynamic quantities are re-extracted (with fresh phase unwrapping)
at every stage so that branch-cut artifacts never accumulate in dS/dx.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fields import (
    ComplexFieldSet,
    DispersionMatrix,
    HydroFields,
    VacuumError,
    phase_gradient,
    DEFAULT_FLOOR,
    _phase_gradient_samples,
)
from .gauge import TransformedSpec
from .grid import Grid1D, derivative, integrate, second_derivative
from .nonlinearity import (
    CoefficientTables,
    FamilySpec,
    LinearSpec,
    eval_F,
    eval_F_parts,
    eval_W_parts,
    eval_Wim_parts,
)

__all__ = [
    "SystemSpec",
    "SimState",
    "DiagnosticsRecord",
    "BlowUpError",
    "rhs",
    "step",
    "evolve",
    "current_psi",
    "current_phi",
    "continuity_residual",
    "stability_bound",
]

SystemSpec = Union[FamilySpec, TransformedSpec]

# Field magnitudes beyond this multiple of the initial maximum abort a run.
BLOWUP_FACTOR = 1e6


class BlowUpError(RuntimeError):
    """Evolution produced non-finite or runaway field values."""

    def __init__(self, message: str, t: float, diagnostics=None):
        super().__init__(message)
        self.t = t
        self.diagnostics = diagnostics if diagnostics is not None else []


@dataclass(frozen=True)
class SimState:
    """Fields at one instant together with the governing coefficients."""

    t: float
    fields: ComplexFieldSet
    system_tag: str
    spec: SystemSpec
    A: DispersionMatrix

    def __post_init__(self) -> None:
        if self.system_tag not in ("psi", "phi"):
            raise ValueError(f"system_tag must be 'psi' or 'phi', got {self.system_tag!r}")
        if self.system_tag == "psi" and isinstance(self.spec, TransformedSpec):
            raise ValueError("psi-system states take a family spec, not TransformedSpec")
        if self.system_tag == "phi" and not isinstance(
            self.spec, (TransformedSpec, LinearSpec)
        ):
            raise ValueError("phi-system states take a TransformedSpec (or LinearSpec)")
        if self.fields.q != self.spec.q or self.fields.q != self.A.q:
            raise ValueError(
                f"species counts differ: fields {self.fields.q}, "
                f"spec {self.spec.q}, A {self.A.q}"
            )


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Sampled conservation diagnostics; norm_drift is relative to t = 0."""

    t: float
    norms: np.ndarray
    norm_drift: np.ndarray
    continuity_residual: np.ndarray
    energy_proxy: np.ndarray


def stability_bound(grid: Grid1D, A: DispersionMatrix) -> float:
    """Advisory RK4 step bound 0.5 dx^2 / max|A_k| (warning threshold)."""
    return 0.5 * grid.dx**2 / float(np.abs(A.values).max())


def _hydro_parts(
    data: np.ndarray, grid: Grid1D, floor: float, tables: CoefficientTables
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Fast (rho, dS/dx, drho/dx) extraction with fresh unwrapping; dS/dx
    only when the tables read it, drho/dx only when they have a flux.

    Raises VacuumError when any node falls below the relative floor: the
    nonlinear right-hand sides divide by rho and a spectral evaluation of
    a near-vacuum phase would contaminate every node.
    """
    rho = data.real**2 + data.imag**2
    peak = rho.max(axis=-1)
    if np.any(peak <= 0.0):
        raise VacuumError("species is identically zero (all-vacuum)")
    if np.any(rho < floor * peak[:, None]):
        raise VacuumError("density below floor during evolution")
    dS = drho = None
    if tables.uses_phase:
        dS = _phase_gradient_samples(np.unwrap(np.angle(data), axis=-1), grid)
    if tables.has_flux:
        drho = derivative(rho, grid)
    return rho, dS, drho


def _tendency(
    data: np.ndarray,
    grid: Grid1D,
    tables: CoefficientTables,
    A: DispersionMatrix,
    t: float,
    floor: float = DEFAULT_FLOOR,
) -> np.ndarray:
    lap = second_derivative(data, grid)
    Ak = A.values[:, None]
    if not tables.nonzero:
        out = 1j * (Ak * lap)
    else:
        rho, dS, drho = _hydro_parts(data, grid, floor, tables)
        W = eval_W_parts(tables, rho, dS)
        if tables.has_flux:
            Wim = eval_Wim_parts(tables, rho, drho)
            out = 1j * (Ak * lap) + (1j * W - Wim) * data
        else:
            out = 1j * (Ak * lap + W * data)
    if not np.all(np.isfinite(out)):
        raise BlowUpError(f"non-finite value in right-hand side at t={t}", t=t)
    return out


def rhs(state: SimState) -> ComplexFieldSet:
    """Instantaneous time derivative of the fields."""
    if state.fields.non_periodic_ramp:
        raise ValueError(
            "refusing spectral evolution of a field with a non-periodic gauge ramp"
        )
    out = _tendency(
        state.fields.data, state.fields.grid, state.spec.tables, state.A, state.t
    )
    return ComplexFieldSet(data=out, grid=state.fields.grid)


def step(state: SimState, dt: float, max_abs: float | None = None) -> SimState:
    """One classical RK4 step; warns when |dt| exceeds the advisory bound."""
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if state.fields.non_periodic_ramp:
        raise ValueError(
            "refusing spectral evolution of a field with a non-periodic gauge ramp"
        )
    grid = state.fields.grid
    bound = stability_bound(grid, state.A)
    if abs(dt) > bound:
        warnings.warn(
            f"dt={dt!r} exceeds the stability bound {bound:.6g}", stacklevel=2
        )
    y = state.fields.data
    tables, A, t = state.spec.tables, state.A, state.t
    k1 = _tendency(y, grid, tables, A, t)
    k2 = _tendency(y + 0.5 * dt * k1, grid, tables, A, t)
    k3 = _tendency(y + 0.5 * dt * k2, grid, tables, A, t)
    k4 = _tendency(y + dt * k3, grid, tables, A, t)
    new = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    t_new = state.t + dt
    if not np.all(np.isfinite(new)):
        raise BlowUpError(f"non-finite field at t={t_new}", t=t_new)
    if max_abs is not None and np.abs(new).max() > max_abs:
        raise BlowUpError(f"field magnitude exceeded blow-up threshold at t={t_new}", t=t_new)
    return SimState(
        t=t_new,
        fields=ComplexFieldSet(data=new, grid=grid),
        system_tag=state.system_tag,
        spec=state.spec,
        A=A,
    )


def current_psi(
    spec: FamilySpec, h: HydroFields, A: DispersionMatrix
) -> np.ndarray:
    """Continuity current of the original system, j_k = 2(A_k rho_k dS_k/dx + F_k)."""
    return 2.0 * (A.values[:, None] * h.rho * phase_gradient(h) + eval_F(spec, h))


def current_phi(h: HydroFields, A: DispersionMatrix) -> np.ndarray:
    """Transformed-system current in standard bilinear form, J_k = 2 A_k rho_k dS_k/dx."""
    if A.q != h.q:
        raise ValueError(f"dispersion size {A.q} does not match fields q={h.q}")
    return 2.0 * A.values[:, None] * h.rho * phase_gradient(h)


def _current_from_fields(
    spec: SystemSpec, fields: ComplexFieldSet, A: DispersionMatrix
) -> np.ndarray:
    # Vacuum-safe current: rho * dS/dx == Im(conj(f) df/dx) needs no division.
    data = fields.data
    momentum = np.imag(np.conj(data) * derivative(data, fields.grid))
    current = 2.0 * A.values[:, None] * momentum
    if spec.tables.has_flux:
        rho = data.real**2 + data.imag**2
        current += 2.0 * eval_F_parts(spec.tables, rho)
    return current


def continuity_residual(
    states: tuple[SimState, SimState, SimState],
    spec: SystemSpec,
    A: DispersionMatrix,
) -> np.ndarray:
    """sup |d(rho)/dt + d(current)/dx| from three equally spaced states.

    The time derivative is a centered difference, so the residual decays at
    second order in the state spacing.
    """
    s0, s1, s2 = states
    dt1 = s1.t - s0.t
    dt2 = s2.t - s1.t
    # slack covers accumulated floating-point drift of the time stamps
    if abs(dt1 - dt2) > 1e-9 * max(abs(dt1), abs(dt2)):
        raise ValueError(f"states are not equally spaced in time: {dt1} vs {dt2}")
    rho0 = np.abs(s0.fields.data) ** 2
    rho2 = np.abs(s2.fields.data) ** 2
    drho_dt = (rho2 - rho0) / (2.0 * dt1)
    current = _current_from_fields(spec, s1.fields, A)
    residual = drho_dt + derivative(current, s1.fields.grid)
    return np.abs(residual).max(axis=-1)


def _norms_of(fields: ComplexFieldSet) -> np.ndarray:
    return np.atleast_1d(integrate(np.abs(fields.data) ** 2, fields.grid))


def _record(
    left: SimState, mid: SimState, right: SimState, norms0: np.ndarray
) -> DiagnosticsRecord:
    n = _norms_of(mid.fields)
    drift = np.where(norms0 > 0.0, (n - norms0) / np.where(norms0 > 0, norms0, 1.0), 0.0)
    grad = derivative(mid.fields.data, mid.fields.grid)
    energy = np.atleast_1d(integrate(np.abs(grad) ** 2, mid.fields.grid))
    res = continuity_residual((left, mid, right), mid.spec, mid.A)
    return DiagnosticsRecord(
        t=mid.t,
        norms=n,
        norm_drift=drift,
        continuity_residual=res,
        energy_proxy=energy,
    )


def evolve(
    initial: SimState,
    dt: float,
    t_end: float,
    sample_every: int = 1,
    on_sample=None,
) -> tuple[SimState, list[DiagnosticsRecord]]:
    """March to t_end with fixed steps, sampling diagnostics periodically.

    Samples are taken at step multiples of ``sample_every`` and at the
    final step. Each record's continuity residual uses the neighbouring
    steps (one extra step is taken past t_end, and one backwards from the
    initial state, purely for the centered differences). ``on_sample``,
    when given, is called with each sampled state (snapshot hooks). On
    blow-up the raised error carries the diagnostics collected so far.
    """
    if not t_end > initial.t:
        raise ValueError("t_end must exceed the initial time")
    if not dt > 0:
        raise ValueError("dt must be > 0")
    sample_every = int(sample_every)
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    span = t_end - initial.t
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(
            f"t_end - t0 = {span!r} is not an integer multiple of dt = {dt!r}"
        )
    norms0 = _norms_of(initial.fields)
    peak0 = float(np.abs(initial.fields.data).max())
    max_abs = BLOWUP_FACTOR * peak0 if peak0 > 0 else None

    records: list[DiagnosticsRecord] = []
    prev: SimState | None = None
    cur = initial
    try:
        back = step(initial, -dt)
        for i in range(n_steps):
            nxt = step(cur, dt, max_abs=max_abs)
            if i % sample_every == 0:
                left = back if i == 0 else prev
                records.append(_record(left, cur, nxt, norms0))
                if on_sample is not None:
                    on_sample(cur)
            prev, cur = cur, nxt
        extra = step(cur, dt, max_abs=max_abs)
        records.append(_record(prev, cur, extra, norms0))
        if on_sample is not None:
            on_sample(cur)
    except BlowUpError as err:
        raise BlowUpError(str(err), t=err.t, diagnostics=records) from None
    return cur, records
