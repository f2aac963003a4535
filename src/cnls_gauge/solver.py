"""1-D periodic time evolution by spectral method of lines with RK4.

Two system forms are evolved: the original fields with complex
nonlinearity,

    dpsi_k/dt = i A_k psi_k'' + i (W_k + i Wim_k) psi_k,

and the gauge-transformed fields with the real coefficient-form
nonlinearity,

    dphi_k/dt = i A_k phi_k'' + i R_k phi_k.

Every stage reads rho, dS/dx and drho/dx afresh from the stage's fields,
so branch-cut artifacts never accumulate in dS/dx: the Laplacian and
drho/dx share one stacked FFT pair, and dS/dx comes from a jump-only
unwrap of the phases (``fields._unwrap_rows``) and a pair of its own.

A field phi_k = exp(i kappa_k (x - x_min)) u_k (``ComplexFieldSet.kappa``)
evolves its periodic u_k with the symbol -(k + kappa_k)^2 and dS_u/dx +
kappa_k; at kappa = 0 that is exactly the unshifted stage.
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
    _unwrap_rows,
)
from .gauge import TransformedSpec
from .grid import Grid1D, derivative, integrate
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
    """RK4 step bound 2 sqrt(2) / (max|A_k| k_max^2), k_max = pi/dx, of the
    linear part (warning threshold); above it the top mode grows.

    A gauge shift |kappa| <= pi/L raises the top wavenumber by at most half
    a mode, which the bound does not include.
    """
    k_max = np.pi / grid.dx
    return 2.0 * np.sqrt(2.0) / (float(np.abs(A.values).max()) * k_max**2)


def _transform_rows(rows: np.ndarray, *symbols: np.ndarray) -> np.ndarray:
    """In place on complex ``rows``, split into equal blocks, one per
    symbol: each block becomes ifft(symbol * fft(block)). Returns rows."""
    np.fft.fft(rows, axis=-1, out=rows)
    size = rows.shape[0] // len(symbols)
    for b, symbol in enumerate(symbols):
        rows[b * size:(b + 1) * size] *= symbol
    np.fft.ifft(rows, axis=-1, out=rows)
    return rows


def _tendency(
    data: np.ndarray,
    grid: Grid1D,
    tables: CoefficientTables,
    A: DispersionMatrix,
    t: float,
    kappa: np.ndarray | None = None,
    floor: float = DEFAULT_FLOOR,
) -> np.ndarray:
    """i A_k u_k'' + i (W_k + i Wim_k) u_k of one stage, u = ``data``.

    The Laplacian of the q data rows and, when the tables have a flux, the
    gradient of the q density rows come from one stacked FFT pair; dS/dx,
    only when the tables read it, from a jump-only unwrap of the phases and
    its own pair. Raises VacuumError when any node falls below the relative
    floor: the nonlinear right-hand sides divide by rho and a spectral
    evaluation of a near-vacuum phase would contaminate every node.
    """
    q = data.shape[0]
    flux = tables.has_flux
    if tables.nonzero:
        rho = data.real**2 + data.imag**2
        peak = rho.max(axis=-1)
        if (peak <= 0.0).any():
            raise VacuumError("species is identically zero (all-vacuum)")
        if (rho.min(axis=-1) < floor * peak).any():
            raise VacuumError("density below floor during evolution")
        # dS/dx here and the shifted symbol below are freed as soon as they
        # are read, so that no (q, n) temporary outlives its use
        dS = None
        if tables.uses_phase:
            dS = _phase_gradient_samples(_unwrap_rows(np.angle(data)), grid)
            if kappa is not None:
                dS += kappa[:, None]
        W = eval_W_parts(tables, rho, dS)
        del dS
    rows = np.empty((2 * q if flux else q, data.shape[1]), dtype=complex)
    rows[:q] = data
    symbols = [grid._neg_k2 if kappa is None else -((grid.k + kappa[:, None]) ** 2)]
    if flux:
        rows[q:] = rho
        symbols.append(grid._ik)
    lap = _transform_rows(rows, *symbols)[:q]
    del symbols
    Ak = A.values[:, None]
    if not tables.nonzero:
        out = 1j * (Ak * lap)
    elif flux:
        Wim = eval_Wim_parts(tables, rho, rows[q:].real)
        out = 1j * (Ak * lap) + (1j * W - Wim) * data
    else:
        out = 1j * (Ak * lap + W * data)
    if not np.isfinite(out).all():
        raise BlowUpError(f"non-finite value in right-hand side at t={t}", t=t)
    return out


def _shift(fields: ComplexFieldSet) -> np.ndarray | None:
    # None keeps a kappa = 0 field on the unshifted arithmetic
    return fields.kappa if fields.kappa.any() else None


def rhs(state: SimState) -> ComplexFieldSet:
    """Instantaneous time derivative of the fields."""
    f = state.fields
    out = _tendency(f.data, f.grid, state.spec.tables, state.A, state.t, _shift(f))
    return ComplexFieldSet(data=out, grid=f.grid, kappa=f.kappa)


def step(state: SimState, dt: float, max_abs: float | None = None) -> SimState:
    """One classical RK4 step; warns when |dt| exceeds the advisory bound."""
    if dt == 0:
        raise ValueError("dt must be nonzero")
    grid = state.fields.grid
    bound = stability_bound(grid, state.A)
    if abs(dt) > bound:
        warnings.warn(
            f"dt={dt!r} exceeds the stability bound {bound:.6g}", stacklevel=2
        )
    y = state.fields.data
    tables, A, t, kappa = state.spec.tables, state.A, state.t, _shift(state.fields)
    k1 = _tendency(y, grid, tables, A, t, kappa)
    k2 = _tendency(y + 0.5 * dt * k1, grid, tables, A, t, kappa)
    k3 = _tendency(y + 0.5 * dt * k2, grid, tables, A, t, kappa)
    k4 = _tendency(y + dt * k3, grid, tables, A, t, kappa)
    new = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    t_new = state.t + dt
    if not np.all(np.isfinite(new)):
        raise BlowUpError(f"non-finite field at t={t_new}", t=t_new)
    if max_abs is not None and np.abs(new).max() > max_abs:
        raise BlowUpError(f"field magnitude exceeded blow-up threshold at t={t_new}", t=t_new)
    return SimState(
        t=t_new,
        fields=ComplexFieldSet(data=new, grid=grid, kappa=state.fields.kappa),
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
    if fields.kappa.any():
        momentum += fields.kappa[:, None] * (data.real**2 + data.imag**2)
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
    if mid.fields.kappa.any():
        grad += 1j * mid.fields.kappa[:, None] * mid.fields.data
    energy = np.atleast_1d(integrate(np.abs(grad) ** 2, mid.fields.grid))
    res = continuity_residual((left, mid, right), mid.spec, mid.A)
    return DiagnosticsRecord(
        t=mid.t,
        norms=n,
        norm_drift=drift,
        continuity_residual=res,
        energy_proxy=energy,
    )


def _march(initial: SimState, dt: float, n_steps: int, sample_every: int, extra: int = 0):
    """Step ``initial`` n_steps + extra times, yielding (state, sampled) for
    the initial state and after every step.

    Sampled are step 0, every multiple of ``sample_every`` and step
    ``n_steps``; the ``extra`` steps past it never are. Every step takes
    the blow-up threshold BLOWUP_FACTOR times the initial peak magnitude.
    """
    peak0 = float(np.abs(initial.fields.data).max())
    max_abs = BLOWUP_FACTOR * peak0 if peak0 > 0 else None
    state = initial
    for i in range(n_steps + extra + 1):
        if i:
            state = step(state, dt, max_abs=max_abs)
        yield state, i <= n_steps and (i % sample_every == 0 or i == n_steps)


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
    when given, is called with each sampled state (snapshot hooks). A
    BlowUpError or VacuumError raised on the way carries the diagnostics
    collected so far as ``diagnostics``.
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

    records: list[DiagnosticsRecord] = []
    try:
        back = step(initial, -dt)
        # A sampled state is recorded once the next state exists, so the
        # march ends one step past t_end and the final state is `prev`.
        # Keeping `back` and `left` referenced is measured: at n = 4096,
        # freeing them sooner raised page faults per solve from 7k to 11k.
        prev, cur, cur_sampled = None, None, False
        for nxt, sampled in _march(initial, dt, n_steps, sample_every, extra=1):
            if cur_sampled:
                left = back if prev is None else prev
                records.append(_record(left, cur, nxt, norms0))
                if on_sample is not None:
                    on_sample(cur)
            prev, cur, cur_sampled = cur, nxt, sampled
    except (BlowUpError, VacuumError) as err:
        err.diagnostics = records
        raise
    return prev, records
