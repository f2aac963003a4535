"""Gauge reduction of complex nonlinearities to real ones.

The diagonal unitary map phi_k = exp(i sigma_k) psi_k removes the imaginary
part of the nonlinearity when the real generator satisfies

    dsigma_k/dx = F_k / (A_k rho_k) = u_k = (c_k + sum_i D_ki rho_i) / A_k,

with F_k = rho_k (c_k + sum_i D_ki rho_i) the flux of the imaginary part in
the coefficient-table form of ``nonlinearity``. The transformed system
carries a purely real nonlinearity

    R_k = W_k - A_k (dsigma_k/dx)^2 + J_k dsigma_k/dx / rho_k + dsigma_k/dt,

which, for every spec type, is again of the table form with a = c = D = 0
(``TransformedSpec``); ``transformed_spec`` is the one formula for its
tables. This module builds generators, applies and inverts the map,
evaluates R both ways, and checks the 2-D curl feasibility condition for
vector fluxes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import (
    ComplexFieldSet,
    DispersionMatrix,
    HydroFields,
    VacuumError,
    phase_gradient,
    to_hydro,
    _wrap_to_pi,
)
from .grid import Grid1D, antiderivative_parts, derivative
from .nonlinearity import (
    CoefficientTables,
    FamilySpec,
    LinearSpec,
    eval_F_parts,
    eval_flux_rate,
    eval_W_parts,
    _as_array,
)

__all__ = [
    "GaugeGenerator",
    "TransformedSpec",
    "Grid2D",
    "compute_generator",
    "apply_gauge",
    "invert_gauge",
    "phase_relation_residual",
    "cole_hopf_G",
    "curl_residual_2d",
    "transformed_spec",
    "transformed_spec_drift",
    "transformed_spec_derivative",
    "transformed_spec_linear",
    "eval_transformed",
    "eval_R_numeric",
    "RAMP_PERIOD_TOL",
]

# Tolerance on ramp*L/(2*pi) being an integer for grid periodicity.
RAMP_PERIOD_TOL = 1e-9


@dataclass(frozen=True)
class GaugeGenerator:
    """Per-species generator sigma_k split as periodic part + linear ramp.

    sigma_k(x) = sigma[k] + ramp[k] * (x - x[anchor]); sigma_k vanishes at
    the anchor node. The split is kept explicit because the ramp is not
    grid-periodic; ``derivative(sigma) + ramp`` reconstructs dsigma/dx.
    """

    sigma: np.ndarray
    ramp: np.ndarray
    anchor: int
    grid: Grid1D
    spec: FamilySpec
    A: DispersionMatrix

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=float)
        ramp = np.atleast_1d(np.asarray(self.ramp, dtype=float))
        if sigma.ndim != 2 or sigma.shape[1] != self.grid.n_points:
            raise ValueError(f"sigma must be (q, n_points), got {sigma.shape}")
        if ramp.shape != (sigma.shape[0],):
            raise ValueError("ramp must hold one slope per species")
        if not 0 <= int(self.anchor) < self.grid.n_points:
            raise ValueError(f"anchor index {self.anchor} out of range")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "ramp", ramp)
        object.__setattr__(self, "anchor", int(self.anchor))

    @property
    def q(self) -> int:
        return self.sigma.shape[0]

    @property
    def x_anchor(self) -> float:
        return float(self.grid.x[self.anchor])

    def values(self) -> np.ndarray:
        """Full sigma samples, periodic part plus ramp."""
        return self.sigma + self.ramp[:, None] * (self.grid.x - self.x_anchor)

    def gradient(self) -> np.ndarray:
        """dsigma/dx samples; equals (c + D rho)/A of the generating state."""
        return derivative(self.sigma, self.grid) + self.ramp[:, None]

    def ramp_windings(self) -> np.ndarray:
        """ramp * L / (2*pi) per species; integer values keep phi periodic."""
        return self.ramp * self.grid.length / (2.0 * np.pi)

    def ramp_is_periodic(self, tol: float = RAMP_PERIOD_TOL) -> bool:
        w = self.ramp_windings()
        return bool(np.all(np.abs(w - np.rint(w)) <= tol))


@dataclass(frozen=True)
class TransformedSpec:
    """Coefficient tables of the purely real transformed nonlinearity: R_k
    has the W_k form of ``CoefficientTables`` with const = const_shift,
    the given cubic, drift_self, drift_cross and quartic, and a = c = D = 0.
    """

    drift_self: np.ndarray
    drift_cross: np.ndarray
    cubic: np.ndarray
    quartic: np.ndarray
    const_shift: np.ndarray
    tables: CoefficientTables = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ds = np.atleast_2d(np.asarray(self.drift_self, dtype=float))
        q = ds.shape[0]
        const = np.atleast_1d(np.asarray(self.const_shift, dtype=float))
        for name, value, shape in (
            ("drift_self", ds, (q, q)),
            ("drift_cross", self.drift_cross, (q, q)),
            ("cubic", self.cubic, (q, q)),
            ("quartic", self.quartic, (q, q, q)),
            ("const_shift", const, (q,)),
        ):
            object.__setattr__(self, name, _as_array(name, value, shape))
        tables = CoefficientTables.of(
            q, const=self.const_shift, cubic=self.cubic, drift_self=self.drift_self,
            drift_cross=self.drift_cross, quartic=self.quartic,
        )
        object.__setattr__(self, "tables", tables)

    @property
    def q(self) -> int:
        return self.drift_self.shape[0]

    @classmethod
    def zeros(cls, q: int) -> "TransformedSpec":
        return cls(
            drift_self=np.zeros((q, q)),
            drift_cross=np.zeros((q, q)),
            cubic=np.zeros((q, q)),
            quartic=np.zeros((q, q, q)),
            const_shift=np.zeros(q),
        )


def compute_generator(
    spec: FamilySpec,
    h: HydroFields,
    A: DispersionMatrix,
    anchor: int = 0,
) -> GaugeGenerator:
    """Integrate dsigma/dx = (c + D rho)/A from the anchor node.

    Drift-cubic specs yield a pure ramp -delta_k/(2 A_k); derivative specs
    yield sigma_k = (1/A_k) sum_j delta_kj * antiderivative(rho_j). The
    integrand has no 1/rho, so density zeros need no special treatment.
    """
    if A.q != h.q:
        raise ValueError(f"dispersion size {A.q} does not match fields q={h.q}")
    if spec.q != h.q:
        raise ValueError(f"spec species count {spec.q} does not match fields q={h.q}")
    integrand = np.broadcast_to(
        eval_flux_rate(spec.tables, h.rho) / A.values[:, None], h.rho.shape
    )
    sigma, ramp = antiderivative_parts(integrand, h.grid, anchor)
    return GaugeGenerator(
        sigma=sigma, ramp=ramp, anchor=anchor, grid=h.grid, spec=spec, A=A
    )


def _multiply_phase(
    fields: ComplexFieldSet, gen: GaugeGenerator, sign: float
) -> ComplexFieldSet:
    """exp(sign i sigma) times the fields; a non-integer winding toggles the flag."""
    if fields.q != gen.q or fields.grid.n_points != gen.grid.n_points:
        raise ValueError(
            f"field shape ({fields.q}, {fields.grid.n_points}) does not match "
            f"generator shape ({gen.q}, {gen.grid.n_points})"
        )
    flagged = not gen.ramp_is_periodic()
    return ComplexFieldSet(
        data=np.exp(sign * 1j * gen.values()) * fields.data,
        grid=fields.grid,
        non_periodic_ramp=flagged != fields.non_periodic_ramp,
    )


def apply_gauge(psi: ComplexFieldSet, gen: GaugeGenerator) -> ComplexFieldSet:
    """phi_k = exp(i sigma_k) psi_k; densities are preserved pointwise.

    When the ramp winding is not an integer the result is flagged
    ``non_periodic_ramp`` (and a warning is issued): the samples remain
    exact but the underlying function is not grid-periodic, so spectral
    evolution of the result is refused downstream.
    """
    phi = _multiply_phase(psi, gen, 1.0)
    if not gen.ramp_is_periodic():
        warnings.warn(
            "gauge ramp winding is not an integer; transformed field is not "
            "grid-periodic",
            stacklevel=2,
        )
    return phi


def invert_gauge(phi: ComplexFieldSet, gen: GaugeGenerator) -> ComplexFieldSet:
    """Inverse map psi_k = exp(-i sigma_k) phi_k (unitary inverse)."""
    return _multiply_phase(phi, gen, -1.0)


def phase_relation_residual(
    h_psi: HydroFields, h_phi: HydroFields, gen: GaugeGenerator
) -> np.ndarray:
    """sup_x distance(S_phi - S_psi - sigma, 2*pi*Z) per species.

    Vanishes exactly when the transformed phase relation S_phi = S_psi +
    sigma holds modulo a global 2*pi branch.
    """
    if h_psi.q != h_phi.q or h_psi.q != gen.q:
        raise ValueError("species counts of the two states and generator differ")
    mismatch = h_phi.S - h_psi.S - gen.values()
    return np.abs(_wrap_to_pi(mismatch)).max(axis=-1)


def cole_hopf_G(
    psi: ComplexFieldSet, spec: FamilySpec, A: DispersionMatrix
) -> np.ndarray:
    """Generalized Cole-Hopf functional G_k = dlog(psi_k)/dx + i F_k/(A_k rho_k),
    with F_k/(A_k rho_k) = (c_k + sum_j D_kj rho_j)/A_k.

    The gauge image phi satisfies dlog(phi_k)/dx = G_k, which reduces to the
    classical Cole-Hopf map when G is prescribed as the field itself.
    """
    h = to_hydro(psi)
    if h.vacuum.any():
        raise VacuumError("G is undefined at vacuum nodes")
    dlog = derivative(psi.data, psi.grid) / psi.data
    return dlog + 1j * eval_flux_rate(spec.tables, h.rho) / A.values[:, None]


@dataclass(frozen=True)
class Grid2D:
    """Uniform 2-D grid descriptor for the curl feasibility check."""

    nx: int
    ny: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if self.nx < 4 or self.ny < 4:
            raise ValueError("need at least 4 nodes per direction")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("domain endpoints out of order")

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx, endpoint=False)

    @cached_property
    def y(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny, endpoint=False)


def curl_residual_2d(
    Fx: np.ndarray, Fy: np.ndarray, rho: np.ndarray, grid2: Grid2D
) -> float:
    """sup |d(Fy/rho)/dx - d(Fx/rho)/dy| over the 2-D grid.

    A vanishing residual is the feasibility condition for a single-valued
    generator in two dimensions. Differentiation uses second-order centered
    differences (exact for the affine fields of interest), so the inputs
    need not be periodic.
    """
    Fx = np.asarray(Fx, dtype=float)
    Fy = np.asarray(Fy, dtype=float)
    rho = np.asarray(rho, dtype=float)
    shape = (grid2.nx, grid2.ny)
    for name, arr in (("Fx", Fx), ("Fy", Fy), ("rho", rho)):
        if arr.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    vx = Fx / rho
    vy = Fy / rho
    dvy_dx = np.gradient(vy, grid2.x, axis=0, edge_order=2)
    dvx_dy = np.gradient(vx, grid2.y, axis=1, edge_order=2)
    return float(np.abs(dvy_dx - dvx_dy).max())


def transformed_spec(spec: FamilySpec, A: DispersionMatrix) -> TransformedSpec:
    """Transformed coefficient tables of any spec, from its lowered tables.

    With u_k = (c_k + sum_i D_ki rho_i)/A_k, expanding
    R = W(dS_phi - u) - A u^2 + J u/rho + dsigma/dt gives

        const'_k      = const_k - (a_k c_k + c_k^2)/A_k
        cubic'_kj     = cubic_kj - (a_k + 2 c_k) D_kj/A_k
                        - drift_self_kj c_k/A_k - drift_cross_kj c_j/A_j
        drift_self'   = drift_self + 2 D
        drift_cross'_kj = drift_cross_kj - 2 D_kj A_j/A_k
        quartic'_kji  = quartic_kji - D_kj (drift_self_ki + D_ki)/A_k
                        - drift_cross_kj D_ji/A_j

    and a linear drift a' = a + 2c, which vanishes for every spec type
    (drift-cubic has a = delta, c = -delta/2; the others a = c = 0).
    """
    t = spec.tables
    if A.q != t.q:
        raise ValueError(f"dispersion size {A.q} does not match spec q={t.q}")
    Ak = A.values
    c_over_A = t.c / Ak
    return TransformedSpec(
        drift_self=t.drift_self + 2.0 * t.D,
        drift_cross=t.drift_cross - 2.0 * t.D * (Ak[None, :] / Ak[:, None]),
        cubic=t.cubic
        - ((t.a + 2.0 * t.c) / Ak)[:, None] * t.D
        - t.drift_self * c_over_A[:, None]
        - t.drift_cross * c_over_A[None, :],
        quartic=t.quartic
        - (
            t.D[:, :, None] * (t.D[:, None, :] + t.drift_self[:, None, :])
            / Ak[:, None, None]
            + t.drift_cross[:, :, None] * t.D[None, :, :] / Ak[None, :, None]
        ),
        const_shift=t.const - (t.a * t.c + t.c**2) / Ak,
    )


transformed_spec_drift = transformed_spec
transformed_spec_derivative = transformed_spec


def transformed_spec_linear(spec: LinearSpec) -> TransformedSpec:
    """Transformed coefficients of the trivial linear system (all zero)."""
    return TransformedSpec.zeros(spec.q)


def eval_transformed(tspec: TransformedSpec, h: HydroFields) -> np.ndarray:
    """Evaluate R_k on the transformed system's hydrodynamic fields."""
    if tspec.q != h.q:
        raise ValueError(f"spec species count {tspec.q} does not match fields q={h.q}")
    return eval_W_parts(tspec.tables, h.rho, phase_gradient(h))


def eval_R_numeric(
    spec: FamilySpec,
    h_phi: HydroFields,
    gen: GaugeGenerator,
    A: DispersionMatrix,
    J: np.ndarray,
) -> np.ndarray:
    """Direct evaluation of the transformed nonlinearity.

    R_k = W_k - A_k (dsigma_k/dx)^2 + J_k dsigma_k/dx / rho_k + dsigma_k/dt,

    with W_k evaluated on the pre-transform phase gradient dS = dS_phi -
    dsigma/dx and J the transformed-system currents. The c part of the
    generator is time-independent; its D part follows from the continuity
    equations,

        dsigma_k/dt = -(1/A_k) sum_j D_kj (j_j(x) - j_j(anchor)),

    whose anchor term is a spatially constant (time-dependent) global
    phase. Agreement with ``eval_transformed`` therefore holds up to a
    spatial constant per species.
    """
    if not (spec.q == h_phi.q == gen.q == A.q):
        raise ValueError("species counts of spec, fields, generator and A differ")
    J = np.asarray(J, dtype=float)
    if J.shape != h_phi.rho.shape:
        raise ValueError(f"J must have shape {h_phi.rho.shape}, got {J.shape}")
    if h_phi.vacuum.any():
        raise VacuumError("R is undefined at vacuum nodes")
    rho = h_phi.rho
    Ak = A.values[:, None]
    dsigma = gen.gradient()
    dS_psi = phase_gradient(h_phi) - dsigma
    R = eval_W_parts(spec.tables, rho, dS_psi) - Ak * dsigma**2 + J * dsigma / rho
    current = 2.0 * (Ak * rho * dS_psi + eval_F_parts(spec.tables, rho))
    rel = current - current[:, gen.anchor, None]
    R -= (spec.tables.D @ rel) / Ak
    return R
