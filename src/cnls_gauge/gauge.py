"""Gauge reduction of complex nonlinearities to real ones.

The diagonal unitary map phi_k = exp(i sigma_k) psi_k removes the imaginary
part of the nonlinearity when the real generator satisfies

    dsigma_k/dx = F_k / (A_k rho_k) = u_k = (c_k + sum_i D_ki rho_i) / A_k,

with F_k = rho_k (c_k + sum_i D_ki rho_i) the flux of the imaginary part in
the coefficient-table form of ``nonlinearity``. The transformed system
carries a purely real nonlinearity

    R_k = W_k - A_k (dsigma_k/dx)^2 + J_k dsigma_k/dx / rho_k + dsigma_k/dt,

which, for every spec type, is again of the table form with c = D = 0
(``TransformedSpec``); ``transformed_spec`` is the one formula for its
tables. This module builds generators, applies and inverts the map,
evaluates R both ways, and checks the 2-D curl feasibility condition for
vector fluxes. Generators and the phase relation's residuals read the
complex fields, with no phase extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import ClassVar

import numpy as np

from .fields import (
    DEFAULT_FLOOR,
    ComplexFieldSet,
    DispersionMatrix,
    HydroFields,
    VacuumError,
    phase_gradient,
    to_hydro,
)
from .grid import Grid1D, antiderivative_parts, derivative
from .nonlinearity import (
    CoefficientTables,
    FamilySpec,
    eval_F_parts,
    eval_flux_rate,
    eval_W_parts,
    _TableSpec,
)

__all__ = [
    "GaugeGenerator",
    "TransformedSpec",
    "Grid2D",
    "compute_generator",
    "apply_gauge",
    "invert_gauge",
    "phase_residuals",
    "phase_relation_residual",
    "cole_hopf_G",
    "curl_residual_2d",
    "transformed_spec",
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
        # the ramp term first, then sigma added in place: the sum has the
        # bytes of sigma + ramp term and no second (q, n) temporary
        values = self.ramp[:, None] * (self.grid.x - self.x_anchor)
        values += self.sigma
        return values

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
class TransformedSpec(_TableSpec):
    """Coefficient tables of the purely real transformed nonlinearity: R_k
    has the W_k form of ``CoefficientTables`` with const = const_shift,
    the given cubic, drift_self, drift_cross and quartic, and c = D = 0.
    ``TABLES`` is in the row order of ``transformed_coefficients.csv``.
    """

    TABLES: ClassVar[dict[str, int]] = {
        "const_shift": 1, "cubic": 2, "drift_self": 2, "drift_cross": 2, "quartic": 3,
    }

    drift_self: np.ndarray
    drift_cross: np.ndarray
    cubic: np.ndarray
    quartic: np.ndarray
    const_shift: np.ndarray

    def _lower(self, q: int) -> CoefficientTables:
        return CoefficientTables.of(
            q, const=self.const_shift, cubic=self.cubic, drift_self=self.drift_self,
            drift_cross=self.drift_cross, quartic=self.quartic,
        )


def compute_generator(
    spec: FamilySpec,
    fields: ComplexFieldSet | HydroFields,
    A: DispersionMatrix,
    anchor: int = 0,
) -> GaugeGenerator:
    """Integrate dsigma/dx = (c + D rho)/A from the anchor node, rho =
    ``fields.rho``: drift-cubic specs yield a pure ramp -delta_k/(2 A_k),
    derivative specs sigma_k = (1/A_k) sum_j delta_kj antiderivative(rho_j).
    The integrand has no 1/rho, so density zeros need no special
    treatment; an identically zero species has no phase (a VacuumError).
    """
    rho, q = fields.rho, fields.q
    if A.q != q:
        raise ValueError(f"dispersion size {A.q} does not match fields q={q}")
    if spec.q != q:
        raise ValueError(f"spec species count {spec.q} does not match fields q={q}")
    for k, occupied in enumerate(rho.any(axis=-1).tolist()):
        if not occupied:
            raise VacuumError(f"species {k + 1} is identically zero (all-vacuum)")
    return _generator(spec.tables, rho, A, fields.grid, anchor)


def _generator(
    tables: CoefficientTables,
    rho: np.ndarray,
    A: DispersionMatrix,
    grid: Grid1D,
    anchor: int = 0,
) -> GaugeGenerator:
    # compute_generator without its checks, for a march's own fields; a
    # caller that keeps no reference of its own frees rho before the FFT
    rate, shape = eval_flux_rate(tables, rho), rho.shape
    del rho
    if rate.shape == shape:  # a fresh array (D nonzero): divided in place
        rate /= A.values[:, None]
    else:
        rate = np.broadcast_to(rate / A.values[:, None], shape)
    sigma, ramp = antiderivative_parts(rate, grid, anchor)
    return GaugeGenerator(sigma=sigma, ramp=ramp, anchor=anchor, grid=grid)


def _rotated(phase: np.ndarray, data: np.ndarray) -> np.ndarray:
    """exp(i phase) * data, with exp(i phase) formed as cos + i sin in one
    complex buffer that then takes the product: the bytes of
    ``np.exp(1j * phase) * data`` with no complex cast of the phase."""
    out = np.empty(data.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    np.multiply(out, data, out=out)
    return out


def _multiply_phase(
    fields: ComplexFieldSet, gen: GaugeGenerator, sign: float
) -> ComplexFieldSet:
    """exp(sign i sigma) times the fields; a ramp winding w that is not an
    integer leaves ramp - 2 pi rint(w)/L in kappa, so the data stays periodic.
    """
    if fields.q != gen.q or fields.grid.n_points != gen.grid.n_points:
        raise ValueError(
            f"field shape ({fields.q}, {fields.grid.n_points}) does not match "
            f"generator shape ({gen.q}, {gen.grid.n_points})"
        )
    phase, kappa, w = gen.values(), fields.kappa, gen.ramp_windings()
    shift = gen.ramp - 2.0 * np.pi * np.rint(w) / gen.grid.length
    shift[np.abs(w - np.rint(w)) <= RAMP_PERIOD_TOL] = 0.0
    if shift.any():
        phase -= shift[:, None] * (gen.grid.x - gen.grid.x_min)
        kappa = kappa + sign * shift
    if sign < 0:
        np.negative(phase, out=phase)
    return ComplexFieldSet(data=_rotated(phase, fields.data), grid=fields.grid, kappa=kappa)


def apply_gauge(psi: ComplexFieldSet, gen: GaugeGenerator) -> ComplexFieldSet:
    """phi_k = exp(i sigma_k) psi_k; densities are preserved pointwise."""
    return _multiply_phase(psi, gen, 1.0)


def invert_gauge(phi: ComplexFieldSet, gen: GaugeGenerator) -> ComplexFieldSet:
    """Inverse map psi_k = exp(-i sigma_k) phi_k (unitary inverse)."""
    return _multiply_phase(phi, gen, -1.0)


def _anchor_row(grid: Grid1D) -> np.ndarray:
    """The w with w . u = u'(x_0) for samples u: the first row of the
    spectral derivative (Nyquist mode zeroed, as ``derivative`` has it), in
    closed form w_j = (pi/L) (-1)^(j+1) cot(pi j/n), odd in j mod n, so
    w_0 = w_(n/2) = 0. cot is taken below pi/2 only, where the rounding of
    its argument stays small."""
    n, half = grid.n_points, grid.n_points // 2
    w = np.zeros(n)
    np.divide(np.pi / grid.length, np.tan(np.arange(1, half) * (np.pi / n)), out=w[1:half])
    w[2:half:2] *= -1.0
    w[half + 1:] = -w[half - 1:0:-1]
    return w


class _Readback:
    """psi from a march of its gauge image phi, which ``simulate`` takes
    for a psi whose D is nonzero (``of``): the transformed system's stage
    has no flux rows, no phase extraction and no Wim.

    phi = exp(i sigma) psi (``gauge``) marches with the transformed
    tables, whose R omits the spatially constant part of dsigma/dt (see
    ``eval_R_numeric``): the anchor term f_k = (1/A_k) sum_j D_kj
    J_j(x_anchor), J the current of phi (equal to psi's). So a sampled
    phi gives psi = exp(i theta) invert_gauge(phi, sigma[rho(phi)])
    (``psi``), theta_k(t) the integral of f_k from 0 to t, with the kappa
    of the initial psi. ``add``, evolve's per-step hook, reads f at the
    anchor node 0 of each stepped state with one dot product for phi'
    there, with no FFT; ``theta`` is Gregory's end-corrected trapezoid
    rule over those values, fourth order in dt.
    """

    def __init__(
        self, spec: FamilySpec, A: DispersionMatrix, dt: float, kappa: np.ndarray
    ):
        # ``spec`` is the system phi marches with; a ValueError where the
        # transformed tables are not finite
        self.spec = transformed_spec(spec, A)
        self._tables, self._A, self._dt, self._kappa = spec.tables, A, dt, kappa
        Ak = A.values
        # f = rate @ (Im(conj(phi) phi') + kappa rho) at the anchor
        self._rate = spec.tables.D * (2.0 * Ak[None, :]) / Ak[:, None]
        self._row: np.ndarray | None = None  # _anchor_row, at the first add
        self._head: list[np.ndarray] = []  # f_0, f_1, f_2
        self._tail: list[np.ndarray] = []  # the last three f, oldest first
        self._sum = np.zeros(A.q)

    @classmethod
    def of(
        cls, spec: FamilySpec, A: DispersionMatrix, psi: ComplexFieldSet, dt: float
    ) -> "_Readback | None":
        """The readback of a phi march that stands in for psi's, or None
        where psi marches itself: where D is zero (drift-cubic and linear
        psi), where the transformed tables are not finite (they divide by
        A), and where they are ``density_only``, since the split step
        merges the steps between samples and leaves no per-step f."""
        if "D" not in spec.tables.nonzero:
            return None
        with np.errstate(all="ignore"):
            try:
                readback = cls(spec, A, dt, psi.kappa)
            except ValueError:
                return None
        return None if readback.spec.tables.density_only else readback

    def gauge(self, psi: ComplexFieldSet) -> ComplexFieldSet:
        """phi = apply_gauge(psi, compute_generator(psi)), unchecked."""
        gen = _generator(self._tables, psi.rho, self._A, psi.grid)
        return apply_gauge(psi, gen)

    def add(self, state) -> None:
        """Take f of a phi state, the march's initial state first and then
        the state after each step."""
        if self._row is None:
            self._row = _anchor_row(state.fields.grid)
        u = np.ascontiguousarray(state.fields.data)
        # w . Re u and w . Im u in one product over the (re, im) pairs
        du0 = self._row @ u.view(float).reshape(*u.shape, 2)
        u0 = u[:, 0]
        momentum = u0.real * du0[:, 1] - u0.imag * du0[:, 0]
        momentum += state.fields.kappa * (u0.real**2 + u0.imag**2)
        f = self._rate @ momentum
        if len(self._head) < 3:
            self._head.append(f)
        self._tail = [*self._tail[-2:], f]
        self._sum += f

    def theta(self) -> np.ndarray:
        """theta at the last added state: h (sum f - (f_0 + f_s)/2) less
        (h^2/12) (f'(t_s) - f'(0)), f' one-sided three-point differences;
        the trapezoid rule alone after one step, 0 before any."""
        head, tail = self._head, self._tail
        if len(head) < 2:
            return np.zeros_like(self._sum)
        total = self._sum - 0.5 * (head[0] + tail[-1])
        if len(head) == 3:
            end = 3.0 * tail[2] - 4.0 * tail[1] + tail[0]
            start = -3.0 * head[0] + 4.0 * head[1] - head[2]
            total -= (end - start) / 24.0
        return self._dt * total

    def psi(self, phi: ComplexFieldSet) -> ComplexFieldSet:
        """psi = exp(i theta) invert_gauge(phi, sigma[rho(phi)]) at the last
        added state, with the initial psi's kappa: phi's kappa less that
        one is the ramp shift the gauge of the initial psi took."""
        phase = _generator(self._tables, phi.rho, self._A, phi.grid).values()
        shift = phi.kappa - self._kappa
        if shift.any():
            phase -= shift[:, None] * (phi.grid.x - phi.grid.x_min)
        phase -= self.theta()[:, None]
        np.negative(phase, out=phase)
        return ComplexFieldSet(_rotated(phase, phi.data), phi.grid, self._kappa)


def phase_residuals(
    psi: ComplexFieldSet, phi: ComplexFieldSet, gen: GaugeGenerator
) -> tuple[np.ndarray, np.ndarray]:
    """The phase relation's residual per species, without and with its
    global phase, from one product z_k = exp(-i sigma_k) phi_k conj(psi_k),
    whose argument is S_phi - S_psi - sigma modulo 2 pi:

        sup_x |arg z_k|  and  sup_x |arg(z_k conj(z_k(x_ref)))|,

    x_ref the node where |z_k| = (rho_psi rho_phi)^(1/2) peaks. Nodes where
    either density is below DEFAULT_FLOOR times its peak are skipped (their
    phase is not measured), so an all-zero species reads 0. The
    global phase theta_k(t) that a march of phi leaves out (the anchor term
    of dsigma/dt, see ``eval_R_numeric``) cancels from the second.
    """
    if psi.q != phi.q or psi.q != gen.q:
        raise ValueError("species counts of the two states and generator differ")
    w, u = _rotated(-gen.values(), phi.samples()), psi.samples()
    # real products: a fused complex product can leave Im z != 0 where w = u
    z = np.empty_like(w)
    z.real = u.real * w.real + u.imag * w.imag
    z.imag = u.real * w.imag - u.imag * w.real
    for rho in (psi.rho, phi.rho):
        z[rho < DEFAULT_FLOOR * rho.max(axis=-1, keepdims=True)] = 0.0
    residual = np.abs(np.angle(z)).max(axis=-1)
    z *= np.conj(z[np.arange(psi.q), np.abs(z).argmax(axis=-1)])[:, None]
    return residual, np.abs(np.angle(z)).max(axis=-1)


def phase_relation_residual(
    psi: ComplexFieldSet, phi: ComplexFieldSet, gen: GaugeGenerator
) -> np.ndarray:
    """sup_x |arg(exp(-i sigma_k) phi_k conj(psi_k))| per species, the first
    of ``phase_residuals``: 0 exactly when S_phi = S_psi + sigma modulo 2 pi
    at every node where both phases are measured."""
    return phase_residuals(psi, phi, gen)[0]


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
    dlog = derivative(psi.data, psi.grid) / psi.data + 1j * psi.kappa[:, None]
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


# An entry of a transformed table below this many eps of the largest term
# that formed it is the rounding residue of terms that cancel (the case
# builders' tables leave up to 2 eps) and is zeroed.
_RESIDUE_EPS = 8.0


def _cancelled(total: np.ndarray, *terms: np.ndarray) -> np.ndarray:
    """``total`` with each nonzero entry that lies below _RESIDUE_EPS eps of
    the largest magnitude among ``terms`` (broadcast against it) set to 0.
    A non-finite entry is kept: its terms are not all finite."""
    scale = reduce(np.maximum, [np.abs(term) for term in terms])
    limit = _RESIDUE_EPS * np.finfo(float).eps * scale
    total[(total != 0.0) & (np.abs(total) < limit)] = 0.0
    return total


def transformed_spec(spec: FamilySpec, A: DispersionMatrix) -> TransformedSpec:
    """Transformed coefficient tables of any spec, from its lowered tables.

    With u_k = (c_k + sum_i D_ki rho_i)/A_k, expanding
    R = W(dS_phi - u) - A u^2 + J u/rho + dsigma/dt gives

        const'_k      = const_k + c_k^2/A_k
        cubic'_kj     = cubic_kj - drift_self_kj c_k/A_k - drift_cross_kj c_j/A_j
        drift_self'   = drift_self + 2 D
        drift_cross'_kj = drift_cross_kj - 2 D_kj A_j/A_k
        quartic'_kji  = quartic_kji - D_kj (drift_self_ki + D_ki)/A_k
                        - drift_cross_kj D_ji/A_j

    since the tables' drift is a = -2c: the linear drift a + 2c of R and
    its cubic term -(a_k + 2 c_k) D_kj/A_k vanish, and the constant
    -(a_k c_k + c_k^2)/A_k is c_k^2/A_k.

    An entry below _RESIDUE_EPS eps of the largest of its terms is zeroed:
    where the terms cancel, as for the case builders, the tables are then
    exactly zero, so which tables are nonzero, and with them the
    integrator that ``solver.step`` picks, does not depend on rounding.
    """
    t = spec.tables
    if A.q != t.q:
        raise ValueError(f"dispersion size {A.q} does not match spec q={t.q}")
    Ak = A.values
    c_over_A = t.c / Ak
    twice_D = 2.0 * t.D
    cross_D = twice_D * (Ak[None, :] / Ak[:, None])
    self_c = t.drift_self * c_over_A[:, None]
    cross_c = t.drift_cross * c_over_A[None, :]
    self_DD = (
        t.D[:, :, None] * (t.D[:, None, :] + t.drift_self[:, None, :]) / Ak[:, None, None]
    )
    cross_DD = t.drift_cross[:, :, None] * t.D[None, :, :] / Ak[None, :, None]
    const_c = t.c**2 / Ak
    return TransformedSpec(
        drift_self=_cancelled(t.drift_self + twice_D, t.drift_self, twice_D),
        drift_cross=_cancelled(t.drift_cross - cross_D, t.drift_cross, cross_D),
        cubic=_cancelled(t.cubic - self_c - cross_c, t.cubic, self_c, cross_c),
        quartic=_cancelled(
            t.quartic - (self_DD + cross_DD), t.quartic, self_DD, cross_DD
        ),
        const_shift=_cancelled(t.const + const_c, t.const, const_c),
    )


def eval_R_numeric(
    spec: FamilySpec,
    h_phi: HydroFields,
    gen: GaugeGenerator,
    A: DispersionMatrix,
) -> np.ndarray:
    """Direct evaluation of the transformed nonlinearity.

    R_k = W_k - A_k (dsigma_k/dx)^2 + J_k dsigma_k/dx / rho_k + dsigma_k/dt,

    with W_k, its drift a_k dS_k/dx included, evaluated on the
    pre-transform phase gradient dS = dS_phi - dsigma/dx and J_k = 2 A_k
    rho_k dS_phi_k/dx the transformed-system currents. The c part of the generator is time-independent; its D part
    follows from the continuity equations,

        dsigma_k/dt = -(1/A_k) sum_j D_kj (j_j(x) - j_j(anchor)),

    whose anchor term is a spatially constant (time-dependent) global
    phase. Agreement with ``eval_W`` of the ``TransformedSpec`` therefore
    holds up to a spatial constant per species.
    """
    if not (spec.q == h_phi.q == gen.q == A.q):
        raise ValueError("species counts of spec, fields, generator and A differ")
    if h_phi.vacuum.any():
        raise VacuumError("R is undefined at vacuum nodes")
    rho = h_phi.rho
    Ak = A.values[:, None]
    dsigma = gen.gradient()
    dS_phi = phase_gradient(h_phi)
    J = 2.0 * Ak * rho * dS_phi
    dS_psi = dS_phi - dsigma
    t = spec.tables
    W = eval_W_parts(t, rho, dS_psi) + t.a[:, None] * dS_psi
    R = W - Ak * dsigma**2 + J * dsigma / rho
    current = 2.0 * (Ak * rho * dS_psi + eval_F_parts(t, rho))
    rel = current - current[:, gen.anchor, None]
    R -= (t.D @ rel) / Ak
    return R
