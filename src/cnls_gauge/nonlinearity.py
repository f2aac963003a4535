"""Coefficient families defining the complex nonlinearity W + i*Wim.

Every spec type lowers, at construction, to one coefficient-table form
(``CoefficientTables``):

    W_k   = const_k + a_k dS_k/dx + sum_j cubic_kj rho_j
            + sum_j rho_j (drift_self_kj dS_k/dx + drift_cross_kj dS_j/dx)
            + sum_{j,i} quartic_kji rho_j rho_i
    Wim_k = (1/rho_k) dF_k/dx,   F_k = rho_k (c_k + sum_j D_kj rho_j)

with the linear drift pair stored once, as c, and a = -2c. The divergence
form of Wim conserves the species norms and makes the gauge reduction
possible. Besides the linear case (all tables zero), two families are
supported: ``DriftCubicSpec`` (per-species drift delta_k and cubic
gamma_k) lowers to c = -delta/2 (so a = delta) and cubic_kj = -2 gamma_j
off the diagonal, -gamma_k on it; ``DerivativeSpec`` (q x q beta, gamma,
delta and q x q x q lambda) lowers to (drift_self, drift_cross, quartic,
D) = (beta, gamma, lambda, delta). The evaluators read only the tables
and skip every all-zero one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Union

import numpy as np

from .fields import HydroFields, VacuumError, phase_gradient
from .grid import derivative

__all__ = [
    "CoefficientTables",
    "LinearSpec",
    "DriftCubicSpec",
    "DerivativeSpec",
    "FamilySpec",
    "eval_W",
    "eval_Wim",
    "eval_F",
    "eval_W_parts",
    "eval_Wim_parts",
    "eval_F_parts",
    "eval_flux_rate",
]


_RANKS = {"const": 1, "cubic": 2, "drift_self": 2, "drift_cross": 2,
          "quartic": 3, "c": 1, "D": 2}


@dataclass(frozen=True)
class CoefficientTables:
    """The one coefficient form W_k, F_k that every spec type lowers to:
    seven tables, from const to D.

    The linear drift pair is stored once, as c; its W coefficient
    ``a = -2c`` is derived at construction (doubling is exact). The two
    terms the pair adds to i (W_k + i Wim_k) u_k, i a_k (dS_k/dx) u_k and
    -c_k (drho_k/dx / rho_k) u_k, sum to the drift a_k u_k' of the field.

    ``nonzero`` names the tables holding a nonzero entry, ``has_flux`` is
    whether Wim can be nonzero (c or D nonzero), ``uses_phase`` whether
    the array kernel of W reads the phase gradients (drift_self or
    drift_cross nonzero), and ``density_only`` whether some table is
    nonzero and every nonzero one is const, cubic, quartic or the drift
    pair c, so that the array kernels' W reads rho alone and their Wim is
    zero (they leave the pair out: it is the linear drift a_k u_k' of the
    field, not a function of rho); ``D_diag`` and ``D_off`` split D into
    its diagonal and the rest. All are fixed at construction.
    """

    const: np.ndarray  # (q,)
    cubic: np.ndarray  # (q, q)
    drift_self: np.ndarray  # (q, q)
    drift_cross: np.ndarray  # (q, q)
    quartic: np.ndarray  # (q, q, q)
    c: np.ndarray  # (q,)
    D: np.ndarray  # (q, q)
    nonzero: frozenset = field(init=False, repr=False, compare=False)
    has_flux: bool = field(init=False, repr=False, compare=False)
    uses_phase: bool = field(init=False, repr=False, compare=False)
    density_only: bool = field(init=False, repr=False, compare=False)
    a: np.ndarray = field(init=False, repr=False, compare=False)  # (q,)
    D_diag: np.ndarray = field(init=False, repr=False, compare=False)  # (q,)
    D_off: np.ndarray = field(init=False, repr=False, compare=False)  # (q, q)

    def __post_init__(self) -> None:
        nonzero = frozenset(n for n in _RANKS if np.count_nonzero(getattr(self, n)))
        object.__setattr__(self, "nonzero", nonzero)
        object.__setattr__(self, "has_flux", bool(nonzero & {"c", "D"}))
        object.__setattr__(self, "uses_phase", bool(nonzero & {"drift_self", "drift_cross"}))
        object.__setattr__(
            self, "density_only",
            bool(nonzero) and nonzero <= {"const", "cubic", "quartic", "c"},
        )
        object.__setattr__(self, "a", -2.0 * self.c)
        diag = np.diag(self.D)
        object.__setattr__(self, "D_diag", diag)
        object.__setattr__(self, "D_off", self.D - np.diag(diag))

    @classmethod
    def of(cls, q: int, **tables: np.ndarray) -> "CoefficientTables":
        """Tables for q species; every table not given is zero, and a name
        that is not a table raises a TypeError naming it."""
        missing = {name: np.zeros((q,) * rank)
                   for name, rank in _RANKS.items() if name not in tables}
        return cls(**tables, **missing)

    @property
    def q(self) -> int:
        return self.const.shape[0]


@dataclass(frozen=True)
class LinearSpec:
    """All-zero nonlinearity (free Schrodinger system)."""

    TABLES: ClassVar[dict[str, int]] = {}

    q: int = 1
    tables: CoefficientTables = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if int(self.q) < 1:
            raise ValueError("q must be >= 1")
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "tables", CoefficientTables.of(self.q))


@dataclass(frozen=True)
class _TableSpec:
    """Base of the spec types given by coefficient tables. ``TABLES`` maps
    each table's name to its rank; construction stores each table, in field
    order, as a finite float array of shape (q,) * rank, q >= 1 being the
    leading size of the first field (a table with fewer axes gets leading
    axes of length 1, so q = 1 tables may be scalars); then ``_lower(q)``
    gives ``tables``."""

    TABLES: ClassVar[dict[str, int]]
    tables: CoefficientTables = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = None
        for name in (f.name for f in fields(self) if f.init):
            rank = self.TABLES[name]
            arr = np.asarray(getattr(self, name), dtype=float)
            given = arr.shape
            if arr.ndim < rank:
                arr = arr.reshape((1,) * (rank - arr.ndim) + given)
            if q is None:
                q = arr.shape[0]
                if q < 1:
                    raise ValueError(f"{name} must hold q >= 1 species, got shape {given}")
            shape = (q,) * rank
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {given}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must contain finite entries")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "tables", self._lower(q))

    @property
    def q(self) -> int:
        return self.tables.q


@dataclass(frozen=True)
class DriftCubicSpec(_TableSpec):
    """Drift-cubic family: per-species drift delta_k and cubic gamma_k."""

    TABLES: ClassVar[dict[str, int]] = {"delta": 1, "gamma": 1}

    delta: np.ndarray
    gamma: np.ndarray

    def _lower(self, q: int) -> CoefficientTables:
        cubic = np.diag(self.gamma) - 2.0 * self.gamma
        return CoefficientTables.of(q, cubic=cubic, c=-0.5 * self.delta)


@dataclass(frozen=True)
class DerivativeSpec(_TableSpec):
    """Derivative family: q x q couplings beta, gamma, delta and cubic tensor lam."""

    TABLES: ClassVar[dict[str, int]] = {"beta": 2, "gamma": 2, "delta": 2, "lam": 3}

    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    lam: np.ndarray

    def _lower(self, q: int) -> CoefficientTables:
        return CoefficientTables.of(
            q, drift_self=self.beta, drift_cross=self.gamma, quartic=self.lam, D=self.delta
        )


FamilySpec = Union[LinearSpec, DriftCubicSpec, DerivativeSpec]


def _check_spec_fields(spec: FamilySpec, q: int) -> None:
    if spec.q != q:
        raise ValueError(f"spec species count {spec.q} does not match fields q={q}")


def eval_W_parts(
    tables: CoefficientTables, rho: np.ndarray, dS: np.ndarray | None
) -> np.ndarray:
    """Real part W_k (or R_k of transformed tables) less the drift a_k
    dS_k/dx, from density and phase-gradient samples; ``dS`` is read only
    when ``tables.uses_phase``. Each term is freed before the next, and the
    drift_self product is formed in place, so at most two (q, n)
    temporaries exist besides W."""
    on = tables.nonzero
    W = np.empty(rho.shape)
    W[:] = tables.const[:, None]
    if "cubic" in on:
        W += tables.cubic @ rho
    if "drift_self" in on:
        term = tables.drift_self @ rho
        term *= dS
        W += term
        del term
    if "drift_cross" in on:
        W += tables.drift_cross @ (rho * dS)
    if "quartic" in on:
        W += np.einsum("kji,jx,ix->kx", tables.quartic, rho, rho)
    return W


def eval_flux_rate(tables: CoefficientTables, rho: np.ndarray) -> np.ndarray:
    """c_k + sum_j D_kj rho_j, broadcastable against rho; F_k = rho_k times it.
    With D nonzero it is a fresh array, the sum formed in the product."""
    if "D" not in tables.nonzero:
        return tables.c[:, None]
    rate = tables.D @ rho
    rate += tables.c[:, None]
    return rate


def eval_Wim_parts(
    tables: CoefficientTables, rho: np.ndarray, drho: np.ndarray | None
) -> np.ndarray:
    """The D part (1/rho_k) d(rho_k sum_j D_kj rho_j)/dx of Wim_k, without
    the drift c_k drho_k/dx / rho_k, from density samples and gradients;
    ``drho`` is read only when D is nonzero. The diagonal of D enters as
    2 D_kk drho_k/dx, not via rho_k drho_k/dx / rho_k (one rounding less).
    Each sum and product is taken in place, in the order of the expression
    2 D_kk drho_k + (D_off drho)_k + (D_off rho)_k drho_k / rho_k.
    """
    if "D" not in tables.nonzero:
        return np.zeros_like(rho)
    Wim = 2.0 * tables.D_diag[:, None] * drho
    Wim += tables.D_off @ drho
    rate = tables.D_off @ rho
    rate *= drho
    rate /= rho
    Wim += rate
    return Wim


def eval_F_parts(tables: CoefficientTables, rho: np.ndarray) -> np.ndarray:
    """Closed-form flux F_k = rho_k (c_k + sum_j D_kj rho_j)."""
    return rho * eval_flux_rate(tables, rho)


def eval_W(spec, h: HydroFields) -> np.ndarray:
    """Real nonlinearity W_k of a family spec, or R_k of a
    ``TransformedSpec``, evaluated on hydrodynamic fields."""
    _check_spec_fields(spec, h.q)
    tables, dS = spec.tables, phase_gradient(h)
    W = eval_W_parts(tables, h.rho, dS)
    if "c" in tables.nonzero:
        W += tables.a[:, None] * dS
    return W


def eval_Wim(spec: FamilySpec, h: HydroFields) -> np.ndarray:
    """Imaginary nonlinearity Wim_k evaluated on hydrodynamic fields."""
    _check_spec_fields(spec, h.q)
    if spec.tables.has_flux and h.vacuum.any():
        raise VacuumError(
            "density below floor where the nonlinearity divides by rho"
        )
    tables, drho = spec.tables, derivative(h.rho, h.grid)
    Wim = eval_Wim_parts(tables, h.rho, drho)
    if "c" in tables.nonzero:
        Wim += tables.c[:, None] * drho / h.rho
    return Wim


def eval_F(spec: FamilySpec, h: HydroFields) -> np.ndarray:
    """Flux fields F_k; satisfies (1/rho_k) dF_k/dx == eval_Wim to resolution."""
    _check_spec_fields(spec, h.q)
    return eval_F_parts(spec.tables, h.rho)
