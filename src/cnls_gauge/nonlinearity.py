"""Coefficient families defining the complex nonlinearity W + i*Wim.

Every spec type lowers, at construction, to one coefficient-table form
(``CoefficientTables``):

    W_k   = const_k + a_k dS_k/dx + sum_j cubic_kj rho_j
            + sum_j rho_j (drift_self_kj dS_k/dx + drift_cross_kj dS_j/dx)
            + sum_{j,i} quartic_kji rho_j rho_i
    Wim_k = (1/rho_k) dF_k/dx,   F_k = rho_k (c_k + sum_j D_kj rho_j)

The divergence form of Wim conserves the species norms and makes the
gauge reduction possible. Besides the linear case (all tables zero), two
families are supported: ``DriftCubicSpec`` (per-species drift delta_k and
cubic gamma_k) lowers to a = delta, c = -delta/2 and cubic_kj = -2 gamma_j
off the diagonal, -gamma_k on it; ``DerivativeSpec`` (q x q beta, gamma,
delta and q x q x q lambda) lowers to (drift_self, drift_cross, quartic,
D) = (beta, gamma, lambda, delta). The evaluators read only the tables
and skip every all-zero one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .fields import (
    DispersionMatrix,
    HydroFields,
    VacuumError,
    density_gradient,
    phase_gradient,
)

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


def _as_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain finite entries")
    return arr


_RANKS = {"const": 1, "a": 1, "cubic": 2, "drift_self": 2, "drift_cross": 2,
          "quartic": 3, "c": 1, "D": 2}


@dataclass(frozen=True)
class CoefficientTables:
    """The one coefficient form W_k, F_k that every spec type lowers to.

    ``nonzero`` names the tables holding a nonzero entry, ``has_flux`` is
    whether Wim can be nonzero (c or D nonzero), and ``uses_phase`` whether
    W reads the phase gradients (a, drift_self or drift_cross nonzero);
    ``D_diag`` and ``D_off`` split D into its diagonal and the rest. All
    are fixed at construction.
    """

    const: np.ndarray  # (q,)
    a: np.ndarray  # (q,)
    cubic: np.ndarray  # (q, q)
    drift_self: np.ndarray  # (q, q)
    drift_cross: np.ndarray  # (q, q)
    quartic: np.ndarray  # (q, q, q)
    c: np.ndarray  # (q,)
    D: np.ndarray  # (q, q)
    nonzero: frozenset = field(init=False, repr=False, compare=False)
    has_flux: bool = field(init=False, repr=False, compare=False)
    uses_phase: bool = field(init=False, repr=False, compare=False)
    D_diag: np.ndarray = field(init=False, repr=False, compare=False)  # (q,)
    D_off: np.ndarray = field(init=False, repr=False, compare=False)  # (q, q)

    def __post_init__(self) -> None:
        nonzero = frozenset(n for n in _RANKS if np.count_nonzero(getattr(self, n)))
        object.__setattr__(self, "nonzero", nonzero)
        object.__setattr__(self, "has_flux", bool(nonzero & {"c", "D"}))
        object.__setattr__(
            self, "uses_phase", bool(nonzero & {"a", "drift_self", "drift_cross"})
        )
        diag = np.diag(self.D)
        object.__setattr__(self, "D_diag", diag)
        object.__setattr__(self, "D_off", self.D - np.diag(diag))

    @classmethod
    def of(cls, q: int, **tables: np.ndarray) -> "CoefficientTables":
        """Tables for q species; every table not given is zero."""
        return cls(**{name: tables.get(name, np.zeros((q,) * rank))
                      for name, rank in _RANKS.items()})

    @property
    def q(self) -> int:
        return self.const.shape[0]


@dataclass(frozen=True)
class LinearSpec:
    """All-zero nonlinearity (free Schrodinger system)."""

    q: int = 1
    tables: CoefficientTables = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if int(self.q) < 1:
            raise ValueError("q must be >= 1")
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "tables", CoefficientTables.of(self.q))


@dataclass(frozen=True)
class DriftCubicSpec:
    """Drift-cubic family: per-species drift delta_k and cubic gamma_k."""

    delta: np.ndarray
    gamma: np.ndarray
    tables: CoefficientTables = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        delta = np.atleast_1d(np.asarray(self.delta, dtype=float))
        q = delta.size
        object.__setattr__(self, "delta", _as_array("delta", delta, (q,)))
        object.__setattr__(self, "gamma", _as_array("gamma", self.gamma, (q,)))
        cubic = np.diag(self.gamma) - 2.0 * self.gamma
        object.__setattr__(
            self, "tables",
            CoefficientTables.of(q, a=self.delta, cubic=cubic, c=-0.5 * self.delta),
        )

    @property
    def q(self) -> int:
        return self.delta.size


@dataclass(frozen=True)
class DerivativeSpec:
    """Derivative family: q x q couplings beta, gamma, delta and cubic tensor lam."""

    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    lam: np.ndarray
    tables: CoefficientTables = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        q = beta.shape[0]
        object.__setattr__(self, "beta", _as_array("beta", beta, (q, q)))
        object.__setattr__(self, "gamma", _as_array("gamma", self.gamma, (q, q)))
        object.__setattr__(self, "delta", _as_array("delta", self.delta, (q, q)))
        object.__setattr__(self, "lam", _as_array("lam", self.lam, (q, q, q)))
        tables = CoefficientTables.of(
            q, drift_self=self.beta, drift_cross=self.gamma, quartic=self.lam, D=self.delta
        )
        object.__setattr__(self, "tables", tables)

    @property
    def q(self) -> int:
        return self.beta.shape[0]


FamilySpec = Union[LinearSpec, DriftCubicSpec, DerivativeSpec]


def _check_spec_fields(spec: FamilySpec, q: int) -> None:
    if spec.q != q:
        raise ValueError(f"spec species count {spec.q} does not match fields q={q}")


def eval_W_parts(
    tables: CoefficientTables, rho: np.ndarray, dS: np.ndarray | None
) -> np.ndarray:
    """Real part W_k (or R_k of transformed tables) from density and
    phase-gradient samples; ``dS`` is read only when ``tables.uses_phase``."""
    on = tables.nonzero
    W = np.broadcast_to(tables.const[:, None], rho.shape).copy()
    if "a" in on:
        W += tables.a[:, None] * dS
    if "cubic" in on:
        W += tables.cubic @ rho
    if "drift_self" in on:
        W += (tables.drift_self @ rho) * dS
    if "drift_cross" in on:
        W += tables.drift_cross @ (rho * dS)
    if "quartic" in on:
        W += np.einsum("kji,jx,ix->kx", tables.quartic, rho, rho)
    return W


def eval_flux_rate(tables: CoefficientTables, rho: np.ndarray) -> np.ndarray:
    """c_k + sum_j D_kj rho_j, broadcastable against rho; F_k = rho_k times it."""
    if "D" not in tables.nonzero:
        return tables.c[:, None]
    return tables.c[:, None] + tables.D @ rho


def eval_Wim_parts(
    tables: CoefficientTables, rho: np.ndarray, drho: np.ndarray | None
) -> np.ndarray:
    """Imaginary part (1/rho_k) dF_k/dx from density samples and gradients;
    ``drho`` is read only when ``tables.has_flux``. The diagonal of D enters
    as 2 D_kk drho_k/dx, not via rho_k drho_k/dx / rho_k (one rounding less).
    """
    if not tables.has_flux:
        return np.zeros_like(rho)
    if "D" not in tables.nonzero:
        return tables.c[:, None] * drho / rho
    Wim = 2.0 * tables.D_diag[:, None] * drho + tables.D_off @ drho
    rate = tables.D_off @ rho
    if "c" in tables.nonzero:
        rate += tables.c[:, None]
    Wim += rate * drho / rho
    return Wim


def eval_F_parts(tables: CoefficientTables, rho: np.ndarray) -> np.ndarray:
    """Closed-form flux F_k = rho_k (c_k + sum_j D_kj rho_j)."""
    return rho * eval_flux_rate(tables, rho)


def eval_W(spec: FamilySpec, h: HydroFields, A: DispersionMatrix) -> np.ndarray:
    """Real nonlinearity W_k evaluated on hydrodynamic fields."""
    _check_spec_fields(spec, h.q)
    if A.q != h.q:
        raise ValueError(f"dispersion size {A.q} does not match fields q={h.q}")
    return eval_W_parts(spec.tables, h.rho, phase_gradient(h))


def eval_Wim(spec: FamilySpec, h: HydroFields) -> np.ndarray:
    """Imaginary nonlinearity Wim_k evaluated on hydrodynamic fields."""
    _check_spec_fields(spec, h.q)
    if spec.tables.has_flux and h.vacuum.any():
        raise VacuumError(
            "density below floor where the nonlinearity divides by rho"
        )
    return eval_Wim_parts(spec.tables, h.rho, density_gradient(h))


def eval_F(spec: FamilySpec, h: HydroFields) -> np.ndarray:
    """Flux fields F_k; satisfies (1/rho_k) dF_k/dx == eval_Wim to resolution."""
    _check_spec_fields(spec, h.q)
    return eval_F_parts(spec.tables, h.rho)
