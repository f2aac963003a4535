"""Recognition of named single-species cases, reduction-case builders and
exact travelling waves of the drift-cubic equation and of case 2's
transformed system.

For q = 1 the derivative family contains several classical equations,
recognized from the scalar coefficients (beta, gamma, delta, lambda):

* Jackiw:        delta = 0 and lambda = 0
* Chen-Lee-Liu:  4*delta + beta + gamma = 0 and lambda = 0
* Kaup-Newell:   4*delta + 3*(beta + gamma) = 0 and lambda = 0

The three ``case*_coeffs`` builders produce derivative-family coefficient
sets whose gauge transform collapses to, respectively, decoupled linear
equations, decoupled current-coupled (Jackiw-like) equations, and a system
coupled only through the transformed currents.

``drift_cubic_wave`` and ``case2_wave`` are answers that no march
computes: the exact travelling dn waves of the q = 1 drift-cubic equation
and of the current-driven equations of case 2's phi, against which the
solver is checked.
"""

from __future__ import annotations

import enum
import math
import operator

import numpy as np

from .fields import ComplexFieldSet, DispersionMatrix
from .gauge import TransformedSpec
from .grid import Grid1D
from .nonlinearity import DerivativeSpec, DriftCubicSpec
from .solver import SimState

__all__ = [
    "SpecialCase",
    "classify_q1",
    "case1_coeffs",
    "case2_coeffs",
    "case3_coeffs",
    "drift_cubic_wave",
    "case2_wave",
    "DEFAULT_CLASSIFY_TOL",
]

DEFAULT_CLASSIFY_TOL = 1e-12


class SpecialCase(enum.Enum):
    JACKIW = "Jackiw"
    CHEN_LEE_LIU = "ChenLeeLiu"
    KAUP_NEWELL = "KaupNewell"
    GENERIC = "Generic"


def classify_q1(
    beta: float,
    gamma: float,
    delta: float,
    lam: float,
    tol: float = DEFAULT_CLASSIFY_TOL,
) -> frozenset[SpecialCase]:
    """Label set for the scalar (q = 1) derivative-family coefficients.

    The linear conditions are tested relative to scale = max(|beta|,
    |gamma|, |delta|, 1) so that rescaling all three couplings preserves
    the labels; conditions may overlap, Generic appears only alone.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    beta, gamma, delta, lam = (float(v) for v in (beta, gamma, delta, lam))
    scale = max(abs(beta), abs(gamma), abs(delta), 1.0)
    labels = set()
    if abs(lam) <= tol:
        if abs(delta) <= tol:
            labels.add(SpecialCase.JACKIW)
        if abs(4.0 * delta + beta + gamma) <= tol * scale:
            labels.add(SpecialCase.CHEN_LEE_LIU)
        if abs(4.0 * delta + 3.0 * (beta + gamma)) <= tol * scale:
            labels.add(SpecialCase.KAUP_NEWELL)
    if not labels:
        labels.add(SpecialCase.GENERIC)
    return frozenset(labels)


def _as_delta(delta, A: DispersionMatrix) -> np.ndarray:
    delta = np.atleast_2d(np.asarray(delta, dtype=float))
    q = A.q
    if delta.shape != (q, q):
        raise ValueError(f"delta must have shape {(q, q)}, got {delta.shape}")
    return delta


def case1_coeffs(delta, A: DispersionMatrix) -> DerivativeSpec:
    """Coefficients whose transformed system is decoupled and linear.

    beta_kj = -2 delta_kj, gamma_kj = 2 A_j delta_kj / A_k,
    lam_kji = delta_kj (2 delta_ji - delta_ki) / A_k.
    """
    delta = _as_delta(delta, A)
    Ak = A.values
    beta = -2.0 * delta
    gamma = 2.0 * delta * Ak[None, :] / Ak[:, None]
    lam = (
        delta[:, :, None]
        * (2.0 * delta[None, :, :] - delta[:, None, :])
        / Ak[:, None, None]
    )
    return DerivativeSpec(beta=beta, gamma=gamma, delta=delta, lam=lam)


def case2_coeffs(
    delta, beta_diag, A: DispersionMatrix
) -> tuple[DerivativeSpec, np.ndarray]:
    """Coefficients whose transformed system decouples into Jackiw-like
    equations driven by the species' own current with strength eta_k.

    Off-diagonal beta and all gamma follow the decoupling recipe of case 1;
    beta_kk stays free. The cubic tensor is patched on the index patterns
    that touch the diagonal:

        lam_kkk = delta_kk (beta_kk + 3 delta_kk) / A_k
        lam_kjk = delta_kj (beta_kk + delta_kk + 2 delta_jk) / A_k   (j != k)
        lam_kki = delta_kk delta_ki / A_k                            (i != k)
        lam_kji = delta_kj (2 delta_ji - delta_ki) / A_k             otherwise

    Returns the spec together with eta_k = (beta_kk + 2 delta_kk)/(2 A_k).
    """
    base = case1_coeffs(delta, A)
    delta = base.delta
    q = A.q
    Ak = A.values
    beta_diag = np.atleast_1d(np.asarray(beta_diag, dtype=float))
    if beta_diag.shape != (q,):
        raise ValueError(f"beta_diag must have shape {(q,)}, got {beta_diag.shape}")
    diag = np.arange(q)
    beta = base.beta.copy()
    beta[diag, diag] = beta_diag
    lam = base.lam.copy()
    dkk = delta[diag, diag]
    lam[diag, diag, diag] = dkk * (beta_diag + 3.0 * dkk) / Ak
    k, j = np.nonzero(~np.eye(q, dtype=bool))  # every pair j != k
    lam[k, k, j] = dkk[k] * delta[k, j] / Ak[k]
    lam[k, j, k] = delta[k, j] * (beta_diag[k] + dkk[k] + 2.0 * delta[j, k]) / Ak[k]
    eta = (beta_diag + 2.0 * dkk) / (2.0 * Ak)
    return DerivativeSpec(beta=beta, gamma=base.gamma, delta=delta, lam=lam), eta


def case3_coeffs(
    delta, gamma, A: DispersionMatrix
) -> tuple[DerivativeSpec, np.ndarray]:
    """Coefficients whose transformed system couples only through the
    transformed currents with strengths eta_kj.

    beta_kj = -2 delta_kj, lam_kji = gamma_kj delta_ji / A_j
    - delta_kj delta_ki / A_k, with gamma free. Returns the spec and
    eta_kj = (gamma_kj - 2 A_j delta_kj / A_k) / (2 A_j).
    """
    delta = _as_delta(delta, A)
    q = A.q
    Ak = A.values
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    if gamma.shape != (q, q):
        raise ValueError(f"gamma must have shape {(q, q)}, got {gamma.shape}")
    beta = -2.0 * delta
    lam = (
        gamma[:, :, None] * delta[None, :, :] / Ak[None, :, None]
        - delta[:, :, None] * delta[:, None, :] / Ak[:, None, None]
    )
    eta = (gamma - 2.0 * delta * Ak[None, :] / Ak[:, None]) / (2.0 * Ak[None, :])
    return DerivativeSpec(beta=beta, gamma=gamma, delta=delta, lam=lam), eta


def _dn_in_K(s: np.ndarray, m: float) -> tuple[float, np.ndarray]:
    """K(m) and the Jacobi elliptic dn(K(m) s | m), 0 <= m < 1, which has
    period 2 in s, by the arithmetic-geometric mean (Abramowitz & Stegun
    16.4 and 17.6)."""
    a, c, b = [1.0], [math.sqrt(m)], math.sqrt(1.0 - m)
    while c[-1] > np.finfo(float).eps * a[-1]:
        a0 = a[-1]
        a.append(0.5 * (a0 + b))
        c.append(0.5 * (a0 - b))
        b = math.sqrt(a0 * b)
    n = len(a) - 1
    if n == 0:  # m = 0: dn = 1
        return 0.5 * math.pi, np.ones_like(s)
    # phi_n = 2^n a_n K s, with K = pi / (2 a_n)
    phi = 2.0 ** (n - 1) * math.pi * s
    for j in range(n, 0, -1):
        phi = 0.5 * (phi + np.arcsin(c[j] / a[j] * np.sin(phi)))
    # sn = sin(phi_0); dn = sqrt(1 - m sn^2), which is at least sqrt(1 - m)
    # (A&S's cos(phi_0) / cos(phi_1 - phi_0) is 0/0 at s = 1)
    return 0.5 * math.pi / a[-1], np.sqrt(1.0 - m * np.sin(phi) ** 2)


def drift_cubic_wave(
    grid: Grid1D,
    t: float,
    A: float,
    delta: float,
    amplitude: float,
    kappa: int,
    m: float,
    p: int,
) -> SimState:
    """The exact travelling dn wave of the q = 1 drift-cubic equation
    u_t = i A u'' + delta u' - i gamma |u|^2 u, as a psi state at time t:

        u = a dn(b (x + delta t - 2 A k t), m) exp(i (k (x + delta t) - A k^2 t - omega t))

    with a = ``amplitude``, k = 2 pi ``kappa`` / L the carrier wavenumber
    (``kappa`` on a 2 pi box), b = 2 p K(m) / L, which fits p periods of
    dn into the box, gamma = -2 A b^2 / a^2 and omega = -A b^2 (2 - m).
    The drift is a Galilean shift x -> x + delta t, and under it the dn
    profile solves A f'' = -omega f + gamma f^3. The density a^2 dn^2 is
    at least (1 - m) a^2, so the wave keeps away from vacuum.
    """
    kappa, p = operator.index(kappa), operator.index(p)
    if not (0.0 <= m < 1.0 and amplitude > 0.0 and p >= 1):
        raise ValueError(
            f"need 0 <= m < 1, amplitude > 0 and p >= 1, got m={m!r}, "
            f"amplitude={amplitude!r}, p={p!r}"
        )
    if not (math.isfinite(A) and A != 0.0 and math.isfinite(delta)):
        raise ValueError(f"need finite A != 0 and delta, got A={A!r}, delta={delta!r}")
    L = grid.length
    k = 2.0 * math.pi * kappa / L
    xi = grid.x + delta * t
    # dn(b z) = dn(K s) with s = 2 p z / L
    K, dn = _dn_in_K(2.0 * p * (xi - 2.0 * A * k * t) / L, m)
    b = 2.0 * p * K / L
    gamma = -2.0 * A * b**2 / amplitude**2
    omega = -A * b**2 * (2.0 - m)
    u = amplitude * dn * np.exp(1j * (k * xi - (A * k**2 + omega) * t))
    spec = DriftCubicSpec(delta=[delta], gamma=[gamma])
    return SimState(t, ComplexFieldSet(u[None, :], grid), spec, DispersionMatrix([A]))


def case2_wave(
    grid: Grid1D,
    t: float,
    A: DispersionMatrix,
    eta,
    kappa,
    m,
    p,
) -> SimState:
    """The exact travelling dn waves of case 2's transformed system, the
    decoupled phi_k,t = i A_k phi_k'' + i eta_k J_k phi_k with the current
    J_k = 2 A_k Im(conj(phi_k) phi_k'), as a phi state at time t:

        phi_k = a_k dn(b_k (x - v_k t), m_k) exp(i (k_k x - omega_k t))

    with k_k = 2 pi ``kappa[k]`` / L the carrier wavenumber (an integer
    mode, of the sign of eta_k), b_k = 2 p_k K(m_k) / L, which fits p_k
    periods of dn into the box, v_k = 2 A_k k_k, a_k^2 = b_k^2 / (eta_k
    k_k) and omega_k = A_k (k_k^2 - (2 - m_k) b_k^2); m and p are one
    value per species or one for all. On the carrier the current is
    2 A_k k_k rho_k, and the dn profile solves A f'' = (A k^2 - omega) f
    - 2 eta A k f^3. The spec holds W_k = eta_k J_k as its one table,
    drift_self = diag(2 eta_k A_k), the tables that ``transformed_spec``
    gives ``case2_coeffs`` to roundoff.
    """
    q, L = A.q, grid.length
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    modes = [operator.index(k) for k in np.atleast_1d(kappa).tolist()]
    ms = np.broadcast_to(np.asarray(m, dtype=float), (q,)).tolist()
    ps = [operator.index(j) for j in np.broadcast_to(p, (q,)).tolist()]
    if eta.shape != (q,) or len(modes) != q:
        raise ValueError(f"eta and kappa need {q} entries, got {eta.shape} and {len(modes)}")
    k = 2.0 * math.pi * np.array(modes, dtype=float) / L
    if not (all(0.0 <= mk < 1.0 for mk in ms) and min(ps) >= 1 and (eta * k > 0.0).all()):
        raise ValueError(
            f"need 0 <= m < 1, p >= 1 and eta_k kappa_k > 0, got m={ms!r}, p={ps!r}, "
            f"eta={eta.tolist()!r}, kappa={modes!r}"
        )
    phi = np.empty((q, grid.n_points), dtype=complex)
    for j, (Aj, etaj, kj, mj, pj) in enumerate(zip(A.values.tolist(), eta.tolist(), k, ms, ps)):
        # dn(b z) = dn(K s) with s = 2 p z / L
        K, dn = _dn_in_K(2.0 * pj * (grid.x - 2.0 * Aj * kj * t) / L, mj)
        b = 2.0 * pj * K / L
        omega = Aj * (kj**2 - (2.0 - mj) * b**2)
        phi[j] = b / math.sqrt(etaj * kj) * dn * np.exp(1j * (kj * grid.x - omega * t))
    zeros = np.zeros((q, q))
    spec = TransformedSpec(
        drift_self=np.diag(2.0 * eta * A.values), drift_cross=zeros, cubic=zeros,
        quartic=np.zeros((q, q, q)), const_shift=np.zeros(q),
    )
    return SimState(t, ComplexFieldSet(phi, grid), spec, A)
