"""1-D periodic time evolution: a Yoshida-4 split step where the
nonlinear flow is exact, spectral method of lines with RK4 elsewhere.

One system form is evolved,

    du_k/dt = i A_k u_k'' + i (W_k + i Wim_k) u_k,

with W and Wim read from the state's coefficient tables. For the original
fields psi they are a family spec's; for the gauge-transformed fields phi
they are a ``TransformedSpec``'s, whose Wim vanishes and whose W is the
purely real R_k. The spec alone says which system a state belongs to.

``step`` picks the method from the tables alone. Tables that are
``density_only`` (every nonzero table const, cubic, quartic or the drift
pair c) give a linear part, dispersion plus the drift a_k (u_k' + i
kappa_k u_k) (see below), that is one Fourier symbol (``_symbol``), so
its flow is exact in Fourier space, and a rest i P(rho) u, P = W of the
array kernels (Wim = 0), whose flow u <- exp(i tau P(rho)) u keeps rho,
so it is exact too. They take the split step (``_split_step``):
Yoshida's triple jump of Strang steps, fourth order, norm-preserving and
without a step bound. Every drift-cubic psi and phi takes it. Neither
flow divides by rho or reads a phase, so it marches through nodes.

``step(state, dt, count=m)`` takes m steps in one call, and a split call
merges the kicks where two steps meet: 3m + 1 kicks, against 4m for m
calls. The march (``_march``) gives a split state the first step after
each sample as a call of its own and the rest of the interval as one.

Several density-only systems can march as one split state (``_stack``):
``verify`` stacks psi's q rows and phi's q rows into one decoupled 2q-row
state, so one call advances both with half the numpy calls of two. The
systems stay independent: the stacked tables are the block-diagonal
direct sum of theirs (``_Stacked``), whose off-diagonal blocks are zero,
and each system keeps the linear flow of its own tables, so every row
has the bytes of its own system's march.

Every other system (derivative psi; a phi whose W reads dS/dx; the
linear system) takes RK4, one step per call of the march, which the rest
of this docstring describes. ``rhs``, which the diagnostics read, is the
RK4 stage's tendency for every system.

The linear drift pair of the tables, a_k dS_k/dx in W and c_k (drho_k/dx)
/ rho_k in Wim, is the drift a_k phi_k' of the field, since the tables
store it once, as c, with a = -2c: for u = sqrt(rho) exp(i S_u),
i a (dS_u/dx + kappa) u - c (drho/dx / rho) u = a (u' + i kappa u).
So a stage evaluates W and Wim with the array kernels, which leave that
pair out, and takes the drift into the spectral symbol of its data rows
(``_symbol``), A_k (-(k + kappa_k)^2) + a_k (k + kappa_k), which makes
them A_k u'' - i a_k (u' + i kappa_k u), with no phase, no division by
rho and no rows of its own for the pair. A step builds that symbol once
and hands it to its four stages.

Every stage reads rho, and dS/dx and drho/dx where the kernels use them,
afresh from the stage's fields, so branch-cut artifacts never accumulate
in dS/dx. The stage's spectral rows share one stacked in-place FFT pair
(``grid._spectral_pair``, numpy's pocketfft ufuncs without the np.fft
wrapper), and the stack holds exactly the rows the stage reads
(``_stack_blocks``): the q data rows (the Laplacian, with the drift when
c is nonzero), q density rows when D is nonzero (drho/dx) and q phase
rows when W reads dS/dx (drift_self or drift_cross nonzero). Beside
density rows, the phase rows are periodic phases (the unwrapped phases
of a jump-only unwrap, ``fields._unwrap_rows``, less their winding
ramps), and dS/dx is their derivative plus the ramp slope. Without them
the stage takes the field form: the phase rows are u' rows that take a
copy of the data rows' forward spectrum, times ik~ (no forward
transform of their own, no arctan2, unwrap or winding split), and dS/dx
is (Re u Im u' - Im u Re u' + kappa rho) / rho, since rho dS/dx =
Im(conj(phi) phi'). That is 3q rows for a derivative-family psi; 2q for
its phi, q data rows plus q u' rows from one forward transform of q
rows; and q for a drift-cubic psi or phi and the linear system.
The per-species scalars of a stage (the vacuum guard's minimum and peak
densities, the winding and ramp slope of ``fields._split_winding``) are q
Python floats, since at desk scale a stage costs about as much per numpy
call as per array element. ``step`` allocates two (q, n) stage buffers
and the stack once per step, and each stage writes its tendency over its
own input. Besides those, a stage holds the real (q, n) density and at
most three real (q, n) temporaries at once (such as W, Wim and a term
being summed into Wim): dS/dx is formed in the phase rows' real parts,
and the flux branch builds 1j W - Wim in the density rows with no
complex cast of W or Wim. Every in-place product and sum keeps the
operands of the plain expression (or, for a stage input, the same real
number to round), and every scalar form the IEEE operations of the
array one, so the results are the same to the last bit.

A field phi_k = exp(i kappa_k (x - x_min)) u_k (``ComplexFieldSet.kappa``)
evolves its periodic u_k with -(k + kappa_k)^2 and k + kappa_k in the
symbol and with dS_u/dx + kappa_k; at kappa = 0 that is exactly the
unshifted stage.

The continuity law d(rho_k)/dt + dj_k/dx = 0 has one current, ``current``:
j_k = 2 (A_k Im(conj(phi_k) phi_k') + F_k), which is 2 (A_k rho_k dS_k/dx
+ F_k) without a division by rho, so it is finite at vacuum nodes.
``evolve`` checks the law with d(rho_k)/dt = 2 Re(conj(u_k) u_t) from the
stage tendency, so it never steps outside [t0, t_end];
``continuity_residual`` with a centered difference of three states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fields import (
    ComplexFieldSet,
    DispersionMatrix,
    VacuumError,
    DEFAULT_FLOOR,
    _split_winding,
    _unwrap_rows,
)
from .gauge import TransformedSpec
from .grid import Grid1D, _spectral_pair, derivative, integrate
from .nonlinearity import (
    _RANKS,
    CoefficientTables,
    FamilySpec,
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
    "current",
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
    """Fields at one instant together with the governing coefficients; a
    family spec makes it a psi state, a ``TransformedSpec`` a phi state
    (and the private ``_Stacked`` spec a state of several systems' rows)."""

    t: float
    fields: ComplexFieldSet
    spec: SystemSpec
    A: DispersionMatrix

    def __post_init__(self) -> None:
        if self.fields.q != self.spec.q or self.fields.q != self.A.q:
            raise ValueError(
                f"species counts differ: fields {self.fields.q}, "
                f"spec {self.spec.q}, A {self.A.q}"
            )


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Sampled conservation diagnostics; norm_drift is relative to t = 0 and
    continuity_residual is sup_x |2 Re(conj(u_k) du_k/dt) + dj_k/dx|."""

    t: float
    norms: np.ndarray
    norm_drift: np.ndarray
    continuity_residual: np.ndarray


def stability_bound(grid: Grid1D, A: DispersionMatrix, shift: float = 0.0) -> float:
    """RK4 step bound 2 sqrt(2) / (max|A_k| k_max^2), k_max = pi/dx + shift,
    of the linear part (warning threshold); above it the top mode grows.

    A gauge shift |kappa| <= pi/L raises the top wavenumber by at most half
    a mode, which the bound includes only through ``shift``.
    """
    k_max = np.pi / grid.dx + shift
    return 2.0 * math.sqrt(2.0) / (float(np.abs(A.values).max()) * k_max**2)


def _stack_blocks(tables: CoefficientTables) -> tuple[bool, bool]:
    # the blocks of q rows a stage stacks after its q data rows: density
    # rows when D is nonzero, phase rows when W reads dS/dx; phase rows
    # without density rows are the field form's u' rows, which take the
    # data rows' spectrum
    return "D" in tables.nonzero, tables.uses_phase


def _stack_rows(tables: CoefficientTables, q: int) -> int:
    return q * (1 + sum(_stack_blocks(tables)))


def _symbol(
    grid: Grid1D, tables: CoefficientTables, A: DispersionMatrix, kappa: np.ndarray | None
) -> np.ndarray:
    """The spectral symbol of the data rows: -(k + kappa_k)^2 when the
    drift pair c is zero, else A_k (-(k + kappa_k)^2) + a_k (k~ + kappa_k),
    k~ the wavenumber with its Nyquist entry zeroed (``grid._ik``'s), which
    makes the rows A_k u'' - i a_k (u' + i kappa_k u) and holds A itself."""
    neg_k2 = grid._neg_k2 if kappa is None else -((grid.k + kappa[:, None]) ** 2)
    if "c" not in tables.nonzero:
        return neg_k2
    k = grid._ik.imag if kappa is None else grid._ik.imag + kappa[:, None]
    return A.values[:, None] * neg_k2 + tables.a[:, None] * k


def _symbol_factor(tables: CoefficientTables, A: DispersionMatrix):
    # the factor by which the data rows enter after their symbol: the exact
    # 1.0 when ``_symbol`` holds A (drift pair nonzero), else A_k
    return 1.0 if "c" in tables.nonzero else A.values[:, None]


def _vacuum_guard(rho: np.ndarray, t: float, floor: float) -> None:
    """Raise VacuumError, at time t and numbering species from 1, when a
    species is identically zero or has a node below ``floor`` times its
    peak density."""
    # compared as Python floats: q scalars cost less than numpy calls on them
    peaks, lows = rho.max(axis=-1).tolist(), rho.min(axis=-1).tolist()
    species = range(len(peaks))
    k = next((k for k in species if peaks[k] <= 0.0), None)
    if k is not None:
        raise VacuumError(
            f"species is identically zero (all-vacuum): species {k + 1} at t={t}", t=t
        )
    k = next((k for k in species if lows[k] < floor * peaks[k]), None)
    if k is not None:
        raise VacuumError(
            f"density below floor during evolution: species {k + 1} at t={t}", t=t
        )


def _tendency(
    data: np.ndarray,
    grid: Grid1D,
    tables: CoefficientTables,
    A: DispersionMatrix,
    t: float,
    kappa: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
    symbol: np.ndarray | None = None,
) -> np.ndarray:
    """i A_k u_k'' + i (W_k + i Wim_k) u_k of one stage, u = ``data``,
    written to ``out`` (a complex (q, n) array, fresh when not given).
    ``out`` may be ``data`` itself: every read of ``data`` comes before the
    first write of ``out``, or is the same element in one elementwise
    product, so the result has the bytes of a fresh ``out``.

    The drift pair (a, c) of the tables enters as a_k (u_k' + i kappa_k
    u_k), through the data rows' symbol (``_symbol``, built here when not
    given), which then holds A too, and W and Wim are the array kernels',
    which leave the pair out.
    The q data rows, then the q density rows when D is nonzero, then q
    phase rows when W reads dS/dx (``_stack_blocks``) share one stacked
    FFT pair in ``work``, a complex array of at least ``_stack_rows`` rows
    (fresh when not given). Beside density rows the phase rows are the
    unwrapped phases less their integer-winding ramp. Without them the
    stage takes the field form: the phase rows are u' rows, which take a
    copy of the data rows' forward spectrum (``copies``), so the pair
    makes q forward and 2q inverse transforms, and dS/dx is
    (Re u Im u' - Im u Re u' + kappa rho) / rho; the tables choose this
    form, as they choose the split step. W and Wim are evaluated after
    the pair.
    Only a stack with density or phase rows runs ``_vacuum_guard`` (at t,
    ``DEFAULT_FLOOR``): Wim and the field form's dS/dx divide by rho, and a
    spectral near-vacuum phase would contaminate every node.
    """
    q, n = data.shape
    flux, phase = _stack_blocks(tables)
    field = phase and not flux
    size = _stack_rows(tables, q)
    rows = np.empty((size, n), dtype=complex) if work is None else work[:size]
    rows[:q] = data
    if symbol is None:
        symbol = _symbol(grid, tables, A, kappa)
    if tables.nonzero:
        rho = data.real**2 + data.imag**2
        if flux or phase:
            _vacuum_guard(rho, t, DEFAULT_FLOOR)
        if flux:
            rows[q:2 * q] = rho
        if phase and flux:
            # np.arctan2(imag, real) is np.angle(data) without its wrapper
            periodic, slope = _split_winding(
                _unwrap_rows(np.arctan2(data.imag, data.real)), grid
            )
            phase_rows = rows[2 * q:3 * q]
            phase_rows[...] = periodic
            del periodic
    _spectral_pair(rows, symbol, q, grid._ik, copies=q if field else 0)
    del symbol
    if out is None:
        out = np.empty((q, n), dtype=complex)
    # every product and sum below has the operands of the expression in its
    # comment, so the in-place form gives the same bytes (a symbol holding A
    # leaves the exact factor 1.0)
    lap, Ak = rows[:q], _symbol_factor(tables, A)
    if tables.nonzero <= {"c"}:
        # the kernels' W and Wim vanish: 1j * (Ak * lap)
        np.multiply(Ak, lap, out=out)
        np.multiply(1j, out, out=out)
    else:
        dS = None
        if field:
            # (Re u Im u' - Im u Re u' (+ kappa rho)) / rho, formed in the
            # u' rows
            du = rows[q:2 * q]
            dS = du.real
            cross = data.imag * dS
            np.multiply(data.real, du.imag, out=dS)
            np.subtract(dS, cross, out=dS)
            del cross
            if kappa is not None:
                dS += kappa[:, None] * rho
            np.divide(dS, rho, out=dS)
        elif phase:
            # phase_rows.real + slope (+ kappa), formed in the phase rows
            dS = phase_rows.real
            np.add(dS, slope[:, None], out=dS)
            if kappa is not None:
                dS += kappa[:, None]
        W = eval_W_parts(tables, rho, dS)
        del dS
        if flux:
            # 1j * (Ak * lap) + (1j * W - Wim) * data, the nonlinear term
            # built in the density rows once Wim has read them: W stored as
            # complex times 1j is 1j * W, and Wim is taken from the real
            # parts alone, since b - 0.0 is b bit for bit; so neither is
            # cast through a complex buffer
            Wim = eval_Wim_parts(tables, rho, rows[q:2 * q].real)
            nl = rows[q:2 * q]
            nl[...] = W
            nl *= 1j
            np.subtract(nl.real, Wim, out=nl.real)
            # freed before Ak * lap, whose real-to-complex cast takes a buffer
            del W, Wim
            np.multiply(nl, data, out=nl)
            np.multiply(Ak, lap, out=out)
            np.multiply(1j, out, out=out)
            np.add(out, nl, out=out)
        else:
            # 1j * (Ak * lap + W * data)
            np.multiply(Ak, lap, out=lap)
            np.multiply(W, data, out=out)
            np.add(lap, out, out=out)
            np.multiply(1j, out, out=out)
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


# Yoshida's triple jump of Strang steps at w1 dt, w0 dt, w1 dt: the three
# linear flows take these fractions of dt, and the four kicks the half sums
# of neighbouring flows. Between two steps of one call, the last kick of
# the first and the first kick of the second merge into one kick of w1 dt.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_KICKS = (0.5 * _W1, 0.5 * (_W1 + _W0), 0.5 * (_W0 + _W1), 0.5 * _W1)
_MERGED = (*_KICKS[1:3], _W1)


@dataclass(frozen=True)
class _Stacked:
    """The spec of a ``_stack`` state, whose rows are the rows of several
    systems, one block after another: ``blocks`` holds the rows, spec and
    A of each system, in order.

    ``tables`` is the block-diagonal direct sum of their tables: every
    off-diagonal block is zero, so a row's W reads only its own system's
    densities and, a zero term adding exactly nothing, has the bytes of
    its own system's W. Each block keeps its own linear flow (``_flows``).
    Only systems with ``density_only`` tables are stacked, so a stacked
    state takes the split step, in which no other part of a row's
    arithmetic reads another row.
    """

    blocks: tuple
    tables: CoefficientTables

    @property
    def q(self) -> int:
        return self.tables.q


def _stack(*states: SimState) -> SimState:
    """One state holding the rows of ``states`` (at one time, on one grid),
    in order: data, kappa and A concatenated, with the ``_Stacked`` spec of
    their specs, whose tables must all be ``density_only``. Marching it
    marches each system as a march of its own would, row for row and byte
    for byte, except that the blow-up threshold (``_march``) reads the
    peak of all rows."""
    blocks, start = [], 0
    for s in states:
        if not s.spec.tables.density_only:
            raise ValueError("only systems with density_only tables are stacked")
        blocks.append((slice(start, start + s.spec.q), s.spec, s.A))
        start += s.spec.q
    sums = {name: np.zeros((start,) * rank) for name, rank in _RANKS.items()}
    for rows, spec, _ in blocks:
        for name, table in sums.items():
            table[(rows,) * table.ndim] = getattr(spec.tables, name)
    first = states[0]
    fields = ComplexFieldSet(
        data=np.concatenate([s.fields.data for s in states]),
        grid=first.fields.grid,
        kappa=np.concatenate([s.fields.kappa for s in states]),
    )
    spec = _Stacked(tuple(blocks), CoefficientTables(**sums))
    A = DispersionMatrix(np.concatenate([s.A.values for s in states]))
    return SimState(first.t, fields, spec, A)


def _unstack(state: SimState) -> list[SimState]:
    """The states of the systems that a ``_stack`` state holds, in order;
    their fields are views of its rows."""
    f = state.fields
    return [
        SimState(
            state.t,
            ComplexFieldSet(data=f.data[rows], grid=f.grid, kappa=f.kappa[rows]),
            spec,
            A,
        )
        for rows, spec, A in state.spec.blocks
    ]


def _flows(state: SimState, dt: float) -> np.ndarray:
    """The propagators exp(i tau A_k s_k) of the split step's outer and
    inner linear flows, tau = w1 dt and w0 dt, s the data rows' symbol
    (``_symbol``): -(k + kappa_k)^2, or, when the drift pair c is nonzero,
    a symbol that holds A and the drift, which then enters with A = 1.
    Each system of a stacked state takes the symbol of its own tables and
    kappa, so its rows get the bytes of its own march's."""
    f, blocks = state.fields, ((slice(None), state.spec, state.A),)
    if isinstance(state.spec, _Stacked):
        blocks = state.spec.blocks
    flows = np.empty((2, *f.data.shape), dtype=complex)
    for rows, spec, A in blocks:
        kappa = f.kappa[rows]
        symbol = _symbol(f.grid, spec.tables, A, kappa if kappa.any() else None)
        factor = _symbol_factor(spec.tables, A)
        for flow, w in zip(flows, (_W1, _W0)):
            np.exp(1j * ((w * dt * factor) * symbol), out=flow[rows])
    return flows


def _split_step(
    state: SimState, dt: float, max_abs: float | None, count: int
) -> SimState:
    """``count`` Yoshida-4 split steps of a state whose tables are
    ``density_only``. A step is four kicks u <- exp(i tau P(rho)) u,
    P = W of the array kernels (without the drift pair), at tau = dt
    times ``_KICKS``, and between them the three linear flows, dispersion
    and drift, u <- ifft(exp(i tau s) fft(u)) of ``_flows``, built once
    per call. A kick keeps rho, so it is the exact flow of i P(rho) u; a
    step keeps every norm to roundoff and has no step bound.

    As a kick keeps rho, the last kick of one step and the first of the
    next read the same P(rho), and inside a call they merge into one kick
    of w1 dt. Neither a kick nor a flow divides by rho or reads a phase,
    so a node or an all-zero species marches like any other state. Each
    step is checked as ``step`` checks it (finite, within ``max_abs``) at
    its end time, its start time plus dt; a merged kick changes only the
    phase, so that check reads the step's end up to the rounding of |u|.
    The call holds its result, one complex (q, n) phase buffer and the two
    propagators, besides a kick's rho and the temporaries of W."""
    tables, t = state.spec.tables, state.t
    outer, inner = _flows(state, dt)
    phase = np.empty(state.fields.data.shape, dtype=complex)
    u = state.fields.data.copy()

    def kick(w: float) -> None:
        rho = u.real**2 + u.imag**2
        # (cos(tau P) + 1j sin(tau P)) * u, in the phase buffer and u
        theta = eval_W_parts(tables, rho, None)
        del rho
        theta *= w * dt
        np.cos(theta, out=phase.real)
        np.sin(theta, out=phase.imag)
        del theta
        np.multiply(phase, u, out=u)

    kick(_KICKS[0])
    for j in range(count):
        kicks = _KICKS[1:] if j == count - 1 else _MERGED
        for flow, w in zip((outer, inner, outer), kicks):
            _spectral_pair(u, flow)
            kick(w)
        t = t + dt
        _check(u, t, max_abs)
    return _at(state, u, t)


def _check(new: np.ndarray, t: float, max_abs: float | None) -> None:
    # a BlowUpError at t unless the fields are finite and within max_abs
    if not np.isfinite(new).all():
        raise BlowUpError(f"non-finite field at t={t}", t=t)
    if max_abs is not None and np.abs(new).max() > max_abs:
        raise BlowUpError(f"field magnitude exceeded blow-up threshold at t={t}", t=t)


def _at(state: SimState, new: np.ndarray, t: float) -> SimState:
    # the state's system with the fields ``new`` at time t
    fields = ComplexFieldSet(data=new, grid=state.fields.grid, kappa=state.fields.kappa)
    return SimState(t=t, fields=fields, spec=state.spec, A=state.A)


def step(
    state: SimState, dt: float, max_abs: float | None = None, count: int = 1
) -> SimState:
    """``count`` steps of size dt (nonzero) to t + count dt, the time
    advanced by adding dt once per step; a BlowUpError when the fields
    after a step are not finite or exceed ``max_abs``.

    Tables that are ``density_only`` (the kernels' Wim = 0 and W reads rho
    alone; the drift pair, if any, rides in the linear flow), those of
    every drift-cubic psi and phi, take the fourth-order split step of
    ``_split_step``, whose ``count`` steps share their propagators and
    merge the kicks where two steps meet. Every other system takes
    classical RK4 steps (``_rk4_step``), one after another, and warns
    once when |dt| exceeds the advisory ``stability_bound``.

    An RK4 step's result has the bytes of y + (dt/6) (k1 + 2 k2 + 2 k3 + k4). A step
    allocates two (q, n) buffers, the stack of the rows its stages read
    (``_stack_rows``) and, when the drift pair is nonzero or kappa is, its
    data rows' symbol, then its result.
    The k's enter a running sum ((k1 + 2 k2) + 2 k3) + k4 in one buffer;
    the other holds each k_i, is doubled in place (exact) once it has been
    added, then becomes the next stage input y + (h/2)(2 k_i), which rounds
    the same real number as y + h k_i, and takes that stage's tendency in
    place. So until the result exists, the step holds two (q, n) arrays
    besides y, the stack and the symbol.

    One edge differs from the plain expression: a stage tendency above
    about 8.9e307 (so that 2 k_i overflows) raises the next stage's
    BlowUpError, at the step's start time, rather than the end-of-step one.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if state.spec.tables.density_only:
        return _split_step(state, dt, max_abs, count)
    bound = stability_bound(state.fields.grid, state.A)
    if abs(dt) > bound:
        warnings.warn(
            f"dt={dt!r} exceeds the stability bound {bound:.6g}", stacklevel=2
        )
    for _ in range(count):
        state = _rk4_step(state, dt, max_abs)
    return state


def _rk4_step(state: SimState, dt: float, max_abs: float | None) -> SimState:
    # one classical RK4 step, as ``step`` describes it
    y = state.fields.data
    q, n = y.shape
    grid, tables, A, t = state.fields.grid, state.spec.tables, state.A, state.t
    kappa = _shift(state.fields)
    acc = np.empty((q, n), dtype=complex)
    k = np.empty((q, n), dtype=complex)
    work = np.empty((_stack_rows(tables, q), n), dtype=complex)
    symbol = _symbol(grid, tables, A, kappa)

    def tendency(u: np.ndarray, into: np.ndarray) -> None:
        _tendency(u, grid, tables, A, t, kappa, out=into, work=work, symbol=symbol)

    tendency(y, acc)  # k1
    np.multiply(0.5 * dt, acc, out=k)
    np.add(y, k, out=k)
    tendency(k, k)  # k2
    for h in (0.5 * dt, dt):
        np.multiply(2.0, k, out=k)
        np.add(acc, k, out=acc)
        np.multiply(0.5 * h, k, out=k)
        np.add(y, k, out=k)
        tendency(k, k)  # k3, then k4
    np.add(acc, k, out=acc)
    np.multiply(dt / 6.0, acc, out=acc)
    # A fresh result, allocated after the stage buffers, sits above them on
    # the heap: freeing them leaves a hole the next step reuses, not a free
    # heap top that glibc trims and the next step faults back in (writing
    # the result into acc cost about 250 minor faults per q = 2, n = 4096
    # step).
    new, t_new = np.add(y, acc), t + dt
    _check(new, t_new, max_abs)
    return _at(state, new, t_new)


def current(spec: SystemSpec, fields: ComplexFieldSet, A: DispersionMatrix) -> np.ndarray:
    """Continuity current j_k = 2 (A_k Im(conj(phi_k) phi_k') + F_k) of the
    fields phi_k = exp(i kappa_k (x - x_min)) u_k, which is
    2 (A_k rho_k dS_k/dx + F_k) and needs no division by rho, so it is
    finite at vacuum nodes. F enters only when the spec's tables have a
    flux, so a ``TransformedSpec`` gives the bilinear J_k = 2 A_k rho_k dS_k/dx."""
    if not spec.q == A.q == fields.q:
        raise ValueError(
            f"species counts differ: spec {spec.q}, A {A.q}, fields {fields.q}"
        )
    data, kappa, has_flux = fields.data, fields.kappa, spec.tables.has_flux
    momentum = np.imag(np.conj(data) * derivative(data, fields.grid))
    rho = fields.rho if kappa.any() or has_flux else None
    if kappa.any():
        momentum += kappa[:, None] * rho
    j = 2.0 * A.values[:, None] * momentum
    if has_flux:
        j += 2.0 * eval_F_parts(spec.tables, rho)
    return j


def _residual(drho_dt: np.ndarray, state: SimState) -> np.ndarray:
    # sup_x |drho_dt + d(current)/dx| of each species
    j = current(state.spec, state.fields, state.A)
    return np.abs(drho_dt + derivative(j, state.fields.grid)).max(axis=-1)


def continuity_residual(states: tuple[SimState, SimState, SimState]) -> np.ndarray:
    """sup |d(rho)/dt + d(current)/dx| from three equally spaced states,
    with the current of the middle state's fields, spec and A.

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
    return _residual(drho_dt, s1)


def _norms_of(fields: ComplexFieldSet) -> np.ndarray:
    return np.atleast_1d(integrate(fields.rho, fields.grid))


def _record(state: SimState, norms0: np.ndarray) -> DiagnosticsRecord:
    f = state.fields
    n = _norms_of(f)
    drift = np.where(norms0 > 0.0, (n - norms0) / np.where(norms0 > 0, norms0, 1.0), 0.0)
    # d(rho)/dt = 2 Re(conj(u) u_t) with u_t the tendency the march steps
    # on, reduced before any other (q, n) temporary exists
    u_t = rhs(state).data
    drho_dt = 2.0 * np.real(np.conj(f.data) * u_t)
    del u_t
    return DiagnosticsRecord(
        t=state.t,
        norms=n,
        norm_drift=drift,
        continuity_residual=_residual(drho_dt, state),
    )


def _march(initial: SimState, dt: float, n_steps: int, sample_every: int):
    """Step ``initial`` n_steps times, yielding (state, sampled) for the
    initial state and after every ``step`` call.

    Sampled are step 0, every multiple of ``sample_every`` and step
    ``n_steps``. An RK4 state takes one step per call, so the march yields
    after every step. A split state (``density_only`` tables) takes the
    first step after a sample as a call of its own and the rest of the
    interval, m - 1 steps, as one merged call: 3m + 2 kicks for the m
    steps, and the march yields each sample and the state one step after
    it. Every step takes the blow-up threshold BLOWUP_FACTOR times the
    initial peak magnitude. The generator holds ``initial`` only until its
    first step, so a caller that keeps no reference of its own frees the
    initial fields there.
    """
    peak0 = float(np.abs(initial.fields.data).max())
    max_abs = BLOWUP_FACTOR * peak0 if peak0 > 0 else None
    merge = initial.spec.tables.density_only
    state = initial
    del initial
    i = 0
    yield state, True
    while i < n_steps:
        count = 1
        if merge and i % sample_every:
            count = min(n_steps, (i // sample_every + 1) * sample_every) - i
        state = step(state, dt, max_abs=max_abs, count=count)
        i += count
        yield state, i % sample_every == 0 or i == n_steps


def evolve(
    initial: SimState,
    dt: float,
    t_end: float,
    sample_every: int = 1,
    on_sample=None,
    on_step=None,
) -> tuple[SimState, list[DiagnosticsRecord]]:
    """March to t_end in exactly n_steps = (t_end - t0)/dt fixed steps,
    sampling diagnostics periodically.

    Samples are taken at step multiples of ``sample_every`` and at the
    final step. Each record reads its state alone: norms, drift and the
    instantaneous continuity residual
    sup|2 Re(conj(u) u_t) + dj/dx| with u_t from ``rhs``. A sampled state
    is recorded once the following step exists (the final state after the
    last step), so a step is always the first work of a march, and an
    error raised before the next sample, inside a split state's merged
    call too, finds every earlier sample recorded.
    ``on_sample``, when given, is called with each recorded state
    (snapshot hooks). ``on_step``, when given, is called with the initial
    state and then with the state after each ``step`` call, each after
    the sample of the state before it, so a sample's hook has seen every
    state up to its own; an RK4 march calls it once per step, a split
    march once per merged call. A BlowUpError or VacuumError raised on the
    way carries the diagnostics collected so far as ``diagnostics``.
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
    march = _march(initial, dt, n_steps, sample_every)
    del initial  # so a caller that drops its own reference frees it in the march

    records: list[DiagnosticsRecord] = []

    def sample(state: SimState) -> None:
        records.append(_record(state, norms0))
        if on_sample is not None:
            on_sample(state)

    try:
        pending = None
        for state, sampled in march:
            if pending is not None:
                sample(pending)
            if on_step is not None:
                on_step(state)
            pending = state if sampled else None
        sample(state)
    except (BlowUpError, VacuumError) as err:
        err.diagnostics = records
        raise
    return state, records
