"""The RK4 stage and its jump-only unwrap reproduce the plain numpy
formulation byte for byte."""

import numpy as np
import pytest

from cnls_gauge import (
    ComplexFieldSet,
    DispersionMatrix,
    LinearSpec,
    SimState,
    make_grid,
    rhs,
    transformed_spec,
)
from cnls_gauge.fields import _unwrap_rows, _winding_from_samples
from cnls_gauge.grid import derivative

from conftest import (
    band_limited_state,
    random_derivative_spec,
    random_dispersion,
    random_drift_cubic_spec,
)

TWO_PI = 2.0 * np.pi


# --- _unwrap_rows against np.unwrap -------------------------------------------


def _same_as_numpy(p):
    p = np.asarray(p, dtype=float)
    return _unwrap_rows(p).tobytes() == np.unwrap(p, axis=-1).tobytes()


def test_unwrap_rows_without_jumps():
    x = TWO_PI * np.arange(64) / 64
    assert _same_as_numpy(np.angle(np.exp(0.4j * np.sin(x)))[None, :])


@pytest.mark.parametrize("winding", [7, -7])
def test_unwrap_rows_winding_7(winding):
    x = TWO_PI * np.arange(64) / 64
    p = np.angle(np.exp(1j * winding * x + 0.3j * np.cos(x)))[None, :]
    assert _same_as_numpy(p)
    assert abs(_unwrap_rows(p)[0, -1] - _unwrap_rows(p)[0, 0]) > 6.0 * np.pi


def test_unwrap_rows_differences_of_exactly_pi():
    pi = np.pi
    p = [[0.0, pi, 0.0, -pi, 0.0, pi, 2.0 * pi, pi, -pi, -2.0 * pi]]
    assert _same_as_numpy(p)


def test_unwrap_rows_negative_zeros():
    # no jump: numpy still adds a zero cumsum, turning -0.0 into +0.0
    assert _same_as_numpy([[-0.0, -0.0, 0.5, -0.0, 0.0, -0.0]])
    # with a jump before and after the zeros
    assert _same_as_numpy([[-0.0, 3.0, -3.0, -0.0, -0.0, 3.1, -0.0]])


def test_unwrap_rows_nan_row():
    p = [[0.0, 1.0, 2.0, 3.0, -3.0, -2.0],
         [0.0, 1.0, np.nan, 1.0, 4.0, -3.0]]
    assert _same_as_numpy(p)


@pytest.mark.parametrize("shape", [(1, 128), (3, 128)])
def test_unwrap_rows_random_phases(shape):
    rng = np.random.default_rng(11)
    assert _same_as_numpy(rng.uniform(-np.pi, np.pi, shape))
    # mostly smooth rows with a few windings
    x = TWO_PI * np.arange(shape[1]) / shape[1]
    m = rng.integers(-4, 5, (shape[0], 1))
    assert _same_as_numpy(np.angle(np.exp(1j * (m * x + rng.uniform(-1, 1, shape)))))


# --- the stage against a copy of the plain formulation ------------------------


def _reference_transform(f, symbol):
    return np.fft.ifft(symbol * np.fft.fft(f, axis=-1), axis=-1)


def _reference_phase_gradient(S, grid):
    slope = 2.0 * np.pi * _winding_from_samples(S) / grid.length
    periodic = S - slope[:, None] * (grid.x - grid.x_min)
    return _reference_transform(periodic, grid._ik).real + slope[:, None]


@pytest.mark.parametrize("shape", [(1, 256), (3, 256)])
def test_in_place_derivative_is_byte_identical(shape):
    grid = make_grid(shape[1], 0.0, TWO_PI)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(shape)
    assert derivative(f, grid).tobytes() == _reference_transform(f, grid._ik).real.tobytes()
    z = f + 1j * rng.standard_normal(shape)
    assert derivative(z, grid).tobytes() == _reference_transform(z, grid._ik).tobytes()


def _reference_W(tables, rho, dS):
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


def _reference_Wim(tables, rho, drho):
    if "D" not in tables.nonzero:
        return tables.c[:, None] * drho / rho
    diag = np.diag(tables.D)
    off = tables.D - np.diag(diag)
    Wim = 2.0 * diag[:, None] * drho + off @ drho
    rate = off @ rho
    if "c" in tables.nonzero:
        rate += tables.c[:, None]
    Wim += rate * drho / rho
    return Wim


def _reference_tendency(fields, tables, A):
    """The stage written with one transform pair per quantity, np.unwrap
    and the W/Wim formulas spelled out."""
    data, grid = fields.data, fields.grid
    kappa = fields.kappa if fields.kappa.any() else None
    shift = 0.0 if kappa is None else kappa[:, None]
    lap = _reference_transform(data, -((grid.k + shift) ** 2))
    Ak = A.values[:, None]
    if not tables.nonzero:
        return 1j * (Ak * lap)
    rho = data.real**2 + data.imag**2
    dS = None
    if tables.uses_phase:
        dS = _reference_phase_gradient(np.unwrap(np.angle(data), axis=-1), grid)
        if kappa is not None:
            dS += kappa[:, None]
    W = _reference_W(tables, rho, dS)
    if tables.has_flux:
        drho = _reference_transform(rho, grid._ik).real
        Wim = _reference_Wim(tables, rho, drho)
        return 1j * (Ak * lap) + (1j * W - Wim) * data
    return 1j * (Ak * lap + W * data)


def _states(family, q=2, n=256, seed=0):
    """The psi state of a family and the phi state of its transformed
    tables (the linear family has one), with phases that wind."""
    rng = np.random.default_rng(seed)
    grid = make_grid(n, 0.0, TWO_PI)
    A = random_dispersion(rng, q)
    spec = {
        "linear": lambda: LinearSpec(q),
        "drift_cubic": lambda: random_drift_cubic_spec(rng, q),
        "derivative": lambda: random_derivative_spec(rng, q, scale=0.5),
    }[family]()
    windings = rng.integers(-3, 4, q)[:, None]
    data = band_limited_state(rng, grid, q, phase_amp=2.5).data
    data = data * np.exp(1j * windings * grid.x)
    states = [("psi", spec, data)]
    if family != "linear":
        states.append(("phi", transformed_spec(spec, A), data))
    return grid, A, states


@pytest.mark.parametrize("family", ["linear", "drift_cubic", "derivative"])
@pytest.mark.parametrize("kappa", [0.0, 0.37])
def test_stage_is_byte_identical_to_reference(family, kappa):
    for seed in range(3):
        grid, A, states = _states(family, q=2 + seed % 2, seed=seed)
        for tag, spec, data in states:
            q = data.shape[0]
            kap = kappa * np.linspace(1.0, -1.0, q)
            fields = ComplexFieldSet(data, grid, kappa=kap)
            got = rhs(SimState(0.0, fields, tag, spec, A)).data
            want = _reference_tendency(fields, spec.tables, A)
            assert got.tobytes() == want.tobytes(), (family, tag, seed)
