"""Gates of the split step that ``solver.step`` takes for density-only
tables (Wim = 0, W reading rho alone): its fourth order, its agreement with
the RK4 march of the original system, its norm conservation and its freedom
from the RK4 step bound, each written so that a NaN fails it; and the
checks the split step keeps from the RK4 path."""

import warnings

import numpy as np
import pytest

from cnls_gauge import (
    BlowUpError,
    ComplexFieldSet,
    DispersionMatrix,
    SimState,
    TransformedSpec,
    VacuumError,
    apply_gauge,
    compute_generator,
    integrate,
    load_config,
    make_grid,
    stability_bound,
    step,
    to_hydro,
)

from conftest import band_limited_state, random_dispersion

EPS = np.finfo(float).eps
T_END = 0.25


def _march(state, dt, t_end):
    for _ in range(int(round(t_end / dt))):
        state = step(state, dt)
    return state


@pytest.fixture(scope="module")
def family_a():
    """The psi and gauged phi states of family_a_verify at t = 0."""
    cfg = load_config("configs/family_a_verify.json")
    grid, A = cfg.build_grid(), cfg.build_dispersion()
    spec = cfg.build_family_spec()
    psi0 = cfg.build_initial(grid)
    phi0 = apply_gauge(psi0, compute_generator(spec, to_hydro(psi0), A))
    tspec = cfg.build_transformed_spec(spec)
    assert tspec.tables.density_only and not spec.tables.density_only
    return SimState(0.0, psi0, spec, A), SimState(0.0, phi0, tspec, A)


def test_split_step_is_fourth_order(family_a):
    # errors at dt = 1e-2 and 5e-3 against a dt = 1.25e-4 march, t = 0.25;
    # a fourth-order method divides the error by 16 when dt halves
    _, phi = family_a
    ref = _march(phi, 1.25e-4, T_END).fields.data
    peak = float(np.abs(phi.fields.data).max())
    errors = []
    for dt in (1e-2, 5e-3):
        err = float(np.abs(_march(phi, dt, T_END).fields.data - ref).max())
        roundoff = round(T_END / dt) * EPS * peak
        assert err >= 100.0 * roundoff, (dt, err, roundoff)
        errors.append(err)
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0, (errors, ratio)


def test_split_phi_at_16x_dt_matches_rk4_psi(family_a):
    # phi split at 16 times the dt of the psi RK4 march keeps the densities
    psi, phi = family_a
    rho_psi = np.abs(_march(psi, 1.25e-4, T_END).fields.data) ** 2
    rho_phi = np.abs(_march(phi, 2e-3, T_END).fields.data) ** 2
    gap = float(np.abs(rho_phi - rho_psi).max())
    assert gap < 1e-10, gap


@pytest.mark.parametrize("q", [1, 2, 3])
def test_split_step_keeps_every_norm(q):
    rng = np.random.default_rng(30 + q)
    grid = make_grid(64, 0.0, 2.0 * np.pi)
    A = random_dispersion(rng, q)
    zeros = np.zeros((q, q))
    spec = TransformedSpec(
        drift_self=zeros, drift_cross=zeros,
        cubic=rng.uniform(-1.0, 1.0, (q, q)),
        quartic=rng.uniform(-1.0, 1.0, (q, q, q)),
        const_shift=rng.uniform(-1.0, 1.0, q),
    )
    assert spec.tables.density_only
    state = SimState(0.0, band_limited_state(rng, grid, q, phase_amp=2.0), spec, A)
    norms0 = integrate(np.abs(state.fields.data) ** 2, grid)
    final = _march(state, 1e-3, 1.0)  # 1000 steps
    norms = integrate(np.abs(final.fields.data) ** 2, grid)
    drift = float(np.abs(norms / norms0 - 1.0).max())
    assert drift <= 1e-12, drift


def test_split_step_has_no_step_bound():
    # a Nyquist plane wave stepped at 10 times the RK4 bound stays on the
    # unit circle, and no step warns
    grid = make_grid(64, 0.0, 2.0 * np.pi)
    A = DispersionMatrix([1.0])
    zeros = np.zeros((1, 1))
    spec = TransformedSpec(drift_self=zeros, drift_cross=zeros, cubic=zeros,
                           quartic=np.zeros((1, 1, 1)), const_shift=[0.7])
    assert spec.tables.density_only
    data = np.cos(np.pi * np.arange(grid.n_points))[None, :].astype(complex)
    state = SimState(0.0, ComplexFieldSet(data, grid), spec, A)
    dt = 10.0 * stability_bound(grid, A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final = _march(state, dt, 100 * dt)
    deviation = float(np.abs(np.abs(final.fields.data) - 1.0).max())
    assert deviation < 1e-12, deviation


def _drift_cubic_phi(data):
    grid = make_grid(data.shape[1], 0.0, 2.0 * np.pi)
    zeros = np.zeros((2, 2))
    spec = TransformedSpec(drift_self=zeros, drift_cross=zeros,
                           cubic=[[0.4, -0.6], [-0.8, 0.3]], quartic=np.zeros((2, 2, 2)),
                           const_shift=[0.5, 0.25])
    return SimState(0.3, ComplexFieldSet(data, grid), spec, DispersionMatrix([1.0, 0.5]))


def test_split_step_keeps_the_vacuum_guard_and_the_blow_up_checks():
    ones = np.ones((2, 32), dtype=complex)
    node = ones.copy()
    node[1, 5] = 0.0
    with pytest.raises(VacuumError, match="below floor during evolution: species 2 at t=0.3") as err:
        step(_drift_cubic_phi(node), 1e-3)
    assert err.value.t == 0.3
    with pytest.raises(VacuumError, match="all-vacuum\\): species 1 at t=0.3"):
        step(_drift_cubic_phi(ones * [[0.0], [1.0]]), 1e-3)
    with pytest.raises(BlowUpError, match="blow-up threshold") as err:
        step(_drift_cubic_phi(ones), 1e-3, max_abs=0.5)
    assert err.value.t == 0.3 + 1e-3
    with pytest.raises(ValueError, match="dt must be nonzero"):
        step(_drift_cubic_phi(ones), 0.0)
