"""Gates of the split step that ``solver.step`` takes for density-only
tables (the kernels' Wim = 0 and W reading rho alone, the drift pair in
the linear flow): its fourth order, its agreement with an exact
travelling wave and with an RK4 march of the original system, its norm
conservation and its freedom from the RK4 step bound, each written so
that a NaN fails it; its march through nodes, which no vacuum guard
stops; and the blow-up checks the split step keeps from the RK4 path."""

import warnings

import numpy as np
import pytest

from cnls_gauge import (
    BlowUpError,
    ComplexFieldSet,
    DispersionMatrix,
    DriftCubicSpec,
    SimState,
    TransformedSpec,
    apply_gauge,
    compute_generator,
    drift_cubic_wave,
    evolve,
    integrate,
    load_config,
    make_grid,
    stability_bound,
    step,
    to_hydro,
    transformed_spec,
)

from cnls_gauge.solver import _rk4_step

from conftest import band_limited_state, random_dispersion

EPS = np.finfo(float).eps
T_END = 0.25


def _march(state, dt, t_end):
    for _ in range(int(round(t_end / dt))):
        state = step(state, dt)
    return state


@pytest.fixture(scope="module")
def family_a():
    """The psi and gauged phi states of family_a_verify at t = 0; both take
    the split step, psi with its drift in the linear flow."""
    cfg = load_config("configs/family_a_verify.json")
    grid, A = cfg.build_grid(), cfg.build_dispersion()
    spec = cfg.build_family_spec()
    psi0 = cfg.build_initial(grid)
    phi0 = apply_gauge(psi0, compute_generator(spec, to_hydro(psi0), A))
    tspec = cfg.build_transformed_spec(spec)
    assert tspec.tables.density_only and spec.tables.density_only
    assert "c" in spec.tables.nonzero and "c" not in tspec.tables.nonzero
    return SimState(0.0, psi0, spec, A), SimState(0.0, phi0, tspec, A)


@pytest.fixture(scope="module")
def rk4_psi_density(family_a):
    """The densities of family_a_verify's psi at t = 0.25 from an RK4 march
    at dt = 1.25e-4, stepped through ``solver._rk4_step`` (``step`` splits
    that psi): the reference of a method independent of the split."""
    psi, dt = family_a[0], 1.25e-4
    for _ in range(int(round(T_END / dt))):
        psi = _rk4_step(psi, dt, None)
    return np.abs(psi.fields.data) ** 2


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


def test_split_phi_at_16x_dt_matches_rk4_psi(family_a, rk4_psi_density):
    # phi split at 16 times the dt of the psi RK4 march keeps the densities
    rho_phi = np.abs(_march(family_a[1], 2e-3, T_END).fields.data) ** 2
    gap = float(np.abs(rho_phi - rk4_psi_density).max())
    assert gap < 1e-10, gap


def test_split_psi_at_16x_dt_matches_rk4_psi(family_a, rk4_psi_density):
    # the same gate for psi's own split march, drift in the linear flow
    rho_psi = np.abs(_march(family_a[0], 2e-3, T_END).fields.data) ** 2
    gap = float(np.abs(rho_psi - rk4_psi_density).max())
    assert gap < 1e-10, gap


@pytest.mark.parametrize("A, delta, amplitude, kappa", [(1.0, 1.0, 1.0, 1), (0.5, 2.0, 1.2, 2)])
def test_split_psi_matches_the_exact_dn_wave(A, delta, amplitude, kappa):
    # drift-cubic psi (q = 1) against the exact travelling dn wave at t = 1:
    # the density error at dt = 1e-2, 5e-3 and 2.5e-3 (2.4e-6, 1.5e-7 and
    # 9.6e-9 at A = 1; 6.2e-8, 3.9e-9 and 2.4e-10 at A = 0.5, where a flow
    # that scaled the drift symbol by A again would show) falls about
    # 16-fold per halving, and stays far above the roundoff of the march
    grid = make_grid(128, 0.0, 2.0 * np.pi)

    def wave(t):
        return drift_cubic_wave(grid, t, A=A, delta=delta, amplitude=amplitude,
                                kappa=kappa, m=0.6, p=2)

    state, t_end = wave(0.0), 1.0
    assert state.spec.tables.density_only
    rho = np.abs(wave(t_end).fields.data) ** 2
    peak = float(np.abs(state.fields.data).max())
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        err = float(np.abs(np.abs(_march(state, dt, t_end).fields.data) ** 2 - rho).max())
        roundoff = round(t_end / dt) * EPS * peak
        assert err >= 100.0 * roundoff, (dt, err, roundoff)
        errors.append(err)
    assert errors[-1] < 2e-8, errors
    for ratio in (errors[0] / errors[1], errors[1] / errors[2]):
        assert 12.0 <= ratio <= 20.0, (errors, ratio)


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


def test_split_step_marches_through_vacuum_and_keeps_the_blow_up_checks():
    # neither a kick nor a flow divides by rho: a node and an all-zero
    # species step, the zero row stays exactly 0 and every norm is kept
    ones = np.ones((2, 32), dtype=complex)
    node = ones.copy()
    node[1, 5] = 0.0
    for data in (node, ones * [[0.0], [1.0]]):
        state = _drift_cubic_phi(data)
        new = step(state, 1e-3, count=3)
        assert np.isfinite(new.fields.data).all()
        norms0 = integrate(np.abs(data) ** 2, state.fields.grid)
        norms = integrate(np.abs(new.fields.data) ** 2, state.fields.grid)
        assert not (np.abs(norms - norms0).max() > 1e-14 * norms0.max())
    assert not new.fields.data[0].any()  # the all-zero species, stepped last
    with pytest.raises(BlowUpError, match="blow-up threshold") as err:
        step(_drift_cubic_phi(ones), 1e-3, max_abs=0.5)
    assert err.value.t == 0.3 + 1e-3
    with pytest.raises(ValueError, match="dt must be nonzero"):
        step(_drift_cubic_phi(ones), 0.0)


@pytest.mark.parametrize("kappa", [0.0, 0.3])
def test_drift_cubic_psi_and_phi_march_through_an_exact_node(kappa):
    # species 1 = 0.3 (1 + e^{ix}) vanishes at the grid node x = pi; the
    # split steps of psi and of its gauged phi divide by rho nowhere
    grid = make_grid(64, 0.0, 2.0 * np.pi)
    A = DispersionMatrix([1.0, 0.5])
    spec = DriftCubicSpec(delta=[2.0, 1.0], gamma=[0.4, 0.3])
    wave = np.exp(1j * grid.x)
    data = np.array([0.3 * (1.0 + wave), 0.25 + 0.05j * wave])
    assert not (np.abs(data[0]).min() > 1e-15)
    psi0 = ComplexFieldSet(data, grid, kappa=kappa * np.array([1.0, -1.0]))
    phi0 = apply_gauge(psi0, compute_generator(spec, to_hydro(psi0), A))
    for state in (SimState(0.0, psi0, spec, A),
                  SimState(0.0, phi0, transformed_spec(spec, A), A)):
        assert state.spec.tables.density_only
        _, records = evolve(state, 1e-3, 0.1, sample_every=25)
        assert records[-1].t == pytest.approx(0.1)
        for r in records:
            for name in ("norms", "norm_drift", "continuity_residual"):
                assert np.isfinite(getattr(r, name)).all(), name
            assert not (np.abs(r.norm_drift).max() > 1e-12), r.norm_drift


# --- merged calls: count steps in one call ----------------------------------


@pytest.mark.parametrize("kappa", [0.0, 0.37])
@pytest.mark.parametrize("m", [1, 2, 7])
def test_merged_call_equals_single_steps(m, kappa):
    # one count = m call (its inner kicks merged) against m single steps,
    # each byte-identical to a textbook Yoshida step
    rng = np.random.default_rng(40)
    q = 2
    grid = make_grid(64, 0.0, 2.0 * np.pi)
    A = random_dispersion(rng, q)
    zeros = np.zeros((q, q))
    spec = TransformedSpec(
        drift_self=zeros, drift_cross=zeros,
        cubic=rng.uniform(-1.0, 1.0, (q, q)),
        quartic=rng.uniform(-1.0, 1.0, (q, q, q)),
        const_shift=rng.uniform(-1.0, 1.0, q),
    )
    data = band_limited_state(rng, grid, q, phase_amp=2.0).data
    fields = ComplexFieldSet(data, grid, kappa=kappa * np.array([1.0, -1.0]))
    state, dt = SimState(0.3, fields, spec, A), 1e-2
    single, t = state, 0.3
    for _ in range(m):
        single, t = step(single, dt), t + dt
    merged = step(state, dt, count=m)
    assert merged.t == single.t == t
    gap = float(np.abs(merged.fields.data - single.fields.data).max())
    assert gap <= 1e-13, gap
    assert merged.fields.kappa.tobytes() == fields.kappa.tobytes()


def test_step_count_must_be_positive(family_a):
    # an RK4 derivative-family psi, and family A's split psi and phi
    cfg = load_config("configs/family_b_sample.json")
    rk4 = SimState(0.0, cfg.build_initial(cfg.build_grid()), cfg.build_family_spec(),
                   cfg.build_dispersion())
    assert not rk4.spec.tables.density_only
    for state in (rk4, *family_a):
        with pytest.raises(ValueError, match="count must be >= 1"):
            step(state, 1e-3, count=0)


def _node_state(node_step, dt):
    """Free flow (P is const, so each kick is a global phase) of
    u0 = 1 + exp(i t_node) cos x with A = 1: |u| at x = 0 grows towards 2,
    and at t_node = node_step dt the density at x = pi vanishes."""
    grid = make_grid(32, 0.0, 2.0 * np.pi)
    zeros = np.zeros((1, 1))
    spec = TransformedSpec(drift_self=zeros, drift_cross=zeros, cubic=zeros,
                           quartic=np.zeros((1, 1, 1)), const_shift=[0.7])
    data = 1.0 + np.exp(1j * node_step * dt) * np.cos(grid.x)
    return SimState(0.0, ComplexFieldSet(data[None, :], grid), spec, DispersionMatrix([1.0]))


def _error_of(call):
    with pytest.raises(BlowUpError) as err:
        call()
    return type(err.value), str(err.value), err.value.t


def _single_steps(state, dt, max_abs=None, count=1):
    # count calls of one step each, in place of one call of count steps
    for _ in range(count):
        state = step(state, dt, max_abs=max_abs)
    return state


def _time(n, dt):
    # n steps from t = 0, dt added once per step as the march adds it
    t = 0.0
    for _ in range(n):
        t += dt
    return t


def test_errors_inside_a_merged_call_match_single_steps():
    dt = 1e-2
    # the peak |u| = 2 cos((t_node - t)/2) passes max_abs between t_4 and
    # t_5: the end-of-step check of step 4 raises at t_5
    state = _node_state(12, dt)
    max_abs = np.cos(0.5 * dt * 8) + np.cos(0.5 * dt * 7)
    single = _error_of(lambda: _single_steps(state, dt, max_abs, count=7))
    assert single[0] is BlowUpError and "blow-up threshold" in single[1]
    assert single[2] == _time(5, dt)
    assert _error_of(lambda: step(state, dt, max_abs=max_abs, count=7)) == single


def test_a_node_inside_a_merged_call_matches_single_steps():
    # the node opens at t_5, in the last flow of step 4, inside the call
    dt = 1e-2
    state = _node_state(5, dt)
    single, merged = _single_steps(state, dt, count=7), step(state, dt, count=7)
    assert merged.t == single.t == _time(7, dt)
    gap = float(np.abs(merged.fields.data - single.fields.data).max())
    assert not (gap > 1e-13), gap


def test_evolve_keeps_every_sample_before_an_error_in_a_merged_call(monkeypatch):
    # sample_every = 5: the calls take steps 0, 1-4, 5 and 6-9; an error at
    # the end of step 7, t_8, raises in the call of steps 6-9 and keeps the
    # records of t_0 and t_5, taken once steps 1 and 6 exist, as single
    # steps do
    import cnls_gauge.solver as solver

    dt = 1e-2
    state = _node_state(8, dt)
    check = solver._check

    def failing_check(new, t, max_abs):
        if t == _time(8, dt):
            raise BlowUpError(f"injected failure at t={t}", t=t)
        check(new, t, max_abs)

    monkeypatch.setattr(solver, "_check", failing_check)

    def failure():
        with pytest.raises(BlowUpError) as err:
            evolve(state, dt, 10 * dt, sample_every=5)
        return err.value

    merged = failure()
    monkeypatch.setattr(solver, "step", _single_steps)
    single = failure()
    assert str(merged) == str(single) and merged.t == single.t == _time(8, dt)
    assert [r.t for r in merged.diagnostics] == [0.0, _time(5, dt)]
    for got, want in zip(merged.diagnostics, single.diagnostics, strict=True):
        assert got.t == want.t
        for name in ("norms", "norm_drift", "continuity_residual"):
            assert np.allclose(getattr(got, name), getattr(want, name), rtol=0.0, atol=1e-12)
