import warnings
from pathlib import Path

import numpy as np
import pytest

import cnls_gauge.solver as solver
from cnls_gauge import (
    BlowUpError,
    ComplexFieldSet,
    DerivativeSpec,
    DispersionMatrix,
    DriftCubicSpec,
    HydroFields,
    LinearSpec,
    SimState,
    VacuumError,
    case1_coeffs,
    continuity_residual,
    current,
    eval_F,
    eval_Wim,
    evolve,
    from_hydro,
    load_config,
    make_grid,
    rhs,
    stability_bound,
    step,
    to_hydro,
    transformed_spec,
)

from conftest import fractional_winding_setup

TWO_PI = 2.0 * np.pi


def plane_wave_state(grid, kmode, spec, A, amplitude=1.0):
    data = amplitude * np.exp(1j * kmode * grid.x)[None, :]
    return SimState(0.0, ComplexFieldSet(data, grid), spec, A)


def small_family_b(q=2, scale=0.4):
    rng = np.random.default_rng(42)
    return DerivativeSpec(
        beta=scale * rng.uniform(-1, 1, (q, q)),
        gamma=scale * rng.uniform(-1, 1, (q, q)),
        delta=scale * rng.uniform(-1, 1, (q, q)),
        lam=scale * rng.uniform(-1, 1, (q, q, q)),
    )


def smooth_small_state(grid, q=2, base=0.05, max_mode=5, seed=1):
    rng = np.random.default_rng(seed)
    x = grid.x
    rho = np.empty((q, grid.n_points))
    S = np.empty_like(rho)
    for k in range(q):
        wiggle = np.zeros_like(x)
        phase = np.zeros_like(x)
        for m in range(1, max_mode + 1):
            c = rng.uniform(-1, 1, 4) / m
            wiggle += c[0] * np.cos(m * x) + c[1] * np.sin(m * x)
            phase += c[2] * np.cos(m * x) + c[3] * np.sin(m * x)
        rho[k] = base * (1.0 + 0.25 * wiggle / max(1.0, np.abs(wiggle).max()))
        S[k] = 0.1 * phase
    return from_hydro(HydroFields(rho, S, grid))


def test_rhs_linear_plane_wave(grid256):
    A = DispersionMatrix([1.3])
    state = plane_wave_state(grid256, 2, LinearSpec(q=1), A)
    out = rhs(state)
    expected = -1j * 1.3 * 4.0 * state.fields.data
    assert np.abs(out.data - expected).max() < 1e-11


def test_rhs_constant_potential_plane_wave(grid256):
    # W = c (constant), Wim = 0: dpsi/dt = i (c - A k^2) psi.
    # A drift-cubic spec with delta=0 on a constant density gives W = -gamma*rho.
    A = DispersionMatrix([1.0])
    gamma = 0.7
    amplitude = 0.6
    spec = DriftCubicSpec(delta=[0.0], gamma=[gamma])
    state = plane_wave_state(grid256, 1, spec, A, amplitude=amplitude)
    out = rhs(state)
    c = -gamma * amplitude**2
    expected = 1j * (c - 1.0) * state.fields.data
    assert np.abs(out.data - expected).max() < 1e-11


def test_rhs_family_b_finite_difference_oracle(grid256):
    # Independent evaluation of the same equation with second-order finite
    # differences on a 2^18-node refinement of an analytically known state.
    q = 2
    spec = DerivativeSpec(
        beta=np.array([[0.3, -0.2], [0.1, 0.4]]),
        gamma=np.array([[-0.1, 0.2], [0.3, -0.4]]),
        delta=np.array([[0.5, 0.2], [-0.3, 0.4]]),
        lam=0.3 * np.ones((q, q, q)),
    )
    A = DispersionMatrix([1.0, -0.5])

    def rho_fn(x):
        return np.array([1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(2 * x),
                         1.2 + 0.2 * np.sin(x) + 0.1 * np.cos(3 * x)])

    def S_fn(x):
        return np.array([0.2 * np.sin(x) - 0.1 * np.cos(2 * x),
                         0.3 * np.cos(x) + 0.05 * np.sin(3 * x)])

    state = SimState(
        0.0,
        from_hydro(HydroFields(rho_fn(grid256.x), S_fn(grid256.x), grid256)),
        spec,
        A,
    )
    out = rhs(state).data

    def fd_oracle(n_fine):
        # term-by-term evaluation with second-order centered stencils
        xf = np.linspace(0.0, TWO_PI, n_fine, endpoint=False)
        dxf = xf[1] - xf[0]
        rho = rho_fn(xf)
        S = S_fn(xf)
        psi = np.sqrt(rho) * np.exp(1j * S)

        def ddx(f):
            return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2 * dxf)

        def d2dx2(f):
            return (np.roll(f, -1, axis=-1) - 2 * f + np.roll(f, 1, axis=-1)) / dxf**2

        dS = ddx(S)
        drho = ddx(rho)
        W = (spec.beta @ rho) * dS + spec.gamma @ (rho * dS)
        W += np.einsum("kji,jx,ix->kx", spec.lam, rho, rho)
        diag = np.diag(spec.delta)
        off = spec.delta - np.diag(diag)
        Wim = 2.0 * diag[:, None] * drho + off @ drho + (off @ rho) * drho / rho
        full = 1j * (A.values[:, None] * d2dx2(psi) + (W + 1j * Wim) * psi)
        return full[:, :: n_fine // 256]

    # Richardson-combined second-order stencils: a bare dx^2 stencil cannot
    # pass 1e-8 in float64 (eps/dx^2 roundoff), the h/2 combination can.
    oracle = (4.0 * fd_oracle(2**13) - fd_oracle(2**12)) / 3.0
    assert np.abs(out - oracle).max() < 1e-8


def test_rhs_vacuum_error(grid256):
    spec = small_family_b()
    A = DispersionMatrix([1.0, 1.0])
    data = np.vstack([np.sin(grid256.x), np.ones(256)]).astype(complex)
    state = SimState(0.0, ComplexFieldSet(data, grid256), spec, A)
    with pytest.raises(VacuumError):
        rhs(state)


def test_rhs_of_shifted_plane_wave(grid128):
    # u = exp(imx) with kappa = 1/2 is the field exp(i(m + 1/2)x)
    for m in (0, 2, -3):
        u = np.exp(1j * m * grid128.x)[None, :]
        fields = ComplexFieldSet(u, grid128, kappa=[0.5])
        state = SimState(0.0, fields, LinearSpec(q=1), DispersionMatrix([1.0]))
        out = rhs(state)
        assert out.kappa.tolist() == [0.5]
        assert np.abs(out.data - (-1j * (m + 0.5) ** 2 * u)).max() < 1e-11


def test_evolve_shifted_plane_wave_diagnostics(grid128):
    # exp(i(m + kappa)x - i(m + kappa)^2 t): the current 2 (m + kappa) is
    # constant, so the continuity residual vanishes
    wavenumber = 2.0 - 0.5
    fields = ComplexFieldSet(np.exp(2j * grid128.x)[None, :], grid128, kappa=[-0.5])
    state = SimState(0.0, fields, LinearSpec(q=1), DispersionMatrix([1.0]))
    final, records = evolve(state, 2.5e-4, 0.25, sample_every=250)
    assert final.fields.kappa.tolist() == [-0.5]
    exact = np.exp(1j * (wavenumber * grid128.x - wavenumber**2 * 0.25))
    assert np.abs(final.fields.samples()[0] - exact).max() < 1e-10
    for r in records:
        assert r.continuity_residual[0] < 1e-10


def test_rhs_phi_case1_equals_linear(grid256):
    A = DispersionMatrix([1.0])
    tspec = transformed_spec(case1_coeffs([[0.8]], A), A)
    phi = plane_wave_state(grid256, 2, tspec, A, amplitude=0.5)
    linear = plane_wave_state(grid256, 2, LinearSpec(q=1), A, amplitude=0.5)
    assert np.array_equal(rhs(phi).data, rhs(linear).data)


def test_step_linear_dispersion_long_run():
    # exp(i(kx - A k^2 t)) after 10^4 steps of size 1e-4
    grid = make_grid(64, 0.0, TWO_PI)
    A = DispersionMatrix([1.0])
    state = plane_wave_state(grid, 1, LinearSpec(q=1), A)
    dt = 1e-4
    for _ in range(10_000):
        state = step(state, dt)
    expected = np.exp(1j * (grid.x - 1.0))
    assert np.abs(state.fields.data[0] - expected).max() < 1e-8
    assert state.t == pytest.approx(1.0)


@pytest.mark.parametrize("kmode", [2, 3])
def test_step_linear_dispersion_k23(kmode):
    grid = make_grid(64, 0.0, TWO_PI)
    A = DispersionMatrix([1.0])
    state = plane_wave_state(grid, kmode, LinearSpec(q=1), A)
    dt = 2.5e-4
    for _ in range(4000):
        state = step(state, dt)
    expected = np.exp(1j * (kmode * grid.x - kmode**2 * 1.0))
    assert np.abs(state.fields.data[0] - expected).max() < 1e-8


def test_spatial_error_is_spectral():
    # once the active modes are resolved, refining the grid changes the
    # solution only at the machine floor
    spec = small_family_b(scale=0.3)
    A = DispersionMatrix([1.0, 1.0])

    def run(n, steps=200, dt=1e-4):
        grid = make_grid(n, 0.0, TWO_PI)
        x = grid.x
        rho = np.array([0.1 * (1 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x)),
                        0.1 * (1 + 0.15 * np.sin(x))])
        S = np.array([0.1 * np.sin(x), 0.08 * np.cos(2 * x)])
        state = SimState(0.0, from_hydro(HydroFields(rho, S, grid)), spec, A)
        for _ in range(steps):
            state = step(state, dt)
        return state.fields.data

    u64, u128 = run(64), run(128)
    assert np.abs(u64 - u128[:, ::2]).max() < 1e-12


def test_step_zero_field(grid256):
    state = SimState(
        0.0,
        ComplexFieldSet(np.zeros((1, 256), dtype=complex), grid256),
        LinearSpec(q=1),
        DispersionMatrix([1.0]),
    )
    out = step(state, 1e-4)
    assert np.abs(out.fields.data).max() == 0.0


def test_step_warns_above_stability_bound(grid128):
    A = DispersionMatrix([1.0])
    state = plane_wave_state(grid128, 1, LinearSpec(q=1), A)
    bound = stability_bound(grid128, A)
    with pytest.warns(UserWarning, match="stability bound"):
        step(state, 2.0 * bound)


def test_stability_bound_is_the_top_mode_limit(grid256):
    # the Nyquist mode (-1)^j has the largest symbol k^2 = (pi/dx)^2; RK4
    # keeps it bounded up to dt = 2 sqrt(2)/k^2 and amplifies it above
    A = DispersionMatrix([1.3])
    bound = stability_bound(grid256, A)
    assert bound == pytest.approx(2.0 * np.sqrt(2.0) * grid256.dx**2 / (1.3 * np.pi**2))
    top = plane_wave_state(grid256, 128, LinearSpec(q=1), A)

    def growth(dt, n_steps=40):
        state = top
        for _ in range(n_steps):
            state = step(state, dt)
        return np.abs(state.fields.data).max()

    with pytest.warns(UserWarning, match="stability bound"):
        assert growth(1.01 * bound) > 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert growth(0.99 * bound) < 1.0


def test_step_convergence_against_fine_reference(grid128):
    # Fourth order: halving dt shrinks the error against a dt/16 reference
    # by about 16x.
    spec = small_family_b()
    A = DispersionMatrix([1.0, 1.0])
    psi0 = smooth_small_state(grid128, base=0.3, seed=3)
    t_end = 0.05
    dt0 = 5e-4

    def final_at(dt):
        state = SimState(0.0, psi0, spec, A)
        n = int(round(t_end / dt))
        for _ in range(n):
            state = step(state, dt)
        return state.fields.data

    ref = final_at(dt0 / 16)
    e1 = np.abs(final_at(dt0) - ref).max()
    e2 = np.abs(final_at(dt0 / 2) - ref).max()
    ratio = e1 / e2
    assert 12.0 < ratio < 20.0


def test_current_psi_plane_wave(grid256):
    A = DispersionMatrix([1.0])
    kmode = 3
    psi = ComplexFieldSet(np.exp(1j * kmode * grid256.x)[None, :], grid256)
    spec = DriftCubicSpec(delta=[0.0], gamma=[0.0])
    j = current(spec, psi, A)
    assert np.abs(j - 2.0 * kmode).max() < 1e-10

    # constant phase: no current
    h0 = HydroFields(np.ones((1, 256)), np.ones((1, 256)) * 0.4, grid256)
    assert np.abs(current(spec, from_hydro(h0), A)).max() < 1e-12


def test_current_psi_derivative_family(grid256):
    # q=1, rho=1, S=kx, delta=1, A=1: j = 2(k + 1)
    kmode = 2
    psi = ComplexFieldSet(np.exp(1j * kmode * grid256.x)[None, :], grid256)
    spec = DerivativeSpec(
        beta=np.zeros((1, 1)), gamma=np.zeros((1, 1)),
        delta=np.ones((1, 1)), lam=np.zeros((1, 1, 1)),
    )
    j = current(spec, psi, DispersionMatrix([1.0]))
    assert np.abs(j - 2.0 * (kmode + 1.0)).max() < 1e-10


def test_current_phi_forms(grid256):
    A = DispersionMatrix([2.0])
    h0 = HydroFields(np.ones((1, 256)), 0.7 * np.ones((1, 256)), grid256)
    assert np.abs(current(LinearSpec(q=1), from_hydro(h0), A)).max() < 1e-12
    kmode = 2
    phi = ComplexFieldSet(np.exp(1j * kmode * grid256.x)[None, :], grid256)
    J = current(LinearSpec(q=1), phi, DispersionMatrix([1.0]))
    assert np.abs(J - 2.0 * kmode).max() < 1e-10


@pytest.mark.parametrize("kmode, kappa", [(2, 0.3), (-3, -0.45), (0, 0.25)])
def test_current_phi_of_shifted_plane_wave(grid128, kmode, kappa):
    # 2 exp(i kmode x) with kappa is the field 2 exp(i (kmode + kappa) x)
    data = 2.0 * np.exp(1j * kmode * grid128.x)[None, :]
    phi = ComplexFieldSet(data, grid128, kappa=[kappa])
    J = current(LinearSpec(q=1), phi, DispersionMatrix([1.5]))
    assert np.abs(J - 2.0 * 1.5 * 4.0 * (kmode + kappa)).max() < 1e-11


def flux_spec_q1():
    # derivative family with delta = 0.7: a nonzero flux F
    spec = DerivativeSpec(
        beta=np.full((1, 1), 0.3), gamma=np.full((1, 1), -0.2),
        delta=np.full((1, 1), 0.7), lam=np.full((1, 1, 1), 0.1),
    )
    assert spec.tables.has_flux
    return spec


def test_current_is_finite_through_exact_zeros(grid256):
    # u = sin(x) exp(2ix) vanishes at x = 0 and x = pi, where dS/dx is
    # undefined; Im(conj(u) u') = 2 sin^2 x = 2 rho stays smooth
    spec, A = flux_spec_q1(), DispersionMatrix([1.5])
    x = grid256.x
    u = (np.sin(x) * np.exp(2j * x))[None, :]
    assert (u == 0).any()
    rho = np.abs(u) ** 2
    F = eval_F(spec, HydroFields(rho, np.zeros_like(rho), grid256))
    assert np.abs(F).max() > 0.1
    j = current(spec, ComplexFieldSet(u, grid256), A)
    assert np.isfinite(j).all()
    assert np.abs(j - 2.0 * (1.5 * 2.0 * rho + F)).max() < 1e-12


@pytest.mark.parametrize("kmode, kappa", [(1, 0.3), (-2, -0.45)])
def test_current_of_shifted_field_with_flux(grid128, kmode, kappa):
    # the field 0.8 exp(i (kmode + kappa) x): rho = 0.64 and dS/dx = kmode + kappa
    spec, A = flux_spec_q1(), DispersionMatrix([-0.75])
    data = 0.8 * np.exp(1j * kmode * grid128.x)[None, :]
    rho = np.full((1, 128), 0.64)
    F = eval_F(spec, HydroFields(rho, np.zeros_like(rho), grid128))
    j = current(spec, ComplexFieldSet(data, grid128, kappa=[kappa]), A)
    assert np.abs(j - (2.0 * -0.75 * (kmode + kappa) * 0.64 + 2.0 * F)).max() < 1e-12


def test_currents_agree_across_gauge(grid256):
    # J computed on the transformed state equals j on the original state,
    # because dS_phi = dS_psi + F/(A rho).
    from cnls_gauge import apply_gauge, compute_generator

    rng = np.random.default_rng(5)
    q = 2
    x = grid256.x
    rho = np.array([1 + 0.1 * np.cos(x), 1 + 0.08 * np.sin(2 * x)])
    S = np.array([0.05 * np.sin(x), 0.04 * np.cos(x)])
    psi = from_hydro(HydroFields(rho, S, grid256))
    spec = DerivativeSpec(
        beta=0.2 * rng.uniform(-1, 1, (q, q)),
        gamma=0.2 * rng.uniform(-1, 1, (q, q)),
        delta=np.eye(q),
        lam=0.1 * rng.uniform(-1, 1, (q, q, q)),
    )
    A = DispersionMatrix([1.0, 1.0])
    gen = compute_generator(spec, to_hydro(psi), A)
    phi = apply_gauge(psi, gen)
    j = current(spec, psi, A)
    J = current(transformed_spec(spec, A), phi, A)
    assert np.abs(J - j).max() < 1e-8


def test_continuity_residual_stationary_plane_wave(grid256):
    A = DispersionMatrix([1.0])
    spec = LinearSpec(q=1)
    s1 = plane_wave_state(grid256, 2, spec, A)
    dt = 1e-4
    s0 = step(s1, -dt)
    s2 = step(s1, dt)
    res = continuity_residual((s0, s1, s2))
    assert res.max() < 1e-8


def test_continuity_residual_zero_field(grid256):
    spec = LinearSpec(q=1)
    A = DispersionMatrix([1.0])

    def zstate(t):
        return SimState(
            t, ComplexFieldSet(np.zeros((1, 256), dtype=complex), grid256),
            spec, A,
        )

    res = continuity_residual((zstate(0.0), zstate(0.1), zstate(0.2)))
    assert res.max() == 0.0


def test_continuity_residual_halving_dt(grid256):
    # centered-difference residual is second order: halving dt cuts it ~4x
    spec = small_family_b()
    A = DispersionMatrix([1.0, 1.0])
    psi0 = smooth_small_state(grid256, base=0.1, seed=7)

    def residual_at(dt, n_settle=20):
        state = SimState(0.0, psi0, spec, A)
        for _ in range(n_settle):
            state = step(state, dt)
        before = state
        mid = step(before, dt)
        after = step(mid, dt)
        return continuity_residual((before, mid, after)).max()

    r1 = residual_at(1e-4, n_settle=20)
    r2 = residual_at(5e-5, n_settle=40)
    assert r1 / r2 > 3.9


def test_continuity_residual_spacing_mismatch(grid256):
    spec = LinearSpec(q=1)
    A = DispersionMatrix([1.0])
    s = plane_wave_state(grid256, 1, spec, A)
    s1 = step(s, 1e-4)
    s2 = step(s1, 1.5e-4)
    with pytest.raises(ValueError, match="spaced"):
        continuity_residual((s, s1, s2))


def test_evolve_linear_norm_conservation(grid128):
    state = SimState(
        0.0, smooth_small_state(grid128, base=0.5, seed=9),
        LinearSpec(q=2), DispersionMatrix([1.0, -0.5]),
    )
    final, records = evolve(state, 5e-4, 1.0, sample_every=200)
    assert final.t == pytest.approx(1.0)
    drift = np.abs(np.array([r.norm_drift for r in records]))
    assert drift.max() < 1e-10


def test_evolve_family_b_small_amplitude_conservation(grid256):
    spec = small_family_b()
    A = DispersionMatrix([1.0, 1.0])
    state = SimState(0.0, smooth_small_state(grid256, base=0.1, seed=11), spec, A)
    final, records = evolve(state, 1e-4, 0.2, sample_every=500)
    drift = np.abs(records[-1].norm_drift)
    assert drift.max() < 1e-8
    assert records[0].t == 0.0
    assert records[-1].t == pytest.approx(0.2)


def test_evolve_row_count_and_determinism(grid128):
    spec = LinearSpec(q=1)
    A = DispersionMatrix([1.0])
    state = plane_wave_state(grid128, 1, spec, A)
    final1, rec1 = evolve(state, 5e-4, 0.1, sample_every=20)
    final2, rec2 = evolve(state, 5e-4, 0.1, sample_every=20)
    assert len(rec1) == 200 // 20 + 1
    assert np.array_equal(final1.fields.data, final2.fields.data)
    for a, b in zip(rec1, rec2):
        assert np.array_equal(a.continuity_residual, b.continuity_residual)


def test_evolve_takes_exactly_n_steps(grid128, monkeypatch):
    calls = []
    real_step = solver.step

    def counting_step(state, dt, max_abs=None, count=1):
        calls.extend([dt] * count)  # steps, not calls
        return real_step(state, dt, max_abs=max_abs, count=count)

    monkeypatch.setattr(solver, "step", counting_step)
    state = plane_wave_state(grid128, 1, LinearSpec(q=1), DispersionMatrix([1.0]))
    final, records = evolve(state, 5e-4, 0.1, sample_every=20)
    assert calls == [5e-4] * 200
    assert final.t == pytest.approx(0.1)
    assert len(records) == 200 // 20 + 1


def test_evolve_hands_every_state_to_on_step_before_later_samples(grid128):
    # an RK4 march: the initial state and the state after each step, each
    # after the sample of the state before it and before its own sample
    events = []
    state = plane_wave_state(grid128, 1, LinearSpec(q=1), DispersionMatrix([1.0]))
    final, records = evolve(
        state, 5e-4, 0.005, sample_every=4,
        on_sample=lambda s: events.append(("sample", s.t)),
        on_step=lambda s: events.append(("step", s.t)),
    )
    steps = [t for kind, t in events if kind == "step"]
    assert steps == [pytest.approx(i * 5e-4, abs=1e-15) for i in range(11)]
    assert steps[0] == 0.0 and steps[-1] == final.t
    for i, (kind, t) in enumerate(events):
        if kind == "sample":
            assert ("step", t) in events[:i]
            assert all(u <= t for k, u in events[:i] if k == "step")
    assert len(records) == sum(kind == "sample" for kind, _ in events) == 4


def test_evolve_continuity_residual_is_instantaneous_on_fractional_windings(grid256):
    # a centred time difference would read about 4e-7 here at dt = 1e-4
    phi, spec, _, A = fractional_winding_setup(grid256)
    assert np.abs(phi.kappa - [0.194, -0.44]).max() < 1e-12
    state = SimState(0.0, phi, transformed_spec(spec, A), A)
    _, records = evolve(state, 1e-4, 0.05, sample_every=100)
    assert len(records) == 6
    for r in records:
        assert r.continuity_residual.max() <= 1e-10


def test_evolve_blow_up_carries_partial_diagnostics(grid256):
    # dt far above the stability bound excites runaway Nyquist-region modes
    A = DispersionMatrix([1.0])
    state = plane_wave_state(grid256, 1, LinearSpec(q=1), A)
    dt = 4.0 * stability_bound(grid256, A)
    with warnings_ignored():
        with pytest.raises(BlowUpError) as excinfo:
            evolve(state, dt, 1000 * dt, sample_every=50)
    err = excinfo.value
    assert err.t > 0.0
    assert isinstance(err.diagnostics, list)


class warnings_ignored:
    def __enter__(self):
        import warnings

        self._cm = warnings.catch_warnings()
        self._cm.__enter__()
        warnings.simplefilter("ignore")
        return self

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


def test_evolve_rejects_non_divisible_t_end(grid128):
    state = plane_wave_state(grid128, 1, LinearSpec(q=1), DispersionMatrix([1.0]))
    with pytest.raises(ValueError, match="multiple"):
        evolve(state, 3e-4, 1.0)


def test_family_b_equivalence_up_to_global_phase(grid128):
    # Coefficient-form evolution of the transformed system matches the
    # gauge image of the original evolution up to a per-species global
    # phase (the anchor constant of dsigma/dt integrates to a time-
    # dependent phase); densities agree exactly, phases agree after
    # removing the best constant.
    from cnls_gauge import apply_gauge, compute_generator

    rng = np.random.default_rng(21)
    q = 2
    x = grid128.x
    rho = np.array([1 + 0.06 * np.cos(x) + 0.03 * np.sin(2 * x),
                    1 + 0.05 * np.sin(x)])
    rho *= (1.0 / rho.mean(axis=-1))[:, None]  # unit mean: integer winding
    S = np.array([0.04 * np.sin(x), -0.03 * np.cos(x)])
    psi0 = from_hydro(HydroFields(rho, S, grid128))
    spec = DerivativeSpec(
        beta=0.3 * rng.uniform(-1, 1, (q, q)),
        gamma=0.3 * rng.uniform(-1, 1, (q, q)),
        delta=np.eye(q),
        lam=0.2 * rng.uniform(-1, 1, (q, q, q)),
    )
    A = DispersionMatrix([1.0, 1.0])
    gen0 = compute_generator(spec, to_hydro(psi0), A)
    phi0 = apply_gauge(psi0, gen0)
    tspec = transformed_spec(spec, A)

    sp = SimState(0.0, psi0, spec, A)
    sf = SimState(0.0, phi0, tspec, A)
    dt = 2.5e-4
    for _ in range(400):
        sp = step(sp, dt)
        sf = step(sf, dt)
    assert np.abs(np.abs(sf.fields.data) ** 2 - np.abs(sp.fields.data) ** 2).max() < 1e-10

    h_psi = to_hydro(sp.fields)
    h_phi = to_hydro(sf.fields)
    gen_t = compute_generator(spec, h_psi, A, anchor=gen0.anchor)
    mismatch = h_phi.S - h_psi.S - gen_t.values()
    # circular mean per species, then the residual modulo 2*pi
    offset = np.angle(np.exp(1j * mismatch).mean(axis=-1))
    residual = np.angle(np.exp(1j * (mismatch - offset[:, None])))
    assert np.abs(residual).max() < 1e-6
    # and the offsets are genuinely nonzero global phases
    assert np.abs(offset).min() > 1e-3


def test_step_blow_up_inside_stage_carries_step_time(grid256):
    # an RK4 stage (derivative family) raises at the step's start time
    spec = small_family_b()
    data = np.ones((2, 256), dtype=complex)
    data[0, 17] = np.nan
    state = SimState(
        0.3, ComplexFieldSet(data, grid256), spec, DispersionMatrix([1.0, 1.0])
    )
    with pytest.raises(BlowUpError) as excinfo:
        step(state, 1e-4)
    assert excinfo.value.t == 0.3


def test_vacuum_error_carries_the_failing_step_time(grid256):
    # family_b_sample above its step bound: species 1 falls below the floor
    # in a stage of the step that starts at t = 0.0088
    config = Path(__file__).resolve().parents[1] / "configs" / "family_b_sample.json"
    cfg = load_config(config)
    state = SimState(0.0, cfg.build_initial(cfg.build_grid()), cfg.build_family_spec(),
                     cfg.build_dispersion())
    with warnings_ignored(), pytest.raises(VacuumError) as excinfo:
        evolve(state, 2e-4, 0.4, sample_every=20)
    err = excinfo.value
    assert err.t == 0.008799999999999997
    assert str(err) == f"density below floor during evolution: species 1 at t={err.t}"

    zero = SimState(0.3, ComplexFieldSet(np.zeros((2, 256)), grid256), small_family_b(),
                    DispersionMatrix([1.0, 1.0]))
    with pytest.raises(VacuumError, match="all-vacuum") as excinfo:
        step(zero, 1e-4)
    assert excinfo.value.t == 0.3
    # every raiser outside a march leaves t unset
    with pytest.raises(VacuumError) as excinfo:
        to_hydro(zero.fields)
    assert excinfo.value.t is None
    h = to_hydro(ComplexFieldSet(np.sin(grid256.x)[None, :], grid256), floor=1e-6)
    with pytest.raises(VacuumError) as excinfo:
        eval_Wim(DriftCubicSpec(delta=[1.0], gamma=[0.0]), h)
    assert excinfo.value.t is None
