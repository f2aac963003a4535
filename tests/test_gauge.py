import numpy as np
import pytest

from cnls_gauge import (
    ComplexFieldSet,
    DerivativeSpec,
    DispersionMatrix,
    DriftCubicSpec,
    GaugeGenerator,
    Grid2D,
    HydroFields,
    LinearSpec,
    TransformedSpec,
    antiderivative,
    apply_gauge,
    case1_coeffs,
    cole_hopf_G,
    compute_generator,
    curl_residual_2d,
    current_phi,
    derivative,
    eval_R_numeric,
    eval_transformed,
    eval_W,
    from_hydro,
    invert_gauge,
    phase_relation_residual,
    to_hydro,
    transformed_spec_derivative,
    transformed_spec_drift,
)

from conftest import band_limited_hydro, band_limited_state, random_derivative_spec

TWO_PI = 2.0 * np.pi


def quantized_derivative_setup(rng, grid, q=2):
    """Derivative-family state whose generator ramp has integer winding.

    delta = identity and unit mean density per species make the ramp
    exactly 1, so the gauged field stays grid-periodic.
    """
    x = grid.x
    rho = np.empty((q, grid.n_points))
    S = np.empty_like(rho)
    for k in range(q):
        wiggle = np.zeros_like(x)
        phase = np.zeros_like(x)
        for m in range(1, 5):
            c = rng.uniform(-1.0, 1.0, 4) / m
            wiggle += c[0] * np.cos(m * x) + c[1] * np.sin(m * x)
            phase += c[2] * np.cos(m * x) + c[3] * np.sin(m * x)
        rho[k] = 1.0 + 0.08 * wiggle / max(1.0, np.abs(wiggle).max())
        S[k] = 0.05 * phase
    psi = from_hydro(HydroFields(rho, S, grid))
    spec = DerivativeSpec(
        beta=0.3 * rng.uniform(-1, 1, (q, q)),
        gamma=0.3 * rng.uniform(-1, 1, (q, q)),
        delta=np.eye(q),
        lam=0.2 * rng.uniform(-1, 1, (q, q, q)),
    )
    A = DispersionMatrix(np.ones(q))
    return psi, spec, A


def test_generator_drift_cubic_pure_ramp(grid256):
    spec = DriftCubicSpec(delta=[1.0], gamma=[0.0])
    A = DispersionMatrix([1.0])
    h = band_limited_hydro(np.random.default_rng(0), grid256, q=1)
    gen = compute_generator(spec, h, A)
    assert abs(gen.ramp[0] + 0.5) < 1e-12
    assert np.abs(gen.sigma).max() < 1e-12
    sigma = gen.values()
    assert np.abs(sigma[0] + 0.5 * grid256.x).max() < 1e-12


def test_generator_zero_drift(grid256):
    rng = np.random.default_rng(1)
    h = band_limited_hydro(rng, grid256, q=2)
    A = DispersionMatrix([1.0, 2.0])
    for spec in (
        DriftCubicSpec(delta=[0.0, 0.0], gamma=[1.0, 2.0]),
        DerivativeSpec(
            beta=rng.uniform(-1, 1, (2, 2)), gamma=rng.uniform(-1, 1, (2, 2)),
            delta=np.zeros((2, 2)), lam=rng.uniform(-1, 1, (2, 2, 2)),
        ),
        LinearSpec(q=2),
    ):
        gen = compute_generator(spec, h, A)
        assert np.abs(gen.values()).max() < 1e-14


def test_generator_derivative_constant_density(grid256):
    # q=1, delta=1, A=1, rho = c: sigma = c (x - x_anchor)
    c = 0.75
    anchor = 32
    h = HydroFields(np.full((1, 256), c), np.zeros((1, 256)), grid256)
    spec = DerivativeSpec(
        beta=np.zeros((1, 1)), gamma=np.zeros((1, 1)),
        delta=np.ones((1, 1)), lam=np.zeros((1, 1, 1)),
    )
    gen = compute_generator(spec, h, DispersionMatrix([1.0]), anchor=anchor)
    expected = c * (grid256.x - grid256.x[anchor])
    assert np.abs(gen.values()[0] - expected).max() < 1e-12
    # matches the antiderivative of the integrand directly
    oracle = antiderivative(np.full(256, c), grid256, anchor=anchor)
    assert np.abs(gen.values()[0] - oracle).max() < 1e-12


def test_generator_gradient_identity_random(grid256):
    rng = np.random.default_rng(2)
    for trial in range(5):
        q = int(rng.integers(1, 4))
        h = band_limited_hydro(rng, grid256, q)
        A = DispersionMatrix(rng.uniform(0.5, 2.0, q))
        spec = random_derivative_spec(rng, q)
        gen = compute_generator(spec, h, A)
        from cnls_gauge import eval_F

        target = eval_F(spec, h) / (A.values[:, None] * h.rho)
        assert np.abs(gen.gradient() - target).max() < 1e-8


def _constant_generator(grid, q, value, spec=None, A=None):
    return GaugeGenerator(
        sigma=np.full((q, grid.n_points), value),
        ramp=np.zeros(q),
        anchor=0,
        grid=grid,
        spec=spec or LinearSpec(q=q),
        A=A or DispersionMatrix(np.ones(q)),
    )


def test_apply_gauge_identity_and_sign_flip(grid256):
    rng = np.random.default_rng(3)
    psi = band_limited_state(rng, grid256, q=1)
    gen0 = _constant_generator(grid256, 1, 0.0)
    assert np.abs(apply_gauge(psi, gen0).data - psi.data).max() == 0.0
    gen_pi = _constant_generator(grid256, 1, np.pi)
    assert np.abs(apply_gauge(psi, gen_pi).data + psi.data).max() < 1e-14


def test_gauge_roundtrip_and_density_invariance(grid256):
    rng = np.random.default_rng(4)
    psi, spec, A = quantized_derivative_setup(rng, grid256)
    gen = compute_generator(spec, to_hydro(psi), A)
    phi = apply_gauge(psi, gen)
    assert np.abs(np.abs(phi.data) ** 2 - np.abs(psi.data) ** 2).max() < 1e-14
    back = invert_gauge(phi, gen)
    assert np.abs(back.data - psi.data).max() < 1e-12
    assert np.abs(np.abs(back.data) ** 2 - np.abs(phi.data) ** 2).max() < 1e-14


def test_apply_gauge_flags_non_periodic_ramp(grid256):
    rng = np.random.default_rng(5)
    psi = band_limited_state(rng, grid256, q=1)
    spec = DriftCubicSpec(delta=[1.0], gamma=[0.0])  # ramp -1/2: not integer
    gen = compute_generator(spec, to_hydro(psi), DispersionMatrix([1.0]))
    assert not gen.ramp_is_periodic()
    with pytest.warns(UserWarning, match="not an integer"):
        phi = apply_gauge(psi, gen)
    assert phi.non_periodic_ramp


def test_phase_relation_residual(grid256):
    rng = np.random.default_rng(6)
    psi, spec, A = quantized_derivative_setup(rng, grid256)
    h_psi = to_hydro(psi)
    gen = compute_generator(spec, h_psi, A)
    phi = apply_gauge(psi, gen)
    h_phi = to_hydro(phi)
    res = phase_relation_residual(h_psi, h_phi, gen)
    assert res.max() < 1e-10

    # identical states with zero generator
    zero = _constant_generator(grid256, 2, 0.0)
    assert phase_relation_residual(h_psi, h_psi, zero).max() == 0.0

    # a 0.1 bump at one node in the transformed phase appears as 0.1
    S_perturbed = h_phi.S.copy()
    S_perturbed[0, 100] += 0.1
    h_bad = HydroFields(h_phi.rho, S_perturbed, grid256)
    res2 = phase_relation_residual(h_psi, h_bad, gen)
    assert abs(res2[0] - 0.1) < 1e-9


def test_cole_hopf_zero_flux(grid256):
    rng = np.random.default_rng(7)
    psi = band_limited_state(rng, grid256, q=1)
    spec = DriftCubicSpec(delta=[0.0], gamma=[1.0])
    G = cole_hopf_G(psi, spec, DispersionMatrix([1.0]))
    expected = derivative(psi.data, grid256) / psi.data
    assert np.abs(G - expected).max() < 1e-12


def test_cole_hopf_plane_wave(grid256):
    kmode = 3
    psi = ComplexFieldSet(np.exp(1j * kmode * grid256.x)[None, :], grid256)
    spec = DriftCubicSpec(delta=[0.0], gamma=[0.0])
    G = cole_hopf_G(psi, spec, DispersionMatrix([1.0]))
    assert np.abs(G - 1j * kmode).max() < 1e-10


def test_cole_hopf_transformed_log_derivative(grid256):
    rng = np.random.default_rng(8)
    psi, spec, A = quantized_derivative_setup(rng, grid256)
    gen = compute_generator(spec, to_hydro(psi), A)
    phi = apply_gauge(psi, gen)
    G = cole_hopf_G(psi, spec, A)
    dlog_phi = derivative(phi.data, grid256) / phi.data
    assert np.abs(dlog_phi - G).max() < 1e-8


def test_classical_cole_hopf_limit(grid256):
    # With the functional prescribed as the field itself, solving
    # dlog(phi)/dx = psi gives phi = exp(antiderivative(psi)); for
    # psi = cos(x) that is the exponential field exp(sin x).
    psi = np.cos(grid256.x)
    phi = np.exp(antiderivative(psi, grid256, anchor=0))
    assert np.abs(phi - np.exp(np.sin(grid256.x))).max() < 1e-12
    recon = derivative(np.log(phi), grid256)
    assert np.abs(recon - psi).max() < 1e-10


def test_curl_residual_gradient_field():
    g2 = Grid2D(64, 96, 0.0, 2.0, -1.0, 1.0)
    X, Y = np.meshgrid(g2.x, g2.y, indexing="ij")
    rho = np.ones_like(X)
    assert curl_residual_2d(2 * X, 2 * Y, rho, g2) < 1e-10


def test_curl_residual_rotational_field():
    g2 = Grid2D(64, 64, 0.0, 2.0, 0.0, 2.0)
    X, Y = np.meshgrid(g2.x, g2.y, indexing="ij")
    rho = np.ones_like(X)
    res = curl_residual_2d(-Y, X, rho, g2)
    assert abs(res - 2.0) < 1e-6


def test_curl_residual_drift_cubic_2d():
    # F = -(delta/2) rho with a constant drift vector: F/rho is constant
    g2 = Grid2D(32, 32, 0.0, TWO_PI, 0.0, TWO_PI)
    X, Y = np.meshgrid(g2.x, g2.y, indexing="ij")
    rho = 1.0 + 0.3 * np.sin(X) * np.cos(Y)
    delta = (0.7, -1.3)
    Fx = -0.5 * delta[0] * rho
    Fy = -0.5 * delta[1] * rho
    assert curl_residual_2d(Fx, Fy, rho, g2) < 1e-10


def test_curl_residual_shape_mismatch():
    g2 = Grid2D(16, 16, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="shape"):
        curl_residual_2d(np.ones((16, 8)), np.ones((16, 16)), np.ones((16, 16)), g2)


def test_transformed_drift_zero_delta_passthrough():
    spec = DriftCubicSpec(delta=[0.0, 0.0], gamma=[1.5, -0.5])
    ts = transformed_spec_drift(spec, DispersionMatrix([1.0, 2.0]))
    assert np.abs(ts.const_shift).max() == 0.0
    assert np.abs(ts.drift_self).max() == 0.0
    assert np.abs(ts.quartic).max() == 0.0
    assert ts.cubic[0, 0] == -1.5
    assert ts.cubic[1, 1] == 0.5
    assert ts.cubic[0, 1] == 1.0
    assert ts.cubic[1, 0] == -3.0


def test_transformed_drift_constant_shift():
    # The drift is absorbed into the constant delta^2/(4A): completing the
    # square of the first-order term, verified against eval_R_numeric below.
    ts = transformed_spec_drift(
        DriftCubicSpec(delta=[2.0], gamma=[0.0]), DispersionMatrix([1.0])
    )
    assert abs(ts.const_shift[0] - 1.0) < 1e-15

    ts2 = transformed_spec_drift(
        DriftCubicSpec(delta=[1.0], gamma=[3.0]), DispersionMatrix([0.5])
    )
    assert abs(ts2.const_shift[0] - 0.5) < 1e-15
    assert ts2.cubic[0, 0] == -3.0


def test_transformed_derivative_zero_delta_passthrough():
    rng = np.random.default_rng(9)
    q = 2
    beta = rng.uniform(-1, 1, (q, q))
    gamma = rng.uniform(-1, 1, (q, q))
    lam = rng.uniform(-1, 1, (q, q, q))
    spec = DerivativeSpec(beta=beta, gamma=gamma, delta=np.zeros((q, q)), lam=lam)
    ts = transformed_spec_derivative(spec, DispersionMatrix([1.0, 2.0]))
    assert np.abs(ts.drift_self - beta).max() < 1e-15
    assert np.abs(ts.drift_cross - gamma).max() < 1e-15
    assert np.abs(ts.quartic - lam).max() < 1e-15
    assert np.abs(ts.cubic).max() == 0.0


def test_transformed_derivative_chen_lee_liu():
    # (beta, gamma, delta, lam) = (-2, -2, 1, 0):
    # drift_self = beta + 2 delta = 0
    # drift_cross = gamma - 2 delta = -4
    # quartic = -(delta(delta+beta) + gamma*delta - lam) = -((1)(-1) + (-2)) = 3
    spec = DerivativeSpec(
        beta=[[-2.0]], gamma=[[-2.0]], delta=[[1.0]], lam=[[[0.0]]]
    )
    ts = transformed_spec_derivative(spec, DispersionMatrix([1.0]))
    assert abs(ts.drift_self[0, 0]) < 1e-15
    assert abs(ts.drift_cross[0, 0] + 4.0) < 1e-15
    assert abs(ts.quartic[0, 0, 0] - 3.0) < 1e-15


def test_transformed_derivative_case1_all_zero():
    rng = np.random.default_rng(10)
    A = DispersionMatrix([1.0, -1.5, 0.5])
    spec = case1_coeffs(rng.uniform(-1, 1, (3, 3)), A)
    ts = transformed_spec_derivative(spec, A)
    for table in (ts.drift_self, ts.drift_cross, ts.cubic, ts.quartic, ts.const_shift):
        assert np.abs(table).max() < 1e-12


def test_eval_R_numeric_zero_drift_equals_W(grid256):
    rng = np.random.default_rng(11)
    q = 2
    h = band_limited_hydro(rng, grid256, q)
    A = DispersionMatrix([1.0, 2.0])
    spec = DerivativeSpec(
        beta=rng.uniform(-1, 1, (q, q)), gamma=rng.uniform(-1, 1, (q, q)),
        delta=np.zeros((q, q)), lam=rng.uniform(-1, 1, (q, q, q)),
    )
    gen = compute_generator(spec, h, A)
    J = current_phi(h, A)
    R = eval_R_numeric(spec, h, gen, A, J)
    W = eval_W(spec, h, A)
    assert np.abs(R - W).max() < 1e-10


def test_eval_R_numeric_drift_cubic_matches_coefficients_exactly(grid256):
    rng = np.random.default_rng(12)
    q = 2
    A = DispersionMatrix([1.0, 0.5])
    spec = DriftCubicSpec(delta=[2.0, 1.0], gamma=[0.4, -0.2])
    psi = band_limited_state(rng, grid256, q, base=0.2)
    h_psi = to_hydro(psi)
    gen = compute_generator(spec, h_psi, A)
    phi = apply_gauge(psi, gen)  # windings are integers for these drifts
    h_phi = to_hydro(phi)
    J = current_phi(h_phi, A)
    R = eval_R_numeric(spec, h_phi, gen, A, J)
    R_coeff = eval_transformed(transformed_spec_drift(spec, A), h_phi)
    assert np.abs(R - R_coeff).max() < 1e-8


def test_eval_R_numeric_derivative_constant_offset(grid256):
    rng = np.random.default_rng(13)
    psi, spec, A = quantized_derivative_setup(rng, grid256)
    h_psi = to_hydro(psi)
    gen = compute_generator(spec, h_psi, A)
    phi = apply_gauge(psi, gen)
    h_phi = to_hydro(phi)
    J = current_phi(h_phi, A)
    R = eval_R_numeric(spec, h_phi, gen, A, J)
    R_coeff = eval_transformed(transformed_spec_derivative(spec, A), h_phi)
    diff = R - R_coeff
    wobble = np.abs(diff - diff.mean(axis=-1, keepdims=True)).max()
    assert wobble < 1e-8
    # the offset is the anchor term of dsigma/dt: (delta @ j(anchor)) / A
    from cnls_gauge import current_psi

    j = current_psi(spec, h_psi, A)
    predicted = (spec.delta @ j[:, gen.anchor]) / A.values
    assert np.abs(diff.mean(axis=-1) - predicted).max() < 1e-8


def test_transformed_spec_eval_matches_manual(grid256):
    rng = np.random.default_rng(14)
    q = 2
    h = band_limited_hydro(rng, grid256, q)
    ts = TransformedSpec(
        drift_self=rng.uniform(-1, 1, (q, q)),
        drift_cross=rng.uniform(-1, 1, (q, q)),
        cubic=rng.uniform(-1, 1, (q, q)),
        quartic=rng.uniform(-1, 1, (q, q, q)),
        const_shift=rng.uniform(-1, 1, q),
    )
    from cnls_gauge import phase_gradient

    dS = phase_gradient(h)
    R = eval_transformed(ts, h)
    manual = np.zeros_like(h.rho)
    for k in range(q):
        manual[k] += ts.const_shift[k]
        for j in range(q):
            manual[k] += ts.cubic[k, j] * h.rho[j]
            manual[k] += ts.drift_self[k, j] * h.rho[j] * dS[k]
            manual[k] += ts.drift_cross[k, j] * h.rho[j] * dS[j]
            for i in range(q):
                manual[k] += ts.quartic[k, j, i] * h.rho[j] * h.rho[i]
    assert np.abs(R - manual).max() < 1e-12


def test_generator_through_exact_density_zeros(grid256):
    # sin(x) vanishes exactly at grid nodes; the integrand (c + D rho)/A
    # has no 1/rho, so the generator is defined there too.
    x = grid256.x
    psi = ComplexFieldSet(
        np.vstack([np.sin(x), 0.5 + 0.3 * np.cos(2.0 * x)]).astype(complex), grid256
    )
    h = to_hydro(psi)
    assert h.vacuum[0].any()
    A = DispersionMatrix([1.0, 2.0])

    delta = np.array([[0.7, -0.4], [0.3, 1.1]])
    spec = DerivativeSpec(
        beta=np.zeros((2, 2)), gamma=np.zeros((2, 2)), delta=delta,
        lam=np.zeros((2, 2, 2)),
    )
    gen = compute_generator(spec, h, A)
    expected = (delta @ h.rho) / A.values[:, None]
    assert np.abs(gen.gradient() - expected).max() < 1e-12

    drift = np.array([1.0, -0.6])
    gen = compute_generator(DriftCubicSpec(delta=drift, gamma=[0.2, 0.1]), h, A)
    assert np.abs(gen.ramp + drift / (2.0 * A.values)).max() < 1e-15
    assert np.abs(gen.sigma).max() < 1e-15
