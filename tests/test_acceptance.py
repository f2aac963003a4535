"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are pinned here; desk scale (grids 256-1024, q <= 3,
t_end = 1).
"""

import numpy as np

from cnls_gauge import (
    ComplexFieldSet,
    DispersionMatrix,
    Grid2D,
    SimState,
    apply_gauge,
    case1_coeffs,
    case2_coeffs,
    case3_coeffs,
    classify_q1,
    compute_generator,
    continuity_residual,
    curl_residual_2d,
    derivative,
    eval_F,
    eval_R_numeric,
    eval_W,
    eval_Wim,
    evolve,
    from_hydro,
    load_config,
    make_grid,
    step,
    transformed_spec,
    SpecialCase,
)
from cnls_gauge.cli import run_convergence, run_equivalence

from conftest import (
    band_limited_hydro,
    random_derivative_spec,
    random_dispersion,
    random_drift_cubic_spec,
)

TWO_PI = 2.0 * np.pi


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"[{marker}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_divergence_identity():
    grid = make_grid(256, 0.0, TWO_PI)
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(20):
        q = int(rng.integers(1, 4))
        h = band_limited_hydro(rng, grid, q)
        for spec in (random_drift_cubic_spec(rng, q), random_derivative_spec(rng, q)):
            resid = derivative(eval_F(spec, h), grid) / h.rho - eval_Wim(spec, h)
            worst = max(worst, float(np.abs(resid).max()))
    report(1, worst < 1e-8, f"divergence identity sup residual {worst:.3e} < 1e-8")


def test_criterion_2_generator_identity():
    grid = make_grid(256, 0.0, TWO_PI)
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(10):
        q = int(rng.integers(1, 4))
        h = band_limited_hydro(rng, grid, q)
        A = random_dispersion(rng, q)
        spec = random_derivative_spec(rng, q)
        gen = compute_generator(spec, h, A)
        target = eval_F(spec, h) / (A.values[:, None] * h.rho)
        worst = max(worst, float(np.abs(gen.gradient() - target).max()))
    # drift-cubic closed form: pure ramp -delta/(2A), zero periodic part
    ramp_err = 0.0
    for trial in range(10):
        q = int(rng.integers(1, 4))
        h = band_limited_hydro(rng, grid, q)
        A = random_dispersion(rng, q)
        spec = random_drift_cubic_spec(rng, q)
        gen = compute_generator(spec, h, A)
        expected = -spec.delta / (2.0 * A.values)
        ramp_err = max(ramp_err, float(np.abs(gen.ramp - expected).max()))
        ramp_err = max(ramp_err, float(np.abs(gen.sigma).max()))
    ok = worst < 1e-8 and ramp_err < 1e-12
    report(
        2, ok,
        f"generator gradient residual {worst:.3e} < 1e-8, "
        f"closed-ramp error {ramp_err:.3e} < 1e-12",
    )


def test_criterion_3_gauge_unitarity():
    grid = make_grid(256, 0.0, TWO_PI)
    rng = np.random.default_rng(103)
    dens_err = 0.0
    round_err = 0.0
    for trial in range(10):
        q = int(rng.integers(1, 4))
        h = band_limited_hydro(rng, grid, q)
        psi = from_hydro(h)
        A = random_dispersion(rng, q)
        spec = random_derivative_spec(rng, q)
        gen = compute_generator(spec, h, A)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            from cnls_gauge import invert_gauge

            phi = apply_gauge(psi, gen)
            back = invert_gauge(phi, gen)
        dens_err = max(
            dens_err,
            float(np.abs(np.abs(phi.data) ** 2 - np.abs(psi.data) ** 2).max()),
        )
        round_err = max(round_err, float(np.abs(back.data - psi.data).max()))
    ok = dens_err < 1e-14 and round_err < 1e-12
    report(
        3, ok,
        f"density invariance {dens_err:.3e} < 1e-14, roundtrip {round_err:.3e} < 1e-12",
    )


def test_criterion_4_coefficient_form_consistency():
    grid = make_grid(256, 0.0, TWO_PI)
    rng = np.random.default_rng(104)
    worst = 0.0
    for family in ("drift_cubic", "derivative"):
        for trial in range(20):
            q = int(rng.integers(1, 4))
            h_phi = band_limited_hydro(rng, grid, q)
            A = random_dispersion(rng, q)
            if family == "drift_cubic":
                spec = random_drift_cubic_spec(rng, q)
                tspec = transformed_spec(spec, A)
            else:
                spec = random_derivative_spec(rng, q)
                tspec = transformed_spec(spec, A)
            gen = compute_generator(spec, h_phi, A)
            R_num = eval_R_numeric(spec, h_phi, gen, A)
            R_coeff = eval_W(tspec, h_phi)
            diff = R_num - R_coeff
            wobble = np.abs(diff - diff.mean(axis=-1, keepdims=True)).max()
            worst = max(worst, float(wobble))
    report(
        4, worst < 1e-6,
        f"R_numeric - R_coefficients spatially constant to {worst:.3e} < 1e-6 "
        "(20 states per family)",
    )


def test_criterion_5_case_reductions():
    rng = np.random.default_rng(105)
    worst1 = worst2 = worst3 = eta_err = link_err = 0.0
    for q in (1, 2, 3):
        for trial in range(10):
            A = DispersionMatrix(rng.choice([-1.0, 1.0], q) * rng.uniform(0.5, 2.0, q))
            delta = rng.uniform(-1.5, 1.5, (q, q))
            ts1 = transformed_spec(case1_coeffs(delta, A), A)
            worst1 = max(
                worst1,
                float(max(np.abs(ts1.drift_self).max(), np.abs(ts1.drift_cross).max(),
                          np.abs(ts1.quartic).max())),
            )
            beta_diag = rng.uniform(-1.5, 1.5, q)
            spec2, eta2 = case2_coeffs(delta, beta_diag, A)
            ts2 = transformed_spec(spec2, A)
            off = ts2.drift_self - np.diag(np.diag(ts2.drift_self))
            worst2 = max(
                worst2,
                float(max(np.abs(off).max(), np.abs(ts2.drift_cross).max(),
                          np.abs(ts2.quartic).max())),
            )
            eta_err = max(
                eta_err,
                float(np.abs(eta2 - (beta_diag + 2 * np.diag(delta)) / (2 * A.values)).max()),
            )
            gamma = rng.uniform(-1.5, 1.5, (q, q))
            spec3, eta3 = case3_coeffs(delta, gamma, A)
            ts3 = transformed_spec(spec3, A)
            worst3 = max(
                worst3,
                float(max(np.abs(ts3.drift_self).max(), np.abs(ts3.quartic).max())),
            )
            link_err = max(
                link_err,
                float(np.abs(ts3.drift_cross - 2.0 * A.values[None, :] * eta3).max()),
            )
    ok = (worst1 < 1e-12 and worst2 < 1e-12 and worst3 < 1e-12
          and eta_err == 0.0 and link_err < 1e-12)
    report(
        5, ok,
        f"case1 {worst1:.2e}, case2 cross {worst2:.2e}, case3 {worst3:.2e} "
        f"all < 1e-12; case-2 eta exact, case-3 current link {link_err:.2e}",
    )


def test_criterion_6_classifier():
    ok = (
        classify_q1(1, 2, 0, 0) == {SpecialCase.JACKIW}
        and classify_q1(-2, -2, 1, 0) == {SpecialCase.CHEN_LEE_LIU}
        and classify_q1(-2, -2, 3, 0) == {SpecialCase.KAUP_NEWELL}
    )
    rng = np.random.default_rng(106)
    cases = [(1.0, 2.0, 0.0), (-2.0, -2.0, 1.0), (-2.0, -2.0, 3.0)]
    for beta, gamma, delta in cases:
        base = classify_q1(beta, gamma, delta, 0.0)
        for c in rng.uniform(1e-4, 1e4, 100):
            if classify_q1(c * beta, c * gamma, c * delta, 0.0) != base:
                ok = False
    report(6, ok, "three labelled cases exact; 100 random scalings preserve labels")


def test_criterion_7_conservation():
    cfg = load_config("configs/family_b_sample.json")
    grid = make_grid(256, 0.0, TWO_PI)
    A = cfg.build_dispersion()
    spec = cfg.build_family_spec()
    psi0 = cfg.build_initial(grid)
    state = SimState(0.0, psi0, spec, A)
    final, records = evolve(state, 1e-4, 1.0, sample_every=2000)
    drift = float(np.abs(records[-1].norm_drift).max())

    # continuity residual halves twice when dt halves (centered difference)
    def residual_at(dt):
        s = SimState(0.0, psi0, spec, A)
        for _ in range(int(round(0.05 / dt))):
            s = step(s, dt)
        mid = step(s, dt)
        after = step(mid, dt)
        return float(continuity_residual((s, mid, after)).max())

    r1 = residual_at(1e-4)
    r2 = residual_at(5e-5)
    ratio = r1 / r2
    ok = drift < 1e-8 and ratio >= 4.0
    report(
        7, ok,
        f"norm drift {drift:.3e} < 1e-8 over t in [0,1]; residual ratio "
        f"{ratio:.3f} >= 4x under dt halving",
    )


def test_criterion_8_gauge_equivalence_end_to_end():
    cfg = load_config("configs/family_a_verify.json")
    result = run_equivalence(cfg)
    dens = result.final_density_diff
    phase = result.final_phase_residual
    ok = dens < 1e-6 and phase < 1e-6
    report(
        8, ok,
        f"t=1 density gap {dens:.3e} < 1e-6, phase-relation residual "
        f"{phase:.3e} < 1e-6 (mod 2*pi)",
    )


def test_criterion_9_linear_exactness():
    grid = make_grid(256, 0.0, TWO_PI)
    A = DispersionMatrix([1.0])
    tspec = transformed_spec(case1_coeffs([[0.7]], A), A)
    dt = 1.25e-4
    worst = 0.0
    for kmode in (1, 2, 3):
        phi0 = ComplexFieldSet(np.exp(1j * kmode * grid.x)[None, :], grid)
        state = SimState(0.0, phi0, tspec, A)
        final, _ = evolve(state, dt, 1.0, sample_every=10**9)
        exact = np.exp(1j * (kmode * grid.x - kmode**2 * 1.0))
        worst = max(worst, float(np.abs(final.fields.data[0] - exact).max()))
    report(
        9, worst < 1e-8,
        f"plane-wave evolution error {worst:.3e} < 1e-8 for k in {{1,2,3}}",
    )


def test_criterion_10_curl_feasibility():
    g2 = Grid2D(128, 128, 0.0, 2.0, 0.0, 2.0)
    X, Y = np.meshgrid(g2.x, g2.y, indexing="ij")
    rho = np.ones_like(X)
    grad_res = curl_residual_2d(2 * X, 2 * Y, rho, g2)
    rot_res = curl_residual_2d(-Y, X, rho, g2)
    ok = grad_res < 1e-10 and abs(rot_res - 2.0) < 1e-6
    report(
        10, ok,
        f"gradient-field residual {grad_res:.3e} < 1e-10; rotational residual "
        f"{rot_res:.6f} within 1e-6 of 2",
    )


def test_criterion_11_solver_order():
    cfg = load_config("configs/family_b_convergence.json")
    grid = make_grid(256, 0.0, TWO_PI)
    raw = cfg.to_dict()
    raw["grid"]["n_points"] = 256
    raw["dt"] = 1.6e-4
    raw["t_end"] = 0.2
    from cnls_gauge import RunConfig

    cfg_psi = RunConfig.from_dict({**raw, "system": "psi"})
    cfg_phi = RunConfig.from_dict({**raw, "system": "phi"})
    _, _, order_psi, _ = run_convergence(cfg_psi)
    _, _, order_phi, _ = run_convergence(cfg_phi)
    ok = order_psi >= 3.5 and order_phi >= 3.5
    report(
        11, ok,
        f"self-convergence order: original system {order_psi:.3f}, "
        f"transformed system {order_phi:.3f}, both >= 3.5",
    )
