import numpy as np
import pytest

from cnls_gauge import (
    ComplexFieldSet,
    DispersionMatrix,
    SimState,
    SpecialCase,
    case1_coeffs,
    case2_coeffs,
    case2_wave,
    case3_coeffs,
    classify_q1,
    derivative,
    drift_cubic_wave,
    make_grid,
    second_derivative,
    step,
    transformed_spec,
)
from cnls_gauge.classify import _dn_in_K


def test_classify_jackiw():
    assert classify_q1(1.0, 2.0, 0.0, 0.0) == {SpecialCase.JACKIW}


def test_classify_chen_lee_liu():
    assert classify_q1(-2.0, -2.0, 1.0, 0.0) == {SpecialCase.CHEN_LEE_LIU}


def test_classify_kaup_newell():
    assert classify_q1(-2.0, -2.0, 3.0, 0.0) == {SpecialCase.KAUP_NEWELL}


def test_classify_generic():
    assert classify_q1(1.0, 1.0, 1.0, 1.0) == {SpecialCase.GENERIC}
    assert classify_q1(1.0, 2.0, 0.0, 1.0) == {SpecialCase.GENERIC}


def test_classify_overlap():
    # delta = lam = 0 with beta + gamma = 0 satisfies all three conditions
    labels = classify_q1(1.0, -1.0, 0.0, 0.0)
    assert labels == {
        SpecialCase.JACKIW,
        SpecialCase.CHEN_LEE_LIU,
        SpecialCase.KAUP_NEWELL,
    }
    assert SpecialCase.GENERIC not in labels


def test_classify_scale_invariance():
    rng = np.random.default_rng(0)
    cases = [(1.0, 2.0, 0.0), (-2.0, -2.0, 1.0), (-2.0, -2.0, 3.0), (0.3, 1.1, 0.7)]
    for beta, gamma, delta in cases:
        base = classify_q1(beta, gamma, delta, 0.0)
        for c in rng.uniform(1e-3, 1e3, 25):
            scaled = classify_q1(c * beta, c * gamma, c * delta, 0.0)
            assert scaled == base


def test_classify_rejects_bad_tol():
    with pytest.raises(ValueError, match="tol"):
        classify_q1(1.0, 1.0, 1.0, 1.0, tol=0.0)


def test_case1_zero_delta():
    A = DispersionMatrix([1.0, 2.0])
    spec = case1_coeffs(np.zeros((2, 2)), A)
    for table in (spec.beta, spec.gamma, spec.delta, spec.lam):
        assert np.abs(table).max() == 0.0


def test_case1_scalar_example():
    A = DispersionMatrix([1.0])
    spec = case1_coeffs([[1.0]], A)
    assert spec.beta[0, 0] == -2.0
    assert spec.gamma[0, 0] == 2.0
    assert spec.lam[0, 0, 0] == 1.0
    ts = transformed_spec(spec, A)
    for table in (ts.drift_self, ts.drift_cross, ts.quartic, ts.const_shift):
        assert np.abs(table).max() < 1e-15


@pytest.mark.parametrize("q", [1, 2, 3])
def test_case1_soundness_random(q):
    rng = np.random.default_rng(q)
    for trial in range(50):
        A = DispersionMatrix(rng.choice([-1, 1], q) * rng.uniform(0.5, 2.0, q))
        spec = case1_coeffs(rng.uniform(-2, 2, (q, q)), A)
        ts = transformed_spec(spec, A)
        for table in (ts.drift_self, ts.drift_cross, ts.quartic):
            assert np.abs(table).max() < 1e-12


def test_case2_zero_inputs():
    A = DispersionMatrix([1.0, 1.0])
    spec, eta = case2_coeffs(np.zeros((2, 2)), np.zeros(2), A)
    for table in (spec.beta, spec.gamma, spec.delta, spec.lam):
        assert np.abs(table).max() == 0.0
    assert np.abs(eta).max() == 0.0


def test_case2_scalar_example():
    A = DispersionMatrix([1.0])
    spec, eta = case2_coeffs([[1.0]], [0.0], A)
    assert spec.gamma[0, 0] == 2.0
    assert spec.lam[0, 0, 0] == 3.0
    assert eta[0] == 1.0


@pytest.mark.parametrize("q", [2, 3])
def test_case2_decoupling_random(q):
    rng = np.random.default_rng(10 + q)
    for trial in range(20):
        A = DispersionMatrix(rng.uniform(0.5, 2.0, q))
        delta = rng.uniform(-1, 1, (q, q))
        beta_diag = rng.uniform(-1, 1, q)
        spec, eta = case2_coeffs(delta, beta_diag, A)
        ts = transformed_spec(spec, A)
        off_diag = ts.drift_self - np.diag(np.diag(ts.drift_self))
        assert np.abs(off_diag).max() < 1e-12
        assert np.abs(ts.drift_cross).max() < 1e-12
        assert np.abs(ts.quartic).max() < 1e-12
        # surviving term is the species' own current with strength eta
        dkk = np.diag(delta)
        expected_diag = beta_diag + 2.0 * dkk
        assert np.abs(np.diag(ts.drift_self) - expected_diag).max() < 1e-12
        assert np.abs(eta - expected_diag / (2.0 * A.values)).max() < 1e-14


@pytest.mark.parametrize("q", [1, 2, 3])
def test_case2_tables_follow_the_index_formulas(q):
    # the docstring's four formulas for lam and beta_kk free, entry by entry
    rng = np.random.default_rng(40 + q)
    for trial in range(20):
        Ak = rng.uniform(0.5, 2.0, q) * rng.choice([-1.0, 1.0], q)
        delta = rng.uniform(-1, 1, (q, q))
        beta_diag = rng.uniform(-1, 1, q)
        spec, _ = case2_coeffs(delta, beta_diag, DispersionMatrix(Ak))
        lam = np.empty((q, q, q))
        for k in range(q):
            for j in range(q):
                for i in range(q):
                    if j == k and i == k:
                        lam[k, j, i] = delta[k, k] * (beta_diag[k] + 3.0 * delta[k, k]) / Ak[k]
                    elif i == k:
                        lam[k, j, i] = (
                            delta[k, j] * (beta_diag[k] + delta[k, k] + 2.0 * delta[j, k])
                            / Ak[k]
                        )
                    elif j == k:
                        lam[k, j, i] = delta[k, k] * delta[k, i] / Ak[k]
                    else:
                        lam[k, j, i] = delta[k, j] * (2.0 * delta[j, i] - delta[k, i]) / Ak[k]
        beta = np.where(np.eye(q, dtype=bool), beta_diag, -2.0 * delta)
        assert np.array_equal(spec.lam, lam)
        assert np.array_equal(spec.beta, beta)
        assert np.array_equal(spec.delta, delta)


def test_case3_zero_delta():
    A = DispersionMatrix([1.0, 2.0])
    gamma = np.array([[1.0, 0.5], [-0.3, 0.2]])
    spec, eta = case3_coeffs(np.zeros((2, 2)), gamma, A)
    expected_lam = gamma[:, :, None] * np.zeros((2, 2))[None, :, :]
    assert np.abs(spec.lam - expected_lam).max() == 0.0
    assert np.abs(eta - gamma / (2.0 * A.values[None, :])).max() < 1e-14


def test_case3_scalar_example():
    A = DispersionMatrix([1.0])
    spec, eta = case3_coeffs([[1.0]], [[2.0]], A)
    assert spec.lam[0, 0, 0] == 1.0
    assert eta[0, 0] == 0.0


@pytest.mark.parametrize("q", [2, 3])
def test_case3_current_coupling_random(q):
    rng = np.random.default_rng(20 + q)
    for trial in range(20):
        A = DispersionMatrix(rng.uniform(0.5, 2.0, q))
        delta = rng.uniform(-1, 1, (q, q))
        gamma = rng.uniform(-1, 1, (q, q))
        spec, eta = case3_coeffs(delta, gamma, A)
        ts = transformed_spec(spec, A)
        assert np.abs(ts.drift_self).max() < 1e-12
        assert np.abs(ts.quartic).max() < 1e-12
        # drift_cross expresses sum_j eta_kj J_j with J_j = 2 A_j rho_j dS_j
        assert np.abs(ts.drift_cross - 2.0 * A.values[None, :] * eta).max() < 1e-12


@pytest.mark.parametrize("q", [1, 2])
def test_case_phi_tables_are_exact_and_take_rk4(q, monkeypatch):
    # transformed_spec zeroes the rounding residue of terms that cancel, so
    # the tables a case's phi holds, and with them the integrator that
    # step picks, do not depend on rounding: case 1's phi is the linear
    # system, case 2's holds the diagonal of drift_self alone and case 3's
    # drift_cross alone. None is density-only, so each takes RK4.
    import cnls_gauge.solver as solver

    def no_split(*args):
        raise AssertionError("a case phi took the split step")

    monkeypatch.setattr(solver, "_split_step", no_split)
    rng = np.random.default_rng(70 + q)
    grid = make_grid(16, 0.0, 2.0 * np.pi)
    data = 1.0 + 0.1 * np.exp(1j * grid.x) * np.ones((q, 1))
    # first the inputs whose case-1 and case-2 quartic residues were up to
    # 5.6e-17 before the zeroing, then random ones
    A = DispersionMatrix([1.0, 0.5][:q])
    delta = np.array([[0.3, -0.2], [0.1, 0.25]])[:q, :q]
    beta_diag, gamma = np.array([0.4, -0.3])[:q], np.array([[0.2, 0.1], [-0.3, 0.4]])[:q, :q]
    for trial in range(50):
        phis = {
            frozenset(): transformed_spec(case1_coeffs(delta, A), A),
            frozenset({"drift_self"}): transformed_spec(case2_coeffs(delta, beta_diag, A)[0], A),
            frozenset({"drift_cross"}): transformed_spec(case3_coeffs(delta, gamma, A)[0], A),
        }
        for nonzero, tspec in phis.items():
            assert tspec.tables.nonzero == nonzero, (trial, tspec.tables.nonzero)
            assert not tspec.tables.density_only
            if trial == 0:
                step(SimState(0.0, ComplexFieldSet(data, grid), tspec, A), 1e-4)
        drift_self = phis[frozenset({"drift_self"})].drift_self
        assert not (drift_self - np.diag(np.diag(drift_self))).any()
        A = DispersionMatrix(rng.choice([-1.0, 1.0], q) * rng.uniform(0.5, 2.0, q))
        delta = rng.uniform(-1.5, 1.5, (q, q))
        beta_diag, gamma = rng.uniform(-1.5, 1.5, q), rng.uniform(-1.5, 1.5, (q, q))


# --- the exact drift-cubic travelling wave ------------------------------------

WAVE = dict(A=1.0, delta=1.0, amplitude=1.0, kappa=1, m=0.6, p=2)


@pytest.mark.parametrize("m", [0.0, 1e-10, 0.3, 0.6, 0.999])
def test_dn_matches_scipy(m):
    from scipy.special import ellipj, ellipk

    s = np.linspace(-5.0, 5.0, 1001)  # odd integers included: dn(K) = sqrt(1 - m)
    K, dn = _dn_in_K(s, m)
    assert abs(K - ellipk(m)) <= 1e-15
    err = float(np.abs(dn - ellipj(K * s, m)[2]).max())
    assert err < 1e-14, err


@pytest.mark.parametrize("A, delta, kappa", [(1.0, 1.0, 1), (-0.7, -0.4, -2)])
def test_drift_cubic_wave_solves_its_equation(A, delta, kappa):
    # u_t by a centered difference in t (error about 3e-8) against
    # i A u'' + delta u' - i gamma |u|^2 u, spectral in x, with the gamma
    # of the returned spec
    grid = make_grid(128, 0.0, 2.0 * np.pi)
    kwargs = {**WAVE, "A": A, "delta": delta, "kappa": kappa}
    t, h = 0.3, 1e-4
    state = drift_cubic_wave(grid, t, **kwargs)
    u = state.fields.data[0]
    u_t = (drift_cubic_wave(grid, t + h, **kwargs).fields.data[0]
           - drift_cubic_wave(grid, t - h, **kwargs).fields.data[0]) / (2.0 * h)
    assert state.t == t and state.A.values.tolist() == [A]
    assert state.spec.delta.tolist() == [delta] and state.spec.tables.density_only
    gamma = state.spec.gamma[0]
    rhs = (1j * A * second_derivative(u, grid) + delta * derivative(u, grid)
           - 1j * gamma * np.abs(u) ** 2 * u)
    residual = float(np.abs(u_t - rhs).max())
    assert residual < 1e-6, residual
    # p = 2 dn periods: the density's minimum (1 - m) a^2 is reached twice
    rho0 = np.abs(drift_cubic_wave(grid, 0.0, **kwargs).fields.data[0]) ** 2
    assert abs(rho0.min() - 0.4) < 1e-15 and abs(rho0[32] - 0.4) < 1e-15


@pytest.mark.parametrize("bad", [dict(m=1.0), dict(m=-0.1), dict(amplitude=0.0),
                                 dict(p=0), dict(p=1.5), dict(kappa=0.5),
                                 dict(A=0.0), dict(delta=float("nan"))])
def test_drift_cubic_wave_rejects_bad_parameters(bad):
    grid = make_grid(16, 0.0, 2.0 * np.pi)
    with pytest.raises((ValueError, TypeError)):
        drift_cubic_wave(grid, 0.0, **{**WAVE, **bad})


# --- the exact travelling waves of case 2's phi --------------------------------

CASE2 = dict(A=DispersionMatrix([1.0, -0.5]), eta=[0.5, -0.2], kappa=[6, -6], m=0.6, p=2)
# one m and p per species
CASE2_MIXED = dict(A=DispersionMatrix([1.0, 0.5]), eta=[0.5, 0.2], kappa=[1, 2],
                   m=[0.6, 0.4], p=[1, 2])


@pytest.mark.parametrize("wave", [CASE2, CASE2_MIXED])
def test_case2_wave_solves_its_equation(wave):
    # phi_t by a centered difference in t against i A phi'' + i eta J phi,
    # J = 2 A Im(conj(phi) phi'), spectral in x
    grid = make_grid(64, 0.0, 2.0 * np.pi)
    t, h = 0.3, 1e-5
    state = case2_wave(grid, t, **wave)
    phi = state.fields.data
    phi_t = (case2_wave(grid, t + h, **wave).fields.data
             - case2_wave(grid, t - h, **wave).fields.data) / (2.0 * h)
    A, eta = wave["A"].values[:, None], np.array(wave["eta"])[:, None]
    J = 2.0 * A * np.imag(np.conj(phi) * derivative(phi, grid))
    rhs = 1j * A * second_derivative(phi, grid) + 1j * eta * J * phi
    residual = float(np.abs(phi_t - rhs).max())
    assert residual < 1e-5 * np.abs(rhs).max(), residual
    assert state.t == t and state.spec.tables.nonzero == frozenset({"drift_self"})
    # at t = 0, p dn periods of density between a^2 (x = 0) and (1 - m) a^2
    # (x = pi / (2 p)), a^2 = b^2 / (eta k), b = 2 p K / L
    m, p = (np.broadcast_to(wave[name], (2,)) for name in ("m", "p"))
    b = np.array([2.0 * pj * _dn_in_K(np.zeros(1), mj)[0] for mj, pj in zip(m, p)]) / (2.0 * np.pi)
    a2 = b**2 / (np.array(wave["eta"]) * np.array(wave["kappa"]))
    rho = np.abs(case2_wave(grid, 0.0, **wave).fields.data) ** 2
    assert np.allclose(rho.max(axis=-1), a2, rtol=1e-14, atol=0.0)
    assert np.allclose(rho.min(axis=-1), (1.0 - m) * a2, rtol=1e-14, atol=0.0)


def test_case2_wave_tables_are_case2s_transformed_tables():
    # the wave's W = eta J is the phi of case2_coeffs, to roundoff
    A = CASE2["A"]
    spec, eta = case2_coeffs([[0.3, -0.2], [0.1, 0.25]], [0.4, -0.3], A)
    assert eta.tolist() == CASE2["eta"]
    grid = make_grid(16, 0.0, 2.0 * np.pi)
    wave = case2_wave(grid, 0.0, **CASE2).spec.tables
    case2 = transformed_spec(spec, A).tables
    assert wave.nonzero == case2.nonzero
    assert np.allclose(wave.drift_self, case2.drift_self, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("bad", [dict(m=1.0), dict(m=-0.1), dict(p=0), dict(p=1.5),
                                 dict(kappa=[6, 6]), dict(kappa=[0, -6]), dict(kappa=[6.5, -6]),
                                 dict(eta=[0.5]), dict(eta=[float("nan"), -0.2]),
                                 dict(m=[0.5, 1.0]), dict(p=[1, 0]), dict(p=[1, 2, 3])])
def test_case2_wave_rejects_bad_parameters(bad):
    grid = make_grid(16, 0.0, 2.0 * np.pi)
    with pytest.raises((ValueError, TypeError)):
        case2_wave(grid, 0.0, **{**CASE2, **bad})
