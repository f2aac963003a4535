"""simulate marches the gauge image phi of a flux-coupled psi and writes psi
read back through the gauge: the snapshots must be those of a direct psi
march, up to the time error of the two marches."""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cnls_gauge import ComplexFieldSet, DerivativeSpec, DispersionMatrix, make_grid
from cnls_gauge.cli import main, read_snapshot
from cnls_gauge.config import load_config
from cnls_gauge.gauge import TransformedSpec, _Readback, transformed_spec
from cnls_gauge.solver import SimState, evolve
from conftest import perfbench_workloads

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def _direct_samples(cfg):
    # node values of every sample of a psi march, the march simulate took
    # before it marched phi
    grid = cfg.build_grid()
    state = SimState(0.0, cfg.build_initial(grid), cfg.build_family_spec(),
                     cfg.build_dispersion())
    samples = []
    evolve(state, cfg.dt, cfg.t_end, cfg.sample_every,
           on_sample=lambda s: samples.append(s.fields.samples().copy()))
    return samples


def _snapshots(path, out):
    assert main(["simulate", str(path), "--output-dir", str(out)]) == 0
    return [read_snapshot(p.with_suffix(""))[0]
            for p in sorted(out.glob("snapshot_*.raw"))]


def _config_path(tmp_path, name):
    # a shipped config, or "<workload>-<seed>" of the benchmark
    if "-" in name:
        workload, seed = name.rsplit("-", 1)
        payload = getattr(perfbench_workloads(), workload)(int(seed)).config
        path = tmp_path / f"{workload}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path
    return CONFIGS / f"{name}.json"


@pytest.mark.parametrize(
    "name",
    ["family_b_sample", "family_b_convergence",
     "simulate_wide-1", "simulate_wide-2", "simulate_wide-3"],
)
def test_snapshots_match_a_direct_psi_march(tmp_path, name):
    path = _config_path(tmp_path, name)
    want = _direct_samples(load_config(str(path)))
    got = _snapshots(path, tmp_path / "out")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max()


class _Anchor:
    """States whose anchor current is known at every time: plane waves
    a_j(t) exp(i m_j x) with kappa_j, so that Im(conj(phi) phi') + kappa rho
    at any node is (m_j + kappa_j) |a_j|^2 and |a_j(t)|^2 = 1 + s_j sin(w_j t)."""

    grid = make_grid(16, 0.0, 2 * np.pi)
    modes = np.array([1.0, -2.0])
    kappa = np.array([0.25, -0.1])
    swing = np.array([0.5, 0.3])
    rate = np.array([3.0, 5.0])

    def state(self, t):
        amp = np.sqrt(1.0 + self.swing * np.sin(self.rate * t))
        data = amp[:, None] * np.exp(1j * self.modes[:, None] * self.grid.x)
        return SimpleNamespace(t=t, fields=ComplexFieldSet(data, self.grid, self.kappa))

    def theta(self, tables, A, t):
        # the exact integral of f = (1/A) D J, J_j = 2 A_j (m_j + kappa_j) |a_j|^2
        mass = t + self.swing * (1.0 - np.cos(self.rate * t)) / self.rate
        J = 2.0 * A.values * (self.modes + self.kappa) * mass
        return tables.D @ J / A.values


def _theta_error(steps):
    anchor = _Anchor()
    A = DispersionMatrix([1.0, -0.5])
    spec = DerivativeSpec(beta=np.zeros((2, 2)), gamma=np.zeros((2, 2)),
                          delta=[[0.5, 0.2], [-0.3, 0.4]], lam=np.zeros((2, 2, 2)))
    dt = 0.5 / steps
    readback = _Readback(spec, A, dt, np.zeros(2))
    for i in range(steps + 1):
        readback.add(anchor.state(i * dt))
    return np.abs(readback.theta() - anchor.theta(spec.tables, A, steps * dt)).max()


def test_theta_is_fourth_order_in_dt():
    errors = [_theta_error(steps) for steps in (20, 40, 80)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0
    assert errors[-1] < 1e-8


def test_theta_takes_the_trapezoid_rule_before_three_values():
    anchor = _Anchor()
    A = DispersionMatrix([1.0, 1.0])
    spec = DerivativeSpec(beta=np.zeros((2, 2)), gamma=np.zeros((2, 2)),
                          delta=np.eye(2), lam=np.zeros((2, 2, 2)))
    readback = _Readback(spec, A, 0.1, np.zeros(2))
    readback.add(anchor.state(0.0))
    assert not readback.theta().any()
    readback.add(anchor.state(0.1))
    J = [2.0 * (anchor.modes + anchor.kappa)
         * (1.0 + anchor.swing * np.sin(anchor.rate * t)) for t in (0.0, 0.1)]
    np.testing.assert_allclose(readback.theta(), 0.05 * (J[0] + J[1]), rtol=1e-13)


def test_readback_inverts_the_set_up_gauge():
    # at t = 0, theta = 0 and psi comes back from phi to roundoff, with the
    # kappa of psi exactly, also where the ramp winding is fractional
    cfg = load_config(str(_config_path(None, "family_b_sample")))
    grid = cfg.build_grid()
    spec = dataclasses.replace(
        cfg.build_family_spec(), delta=np.array([[0.5, 0.21], [-0.3, 0.4]])
    )
    psi = cfg.build_initial(grid)
    readback = _Readback.of(spec, cfg.build_dispersion(), psi, cfg.dt)
    assert isinstance(readback.spec, TransformedSpec)
    phi = readback.gauge(psi)
    assert phi.kappa.any()
    readback.add(SimState(0.0, phi, readback.spec, cfg.build_dispersion()))
    back = readback.psi(phi)
    assert back.kappa.tobytes() == psi.kappa.tobytes()
    assert np.abs(back.data - psi.data).max() < 1e-15


@pytest.mark.parametrize(
    "name",
    ["family_b_sample", "family_b_convergence", "simulate_wide-1", "simulate_wide-2",
     "equiv_deriv-1", "equiv_deriv-2"],
)
def test_every_command_gauges_psi0_to_the_same_bytes(tmp_path, monkeypatch, name):
    # transform's phi_initial, the phi0 that simulate marches and the phi0
    # that verify marches next to psi come from one generator of the
    # densities Re^2 + Im^2
    from cnls_gauge import report

    path = _config_path(tmp_path, name)
    assert main(["transform", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    transformed = (tmp_path / "out" / "phi_initial.raw").read_bytes()

    cfg = load_config(str(path))
    psi0 = cfg.build_initial(cfg.build_grid())
    readback = _Readback.of(cfg.build_family_spec(), cfg.build_dispersion(), psi0, cfg.dt)
    simulated = readback.gauge(psi0).samples().astype("<c16").tobytes()

    real, gauged = report.apply_gauge, []

    def apply_gauge(psi, gen):
        gauged.append(real(psi, gen))
        return gauged[-1]

    monkeypatch.setattr(report, "apply_gauge", apply_gauge)
    report.run_equivalence(dataclasses.replace(cfg, t_end=cfg.dt, sample_every=1))
    verified = gauged[0].samples().astype("<c16").tobytes()

    assert transformed == simulated == verified


def test_no_readback_where_psi_has_no_flux_or_phi_tables_are_unusable():
    A = DispersionMatrix([1.0, 0.5])
    grid = make_grid(16, 0.0, 2 * np.pi)
    psi = ComplexFieldSet(np.ones((2, 16)), grid)
    zero = np.zeros((2, 2))
    no_flux = DerivativeSpec(beta=np.eye(2), gamma=zero, delta=zero,
                             lam=np.zeros((2, 2, 2)))
    assert _Readback.of(no_flux, A, psi, 1e-3) is None
    # beta = -2 delta and gamma_kj = 2 delta_kj A_j / A_k leave phi's tables
    # density_only: phi's split march gives no per-step anchor current
    delta = np.array([[0.5, 0.2], [-0.3, 0.4]])
    gamma = 2.0 * delta * (A.values[None, :] / A.values[:, None])
    quartic_only = DerivativeSpec(beta=-2.0 * delta, gamma=gamma, delta=delta,
                                  lam=np.zeros((2, 2, 2)))
    assert transformed_spec(quartic_only, A).tables.density_only
    assert _Readback.of(quartic_only, A, psi, 1e-3) is None
    # the transformed tables divide by A and overflow
    tiny = DispersionMatrix([1.0, 1e-320])
    coupled = DerivativeSpec(beta=zero, gamma=zero, delta=delta, lam=np.zeros((2, 2, 2)))
    with np.errstate(all="raise"):
        assert _Readback.of(coupled, tiny, psi, 1e-3) is None


def test_simulate_marches_psi_where_phi_tables_are_density_only(tmp_path):
    # family_b_sample with beta = -2 delta and gamma_kj = 2 delta_kj A_j/A_k:
    # phi would take the split step, so psi marches itself, byte for byte
    payload = json.loads((CONFIGS / "family_b_sample.json").read_text())
    delta = np.array(payload["nonlinearity"]["delta"])
    A = np.array(payload["A"])
    payload["nonlinearity"]["beta"] = (-2.0 * delta).tolist()
    payload["nonlinearity"]["gamma"] = (2.0 * delta * (A[None, :] / A[:, None])).tolist()
    payload.update(t_end=0.002, sample_every=5)
    path = tmp_path / "quartic_phi.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    want = _direct_samples(load_config(str(path)))
    got = _snapshots(path, tmp_path / "out")
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_simulate_keeps_a_drift_cubic_march_byte_for_byte(tmp_path):
    path = CONFIGS / "family_a_verify.json"
    cfg = dataclasses.replace(load_config(str(path)), t_end=0.01, sample_every=20)
    payload = json.loads(path.read_text())
    payload.update(t_end=0.01, sample_every=20)
    short = tmp_path / "short.json"
    short.write_text(json.dumps(payload), encoding="utf-8")
    want = _direct_samples(cfg)
    got = _snapshots(short, tmp_path / "out")
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
