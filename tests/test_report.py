import ast
import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from cnls_gauge import (
    RunConfig,
    SimState,
    apply_gauge,
    compute_generator,
    dumps_config,
    evolve,
    load_config,
    phase_residuals,
)
import cnls_gauge.solver as solver
from cnls_gauge.cli import main, run_convergence, run_equivalence
from cnls_gauge.report import sweep, write_sweep_csv
from cnls_gauge.solver import BlowUpError, _march, _norms_of

TWO_PI = 2.0 * np.pi
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def family_b_base(t_end=0.1, dt=5e-4, n=128):
    # unit mean density per species (Parseval over the mode powers) keeps
    # the generator ramp winding an exact integer
    a1 = float(np.sqrt(1.0 - 0.04**2 - 0.02**2 - 0.02**2))
    a2 = float(np.sqrt(1.0 - 0.03**2 - 0.015**2))
    return RunConfig.from_dict({
        "grid": {"n_points": n, "x_min": 0.0, "x_max": TWO_PI},
        "q": 2,
        "A": [1.0, 1.0],
        "nonlinearity": {
            "family": "derivative",
            "beta": [[0.4, -0.2], [0.1, 0.5]],
            "gamma": [[0.3, 0.2], [-0.2, 0.4]],
            "delta": [[1.0, 0.0], [0.0, 1.0]],
            "lambda": [[[0.3, 0.1], [0.1, -0.2]], [[0.2, 0.0], [0.0, 0.3]]],
        },
        "initial": [
            {"modes": [
                {"mode": 0, "re": a1, "im": 0.0},
                {"mode": 1, "re": 0.04, "im": 0.0},
                {"mode": 2, "re": 0.0, "im": 0.02},
                {"mode": -1, "re": 0.02, "im": 0.0},
            ]},
            {"modes": [
                {"mode": 0, "re": a2, "im": 0.0},
                {"mode": -1, "re": 0.0, "im": 0.03},
                {"mode": 3, "re": 0.015, "im": 0.0},
            ]},
        ],
        "dt": dt,
        "t_end": t_end,
        "sample_every": 10_000,
        "output_dir": "out",
        "tolerance": 1e-6,
    })


def test_single_value_sweep_matches_direct_run():
    base = family_b_base()
    result = sweep(base, "dt", [5e-4])
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.status == "ok"
    direct = run_equivalence(base)
    _, _, order, _ = run_convergence(base)
    assert row.equivalence_gap == direct.final_density_diff
    assert row.norm_drift == float(abs(direct.final_norm_drift).max())
    assert row.observed_order == order


def test_sweep_over_dt_gap_decreases_monotonically():
    base = family_b_base()
    result = sweep(base, "dt", [5e-4, 2.5e-4, 1.25e-4])
    gaps = [row.equivalence_gap for row in result.rows]
    assert all(row.status == "ok" for row in result.rows)
    assert gaps[0] > gaps[1] > gaps[2]


def test_sweep_fractional_ramp_rows_pass(tmp_path):
    base = family_b_base(t_end=0.05)
    # delta broadcasts into the whole coupling table; with unit mean
    # densities the winding is 2*delta, so 0.5 gives an integer winding
    # and 0.3 a fractional one
    result = sweep(base, "nonlinearity.delta", [0.5, 0.3])
    for row in result.rows:
        assert row.status == "ok" and row.exit_code == 0
        assert row.equivalence_gap < 1e-6

    out = tmp_path / "sweep.csv"
    write_sweep_csv(result, out)
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "nonlinearity.delta,norm_drift,equivalence_gap,observed_order,"
        "status,exit_code,message"
    )
    assert all(line.endswith(",ok,0,") for line in lines[1:])


def family_a_base(t_end=0.05, dt=2.5e-4):
    # drift-cubic: the generator ramp -delta/(2A) is amplitude-independent,
    # so amplitude sweeps keep the gauged field periodic
    return RunConfig.from_dict({
        "grid": {"n_points": 128, "x_min": 0.0, "x_max": TWO_PI},
        "q": 2,
        "A": [1.0, 0.5],
        "nonlinearity": {
            "family": "drift_cubic",
            "delta": [2.0, 1.0],
            "gamma": [0.4, 0.3],
        },
        "initial": [
            {"modes": [{"mode": 0, "re": 0.28, "im": 0.0},
                       {"mode": 1, "re": 0.02, "im": 0.01}]},
            {"modes": [{"mode": 0, "re": 0.25, "im": 0.0},
                       {"mode": -1, "re": 0.0, "im": 0.015}]},
        ],
        "dt": dt,
        "t_end": t_end,
        "sample_every": 10_000,
        "output_dir": "out",
        "tolerance": 1e-6,
    })


def test_sweep_over_amplitude_norm_drift_stays_small():
    base = family_a_base()
    result = sweep(base, "amplitude", [0.01, 0.05, 0.1])
    for row in result.rows:
        assert row.status == "ok"
        assert row.norm_drift < 1e-8


def test_sweep_rejects_unknown_key():
    base = family_b_base(t_end=0.05)
    result = sweep(base, "not.a.key", [1.0])
    assert result.rows[0].status == "failed"
    assert result.rows[0].exit_code == 1


@pytest.mark.parametrize("axis", ["A.x", "A.5", "A.-1", "initial.x.amplitude"])
def test_sweep_bad_list_index_fails_row_with_exit_1(tmp_path, axis):
    cfg = tmp_path / "config.json"
    cfg.write_text(dumps_config(family_a_base()), encoding="utf-8")
    argv = ["verify", str(cfg), "--sweep", f"{axis}=1", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert row[header.index("status")] == "failed"
    assert row[header.index("exit_code")] == "1"
    assert "index" in row[header.index("message")]


def test_sweep_vacuum_row_fails_with_exit_2():
    base = family_a_base()
    result = sweep(base, "amplitude", [0.0, 0.05])
    assert len(result.rows) == 2
    assert result.rows[0].status == "failed"
    assert result.rows[0].exit_code == 2
    assert result.rows[1].status == "ok"


def test_equivalence_samples_at_evolve_record_times():
    cfg = dataclasses.replace(family_a_base(), sample_every=30)
    assert cfg.n_steps % cfg.sample_every != 0
    psi0 = SimState(
        t=0.0,
        fields=cfg.build_initial(cfg.build_grid()),
        spec=cfg.build_family_spec(),
        A=cfg.build_dispersion(),
    )
    _, records = evolve(psi0, cfg.dt, cfg.t_end, cfg.sample_every)
    assert run_equivalence(cfg).times == [r.t for r in records]


@pytest.mark.parametrize(
    "name, delta",
    [("family_b_sample", None), ("family_a_verify", None), ("family_a_verify", [1.0, 1.0])],
    ids=["derivative", "drift_cubic", "fractional_ramp"],
)
def test_equivalence_t0_row_is_a_fresh_sample(tmp_path, name, delta):
    # the t = 0 row has the bytes of a sample computed afresh from the
    # initial fields and their gauge image
    payload = json.loads((CONFIGS / f"{name}.json").read_text())
    payload.update(t_end=2 * payload["dt"], sample_every=1)
    if delta is not None:
        payload["nonlinearity"]["delta"] = delta
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["verify", str(path), "--output-dir", str(tmp_path / "out")]) == 0

    cfg = load_config(path)
    A, spec = cfg.build_dispersion(), cfg.build_family_spec()
    psi0 = cfg.build_initial(cfg.build_grid())
    gen = compute_generator(spec, psi0, A)
    phi0 = apply_gauge(psi0, gen)
    phase, anchored = phase_residuals(psi0, phi0, gen)
    fresh = [0.0, *np.abs(phi0.rho - psi0.rho).max(axis=-1), *phase, *anchored]
    with open(tmp_path / "out" / "equivalence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert rows[1] == [repr(float(v)) for v in fresh]


@pytest.mark.parametrize("name", ["family_b_sample", "family_a_verify"],
                         ids=["lockstep", "stacked"])
def test_equivalence_computes_one_generator_per_row(tmp_path, monkeypatch, name):
    # the t = 0 row reuses the generator that gauged the initial state
    import cnls_gauge.report as report

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compute_generator(*args, **kwargs)

    monkeypatch.setattr(report, "compute_generator", counted)
    result = run_equivalence(_short_config(tmp_path, name))
    assert len(result.times) == 4
    assert len(calls) == len(result.times)


def _short_config(tmp_path, name, **nonlinearity):
    # a shipped config cut to 40 steps, sampled every 15, so the march takes
    # merged split calls and a short last interval
    payload = json.loads((CONFIGS / f"{name}.json").read_text())
    payload.update(t_end=40 * payload["dt"], sample_every=15)
    payload["nonlinearity"].update(nonlinearity)
    return _write(tmp_path, payload)


def _drift_cubic_q3(tmp_path):
    # A_2 = -0.75 is not a power of two, so a flow built with another
    # block's symbol form would round differently; delta_2 = 0 leaves a
    # zero drift row in psi's tables
    payload = json.loads((CONFIGS / "family_a_verify.json").read_text())
    payload.update(q=3, A=[1.0, -0.75, 0.5], t_end=40 * payload["dt"], sample_every=15)
    payload["nonlinearity"].update(delta=[2.0, 0.0, -1.0], gamma=[0.4, -0.3, 0.2])
    payload["initial"].append({"modes": [{"mode": 0, "re": 0.2, "im": 0.05},
                                         {"mode": 2, "re": 0.01, "im": 0.0}]})
    return _write(tmp_path, payload)


def _write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return load_config(path)


def _separate_marches(cfg):
    """The equivalence metrics from two marches of their own, psi's and
    phi's, each sampled afresh, and the two final fields."""
    A, spec = cfg.build_dispersion(), cfg.build_family_spec()
    tspec = cfg.build_transformed_spec(spec)
    psi0 = cfg.build_initial(cfg.build_grid())
    gen0 = compute_generator(spec, psi0, A)
    runs = [
        [s for s, sampled in _march(SimState(0.0, f, sp, A), cfg.dt, cfg.n_steps,
                                    cfg.sample_every) if sampled]
        for f, sp in ((psi0, spec), (apply_gauge(psi0, gen0), tspec))
    ]
    times, dens, phase, anchored = [], [], [], []
    for ps, fs in zip(*runs, strict=True):
        assert ps.t == fs.t
        gen = compute_generator(spec, ps.fields, A)
        times.append(ps.t)
        dens.append(np.abs(fs.fields.rho - ps.fields.rho).max(axis=-1))
        residuals = phase_residuals(ps.fields, fs.fields, gen)
        phase.append(residuals[0])
        anchored.append(residuals[1])
    norms0 = _norms_of(psi0)
    drift = (_norms_of(runs[0][-1].fields) - norms0) / norms0
    finals = [run[-1].fields.data for run in runs]
    return times, np.array(dens), np.array(phase), np.array(anchored), drift, finals


def _stepped(monkeypatch):
    # every (state, result) pair of a solver.step call
    calls = []
    real = solver.step

    def step(state, *args, **kwargs):
        calls.append((state, real(state, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(solver, "step", step)
    return calls


@pytest.mark.parametrize(
    "case", ["family_a_verify", "family_a_node", "fractional_ramp", "q3"]
)
def test_stacked_equivalence_matches_two_separate_marches(tmp_path, monkeypatch, case):
    # a density-only pair marches as one 2q-row state, whose every row has
    # the bytes of its own system's march: the off-diagonal blocks of the
    # stacked tables are zero and each block keeps its own linear flow
    if case == "q3":
        cfg = _drift_cubic_q3(tmp_path)
    elif case == "fractional_ramp":
        cfg = _short_config(tmp_path, "family_a_verify", delta=[1.0, 1.0])
    else:
        cfg = _short_config(tmp_path, case)
    calls = _stepped(monkeypatch)
    got = run_equivalence(cfg)
    assert calls and {state.fields.q for state, _ in calls} == {2 * cfg.q}
    final = calls[-1][1].fields.data
    times, dens, phase, anchored, drift, finals = _separate_marches(cfg)
    assert final.tobytes() == np.concatenate(finals).tobytes()
    assert got.times == times
    assert got.density_diff.tobytes() == dens.tobytes()
    assert got.phase_residual.tobytes() == phase.tobytes()
    assert got.phase_anchored.tobytes() == anchored.tobytes()
    assert got.final_norm_drift.tobytes() == drift.tobytes()
    if case == "fractional_ramp":
        gen = compute_generator(cfg.build_family_spec(),
                                cfg.build_initial(cfg.build_grid()), cfg.build_dispersion())
        assert not gen.ramp_is_periodic()


def test_derivative_pair_steps_psi_and_phi_as_separate_states(monkeypatch):
    cfg = load_config(CONFIGS / "family_b_sample.json")
    cfg = dataclasses.replace(cfg, t_end=4 * cfg.dt, sample_every=2)
    calls = _stepped(monkeypatch)
    run_equivalence(cfg)
    assert [state.fields.q for state, _ in calls] == [cfg.q] * 8


def test_blow_up_inside_a_stacked_call_exits_2(tmp_path, monkeypatch, capsys):
    cfg = _short_config(tmp_path, "family_a_verify")
    message = "field magnitude exceeded blow-up threshold at t=0.000125"

    def check(new, t, max_abs):
        assert new.shape[0] == 2 * cfg.q
        raise BlowUpError(message, t=t)

    monkeypatch.setattr(solver, "_check", check)
    out = tmp_path / "out"
    assert main(["verify", str(tmp_path / "config.json"), "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_phase_residual_skips_vacuum_nodes(tmp_path):
    # family_a_node's species 1 vanishes at x = pi, a grid node, where the
    # phase of psi jumps by pi; the t = 0 row reads the measured nodes only
    _short_config(tmp_path, "family_a_node")
    out = tmp_path / "out"
    assert main(["verify", str(tmp_path / "config.json"), "--output-dir", str(out)]) == 0
    with open(out / "equivalence.csv", newline="") as fh:
        header, first, *_ = csv.reader(fh)
    assert float(first[header.index("t")]) == 0.0
    assert float(first[header.index("phase_res_1")]) <= 1e-12


def _imported_modules(path: Path):
    """Absolute names of the modules (and package members) ``path`` imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "cnls_gauge" if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_only_the_entry_points_import_the_cli():
    package = Path(__file__).resolve().parents[1] / "src" / "cnls_gauge"
    importers = {
        path.name
        for path in package.glob("*.py")
        if "cnls_gauge.cli" in set(_imported_modules(path))
    }
    assert importers <= {"cli.py", "__main__.py"}
