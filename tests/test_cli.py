import csv
import json
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from cnls_gauge import ComplexFieldSet, TransformedSpec, make_grid
from cnls_gauge.cli import _build_parser, main, read_snapshot, write_snapshot

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "cnls_gauge", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def small_linear_config(tmp_path, out_name="out", **overrides):
    payload = {
        "grid": {"n_points": 128, "x_min": 0.0, "x_max": 2 * np.pi},
        "q": 1,
        "A": [1.0],
        "nonlinearity": {"family": "linear"},
        "initial": [{"modes": [{"mode": 1, "re": 1.0, "im": 0.0}]}],
        "dt": 2e-4,
        "t_end": 0.05,
        "sample_every": 50,
        "output_dir": str(tmp_path / out_name),
    }
    payload.update(overrides)
    return payload


def small_family_a_config(tmp_path, **overrides):
    payload = {
        "grid": {"n_points": 128, "x_min": 0.0, "x_max": 2 * np.pi},
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
        "dt": 2e-4,
        "t_end": 0.1,
        "sample_every": 100,
        "output_dir": str(tmp_path / "out"),
        "tolerance": 1e-6,
    }
    payload.update(overrides)
    return payload


# --- classify --------------------------------------------------------------


def test_classify_chen_lee_liu():
    res = run_cli("classify", "--beta", "-2", "--gamma", "-2", "--delta", "1",
                  "--lambda", "0")
    assert res.returncode == 0
    assert res.stdout.split() == ["ChenLeeLiu"]


def test_classify_jackiw():
    res = run_cli("classify", "--beta", "1", "--gamma", "2", "--delta", "0",
                  "--lambda", "0")
    assert res.returncode == 0
    assert res.stdout.split() == ["Jackiw"]


def test_classify_generic():
    res = run_cli("classify", "--beta", "1", "--gamma", "1", "--delta", "1",
                  "--lambda", "1")
    assert res.returncode == 0
    assert res.stdout.split() == ["Generic"]


def test_classify_overlapping_labels_one_per_line():
    res = run_cli("classify", "--beta", "1", "--gamma", "-1", "--delta", "0",
                  "--lambda", "0")
    assert res.returncode == 0
    assert res.stdout.split() == ["Jackiw", "ChenLeeLiu", "KaupNewell"]


def test_classify_non_numeric_exits_1():
    res = run_cli("classify", "--beta", "x", "--gamma", "1", "--delta", "0",
                  "--lambda", "0")
    assert res.returncode == 1
    assert "beta" in res.stderr


# --- simulate ---------------------------------------------------------------


def test_simulate_linear(tmp_path):
    cfg = write_config(tmp_path, small_linear_config(tmp_path))
    res = run_cli("simulate", str(cfg))
    assert res.returncode == 0, res.stderr
    rows = read_csv(tmp_path / "out" / "diagnostics.csv")
    assert rows[0] == ["t", "N_1", "drift_1", "cont_res_1"]
    assert len(rows) - 1 == int(0.05 / (2e-4 * 50)) + 1
    final_drift = abs(float(rows[-1][2]))
    assert final_drift < 1e-10


def test_simulate_family_b_sample_row_count(tmp_path):
    res = run_cli(
        "simulate", str(CONFIGS / "family_b_sample.json"),
        "--output-dir", str(tmp_path / "fb"),
    )
    assert res.returncode == 0, res.stderr
    rows = read_csv(tmp_path / "fb" / "diagnostics.csv")
    # t_end/(dt*sample_every) + 1 data rows
    assert len(rows) - 1 == int(round(0.05 / (1e-4 * 100))) + 1
    assert rows[0][:3] == ["t", "N_1", "N_2"]


def test_simulate_family_b_sample_continuity_residual_is_roundoff(tmp_path):
    # instantaneous residual; a centred time difference read 4e-10 here
    out = tmp_path / "fb"
    status = main(["simulate", str(CONFIGS / "family_b_sample.json"), "--output-dir", str(out)])
    assert status == 0
    rows = read_csv(out / "diagnostics.csv")
    assert rows[0][-2:] == ["cont_res_1", "cont_res_2"]
    assert max(float(v) for v in rows[-1][-2:]) <= 1e-11


@pytest.mark.parametrize(
    "command, config",
    [
        ("simulate", "family_b_sample.json"),
        ("verify", "family_a_verify.json"),
        ("convergence", "family_b_convergence.json"),
    ],
)
def test_command_steps_before_writing_any_output(tmp_path, monkeypatch, command, config):
    # solver.step is the first work of every march, and no command writes
    # before it: sample 0 is recorded (and its snapshot written) only once
    # the step after it exists. The benchmark's set-up probe relies on this.
    import cnls_gauge.solver as solver

    class Sentinel(Exception):
        pass

    def first_step(*args, **kwargs):
        raise Sentinel

    monkeypatch.setattr(solver, "step", first_step)
    out = tmp_path / "out"
    with pytest.raises(Sentinel):
        main([command, str(CONFIGS / config), "--output-dir", str(out)])
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, config",
    [
        ("simulate", "family_b_sample.json"),
        ("verify", "family_b_sample.json"),
        ("verify", "family_a_verify.json"),  # split psi and phi, one stacked march
    ],
    ids=["simulate", "verify", "verify-split"],
)
def test_march_frees_the_initial_fields_after_its_first_step(
    tmp_path, monkeypatch, command, config
):
    # No command holds its initial fields (or, for verify, the gauged ones)
    # through a march: before either march takes its second step, their data
    # is freed. A split phi march steps once after psi's first step, as an
    # RK4 phi march does; psi's first step is verify's first step. simulate
    # marches the gauge image phi of this flux-coupled psi, and drops psi at
    # set-up.
    import cnls_gauge.report as report
    import cnls_gauge.solver as solver
    from cnls_gauge.config import RunConfig

    class Sentinel(Exception):
        pass

    refs = []

    def tracked(build):
        def built(*args, **kwargs):
            fields = build(*args, **kwargs)
            refs.append(weakref.ref(fields.data))
            return fields
        return built

    monkeypatch.setattr(RunConfig, "build_initial", tracked(RunConfig.build_initial))
    monkeypatch.setattr(report, "apply_gauge", tracked(report.apply_gauge))
    real_step = solver.step
    specs = []

    def step(state, *args, **kwargs):
        specs.append(state.spec)
        if state.t > 0.0:
            assert refs and all(ref() is None for ref in refs)
            raise Sentinel
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr(solver, "step", step)
    with pytest.raises(Sentinel):
        main([command, str(CONFIGS / config), "--output-dir", str(tmp_path / "out")])
    assert len(refs) == {"simulate": 1, "verify": 2}[command]
    assert isinstance(specs[0], TransformedSpec) == (command == "simulate")


def test_simulate_mismatched_dispersion_exits_1(tmp_path):
    payload = small_linear_config(tmp_path)
    payload["q"] = 2
    payload["A"] = [1.0, 1.0, 1.0]
    payload["initial"] = payload["initial"] * 2
    cfg = write_config(tmp_path, payload)
    res = run_cli("simulate", str(cfg))
    assert res.returncode == 1
    assert "'A'" in res.stderr


def test_simulate_blow_up_exits_2_with_partial_csv(tmp_path):
    payload = small_linear_config(tmp_path)
    payload["dt"] = 2e-3  # far above the stability bound for n=128
    payload["t_end"] = 2.0
    payload["sample_every"] = 10
    cfg = write_config(tmp_path, payload)
    res = run_cli("simulate", str(cfg))
    assert res.returncode == 2
    assert (tmp_path / "out" / "diagnostics.csv").exists()


def test_simulate_vacuum_mid_march_exits_2_with_partial_csv(tmp_path):
    # dt above the step bound: the density collapses before t_end
    payload = json.loads((CONFIGS / "family_b_sample.json").read_text())
    payload.update(dt=2e-4, t_end=0.4, sample_every=20, output_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path, payload)
    res = run_cli("simulate", str(cfg))
    assert res.returncode == 2
    assert "error: density below floor" in res.stderr
    assert "Traceback" not in res.stderr
    rows = read_csv(tmp_path / "out" / "diagnostics.csv")
    snaps = list((tmp_path / "out").glob("snapshot_*.raw"))
    assert len(rows) - 1 == len(snaps) >= 2
    assert float(rows[-1][0]) < 0.4


def test_simulate_snapshots_roundtrip(tmp_path):
    cfg = write_config(tmp_path, small_linear_config(tmp_path))
    res = run_cli("simulate", str(cfg))
    assert res.returncode == 0
    snaps = sorted((tmp_path / "out").glob("snapshot_*.raw"))
    assert len(snaps) == int(0.05 / (2e-4 * 50)) + 1
    data0, t0 = read_snapshot(snaps[0].with_suffix(""))
    assert t0 == 0.0
    x = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    assert np.abs(data0[0] - np.exp(1j * x)).max() < 1e-15
    sidecar = snaps[0].with_suffix(".txt").read_text()
    assert "shape=1,128" in sidecar
    assert "byte_order=little" in sidecar


def test_snapshot_roundtrip_is_bit_exact(tmp_path):
    # signed zeros and infinite parts come back as written, with no warning
    data = np.array([
        [complex(-0.0, 1.0), complex(1.0, np.inf), complex(-np.inf, -0.0), 0.5 - 0.25j],
        [complex(0.0, -0.0), complex(np.inf, -np.inf), complex(-0.0, -0.0), 3.0 + 4.0j],
    ])
    fields = ComplexFieldSet(np.tile(data, 2), make_grid(8, 0.0, 2 * np.pi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_snapshot(tmp_path / "snap", fields, 0.125)
        back, t = read_snapshot(tmp_path / "snap")
    assert t == 0.125
    assert back.dtype == np.complex128 and back.shape == (2, 8)
    assert back.tobytes() == fields.data.astype("<c16").tobytes()
    assert (tmp_path / "snap.raw").read_bytes() == fields.data.astype("<c16").tobytes()


def test_simulate_determinism(tmp_path):
    cfg = write_config(tmp_path, small_linear_config(tmp_path, out_name="a"))
    cfg2 = write_config(
        tmp_path, small_linear_config(tmp_path, out_name="b"), name="config2.json"
    )
    assert run_cli("simulate", str(cfg)).returncode == 0
    assert run_cli("simulate", str(cfg2)).returncode == 0
    bytes_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert bytes_a == bytes_b


# --- transform ---------------------------------------------------------------


def coefficient_map(rows):
    out = {}
    for table, k, j, i, value in rows[1:]:
        out[(table, k, j, i)] = float(value)
    return out


def test_transform_chen_lee_liu(tmp_path):
    payload = {
        "grid": {"n_points": 128, "x_min": 0.0, "x_max": 2 * np.pi},
        "q": 1,
        "A": [1.0],
        "nonlinearity": {
            "family": "derivative",
            "beta": [[-2.0]], "gamma": [[-2.0]], "delta": [[1.0]],
            "lambda": [[[0.0]]],
        },
        "dt": 1e-4,
        "t_end": 0.1,
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, payload)
    res = run_cli("transform", str(cfg))
    assert res.returncode == 0, res.stderr
    rows = read_csv(tmp_path / "out" / "transformed_coefficients.csv")
    assert rows[0] == ["table", "k", "j", "i", "value"]
    coeffs = coefficient_map(rows)
    assert coeffs[("drift_self", "1", "1", "")] == 0.0
    assert coeffs[("drift_cross", "1", "1", "")] == -4.0
    assert coeffs[("quartic", "1", "1", "1")] == 3.0


def test_transform_zero_delta_passthrough(tmp_path):
    payload = {
        "grid": {"n_points": 128, "x_min": 0.0, "x_max": 2 * np.pi},
        "q": 1,
        "A": [1.0],
        "nonlinearity": {
            "family": "derivative",
            "beta": [[0.7]], "gamma": [[-0.4]], "delta": [[0.0]],
            "lambda": [[[0.9]]],
        },
        "dt": 1e-4,
        "t_end": 0.1,
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, payload)
    assert run_cli("transform", str(cfg)).returncode == 0
    coeffs = coefficient_map(read_csv(tmp_path / "out" / "transformed_coefficients.csv"))
    assert coeffs[("drift_self", "1", "1", "")] == 0.7
    assert coeffs[("drift_cross", "1", "1", "")] == -0.4
    assert coeffs[("quartic", "1", "1", "1")] == 0.9


def test_transform_rows_in_table_order(tmp_path):
    payload = small_family_a_config(tmp_path)
    payload["phi_coefficients"] = {"cubic": [[9.0, 9.0], [9.0, 9.0]]}
    cfg = write_config(tmp_path, payload)
    assert main(["transform", str(cfg)]) == 0
    rows = read_csv(tmp_path / "out" / "transformed_coefficients.csv")
    assert rows[0] == ["table", "k", "j", "i", "value"]
    pairs = [("1", "1", ""), ("1", "2", ""), ("2", "1", ""), ("2", "2", "")]
    assert [tuple(r[:4]) for r in rows[1:]] == [
        ("const_shift", "1", "", ""), ("const_shift", "2", "", ""),
        *(("cubic", *p) for p in pairs),
        *(("drift_self", *p) for p in pairs),
        *(("drift_cross", *p) for p in pairs),
        ("quartic", "1", "1", "1"), ("quartic", "1", "1", "2"),
        ("quartic", "1", "2", "1"), ("quartic", "1", "2", "2"),
        ("quartic", "2", "1", "1"), ("quartic", "2", "1", "2"),
        ("quartic", "2", "2", "1"), ("quartic", "2", "2", "2"),
    ]
    # the override is what transform writes
    assert [float(r[4]) for r in rows[1:] if r[0] == "cubic"] == [9.0] * 4


def test_transform_case1_all_zero(tmp_path):
    from cnls_gauge import DispersionMatrix, case1_coeffs

    A = DispersionMatrix([1.0, 2.0])
    spec = case1_coeffs([[0.5, -0.2], [0.1, 0.8]], A)
    payload = {
        "grid": {"n_points": 128, "x_min": 0.0, "x_max": 2 * np.pi},
        "q": 2,
        "A": [1.0, 2.0],
        "nonlinearity": {
            "family": "derivative",
            "beta": spec.beta.tolist(),
            "gamma": spec.gamma.tolist(),
            "delta": spec.delta.tolist(),
            "lambda": spec.lam.tolist(),
        },
        "dt": 1e-4,
        "t_end": 0.1,
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, payload)
    assert run_cli("transform", str(cfg)).returncode == 0
    rows = read_csv(tmp_path / "out" / "transformed_coefficients.csv")
    values = [abs(float(r[4])) for r in rows[1:]]
    assert max(values) < 1e-12


def test_transform_writes_gauged_snapshot(tmp_path):
    payload = small_family_a_config(tmp_path)
    cfg = write_config(tmp_path, payload)
    res = run_cli("transform", str(cfg))
    assert res.returncode == 0, res.stderr
    phi, t0 = read_snapshot(tmp_path / "out" / "phi_initial")
    assert t0 == 0.0
    # densities of the gauged state match the original initial data
    x = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    psi0 = np.array(
        [0.28 + 0.02 * np.exp(1j * x) + 0.01j * np.exp(1j * x),
         0.25 + 0.015j * np.exp(-1j * x)]
    )
    assert np.abs(np.abs(phi) ** 2 - np.abs(psi0) ** 2).max() < 1e-14


def test_transform_fractional_ramp_writes_exact_phi_samples(tmp_path):
    from cnls_gauge import compute_generator, load_config, to_hydro

    payload = small_family_a_config(tmp_path)
    payload["nonlinearity"]["delta"] = [1.0, 1.0]  # ramp -1/2 for species 1
    cfg_path = write_config(tmp_path, payload)
    res = run_cli("transform", str(cfg_path))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "out" / "transformed_coefficients.csv").exists()
    phi, t0 = read_snapshot(tmp_path / "out" / "phi_initial")
    assert t0 == 0.0
    cfg = load_config(str(cfg_path))
    psi0 = cfg.build_initial(cfg.build_grid())
    gen = compute_generator(cfg.build_family_spec(), to_hydro(psi0), cfg.build_dispersion())
    assert not gen.ramp_is_periodic()
    assert np.abs(phi - np.exp(1j * gen.values()) * psi0.data).max() < 1e-14


# --- verify ------------------------------------------------------------------


def test_verify_family_a(tmp_path):
    cfg = write_config(tmp_path, small_family_a_config(tmp_path))
    res = run_cli("verify", str(cfg))
    assert res.returncode == 0, res.stderr
    rows = read_csv(tmp_path / "out" / "equivalence.csv")
    assert rows[0] == ["t", "dens_diff_1", "dens_diff_2", "phase_res_1", "phase_res_2",
                       "phase_anch_1", "phase_anch_2"]
    final = [float(v) for v in rows[-1][1:]]
    assert max(final) < 1e-6


def test_verify_zero_drift_identical_systems(tmp_path):
    payload = small_family_a_config(tmp_path)
    payload["nonlinearity"]["delta"] = [0.0, 0.0]
    cfg = write_config(tmp_path, payload)
    res = run_cli("verify", str(cfg))
    assert res.returncode == 0, res.stderr
    rows = read_csv(tmp_path / "out" / "equivalence.csv")
    dens = [float(r[1]) for r in rows[1:]] + [float(r[2]) for r in rows[1:]]
    assert max(dens) < 1e-12


def test_verify_perturbed_coefficients_exit_2(tmp_path):
    payload = small_family_a_config(tmp_path)
    # correct transformed tables, with one cubic entry off by 0.1
    payload["phi_coefficients"] = {
        "cubic": [[-0.4 + 0.1, -0.6], [-0.8, -0.3]],
        "const_shift": [1.0, 0.5],
    }
    cfg = write_config(tmp_path, payload)
    res = run_cli("verify", str(cfg))
    assert res.returncode == 2
    assert "tolerance" in res.stderr


def test_verify_fractional_ramp_passes(tmp_path):
    payload = small_family_a_config(tmp_path)
    payload["nonlinearity"]["delta"] = [1.0, 1.0]  # ramp -1/2 for species 1
    cfg = write_config(tmp_path, payload)
    res = run_cli("verify", str(cfg))
    assert res.returncode == 0, res.stderr
    rows = read_csv(tmp_path / "out" / "equivalence.csv")
    assert max(float(v) for v in rows[-1][1:3]) < 1e-6


@pytest.mark.parametrize(
    "name", ["family_b_sample", "family_b_convergence", "linear_plane_wave", "family_a_node"]
)
def test_verify_shipped_config_exits_0(tmp_path, name):
    argv = ["verify", str(CONFIGS / f"{name}.json"), "--output-dir", str(tmp_path)]
    assert main(argv) == 0


def test_simulate_marches_the_node_config_through_its_node(tmp_path):
    # species 1 = 0.3 (1 + e^{ix}) vanishes at x = pi; the drift-cubic split
    # step divides by rho nowhere, so the run keeps every norm
    argv = ["simulate", str(CONFIGS / "family_a_node.json"), "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    header, *rows = read_csv(tmp_path / "diagnostics.csv")
    assert header[3:5] == ["drift_1", "drift_2"] and float(rows[-1][0]) == pytest.approx(1.0)
    values = np.array(rows, dtype=float)
    assert np.isfinite(values).all()
    assert not (np.abs(values[:, 3:5]).max() > 1e-12)


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_the_node_config_derivative_twin_still_raises(tmp_path, capsys, command):
    # family_b_sample with the node config's species 1: its stages divide by
    # rho, so the node stops the march in its first stage
    payload = json.loads((CONFIGS / "family_b_sample.json").read_text())
    node = json.loads((CONFIGS / "family_a_node.json").read_text())
    payload.update(initial=[node["initial"][0], payload["initial"][1]],
                   output_dir=str(tmp_path / "out"), t_end=0.001)
    cfg = write_config(tmp_path, payload)
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: density below floor during evolution: species 1 at t=0.0\n"
    )


def test_verify_tolerance_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, small_family_a_config(tmp_path))
    res = run_cli("verify", str(cfg), "--tolerance", "1e-18")
    assert res.returncode == 2


def test_verify_sweep_writes_csv(tmp_path):
    payload = small_family_a_config(tmp_path)
    payload["t_end"] = 0.02
    cfg = write_config(tmp_path, payload)
    res = run_cli("verify", str(cfg), "--sweep", "dt=0.0002,0.0001")
    assert res.returncode == 0, res.stderr
    rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert rows[0][0] == "dt"
    assert [r[0] for r in rows[1:]] == ["0.0002", "0.0001"]
    assert all(r[4] == "ok" for r in rows[1:])


def test_verify_sweep_leaves_an_order_at_roundoff_blank(tmp_path):
    # the plane wave's dt and dt/2 runs agree to roundoff at either A, where
    # convergence measures no order; the rows still pass
    out = tmp_path / "out"
    args = ["verify", str(CONFIGS / "linear_plane_wave.json"), "--output-dir", str(out)]
    assert main([*args, "--sweep", "A=1.0,2.0"]) == 0
    rows = read_csv(out / "sweep.csv")
    assert [r[0] for r in rows[1:]] == ["1.0", "2.0"]
    assert [r[3:6] for r in rows[1:]] == [["", "ok", "0"], ["", "ok", "0"]]


def test_verify_sweep_bad_key_exits_1(tmp_path):
    cfg = write_config(tmp_path, small_family_a_config(tmp_path))
    res = run_cli("verify", str(cfg), "--sweep", "dt")
    assert res.returncode == 1


# --- convergence ---------------------------------------------------------------


def test_convergence_linear(tmp_path):
    payload = small_linear_config(tmp_path)
    payload["dt"] = 5e-4
    payload["t_end"] = 0.2
    payload["initial"] = [
        {"modes": [{"mode": 1, "re": 1.0, "im": 0.0},
                   {"mode": 3, "re": 0.3, "im": 0.1}]}
    ]
    cfg = write_config(tmp_path, payload)
    res = run_cli("convergence", str(cfg))
    assert res.returncode == 0, res.stderr
    rows = read_csv(tmp_path / "out" / "convergence.csv")
    assert rows[0] == ["dt", "diff_to_half_dt", "observed_order"]
    order = float(rows[1][2])
    assert 3.5 <= order < 4.5


def test_convergence_above_bound_exits_2(tmp_path):
    payload = small_linear_config(tmp_path)
    payload["dt"] = 2e-3  # above the 2 sqrt(2) dx^2 / (pi^2 A) bound for n=128
    payload["t_end"] = 0.2
    cfg = write_config(tmp_path, payload)
    res = run_cli("convergence", str(cfg))
    assert res.returncode == 2
    assert "stability bound" in res.stderr


@pytest.mark.parametrize("config, system, warns", [
    pytest.param("family_a_verify", "phi", False, id="phi-False"),
    pytest.param("family_a_verify", "psi", False, id="drift-psi-False"),
    pytest.param("family_b_sample", "psi", True, id="psi-True"),
])
def test_convergence_warns_only_for_an_rk4_march(tmp_path, config, system, warns):
    # family_a_verify's psi and phi tables are density-only, so their
    # marches take the split step, which has no step bound; a
    # derivative-family psi march is RK4
    from cnls_gauge import RunConfig, stability_bound

    payload = json.loads((CONFIGS / f"{config}.json").read_text())
    payload.update(dt=2e-4, t_end=2e-3, sample_every=10, system=system,
                   output_dir=str(tmp_path / "out"))
    cfg = RunConfig.from_dict(payload)
    assert cfg.dt > stability_bound(cfg.build_grid(), cfg.build_dispersion())
    res = run_cli("convergence", str(write_config(tmp_path, payload)))
    assert ("stability bound" in res.stderr) == warns, res.stderr


def test_convergence_at_roundoff_reports_unmeasurable_order(tmp_path):
    # the linear plane wave's dt and dt/2 runs agree to roundoff
    res = run_cli(
        "convergence", str(CONFIGS / "linear_plane_wave.json"), "--output-dir", str(tmp_path)
    )
    assert res.returncode == 2
    first = read_csv(tmp_path / "convergence.csv")[1]
    e1 = float(first[1])
    assert e1 < 1e-13
    # no order is written where the command says none can be measured
    assert first[2] == ""
    assert "order cannot be measured at this dt" in res.stderr
    assert f"{e1:.3e}" in res.stderr
    assert "below 3.5" not in res.stderr


# --- shared flags -----------------------------------------------------------


def test_dump_config_roundtrip(tmp_path):
    from cnls_gauge import RunConfig, load_config

    res = run_cli("simulate", str(CONFIGS / "family_b_sample.json"), "--dump-config")
    assert res.returncode == 0
    reparsed = RunConfig.from_dict(json.loads(res.stdout))
    assert reparsed == load_config(str(CONFIGS / "family_b_sample.json"))
    # dumping the reparse gives identical text
    from cnls_gauge import dumps_config

    assert dumps_config(reparsed) == res.stdout.rstrip("\n")


def test_missing_config_file_exits_1(tmp_path):
    res = run_cli("simulate", str(tmp_path / "nope.json"))
    assert res.returncode == 1


@pytest.mark.parametrize("kind, message", [
    pytest.param("directory", "Is a directory", id="directory"),
    pytest.param("not_utf8", "not UTF-8 text", id="not_utf8"),
])
def test_unreadable_config_path_exits_1(tmp_path, capsys, kind, message):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'\xff\xfe{"q": 1}')
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key '<path>': cannot read") and message in err


@pytest.mark.parametrize("args", [
    pytest.param(["simulate"], id="simulate"),
    pytest.param(["transform"], id="transform"),
    pytest.param(["verify"], id="verify"),
    pytest.param(["convergence"], id="convergence"),
    pytest.param(["verify", "--sweep", "dt=2.5e-4"], id="sweep"),
])
@pytest.mark.parametrize("under, message", [
    pytest.param(False, "File exists", id="a_file"),
    pytest.param(True, "Not a directory", id="under_a_file"),
])
def test_output_dir_that_cannot_be_made_exits_1(tmp_path, capsys, args, under, message):
    cfg = write_config(tmp_path, small_family_a_config(tmp_path, dt=2.5e-4, t_end=2.5e-3))
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n", encoding="utf-8")
    out = blocker / "out" if under else blocker
    assert main([args[0], str(cfg), *args[1:], "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: config key 'output_dir': cannot create {str(out)!r}: {message}\n"
    )
    assert blocker.read_text(encoding="utf-8") == "a file\n"


def test_shipped_configs_parse():
    from cnls_gauge import load_config

    for name in (
        "linear_plane_wave.json",
        "family_b_sample.json",
        "family_a_verify.json",
        "family_b_convergence.json",
        "family_a_node.json",
    ):
        cfg = load_config(str(CONFIGS / name))
        assert cfg.q >= 1


def test_t_end_not_multiple_of_dt_exits_1_without_traceback(tmp_path):
    payload = small_linear_config(tmp_path)
    payload["dt"] = 0.0005
    payload["t_end"] = 0.0013
    cfg = write_config(tmp_path, payload)
    for command in ("simulate", "convergence"):
        res = run_cli(command, str(cfg))
        assert res.returncode == 1, (command, res.stderr)
        assert "error: config key 't_end'" in res.stderr
        assert "Traceback" not in res.stderr


# --- non-finite numbers ------------------------------------------------------

NAN, INF = float("nan"), float("inf")


def _set_path(payload, path, value):
    node = payload
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("tolerance",), NAN, "tolerance"),
        (("tolerance",), INF, "tolerance"),
        (("dt",), NAN, "dt"),
        (("t_end",), INF, "t_end"),
        (("A", 1), NAN, "A"),
        (("nonlinearity", "gamma", 0), NAN, "nonlinearity.gamma"),
        (("amplitude",), NAN, "amplitude"),
        (("initial", 0, "modes", 0, "re"), NAN, "initial[0].modes[0].re"),
        (("grid", "x_max"), INF, "grid.x_max"),
        (("grid", "x_max"), 10**400, "grid.x_max"),
    ],
)
def test_non_finite_config_number_exits_1_naming_its_key(tmp_path, capsys, path, value, key):
    payload = small_family_a_config(tmp_path)
    _set_path(payload, path, value)
    cfg = write_config(tmp_path, payload)
    assert main(["verify", str(cfg)]) == 1
    assert f"error: config key '{key}': expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("grid", "n_points"), 2**1100, "grid.n_points"),
        (("q",), -(2**1100), "q"),
        (("sample_every",), 2**1100, "sample_every"),
        (("initial", 0, "modes", 0, "mode"), 10**400, "initial[0].modes[0].mode"),
    ],
    ids=["n_points", "q", "sample_every", "mode"],
)
@pytest.mark.parametrize("command", ["simulate", "transform", "verify"])
def test_out_of_range_config_integer_exits_1_naming_its_key(
    tmp_path, capsys, command, path, value, key
):
    payload = small_family_a_config(tmp_path)
    _set_path(payload, path, value)
    cfg = write_config(tmp_path, payload)
    assert main([command, str(cfg)]) == 1
    err = capsys.readouterr().err
    bits = abs(value).bit_length()
    assert err == (
        f"error: config key '{key}': an integer of {bits} bits is beyond the float range\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, path, value, key",
    [
        ("family_a_verify", ("A",), [1.0, 0.5, 2.0], "A"),
        ("family_a_verify", ("nonlinearity", "delta"), [2.0], "nonlinearity.delta"),
        ("family_b_sample", ("nonlinearity", "beta", 1), [0.1], "nonlinearity.beta"),
        ("family_b_sample", ("nonlinearity", "lambda", 0, 1), [0.0],
         "nonlinearity.lambda"),
        ("family_b_sample", ("nonlinearity", "gamma", 0, 1), True, "nonlinearity.gamma"),
        ("family_a_verify", ("phi_coefficients",), {"quartic": [[0.0, 0.0], [0.0, 0.0]]},
         "phi_coefficients.quartic"),
        ("family_a_verify", ("phi_coefficients",), {"a": [0.0, 0.0]},
         "phi_coefficients.a"),
    ],
)
def test_misshapen_table_exits_1_naming_its_key(
    tmp_path, capsys, config, path, value, key
):
    payload = json.loads((CONFIGS / f"{config}.json").read_text())
    payload["output_dir"] = str(tmp_path / "out")
    _set_path(payload, path, value)
    cfg = write_config(tmp_path, payload)
    assert main(["verify", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: config key '{key}': ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("verify", "family_a_verify", "error: species 2 is identically zero (all-vacuum)\n"),
        ("transform", "family_a_verify",
         "error: species 2 is identically zero (all-vacuum)\n"),
        # the split step of a drift-cubic system marches through vacuum: the
        # derivative family's hydro stage, which divides by rho, raises
        ("simulate", "family_b_sample",
         "error: species is identically zero (all-vacuum): species 2 at t=0.0\n"),
    ],
    ids=["verify", "transform", "simulate"],
)
def test_vacuum_error_names_the_species_from_1(tmp_path, capsys, command, config, message):
    payload = json.loads((CONFIGS / f"{config}.json").read_text())
    payload["initial"][1] = {"modes": [{"mode": 0, "re": 0.0, "im": 0.0}]}
    payload.update(output_dir=str(tmp_path / "out"), t_end=0.001, sample_every=4)
    cfg = write_config(tmp_path, payload)
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err == message


def test_vacuum_mid_march_names_the_species_and_time(tmp_path, capsys):
    # dt above the step bound: species 1 collapses below the floor in a stage
    payload = json.loads((CONFIGS / "family_b_sample.json").read_text())
    payload.update(dt=2e-4, t_end=0.4, sample_every=20, output_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["simulate", str(cfg)]) == 2
    prefix, _, t = capsys.readouterr().err.partition(" at t=")
    assert prefix == "error: density below floor during evolution: species 1"
    assert abs(float(t) - 0.0088) < 1e-12  # the start time of the failing step


@pytest.mark.parametrize(
    "grid, key, message",
    [
        ({"x_min": 1.0, "x_max": 0.5}, "grid.x_max", "must exceed grid.x_min"),
        ({"x_min": 0.0, "x_max": 0.0}, "grid.x_max", "must exceed grid.x_min"),
        ({"x_min": -1e308, "x_max": 1e308}, "grid.x_max", "domain length"),
        ({"n_points": 100}, "grid.n_points", "power of two"),
        ({"x_min": 0.0, "x_max": 1e-160}, "grid.x_max", "too short"),
        ({"x_min": 0.0, "x_max": 5e-324}, "grid.x_max", "too short"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_grid_error_exits_1_naming_its_key(tmp_path, capsys, command, grid, key, message):
    payload = small_family_a_config(tmp_path)
    payload["grid"].update(grid)
    cfg = write_config(tmp_path, payload)
    assert main([command, str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"error: config key '{key}': " in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_subnormal_dispersion_exits_1_naming_A(tmp_path, capsys, command):
    payload = small_family_a_config(tmp_path)
    payload["A"] = [1e-320, -1e-320]
    cfg = write_config(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error: config key 'A': the RK4 step bound" in err and "is not finite" in err


@pytest.mark.parametrize("text", ["nan", "inf", "1e999"])
def test_non_finite_tolerance_flag_exits_1(tmp_path, capsys, text):
    cfg = write_config(tmp_path, small_family_a_config(tmp_path))
    assert main(["verify", str(cfg), "--tolerance", text]) == 1
    assert "error: config key 'tolerance'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["nan", "inf"])
def test_non_finite_sweep_value_fails_only_its_row(tmp_path, text):
    payload = small_family_a_config(tmp_path)
    payload["t_end"] = 0.02
    cfg = write_config(tmp_path, payload)
    assert main(["verify", str(cfg), "--sweep", f"dt={text},0.0002"]) == 0
    rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert [r[4:6] for r in rows[1:]] == [["failed", "1"], ["ok", "0"]]
    assert "config key 'dt'" in rows[1][6]


@pytest.mark.parametrize(
    "axis, values", [("grid.n_points", "64,128"), ("sample_every", "100,250")]
)
def test_sweep_over_an_integer_key(tmp_path, axis, values):
    payload = small_family_a_config(tmp_path)
    payload["t_end"] = 0.02
    cfg = write_config(tmp_path, payload)
    assert main(["verify", str(cfg), "--sweep", f"{axis}={values},100.5"]) == 0
    rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert rows[0][0] == axis
    assert [r[4:6] for r in rows[1:]] == [["ok", "0"], ["ok", "0"], ["failed", "1"]]
    assert rows[3][6] == f"config key '{axis}': expected an integer, got 100.5"


@pytest.mark.parametrize("flag", ["--beta", "--gamma", "--delta", "--lambda"])
@pytest.mark.parametrize("text", ["nan", "inf"])
def test_classify_non_finite_flag_exits_1(capsys, flag, text):
    argv = {"--beta": "0", "--gamma": "0", "--delta": "0", "--lambda": "0"}
    argv[flag] = text
    assert main(["classify", *(a for item in argv.items() for a in item)]) == 1
    err = capsys.readouterr().err
    assert f"config key '{flag[2:]}': expected a finite number" in err


def test_classify_flags_follow_the_derivative_tables(capsys):
    # the flags are read from DerivativeSpec.TABLES, lam under its config key
    with pytest.raises(SystemExit) as excinfo:
        main(["classify", "--help"])
    assert excinfo.value.code == 0
    usage = " ".join(capsys.readouterr().out.split())
    assert usage.startswith(
        "usage: cnls-gauge classify [-h] --beta BETA --gamma GAMMA --delta DELTA --lambda LAM"
    )


def test_verify_vacuum_initial_exits_2(tmp_path):
    payload = small_family_a_config(tmp_path)
    payload["amplitude"] = 0.0
    cfg = write_config(tmp_path, payload)
    res = run_cli("verify", str(cfg))
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


# --- gates and parse-time checks that NaN or overflow cannot slip past -------


def test_verify_nan_gap_exits_2(tmp_path, capsys, monkeypatch):
    # a NaN gap compares false against the tolerance, so the gate is written
    # as not (gap < tolerance)
    from cnls_gauge import cli
    from cnls_gauge.report import EquivalenceRun

    def nan_run(cfg):
        nan = np.full((1, cfg.q), np.nan)
        return EquivalenceRun([0.0], nan, nan, nan, np.zeros(cfg.q))

    monkeypatch.setattr(cli, "run_equivalence", nan_run)
    cfg = write_config(tmp_path, small_linear_config(tmp_path))
    assert main(["verify", str(cfg)]) == 2
    assert "equivalence gap nan exceeds tolerance" in capsys.readouterr().err


def test_verify_nan_anchored_phase_residual_exits_2(tmp_path, capsys, monkeypatch):
    from cnls_gauge import cli
    from cnls_gauge.report import EquivalenceRun

    def nan_run(cfg):
        zero, nan = np.zeros((1, cfg.q)), np.full((1, cfg.q), np.nan)
        return EquivalenceRun([0.0], zero, zero, nan, np.zeros(cfg.q))

    monkeypatch.setattr(cli, "run_equivalence", nan_run)
    cfg = write_config(tmp_path, small_linear_config(tmp_path))
    assert main(["verify", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "equivalence phase residual nan exceeds tolerance 1.000e-06\n"
    )


def test_verify_fails_on_a_phase_error_the_density_gap_misses(tmp_path, capsys):
    # a cubic table of phi off by 1e-3 moves the densities by 8e-9 and the
    # phases by 2e-6 at t = 0.05: the anchored phase column catches it
    from cnls_gauge import RunConfig, transformed_spec

    payload = json.loads((CONFIGS / "family_b_sample.json").read_text())
    payload["output_dir"] = str(tmp_path / "out")
    cfg = RunConfig.from_dict(payload)
    cubic = transformed_spec(cfg.build_family_spec(), cfg.build_dispersion()).cubic
    payload["phi_coefficients"] = {"cubic": (cubic + 1e-3).tolist()}
    assert main(["verify", str(write_config(tmp_path, payload))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("equivalence phase residual ") and err.count("\n") == 1
    assert err.endswith(" exceeds tolerance 1.000e-06\n")
    header, *rows = read_csv(tmp_path / "out" / "equivalence.csv")
    final = dict(zip(header, map(float, rows[-1])))
    assert max(final["dens_diff_1"], final["dens_diff_2"]) < 1e-7
    assert 1e-6 < max(final["phase_anch_1"], final["phase_anch_2"]) < 1e-5


def _plane_wave_n32(tmp_path, initial):
    payload = json.loads((CONFIGS / "linear_plane_wave.json").read_text())
    payload["grid"]["n_points"] = 32
    payload.update(
        initial=[initial], t_end=0.002, sample_every=5, output_dir=str(tmp_path / "out")
    )
    return payload


@pytest.mark.parametrize(
    "initial, amplitude, what",
    [
        # a finite field whose |u|^2 overflows: simulate wrote N_1 = inf and
        # verify a NaN gap, both with exit 0
        ({"modes": [{"mode": 1, "re": 1e300, "im": 0.0}]}, 1.0, "peak density"),
        ({"modes": [{"mode": 1, "re": 1e154, "im": 0.0},
                    {"mode": 2, "re": 1e154, "im": 0.0}]}, 1.0, "peak density"),
        # |u|^2 = 1.4e308 is finite, its integral over 2 pi is not
        ({"modes": [{"mode": 1, "re": 1.2e154, "im": 0.0}]}, 1.0, "norm"),
        ({"modes": [{"mode": 1, "re": 1.0, "im": 0.0}]}, 1e200, "peak density"),
        ({"gaussian": {"amplitude": 1.0, "center": 3.0, "width": 1.0,
                       "offset": 1e200}}, 1.0, "peak density"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_overflowing_initial_data_exits_1_naming_initial(
    tmp_path, capsys, command, initial, amplitude, what
):
    payload = _plane_wave_n32(tmp_path, initial)
    payload["amplitude"] = amplitude
    cfg = write_config(tmp_path, payload)
    assert main([command, str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: config key 'initial': species 1: the {what} ")
    assert not (tmp_path / "out").exists()


def test_large_finite_initial_data_still_runs(tmp_path):
    # |u|^2 = 1e200 and its norm are finite: the march runs
    payload = _plane_wave_n32(tmp_path, {"modes": [{"mode": 1, "re": 1e100, "im": 0.0}]})
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", str(cfg)]) == 0
    rows = read_csv(tmp_path / "out" / "diagnostics.csv")
    assert all(np.isfinite(float(v)) for row in rows[1:] for v in row)


@pytest.mark.parametrize("command", ["verify", "transform"])
@pytest.mark.parametrize(
    "key, change",
    [
        ("A", {"A": [1.0, 1e-320]}),
        ("nonlinearity", {"nonlinearity": {"family": "drift_cubic",
                                           "delta": [2.0, -1e300],
                                           "gamma": [0.4, 0.3]}}),
    ],
)
def test_non_finite_transformed_tables_exit_1_naming_the_cause(
    tmp_path, capsys, command, key, change
):
    payload = small_family_a_config(tmp_path, **change)
    payload["grid"]["n_points"] = 32
    cfg = write_config(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(
        f"error: config key '{key}': the transformed coefficient tables are not finite"
    )
    assert not (tmp_path / "out").exists()


def test_simulate_runs_where_only_the_transformed_tables_overflow(tmp_path):
    # a drift-cubic psi has D = 0: simulate marches it, never its gauge image
    payload = small_family_a_config(tmp_path, A=[1.0, 1e-320], t_end=0.002)
    payload["grid"]["n_points"] = 32
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", str(cfg)]) == 0
    rows = read_csv(tmp_path / "out" / "diagnostics.csv")
    assert all(np.isfinite(float(v)) for row in rows[1:] for v in row)


def test_simulate_runs_a_flux_coupled_psi_whose_transformed_tables_overflow(
    tmp_path, monkeypatch
):
    # psi with D != 0 marches as its gauge image phi where phi's tables are
    # finite; here they divide by A = 1e-320 and overflow, so psi marches
    # itself, with no warning
    import cnls_gauge.solver as solver

    payload = json.loads((CONFIGS / "family_b_sample.json").read_text())
    payload.update(A=[1.0, 1e-320], t_end=0.002, sample_every=10,
                   output_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path, payload)
    real_step, specs = solver.step, []

    def step(state, *args, **kwargs):
        specs.append(state.spec)
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr(solver, "step", step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", str(cfg)]) == 0
    assert specs and not any(isinstance(spec, TransformedSpec) for spec in specs)
    rows = read_csv(tmp_path / "out" / "diagnostics.csv")
    assert len(rows) == 4
    assert all(np.isfinite(float(v)) for row in rows[1:] for v in row)


def test_step_bound_underflow_exits_1_naming_A(tmp_path, capsys):
    # max|A_k| (pi/dx)^2 underflows to zero on a long coarse grid
    payload = small_linear_config(tmp_path, A=[5e-324])
    payload["grid"].update(n_points=8, x_max=1e4)
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", str(cfg)]) == 1
    assert "error: config key 'A': the RK4 step bound" in capsys.readouterr().err


# --- argument parsing --------------------------------------------------------

_VERIFY_CONFIG = str(CONFIGS / "family_a_verify.json")
# "CFG" stands for the config path, which would make a test id depend on
# where the checkout lies
_TEXT_ARGVS = [
    [], ["-h"], ["--version"], ["bogus"],
    *([command, "-h"] for command in
      ("simulate", "transform", "verify", "convergence", "classify")),
    ["verify"], ["verify", "CFG", "--bogus"], ["verify", "CFG", "extra"],
    ["classify", "--beta", "1"],
]


def _outcome(call, argv, capsys):
    try:
        code = call(argv)
    except SystemExit as exit_:
        code = exit_.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", _TEXT_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_cli_texts_match_the_parser_of_every_command(capsys, monkeypatch, argv):
    # main builds only the named command's subparser; its help, usage and
    # error texts must read as the full parser's, usage lines included
    monkeypatch.setenv("COLUMNS", "80")
    argv = [_VERIFY_CONFIG if word == "CFG" else word for word in argv]
    full = _outcome(_build_parser().parse_args, argv, capsys)
    assert _outcome(main, argv, capsys) == full


def test_a_valid_verify_line_parses_as_with_the_full_parser():
    argv = ["verify", _VERIFY_CONFIG, "--sweep", "dt=1e-4,2e-4", "--tolerance", "1e-7",
            "--output-dir", "out", "--dump-config"]
    assert _build_parser("verify").parse_args(argv) == _build_parser().parse_args(argv)


def test_main_builds_the_named_command_alone(monkeypatch):
    import argparse

    import cnls_gauge.cli as cli

    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    monkeypatch.setattr(cli, "cmd_verify", lambda cfg, out_dir, tolerance: 0)
    assert main(["verify", _VERIFY_CONFIG]) == 0
    assert added == ["verify"]
