"""Smoke test of tools/digest_outputs.py at n = 32."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from cnls_gauge import DispersionMatrix, load_config, make_grid, stability_bound

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digest_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("digest_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _config(tmp_path, name, **overrides):
    payload = {
        "grid": {"n_points": 32, "x_min": 0.0, "x_max": 2 * np.pi},
        "q": 2,
        "A": [1.0, 0.5],
        "nonlinearity": {"family": "drift_cubic", "delta": [2.0, 1.0], "gamma": [0.4, 0.3]},
        "initial": [
            {"modes": [{"mode": 0, "re": 0.28}, {"mode": 1, "re": 0.02, "im": 0.01}]},
            {"modes": [{"mode": 0, "re": 0.25}, {"mode": -1, "im": 0.015}]},
        ],
        "dt": 1e-3,
        "t_end": 0.004,
        "sample_every": 2,
        "output_dir": "unused",
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_digest_lists_every_command_file_and_exit_code(tmp_path):
    tool = _load_tool()
    path = _config(tmp_path, "a.json")
    lines = tool.digest({"a": path})
    assert [l for l in lines if l.startswith("== ")] == [
        f"== {command} a" for command in tool.COMMANDS
    ] + ["== verify --sweep dt=0.001 a"]
    assert lines[lines.index("== simulate a") + 1] == "exit 0"
    assert lines[lines.index("== verify --sweep dt=0.001 a") + 1] == "exit 0"
    files = [l.split("  ")[1] for l in lines if len(l.split("  ")[0]) == 64]
    assert "diagnostics.csv" in files and "equivalence.csv" in files
    assert "transformed_coefficients.csv" in files and "convergence.csv" in files
    assert "snapshot_000000.raw" in files and "sweep.csv" in files
    # deterministic, and moved by a change in the initial data
    assert tool.digest({"a": path}) == lines
    other = tool.digest({"a": _config(tmp_path, "b.json", amplitude=1.001)})
    assert other != lines and len(other) == len(lines)


def test_digest_prints_warnings_without_file_and_line(tmp_path):
    # a derivative-family config, whose psi and phi take RK4 and warn above
    # the step bound (drift-cubic ones take the split step, which has none)
    tool = _load_tool()
    grid = make_grid(32, 0.0, 2 * np.pi)
    dt = 1.01 * stability_bound(grid, DispersionMatrix([1.0, 0.5]))
    derivative = {"family": "derivative", "beta": [[0.3, -0.2], [0.1, 0.4]],
                  "gamma": [[-0.1, 0.2], [0.3, -0.4]], "delta": [[0.5, 0.2], [-0.3, 0.4]],
                  "lambda": [[[0.2, 0.1], [0.0, -0.1]], [[0.1, 0.0], [-0.2, 0.3]]]}
    path = _config(tmp_path, "warn.json", nonlinearity=derivative, dt=dt, t_end=2 * dt,
                   sample_every=1)
    lines = tool.digest({"warn": path})
    stderr = [l for l in lines if l.startswith("stderr| ")]
    assert f"stderr| UserWarning: dt={dt!r} exceeds the stability bound" in "\n".join(stderr)
    assert not any(".py:" in l for l in stderr)
    # the registry is reset per command, as in a fresh process: simulate and
    # verify each report the warning once, and the sweep, which silences
    # solver warnings, not at all
    assert f"== verify --sweep dt={dt!r} warn" in lines
    assert sum("UserWarning: dt=" in l for l in stderr) == 2
    assert tool.digest({"warn": path}) == lines


def test_digest_of_a_config_that_does_not_load(tmp_path):
    tool = _load_tool()
    lines = tool.digest({"missing": tmp_path / "missing.json"})
    headers = [l for l in lines if l.startswith("== ")]
    assert headers[-1] == "== verify --sweep dt= missing"
    assert [lines[lines.index(h) + 1] for h in headers] == ["exit 1"] * len(headers)


def test_workload_configs_cover_every_benchmark_workload(tmp_path):
    tool = _load_tool()
    configs = tool.workload_configs(tmp_path)
    assert list(configs) == [
        f"perfbench {name} seed 1" for name in ("equiv_drift", "equiv_deriv", "simulate_wide")
    ]
    for path in configs.values():
        assert path.parent == tmp_path
        load_config(str(path))
