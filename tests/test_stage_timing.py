"""Smoke test of tools/stage_timing.py at n = 32 with one repeat, every
system, and a check that its FFT pair is the stage's."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cnls_gauge
import cnls_gauge.grid as grid_module
import cnls_gauge.solver as solver

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_timing.py"


def test_one_json_line_per_cell_with_every_layer():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--n", "32", "--q", "1", "2", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(r["n"], r["q"], r["family"]) for r in rows] == [
        (32, 1, "derivative"), (32, 1, "derivative_phi"), (32, 1, "drift_cubic"),
        (32, 2, "derivative"), (32, 2, "derivative_phi"), (32, 2, "drift_cubic"),
    ]
    split = [row for row in rows if row["family"] == "drift_cubic"]
    for row, deriv in zip(split, rows[::3]):
        # the split step: timed alone and in a merged call, holding its
        # result, one phase buffer and its propagators, and no more than a
        # derivative RK4 step
        for layer in ("step", "merged_step"):
            assert row[f"{layer}_us"] > 0.0 and row[f"{layer}_calls"] >= 1
        assert "tendency_us" not in row and "fft_pair_us" not in row
        assert 32.0 <= row["step_peak_b_per_qn"] <= deriv["step_peak_b_per_qn"]
    for row in (row for row in rows if row["family"] != "drift_cubic"):
        for layer in ("fft_pair", "tendency", "step"):
            assert row[f"{layer}_us"] > 0.0 and row[f"{layer}_calls"] >= 1
        # a step is four tendencies and more
        assert row["step_us"] > row["tendency_us"] > 0.0
        # a step holds at least its result, two stage buffers and the stack
        # of 3q rows (psi: data, density, phase) or 2q rows (phi: data, u')
        stack = 3 if row["family"] == "derivative" else 2
        assert row["step_peak_b_per_qn"] >= 16.0 * (3 + stack)


@pytest.mark.parametrize("q", [1, 2])
def test_fft_pair_stacks_the_rows_of_the_stage(monkeypatch, q):
    # the timed pair must run on the stage's stack: as many rows and copied
    # spectra, with the stage's symbol
    spec = importlib.util.spec_from_file_location("stage_timing", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    seen = {"tool": [], "stage": []}
    real = grid_module._spectral_pair

    def recorder(who):
        def record(rows, symbol, q=None, tail=None, copies=0):
            seen[who].append((rows.shape[0], copies, symbol.tobytes()))
            return real(rows, symbol, q, tail, copies)

        return record

    monkeypatch.setattr(grid_module, "_spectral_pair", recorder("tool"))
    monkeypatch.setattr(solver, "_spectral_pair", recorder("stage"))
    for family in tool.FAMILIES:
        seen["tool"].clear()
        seen["stage"].clear()
        calls = tool.layer_calls(cnls_gauge, 32, q, family)
        calls["fft_pair"]()
        calls["tendency"]()
        assert seen["tool"] == seen["stage"], family
    # the phi stage of the last family reads its q data rows and copies
    # their spectrum to its q u' rows
    assert [(rows, copies) for rows, copies, _ in seen["stage"]] == [(2 * q, q)]
