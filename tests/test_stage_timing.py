"""Smoke test of tools/stage_timing.py at n = 32 with one repeat, both families."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_timing.py"


def test_one_json_line_per_cell_with_every_layer():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--n", "32", "--q", "1", "2", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(r["n"], r["q"], r["family"]) for r in rows] == [
        (32, 1, "derivative"), (32, 1, "drift_cubic"),
        (32, 2, "derivative"), (32, 2, "drift_cubic"),
    ]
    for row in rows:
        for layer in ("fft_pair", "tendency", "step"):
            assert row[f"{layer}_us"] > 0.0 and row[f"{layer}_calls"] >= 1
        # a step is four tendencies and more
        assert row["step_us"] > row["tendency_us"] > 0.0
        # a step holds at least its result, two stage buffers and the stack
        # of 3q rows (derivative) or 2q rows (drift-cubic: data and u')
        stack = 3 if row["family"] == "derivative" else 2
        assert row["step_peak_b_per_qn"] >= 16.0 * (3 + stack)
