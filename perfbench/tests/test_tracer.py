"""The tracer wraps functions in every module that holds them, computes self
time as span minus children, restores the originals, and reports a function
missing from the package as absent instead of failing."""

from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]


def test_tracer_spans_self_time_and_absent_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer
    from cnls_gauge import fields, grid, make_grid

    missing = ("solver.no_such_function", "no_such_module.fn")
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + missing)
    t = tracer.Tracer()
    assert set(missing) <= set(t.absent)

    g = make_grid(16, 0.0, 2.0 * np.pi)
    psi = fields.ComplexFieldSet(data=np.exp(1j * g.x)[None, :] + 2.0, grid=g)
    with t.active(0):
        fields.to_hydro(psi)  # calls nothing traced
        fields.phase_gradient(fields.to_hydro(psi))  # calls grid.derivative
        grid.second_derivative(psi.data, g)
    assert grid.derivative is t.originals["grid.derivative"]
    assert fields.derivative is t.originals["grid.derivative"]

    out = t.per_solve()
    assert out["fields.to_hydro"]["calls"] == [2.0]
    assert out["grid.derivative"]["calls"] == [1.0]
    assert out["grid.second_derivative"]["calls"] == [1.0]
    assert out["grid.fft_points"]["count"] == [32.0]
    for name in missing:
        assert out[name]["calls"] == [0.0] and out[name]["self_s"] == [0.0]
    assert all(v["self_s"][0] >= 0.0 for v in out.values() if "self_s" in v)
