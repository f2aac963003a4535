"""Per-layer timing of the march: one FFT pair, one stage tendency and one
step of the RK4 march, and one split step, for each grid size n, species
count q and system.

Run from anywhere:

    python3 tools/stage_timing.py [--n 256 1024 4096] [--q 1 2 3] [--repeats 7]

The package is imported from this checkout's ``src/``. Each cell (n, q)
builds three seeded states whose species all wind once, and prints one
JSON line for each, with its ``family``:

- ``derivative``: a derivative-family psi state, every RK4 stage of which
  transforms 3q rows (data, density and phase);
- ``derivative_phi``: the phi state of the derivative-family tables,
  whose RK4 stage takes the field form: q data rows transformed forward,
  their spectrum copied to q u' rows, and 2q rows transformed back;
- ``drift_cubic``: a drift-cubic psi state, whose density-only tables
  take the split step (four kicks and three q-row linear flows, whose
  symbol holds the dispersion and the drift); its line has the step
  alone, and a merged call. A drift-cubic phi takes the same split step,
  with a drift-free symbol.

Each line gives the min over ``repeats`` of the mean time of one call, in
microseconds:

- ``fft_pair_us``: the stacked pair that the family's stage runs,
  ``grid._spectral_pair`` on its rows (with the spectrum copies of the
  field form), including the copy of the rows it reads into its buffer;
- ``tendency_us``: ``solver._tendency`` into buffers allocated once, as
  ``solver.step`` calls it;
- ``step_us``: ``solver.step`` at half the RK4 step bound;
- ``merged_step_us`` (split state only): the same steps taken
  ``MERGED_STEPS`` at a time, ``solver.step(..., count=MERGED_STEPS)``,
  per step: 3 kicks a step and 1 more a call, against 4 kicks a step and
  the propagators and checks of a call for ``step_us``.

Each line also gives ``step_peak_b_per_qn``, the most memory one step holds
at once (``tracemalloc`` peak of one ``solver.step`` after a warm-up step,
taken apart from the timed calls), in bytes per q*n.

The calls per repeat (``*_calls``) are chosen by ``timeit``'s autorange, so
one repeat lasts at least 0.2 s. The lines of one run are comparable to
each other, but separate runs are not comparable to a few percent: on a
shared 2-vCPU host, two back-to-back runs of unchanged code gave
``fft_pair_us`` 25.5 and 41.0 (n = 256, q = 2) and ``step_us`` 3960 and
4251 (n = 4096, q = 2). To compare two checkouts, time both in one
process in interleaved rounds (import one of them under another package
name and alternate the calls); 30 such rounds resolve ratios to about
1-2% on the same host.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, pinned before numpy is imported, as in perfbench.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import timeit
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import cnls_gauge

    return cnls_gauge


FAMILIES = ("derivative", "derivative_phi")  # the RK4 stages
SPLIT_FAMILY = "drift_cubic"  # the split step
MERGED_STEPS = 40  # steps of one merged call: the interval between two samples


def make_state(cg, n: int, q: int, family: str):
    """A state of the family on [0, 2 pi), seeded by (n, q): a
    derivative-family psi state with nonzero flux and phase tables, the
    phi state of those tables, or a drift-cubic psi state."""
    rng = np.random.default_rng([n, q])
    grid = cg.make_grid(n, 0.0, 2.0 * np.pi)
    A = cg.DispersionMatrix(rng.choice([-1.0, 1.0], q) * rng.uniform(0.5, 2.0, q))
    if family in FAMILIES:
        spec = cg.DerivativeSpec(
            beta=0.5 * rng.uniform(-1.0, 1.0, (q, q)),
            gamma=0.5 * rng.uniform(-1.0, 1.0, (q, q)),
            delta=0.5 * rng.uniform(-1.0, 1.0, (q, q)),
            lam=0.5 * rng.uniform(-1.0, 1.0, (q, q, q)),
        )
    else:
        spec = cg.DriftCubicSpec(
            delta=0.5 * rng.uniform(-1.0, 1.0, q), gamma=0.5 * rng.uniform(-1.0, 1.0, q)
        )
    if family == "derivative_phi":
        spec = cg.transformed_spec(spec, A)
    x, k = grid.x, np.arange(q)[:, None]
    data = (1.0 + 0.2 * np.cos(x + k)) * np.exp(1j * (x + 0.3 * np.sin(2.0 * x + k)))
    return cg.SimState(0.0, cg.ComplexFieldSet(data, grid), spec, A)


def layer_calls(cg, n: int, q: int, family: str) -> dict:
    """The timed calls of the cell (n, q, family), by layer name: the step
    and a merged call for the split state. The FFT pair stacks the row
    blocks that the family's stage stacks (``solver._stack_blocks``), with
    the stage's symbol (``solver._symbol``); a stage with phase rows and
    no density rows (the field form) reads its q data rows and copies
    their spectrum to the other q."""
    from cnls_gauge.grid import _spectral_pair
    from cnls_gauge.solver import _stack_blocks, _stack_rows, _symbol, _tendency, step

    state = make_state(cg, n, q, family)
    grid, tables, A = state.fields.grid, state.spec.tables, state.A
    dt = 0.5 * cg.stability_bound(grid, A)

    def one_step():
        step(state, dt)

    if family == SPLIT_FAMILY:
        return {
            "step": one_step,
            "merged_step": lambda: step(state, dt, count=MERGED_STEPS),
        }
    data = state.fields.data
    flux, phase = _stack_blocks(tables)
    copies = q if phase and not flux else 0
    size, symbol = _stack_rows(tables, q), _symbol(grid, tables, A, None)
    source = [data] + [np.abs(data) ** 2] * flux + [np.angle(data)] * (phase and flux)
    source = np.concatenate(source).astype(complex)
    work, out = np.empty((size, n), dtype=complex), np.empty_like(data)

    def fft_pair():
        work[:size - copies] = source
        _spectral_pair(work, symbol, q, grid._ik, copies=copies)

    def tendency():
        _tendency(data, grid, tables, A, 0.0, out=out, work=work)

    return {"fft_pair": fft_pair, "tendency": tendency, "step": one_step}


def time_cell(cg, n: int, q: int, family: str, repeats: int) -> dict:
    """One JSON-ready row of per-call minima for the cell (n, q, family)."""
    calls = layer_calls(cg, n, q, family)
    row = {"n": n, "q": q, "family": family}
    for name, call in calls.items():
        call()  # grid symbols and FFT plans are cached on first use
        timer = timeit.Timer(call)
        number, _ = timer.autorange()
        steps = MERGED_STEPS if name == "merged_step" else 1
        best = min(timer.repeat(repeats, number)) / (number * steps)
        row[f"{name}_us"] = round(best * 1e6, 3)
        row[f"{name}_calls"] = number
    tracemalloc.start()
    try:
        calls["step"]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row["step_peak_b_per_qn"] = round(peak / (q * n), 1)
    row["numpy"] = np.__version__
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[256, 1024, 4096])
    parser.add_argument("--q", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.q) < 1:
        parser.error("--repeats and every --q must be >= 1")
    cg = _import_package()
    for n in args.n:
        for q in args.q:
            for family in (*FAMILIES, SPLIT_FAMILY):
                print(json.dumps(time_cell(cg, n, q, family, args.repeats)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
