"""Benchmark of the cnls_gauge command line: seeded workloads, timed solves,
checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload equiv_drift --seed 1 --seconds 20 --trace 0

Each solve is one in-process call of ``cnls_gauge.cli.main`` on a config
generated from the seed; solves run one after another in one thread
(closed loop) until ``--seconds`` have passed. Every solve's outputs are
checked, and a solve that fails a check counts as failed instead of
stopping the run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
plain and traced solves and reports the per-layer metrics and the tracing
overhead (traced over plain solve time). The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, pinned before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import gc
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import FFT_FUNCTIONS, TRACED, Tracer, swapped
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"

NORM_DRIFT_BOUND = 1e-8  # acceptance criterion 7
SETUP_BATCH = 32
MEMORY_SOLVES = 3
MIN_SOLVES = 3


def _import_package():
    """The package under test, from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cnls_gauge
    import cnls_gauge.cli
    import cnls_gauge.config
    import cnls_gauge.fields
    import cnls_gauge.gauge
    import cnls_gauge.solver

    if src.resolve() not in Path(cnls_gauge.__file__).resolve().parents:
        raise ImportError(f"found {cnls_gauge.__file__} outside {src}")
    return cnls_gauge


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# --- set-up ---------------------------------------------------------------


class _MarchStarts(BaseException):
    """Ends a set-up probe at its first RK4 step. Not an Exception, so no
    handler in the package catches it."""


def time_set_up(pkg, argv: list[str]) -> float:
    """Seconds from calling ``cli.main(argv)`` to the command's first
    ``solver.step`` call, where the probe stops the command. That is the
    command's own set-up: argument parsing, the config, grid, dispersion,
    specs and initial fields and, for verify, the transformed tables, the
    generator, the gauged state and the initial sample."""
    marks: list[float] = []

    def first_step(*args, **kwargs):
        marks.append(perf_counter())
        raise _MarchStarts

    with swapped({pkg.solver.step: first_step}):
        start = perf_counter()
        try:
            pkg.cli.main(argv)
        except _MarchStarts:
            pass
    if not marks:
        raise SystemExit(f"set-up probe: {argv[0]} never called solver.step")
    return marks[0] - start


def check_windings(pkg, cfg_path: Path) -> None:
    """The generated verify inputs must have integer gauge-ramp windings."""
    cfg = pkg.config.load_config(str(cfg_path))
    psi0 = cfg.build_initial(cfg.build_grid())
    gen = pkg.gauge.compute_generator(
        cfg.build_family_spec(), pkg.fields.to_hydro(psi0), cfg.build_dispersion()
    )
    if not gen.ramp_is_periodic():
        raise SystemExit(
            f"generated input has non-integer ramp windings {gen.ramp_windings()}"
        )


# --- one solve --------------------------------------------------------------


@contextmanager
def capture_equivalence(cli):
    """Keep the EquivalenceRun that verify computes, for its norm drift."""
    box: list = []
    original = getattr(cli, "run_equivalence", None)
    if original is None:
        yield box
        return

    def capturing(cfg):
        result = original(cfg)
        box.append(result)
        return result

    cli.run_equivalence = capturing
    try:
        yield box
    finally:
        cli.run_equivalence = original


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, -1)


def check_outputs(wl: Workload, out_dir: Path, rc, equivalence: list) -> tuple[dict, list[str]]:
    """Accuracy figures of one solve and the checks it failed."""
    figures: dict[str, float] = {}
    failures: list[str] = []
    if rc != 0:
        failures.append(f"exit code {rc}")
    name = "equivalence.csv" if wl.command == "verify" else "diagnostics.csv"
    try:
        header, table = _read_csv(out_dir / name)
    except (OSError, ValueError, IndexError) as err:
        return figures, failures + [f"{name} unreadable: {err}"]
    if table.shape[0] != wl.sample_count:
        failures.append(f"{name} has {table.shape[0]} rows, expected {wl.sample_count}")
    if not np.all(np.isfinite(table)):
        failures.append(f"{name} holds non-finite values")
    if table.shape[0] == 0:
        return figures, failures
    cols = {h: i for i, h in enumerate(header)}

    def columns(prefix: str) -> np.ndarray:
        return table[:, [i for h, i in cols.items() if h.startswith(prefix)]]

    if wl.command == "verify":
        figures["gap"] = float(columns("dens_diff_")[-1].max())
        tol = wl.config["tolerance"]
        if not figures["gap"] < tol:
            failures.append(f"gap {figures['gap']:.3e} not below tolerance {tol:.1e}")
        if equivalence:
            figures["norm_drift"] = float(np.abs(equivalence[-1].final_norm_drift).max())
        else:
            failures.append("norm drift not observable: run_equivalence not called")
    else:
        figures["norm_drift"] = float(np.abs(columns("drift_")).max())
        figures["cont_res"] = float(columns("cont_res_").max())
        raws = sorted(out_dir.glob("snapshot_*.raw"))
        texts = sorted(out_dir.glob("snapshot_*.txt"))
        if len(raws) != wl.sample_count or len(texts) != wl.sample_count:
            failures.append(
                f"{len(raws)} snapshots (+{len(texts)} sidecars), "
                f"expected {wl.sample_count}"
            )
        size = wl.q * wl.n * 16
        if any(p.stat().st_size != size for p in raws):
            failures.append(f"snapshot size differs from {size} bytes")
    drift = figures.get("norm_drift")
    if drift is not None and not drift < NORM_DRIFT_BOUND:
        failures.append(f"norm drift {drift:.3e} not below {NORM_DRIFT_BOUND:.0e}")
    return figures, failures


@contextmanager
def traced_memory(peaks: list):
    """Append to ``peaks`` the most memory that Python and numpy held at
    once inside the block, counting only what the block allocated."""
    tracemalloc.start()
    try:
        yield
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def command_line(wl: Workload, cfg_path: Path, out_dir: Path) -> list[str]:
    return [wl.command, str(cfg_path), "--output-dir", str(out_dir)]


def solve(pkg, wl: Workload, cfg_path: Path, out_dir: Path, scope=None, solve_id=0):
    """One timed solve, inside ``scope`` if one is given; returns (seconds,
    accuracy figures, failed checks)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    error = None
    with capture_equivalence(pkg.cli) as equivalence, scope or nullcontext():
        start = perf_counter()
        try:
            rc = pkg.cli.main(command_line(wl, cfg_path, out_dir))
        except Exception:  # a crash is a failed solve, not a failed run
            rc, error = None, traceback.format_exc()
        seconds = perf_counter() - start
    figures, failures = check_outputs(wl, out_dir, rc, equivalence)
    if error is not None:
        failures.insert(0, "raised " + error.strip().splitlines()[-1])
        print(error, file=sys.stderr)
    for failure in failures:
        print(f"solve {solve_id} failed: {failure}", file=sys.stderr)
    return seconds, figures, failures


# --- machine-speed reference ---------------------------------------------

# q*n*reps of one reference-kernel call: about 30-100 ms on a 2.1 GHz Xeon.
REF_POINTS = 2**19
# The kernel that set-up time is divided by (q, n, points) and its time on
# an idle 2.1 GHz Xeon core, which turns the quotient back into seconds.
SETUP_REF = (2, 256, 2**17)
SETUP_REF_SECONDS = 0.02


def make_reference(q: int, n: int, points: int = REF_POINTS):
    """A fixed amount of numpy work on arrays of the workload's shape, with
    no cnls_gauge code in it: FFT pair, density, unwrapped phase and an
    elementwise update, as in one tendency. Timed next to every solve and
    every batch of set-ups, it tracks how fast the machine runs at that
    moment, so that their cost can be stated in reference units as well as
    in seconds. Returns a function that runs it once and gives its seconds."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((q, n)) + 1j * rng.standard_normal((q, n))
    ik = 1j * np.fft.fftfreq(n)
    reps = max(1, points // (q * n))

    def timed() -> float:
        start = perf_counter()
        b = a
        for _ in range(reps):
            db = np.fft.ifft(ik * np.fft.fft(b, axis=-1), axis=-1)
            rho = b.real**2 + b.imag**2
            phase = np.unwrap(np.angle(b), axis=-1)
            b = a + 1e-3 * (db * rho + phase)
        return perf_counter() - start

    return timed


# --- measuring ----------------------------------------------------------------


class Tally:
    """Solves attempted and failed, and the worst accuracy figure of each kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.worst: dict[str, float] = {}

    def add(self, figures: dict, failures: list) -> bool:
        self.attempted += 1
        for key, value in figures.items():
            self.worst[key] = max(self.worst.get(key, -math.inf), value)
        self.failed += bool(failures)
        return not failures


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_end_to_end(pkg, wl, cfg_path, out_dir, seconds, tally):
    argv = command_line(wl, cfg_path, out_dir)
    reference = make_reference(wl.q, wl.n)
    setup_reference = make_reference(*SETUP_REF)
    reference()  # warm-up
    setup_reference()
    ref_before = reference()
    times: list[float] = []
    rel: list[float] = []
    setups: list[float] = []
    setup_rel: list[float] = []
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or i < MIN_SOLVES:
        i += 1
        t, figures, failures = solve(pkg, wl, cfg_path, out_dir, solve_id=i)
        ref_after = reference()
        ref_around = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        if not tally.add(figures, failures):
            continue
        times.append(t)
        rel.append(t / ref_around)
        # One set-up sample after every passing solve, so that the samples
        # cover the whole run. The first set-up after a solve runs on caches
        # the solve evicted and is not timed. A sample is the mean of a
        # batch: a single set-up lasts a few milliseconds, short enough to
        # fall wholly into a fast or a slow moment of a shared host.
        set_ref_before = setup_reference()
        time_set_up(pkg, argv)
        batch = statistics.fmean(time_set_up(pkg, argv) for _ in range(SETUP_BATCH))
        set_ref_after = setup_reference()
        setups.append(batch)
        setup_rel.append(batch / (0.5 * (set_ref_before + set_ref_after)))
    # Last, because solves under tracemalloc leave the heap laid out so that
    # the solves after them run up to a quarter slower.
    peaks: list[int] = []
    for j in range(MEMORY_SOLVES):
        tally.add(*solve(pkg, wl, cfg_path, out_dir, traced_memory(peaks), i + 1 + j)[1:])

    times = times or [math.nan]
    rel = rel or [math.nan]
    setups = setups or [math.nan]
    setup_rel = setup_rel or [math.nan]
    rates = [wl.q * wl.n * wl.steps_per_solve / t / 1e6 for t in times]
    setup_s = statistics.median(setup_rel) * SETUP_REF_SECONDS
    peak_mib = statistics.median(peaks) / 2**20
    print(f"  setup_s          {setup_s:.6g} s  median of set-up batch mean / set-up"
          f" reference-kernel time around it, x {SETUP_REF_SECONDS} s"
          f" ({SETUP_BATCH} set-ups a batch), {_spread(setup_rel)}")
    print(f"  setup_wall_s     {statistics.median(setups):.6g} s  median of batch means"
          f" (not bounded: follows the host's speed), {_spread(setups)}")
    print(f"  solve_ref        {statistics.median(rel):.6g} ref  median of solve wall time"
          f" / reference-kernel time around it, {_spread(rel)}")
    print(f"  solve_s          {statistics.median(times):.6g} s  median wall time (not"
          f" bounded: follows the host's speed), {_spread(times)}")
    print(f"  mpt_steps_per_s  {statistics.median(rates):.6g}  median of"
          f" q*n*steps/solve_s/1e6, {_spread(rates)}")
    print(f"  peak_alloc_mib   {peak_mib:.6g} MiB  most memory allocated at once"
          f" during a solve (tracemalloc), median of {len(peaks)} solves")
    return {
        "setup_s": _metric(setup_s, "s"),
        "solve_ref": _metric(statistics.median(rel), "ref"),
        "peak_alloc_mib": _metric(peak_mib, "MiB"),
    }


def measure_layers(pkg, wl, cfg_path, out_dir, seconds, tally):
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or i < 2 * MIN_SOLVES:
        i += 1
        scope = tracer.active(i) if i % 2 == 0 else None
        t, figures, failures = solve(pkg, wl, cfg_path, out_dir, scope, i)
        if tally.add(figures, failures):
            (traced if scope else plain).append(t)

    layers = tracer.per_solve()
    spans_path = WORK / f"spans_{wl.name}.npz"
    tracer.save(spans_path)
    print(f"  per traced solve, median of {len(traced)};"
          f" spans in {spans_path.relative_to(ROOT)}")
    metrics: dict[str, dict] = {}
    for name in TRACED:
        calls = statistics.median(layers[name]["calls"] or [0.0])
        busy = statistics.median(layers[name]["self_s"] or [0.0])
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(busy, "s")
        state = ("absent" if name in tracer.absent
                 else "not called" if calls == 0 else "")
        print(f"  {name:<32} calls {calls:>9.0f}  self_s {busy:.6g} {state}")
    points = statistics.median(layers["grid.fft_points"]["count"] or [0.0])
    metrics["grid.fft_points"] = _metric(points, "count")
    print(f"  {'grid.fft_points':<32} {points:.0f} (sum of q*n over "
          f"{', '.join(sorted(FFT_FUNCTIONS))})")
    overhead = (statistics.median(traced) / statistics.median(plain)
                if traced and plain else math.nan)
    metrics["trace.overhead"] = _metric(overhead, "ratio")
    print(f"  trace.overhead   {overhead:.6g} = traced solve_s / plain solve_s"
          f" (medians; traced {_spread(traced)}; plain {_spread(plain)})")
    return metrics


def run(args) -> int:
    try:
        pkg = _import_package()
    except ImportError as err:
        print(f"cannot import cnls_gauge from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    work = WORK / wl.name
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(wl.config, indent=1), encoding="utf-8")
    out_dir = work / "out"

    print(
        f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
        f"config_sha256={wl.config_hash()} git={_git_sha()} "
        f"cnls_gauge={getattr(pkg, '__version__', '?')} numpy={np.__version__} "
        f"python={platform.python_version()} nproc={os.cpu_count()} blas_threads=1"
    )
    print(
        f"  {wl.command}: q={wl.q} n={wl.n} dt={wl.config['dt']!r} "
        f"steps/solve={wl.steps_per_solve} samples/solve={wl.sample_count}; "
        "closed loop, 1 client"
    )
    if wl.command == "verify":
        check_windings(pkg, cfg_path)

    tally = Tally()
    tally.add(*solve(pkg, wl, cfg_path, out_dir)[1:])  # warm-up, not timed
    measure = measure_layers if args.trace else measure_end_to_end
    metrics = measure(pkg, wl, cfg_path, out_dir, args.seconds, tally)
    shutil.rmtree(out_dir, ignore_errors=True)

    print(f"  fail_rate {tally.failed}/{tally.attempted} solves"
          f" = {tally.failed / tally.attempted:.6g} (untimed solves included)")
    bounds = {"gap": f"< tolerance {wl.config.get('tolerance', 0):.0e}",
              "norm_drift": f"< {NORM_DRIFT_BOUND:.0e}",
              "cont_res": "finite"}
    for key, bound in bounds.items():
        if key in tally.worst:
            print(f"  check.{key:<11} worst {tally.worst[key]:.3e}  bound {bound}")
        else:
            print(f"  check.{key:<11} not computed by {wl.command}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (solves already started finish)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="n=64 and a few steps per solve, for the smoke test")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
