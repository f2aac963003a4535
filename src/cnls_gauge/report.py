"""Experiment drivers on the solver's march loop: the gauge-equivalence
run (psi and gauged phi systems side by side), the dt self-convergence
study, and parameter sweeps over both; their CSV writer; the output
directory's creation; and the one map from a failure to its exit code.
The equivalence run reads each sample's complex fields alone.

The self-convergence study alone decides whether its order can be
measured: where the dt vs dt/2 difference is at roundoff it gives no
order, and ``convergence`` and ``verify --sweep`` both report that as a
blank cell.

Each sweep row reruns both experiments at one value of a numeric config
key and records the final norm drift, the final equivalence gap and the
observed order. Failed rows carry the mapped exit code and message
inline; a sweep never aborts early.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .fields import VacuumError
from .gauge import apply_gauge, compute_generator, phase_residuals
from .solver import (
    BlowUpError, SimState, SystemSpec, _march, _norms_of, _stack, _unstack,
)

__all__ = [
    "EXIT_CODES", "exit_code", "write_csv", "make_output_dir",
    "EquivalenceRun", "run_equivalence", "convergence_spec", "run_convergence",
    "SweepRow", "SweepResult", "sweep", "write_sweep_csv", "run_sweep_command",
]


# The failures that end a command or a sweep row, and the exit code of each.
EXIT_CODES: dict[type[Exception], int] = {
    ConfigError: 1,
    BlowUpError: 2,
    VacuumError: 2,
}


def exit_code(err: Exception) -> int:
    """Exit code of a failure of one of the EXIT_CODES types."""
    return next(code for kind, code in EXIT_CODES.items() if isinstance(err, kind))


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Numbers are written as repr(float), which round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else repr(float(c)) for c in row])


def make_output_dir(out_dir: Path) -> None:
    """Create ``out_dir`` and its parents; a path that cannot be a directory
    is a ConfigError naming ``output_dir``."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(
            "output_dir", f"cannot create {str(out_dir)!r}: {err.strerror}"
        ) from None


# --- gauge equivalence ------------------------------------------------------


@dataclass
class EquivalenceRun:
    """Sampled gauge-equivalence metrics of a psi/phi pair evolution."""

    times: list[float]
    density_diff: np.ndarray  # (samples, q) sup |rho_phi - rho_psi|
    phase_residual: np.ndarray  # (samples, q) phase-relation residual
    phase_anchored: np.ndarray  # (samples, q) the same, global phases removed
    final_norm_drift: np.ndarray  # (q,) relative drift of the psi system

    @property
    def final_density_diff(self) -> float:
        return float(self.density_diff[-1].max())

    @property
    def final_phase_residual(self) -> float:
        return float(self.phase_residual[-1].max())

    @property
    def final_phase_anchored(self) -> float:
        return float(self.phase_anchored[-1].max())


def _stacked_samples(psi: SimState, phi: SimState, cfg: RunConfig):
    # one split march of the stacked state, rows [:q] psi's and [q:] phi's;
    # the generator drops psi and phi, so the stacked copy alone holds the
    # initial fields, until its march's first step
    march = _march(_stack(psi, phi), cfg.dt, cfg.n_steps, cfg.sample_every)
    del psi, phi
    for state, sampled in march:
        if sampled:
            yield _unstack(state)


def _lockstep_samples(psi: SimState, phi: SimState, cfg: RunConfig):
    # two marches, kept in step by time: whichever is behind advances, psi
    # at a tie, so that psi's first step is the first step of the command
    # (a split march yields only at each sample and one step after it);
    # both sample at the same steps
    marches = [_march(s, cfg.dt, cfg.n_steps, cfg.sample_every) for s in (psi, phi)]
    del psi, phi
    states = [next(march) for march in marches]
    while True:
        (psi, sampled), (phi, _) = states
        if psi.t == phi.t and sampled:
            yield psi, phi
        behind = int(phi.t < psi.t)
        del psi, phi
        try:
            states[behind] = next(marches[behind])
        except StopIteration:
            return


def run_equivalence(cfg: RunConfig) -> EquivalenceRun:
    """Evolve the original and the coefficient-form transformed system from
    gauge-related initial data and sample their agreement.

    When both systems' tables are ``density_only`` (every drift-cubic
    pair), psi's q rows and phi's q rows march as one decoupled 2q-row
    split state (``solver._stack``): one ``step`` call advances both, with
    half the numpy calls of two marches. The check is still one of two
    independent systems: the stacked tables are block-diagonal, their
    off-diagonal blocks zero, so each row has the bytes of its own march.
    Every other pair marches as two states side by side.
    """
    grid = cfg.build_grid()
    A = cfg.build_dispersion()
    spec = cfg.build_family_spec()
    tspec = cfg.build_transformed_spec(spec)
    psi0 = cfg.build_initial(grid)
    gen0 = compute_generator(spec, psi0, A)
    norms0 = _norms_of(psi0)
    samples = _lockstep_samples
    if spec.tables.density_only and tspec.tables.density_only:
        samples = _stacked_samples
    pairs = samples(
        SimState(t=0.0, fields=psi0, spec=spec, A=A),
        SimState(t=0.0, fields=apply_gauge(psi0, gen0), spec=tspec, A=A),
        cfg,
    )
    # the sample generator alone holds the initial states (the stacked
    # path only its stacked copy), and frees them at the first step
    del psi0

    times: list[float] = []
    dens_rows: list[np.ndarray] = []
    phase_rows: list[np.ndarray] = []
    anchored_rows: list[np.ndarray] = []
    # each sample's temporaries, and its states, are freed before the next
    # step; the last sample is the final state
    for psi, phi in pairs:
        # the t = 0 sample is psi0 itself, whose generator is gen0; it is
        # dropped there, before the first step
        gen = compute_generator(spec, psi.fields, A) if gen0 is None else gen0
        gen0 = None
        times.append(psi.t)
        dens_rows.append(np.abs(phi.fields.rho - psi.fields.rho).max(axis=-1))
        phase, anchored = phase_residuals(psi.fields, phi.fields, gen)
        phase_rows.append(phase)
        anchored_rows.append(anchored)
        norms = _norms_of(psi.fields)
        del psi, phi, gen

    return EquivalenceRun(
        times=times,
        density_diff=np.array(dens_rows),
        phase_residual=np.array(phase_rows),
        phase_anchored=np.array(anchored_rows),
        final_norm_drift=(norms - norms0) / norms0,
    )


# --- dt self-convergence ----------------------------------------------------


def convergence_spec(cfg: RunConfig) -> SystemSpec:
    """The spec of the system the self-convergence study marches: the
    family spec, or its transformed tables for ``system: "phi"``."""
    spec = cfg.build_family_spec()
    if cfg.system == "phi":
        spec = cfg.build_transformed_spec(spec)
    return spec


def run_convergence(
    cfg: RunConfig,
) -> tuple[list[float], list[float], float | None, float]:
    """Self-convergence study at dt, dt/2, dt/4.

    Returns (dts, [e1, e2], order, roundoff) where e1 = sup|u(dt) - u(dt/2)|,
    e2 = sup|u(dt/2) - u(dt/4)| at t_end and order = log2(e1/e2).
    roundoff = n_steps * eps * peak|u0| bounds the rounding error of the dt
    march, each step adding about one rounding error of the field's
    magnitude; where e1 is at or below it the two differences are roundoff
    and order is None, as no order can be measured.
    """
    spec = convergence_spec(cfg)
    initial = SimState(
        t=0.0,
        fields=cfg.build_initial(cfg.build_grid()),
        spec=spec,
        A=cfg.build_dispersion(),
    )
    roundoff = cfg.n_steps * np.finfo(float).eps * float(np.abs(initial.fields.data).max())

    dts = [cfg.dt, cfg.dt / 2.0, cfg.dt / 4.0]
    finals = []
    for refine, dt in zip((1, 2, 4), dts):
        for final, _ in _march(initial, dt, cfg.n_steps * refine, cfg.sample_every):
            pass
        finals.append(final.fields.data)
    e1 = float(np.abs(finals[0] - finals[1]).max())
    e2 = float(np.abs(finals[1] - finals[2]).max())
    if e1 <= roundoff:
        order = None
    else:
        order = float(np.log2(e1 / e2)) if e2 != 0.0 else float("inf")
    return dts, [e1, e2], order, roundoff


# --- sweeps -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    value: float
    status: str  # "ok" or "failed"
    exit_code: int
    message: str
    norm_drift: float | None = None
    equivalence_gap: float | None = None
    observed_order: float | None = None


@dataclass(frozen=True)
class SweepResult:
    axis: str
    rows: list[SweepRow]


def _broadcast(value: float, template):
    """Fill every leaf of a (possibly nested) list with ``value``, as an int
    where the leaf is an int and ``value`` is integral, so that integer keys
    sweep."""
    if isinstance(template, list):
        return [_broadcast(value, item) for item in template]
    if type(template) is int and value.is_integer():  # not a bool leaf
        return int(value)
    return value


def _list_index(node: list, part: str, axis: str) -> int:
    if not part.isdecimal() or int(part) >= len(node):
        raise ConfigError(axis, f"{part!r} is not an index of a {len(node)}-entry list")
    return int(part)


def _set_key(raw: dict, axis: str, value: float) -> None:
    parts = axis.split(".")
    node = raw
    for part in parts[:-1]:
        if isinstance(node, list):
            node = node[_list_index(node, part, axis)]
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise ConfigError(axis, "not a valid config key path")
    leaf = parts[-1]
    if isinstance(node, list):
        index = _list_index(node, leaf, axis)
        node[index] = _broadcast(value, node[index])
    elif isinstance(node, dict) and leaf in node:
        current = node[leaf]
        if isinstance(current, bool) or not isinstance(current, (int, float, list)):
            raise ConfigError(axis, "does not name a numeric config entry")
        node[leaf] = _broadcast(value, current)
    else:
        raise ConfigError(axis, "not a valid config key path")


def _metrics(cfg: RunConfig) -> tuple[float, float, float | None]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eq = run_equivalence(cfg)
        _, _, order, _ = run_convergence(cfg)
    drift = float(abs(eq.final_norm_drift).max())
    return drift, eq.final_density_diff, order


def sweep(base_config: RunConfig, axis: str, values: list[float]) -> SweepResult:
    """Rerun the verification experiment for each value of a config key.

    Scalars are broadcast into list-valued keys (every leaf gets the
    value), which makes per-species tables sweepable with one number.
    Rows are reported in input order; failures become inline rows.
    """
    rows: list[SweepRow] = []
    for value in values:
        raw = base_config.to_dict()
        try:
            _set_key(raw, axis, float(value))
            cfg = RunConfig.from_dict(raw)
            drift, gap, order = _metrics(cfg)
        except tuple(EXIT_CODES) as err:
            rows.append(SweepRow(float(value), "failed", exit_code(err), str(err)))
        else:
            rows.append(SweepRow(float(value), "ok", 0, "", drift, gap, order))
    return SweepResult(axis=axis, rows=rows)


def write_sweep_csv(result: SweepResult, path: Path) -> None:
    metrics = ("norm_drift", "equivalence_gap", "observed_order")
    header = [result.axis, *metrics, "status", "exit_code", "message"]
    rows = [
        [row.value]
        + ["" if getattr(row, m) is None else getattr(row, m) for m in metrics]
        + [row.status, str(row.exit_code), row.message]
        for row in result.rows
    ]
    write_csv(path, header, rows)


def run_sweep_command(cfg: RunConfig, sweep_arg: str, out_dir: Path) -> int:
    """Back-end of ``verify --sweep KEY=V1,V2,...``."""
    key, _, tail = sweep_arg.partition("=")
    if not key or not tail:
        raise ConfigError("--sweep", "expected KEY=V1,V2,...")
    try:
        values = [float(v) for v in tail.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError("--sweep", f"non-numeric sweep values in {tail!r}") from None
    if not values:
        raise ConfigError("--sweep", "no sweep values given")
    result = sweep(cfg, key, values)
    make_output_dir(out_dir)
    write_sweep_csv(result, out_dir / "sweep.csv")
    return 0
