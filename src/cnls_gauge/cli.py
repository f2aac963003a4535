"""Command-line front-end.

Subcommands: ``simulate``, ``transform``, ``classify``, ``verify``,
``convergence``. Exit codes: 0 success, 1 configuration error, 2 runtime
failure (blow-up, tolerance exceeded, order shortfall), 3 non-periodic
gauge ramp where a periodic field is required.

All CSV output uses ',' delimiters, '.' decimals, LF line endings, a
mandatory header row, and full round-trip float precision.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from .classify import SpecialCase, classify_q1
from .config import ConfigError, RunConfig, dumps_config, load_config
from .fields import ComplexFieldSet, to_hydro
from .gauge import (
    apply_gauge,
    compute_generator,
    phase_relation_residual,
)
from .solver import BlowUpError, SimState, _norms_of, evolve, step
from . import __version__

__all__ = [
    "main",
    "RampPeriodicityError",
    "EquivalenceRun",
    "run_equivalence",
    "run_convergence",
    "write_csv",
    "write_snapshot",
    "read_snapshot",
]


class RampPeriodicityError(RuntimeError):
    """A non-periodic gauge ramp blocked the requested artifact."""


def _fmt(x) -> str:
    return repr(float(x))


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])


def write_snapshot(path_base: Path, fields: ComplexFieldSet, t: float) -> None:
    """Raw little-endian float64 snapshot, (re, im) interleaved row-major,
    plus a plain-text sidecar with shape, time and byte order."""
    q, n = fields.data.shape
    interleaved = np.empty((q, n, 2), dtype="<f8")
    interleaved[..., 0] = fields.data.real
    interleaved[..., 1] = fields.data.imag
    path_base.with_suffix(".raw").write_bytes(interleaved.tobytes())
    sidecar = (
        f"shape={q},{n}\n"
        f"time={_fmt(t)}\n"
        "byte_order=little\n"
        "dtype=float64\n"
        "layout=interleaved_re_im_row_major\n"
    )
    path_base.with_suffix(".txt").write_text(sidecar, encoding="utf-8")


def read_snapshot(path_base: Path) -> tuple[np.ndarray, float]:
    """Inverse of write_snapshot; returns (complex data, time)."""
    meta = {}
    for line in path_base.with_suffix(".txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        meta[key] = value
    q, n = (int(v) for v in meta["shape"].split(","))
    flat = np.frombuffer(path_base.with_suffix(".raw").read_bytes(), dtype="<f8")
    interleaved = flat.reshape(q, n, 2)
    return interleaved[..., 0] + 1j * interleaved[..., 1], float(meta["time"])


# --- simulate ------------------------------------------------------------


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    grid = cfg.build_grid()
    A = cfg.build_dispersion()
    spec = cfg.build_family_spec()
    psi0 = cfg.build_initial(grid)
    state = SimState(t=0.0, fields=psi0, system_tag="psi", spec=spec, A=A)
    out_dir.mkdir(parents=True, exist_ok=True)

    snap_index = 0

    def snapshot(sampled: SimState) -> None:
        nonlocal snap_index
        write_snapshot(out_dir / f"snapshot_{snap_index:06d}", sampled.fields, sampled.t)
        snap_index += 1

    status = 0
    try:
        _, records = evolve(
            state, cfg.dt, cfg.t_end, cfg.sample_every, on_sample=snapshot
        )
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        records = err.diagnostics
        status = 2

    q = cfg.q
    header = (
        ["t"]
        + [f"N_{k + 1}" for k in range(q)]
        + [f"drift_{k + 1}" for k in range(q)]
        + [f"cont_res_{k + 1}" for k in range(q)]
    )
    rows = [
        [r.t, *r.norms, *r.norm_drift, *r.continuity_residual] for r in records
    ]
    write_csv(out_dir / "diagnostics.csv", header, rows)
    return status


# --- transform -----------------------------------------------------------


def _coefficient_rows(tspec) -> list[list]:
    q = tspec.q
    rows: list[list] = []
    for k in range(q):
        rows.append(["const_shift", str(k + 1), "", "", tspec.const_shift[k]])
    for name in ("cubic", "drift_self", "drift_cross"):
        table = getattr(tspec, name)
        for k in range(q):
            for j in range(q):
                rows.append([name, str(k + 1), str(j + 1), "", table[k, j]])
    for k in range(q):
        for j in range(q):
            for i in range(q):
                rows.append(
                    ["quartic", str(k + 1), str(j + 1), str(i + 1), tspec.quartic[k, j, i]]
                )
    return rows


def cmd_transform(cfg: RunConfig, out_dir: Path) -> int:
    A = cfg.build_dispersion()
    tspec = cfg.build_transformed_spec()
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / "transformed_coefficients.csv",
        ["table", "k", "j", "i", "value"],
        _coefficient_rows(tspec),
    )
    if cfg.initial is None:
        return 0
    grid = cfg.build_grid()
    psi0 = cfg.build_initial(grid)
    gen = compute_generator(cfg.build_family_spec(), to_hydro(psi0), A)
    if not gen.ramp_is_periodic():
        windings = ", ".join(f"{w:.6g}" for w in gen.ramp_windings())
        print(
            f"ramp winding per species = [{windings}]: not integers, "
            "transformed field is not grid-periodic",
            file=sys.stderr,
        )
        return 3
    write_snapshot(out_dir / "phi_initial", apply_gauge(psi0, gen), 0.0)
    return 0


# --- classify ------------------------------------------------------------

_LABEL_ORDER = [
    SpecialCase.JACKIW,
    SpecialCase.CHEN_LEE_LIU,
    SpecialCase.KAUP_NEWELL,
    SpecialCase.GENERIC,
]


def cmd_classify(beta: str, gamma: str, delta: str, lam: str) -> int:
    values = {}
    for name, text in (("beta", beta), ("gamma", gamma), ("delta", delta), ("lambda", lam)):
        try:
            values[name] = float(text)
        except (TypeError, ValueError):
            raise ConfigError(name, f"expected a number, got {text!r}") from None
    labels = classify_q1(values["beta"], values["gamma"], values["delta"], values["lambda"])
    for label in _LABEL_ORDER:
        if label in labels:
            print(label.value)
    return 0


# --- verify --------------------------------------------------------------


@dataclasses.dataclass
class EquivalenceRun:
    """Sampled gauge-equivalence metrics of a psi/phi pair evolution."""

    times: list[float]
    density_diff: np.ndarray  # (samples, q) sup |rho_phi - rho_psi|
    phase_residual: np.ndarray  # (samples, q) phase-relation residual
    final_norm_drift: np.ndarray  # (q,) relative drift of the psi system

    @property
    def final_density_diff(self) -> float:
        return float(self.density_diff[-1].max())

    @property
    def final_phase_residual(self) -> float:
        return float(self.phase_residual[-1].max())


def run_equivalence(cfg: RunConfig) -> EquivalenceRun:
    """Evolve the original and the coefficient-form transformed system from
    gauge-related initial data and sample their agreement."""
    grid = cfg.build_grid()
    A = cfg.build_dispersion()
    spec = cfg.build_family_spec()
    tspec = cfg.build_transformed_spec()
    psi0 = cfg.build_initial(grid)
    gen0 = compute_generator(spec, to_hydro(psi0), A)
    if not gen0.ramp_is_periodic():
        raise RampPeriodicityError(
            "gauge ramp winding is not an integer; transformed field cannot be "
            "evolved spectrally"
        )
    phi0 = apply_gauge(psi0, gen0)

    psi_state = SimState(t=0.0, fields=psi0, system_tag="psi", spec=spec, A=A)
    phi_state = SimState(t=0.0, fields=phi0, system_tag="phi", spec=tspec, A=A)

    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        raise ConfigError("dt", "t_end must be an integer multiple of dt")
    norms0 = _norms_of(psi0)

    times: list[float] = []
    dens_rows: list[np.ndarray] = []
    phase_rows: list[np.ndarray] = []

    def sample(ps: SimState, fs: SimState) -> None:
        rho_psi = np.abs(ps.fields.data) ** 2
        rho_phi = np.abs(fs.fields.data) ** 2
        h_psi = to_hydro(ps.fields)
        h_phi = to_hydro(fs.fields)
        gen_t = compute_generator(spec, h_psi, A, anchor=gen0.anchor)
        times.append(ps.t)
        dens_rows.append(np.abs(rho_phi - rho_psi).max(axis=-1))
        phase_rows.append(phase_relation_residual(h_psi, h_phi, gen_t))

    sample(psi_state, phi_state)
    for i in range(n_steps):
        psi_state = step(psi_state, cfg.dt)
        phi_state = step(phi_state, cfg.dt)
        if (i + 1) % cfg.sample_every == 0 or i + 1 == n_steps:
            sample(psi_state, phi_state)

    drift = (_norms_of(psi_state.fields) - norms0) / norms0
    return EquivalenceRun(
        times=times,
        density_diff=np.array(dens_rows),
        phase_residual=np.array(phase_rows),
        final_norm_drift=drift,
    )


def cmd_verify(cfg: RunConfig, out_dir: Path, tolerance: float) -> int:
    result = run_equivalence(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    q = cfg.q
    header = (
        ["t"]
        + [f"dens_diff_{k + 1}" for k in range(q)]
        + [f"phase_res_{k + 1}" for k in range(q)]
    )
    rows = [
        [t, *result.density_diff[i], *result.phase_residual[i]]
        for i, t in enumerate(result.times)
    ]
    write_csv(out_dir / "equivalence.csv", header, rows)
    if result.final_density_diff >= tolerance:
        print(
            f"equivalence gap {result.final_density_diff:.3e} exceeds "
            f"tolerance {tolerance:.3e}",
            file=sys.stderr,
        )
        return 2
    return 0


# --- convergence ----------------------------------------------------------


def run_convergence(cfg: RunConfig) -> tuple[list[float], list[float], float]:
    """Self-convergence study at dt, dt/2, dt/4.

    Returns (dts, [e1, e2], order) where e1 = sup|u(dt) - u(dt/2)|,
    e2 = sup|u(dt/2) - u(dt/4)| at t_end and order = log2(e1/e2).
    """
    grid = cfg.build_grid()
    A = cfg.build_dispersion()
    if cfg.system == "psi":
        spec = cfg.build_family_spec()
    else:
        spec = cfg.build_transformed_spec()
    psi0 = cfg.build_initial(grid)

    finals = []
    dts = [cfg.dt, cfg.dt / 2.0, cfg.dt / 4.0]
    for dt in dts:
        state = SimState(
            t=0.0, fields=psi0, system_tag=cfg.system, spec=spec, A=A
        )
        final, _ = evolve(state, dt, cfg.t_end, sample_every=10**9)
        finals.append(final.fields.data)
    e1 = float(np.abs(finals[0] - finals[1]).max())
    e2 = float(np.abs(finals[1] - finals[2]).max())
    if e2 == 0.0:
        order = float("inf")
    else:
        order = float(np.log2(e1 / e2))
    return dts, [e1, e2], order


def cmd_convergence(cfg: RunConfig, out_dir: Path) -> int:
    from .solver import stability_bound

    bound = stability_bound(cfg.build_grid(), cfg.build_dispersion())
    if cfg.dt > bound:
        print(
            f"warning: dt={cfg.dt!r} exceeds the stability bound {bound:.6g}",
            file=sys.stderr,
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dts, errors, order = run_convergence(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        [dts[0], errors[0], order],
        [dts[1], errors[1], ""],
        [dts[2], "", ""],
    ]
    write_csv(out_dir / "convergence.csv", ["dt", "diff_to_half_dt", "observed_order"], rows)
    if not order >= 3.5:
        print(f"observed order {order:.3f} below 3.5", file=sys.stderr)
        return 2
    return 0


# --- argument parsing -----------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnls-gauge",
        description="Coupled NLS systems with complex nonlinearities: "
        "simulation, gauge transformation, classification and verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON run configuration")
        p.add_argument("--output-dir", default=None, help="override the config output_dir")
        p.add_argument(
            "--tolerance", type=float, default=None, help="override the config tolerance"
        )
        p.add_argument(
            "--dump-config",
            action="store_true",
            help="echo the parsed config as canonical JSON and exit",
        )
        return p

    add_config_command("simulate", "evolve the original system and write diagnostics")
    add_config_command(
        "transform", "write transformed coefficients (and the gauged initial state)"
    )
    verify = add_config_command(
        "verify", "run the gauge-equivalence experiment end to end"
    )
    verify.add_argument(
        "--sweep",
        default=None,
        metavar="KEY=V1,V2,...",
        help="repeat the verification over a numeric config key",
    )
    add_config_command("convergence", "self-convergence study in dt")

    cls = sub.add_parser("classify", help="label scalar derivative-family coefficients")
    cls.add_argument("--beta", required=True)
    cls.add_argument("--gamma", required=True)
    cls.add_argument("--delta", required=True)
    cls.add_argument("--lambda", dest="lam", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(args.beta, args.gamma, args.delta, args.lam)
        cfg = load_config(args.config)
        if args.output_dir is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
        if args.tolerance is not None:
            if args.tolerance <= 0:
                raise ConfigError("tolerance", "must be > 0")
            cfg = dataclasses.replace(cfg, tolerance=args.tolerance)
        if args.dump_config:
            print(dumps_config(cfg))
            return 0
        out_dir = Path(cfg.output_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "transform":
            return cmd_transform(cfg, out_dir)
        if args.command == "verify":
            if args.sweep is not None:
                from .report import run_sweep_command

                return run_sweep_command(cfg, args.sweep, out_dir)
            return cmd_verify(cfg, out_dir, cfg.tolerance)
        if args.command == "convergence":
            return cmd_convergence(cfg, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BlowUpError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RampPeriodicityError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
