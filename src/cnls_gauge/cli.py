"""Command-line front-end: argument parsing, the ``cmd_*`` commands and
snapshot IO. The experiment drivers and the exit-code map live in
``report``; the names below are re-exported from there.

Subcommands: ``simulate``, ``transform``, ``classify``, ``verify``,
``convergence``. Exit codes: 0 success, 1 configuration error, 2 runtime
failure (blow-up, vacuum, tolerance exceeded, order shortfall or an order
that roundoff hides).

All CSV output uses ',' delimiters, '.' decimals, LF line endings, a
mandatory header row, and full round-trip float precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .classify import SpecialCase, classify_q1
from .config import _CONFIG_KEY, ConfigError, RunConfig, dumps_config, load_config
from .fields import ComplexFieldSet, VacuumError
from .gauge import TransformedSpec, _Readback, apply_gauge, compute_generator
from .nonlinearity import DerivativeSpec
from .report import (
    EXIT_CODES,
    EquivalenceRun,
    convergence_spec,
    exit_code,
    make_output_dir,
    run_convergence,
    run_equivalence,
    run_sweep_command,
    write_csv,
)
from .solver import BlowUpError, SimState, evolve, stability_bound
from . import __version__

__all__ = [
    "main", "write_snapshot", "read_snapshot",
    # re-exported from report
    "EquivalenceRun", "run_equivalence", "run_convergence",
    "write_csv",
]


def write_snapshot(path_base: Path, fields: ComplexFieldSet, t: float) -> None:
    """Raw little-endian complex128 ``fields.samples()``, which is (re, im)
    float64 pairs row-major, plus a plain-text sidecar with shape, time and
    byte order."""
    q, n = fields.data.shape
    samples = fields.samples().astype("<c16", copy=False)
    path_base.with_suffix(".raw").write_bytes(samples.tobytes())
    sidecar = (
        f"shape={q},{n}\n"
        f"time={float(t)!r}\n"
        "byte_order=little\n"
        "dtype=float64\n"
        "layout=interleaved_re_im_row_major\n"
    )
    path_base.with_suffix(".txt").write_text(sidecar, encoding="utf-8")


def read_snapshot(path_base: Path) -> tuple[np.ndarray, float]:
    """Inverse of write_snapshot, bit for bit; returns (complex data, time)."""
    meta = {}
    for line in path_base.with_suffix(".txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        meta[key] = value
    q, n = (int(v) for v in meta["shape"].split(","))
    data = np.fromfile(path_base.with_suffix(".raw"), dtype="<c16").reshape(q, n)
    return data, float(meta["time"])


# --- simulate ------------------------------------------------------------


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    """March psi and write its samples. A psi whose D is nonzero marches as
    its gauge image phi, and each snapshot is psi read back from phi
    (``gauge._Readback``); its diagnostics are phi's, whose densities and
    currents are psi's. phi stands in only where its RK4 march is stable
    as psi's is, dt within the step bound with a gauge shift's half mode:
    above it both marches diverge, and psi's own failure is reported."""
    grid = cfg.build_grid()
    A = cfg.build_dispersion()
    spec = cfg.build_family_spec()
    # Built before the output directory, so a config error leaves none, and
    # held only in this list until evolve takes it: the march then frees
    # the initial fields after its first step.
    fields = cfg.build_initial(grid)
    readback = on_step = None
    if cfg.dt <= stability_bound(grid, A, shift=np.pi / grid.length):
        readback = _Readback.of(spec, A, fields, cfg.dt)
    if readback is not None:
        fields, spec, on_step = readback.gauge(fields), readback.spec, readback.add
    initial = [SimState(t=0.0, fields=fields, spec=spec, A=A)]
    del fields
    make_output_dir(out_dir)

    snap_index = 0

    def snapshot(sampled: SimState) -> None:
        nonlocal snap_index
        fields = sampled.fields if readback is None else readback.psi(sampled.fields)
        write_snapshot(out_dir / f"snapshot_{snap_index:06d}", fields, sampled.t)
        snap_index += 1

    status = 0
    try:
        _, records = evolve(
            initial.pop(), cfg.dt, cfg.t_end, cfg.sample_every,
            on_sample=snapshot, on_step=on_step,
        )
    except (BlowUpError, VacuumError) as err:
        print(f"error: {err}", file=sys.stderr)
        records = err.diagnostics
        status = exit_code(err)

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


def _coefficient_rows(tspec: TransformedSpec) -> list[list]:
    """One (table, k, j, i, value) row per entry, the tables in the order of
    ``TransformedSpec.TABLES``; indices 1-based, blank past a table's rank."""
    rows: list[list] = []
    for name in TransformedSpec.TABLES:
        table = getattr(tspec, name)
        for index in np.ndindex(table.shape):
            labels = [str(i + 1) for i in index] + [""] * (3 - len(index))
            rows.append([name, *labels, table[index]])
    return rows


def cmd_transform(cfg: RunConfig, out_dir: Path) -> int:
    A = cfg.build_dispersion()
    spec = cfg.build_family_spec()
    tspec = cfg.build_transformed_spec(spec)
    make_output_dir(out_dir)
    write_csv(
        out_dir / "transformed_coefficients.csv",
        ["table", "k", "j", "i", "value"],
        _coefficient_rows(tspec),
    )
    if cfg.initial is None:
        return 0
    psi0 = cfg.build_initial(cfg.build_grid())
    phi0 = apply_gauge(psi0, compute_generator(spec, psi0, A))
    write_snapshot(out_dir / "phi_initial", phi0, 0.0)
    return 0


# --- classify ------------------------------------------------------------

_LABEL_ORDER = [
    SpecialCase.JACKIW,
    SpecialCase.CHEN_LEE_LIU,
    SpecialCase.KAUP_NEWELL,
    SpecialCase.GENERIC,
]


def cmd_classify(texts: dict[str, str]) -> int:
    """Print the labels of q = 1 derivative-family coefficients, given as
    text under their ``DerivativeSpec.TABLES`` names; a bad value is a
    ConfigError naming its config key."""
    values = {}
    for name in DerivativeSpec.TABLES:
        text = texts[name]
        try:
            values[name] = float(text)
        except (TypeError, ValueError):
            values[name] = math.nan
        if not math.isfinite(values[name]):
            raise ConfigError(
                _CONFIG_KEY.get(name, name), f"expected a finite number, got {text!r}"
            )
    labels = classify_q1(**values)
    for label in _LABEL_ORDER:
        if label in labels:
            print(label.value)
    return 0


# --- verify --------------------------------------------------------------


def cmd_verify(cfg: RunConfig, out_dir: Path, tolerance: float) -> int:
    result = run_equivalence(cfg)
    make_output_dir(out_dir)
    q = cfg.q
    header = (
        ["t"]
        + [f"dens_diff_{k + 1}" for k in range(q)]
        + [f"phase_res_{k + 1}" for k in range(q)]
        + [f"phase_anch_{k + 1}" for k in range(q)]
    )
    rows = [
        [t, *result.density_diff[i], *result.phase_residual[i], *result.phase_anchored[i]]
        for i, t in enumerate(result.times)
    ]
    write_csv(out_dir / "equivalence.csv", header, rows)
    status = 0
    # each gate is written as not (value < tolerance), so a NaN fails too
    for what, value in (
        ("gap", result.final_density_diff),
        ("phase residual", result.final_phase_anchored),
    ):
        if not value < tolerance:
            print(
                f"equivalence {what} {value:.3e} exceeds tolerance {tolerance:.3e}",
                file=sys.stderr,
            )
            status = 2
    return status


# --- convergence ----------------------------------------------------------


def cmd_convergence(cfg: RunConfig, out_dir: Path) -> int:
    # the bound is the RK4 step's: a split march (density_only tables, as
    # drift-cubic psi and phi have) has none
    bound = stability_bound(cfg.build_grid(), cfg.build_dispersion())
    if cfg.dt > bound and not convergence_spec(cfg).tables.density_only:
        print(
            f"warning: dt={cfg.dt!r} exceeds the stability bound {bound:.6g}",
            file=sys.stderr,
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dts, errors, order, roundoff = run_convergence(cfg)
    make_output_dir(out_dir)
    rows = [
        [dts[0], errors[0], "" if order is None else order],
        [dts[1], errors[1], ""],
        [dts[2], "", ""],
    ]
    write_csv(out_dir / "convergence.csv", ["dt", "diff_to_half_dt", "observed_order"], rows)
    if order is None:
        print(
            f"order cannot be measured at this dt: the dt vs dt/2 difference "
            f"{errors[0]:.3e} is at roundoff (<= {roundoff:.3e})",
            file=sys.stderr,
        )
        return 2
    if not order >= 3.5:
        print(f"observed order {order:.3f} below 3.5", file=sys.stderr)
        return 2
    return 0


# --- argument parsing -----------------------------------------------------


# The config commands' help lines, in the order the help lists them;
# classify, which reads no config, comes last.
_CONFIG_COMMANDS = {
    "simulate": "evolve the original system and write diagnostics",
    "transform": "write transformed coefficients (and the gauged initial state)",
    "verify": "run the gauge-equivalence experiment end to end",
    "convergence": "self-convergence study in dt",
}
_COMMANDS = (*_CONFIG_COMMANDS, "classify")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone. Either one
    gives the same texts and namespace on an argv whose first word is
    ``command``: the subcommand metavar still lists every command, so a
    usage line reads as the full parser's."""
    parser = argparse.ArgumentParser(
        prog="cnls-gauge",
        description="Coupled NLS systems with complex nonlinearities: "
        "simulation, gauge transformation, classification and verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    if command is None:
        names, metavar = _COMMANDS, None
    else:
        # the metavar keeps every command in a usage line. The full parser
        # takes none: a missing-command error would name it in place of
        # "command", an error that cannot arise once argv names the command
        names, metavar = (command,), "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    config_commands = [name for name in names if name in _CONFIG_COMMANDS]
    if config_commands:
        # the options every config command takes, added once and shared
        config_options = argparse.ArgumentParser(add_help=False)
        config_options.add_argument("config", help="path to a JSON run configuration")
        config_options.add_argument(
            "--output-dir", default=None, help="override the config output_dir"
        )
        config_options.add_argument(
            "--tolerance", type=float, default=None, help="override the config tolerance"
        )
        config_options.add_argument(
            "--dump-config",
            action="store_true",
            help="echo the parsed config as canonical JSON and exit",
        )
    for name in config_commands:
        cmd = sub.add_parser(name, help=_CONFIG_COMMANDS[name], parents=[config_options])
        if name == "verify":
            cmd.add_argument(
                "--sweep",
                default=None,
                metavar="KEY=V1,V2,...",
                help="repeat the verification over a numeric config key",
            )
    if "classify" in names:
        cls = sub.add_parser("classify", help="label scalar derivative-family coefficients")
        for name in DerivativeSpec.TABLES:
            cls.add_argument(f"--{_CONFIG_KEY.get(name, name)}", dest=name, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a known command's parser alone: building the others is most of the
    # parse's cost, and this argv cannot reach them
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(vars(args))
        cfg = load_config(args.config)
        if args.output_dir is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
        if args.tolerance is not None:
            if not 0 < args.tolerance < math.inf:
                raise ConfigError("tolerance", "must be finite and > 0")
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
                return run_sweep_command(cfg, args.sweep, out_dir)
            return cmd_verify(cfg, out_dir, cfg.tolerance)
        if args.command == "convergence":
            return cmd_convergence(cfg, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except tuple(EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return exit_code(err)

if __name__ == "__main__":
    sys.exit(main())
