"""Digest of everything the config commands leave behind, for comparing two
checkouts byte for byte.

Run from anywhere, with any extra config paths:

    python3 tools/digest_outputs.py [CONFIG.json ...] > digest.txt

It runs ``simulate``, ``transform``, ``verify``, ``convergence`` and a
one-row ``verify --sweep dt=DT`` at the config's own ``dt`` through
``cnls_gauge.cli.main`` (imported from this checkout's ``src/``) on every
shipped config in ``configs/``, on the seed-1 config of each benchmark
workload in ``perfbench/workloads.py`` (written to a temporary file as the
benchmark writes it), and then on each extra path, each command in its own
temporary output directory. For each command it prints the exit
code, the stdout and stderr lines, and one SHA-256 per written file. A
last ``cli`` block prints the exit code, stdout and stderr of each argument
list in ``CLI_ARGS``: help, version and parse errors, at 80 columns. Two
checkouts whose outputs agree give equal digests, so one ``diff`` of two
digests replaces a ``diff -r`` of the output trees.

A warning is printed as ``Category: message``, without the file and line
that Python's default format adds, and the warning registry is reset for
every command as in a fresh process; so a digest does not change when
source lines move. Shipped configs, also in the ``cli`` block, are named
relative to the checkout and workload configs by workload and seed, so two
checkouts can be compared; extra paths are named by their absolute path.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("simulate", "transform", "verify", "convergence")
WORKLOAD_SEED = 1
# The argument lists of the cli block, the config named relative to the
# checkout: what the parser of every command reads (no command, help,
# version, an unknown word) and what one command's parser reads (its help
# and its parse errors).
CLI_CONFIG = "configs/family_a_verify.json"
CLI_ARGS = (
    [], ["-h"], ["--version"], ["bogus"],
    *([command, "-h"] for command in (*COMMANDS, "classify")),
    ["verify"], ["verify", CLI_CONFIG, "--bogus"], ["verify", CLI_CONFIG, "extra"],
    ["classify", "--beta", "1"],
)


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from cnls_gauge import cli

    return cli


def workload_configs(directory: Path) -> dict[str, Path]:
    """The seed-1 config of every benchmark workload, written into
    ``directory``, by name ("perfbench equiv_drift seed 1" -> path)."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks the module up
    spec.loader.exec_module(workloads)
    configs = {}
    for name, make in workloads.WORKLOADS.items():
        config = directory / f"{name}_seed{WORKLOAD_SEED}.json"
        config.write_text(json.dumps(make(WORKLOAD_SEED).config, indent=1), encoding="utf-8")
        configs[f"perfbench {name} seed {WORKLOAD_SEED}"] = config
    return configs


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"{category.__name__}: {message}", file=sys.stderr)


def runs(cli, path: Path) -> list[list[str]]:
    """The arguments after the config path of every run on ``path``, the
    command first: each of COMMANDS, then a one-row sweep at the config's own
    dt (``dt=`` where the config does not load, which then fails as the other
    commands do)."""
    try:
        own_dt = repr(cli.load_config(str(path)).dt)
    except (OSError, ValueError):
        own_dt = ""
    return [[command] for command in COMMANDS] + [["verify", "--sweep", f"dt={own_dt}"]]


def _run(cli, argv: list[str]) -> list[str]:
    """The exit code and the stdout and stderr lines of ``cli.main(argv)``;
    help, version and parse errors exit through SystemExit."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("default")
        warnings.showwarning = _show_warning
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    lines = [f"exit {code}"]
    lines += [f"stdout| {line}" for line in stdout.getvalue().splitlines()]
    lines += [f"stderr| {line}" for line in stderr.getvalue().splitlines()]
    return lines


def digest_command(cli, args: list[str], name: str, path: Path) -> list[str]:
    """Lines describing one run, ``args`` as in ``runs``, on the config at
    ``path``."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        argv = [args[0], str(path), *args[1:], "--output-dir", str(out_dir)]
        lines = [f"== {' '.join(args)} {name}", *_run(cli, argv)]
        files = sorted(p for p in out_dir.rglob("*") if p.is_file()) \
            if out_dir.is_dir() else []
        lines += [
            f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out_dir)}"
            for p in files
        ]
    return lines


def digest_cli() -> list[str]:
    """Lines of the cli block: each of CLI_ARGS and what it printed."""
    cli = _import_cli()
    lines: list[str] = []
    for args in CLI_ARGS:
        argv = [str(ROOT / word) if word == CLI_CONFIG else word for word in args]
        lines += [f"== {' '.join(['cli', *args])}", *_run(cli, argv)]
    return lines


def digest(configs: dict[str, Path]) -> list[str]:
    """Digest lines of every run on every config (name -> path), in order."""
    cli = _import_cli()
    lines: list[str] = []
    for name, path in configs.items():
        for args in runs(cli, path):
            lines += digest_command(cli, args, name, path)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", help="extra config paths")
    args = parser.parse_args(argv)
    configs = {str(p.relative_to(ROOT)): p
               for p in sorted((ROOT / "configs").glob("*.json"))}
    with tempfile.TemporaryDirectory() as tmp:
        configs.update(workload_configs(Path(tmp)))
        configs.update((str(Path(c).resolve()), Path(c).resolve()) for c in args.configs)
        print("\n".join(digest(configs) + digest_cli()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
