"""Run configuration: a JSON file of key-value pairs with nested sections.

The grammar (documented in the README) is a single JSON object:

    grid          {n_points, x_min, x_max}
    q             species count
    A             list of q nonzero dispersion coefficients
    nonlinearity  {family: linear | drift_cubic | derivative, <tables>}
    initial       optional list of q descriptors, each either
                  {"modes": [{"mode": m, "re": a, "im": b}, ...]} or
                  {"gaussian": {"amplitude", "center", "width",
                                "momentum"?, "offset"?}}
    dt, t_end, sample_every, amplitude, system, output_dir, tolerance
    phi_coefficients  optional explicit transformed tables (verify only)

Parsed configs are plain-value dataclasses so that a dumped config
reparses to an equal object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .fields import ComplexFieldSet, DispersionMatrix
from .gauge import TransformedSpec, transformed_spec
from .grid import Grid1D, make_grid
from .nonlinearity import DerivativeSpec, DriftCubicSpec, FamilySpec, LinearSpec

__all__ = ["ConfigError", "RunConfig", "load_config", "dumps_config"]

FAMILIES = ("linear", "drift_cubic", "derivative")
SYSTEMS = ("psi", "phi")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


def _require(mapping: dict, key: str, context: str = "") -> Any:
    name = f"{context}.{key}" if context else key
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(name, "missing")
    return mapping[key]


def _number(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(key, f"expected a number, got {value!r}")
    return float(value)


def _integer(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(key, f"expected an integer, got {value!r}")
    return int(value)


def _vector(value: Any, key: str, length: int) -> list[float]:
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(key, f"expected a list of {length} numbers, got {value!r}")
    return [_number(v, key) for v in value]


def _matrix(value: Any, key: str, q: int) -> list[list[float]]:
    if not isinstance(value, list) or len(value) != q:
        raise ConfigError(key, f"expected a {q}x{q} matrix")
    return [_vector(row, key, q) for row in value]


def _tensor3(value: Any, key: str, q: int) -> list[list[list[float]]]:
    if not isinstance(value, list) or len(value) != q:
        raise ConfigError(key, f"expected a {q}x{q}x{q} tensor")
    return [_matrix(plane, key, q) for plane in value]


@dataclass(frozen=True)
class RunConfig:
    n_points: int
    x_min: float
    x_max: float
    q: int
    A: list[float]
    family: str
    coefficients: dict
    initial: list | None
    dt: float
    t_end: float
    sample_every: int
    amplitude: float = 1.0
    system: str = "psi"
    output_dir: str = "out"
    tolerance: float = 1e-6
    phi_coefficients: dict | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "top level must be an object")
        grid_sec = _require(raw, "grid")
        n_points = _integer(_require(grid_sec, "n_points", "grid"), "grid.n_points")
        x_min = _number(_require(grid_sec, "x_min", "grid"), "grid.x_min")
        x_max = _number(_require(grid_sec, "x_max", "grid"), "grid.x_max")
        try:
            make_grid(n_points, x_min, x_max)
        except ValueError as err:
            raise ConfigError("grid.n_points", str(err)) from None

        q = _integer(_require(raw, "q"), "q")
        if q < 1:
            raise ConfigError("q", "must be >= 1")
        A = _vector(_require(raw, "A"), "A", q)
        if any(a == 0.0 for a in A):
            raise ConfigError("A", "dispersion coefficients must be nonzero")

        nl = _require(raw, "nonlinearity")
        family = _require(nl, "family", "nonlinearity")
        if family not in FAMILIES:
            raise ConfigError(
                "nonlinearity.family", f"must be one of {FAMILIES}, got {family!r}"
            )
        coefficients: dict = {}
        if family == "drift_cubic":
            coefficients["delta"] = _vector(
                _require(nl, "delta", "nonlinearity"), "nonlinearity.delta", q
            )
            coefficients["gamma"] = _vector(
                _require(nl, "gamma", "nonlinearity"), "nonlinearity.gamma", q
            )
        elif family == "derivative":
            coefficients["beta"] = _matrix(
                _require(nl, "beta", "nonlinearity"), "nonlinearity.beta", q
            )
            coefficients["gamma"] = _matrix(
                _require(nl, "gamma", "nonlinearity"), "nonlinearity.gamma", q
            )
            coefficients["delta"] = _matrix(
                _require(nl, "delta", "nonlinearity"), "nonlinearity.delta", q
            )
            coefficients["lambda"] = _tensor3(
                _require(nl, "lambda", "nonlinearity"), "nonlinearity.lambda", q
            )

        initial = raw.get("initial")
        if initial is not None:
            if not isinstance(initial, list) or len(initial) != q:
                raise ConfigError("initial", f"expected a list of {q} descriptors")
            initial = [_parse_initial(entry, k) for k, entry in enumerate(initial)]

        dt = _number(_require(raw, "dt"), "dt")
        if dt <= 0:
            raise ConfigError("dt", "must be > 0")
        t_end = _number(_require(raw, "t_end"), "t_end")
        if t_end <= 0:
            raise ConfigError("t_end", "must be > 0")
        sample_every = _integer(raw.get("sample_every", 1), "sample_every")
        if sample_every < 1:
            raise ConfigError("sample_every", "must be >= 1")
        amplitude = _number(raw.get("amplitude", 1.0), "amplitude")
        system = raw.get("system", "psi")
        if system not in SYSTEMS:
            raise ConfigError("system", f"must be one of {SYSTEMS}, got {system!r}")
        output_dir = raw.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError("output_dir", "must be a string")
        tolerance = _number(raw.get("tolerance", 1e-6), "tolerance")
        if tolerance <= 0:
            raise ConfigError("tolerance", "must be > 0")

        phi_coefficients = raw.get("phi_coefficients")
        if phi_coefficients is not None:
            phi_coefficients = _parse_phi_tables(phi_coefficients, q)

        return cls(
            n_points=n_points,
            x_min=x_min,
            x_max=x_max,
            q=q,
            A=A,
            family=family,
            coefficients=coefficients,
            initial=initial,
            dt=dt,
            t_end=t_end,
            sample_every=sample_every,
            amplitude=amplitude,
            system=system,
            output_dir=output_dir,
            tolerance=tolerance,
            phi_coefficients=phi_coefficients,
        )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "grid": {"n_points": self.n_points, "x_min": self.x_min, "x_max": self.x_max},
            "q": self.q,
            "A": self.A,
            "nonlinearity": {"family": self.family, **self.coefficients},
            "dt": self.dt,
            "t_end": self.t_end,
            "sample_every": self.sample_every,
            "amplitude": self.amplitude,
            "system": self.system,
            "output_dir": self.output_dir,
            "tolerance": self.tolerance,
        }
        if self.initial is not None:
            out["initial"] = self.initial
        if self.phi_coefficients is not None:
            out["phi_coefficients"] = self.phi_coefficients
        return out

    # --- builders -------------------------------------------------------

    def build_grid(self) -> Grid1D:
        return make_grid(self.n_points, self.x_min, self.x_max)

    def build_dispersion(self) -> DispersionMatrix:
        return DispersionMatrix(values=np.asarray(self.A))

    def build_family_spec(self) -> FamilySpec:
        c = self.coefficients
        if self.family == "linear":
            return LinearSpec(q=self.q)
        if self.family == "drift_cubic":
            return DriftCubicSpec(delta=np.asarray(c["delta"]), gamma=np.asarray(c["gamma"]))
        return DerivativeSpec(
            beta=np.asarray(c["beta"]),
            gamma=np.asarray(c["gamma"]),
            delta=np.asarray(c["delta"]),
            lam=np.asarray(c["lambda"]),
        )

    def build_transformed_spec(self) -> TransformedSpec:
        base = transformed_spec(self.build_family_spec(), self.build_dispersion())
        if not self.phi_coefficients:
            return base
        return replace(
            base, **{k: np.asarray(v) for k, v in self.phi_coefficients.items()}
        )

    def build_initial(self, grid: Grid1D) -> ComplexFieldSet:
        if self.initial is None:
            raise ConfigError("initial", "missing (required by this command)")
        x = grid.x
        L = grid.length
        data = np.zeros((self.q, grid.n_points), dtype=complex)
        for k, entry in enumerate(self.initial):
            if "modes" in entry:
                for term in entry["modes"]:
                    amp = term["re"] + 1j * term["im"]
                    data[k] += amp * np.exp(
                        2j * np.pi * term["mode"] * (x - grid.x_min) / L
                    )
            else:
                g = entry["gaussian"]
                data[k] = g.get("offset", 0.0) + g["amplitude"] * np.exp(
                    -((x - g["center"]) ** 2) / (2.0 * g["width"] ** 2)
                    + 1j * g.get("momentum", 0.0) * x
                )
        data *= self.amplitude
        return ComplexFieldSet(data=data, grid=grid)


def _parse_initial(entry: Any, k: int) -> dict:
    key = f"initial[{k}]"
    if not isinstance(entry, dict):
        raise ConfigError(key, "each descriptor must be an object")
    if "modes" in entry:
        modes = entry["modes"]
        if not isinstance(modes, list) or not modes:
            raise ConfigError(f"{key}.modes", "expected a non-empty list")
        parsed = []
        for m, term in enumerate(modes):
            if not isinstance(term, dict):
                raise ConfigError(f"{key}.modes[{m}]", "expected an object")
            parsed.append(
                {
                    "mode": _integer(_require(term, "mode", f"{key}.modes[{m}]"),
                                     f"{key}.modes[{m}].mode"),
                    "re": _number(term.get("re", 0.0), f"{key}.modes[{m}].re"),
                    "im": _number(term.get("im", 0.0), f"{key}.modes[{m}].im"),
                }
            )
        return {"modes": parsed}
    if "gaussian" in entry:
        g = entry["gaussian"]
        parsed_g = {
            "amplitude": _number(_require(g, "amplitude", f"{key}.gaussian"),
                                 f"{key}.gaussian.amplitude"),
            "center": _number(_require(g, "center", f"{key}.gaussian"),
                              f"{key}.gaussian.center"),
            "width": _number(_require(g, "width", f"{key}.gaussian"),
                             f"{key}.gaussian.width"),
        }
        if parsed_g["width"] <= 0:
            raise ConfigError(f"{key}.gaussian.width", "must be > 0")
        for opt in ("momentum", "offset"):
            if opt in g:
                parsed_g[opt] = _number(g[opt], f"{key}.gaussian.{opt}")
        return {"gaussian": parsed_g}
    raise ConfigError(key, "descriptor needs either 'modes' or 'gaussian'")


def _parse_phi_tables(raw: Any, q: int) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("phi_coefficients", "must be an object of tables")
    parsed: dict[str, Any] = {}
    for name, value in raw.items():
        key = f"phi_coefficients.{name}"
        if name in ("drift_self", "drift_cross", "cubic"):
            parsed[name] = _matrix(value, key, q)
        elif name == "quartic":
            parsed[name] = _tensor3(value, key, q)
        elif name == "const_shift":
            parsed[name] = _vector(value, key, q)
        else:
            raise ConfigError(key, "unknown transformed-coefficient table")
    return parsed


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<path>", f"cannot read {path!r}") from None
    except json.JSONDecodeError as err:
        raise ConfigError("<json>", f"invalid JSON in {path!r}: {err}") from None
    return RunConfig.from_dict(raw)


def dumps_config(cfg: RunConfig) -> str:
    """Canonical JSON text; reparses to an equal RunConfig."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)
