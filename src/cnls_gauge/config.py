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
    dt, t_end (an integer multiple of dt), sample_every, amplitude,
    system, output_dir, tolerance
    phi_coefficients  optional transformed tables overriding the computed
                  ones wherever they are built: transform, verify, and
                  convergence with system "phi"

Every number must be finite, and so must the domain length and the RK4
step bound they give, and the peak density and the norms of the initial
data (bounded from the descriptors' amplitudes). The transformed
coefficient tables must be finite for the commands that build them.
Parsed configs are plain-value dataclasses so that a dumped config
reparses to an equal object.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .fields import ComplexFieldSet, DispersionMatrix
from .gauge import TransformedSpec, transformed_spec
from .grid import Grid1D, make_grid
from .nonlinearity import DerivativeSpec, DriftCubicSpec, FamilySpec, LinearSpec
from .solver import stability_bound

__all__ = ["ConfigError", "RunConfig", "load_config", "dumps_config"]

FAMILIES = {
    "linear": LinearSpec, "drift_cubic": DriftCubicSpec, "derivative": DerivativeSpec,
}
# A table's config key is its spec field name, except where listed here.
_CONFIG_KEY = {"lam": "lambda"}
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
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(key, f"expected a finite number, got {number!r}")
    return number


def _integer(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(key, f"expected an integer, got {value!r}")
    try:
        float(value)
    except OverflowError:  # named by its size: the float repr would read inf
        raise ConfigError(
            key, f"an integer of {value.bit_length()} bits is beyond the float range"
        ) from None
    return int(value)


def _table(value: Any, key: str, q: int, rank: int) -> Any:
    """A table of shape (q,) * rank, rank >= 1: lists of q entries nested
    ``rank`` deep, with finite numbers at the bottom."""
    if not isinstance(value, list) or len(value) != q:
        raise ConfigError(key, f"expected a list of {q} entries, got {value!r}")
    if rank == 1:
        return [_number(v, key) for v in value]
    return [_table(v, key, q, rank - 1) for v in value]


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
        if not x_max > x_min:
            raise ConfigError(
                "grid.x_max", f"must exceed grid.x_min = {x_min!r}, got {x_max!r}"
            )
        if not math.isfinite(x_max - x_min):
            raise ConfigError(
                "grid.x_max", f"the domain length x_max - x_min = {x_max - x_min!r} "
                f"is not finite (x_min = {x_min!r}, x_max = {x_max!r})"
            )
        try:
            grid = make_grid(n_points, x_min, x_max)
        except ValueError as err:
            raise ConfigError("grid.n_points", str(err)) from None
        # the step bound squares the top wavenumber pi/dx
        k_max = math.pi / grid.dx if grid.dx > 0.0 else math.inf
        if not math.isfinite(k_max * k_max):
            raise ConfigError(
                "grid.x_max", f"the domain length x_max - x_min = {x_max - x_min!r} "
                f"is too short for {n_points} points: (pi/dx)^2 overflows"
            )

        q = _integer(_require(raw, "q"), "q")
        if q < 1:
            raise ConfigError("q", "must be >= 1")
        A = _table(_require(raw, "A"), "A", q, 1)
        if any(a == 0.0 for a in A):
            raise ConfigError("A", "dispersion coefficients must be nonzero")
        try:
            bound = stability_bound(grid, DispersionMatrix(values=np.asarray(A)))
        except ZeroDivisionError:  # max|A_k| (pi/dx)^2 underflows to zero
            bound = math.inf
        if not math.isfinite(bound):
            raise ConfigError(
                "A", "the RK4 step bound 2 sqrt(2) / (max|A_k| (pi/dx)^2) is not "
                f"finite: max|A_k| = {max(abs(a) for a in A)!r} is too small"
            )

        nl = _require(raw, "nonlinearity")
        family = _require(nl, "family", "nonlinearity")
        if not isinstance(family, str) or family not in FAMILIES:
            raise ConfigError(
                "nonlinearity.family", f"must be one of {tuple(FAMILIES)}, got {family!r}"
            )
        coefficients: dict = {}
        for name, rank in FAMILIES[family].TABLES.items():
            key = _CONFIG_KEY.get(name, name)
            coefficients[key] = _table(
                _require(nl, key, "nonlinearity"), f"nonlinearity.{key}", q, rank
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
        n_steps = round(t_end / dt)
        if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
            raise ConfigError("t_end", f"must be an integer multiple of dt = {dt!r}")
        sample_every = _integer(raw.get("sample_every", 1), "sample_every")
        if sample_every < 1:
            raise ConfigError("sample_every", "must be >= 1")
        amplitude = _number(raw.get("amplitude", 1.0), "amplitude")
        if initial is not None:
            _check_initial_finite(initial, amplitude, grid.length)
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
        spec_type = FAMILIES[self.family]
        if spec_type is LinearSpec:
            return LinearSpec(q=self.q)
        return spec_type(**{
            name: np.asarray(self.coefficients[_CONFIG_KEY.get(name, name)])
            for name in spec_type.TABLES
        })

    @property
    def n_steps(self) -> int:
        """Steps of size dt to t_end (an integer multiple of dt, checked on parsing)."""
        return round(self.t_end / self.dt)

    def build_transformed_spec(self, spec: FamilySpec) -> TransformedSpec:
        """Transformed tables of ``spec`` (this config's ``build_family_spec()``),
        with any ``phi_coefficients`` overrides applied.

        They divide by the A_k, so finite coefficients can give non-finite
        tables (``A = [1, 1e-320]``); that is a ConfigError naming A when
        the tables are finite at unit dispersion, the nonlinearity otherwise.
        """
        with np.errstate(all="ignore"):
            try:
                base = transformed_spec(spec, self.build_dispersion())
            except ValueError as err:
                try:
                    transformed_spec(spec, DispersionMatrix(values=np.ones(self.q)))
                    key = "A"
                except ValueError:
                    key = "nonlinearity"
                raise ConfigError(
                    key, f"the transformed coefficient tables are not finite ({err})"
                ) from None
        if not self.phi_coefficients:
            return base
        return replace(
            base, **{k: np.asarray(v) for k, v in self.phi_coefficients.items()}
        )

    def build_initial(self, grid: Grid1D) -> ComplexFieldSet:
        if self.initial is None:
            raise ConfigError("initial", "missing (required by this command)")
        x = grid.x
        data = np.zeros((self.q, grid.n_points), dtype=complex)
        # amp * exp(2j pi m (x - x_min) / L), term by term with the bytes of
        # that expression in fewer passes: the argument's real part is a zero
        # and its imaginary part the real product (2 pi m (x - x_min)) (1/L),
        # which is what numpy's complex division by L computes; exp of it is
        # cos + i sin; a mode-0 term is amp itself. amp stays the left operand:
        # numpy's complex product is not commutative to the last bit.
        offset, inv_L = x - grid.x_min, 1.0 / grid.length
        wave = np.empty(grid.n_points, dtype=complex)
        for k, entry in enumerate(self.initial):
            if "modes" in entry:
                for term in entry["modes"]:
                    amp = term["re"] + 1j * term["im"]
                    if term["mode"] == 0:
                        data[k] += amp
                        continue
                    arg = (2j * np.pi * term["mode"]).imag * offset
                    arg *= inv_L
                    np.cos(arg, out=wave.real)
                    np.sin(arg, out=wave.imag)
                    data[k] += np.multiply(amp, wave, out=wave)
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


def _check_initial_finite(initial: list, amplitude: float, length: float) -> None:
    """Raise unless bounds on the initial peak density and norm are finite.

    From the amplitudes alone, without building the field: species k of a
    mode sum has peak density at most (a sum_m |c_m|)^2 and norm
    L a^2 sum_m |c_m|^2 (exact for distinct modes); a Gaussian has peak
    density at most (a (|amplitude| + |offset|))^2 and norm at most L times
    that. A finite field whose |u|^2 overflows fails here, not as infinite
    norms in the diagnostics.
    """
    a = abs(amplitude)
    for k, entry in enumerate(initial):
        if "modes" in entry:
            mags = [a * math.hypot(t["re"], t["im"]) for t in entry["modes"]]
            top = sum(mags)
            norm = length * sum(m * m for m in mags)
        else:
            g = entry["gaussian"]
            top = a * (abs(g["amplitude"]) + abs(g.get("offset", 0.0)))
            norm = length * top * top
        for name, value in (("peak density", top * top), ("norm", norm)):
            if not math.isfinite(value):
                raise ConfigError(
                    "initial", f"species {k + 1}: the {name} of the initial data "
                    f"is not finite (amplitudes too large)"
                )


def _parse_phi_tables(raw: Any, q: int) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("phi_coefficients", "must be an object of tables")
    parsed: dict[str, Any] = {}
    for name, value in raw.items():
        key = f"phi_coefficients.{name}"
        if name not in TransformedSpec.TABLES:
            raise ConfigError(key, "unknown transformed-coefficient table")
        parsed[name] = _table(value, key, q, TransformedSpec.TABLES[name])
    return parsed


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError("<path>", f"cannot read {path!r}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(
            "<path>", f"cannot read {path!r}: not UTF-8 text ({err.reason})"
        ) from None
    except json.JSONDecodeError as err:
        raise ConfigError("<json>", f"invalid JSON in {path!r}: {err}") from None
    return RunConfig.from_dict(raw)


def dumps_config(cfg: RunConfig) -> str:
    """Canonical JSON text; reparses to an equal RunConfig."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)
