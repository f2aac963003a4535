import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from cnls_gauge import (
    ComplexFieldSet,
    DerivativeSpec,
    DispersionMatrix,
    DriftCubicSpec,
    HydroFields,
    apply_gauge,
    compute_generator,
    from_hydro,
    make_grid,
    to_hydro,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture
def grid256():
    return make_grid(256, 0.0, TWO_PI)


@pytest.fixture
def grid128():
    return make_grid(128, 0.0, TWO_PI)


def band_limited_hydro(rng, grid, q, base=1.0, rel_amp=0.15, max_mode=6,
                       phase_amp=0.1):
    """Random smooth (rho, S) with rho bounded away from zero.

    Densities are base * (1 + sum of modes <= max_mode scaled to rel_amp);
    phases are zero-mean mode sums of size phase_amp.
    """
    x = grid.x
    rho = np.empty((q, grid.n_points))
    S = np.empty_like(rho)
    for k in range(q):
        wiggle = np.zeros_like(x)
        phase = np.zeros_like(x)
        for m in range(1, max_mode + 1):
            c = rng.uniform(-1.0, 1.0, 4) / m
            wiggle += c[0] * np.cos(m * x) + c[1] * np.sin(m * x)
            phase += c[2] * np.cos(m * x) + c[3] * np.sin(m * x)
        wiggle *= rel_amp / max(1.0, np.abs(wiggle).max())
        phase *= phase_amp / max(1.0, np.abs(phase).max())
        rho[k] = base * (1.0 + wiggle)
        S[k] = phase
    return HydroFields(rho=rho, S=S, grid=grid)


def band_limited_state(rng, grid, q, **kwargs) -> ComplexFieldSet:
    return from_hydro(band_limited_hydro(rng, grid, q, **kwargs))


def random_derivative_spec(rng, q, scale=1.0) -> DerivativeSpec:
    return DerivativeSpec(
        beta=scale * rng.uniform(-1.0, 1.0, (q, q)),
        gamma=scale * rng.uniform(-1.0, 1.0, (q, q)),
        delta=scale * rng.uniform(-1.0, 1.0, (q, q)),
        lam=scale * rng.uniform(-1.0, 1.0, (q, q, q)),
    )


def random_drift_cubic_spec(rng, q, scale=1.0) -> DriftCubicSpec:
    return DriftCubicSpec(
        delta=scale * rng.uniform(-1.0, 1.0, q),
        gamma=scale * rng.uniform(-1.0, 1.0, q),
    )


def random_dispersion(rng, q) -> DispersionMatrix:
    signs = rng.choice([-1.0, 1.0], q)
    return DispersionMatrix(values=signs * rng.uniform(0.5, 2.0, q))


def fractional_winding_setup(grid):
    """A gauged derivative-family state whose generator ramps wind a
    fractional number of times, so phi carries kappa = (0.194, -0.44).

    psi = (1 + 0.3 e^{ix} + 0.1 e^{-2ix}, 0.8 + 0.2 e^{3ix}) has mean
    densities (1.1, 0.68); with A = (1, 0.5) and delta = [[0.3, -0.2],
    [0.1, 0.25]] the ramp windings are (0.194, 0.56). Returns
    (phi, spec, gen, A).
    """
    x = grid.x
    psi = ComplexFieldSet(
        np.array([1.0 + 0.3 * np.exp(1j * x) + 0.1 * np.exp(-2j * x),
                  0.8 + 0.2 * np.exp(3j * x)]),
        grid,
    )
    A = DispersionMatrix([1.0, 0.5])
    spec = DerivativeSpec(
        beta=[[0.2, -0.1], [0.15, 0.3]],
        gamma=[[-0.1, 0.2], [0.25, -0.15]],
        delta=[[0.3, -0.2], [0.1, 0.25]],
        lam=[[[0.1, -0.05], [0.0, 0.08]], [[-0.06, 0.0], [0.04, 0.1]]],
    )
    gen = compute_generator(spec, to_hydro(psi), A)
    return apply_gauge(psi, gen), spec, gen, A


def perfbench_workloads():
    """The benchmark's workload generators, ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module
