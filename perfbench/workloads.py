"""Seeded inputs for the benchmark workloads.

Every workload is a JSON run configuration plus the CLI command that
consumes it. The configuration is a pure function of the seed; the program
under test sees only the generated file.

Sizes are fixed per workload so that the cost of one solve does not depend
on the seed: the seed moves coefficient values and initial mode content,
never n, q, the step count or the sample count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "simulate"
    config: dict
    steps_per_solve: int  # RK4 steps taken by one solve, all systems together

    @property
    def q(self) -> int:
        return self.config["q"]

    @property
    def n(self) -> int:
        return self.config["grid"]["n_points"]

    @property
    def n_steps(self) -> int:
        return int(round(self.config["t_end"] / self.config["dt"]))

    @property
    def sample_count(self) -> int:
        """Rows of the command's CSV (and snapshots written by simulate)."""
        n_steps, every = self.n_steps, self.config["sample_every"]
        if self.command == "verify":
            # initial sample, every sample_every-th step, and the final step
            return 1 + n_steps // every + (1 if n_steps % every else 0)
        # steps 0, every, 2*every, ... before the march ends, plus the final state
        return -(-n_steps // every) + 1

    def config_hash(self) -> str:
        text = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _modes(rng: np.random.Generator, base: float, count: int, max_mode: int,
           amp: float) -> list[dict]:
    """Mode-0 background of size ``base`` plus ``count`` distinct low modes.

    The perturbation amplitudes sum to at most base/4, so |psi| stays above
    3/4 of the background and no node approaches the vacuum floor.
    """
    candidates = [m for m in range(-max_mode, max_mode + 1) if m != 0]
    chosen = rng.choice(candidates, size=count, replace=False)
    terms = [{"mode": 0, "re": base, "im": 0.0}]
    for m in chosen:
        mag = amp * rng.uniform(0.3, 1.0)
        angle = rng.uniform(0.0, TWO_PI)
        terms.append({"mode": int(m), "re": mag * math.cos(angle),
                      "im": mag * math.sin(angle)})
    return terms


def _norm(terms: list[dict], length: float) -> float:
    # Parseval: distinct Fourier modes are orthogonal on the period
    return length * sum(t["re"] ** 2 + t["im"] ** 2 for t in terms)


def _dispersion(rng: np.random.Generator, q: int) -> list[float]:
    # |A_k| <= 1 keeps every workload's dt under the 0.5 dx^2/max|A| bound
    mags = rng.choice([0.5, 0.75, 1.0], size=q)
    signs = rng.choice([-1.0, 1.0], size=q)
    return [float(v) for v in mags * signs]


def _grid(n: int) -> dict:
    return {"n_points": n, "x_min": 0.0, "x_max": TWO_PI}


def _timing(dt: float, n_steps: int, sample_every: int) -> dict:
    return {"dt": dt, "t_end": n_steps * dt, "sample_every": sample_every}


def equiv_drift(seed: int, smoke: bool = False) -> Workload:
    """verify on drift-cubic input, q=2, shaped like family_a_verify.json.

    delta_k = -2 A_k m_k with integer m_k makes the generator ramp
    -delta_k/(2 A_k) an exact integer winding.
    """
    rng = np.random.default_rng([1, seed])
    q, n = 2, (64 if smoke else 256)
    A = _dispersion(rng, q)
    m = rng.choice([-1, 1], size=q)
    delta = [-2.0 * a * int(mk) for a, mk in zip(A, m)]
    gamma = [float(g) for g in rng.uniform(-0.5, 0.5, size=q)]
    initial = [{"modes": _modes(rng, rng.uniform(0.22, 0.3), 3, 3, 0.02)}
               for _ in range(q)]
    n_steps, every = (4, 2) if smoke else (240, 40)
    config = {
        "grid": _grid(n), "q": q, "A": A,
        "nonlinearity": {"family": "drift_cubic", "delta": delta, "gamma": gamma},
        "initial": initial,
        **_timing(1.25e-4, n_steps, every),
        "tolerance": 1e-6,
    }
    return Workload("equiv_drift", "verify", config, 2 * n_steps)


def equiv_deriv(seed: int, smoke: bool = False) -> Workload:
    """verify on derivative-family input, q=3.

    The diagonal of delta is solved from the initial norms so that
    sum_j delta_kj N_j = 0: the ramp kappa_k = (1/(A_k L)) sum_j delta_kj N_j
    then vanishes and every winding is the integer 0.
    """
    rng = np.random.default_rng([2, seed])
    q, n = 3, (64 if smoke else 512)
    A = _dispersion(rng, q)
    beta = rng.uniform(-0.5, 0.5, size=(q, q))
    gamma = rng.uniform(-0.5, 0.5, size=(q, q))
    lam = rng.uniform(-0.3, 0.3, size=(q, q, q))
    delta = rng.uniform(-0.5, 0.5, size=(q, q))
    initial = [{"modes": _modes(rng, rng.uniform(0.22, 0.3), 3, 4, 0.02)}
               for _ in range(q)]
    norms = np.array([_norm(e["modes"], TWO_PI) for e in initial])
    for k in range(q):
        off = sum(delta[k, j] * norms[j] for j in range(q) if j != k)
        delta[k, k] = -off / norms[k]
    n_steps, every = (4, 2) if smoke else (200, 25)
    config = {
        "grid": _grid(n), "q": q, "A": A,
        "nonlinearity": {"family": "derivative", "beta": beta.tolist(),
                         "gamma": gamma.tolist(), "delta": delta.tolist(),
                         "lambda": lam.tolist()},
        "initial": initial,
        **_timing(2e-5, n_steps, every),
        "tolerance": 1e-6,
    }
    return Workload("equiv_deriv", "verify", config, 2 * n_steps)


def simulate_wide(seed: int, smoke: bool = False) -> Workload:
    """simulate on a derivative-family psi system, q=2, wide grid.

    Diagnostics and a snapshot every 20 steps. The gauge layer is never
    called, so gauge-only changes should leave this workload unchanged.
    """
    rng = np.random.default_rng([3, seed])
    q, n = 2, (64 if smoke else 4096)
    A = _dispersion(rng, q)
    initial = [{"modes": _modes(rng, rng.uniform(0.22, 0.3), 4, 6, 0.02)}
               for _ in range(q)]
    n_steps, every = (4, 2) if smoke else (100, 20)
    config = {
        "grid": _grid(n), "q": q, "A": A,
        "nonlinearity": {
            "family": "derivative",
            "beta": rng.uniform(-0.5, 0.5, size=(q, q)).tolist(),
            "gamma": rng.uniform(-0.5, 0.5, size=(q, q)).tolist(),
            "delta": rng.uniform(-0.5, 0.5, size=(q, q)).tolist(),
            "lambda": rng.uniform(-0.3, 0.3, size=(q, q, q)).tolist(),
        },
        "initial": initial,
        **_timing(5e-7, n_steps, every),
    }
    # evolve adds one backward step and one step past t_end for the
    # centered continuity residual
    return Workload("simulate_wide", "simulate", config, n_steps + 2)


WORKLOADS = {
    "equiv_drift": equiv_drift,
    "equiv_deriv": equiv_deriv,
    "simulate_wide": simulate_wide,
}
