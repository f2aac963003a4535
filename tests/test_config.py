"""Config parsing: the initial descriptors and the package exports."""

import importlib
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import cnls_gauge
from cnls_gauge import ConfigError, RunConfig, dumps_config, load_config
from conftest import perfbench_workloads

REPO = Path(__file__).resolve().parents[1]


def gaussian_config(**gaussian):
    return {
        "grid": {"n_points": 128, "x_min": -10.0, "x_max": 10.0},
        "q": 1,
        "A": [1.0],
        "nonlinearity": {"family": "linear"},
        "initial": [{"gaussian": gaussian}],
        "dt": 1e-3,
        "t_end": 0.01,
        "amplitude": 0.7,
    }


BUMP = {"amplitude": 1.5, "center": 0.8, "width": 1.2, "momentum": 2.5, "offset": 0.3}


def test_gaussian_initial_matches_formula():
    cfg = RunConfig.from_dict(gaussian_config(**BUMP))
    grid = cfg.build_grid()
    x = grid.x
    bump = BUMP["amplitude"] * np.exp(
        -((x - BUMP["center"]) ** 2) / (2.0 * BUMP["width"] ** 2)
        + 1j * BUMP["momentum"] * x
    )
    expected = 0.7 * (BUMP["offset"] + bump)
    data = cfg.build_initial(grid).data[0]
    assert np.abs(data - expected).max() < 1e-15
    # the momentum phases the bump only: far from it the field is the real offset
    far = np.abs(x - BUMP["center"]) > 8.0
    assert far.any()
    assert np.abs(data[far] - 0.7 * BUMP["offset"]).max() < 1e-9


def test_gaussian_zero_width_names_its_key():
    with pytest.raises(ConfigError) as excinfo:
        RunConfig.from_dict(gaussian_config(**{**BUMP, "width": 0.0}))
    assert excinfo.value.key == "initial[0].gaussian.width"


def test_gaussian_missing_amplitude_names_its_key():
    bump = {k: v for k, v in BUMP.items() if k != "amplitude"}
    with pytest.raises(ConfigError) as excinfo:
        RunConfig.from_dict(gaussian_config(**bump))
    assert excinfo.value.key == "initial[0].gaussian.amplitude"


def test_gaussian_config_dump_reparses_equal():
    cfg = RunConfig.from_dict(gaussian_config(**BUMP))
    assert RunConfig.from_dict(json.loads(dumps_config(cfg))) == cfg


def _mode_sum_configs():
    # the shipped configs and seeds 1-20 of every benchmark workload
    workloads = perfbench_workloads()
    for config in sorted((REPO / "configs").glob("*.json")):
        yield config.stem, load_config(str(config))
    for name, make in workloads.WORKLOADS.items():
        for seed in range(1, 21):
            yield f"{name}-{seed}", RunConfig.from_dict(make(seed).config)


def _plain_modes(cfg, grid):
    # the mode sum as written: amp * exp(2j pi m (x - x_min) / L), term by term
    x, L = grid.x, grid.length
    data = np.zeros((cfg.q, grid.n_points), dtype=complex)
    for k, entry in enumerate(cfg.initial):
        for term in entry["modes"]:
            amp = term["re"] + 1j * term["im"]
            data[k] += amp * np.exp(2j * np.pi * term["mode"] * (x - grid.x_min) / L)
    data *= cfg.amplitude
    return data


def test_mode_sums_have_the_bytes_of_the_plain_expression():
    for name, cfg in _mode_sum_configs():
        grid = cfg.build_grid()
        got = cfg.build_initial(grid).data
        assert got.tobytes() == _plain_modes(cfg, grid).tobytes(), name


def _modules():
    yield cnls_gauge
    for info in pkgutil.iter_modules(cnls_gauge.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"cnls_gauge.{info.name}")


@pytest.mark.parametrize("module", list(_modules()), ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []
