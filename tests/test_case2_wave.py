"""Gate of the RK4 march of a phi on its field-form stage (tables that
read dS/dx and have no flux) against an exact answer: case 2's
transformed system, whose tables are diagonal, marched from the exact
travelling dn waves of ``case2_wave`` (two species, one with A < 0 and a
negative carrier). Every gate is written so that a NaN fails it."""

import numpy as np

from cnls_gauge import (
    DispersionMatrix,
    SimState,
    case2_coeffs,
    case2_wave,
    make_grid,
    step,
    transformed_spec,
)
from cnls_gauge.solver import _stack_blocks

EPS = np.finfo(float).eps


def test_rk4_phi_is_fourth_order_against_the_exact_case2_wave():
    # n = 64, t = 0.25 (the grid holds the waves to 2e-14), dt = 2e-3 (0.72
    # of the step bound) and three halvings: density and field errors fall
    # about 16-fold per halving (2.5e-6 to 5.9e-10 in rho, 2.4e-6 to
    # 6.2e-10 in the field), each at least 20 times 100 n_steps eps
    # peak|u0|, the roundoff of its march
    grid = make_grid(64, 0.0, 2.0 * np.pi)
    A = DispersionMatrix([1.0, -0.5])
    spec, eta = case2_coeffs([[0.3, -0.2], [0.1, 0.25]], [0.4, -0.3], A)
    tables = transformed_spec(spec, A)
    assert _stack_blocks(tables.tables) == (False, True)  # the field form

    def wave(t):
        return case2_wave(grid, t, A, eta, kappa=[6, -6], m=0.6, p=2).fields

    initial, t_end = SimState(0.0, wave(0.0), tables, A), 0.25
    exact = wave(t_end).data
    peak = float(np.abs(initial.fields.data).max())
    errors = []
    for dt in (2e-3, 1e-3, 5e-4, 2.5e-4):
        n_steps = int(round(t_end / dt))
        state = initial
        for _ in range(n_steps):
            state = step(state, dt)
        u = state.fields.data
        error = (float(np.abs(np.abs(u) ** 2 - np.abs(exact) ** 2).max()),
                 float(np.abs(u - exact).max()))
        assert np.isfinite(error).all(), (dt, error)
        roundoff = n_steps * EPS * peak
        assert not (min(error) < 100.0 * roundoff), (dt, error, roundoff)
        errors.append(error)
    for coarse, fine in zip(errors, errors[1:]):
        for ratio in np.divide(coarse, fine):
            assert not (ratio < 12.0) and not (ratio > 20.0), (errors, ratio)
