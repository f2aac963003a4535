import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from cnls_gauge import (
    antiderivative,
    antiderivative_parts,
    derivative,
    integrate,
    make_grid,
)

TWO_PI = 2.0 * np.pi


def test_make_grid_spacing():
    g = make_grid(256, 0.0, TWO_PI)
    assert g.dx == pytest.approx(TWO_PI / 256, rel=0, abs=0)
    assert g.x[0] == 0.0
    assert g.x[-1] == pytest.approx(TWO_PI - g.dx)


def test_make_grid_small_domain():
    g = make_grid(8, -1.0, 1.0)
    assert g.dx == 0.25


def test_make_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        make_grid(100, 0.0, 1.0)
    with pytest.raises(ValueError, match="power of two"):
        make_grid(4, 0.0, 1.0)


def test_make_grid_rejects_bad_domain():
    with pytest.raises(ValueError, match="order"):
        make_grid(64, 1.0, 0.0)


def test_make_grid_rejects_overflowing_length():
    with pytest.raises(ValueError, match="length is not finite"):
        make_grid(64, -1e308, 1e308)


def test_derivative_sin(grid256):
    err = np.abs(derivative(np.sin(grid256.x), grid256) - np.cos(grid256.x)).max()
    assert err < 1e-13


def test_derivative_constant(grid256):
    assert np.abs(derivative(np.full(256, 3.7), grid256)).max() < 1e-14


def test_derivative_complex_mode(grid256):
    f = np.exp(2j * grid256.x)
    err = np.abs(derivative(f, grid256) - 2j * f).max()
    assert err < 1e-12


def test_derivative_linearity(grid256):
    rng = np.random.default_rng(0)
    x = grid256.x
    f = np.cos(3 * x) + 0.5 * np.sin(x)
    g = np.sin(5 * x)
    a, b = rng.uniform(-2, 2, 2)
    lhs = derivative(a * f + b * g, grid256)
    rhs = a * derivative(f, grid256) + b * derivative(g, grid256)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_derivative_length_mismatch(grid256):
    with pytest.raises(ValueError, match="length"):
        derivative(np.ones(100), grid256)


def test_antiderivative_cos(grid256):
    P = antiderivative(np.cos(grid256.x), grid256, anchor=0)
    assert np.abs(P - np.sin(grid256.x)).max() < 1e-13


def test_antiderivative_constant(grid256):
    anchor = 17
    P = antiderivative(np.full(256, 2.5), grid256, anchor=anchor)
    expected = 2.5 * (grid256.x - grid256.x[anchor])
    assert np.abs(P - expected).max() < 1e-12
    assert P[anchor] == 0.0


def test_antiderivative_vs_trapezoid_oracle(grid256):
    # Oracle: cumulative trapezoid of the integrand on a much finer grid,
    # sub-sampled at the coarse nodes.
    refine = 2**13
    n_fine = 256 * refine
    x_fine = np.linspace(0.0, TWO_PI, n_fine + 1)
    f_fine = 1.0 + np.cos(x_fine)
    oracle = cumulative_trapezoid(f_fine, x_fine, initial=0.0)[::refine]
    P = antiderivative(1.0 + np.cos(grid256.x), grid256, anchor=0)
    assert np.abs(P - oracle[:-1]).max() < 1e-10


def test_antiderivative_anchor_out_of_range(grid256):
    with pytest.raises(ValueError, match="anchor"):
        antiderivative(np.ones(256), grid256, anchor=256)


def test_derivative_of_antiderivative_roundtrip(grid256):
    # Band-limited f with nonzero mean: reconstruct from the split parts.
    x = grid256.x
    f = 0.7 + np.cos(2 * x) - 0.3 * np.sin(5 * x)
    periodic, ramp = antiderivative_parts(f, grid256, anchor=0)
    recon = derivative(periodic, grid256) + ramp
    assert np.abs(recon - f).max() < 1e-10


def test_integrate_constant(grid256):
    assert integrate(np.ones(256), grid256) == pytest.approx(TWO_PI, abs=1e-13)


def test_integrate_one_plus_cos(grid256):
    val = integrate(1.0 + np.cos(grid256.x), grid256)
    assert val == pytest.approx(TWO_PI, abs=1e-12)


def test_integrate_exp_sin_vs_quadrature_oracle(grid256):
    oracle, _ = quad(lambda x: np.exp(np.sin(x)), 0.0, TWO_PI, epsabs=1e-13)
    assert oracle == pytest.approx(7.9549265210128453, abs=1e-13)
    val = integrate(np.exp(np.sin(grid256.x)), grid256)
    assert abs(val - oracle) < 1e-12


def test_integrate_of_derivative_vanishes(grid256):
    x = grid256.x
    f = np.exp(np.cos(x)) + 0.2 * np.sin(3 * x)
    assert abs(integrate(derivative(f, grid256), grid256)) < 1e-12


def test_integrate_length_mismatch(grid256):
    with pytest.raises(ValueError, match="length"):
        integrate(np.ones(128), grid256)
