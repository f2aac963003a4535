import numpy as np
import pytest
from scipy.integrate import quad

from cnls_gauge import (
    ComplexFieldSet,
    DispersionMatrix,
    HydroFields,
    VacuumError,
    from_hydro,
    integrate,
    phase_gradient,
    phase_winding,
    to_hydro,
)

from conftest import band_limited_hydro

TWO_PI = 2.0 * np.pi


def test_dispersion_rejects_zero():
    with pytest.raises(ValueError, match="zero dispersion"):
        DispersionMatrix(values=[1.0, 0.0])


def test_to_hydro_constant_one(grid256):
    psi = ComplexFieldSet(np.ones((1, 256), dtype=complex), grid256)
    h = to_hydro(psi)
    assert np.abs(h.rho - 1.0).max() < 1e-15
    assert np.abs(h.S).max() < 1e-15


def test_to_hydro_constant_i(grid256):
    psi = ComplexFieldSet(1j * np.ones((1, 256)), grid256)
    h = to_hydro(psi)
    assert np.abs(h.rho - 1.0).max() < 1e-15
    assert np.abs(h.S - np.pi / 2).max() < 1e-15


def test_to_hydro_unwraps_phase_ramp(grid256):
    # |psi| = 2 with a slow non-winding phase ramp: S must come out
    # continuous (0.3 x), not folded into (-pi, pi].
    x = grid256.x
    psi = ComplexFieldSet((2.0 * np.exp(0.3j * x))[None, :], grid256)
    h = to_hydro(psi)
    assert np.abs(h.rho - 4.0).max() < 1e-14
    assert np.abs(h.S - 0.3 * x).max() < 1e-12
    assert np.abs(np.diff(h.S)).max() < np.pi


def test_to_hydro_all_vacuum(grid256):
    psi = ComplexFieldSet(np.zeros((1, 256), dtype=complex), grid256)
    with pytest.raises(VacuumError):
        to_hydro(psi)


def test_to_hydro_flags_and_interpolates_vacuum_nodes(grid256):
    data = np.sin(grid256.x).astype(complex)[None, :]
    h = to_hydro(ComplexFieldSet(data, grid256), floor=1e-6)
    assert h.vacuum.any()
    assert np.all(np.isfinite(h.S))
    # nodes at the zeros of sin are flagged
    assert h.vacuum[0, 0]


def test_from_hydro_basic(grid256):
    h = HydroFields(np.ones((1, 256)), np.zeros((1, 256)), grid256)
    psi = from_hydro(h)
    assert np.abs(psi.data - 1.0).max() < 1e-15

    h2 = HydroFields(4.0 * np.ones((1, 256)), np.pi * np.ones((1, 256)), grid256)
    psi2 = from_hydro(h2)
    assert np.abs(psi2.data - (-2.0)).max() < 1e-14


def test_from_hydro_rejects_negative_density(grid256):
    with pytest.raises(ValueError, match="negative density"):
        HydroFields(-np.ones((1, 256)), np.zeros((1, 256)), grid256)


def test_roundtrip_from_to_hydro(grid256):
    rng = np.random.default_rng(3)
    h = band_limited_hydro(rng, grid256, q=2, base=0.5)
    psi = from_hydro(h)
    back = to_hydro(psi)
    assert np.abs(back.rho - h.rho).max() < 1e-12
    # phases may differ by a global 2*pi multiple per species
    shift = np.round((back.S - h.S)[:, :1] / TWO_PI) * TWO_PI
    assert np.abs(back.S - h.S - shift).max() < 1e-10


def test_roundtrip_to_from_hydro(grid256):
    rng = np.random.default_rng(4)
    psi = from_hydro(band_limited_hydro(rng, grid256, q=2, base=0.3))
    again = from_hydro(to_hydro(psi))
    assert np.abs(again.data - psi.data).max() < 1e-12


def test_density_of_from_hydro_matches(grid256):
    rng = np.random.default_rng(5)
    h = band_limited_hydro(rng, grid256, q=3, base=2.0)
    psi = from_hydro(h)
    assert np.abs(np.abs(psi.data) ** 2 - h.rho).max() < 1e-12


def test_norms_basic(grid256):
    h = HydroFields(np.ones((1, 256)), np.zeros((1, 256)), grid256)
    assert integrate(h.rho, grid256)[0] == pytest.approx(TWO_PI, abs=1e-12)

    rho = np.array([1.0 + np.cos(grid256.x), 2.0 * np.ones(256)])
    h2 = HydroFields(rho, np.zeros((2, 256)), grid256)
    assert np.abs(integrate(h2.rho, grid256) - [TWO_PI, 2 * TWO_PI]).max() < 1e-12


def test_norms_gaussian_bump_vs_quadrature(grid256):
    # Width-1 bump: tails at the domain edge are ~exp(-pi^2) ~ 5e-5, which
    # caps the agreement with adaptive quadrature at the boundary
    # (Euler-Maclaurin) level ~3e-8 on 256 nodes.
    rho = np.exp(-((grid256.x - np.pi) ** 2))[None, :]
    h = HydroFields(rho, np.zeros((1, 256)), grid256)
    oracle, _ = quad(lambda x: np.exp(-((x - np.pi) ** 2)), 0.0, TWO_PI, epsabs=1e-14)
    assert abs(integrate(h.rho, grid256)[0] - oracle) < 5e-8

    # A bump localized enough to be effectively periodic reaches the
    # spectral-quadrature regime.
    rho4 = np.exp(-4.0 * ((grid256.x - np.pi) ** 2))[None, :]
    h4 = HydroFields(rho4, np.zeros((1, 256)), grid256)
    oracle4, _ = quad(lambda x: np.exp(-4.0 * ((x - np.pi) ** 2)), 0.0, TWO_PI,
                      epsabs=1e-14)
    assert oracle4 == pytest.approx(np.sqrt(np.pi) / 2.0, abs=1e-12)
    assert abs(integrate(h4.rho, grid256)[0] - oracle4) < 1e-10


def test_norms_invariant_under_phase_change(grid256):
    rng = np.random.default_rng(6)
    h = band_limited_hydro(rng, grid256, q=2)
    psi = from_hydro(h)
    theta = 0.7 * np.sin(grid256.x) + 0.4
    rotated = ComplexFieldSet(psi.data * np.exp(1j * theta), grid256)
    n0 = integrate(to_hydro(psi).rho, grid256)
    n1 = integrate(to_hydro(rotated).rho, grid256)
    assert np.abs(n1 - n0).max() < 1e-13


def test_phase_winding_and_gradient(grid256):
    x = grid256.x
    data = np.array([np.exp(3j * x), np.exp(-2j * x) * (1.0 + 0.1 * np.cos(x))])
    h = to_hydro(ComplexFieldSet(data, grid256))
    assert list(phase_winding(h)) == [3, -2]
    dS = phase_gradient(h)
    assert np.abs(dS[0] - 3.0).max() < 1e-10


def test_phase_gradient_adds_kappa(grid128):
    # phi = exp(i 0.3 (x - x_min)): the samples' unwrapped phase does not
    # close over the period; kappa is split off before the winding is read
    h = to_hydro(ComplexFieldSet(np.ones((1, 128), dtype=complex), grid128, kappa=[0.3]))
    assert h.kappa.tolist() == [0.3]
    assert np.abs(phase_gradient(h) - 0.3).max() < 1e-12


def test_hydro_fields_kappa_defaults_to_zero_and_checks_shape(grid128):
    h = HydroFields(np.ones((2, 128)), np.zeros((2, 128)), grid128)
    assert h.kappa.tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="kappa"):
        HydroFields(np.ones((2, 128)), np.zeros((2, 128)), grid128, kappa=[0.1])


@pytest.mark.parametrize("kappa", [0.0, 0.3, -0.45])
def test_vacuum_interpolation_across_the_seam_keeps_the_winding(grid128, kappa):
    # |sin(x/2)| e^{ix} vanishes only at node 0; its phase x winds once, and
    # with kappa the samples' phase (1 + kappa) x closes to 2 pi + kappa L
    x = grid128.x
    data = (np.abs(np.sin(x / 2)) * np.exp(1j * x))[None, :]
    h = to_hydro(ComplexFieldSet(data, grid128, kappa=[kappa]))
    assert np.nonzero(h.vacuum[0])[0].tolist() == [0]
    assert abs(h.S[0, 0]) < 1e-12
    assert phase_winding(h).tolist() == [1]
    assert np.abs(phase_gradient(h) - (1.0 + kappa)).max() < 1e-12


@pytest.mark.parametrize("kappa", [0.3, -0.45])
def test_from_hydro_round_trip_keeps_kappa(grid128, kappa):
    x = grid128.x
    data = ((1.0 + 0.2 * np.cos(x)) * np.exp(2j * x + 0.1j * np.sin(x)))[None, :]
    h = to_hydro(ComplexFieldSet(data, grid128, kappa=[kappa]))
    back = from_hydro(h)
    assert back.kappa.tolist() == [kappa]
    assert np.abs(back.data - data).max() < 1e-14
    dS = phase_gradient(to_hydro(back))
    assert np.abs(dS - phase_gradient(h)).max() < 1e-12
    assert np.abs(dS - (2.0 + kappa + 0.1 * np.cos(x))).max() < 1e-12


def test_phase_winding_splits_off_kappa(grid128):
    # exp(i (2 + 0.6) x): winding 2 of the periodic data, not rint(2.6)
    data = np.exp(2j * grid128.x)[None, :]
    h = to_hydro(ComplexFieldSet(data, grid128, kappa=[0.6]))
    assert phase_winding(h).tolist() == [2]
