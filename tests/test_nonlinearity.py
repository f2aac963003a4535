from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from cnls_gauge import (
    CoefficientTables,
    ComplexFieldSet,
    DerivativeSpec,
    DriftCubicSpec,
    HydroFields,
    LinearSpec,
    TransformedSpec,
    VacuumError,
    derivative,
    eval_F,
    eval_W,
    eval_Wim,
    make_grid,
    phase_gradient,
    to_hydro,
)

from conftest import (
    band_limited_hydro,
    random_derivative_spec,
    random_dispersion,
    random_drift_cubic_spec,
)

TWO_PI = 2.0 * np.pi


def const_hydro(grid, values, q=None):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    q = q or values.size
    rho = np.broadcast_to(values[:, None], (q, grid.n_points)).copy()
    return HydroFields(rho, np.zeros((q, grid.n_points)), grid)


def test_eval_W_zero_coefficients(grid256):
    spec = DerivativeSpec(
        beta=np.zeros((1, 1)), gamma=np.zeros((1, 1)),
        delta=np.zeros((1, 1)), lam=np.zeros((1, 1, 1)),
    )
    h = const_hydro(grid256, [1.3])
    assert np.abs(eval_W(spec, h)).max() == 0.0


def test_eval_W_drift_cubic_constant_density(grid256):
    spec = DriftCubicSpec(delta=[0.0], gamma=[1.0])
    c = 0.8
    h = const_hydro(grid256, [c])
    W = eval_W(spec, h)
    assert np.abs(W + c).max() < 1e-14


def test_eval_W_drift_cubic_cross_coupling(grid256):
    # two species: W_k = -gamma_k rho_k - 2 * sum_{j != k} gamma_j rho_j
    spec = DriftCubicSpec(delta=[0.0, 0.0], gamma=[1.0, 2.0])
    h = const_hydro(grid256, [0.5, 0.25])
    W = eval_W(spec, h)
    assert np.abs(W[0] - (-1.0 * 0.5 - 2 * 2.0 * 0.25)).max() < 1e-14
    assert np.abs(W[1] - (-2.0 * 0.25 - 2 * 1.0 * 0.5)).max() < 1e-14


def test_eval_W_derivative_quartic_sum_oracle(grid256):
    # lam_kji = 1 for all indices: W_k = (sum_j rho_j)^2; direct summation oracle
    q = 2
    c = 0.7
    spec = DerivativeSpec(
        beta=np.zeros((q, q)), gamma=np.zeros((q, q)),
        delta=np.zeros((q, q)), lam=np.ones((q, q, q)),
    )
    h = const_hydro(grid256, [c, c])
    W = eval_W(spec, h)
    oracle = np.zeros(q)
    for k in range(q):
        for j in range(q):
            for i in range(q):
                oracle[k] += 1.0 * c * c
    assert np.allclose(oracle, 4 * c * c)
    assert np.abs(W - oracle[:, None]).max() < 1e-14


def test_eval_Wim_constant_density_vanishes(grid256):
    h = const_hydro(grid256, [1.0, 2.0])
    specs = [
        DriftCubicSpec(delta=[1.0, -2.0], gamma=[0.3, 0.1]),
        random_derivative_spec(np.random.default_rng(0), 2),
    ]
    for spec in specs:
        assert np.abs(eval_Wim(spec, h)).max() < 1e-12


def test_eval_Wim_drift_cubic_log_gradient(grid256):
    # rho = exp(sin x): d(log rho)/dx = cos x, so Wim = -(delta/2) cos x
    rho = np.exp(np.sin(grid256.x))[None, :]
    h = HydroFields(rho, np.zeros((1, 256)), grid256)
    spec = DriftCubicSpec(delta=[2.0], gamma=[0.0])
    Wim = eval_Wim(spec, h)
    assert np.abs(Wim + np.cos(grid256.x)).max() < 1e-11


def test_eval_Wim_derivative_cross_term_sympy_oracle(grid256):
    # q=2, only delta_12 = 1, rho_1 = 1, rho_2 = 1 + cos(x)/2:
    # Wim_1 = d(rho_2)/dx + (rho_2/rho_1) d(rho_1)/dx, Wim_2 = 0
    xs = sympy.symbols("x")
    rho2_expr = 1 + sympy.cos(xs) / 2
    oracle1 = sympy.lambdify(xs, sympy.diff(rho2_expr, xs), "numpy")
    x = grid256.x
    rho = np.array([np.ones_like(x), 1.0 + 0.5 * np.cos(x)])
    h = HydroFields(rho, np.zeros((2, 256)), grid256)
    delta = np.array([[0.0, 1.0], [0.0, 0.0]])
    spec = DerivativeSpec(
        beta=np.zeros((2, 2)), gamma=np.zeros((2, 2)), delta=delta,
        lam=np.zeros((2, 2, 2)),
    )
    Wim = eval_Wim(spec, h)
    assert np.abs(Wim[0] - oracle1(x)).max() < 1e-11
    assert np.abs(Wim[0] + 0.5 * np.sin(x)).max() < 1e-11
    assert np.abs(Wim[1]).max() < 1e-14


def test_eval_F_zero_drift(grid256):
    h = const_hydro(grid256, [1.0])
    a = DriftCubicSpec(delta=[0.0], gamma=[3.0])
    b = DerivativeSpec(
        beta=np.ones((1, 1)), gamma=np.ones((1, 1)),
        delta=np.zeros((1, 1)), lam=np.ones((1, 1, 1)),
    )
    assert np.abs(eval_F(a, h)).max() == 0.0
    assert np.abs(eval_F(b, h)).max() == 0.0


def test_eval_F_drift_cubic_constant(grid256):
    spec = DriftCubicSpec(delta=[2.0], gamma=[0.0])
    h = const_hydro(grid256, [3.0])
    assert np.abs(eval_F(spec, h) + 3.0).max() < 1e-14


def test_eval_F_derivative_divergence_identity(grid256):
    # q=1, delta=1, rho = 1 + cos(x)/2: F = rho^2 and (1/rho) dF/dx == Wim
    rho = (1.0 + 0.5 * np.cos(grid256.x))[None, :]
    h = HydroFields(rho, np.zeros((1, 256)), grid256)
    spec = DerivativeSpec(
        beta=np.zeros((1, 1)), gamma=np.zeros((1, 1)),
        delta=np.ones((1, 1)), lam=np.zeros((1, 1, 1)),
    )
    F = eval_F(spec, h)
    assert np.abs(F - rho**2).max() < 1e-14
    lhs = derivative(F, grid256) / rho
    assert np.abs(lhs - eval_Wim(spec, h)).max() < 1e-10


@pytest.mark.parametrize("n_points", [128, 512, 1024])
def test_divergence_identity_random_states(n_points):
    grid = make_grid(n_points, 0.0, TWO_PI)
    rng = np.random.default_rng(n_points)
    for trial in range(5):
        q = int(rng.integers(1, 4))
        h = band_limited_hydro(rng, grid, q)
        for spec in (random_drift_cubic_spec(rng, q), random_derivative_spec(rng, q)):
            resid = derivative(eval_F(spec, h), grid) / h.rho - eval_Wim(spec, h)
            assert np.abs(resid).max() < 1e-8


def test_nonlinearities_are_real(grid256):
    rng = np.random.default_rng(11)
    h = band_limited_hydro(rng, grid256, q=2)
    A = random_dispersion(rng, 2)
    for spec in (random_drift_cubic_spec(rng, 2), random_derivative_spec(rng, 2)):
        assert np.isrealobj(eval_W(spec, h))
        assert np.isrealobj(eval_Wim(spec, h))
        assert np.isrealobj(eval_F(spec, h))


def test_derivative_family_without_drift_is_real(grid256):
    rng = np.random.default_rng(12)
    h = band_limited_hydro(rng, grid256, q=2)
    spec = DerivativeSpec(
        beta=rng.uniform(-1, 1, (2, 2)), gamma=rng.uniform(-1, 1, (2, 2)),
        delta=np.zeros((2, 2)), lam=rng.uniform(-1, 1, (2, 2, 2)),
    )
    assert np.abs(eval_Wim(spec, h)).max() == 0.0


def test_eval_Wim_vacuum_guard(grid256):
    # sin(x) has nodes on the grid, so a coarse floor flags vacuum there
    data = np.sin(grid256.x).astype(complex)[None, :]
    h = to_hydro(ComplexFieldSet(data, grid256), floor=1e-6)
    spec = DriftCubicSpec(delta=[1.0], gamma=[0.0])
    with pytest.raises(VacuumError):
        eval_Wim(spec, h)


def test_shape_mismatch(grid256):
    spec = DriftCubicSpec(delta=[1.0, 2.0], gamma=[0.0, 0.0])
    h = const_hydro(grid256, [1.0])
    with pytest.raises(ValueError, match="species"):
        eval_W(spec, h)


def test_linear_spec_all_zero(grid256):
    h = const_hydro(grid256, [1.0, 2.0])
    spec = LinearSpec(q=2)
    assert np.abs(eval_W(spec, h)).max() == 0.0
    assert np.abs(eval_Wim(spec, h)).max() == 0.0
    assert np.abs(eval_F(spec, h)).max() == 0.0


@pytest.mark.parametrize(
    "build, first",
    [
        (lambda: DriftCubicSpec(delta=[], gamma=[]), "delta"),
        (lambda: DerivativeSpec(beta=np.zeros((0, 0)), gamma=np.zeros((0, 0)),
                                delta=np.zeros((0, 0)), lam=np.zeros((0, 0, 0))), "beta"),
        (lambda: TransformedSpec(drift_self=np.zeros((0, 0)), drift_cross=np.zeros((0, 0)),
                                 cubic=np.zeros((0, 0)), quartic=np.zeros((0, 0, 0)),
                                 const_shift=[]), "drift_self"),
    ],
    ids=["drift_cubic", "derivative", "transformed"],
)
def test_table_specs_reject_zero_species(build, first):
    # as LinearSpec(q=0) does; the message names the first table
    with pytest.raises(ValueError, match=f"^{first} must hold q >= 1 species"):
        build()
    with pytest.raises(ValueError, match="q must be >= 1"):
        LinearSpec(q=0)


def test_q1_tables_may_be_scalars():
    pairs = [
        (DriftCubicSpec(delta=2.0, gamma=0.3), DriftCubicSpec(delta=[2.0], gamma=[0.3])),
        (DerivativeSpec(beta=0.3, gamma=-0.1, delta=0.5, lam=[0.2]),
         DerivativeSpec(beta=[[0.3]], gamma=[[-0.1]], delta=[[0.5]], lam=[[[0.2]]])),
        (TransformedSpec(drift_self=1.0, drift_cross=2.0, cubic=[3.0], quartic=[[4.0]],
                         const_shift=5.0),
         TransformedSpec(drift_self=[[1.0]], drift_cross=[[2.0]], cubic=[[3.0]],
                         quartic=[[[4.0]]], const_shift=[5.0])),
    ]
    for lifted, full in pairs:
        assert lifted.q == 1
        for name in type(full).TABLES:
            got, want = getattr(lifted, name), getattr(full, name)
            assert got.shape == want.shape and np.array_equal(got, want), name


def test_tables_store_the_drift_pair_once_as_c():
    # a = -2c is derived, so no table set holds a broken pair, and a name
    # that is not a table (a among them) is an error, not dropped
    tables = CoefficientTables.of(2, c=np.array([-0.3, 1.0]))
    assert tables.a.tobytes() == np.array([0.6, -2.0]).tobytes()
    assert tables.nonzero == {"c"}
    with pytest.raises(TypeError, match="'a'"):
        CoefficientTables.of(2, a=np.array([0.6, -2.0]))
    with pytest.raises(TypeError, match="'cubik'"):
        CoefficientTables.of(2, cubik=np.eye(2))


def test_tables_of_builds_only_the_missing_defaults(monkeypatch):
    built, zeros = [], np.zeros

    def counting_zeros(shape, *args, **kwargs):
        built.append(shape)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", counting_zeros)
    CoefficientTables.of(2, const=np.ones(2), cubic=np.eye(2), c=np.ones(2))
    # drift_self, drift_cross, quartic and D
    assert sorted(built) == [(2, 2), (2, 2), (2, 2), (2, 2, 2)]


def test_drift_cubic_pair_holds_for_a_subnormal_delta():
    # c = -delta/2 is stored; halving 1e-310 rounds, so the derived a is
    # -2c rather than delta itself, and the pair still cancels exactly
    spec = DriftCubicSpec(delta=[1e-310, 5e-324, -3.7], gamma=[0.1, 0.2, 0.3])
    t = spec.tables
    assert t.a.tobytes() == (-2.0 * t.c).tobytes()
    assert np.all(t.a + 2.0 * t.c == 0.0)
    assert t.a[0] != 1e-310
    assert t.a[2] == -3.7 and t.c[2] == 1.85


def every_table_spec(rng, q):
    """A stand-in spec whose seven tables are all nonzero; no spec type has
    c and D nonzero together."""
    shapes = {"const": (q,), "cubic": (q, q), "drift_self": (q, q),
              "drift_cross": (q, q), "quartic": (q, q, q), "c": (q,), "D": (q, q)}
    tables = CoefficientTables.of(
        q, **{name: rng.uniform(-1.0, 1.0, shape) for name, shape in shapes.items()}
    )
    assert tables.nonzero == set(shapes)
    return SimpleNamespace(q=q, tables=tables)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_entry_points_with_every_table_nonzero(grid256, q):
    rng = np.random.default_rng(40 + q)
    spec = every_table_spec(rng, q)
    t = spec.tables
    h = band_limited_hydro(rng, grid256, q)
    # Wim_k = (1/rho_k) dF_k/dx with F_k = rho_k (c_k + sum_j D_kj rho_j)
    resid = derivative(eval_F(spec, h), grid256) / h.rho - eval_Wim(spec, h)
    assert np.abs(resid).max() < 1e-10
    # W_k as the README writes it, with the drift a_k = -2 c_k
    rho, dS = h.rho, phase_gradient(h)
    want = np.empty_like(rho)
    for k in range(q):
        w = t.const[k] - 2.0 * t.c[k] * dS[k]
        for j in range(q):
            w = w + t.cubic[k, j] * rho[j]
            w = w + t.drift_self[k, j] * rho[j] * dS[k]
            w = w + t.drift_cross[k, j] * rho[j] * dS[j]
            for i in range(q):
                w = w + t.quartic[k, j, i] * rho[j] * rho[i]
        want[k] = w
    assert np.abs(eval_W(spec, h) - want).max() < 1e-12
