"""The RK4 stage, the RK4 step, the split step, the grid operators and the
stage's helpers (the jump-only unwrap, the winding split on Python floats,
the vacuum guard, the spectral pair on numpy's pocketfft ufuncs) reproduce
the plain numpy formulation byte for byte. A numpy that moves or changes the private
pocketfft module fails here."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cnls_gauge import (
    BlowUpError,
    ComplexFieldSet,
    DispersionMatrix,
    LinearSpec,
    SimState,
    VacuumError,
    evolve,
    make_grid,
    rhs,
    stability_bound,
    step,
    transformed_spec,
)
from cnls_gauge.fields import _split_winding, _unwrap_rows, _winding_from_samples
from cnls_gauge.grid import (
    _spectral_pair,
    antiderivative_parts,
    derivative,
    second_derivative,
)
import cnls_gauge.solver as solver
from cnls_gauge.nonlinearity import CoefficientTables, eval_W_parts, eval_Wim_parts
from cnls_gauge.solver import _tendency, _vacuum_guard

from conftest import (
    band_limited_state,
    random_derivative_spec,
    random_dispersion,
    random_drift_cubic_spec,
)

TWO_PI = 2.0 * np.pi


# --- _unwrap_rows against np.unwrap -------------------------------------------


def _same_as_numpy(p):
    p = np.asarray(p, dtype=float)
    return _unwrap_rows(p).tobytes() == np.unwrap(p, axis=-1).tobytes()


def test_unwrap_rows_without_jumps():
    x = TWO_PI * np.arange(64) / 64
    assert _same_as_numpy(np.angle(np.exp(0.4j * np.sin(x)))[None, :])


@pytest.mark.parametrize("winding", [7, -7])
def test_unwrap_rows_winding_7(winding):
    x = TWO_PI * np.arange(64) / 64
    p = np.angle(np.exp(1j * winding * x + 0.3j * np.cos(x)))[None, :]
    assert _same_as_numpy(p)
    assert abs(_unwrap_rows(p)[0, -1] - _unwrap_rows(p)[0, 0]) > 6.0 * np.pi


def test_unwrap_rows_differences_of_exactly_pi():
    pi = np.pi
    p = [[0.0, pi, 0.0, -pi, 0.0, pi, 2.0 * pi, pi, -pi, -2.0 * pi]]
    assert _same_as_numpy(p)


def test_unwrap_rows_negative_zeros():
    # no jump: numpy still adds a zero cumsum, turning -0.0 into +0.0
    assert _same_as_numpy([[-0.0, -0.0, 0.5, -0.0, 0.0, -0.0]])
    # with a jump before and after the zeros
    assert _same_as_numpy([[-0.0, 3.0, -3.0, -0.0, -0.0, 3.1, -0.0]])


def test_unwrap_rows_nan_row():
    p = [[0.0, 1.0, 2.0, 3.0, -3.0, -2.0],
         [0.0, 1.0, np.nan, 1.0, 4.0, -3.0]]
    assert _same_as_numpy(p)


@pytest.mark.parametrize("shape", [(1, 128), (3, 128)])
def test_unwrap_rows_random_phases(shape):
    rng = np.random.default_rng(11)
    assert _same_as_numpy(rng.uniform(-np.pi, np.pi, shape))
    # mostly smooth rows with a few windings
    x = TWO_PI * np.arange(shape[1]) / shape[1]
    m = rng.integers(-4, 5, (shape[0], 1))
    assert _same_as_numpy(np.angle(np.exp(1j * (m * x + rng.uniform(-1, 1, shape)))))


def test_unwrap_rows_jump_in_one_row_only():
    # the no-jump shortcut must not fire when a single row has a jump
    p = [[0.0, 0.1, 0.2, 0.3], [0.0, 3.0, -3.0, -2.9], [-0.0, -0.0, -0.0, -0.0]]
    assert _same_as_numpy(p)


# --- the winding split on Python floats against its numpy form ---------------


def _reference_winding(S):
    closing = (S[:, 0] - S[:, -1] + np.pi) % (2.0 * np.pi) - np.pi
    total = S[:, -1] - S[:, 0] + closing
    return np.rint(total / (2.0 * np.pi))


def _reference_split(S, grid):
    slope = 2.0 * np.pi * _reference_winding(S) / grid.length
    return S - slope[:, None] * (grid.x - grid.x_min), slope


def _edge_rows(n):
    """Unwrapped-phase rows (first and last nodes set) at the edges of the
    split: NaN, signed zeros, a rise of one ulp below the start, whose
    winding rint rounds to -0.0 (Python's round gives +0), and closing
    steps of exactly +-pi and 3 pi."""
    pi, below_one = np.pi, np.nextafter(1.0, 0.0)
    ends = [
        (np.nan, 0.0), (0.0, np.nan), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0),
        (1.0, below_one), (-1.0, -1.0 - 2.0**-52), (pi, 0.0), (0.0, pi),
        (-pi, 0.0), (0.0, -pi), (3.0 * pi, 0.0), (0.0, 3.0 * pi),
        (0.5, 0.5 + 2.0 * pi * 7), (0.5, 0.5 - 2.0 * pi * 7),
    ]
    rows = np.tile(np.linspace(-0.4, 0.4, n), (len(ends), 1))
    rows[:, 0], rows[:, -1] = np.array(ends).T
    rows[2, :] = -0.0
    return rows


def _random_rows(rng, grid, q):
    """Seeded phases with integer windings, half of them with a fractional
    (kappa != 0) ramp on top."""
    x = grid.x - grid.x_min
    m = rng.integers(-5, 6, (q, 1))
    kappa = rng.uniform(-0.5, 0.5, (q, 1)) * (rng.random((q, 1)) < 0.5)
    smooth = rng.uniform(-1.0, 1.0, (q, 1)) * np.sin(x + rng.uniform(0, 6, (q, 1)))
    return TWO_PI * m * x / grid.length + kappa * x + smooth


@pytest.mark.parametrize("x_min, x_max", [(0.0, TWO_PI), (-3.7, 11.2)])
def test_split_winding_is_byte_identical_to_numpy(x_min, x_max):
    grid = make_grid(16, x_min, x_max)
    rng = np.random.default_rng(21)
    rows = [_edge_rows(grid.n_points)]
    rows += [_random_rows(rng, grid, 8) for _ in range(25)]
    rows.append(rng.uniform(-50.0, 50.0, (64, grid.n_points)))
    for S in rows:
        periodic, slope = _split_winding(S, grid)
        want_periodic, want_slope = _reference_split(S, grid)
        assert slope.tobytes() == want_slope.tobytes()
        assert periodic.tobytes() == want_periodic.tobytes()
        got = np.array(_winding_from_samples(S))
        assert got.tobytes() == _reference_winding(S).tobytes()


def test_winding_keeps_the_sign_of_zero_and_passes_nan():
    m = _winding_from_samples(_edge_rows(8))
    assert np.isnan(m[0]) and np.isnan(m[1])
    assert m[5] == 0.0 and np.signbit(m[5])  # -0.0 from below, as np.rint
    assert m[7:11] == [-1.0, 0.0, 0.0, -1.0]  # a closing step of +-pi wraps to -pi


# --- the stage's other one-call forms against the calls they replace ---------


def test_arctan2_is_np_angle():
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]
    edge = np.array([[complex(a, b) for a in special for b in special]])
    noise = rng.standard_normal((3, 256)) + 1j * rng.standard_normal((3, 256))
    for z in (edge, noise):
        assert np.arctan2(z.imag, z.real).tobytes() == np.angle(z).tobytes()


def test_transform_rows_one_product_matches_one_per_block():
    grid = make_grid(64, 0.0, TWO_PI)
    rng = np.random.default_rng(4)
    q = 3
    symbol = -((grid.k + np.array([0.37, 0.0, -0.2])[:, None]) ** 2)
    for blocks in (1, 2, 3):
        shape = (blocks * q, 64)
        rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = np.fft.fft(rows, axis=-1)
        want[:q] *= symbol
        for b in range(1, blocks):
            want[b * q:(b + 1) * q] *= grid._ik
        want = np.fft.ifft(want, axis=-1)
        got = _spectral_pair(rows.copy(), symbol, q, grid._ik)
        assert got.tobytes() == want.tobytes(), blocks


@pytest.mark.parametrize("q", [1, 2, 3])
def test_spectral_pair_copies_are_transforms_of_their_source_rows(q):
    # the last q rows, never read, end as ifft(ik fft(row)) of the first q
    grid = make_grid(64, 0.0, TWO_PI)
    rng = np.random.default_rng(10 + q)
    data = rng.standard_normal((q, 64)) + 1j * rng.standard_normal((q, 64))
    symbol = -((grid.k + np.linspace(0.37, -0.2, q)[:, None]) ** 2)
    rows = np.full((2 * q, 64), np.nan, dtype=complex)
    rows[:q] = data
    _spectral_pair(rows, symbol, q, grid._ik, copies=q)
    assert rows[:q].tobytes() == _reference_transform(data, symbol).tobytes()
    assert rows[q:].tobytes() == _reference_transform(data, grid._ik).tobytes()


# --- the spectral pair against np.fft -----------------------------------------


@pytest.mark.parametrize("n", [8, 256, 512, 4096])
@pytest.mark.parametrize("rows", [None, 1, 2, 3, 6, 9])
def test_spectral_pair_is_the_np_fft_pair(n, rows):
    grid = make_grid(n, 0.0, TWO_PI)
    rng = np.random.default_rng(n + (rows or 0))
    shape = (n,) if rows is None else (rows, n)
    x = rng.standard_normal(shape)
    for f in (x, x + 1j * rng.standard_normal(shape)):
        for symbol in (grid._ik, grid._neg_k2, grid._inv_ik):
            got = _spectral_pair(f.astype(complex), symbol)
            assert got.tobytes() == _reference_transform(f, symbol).tobytes()


def test_spectral_pair_passes_nan_and_inf_as_np_fft():
    grid = make_grid(64, 0.0, TWO_PI)
    rng = np.random.default_rng(9)
    f = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
    f[1, 7] = np.nan
    f[2, 3] = np.inf
    f[3, 0], f[3, 9] = complex(-np.inf, np.nan), complex(0.0, -np.inf)
    for symbol in (grid._ik, grid._neg_k2):
        with np.errstate(invalid="ignore"):
            got = _spectral_pair(f.copy(), symbol)
            want = _reference_transform(f, symbol)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got[0]).all() and np.isnan(got[1:]).all()


def test_eval_W_parts_starts_from_the_constant_rows():
    rng = np.random.default_rng(6)
    q = 3
    const = np.array([-0.0, 0.0, 1.5])
    rho = rng.uniform(0.5, 1.5, (q, 32))
    rho[1, 4] = np.nan
    dS = rng.standard_normal((q, 32))
    a = rng.standard_normal(q)
    for tables in (
        CoefficientTables.of(q, const=const),
        CoefficientTables.of(q, const=const, c=-0.5 * a, cubic=rng.standard_normal((q, q))),
        random_derivative_spec(rng, q).tables,
    ):
        got = eval_W_parts(tables, rho, dS)
        assert got.tobytes() == _reference_W(tables, rho, dS).tobytes()


def _reference_guard(rho, floor):
    peak = rho.max(axis=-1)
    if (peak <= 0.0).any():
        return "all-vacuum"
    if (rho.min(axis=-1) < floor * peak).any():
        return "below floor"
    return None


def test_vacuum_guard_on_python_floats_matches_numpy():
    floor = 2.0**-40
    ones, at5 = np.ones(8, dtype=complex), np.arange(8) == 5
    rows = {
        "zero row": [ones, 0.0 * ones],
        "signed zero row": [ones, -0.0 * ones],
        "NaN row": [ones, np.where(at5, np.nan, 1.0) + 0j],
        "NaN and zero rows": [np.full(8, np.nan + 0j), 0.0 * ones],
        "min at the floor": [ones, np.where(at5, 2.0**-20, 1.0) + 0j],
        "min below the floor": [ones, np.where(at5, 2.0**-21, 1.0) + 0j],
    }
    for name, data in rows.items():
        data = np.array(data)
        rho = data.real**2 + data.imag**2
        try:
            _vacuum_guard(rho, 0.3, floor)
            got = None
        except VacuumError as err:
            got = "all-vacuum" if "all-vacuum" in str(err) else "below floor"
            assert err.t == 0.3
        assert got == _reference_guard(rho, floor), name
    # a stage whose tables divide by rho runs the guard
    grid = make_grid(8, 0.0, TWO_PI)
    tables = random_derivative_spec(np.random.default_rng(0), 2).tables
    with pytest.raises(VacuumError, match="all-vacuum\\): species 2 at t=0.0"):
        _tendency(np.array(rows["zero row"]), grid, tables, DispersionMatrix([1.0, 1.0]), 0.0)


def test_stability_bound_matches_the_numpy_expression():
    for n, L, values in ((8, 1.0, [1.0]), (256, TWO_PI, [0.5, -2.0]), (4096, 40.0, [1e-3, 3.0])):
        grid = make_grid(n, 0.0, L)
        A = DispersionMatrix(values)
        k_max = np.pi / grid.dx
        want = 2.0 * np.sqrt(2.0) / (float(np.abs(A.values).max()) * k_max**2)
        assert stability_bound(grid, A) == want


# --- the stage against a copy of the plain formulation ------------------------


def _reference_transform(f, symbol):
    return np.fft.ifft(symbol * np.fft.fft(f, axis=-1), axis=-1)


def _reference_phase_gradient(S, grid):
    periodic, slope = _reference_split(S, grid)
    return _reference_transform(periodic, grid._ik).real + slope[:, None]


@pytest.mark.parametrize("shape", [(1, 256), (3, 256)])
def test_in_place_derivative_is_byte_identical(shape):
    grid = make_grid(shape[1], 0.0, TWO_PI)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(shape)
    assert derivative(f, grid).tobytes() == _reference_transform(f, grid._ik).real.tobytes()
    z = f + 1j * rng.standard_normal(shape)
    assert derivative(z, grid).tobytes() == _reference_transform(z, grid._ik).tobytes()


@pytest.mark.parametrize("shape", [(256,), (1, 256), (3, 256)])
def test_second_derivative_and_antiderivative_are_byte_identical(shape):
    grid = make_grid(shape[-1], -1.5, 4.0)
    rng = np.random.default_rng(12)
    f = rng.standard_normal(shape)
    want = _reference_transform(f, grid._neg_k2)
    assert second_derivative(f, grid).tobytes() == want.real.tobytes()
    z = f + 1j * rng.standard_normal(shape)
    want = _reference_transform(z, grid._neg_k2)
    assert second_derivative(z, grid).tobytes() == want.tobytes()
    for anchor in (0, 37):
        periodic, ramp = antiderivative_parts(f, grid, anchor)
        want_ramp = f.mean(axis=-1)
        want = _reference_transform(f - want_ramp[..., None], grid._inv_ik).real
        want = want - want[..., anchor, None]
        assert ramp.tobytes() == want_ramp.tobytes()
        assert periodic.tobytes() == want.tobytes()


def _reference_W(tables, rho, dS):
    on = tables.nonzero
    W = np.broadcast_to(tables.const[:, None], rho.shape).copy()
    if "cubic" in on:
        W += tables.cubic @ rho
    if "drift_self" in on:
        W += (tables.drift_self @ rho) * dS
    if "drift_cross" in on:
        W += tables.drift_cross @ (rho * dS)
    if "quartic" in on:
        W += np.einsum("kji,jx,ix->kx", tables.quartic, rho, rho)
    return W


def _reference_Wim(tables, rho, drho):
    diag = np.diag(tables.D)
    off = tables.D - np.diag(diag)
    Wim = 2.0 * diag[:, None] * drho + off @ drho
    Wim += (off @ rho) * drho / rho
    return Wim


def _hydro_tendency(fields, tables, A, symbol=None):
    """The stage written with one transform pair per quantity, np.unwrap
    and the W/Wim formulas of the full tables spelled out: the drift pair
    (a, c) read through the unwrapped phase and drho/dx / rho. Given
    ``symbol``, the data rows take it in place of -(k + kappa)^2 and enter
    with A = 1."""
    data, grid = fields.data, fields.grid
    kappa = fields.kappa if fields.kappa.any() else None
    shift = 0.0 if kappa is None else kappa[:, None]
    if symbol is None:
        symbol, Ak = -((grid.k + shift) ** 2), A.values[:, None]
    else:
        Ak = 1.0
    lap = _reference_transform(data, symbol)
    if not tables.nonzero:
        return 1j * (Ak * lap)
    rho = data.real**2 + data.imag**2
    drift = "c" in tables.nonzero
    dS = None
    if tables.uses_phase or drift:
        dS = _reference_phase_gradient(np.unwrap(np.angle(data), axis=-1), grid)
        if kappa is not None:
            dS += kappa[:, None]
    W = _reference_W(tables, rho, dS)
    if drift:
        W += tables.a[:, None] * dS
    if tables.has_flux:
        drho = _reference_transform(rho, grid._ik).real
        Wim = _reference_Wim(tables, rho, drho) if "D" in tables.nonzero else 0.0
        if drift:
            Wim = Wim + tables.c[:, None] * drho / rho
        return 1j * (Ak * lap) + (1j * W - Wim) * data
    return 1j * (Ak * lap + W * data)


def _reference_tendency(fields, tables, A):
    """The stage written with one transform pair per quantity: the hydro
    form of the tables less their drift pair (a, c), which enters the data
    rows' symbol as A (-(k + kappa)^2) + a (k~ + kappa), k~ the wavenumber
    with its Nyquist entry zeroed: the rows are A u'' - i a (u' + i kappa
    u), taken with A = 1."""
    grid, q = fields.grid, fields.q
    reduced = CoefficientTables.of(q, **{
        name: getattr(tables, name)
        for name in ("const", "cubic", "drift_self", "drift_cross", "quartic", "D")
    })
    if "c" not in tables.nonzero:
        return _hydro_tendency(fields, reduced, A)
    shift = fields.kappa[:, None] if fields.kappa.any() else 0.0
    symbol = (A.values[:, None] * -((grid.k + shift) ** 2)
              + tables.a[:, None] * (grid._ik.imag + shift))
    return _hydro_tendency(fields, reduced, A, symbol)


def _field_tendency(fields, tables, A):
    """The field-form stage of tables that read dS/dx with D = 0, in
    textbook np.fft: one forward transform of u, whose spectrum gives the
    data rows (symbol -(k + kappa)^2) and u' (ik~, the Nyquist entry
    zeroed), and dS/dx = (Re u Im u' - Im u Re u' + kappa rho) / rho."""
    data, grid = fields.data, fields.grid
    kappa = fields.kappa[:, None] if fields.kappa.any() else None
    spectrum = np.fft.fft(data, axis=-1)
    lap = np.fft.ifft(-((grid.k + (0.0 if kappa is None else kappa)) ** 2) * spectrum, axis=-1)
    du = np.fft.ifft(grid._ik * spectrum, axis=-1)
    rho = data.real**2 + data.imag**2
    dS = data.real * du.imag - data.imag * du.real
    if kappa is not None:
        dS = dS + kappa * rho
    dS = dS / rho
    return 1j * (A.values[:, None] * lap + _reference_W(tables, rho, dS) * data)


def _field_form(tables):
    # the stage's test for its field form: phase rows and no density rows
    return solver._stack_blocks(tables) == (False, True)


def _states(family, q=2, n=256, seed=0):
    """The psi state of a family and the phi state of its transformed
    tables (the linear family has one), with phases that wind."""
    rng = np.random.default_rng(seed)
    grid = make_grid(n, 0.0, TWO_PI)
    A = random_dispersion(rng, q)
    spec = {
        "linear": lambda: LinearSpec(q),
        "drift_cubic": lambda: random_drift_cubic_spec(rng, q),
        "derivative": lambda: random_derivative_spec(rng, q, scale=0.5),
    }[family]()
    windings = rng.integers(-3, 4, q)[:, None]
    data = band_limited_state(rng, grid, q, phase_amp=2.5).data
    data = data * np.exp(1j * windings * grid.x)
    states = [("psi", spec, data)]
    if family != "linear":
        states.append(("phi", transformed_spec(spec, A), data))
    return grid, A, states


@pytest.mark.parametrize("family", ["linear", "drift_cubic", "derivative"])
@pytest.mark.parametrize("kappa", [0.0, 0.37])
def test_stage_is_byte_identical_to_reference(family, kappa):
    # a derivative-family phi takes the field form (its own reference);
    # every psi here, and the other families' phi, the hydro form
    for seed in range(3):
        grid, A, states = _states(family, q=2 + seed % 2, seed=seed)
        for tag, spec, data in states:
            q = data.shape[0]
            kap = kappa * np.linspace(1.0, -1.0, q)
            fields = ComplexFieldSet(data, grid, kappa=kap)
            got = rhs(SimState(0.0, fields, spec, A)).data
            field = _field_form(spec.tables)
            assert field == (family == "derivative" and tag == "phi"), (family, tag)
            reference = _field_tendency if field else _reference_tendency
            want = reference(fields, spec.tables, A)
            assert got.tobytes() == want.tobytes(), (family, tag, seed)


def _field_cases(q, seed):
    """The winding phi of derivative-family tables, and a derivative psi
    with D = 0 (drift_self, drift_cross and quartic alone): the two tables
    that take the field form."""
    grid, A, states = _states("derivative", q=q, seed=seed)
    (_, psi, data), (_, phi, _) = states
    no_flux = replace(psi.tables, D=np.zeros((q, q)))
    cases = [(phi.tables, data), (no_flux, data)]
    assert all(_field_form(tables) for tables, _ in cases)
    return grid, A, cases


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("kappa", [0.0, 0.37])
def test_field_stage_matches_the_hydro_formula(q, kappa):
    # Im(conj(u) u') / rho is the unwrapped phase's derivative, winding
    # ramp included, so the field form is the hydro stage up to rounding
    for seed in range(3):
        grid, A, cases = _field_cases(q, seed)
        for tables, data in cases:
            kap = kappa * np.linspace(1.0, -1.0, q)
            fields = ComplexFieldSet(data, grid, kappa=kap)
            got = _tendency(data, grid, tables, A, 0.0, kap if kappa else None)
            want = _reference_tendency(fields, tables, A)
            gap = float(np.abs(got - want).max())
            assert gap <= 1e-13 * np.abs(want).max(), (seed, gap)


@pytest.mark.parametrize("kappa", [0.0, 0.37])
def test_field_stage_makes_one_pair_that_copies_its_spectrum(monkeypatch, kappa):
    # one pair on a 2q-row stack: the q data rows transformed forward, their
    # spectrum copied to the q u' rows; no phase is taken or unwrapped
    calls = []
    real = solver._spectral_pair

    def record(rows, symbol, *args, **kwargs):
        calls.append((rows[:rows.shape[0] - kwargs.get("copies", 0)].copy(), rows.shape, kwargs))
        return real(rows, symbol, *args, **kwargs)

    def no_phase(*args):
        raise AssertionError("phase taken")

    monkeypatch.setattr(solver, "_spectral_pair", record)
    monkeypatch.setattr(solver, "_unwrap_rows", no_phase)
    monkeypatch.setattr(solver, "_split_winding", no_phase)
    for q in (1, 2, 3):
        grid, A, cases = _field_cases(q, seed=q)
        for tables, data in cases:
            kap = kappa * np.linspace(1.0, -1.0, q)
            calls.clear()
            _tendency(data, grid, tables, A, 0.0, kap if kappa else None)
            [(read, shape, kwargs)] = calls
            assert shape == (2 * q, grid.n_points) and kwargs == {"copies": q}
            assert read.tobytes() == data.tobytes()


@pytest.mark.parametrize("stage", ["hydro", "flux", "field"])
def test_stages_that_divide_by_rho_keep_the_vacuum_guard(stage):
    # the stages with density or phase rows run the guard: a node below the
    # floor raises through rhs and step, naming the species and the time.
    # The hydro psi reads the phase and divides by rho in Wim, the flux-only
    # psi (drift_self = drift_cross = 0) divides in Wim, and the field-form
    # phi divides in dS/dx
    grid, A, states = _states("derivative", q=2, seed=3)
    _, spec, data = states[stage == "field"]
    if stage == "flux":
        spec = replace(spec, beta=0.0 * spec.beta, gamma=0.0 * spec.gamma)
    blocks = {"hydro": (True, True), "flux": (True, False), "field": (False, True)}
    assert solver._stack_blocks(spec.tables) == blocks[stage]
    node = data.copy()
    node[1, 17] = 0.0
    state = SimState(0.3, ComplexFieldSet(node, grid), spec, A)
    for call in (rhs, lambda s: step(s, 1e-5)):
        with pytest.raises(VacuumError, match="below floor during evolution: species 2 at t=0.3") as err:
            call(state)
        assert err.value.t == 0.3


@pytest.mark.parametrize("kappa", [0.0, 0.37])
def test_stage_with_every_row_block_is_byte_identical_to_reference(kappa):
    # tables with the drift pair and derivative-family tables at once: the
    # stack holds data (with the drift), density and phase rows, 3q in all
    grid, A, states = _states("derivative", q=2, seed=5)
    _, spec, data = states[0]
    tables = replace(spec.tables, c=np.array([-0.35, 0.2]))
    assert solver._stack_rows(tables, 2) == 6
    kap = kappa * np.array([1.0, -1.0])
    fields = ComplexFieldSet(data, grid, kappa=kap)
    got = _tendency(data, grid, tables, A, 0.0, kap if kappa else None)
    want = _reference_tendency(fields, tables, A)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kappa", [0.0, 0.37])
def test_drift_stage_matches_the_hydro_formula(kappa):
    # a (u' + i kappa u) is i a dS/dx u - c (drho/dx / rho) u, as a = -2c
    for seed in range(3):
        grid, A, states = _states("drift_cubic", q=2 + seed % 2, seed=seed)
        _, spec, data = states[0]
        q = data.shape[0]
        fields = ComplexFieldSet(data, grid, kappa=kappa * np.linspace(1.0, -1.0, q))
        got = rhs(SimState(0.0, fields, spec, A)).data
        want = _hydro_tendency(fields, spec.tables, A)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), seed


@pytest.mark.parametrize("kappa", [0.0, 0.37])
def test_drift_stage_makes_one_pair_on_its_q_data_rows(monkeypatch, kappa):
    # the drift rides in the data rows' symbol: the stage's one FFT pair
    # reads exactly the q data rows, and no row is a copy of another
    calls = []
    real = solver._spectral_pair

    def record(rows, symbol, *args, **kwargs):
        calls.append((rows.copy(), symbol, kwargs))
        return real(rows, symbol, *args, **kwargs)

    monkeypatch.setattr(solver, "_spectral_pair", record)
    for seed in range(2):
        grid, A, states = _states("drift_cubic", q=2 + seed, seed=seed)
        _, spec, data = states[0]
        kap = kappa * np.linspace(1.0, -1.0, data.shape[0])
        calls.clear()
        rhs(SimState(0.0, ComplexFieldSet(data, grid, kappa=kap), spec, A))
        [(rows, symbol, kwargs)] = calls
        assert rows.tobytes() == data.tobytes() and kwargs == {"copies": 0}, seed
        assert symbol.shape == data.shape, seed  # A_k and a_k per row


def test_drift_cubic_stages_unwrap_no_phase(monkeypatch):
    def unwrap(p):
        raise AssertionError("phase unwrapped")

    monkeypatch.setattr(solver, "_unwrap_rows", unwrap)
    for family in ("drift_cubic", "derivative"):
        grid, A, states = _states(family, q=2, seed=1)
        for tag, spec, data in states:
            state = SimState(0.0, ComplexFieldSet(data, grid), spec, A)
            if family == "drift_cubic":
                rhs(state)
                step(state, 1e-5)
            elif tag == "psi":
                with pytest.raises(AssertionError, match="phase unwrapped"):
                    rhs(state)


@pytest.mark.parametrize("family", ["linear", "drift_cubic", "derivative"])
@pytest.mark.parametrize("kappa", [0.0, 0.37])
def test_tendency_may_write_over_its_input(family, kappa):
    # solver.step takes each stage's tendency in place over the stage input
    for seed in range(2):
        grid, A, states = _states(family, q=2 + seed, seed=seed)
        for tag, spec, data in states:
            q = data.shape[0]
            kap = kappa * np.linspace(1.0, -1.0, q) if kappa else None
            want = _tendency(data.copy(), grid, spec.tables, A, 0.0, kap)
            u = data.copy()
            got = _tendency(u, grid, spec.tables, A, 0.0, kap, out=u)
            assert got is u
            assert got.tobytes() == want.tobytes(), (family, tag, seed)


def _special_pairs(shape):
    """W and Wim holding every pair of signed zeros, tiny, finite and huge
    numbers, infinities and NaNs (with either sign, and with a payload),
    repeated to ``shape``."""
    nans = np.array([0x7FF8000000000123, 0xFFF0000000000456], dtype=np.uint64)
    special = np.array([0.0, -0.0, 5e-324, 1.5, -2.5, 1e308, np.inf, -np.inf,
                        np.nan, -np.nan, *nans.view(float)])
    m = special.size
    return np.resize(np.repeat(special, m), shape), np.resize(np.tile(special, m), shape)


def test_combine_in_place_is_the_mixed_dtype_expression():
    # the stage's 1j * W - Wim: W stored as complex times 1j, then Wim taken
    # from the real parts alone (b - 0.0 is b for every imaginary part b)
    W, Wim = _special_pairs((2, 256))
    nl = np.empty(W.shape, dtype=complex)
    with np.errstate(all="ignore"):
        nl[...] = W
        nl *= 1j
        np.subtract(nl.real, Wim, out=nl.real)
        want = 1j * W - Wim
    assert nl.tobytes() == want.tobytes()


@pytest.mark.parametrize("kappa", [None, 0.37])
def test_stage_combine_is_byte_identical_on_special_values(monkeypatch, kappa):
    grid, A, states = _states("derivative", q=2, seed=2)
    _, spec, data = states[0]
    W, Wim = _special_pairs(data.shape)
    monkeypatch.setattr(solver, "eval_W_parts", lambda *args: W.copy())
    monkeypatch.setattr(solver, "eval_Wim_parts", lambda *args: Wim.copy())
    kap = None if kappa is None else np.array([kappa, -kappa])
    out = np.empty_like(data)
    # the non-finite tendency is written to out before the stage raises
    with np.errstate(all="ignore"), pytest.raises(BlowUpError):
        _tendency(data, grid, spec.tables, A, 0.0, kap, out=out)
    shift = 0.0 if kap is None else kap[:, None]
    lap = _reference_transform(data, -((grid.k + shift) ** 2))
    with np.errstate(all="ignore"):
        want = 1j * (A.values[:, None] * lap) + (1j * W - Wim) * data
    assert out.tobytes() == want.tobytes()


def test_kernels_leave_their_inputs_unchanged():
    rng = np.random.default_rng(13)
    q, n = 3, 64
    rho = rng.uniform(0.5, 1.5, (q, n))
    dS, drho = rng.standard_normal((q, n)), rng.standard_normal((q, n))
    derivative_spec = random_derivative_spec(rng, q)
    for tables in (
        derivative_spec.tables,
        random_drift_cubic_spec(rng, q).tables,
        transformed_spec(derivative_spec, random_dispersion(rng, q)).tables,
    ):
        before = [a.tobytes() for a in (rho, dS, drho)]
        eval_W_parts(tables, rho, dS)
        eval_Wim_parts(tables, rho, drho)
        assert [a.tobytes() for a in (rho, dS, drho)] == before
    x = TWO_PI * np.arange(n) / n
    smooth = 0.4 * np.sin(x)  # no jump: the fast path
    for p in (smooth[None, :], np.angle(np.exp(1j * np.array([smooth, 3 * x, -5 * x])))):
        before = p.tobytes()
        _unwrap_rows(p)
        assert p.tobytes() == before


# --- the step against the textbook RK4 combination --------------------------


def _textbook_step(state, dt):
    """y + (dt/6)(k1 + 2 k2 + 2 k3 + k4), each k_i from ``rhs``."""
    y, f = state.fields.data, state.fields

    def k_at(u):
        fields = ComplexFieldSet(u, f.grid, kappa=f.kappa)
        return rhs(SimState(state.t, fields, state.spec, state.A)).data

    k1 = k_at(y)
    k2 = k_at(y + 0.5 * dt * k1)
    k3 = k_at(y + 0.5 * dt * k2)
    k4 = k_at(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("family", ["linear", "drift_cubic", "derivative"])
@pytest.mark.parametrize("kappa", [0.0, 0.37])
@pytest.mark.parametrize("dt", [2e-5, -2e-5])
def test_step_is_byte_identical_to_textbook_rk4(family, kappa, dt):
    # density-only tables (drift-cubic psi and phi), which ``step`` splits
    # (the Yoshida test below), take the RK4 step through ``_rk4_step``,
    # whose stages share the drift symbol it builds once
    for seed in range(2):
        grid, A, states = _states(family, q=2 + seed, seed=seed)
        for tag, spec, data in states:
            q = data.shape[0]
            kap = kappa * np.linspace(1.0, -1.0, q)
            state = SimState(0.0, ComplexFieldSet(data, grid, kappa=kap), spec, A)
            if spec.tables.density_only:
                got = solver._rk4_step(state, dt, None).fields.data
            else:
                got = step(state, dt).fields.data
            assert got.tobytes() == _textbook_step(state, dt).tobytes(), (tag, q)


def test_rk4_step_builds_its_symbol_once(monkeypatch):
    # a shifted phi and a drift psi, whose symbols are fresh arrays: one
    # build for the four stages of a step
    built = []
    real = solver._symbol
    monkeypatch.setattr(solver, "_symbol", lambda *args: built.append(1) or real(*args))
    for family, tag in (("derivative", "phi"), ("drift_cubic", "psi")):
        grid, A, states = _states(family, q=2, seed=1)
        spec, data = dict((t, (s, d)) for t, s, d in states)[tag]
        fields = ComplexFieldSet(data, grid, kappa=np.array([0.37, -0.37]))
        built.clear()
        solver._rk4_step(SimState(0.0, fields, spec, A), 1e-5, None)
        assert len(built) == 1, (family, tag)


def _textbook_yoshida(state, dt):
    """Yoshida's triple jump of Strang steps in plain expressions: kicks
    exp(i tau W(rho)) u, W without the drift pair, at tau = dt w1/2,
    dt (w1 + w0)/2 (twice) and dt w1/2, and between them the linear flows
    ifft(exp(i tau s) fft(u)) at tau = w1 dt, w0 dt, w1 dt, with
    s = -A (k + kappa)^2 + a (k~ + kappa), k~ the wavenumber with its
    Nyquist entry zeroed."""
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    w0 = 1.0 - 2.0 * w1
    f, tables, A = state.fields, state.spec.tables, state.A.values
    k, kappa = f.grid.k, f.kappa[:, None]
    k_drift = np.where(np.abs(k) == np.pi / f.grid.dx, 0.0, k)
    if "c" in tables.nonzero:
        symbol = A[:, None] * -((k + kappa) ** 2) + tables.a[:, None] * (k_drift + kappa)
        scale = np.ones_like(A)
    else:
        symbol, scale = -((k + kappa) ** 2), A

    def kick(u, w):
        theta = (w * dt) * _reference_W(tables, u.real**2 + u.imag**2, None)
        return (np.cos(theta) + 1j * np.sin(theta)) * u

    def flow(u, w):
        return _reference_transform(u, np.exp(1j * ((w * dt * scale)[:, None] * symbol)))

    u = kick(f.data, 0.5 * w1)
    u = kick(flow(u, w1), 0.5 * (w1 + w0))
    u = kick(flow(u, w0), 0.5 * (w0 + w1))
    return kick(flow(u, w1), 0.5 * w1)


@pytest.mark.parametrize("kappa", [0.0, 0.37])
@pytest.mark.parametrize("dt", [2e-5, -2e-5])
def test_split_step_is_byte_identical_to_textbook_yoshida(kappa, dt):
    # drift-cubic psi (the drift in the flow) and phi
    for seed in range(2):
        grid, A, states = _states("drift_cubic", q=2 + seed, seed=seed)
        for tag, spec, data in states:
            assert spec.tables.density_only
            q = data.shape[0]
            kap = kappa * np.linspace(1.0, -1.0, q)
            state = SimState(0.0, ComplexFieldSet(data, grid, kappa=kap), spec, A)
            got = step(state, dt).fields.data
            assert got.tobytes() == _textbook_yoshida(state, dt).tobytes(), (tag, q)


def test_step_overflow_of_a_doubled_stage_raises_at_the_next_stage():
    # |k1| = |k2| = 1e308 is finite and 2 k2 is not: the next stage input is
    # non-finite, so its tendency raises at the step's start time (the
    # textbook sum raises only once the step's result exists)
    grid = make_grid(16, 0.0, TWO_PI)
    data = 5e306 * np.exp(1j * grid.x)[None, :]
    state = SimState(0.0, ComplexFieldSet(data, grid), LinearSpec(1), DispersionMatrix([20.0]))
    with np.errstate(all="ignore"), pytest.raises(BlowUpError, match="right-hand side") as err:
        step(state, 1e-3)
    assert err.value.t == 0.0


def test_step_buffers_carry_nothing_between_states():
    grid, A, (psi, phi) = _states("derivative", q=3, seed=4)
    kap = np.array([0.37, -0.2, 0.0])
    a = SimState(0.0, ComplexFieldSet(psi[2], grid, kappa=kap), psi[1], A)
    b = SimState(0.0, ComplexFieldSet(phi[2][::-1] * 0.5, grid), phi[1], A)
    first = step(a, 1e-5).fields.data.tobytes()
    step(b, -1e-5)
    assert step(a, 1e-5).fields.data.tobytes() == first


def _wide_state(system, family="derivative"):
    """A q = 2, n = 4096 psi state of the family, or the phi state of its
    transformed tables, with grid symbols and FFT plans cached."""
    rng = np.random.default_rng(8)
    q, n = 2, 4096
    grid = make_grid(n, 0.0, TWO_PI)
    A = random_dispersion(rng, q)
    if family == "derivative":
        spec = random_derivative_spec(rng, q, scale=0.5)
    else:
        spec = random_drift_cubic_spec(rng, q, scale=0.5)
    if system == "phi":
        spec = transformed_spec(spec, A)
    fields = band_limited_state(rng, grid, q, phase_amp=2.5)
    state = SimState(0.0, fields, spec, A)
    step(state, 1e-7)
    return state


def _peak_per_qn(call, state):
    tracemalloc.start()
    try:
        call(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / state.fields.data.size


@pytest.mark.parametrize("system", ["psi", "phi", "split"])
def test_step_peak_memory(system):
    """One step at q = 2, n = 4096 holds at most 120 bytes per q*n at once:
    its stage buffers (two (q, n) complex arrays and a stack of at most 3q
    rows) are allocated once per step, not once per stage, and a stage
    holds at most four real (q, n) arrays besides them (rho and three
    temporaries). A split step (drift-cubic phi; its psi holds the same)
    holds its result, one complex phase buffer, its two propagators, and a
    kick's rho and W with its temporaries."""
    state = _wide_state("phi", "drift_cubic") if system == "split" else _wide_state(system)
    peak = _peak_per_qn(lambda s: step(s, 1e-7), state)
    assert peak <= 120.0, peak


def test_drift_cubic_step_holds_less_than_a_derivative_step():
    # the RK4 step of drift-cubic psi (which ``step`` splits): its stack has
    # q rows (data) against 3q (data, density, phase), 32 bytes per q*n
    # less, besides its (q, n) symbol, built once per step
    drift = _peak_per_qn(
        lambda s: solver._rk4_step(s, 1e-7, None), _wide_state("psi", "drift_cubic")
    )
    deriv = _peak_per_qn(lambda s: step(s, 1e-7), _wide_state("psi"))
    assert drift + 16.0 <= deriv, (drift, deriv)


@pytest.mark.parametrize("system", ["psi", "phi"])
def test_evolve_peak_memory(system):
    """Two sampled steps at q = 2, n = 4096 hold at most 136 bytes per q*n
    at once: a record reduces the tendency to d(rho)/dt before it builds
    its other temporaries."""
    peak = _peak_per_qn(
        lambda s: evolve(s, 1e-7, 2e-7, sample_every=1), _wide_state(system)
    )
    assert peak <= 136.0, peak
