import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniflux import fluxonium
from uniflux.errors import NoSolutionError

from oracles import cosm_hamiltonian, phase_grid_spectrum, scanned_reset_flux

REFERENCE_PARAMS = fluxonium.FluxoniumParams(e_j=4.5, e_c=1.1, e_l=0.5, phi_ext=0.5)


def test_harmonic_limit_spacing():
    params = fluxonium.FluxoniumParams(e_j=0.0, e_c=1.1, e_l=0.5)
    spec = fluxonium.eigensystem(fluxonium.build_hamiltonian(params), 5)
    spacing = np.diff(spec.levels)
    expected = np.sqrt(8.0 * 1.1 * 0.5)
    assert np.allclose(spacing, expected, rtol=1e-9)
    assert expected == pytest.approx(2.0976, abs=1e-4)


def test_harmonic_zero_point_element():
    params = fluxonium.FluxoniumParams(e_j=0.0, e_c=1.1, e_l=0.5)
    m01 = fluxonium.phase_matrix_element(params, 0, 1)
    assert m01 == pytest.approx((8 * 1.1 / 0.5) ** 0.25 / np.sqrt(2), rel=1e-12)
    assert m01 == pytest.approx(1.448, abs=5e-4)


def test_fig_params_f01_band_and_oracle():
    spec = fluxonium.eigensystem(fluxonium.build_hamiltonian(REFERENCE_PARAMS), 4)
    f01 = spec.levels[1]
    assert 0.2 <= f01 <= 0.4
    oracle_levels, oracle_elem = phase_grid_spectrum(4.5, 1.1, 0.5, 0.5)
    assert f01 == pytest.approx(oracle_levels[1], abs=1e-4)
    m01 = fluxonium.phase_matrix_element(REFERENCE_PARAMS, 0, 1)
    assert m01 == pytest.approx(oracle_elem(0, 1), rel=1e-4)


def test_truncation_convergence():
    small = fluxonium.eigensystem(fluxonium.build_hamiltonian(REFERENCE_PARAMS), 4)
    big_params = REFERENCE_PARAMS.replace(basis_size=240)
    big = fluxonium.eigensystem(fluxonium.build_hamiltonian(big_params), 4)
    assert np.max(np.abs(small.levels - big.levels)) < 1e-6


def test_matrix_element_symmetry():
    assert fluxonium.phase_matrix_element(REFERENCE_PARAMS, 0, 1) == fluxonium.phase_matrix_element(
        REFERENCE_PARAMS, 1, 0
    )


def test_matrix_element_rejects_diagonal_and_range():
    with pytest.raises(ValueError):
        fluxonium.phase_matrix_element(REFERENCE_PARAMS, 1, 1)
    with pytest.raises(ValueError):
        fluxonium.phase_matrix_element(REFERENCE_PARAMS, 0, 60)


def test_spectrum_reflection_about_half_flux():
    a = fluxonium.eigensystem(
        fluxonium.build_hamiltonian(REFERENCE_PARAMS.replace(phi_ext=0.3)), 4
    )
    b = fluxonium.eigensystem(
        fluxonium.build_hamiltonian(REFERENCE_PARAMS.replace(phi_ext=0.7)), 4
    )
    assert np.allclose(a.levels, b.levels, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_spectrum_periodicity(phi):
    params = REFERENCE_PARAMS.replace(phi_ext=phi, basis_size=90)
    shifted = params.replace(phi_ext=phi + 1.0)
    a = fluxonium.eigensystem(fluxonium.build_hamiltonian(params), 3)
    b = fluxonium.eigensystem(fluxonium.build_hamiltonian(shifted), 3)
    assert np.allclose(a.levels, b.levels, atol=1e-9)


def test_random_parameter_oracle_agreement():
    rng = np.random.default_rng(20250819)
    for _ in range(10):
        ej = rng.uniform(2.0, 9.0)
        ec = rng.uniform(0.6, 2.0)
        el = rng.uniform(0.3, 1.8)
        flux = rng.uniform(0.0, 0.5)
        params = fluxonium.FluxoniumParams(e_j=ej, e_c=ec, e_l=el, phi_ext=flux)
        spec = fluxonium.eigensystem(fluxonium.build_hamiltonian(params), 3)
        levels, elem = phase_grid_spectrum(ej, ec, el, flux, n_levels=3)
        assert spec.levels[1] == pytest.approx(levels[1], rel=1e-4)
        assert fluxonium.phase_matrix_element(params, 0, 1) == pytest.approx(
            elem(0, 1), rel=1e-4
        )


def test_phase_grid_oracle_resolves_m01():
    # A 9001-point grid is 1.4e-4 off here while the model is converged (basis
    # 120, 200 and 300 agree to 1e-12); the default grid must resolve 1e-4.
    ej, ec, el, flux = 7.5629, 0.6990, 0.6069, 0.22389
    params = fluxonium.FluxoniumParams(e_j=ej, e_c=ec, e_l=el, phi_ext=flux)
    _, elem = phase_grid_spectrum(ej, ec, el, flux, n_levels=3)
    assert fluxonium.phase_matrix_element(params, 0, 1) == pytest.approx(
        elem(0, 1), rel=1e-4
    )


def test_spectrum_sweep_consistency_and_minimum():
    rows = fluxonium.spectrum_sweep(REFERENCE_PARAMS, [0.5], 4)
    direct = fluxonium.eigensystem(fluxonium.build_hamiltonian(REFERENCE_PARAMS), 4)
    assert np.allclose(rows[0][1].levels, direct.levels)

    grid = np.linspace(0.35, 0.65, 31)
    sweep = fluxonium.spectrum_sweep(REFERENCE_PARAMS, grid, 2)
    f01s = np.array([s.levels[1] for _, s in sweep])
    assert grid[np.argmin(f01s)] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("basis_size", [90, 200])
def test_hamiltonian_matches_cosm_reference(basis_size):
    rng = np.random.default_rng(515 + basis_size)
    for _ in range(12):
        params = fluxonium.FluxoniumParams(
            e_j=rng.uniform(0.5, 10.0),
            e_c=rng.uniform(0.4, 2.5),
            e_l=rng.uniform(0.2, 2.0),
            phi_ext=rng.uniform(-2.5, 3.5),  # also outside [0, 1]
            basis_size=basis_size,
        )
        h = fluxonium.build_hamiltonian(params)
        np.testing.assert_array_equal(h, h.T)
        np.testing.assert_allclose(h, cosm_hamiltonian(params), rtol=0, atol=1e-12)


def test_spectrum_sweep_rows_equal_single_builds():
    grid = [-0.7, 0.0, 0.2, 0.5, 0.5 + 1e-9, 1.3]
    rows = fluxonium.spectrum_sweep(REFERENCE_PARAMS, grid, 4)
    assert [flux for flux, _ in rows] == grid
    for flux, spec in rows:
        single = fluxonium.eigensystem(
            fluxonium.build_hamiltonian(REFERENCE_PARAMS.replace(phi_ext=flux)), 4
        )
        np.testing.assert_array_equal(spec.levels, single.levels)
        np.testing.assert_array_equal(spec._vectors, single._vectors)


def test_phase_matrix_is_shared_by_element_and_eigenbasis_paths():
    params = REFERENCE_PARAMS.replace(phi_ext=0.31)
    levels, matrix = fluxonium.eigenbasis_phase_matrix(params, 4)
    spec = fluxonium.eigensystem(fluxonium.build_hamiltonian(params), 4)
    np.testing.assert_array_equal(levels, spec.levels)
    np.testing.assert_array_equal(matrix, fluxonium.phase_matrix(params, spec))
    np.testing.assert_allclose(matrix, matrix.T, rtol=0, atol=1e-13)
    for i, j in ((0, 1), (1, 2), (0, 3)):
        assert fluxonium.phase_matrix_element(params, i, j, n_levels=4) == abs(matrix[i, j])


def test_spectrum_sweep_empty_grid():
    with pytest.raises(ValueError):
        fluxonium.spectrum_sweep(REFERENCE_PARAMS, [], 3)


def test_find_reset_flux_fixed_point():
    f_sweet = fluxonium.eigensystem(fluxonium.build_hamiltonian(REFERENCE_PARAMS), 2).levels[1]
    sol = fluxonium.find_reset_flux(REFERENCE_PARAMS, f_sweet)
    assert sol.excursion_phi0 == 0.0


def test_find_reset_flux_cavity_target():
    sol = fluxonium.find_reset_flux(REFERENCE_PARAMS, 4.98)
    # dense-grid oracle: crossing bracketed independently on a 120-point scan
    levels, _ = phase_grid_spectrum(4.5, 1.1, 0.5, sol.flux_phi0, n_levels=2)
    assert levels[1] == pytest.approx(4.98, abs=1e-4)
    assert 0.25 < sol.excursion_phi0 < 0.40  # same scale as a real device's 0.298


def test_find_reset_flux_unattainable():
    with pytest.raises(NoSolutionError):
        fluxonium.find_reset_flux(REFERENCE_PARAMS, 50.0)
    with pytest.raises(NoSolutionError):
        fluxonium.find_reset_flux(REFERENCE_PARAMS, 0.01)


def _reset_outcome(search, params, f_target, scan_points):
    """The fields of a reset search, bit for bit, or its error text."""
    try:
        sol = search(params, f_target, scan_points=scan_points)
    except NoSolutionError as exc:
        return "error", str(exc)
    return "ok", tuple(float(v).hex() for v in (sol.flux_phi0, sol.excursion_phi0, sol.f01_ghz))


def _f01_at(params, flux):
    h = fluxonium.build_hamiltonian(params.replace(phi_ext=flux))
    return fluxonium.eigensystem(h, 2).levels[1]


@pytest.mark.slow
def test_find_reset_flux_matches_full_scan_oracle():
    rng = np.random.default_rng(1507)
    cases = [(REFERENCE_PARAMS, 160)]
    for _ in range(12):
        circuit = fluxonium.FluxoniumParams(
            e_j=rng.uniform(2.0, 9.0), e_c=rng.uniform(0.6, 2.0), e_l=rng.uniform(0.3, 1.8)
        )
        cases.append((circuit, 48))
    for params, scan_points in cases:
        sweet = _f01_at(params, 0.5)
        in_band = _f01_at(params, rng.uniform(0.25, 0.45))
        for f_target in (in_band, sweet, 1e3, sweet - 0.01):
            got = _reset_outcome(fluxonium.find_reset_flux, params, f_target, scan_points)
            want = _reset_outcome(scanned_reset_flux, params, f_target, scan_points)
            assert got == want, (params, f_target)
        assert got[0] == "error" and "outside attainable band" in got[1]


def test_find_reset_flux_stops_scanning_at_the_first_bracket(monkeypatch):
    from scipy.optimize import brentq

    params, f_target, scan_points = REFERENCE_PARAMS, 4.98, 160
    terms = fluxonium._flux_free_terms(params)
    grid = np.linspace(0.5, 1e-3, scan_points)
    f01s = np.array([fluxonium._f01(params, terms, g) for g in grid])
    bracket = int(np.flatnonzero((f01s[:-1] - f_target) * (f01s[1:] - f_target) <= 0)[0])
    _, info = brentq(
        lambda x: fluxonium._f01(params, terms, x) - f_target,
        grid[bracket + 1], grid[bracket], xtol=1e-10, full_output=True,
    )
    assert bracket + 2 < scan_points  # a full scan would exceed the budget below

    calls = []
    solve = fluxonium.eigensystem
    monkeypatch.setattr(
        fluxonium, "eigensystem", lambda *args, **kw: calls.append(1) or solve(*args, **kw)
    )
    fluxonium.find_reset_flux(params, f_target, scan_points=scan_points)
    assert len(calls) <= bracket + 2 + info.function_calls


def test_find_reset_flux_fields_are_floats():
    sweet = _f01_at(REFERENCE_PARAMS, 0.5)
    assert type(sweet) is np.float64
    for f_target in (sweet, 4.98, np.float64(4.98), 5):
        sol = fluxonium.find_reset_flux(REFERENCE_PARAMS, f_target, scan_points=48)
        assert [type(v) for v in (sol.flux_phi0, sol.excursion_phi0, sol.f01_ghz)] == [float] * 3


def test_basis_size_minimum_enforced():
    with pytest.raises(ValueError):
        fluxonium.FluxoniumParams(e_j=4.5, e_c=1.1, e_l=0.5, basis_size=4)


@pytest.mark.parametrize("bad", [60.7, 60.0, True])
def test_basis_size_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="basis_size must be an integer"):
        fluxonium.FluxoniumParams(e_j=4.5, e_c=1.1, e_l=0.5, basis_size=bad)
    params = fluxonium.FluxoniumParams(e_j=4.5, e_c=1.1, e_l=0.5, basis_size=np.int64(60))
    assert params.basis_size == 60


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["e_j", "e_c", "e_l", "phi_ext"])
def test_non_finite_parameters_rejected(name, bad):
    kwargs = dict(e_j=4.5, e_c=1.1, e_l=0.5, phi_ext=0.5)
    kwargs[name] = bad
    with pytest.raises(ValueError, match="finite"):
        fluxonium.FluxoniumParams(**kwargs)


def test_levels_invariants():
    spec = fluxonium.eigensystem(fluxonium.build_hamiltonian(REFERENCE_PARAMS), 6)
    assert spec.levels[0] == 0.0
    assert np.all(np.diff(spec.levels) >= 0)
