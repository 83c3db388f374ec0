import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniflux import fluxonium
from uniflux.errors import NoSolutionError, NumericalError, _scipy_extension

from oracles import (
    cosm_hamiltonian,
    eigh_eigensystem,
    fixed_basis_reset_flux,
    fixed_basis_spectrum_sweep,
    loop_sign_fix,
    operator_phase_matrix,
    phase_grid_spectrum,
    scanned_reset_flux,
    tridiagonal_flux_free_terms,
)

REFERENCE_PARAMS = fluxonium.FluxoniumParams(e_j=4.5, e_c=1.1, e_l=0.5, phi_ext=0.5)


def _circuits(count, seed, **kwargs):
    """``count`` circuits drawn from the criterion-01 energy ranges."""
    rng = np.random.default_rng(seed)
    return [
        fluxonium.FluxoniumParams(
            e_j=rng.uniform(2.0, 9.0), e_c=rng.uniform(0.6, 2.0), e_l=rng.uniform(0.3, 1.8),
            **kwargs,
        )
        for _ in range(count)
    ]


# The (E_J, E_L) corners of the criterion-01 ranges at both E_C extremes;
# E_J 9, E_L 0.3 needs the top rung, basis 120, at every flux.
CORNERS = [
    fluxonium.FluxoniumParams(e_j=e_j, e_c=e_c, e_l=e_l)
    for e_j in (2.0, 9.0) for e_l in (0.3, 1.8) for e_c in (0.6, 2.0)
]


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
    # each row is the single-point solve at its flux, and that solve is the
    # fixed-basis build and eigensolve at the rung it stopped on
    grid = [-0.7, 0.0, 0.2, 0.5, 0.5 + 1e-9, 1.3]
    corner = fluxonium.FluxoniumParams(e_j=9.0, e_c=0.6, e_l=0.3)
    for params in (REFERENCE_PARAMS, corner, *_circuits(4, 43)):
        rows = fluxonium.spectrum_sweep(params, grid, 4)
        assert [flux for flux, _ in rows] == grid
        for flux, spec in rows:
            for single in (
                fluxonium._spectrum(*fluxonium._solve(params, [flux], 4, {})[0]),
                fluxonium.eigensystem(fluxonium.build_hamiltonian(
                    params.replace(phi_ext=flux, basis_size=len(spec._vectors))), 4),
            ):
                np.testing.assert_array_equal(spec.levels, single.levels)
                np.testing.assert_array_equal(spec._vectors, single._vectors)
                assert spec.tail_weight == single.tail_weight


def test_ladder_sweeps_agree_with_the_fixed_basis_oracle():
    # rows solved on the smallest converged rung against every row at the
    # top rung, basis 120: 6.6e-11 GHz and 3.4e-11 relative worst over 308
    # circuits; at the E_J 9, E_L 0.3 corners basis 120 itself differs from
    # basis 200 by up to 5.5e-11 GHz
    rng = np.random.default_rng(53)
    rungs = set()
    for k, params in enumerate([*_circuits(100, 47), *CORNERS]):
        n_levels = 2 + k % 5
        grid = rng.uniform(-0.5, 1.5, 6)
        got = fluxonium.spectrum_sweep(params, grid, n_levels)
        want = fixed_basis_spectrum_sweep(params, grid, n_levels)
        for (flux, spec), (want_flux, want_spec) in zip(got, want):
            assert flux == want_flux
            rungs.add(len(spec._vectors))
            np.testing.assert_allclose(spec.levels, want_spec.levels, rtol=0, atol=1e-10)
            m01 = abs(fluxonium.phase_matrix(params, spec)[0, 1])
            want_m01 = abs(operator_phase_matrix(params, want_spec)[0, 1])
            assert m01 == pytest.approx(want_m01, rel=1e-10, abs=0)
    assert rungs == {80, 100, 120}


@pytest.mark.slow
def test_ladder_reset_search_agrees_with_the_fixed_basis_oracle():
    rng = np.random.default_rng(59)
    for params in [*_circuits(100, 61), *CORNERS]:
        want_f01 = fixed_basis_spectrum_sweep(params, [rng.uniform(0.25, 0.45)], 2)[0][1].levels[1]
        got = fluxonium.find_reset_flux(params, want_f01, scan_points=48)
        want = fixed_basis_reset_flux(params, want_f01, scan_points=48)
        assert abs(got.flux_phi0 - want.flux_phi0) <= 1e-10


def _count_kernel_rows(monkeypatch):
    """(basis size, n_levels) of every row the kernel solves from now on."""
    rows = []
    solve = fluxonium._eigensolve
    monkeypatch.setattr(
        fluxonium, "_eigensolve",
        lambda stack, n_levels: rows.extend([(stack.shape[1], n_levels)] * len(stack))
        or solve(stack, n_levels),
    )
    return rows


def test_no_rung_below_three_times_the_levels_is_climbed(monkeypatch):
    solves = _count_kernel_rows(monkeypatch)
    # E_J 9, E_L 0.3, E_C 0.6 fails every rung below 120, so each point
    # climbs every rung that holds its levels
    corner = CORNERS[4].replace(basis_size=240)
    for n_levels, ladder in [
        (2, [80, 100, 240]), (20, [80, 100, 240]), (21, [80, 100, 240]),
        (26, [80, 100, 240]), (27, [100, 240]), (33, [100, 240]), (34, [240]), (40, [240]),
    ]:
        for flux in (0.0, 0.5):
            solves.clear()
            fluxonium.spectrum_sweep(corner, [flux], n_levels)
            assert solves == [(size, n_levels) for size in ladder]
    # a point stops at its first converged rung: the reference circuit at the
    # bottom, E_J 9, E_C 1, E_L 0.5 one rung below the top
    for params, ladder in [
        (REFERENCE_PARAMS.replace(basis_size=90), [80]),
        (fluxonium.FluxoniumParams(e_j=9.0, e_c=1.0, e_l=0.5), [80, 100]),
    ]:
        solves.clear()
        fluxonium.spectrum_sweep(params, [0.5], 2)
        assert solves == [(size, 2) for size in ladder]


def test_phase_matrix_matches_the_operator_product():
    # the ladder form against V^T phi_op V with the n x n phase operator
    for params in [REFERENCE_PARAMS, *_circuits(20, 67), *CORNERS]:
        spec = fluxonium._spectrum(*fluxonium._solve(params, [params.phi_ext], 6, {})[0])
        got = fluxonium.phase_matrix(params, spec)
        np.testing.assert_array_equal(got, got.T)
        np.testing.assert_allclose(got, operator_phase_matrix(params, spec), rtol=0, atol=1e-13)


def test_phase_matrix_is_shared_by_element_and_eigenbasis_paths():
    params = REFERENCE_PARAMS.replace(phi_ext=0.31)
    levels, matrix = fluxonium.eigenbasis_phase_matrix(params, 4)
    spec = fluxonium._spectrum(*fluxonium._solve(params, [params.phi_ext], 4, {})[0])
    np.testing.assert_array_equal(levels, spec.levels)
    np.testing.assert_array_equal(matrix, fluxonium.phase_matrix(params, spec))
    np.testing.assert_allclose(matrix, matrix.T, rtol=0, atol=1e-13)
    for i, j in ((0, 1), (1, 2), (0, 3)):
        assert fluxonium.phase_matrix_element(params, i, j, n_levels=4) == abs(matrix[i, j])


def test_flux_free_terms_match_the_per_circuit_decomposition():
    # the shared Gauss-Hermite basis against an eigendecomposition of each
    # circuit's own phase operator: 7e-15 worst over these circuits
    circuits = [REFERENCE_PARAMS, *_circuits(300, 19)]
    circuits += [REFERENCE_PARAMS.replace(basis_size=n) for n in (12, 61, 200)]
    for params in circuits:
        got = fluxonium._flux_free_terms(params)
        want = tridiagonal_flux_free_terms(params)
        assert np.array_equal(got[0], want[0])
        for term, expected in zip(got[1:], want[1:]):
            np.testing.assert_allclose(term, expected, rtol=0, atol=1e-13)


def test_eigenbasis_phase_matrix_matches_the_per_circuit_decomposition(monkeypatch):
    circuits = [REFERENCE_PARAMS, *_circuits(40, 23)]
    got = [fluxonium.eigenbasis_phase_matrix(params, 6) for params in circuits]
    monkeypatch.setattr(fluxonium, "_flux_free_terms", tridiagonal_flux_free_terms)
    for params, (levels, phi_mat) in zip(circuits, got):
        want_levels, want_phi_mat = fluxonium.eigenbasis_phase_matrix(params, 6)
        np.testing.assert_allclose(levels, want_levels, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.abs(phi_mat), np.abs(want_phi_mat), rtol=0, atol=1e-12)


def test_find_reset_flux_matches_the_per_circuit_decomposition(monkeypatch):
    rng = np.random.default_rng(31)
    cases = [(REFERENCE_PARAMS, 4.98)]
    cases += [(params, _f01_at(params, rng.uniform(0.25, 0.45))) for params in _circuits(6, 37)]
    got = [fluxonium.find_reset_flux(params, f_target, scan_points=48)
           for params, f_target in cases]
    monkeypatch.setattr(fluxonium, "_flux_free_terms", tridiagonal_flux_free_terms)
    for (params, f_target), sol in zip(cases, got):
        want = fluxonium.find_reset_flux(params, f_target, scan_points=48)
        assert abs(sol.flux_phi0 - want.flux_phi0) <= 1e-10  # the brentq xtol


@pytest.mark.parametrize("n", [12, 40, 120])
def test_phase_basis_is_the_gauss_hermite_rule(n):
    # Golub-Welsch: the eigenvalues of the Jacobi matrix a + a^dagger are
    # sqrt(2) times the Gauss-Hermite nodes, and the squared first components
    # of its eigenvectors are the weights over sqrt(pi)
    nodes, v = fluxonium._phase_basis(n)
    x, w = np.polynomial.hermite.hermgauss(n)
    np.testing.assert_allclose(nodes, np.sqrt(2.0) * x, rtol=0, atol=1e-13)
    np.testing.assert_allclose(v[0] ** 2, w / np.sqrt(np.pi), rtol=0, atol=1e-14)
    assert not nodes.flags.writeable
    assert not v.flags.writeable


def test_phase_basis_cache_is_bounded():
    # --basis-size has no upper limit and each entry holds an n x n array
    maxsize = fluxonium._phase_basis.cache_info().maxsize
    assert maxsize is not None and maxsize <= 8
    for n in range(12, 12 + maxsize + 3):
        fluxonium._phase_basis(n)
    assert fluxonium._phase_basis.cache_info().currsize <= maxsize


@pytest.mark.parametrize("n", [12, 37, 80, 100, 120])
def test_phase_basis_is_eigh_tridiagonal_bit_for_bit(n):
    import scipy.linalg

    nodes, v = scipy.linalg.eigh_tridiagonal(np.zeros(n), np.sqrt(np.arange(1.0, n)))
    fluxonium._phase_basis.cache_clear()
    got_nodes, got_v = fluxonium._phase_basis(n)
    _assert_same_bits(got_nodes, nodes)
    _assert_same_bits(got_v, v)
    assert got_v.flags.f_contiguous == v.flags.f_contiguous


def test_one_phase_decomposition_per_basis_size(monkeypatch):
    from uniflux import dynamics

    calls = []
    lapack = _scipy_extension("linalg", "_flapack")
    solve = lapack.dstevd
    monkeypatch.setattr(
        lapack, "dstevd", lambda *args, **kw: calls.append(len(args[0])) or solve(*args, **kw)
    )
    fluxonium._phase_basis.cache_clear()
    dynamics._qubit_frame.cache_clear()
    climbed = []
    terms = fluxonium._flux_free_terms
    monkeypatch.setattr(
        fluxonium, "_flux_free_terms", lambda params: climbed.append(params.basis_size) or terms(params)
    )
    circuits = _circuits(10, 41)
    for params in circuits[:5]:
        fluxonium.spectrum_sweep(params, np.linspace(0.0, 0.5, 3), 3)
    for params in circuits[5:]:
        dynamics._qubit_frame(params, 3)
    assert all(params.basis_size == 120 for params in circuits)
    # one decomposition per rung used, however many circuits climbed it
    assert len(climbed) > len(set(climbed)) > 1
    assert sorted(calls) == sorted(set(climbed))


def test_spectrum_sweep_empty_grid():
    with pytest.raises(ValueError):
        fluxonium.spectrum_sweep(REFERENCE_PARAMS, [], 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectrum_sweep_rejects_a_non_finite_flux(bad):
    with pytest.raises(ValueError, match="sweep row 1: flux must be finite"):
        fluxonium.spectrum_sweep(REFERENCE_PARAMS, [0.5, bad], 3)


@pytest.mark.parametrize("params, n_levels, message", [
    (REFERENCE_PARAMS, 1, "n_levels must be at least 2"),
    (REFERENCE_PARAMS, 41, "n_levels=41 exceeds the truncation safety margin "
                           "(basis_size=120 supports at most 40)"),
    (REFERENCE_PARAMS.replace(basis_size=24), 9, "n_levels=9 exceeds the truncation safety "
                                                 "margin (basis_size=24 supports at most 8)"),
])
def test_spectrum_sweep_refuses_a_level_count_the_basis_cannot_hold(params, n_levels, message):
    with pytest.raises(ValueError) as info:
        fluxonium.spectrum_sweep(params, [0.5], n_levels)
    assert str(info.value) == message


def test_too_small_a_basis_raises():
    # the reference circuit keeps 3.8e-5 of level 3 in the top 4 of 24 states
    small = REFERENCE_PARAMS.replace(basis_size=24)
    with pytest.raises(NumericalError, match=r"basis 24 too small: level 3 has weight 3\.78e-05"):
        fluxonium.eigensystem(fluxonium.build_hamiltonian(small), 4)
    with pytest.raises(NumericalError, match=r"sweep row 0 \(flux=0\.5\): basis 24 too small"):
        fluxonium.spectrum_sweep(small, [0.5, 0.0], 4)
    for call in (
        lambda: fluxonium.eigenbasis_phase_matrix(small, 4),
        lambda: fluxonium.phase_matrix_element(small, 0, 1, n_levels=4),
        lambda: fluxonium.find_reset_flux(small, 4.98),
    ):
        with pytest.raises(NumericalError, match="basis 24 too small"):
            call()


def test_every_criterion_01_circuit_passes_the_guard_at_basis_120():
    # every row of the fixed-basis sweep goes through eigensystem's guard
    worst = 0.0
    for params in [REFERENCE_PARAMS, *_circuits(100, 71), *CORNERS]:
        for _, spec in fixed_basis_spectrum_sweep(params, np.linspace(0.0, 0.5, 4), 6):
            worst = max(worst, spec.tail_weight)
    assert 4e-12 < worst <= fluxonium.TAIL_LIMIT


def test_sign_fix_matches_the_column_loop():
    import scipy.linalg

    for params in [REFERENCE_PARAMS, *_circuits(40, 73), *CORNERS]:
        h = fluxonium.build_hamiltonian(params.replace(phi_ext=0.3))
        _, vecs = scipy.linalg.eigh(h, subset_by_index=(0, 5))
        np.testing.assert_array_equal(fluxonium.eigensystem(h, 6)._vectors, loop_sign_fix(vecs))


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def test_kernel_matches_the_eigh_oracle_bit_for_bit():
    # whole stacks on the rungs, the default top and a size that is no rung,
    # then sweep rows, which stop on different rungs, against the oracle on
    # the rung each stopped on; eigh's vectors are Fortran-ordered, and
    # phase_matrix's product rounds by layout
    rng = np.random.default_rng(79)
    rungs = set()
    compared = 0
    for k, params in enumerate([*_circuits(100, 83), *CORNERS]):
        n_levels = 2 + k % 5
        grid = rng.uniform(-0.5, 1.5, 3)
        for size in (80, 100, 120, 61):
            terms = fluxonium._flux_free_terms(params.replace(basis_size=size))
            stack = fluxonium._assemble(terms, params.e_j, grid[:2])
            want = [eigh_eigensystem(h.copy(), n_levels) for h in stack]
            levels, vecs, tails, info = fluxonium._eigensolve(stack, n_levels)
            assert info.tolist() == [0, 0]
            for row, (want_levels, want_vecs, want_tails) in enumerate(want):
                _assert_same_bits(levels[row], want_levels)
                _assert_same_bits(vecs[row], want_vecs)
                assert vecs[row].flags.f_contiguous
                _assert_same_bits(tails[row], want_tails)
                compared += 1
        for flux, spec in fluxonium.spectrum_sweep(params, grid, n_levels):
            size = len(spec._vectors)
            rungs.add(size)
            h = fluxonium.build_hamiltonian(params.replace(phi_ext=flux, basis_size=size))
            want_levels, want_vecs, want_tails = eigh_eigensystem(h, n_levels)
            _assert_same_bits(spec.levels, want_levels)
            _assert_same_bits(spec._vectors, want_vecs)
            assert spec._vectors.flags.f_contiguous
            assert spec.tail_weight == want_tails.max()
            compared += 1
    assert rungs == {80, 100, 120}
    assert compared >= 1000


def _failing_syevr(monkeypatch, fails):
    """Make dsyevr report failure on the (basis size, H[0, 0]) pairs in ``fails``."""
    syevr_of = fluxonium._syevr

    def patched(n):
        syevr, lwork, liwork = syevr_of(n)

        def run(a, **kw):
            fail = (n, a[0, 0]) in fails
            *out, info = syevr(a, **kw)
            return (*out, 1 if fail else info)

        return run, lwork, liwork

    monkeypatch.setattr(fluxonium, "_syevr", patched)


def test_a_row_whose_solve_fails_climbs_alone(monkeypatch):
    grid = [0.1, 0.2, 0.3, 0.4]

    def h00(flux, size):
        return fluxonium.build_hamiltonian(
            REFERENCE_PARAMS.replace(phi_ext=flux, basis_size=size))[0, 0]

    fails = {(80, h00(flux, 80)) for flux in (0.2, 0.4)}
    _failing_syevr(monkeypatch, fails)
    solves = _count_kernel_rows(monkeypatch)
    rows = fluxonium.spectrum_sweep(REFERENCE_PARAMS, grid, 3)
    # only the two failed rows climb
    assert solves == [(80, 3)] * 4 + [(100, 3)] * 2
    for (flux, spec), size in zip(rows, (80, 100, 80, 100)):
        want = fluxonium.eigensystem(fluxonium.build_hamiltonian(
            REFERENCE_PARAMS.replace(phi_ext=flux, basis_size=size)), 3)
        _assert_same_bits(spec._vectors, want._vectors)
        _assert_same_bits(spec.levels, want.levels)
    # failing on every rung, the first bad row in grid order is named
    fails |= {(size, h00(flux, size)) for flux in (0.2, 0.4) for size in (100, 120)}
    with pytest.raises(NumericalError, match=r"^sweep row 1 \(flux=0\.2\): eigensolver failed"):
        fluxonium.spectrum_sweep(REFERENCE_PARAMS, grid, 3)
    with pytest.raises(NumericalError, match=r"^eigensolver failed to converge \(dsyevr info 1\)"):
        fluxonium.eigenbasis_phase_matrix(REFERENCE_PARAMS.replace(phi_ext=0.4), 3)


@pytest.mark.parametrize("params, ladder", [
    # H + H^T overflows at flux 0.3 but not at 0.4, whose row climbs alone
    # and fails the top rung's tail limit: the first bad row is still named
    (fluxonium.FluxoniumParams(e_j=1.7e308, e_c=1.2, e_l=0.9), [80, 80, 100, 120]),
    (fluxonium.FluxoniumParams(e_j=4.5, e_c=1e308, e_l=0.9), [80, 80]),  # phi_zpf overflows
])
def test_a_hamiltonian_that_is_not_finite_is_refused(monkeypatch, params, ladder):
    solves = _count_kernel_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^sweep row 0 \(flux=0\.3\): Hamiltonian is not finite$"):
            fluxonium.spectrum_sweep(params, [0.3, 0.4], 3)
        assert solves == [(size, 3) for size in ladder]  # a refused row never climbs
        with pytest.raises(ValueError, match="^Hamiltonian is not finite$"):
            fluxonium.eigenbasis_phase_matrix(params.replace(phi_ext=0.3), 3)
        with pytest.raises(ValueError, match="^Hamiltonian is not finite$"):
            fluxonium.eigensystem(np.full((12, 12), np.nan), 2)


def test_find_reset_flux_fixed_point():
    # REFERENCE_PARAMS sits at the sweet spot, so this is the search's own solve
    f_sweet = fluxonium.eigenbasis_phase_matrix(REFERENCE_PARAMS, 2)[0][1]
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
    return "ok", tuple(float(v).hex() for v in (sol.flux_phi0, sol.excursion_phi0))


def _f01_at(params, flux):
    """f01 at ``flux`` from the single-point solve the reset search uses."""
    return fluxonium.eigenbasis_phase_matrix(params.replace(phi_ext=flux), 2)[0][1]


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
    terms = {}
    grid = np.linspace(0.5, 1e-3, scan_points)
    f01s = np.array([fluxonium._f01(params, terms, g) for g in grid])
    bracket = int(np.flatnonzero((f01s[:-1] - f_target) * (f01s[1:] - f_target) <= 0)[0])
    _, info = brentq(
        lambda x: fluxonium._f01(params, terms, x) - f_target,
        grid[bracket + 1], grid[bracket], xtol=1e-10, full_output=True,
    )
    assert bracket + 2 < scan_points  # a full scan would exceed the budget below

    # the budget counts rows the kernel solves, a rung climbed counting again;
    # brentq's first two evaluations are the bracket ends the scan solved
    calls = _count_kernel_rows(monkeypatch)
    fluxes = []
    f01 = fluxonium._f01
    monkeypatch.setattr(
        fluxonium, "_f01", lambda p, terms, flux: fluxes.append(flux) or f01(p, terms, flux)
    )
    fluxonium.find_reset_flux(params, f_target, scan_points=scan_points)
    assert len(calls) <= bracket + info.function_calls
    assert len(set(fluxes)) == len(fluxes)  # no flux is solved twice


@pytest.mark.parametrize("f_target, scan_points", [
    (np.nan, 160), (np.inf, 160), (-np.inf, 160),
    (4.98, 0), (4.98, 1), (4.98, True), (4.98, 48.0), (4.98, -3),
])
def test_find_reset_flux_rejects_bad_inputs_before_any_eigensolve(monkeypatch, f_target,
                                                                  scan_points):
    calls = _count_kernel_rows(monkeypatch)
    with pytest.raises(ValueError, match="f_target must be finite|scan_points must be an integer"):
        fluxonium.find_reset_flux(REFERENCE_PARAMS, f_target, scan_points=scan_points)
    assert calls == []


def test_find_reset_flux_fields_are_floats():
    sweet = _f01_at(REFERENCE_PARAMS, 0.5)
    assert type(sweet) is np.float64
    for f_target in (sweet, 4.98, np.float64(4.98), 5):
        sol = fluxonium.find_reset_flux(REFERENCE_PARAMS, f_target, scan_points=48)
        assert [type(v) for v in (sol.flux_phi0, sol.excursion_phi0)] == [float] * 2


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
