"""Fluxonium circuit spectra and phase matrix elements.

The qubit Hamiltonian is

    H0 = 4 E_C n^2 + (1/2) E_L (phi - phi_ext)^2 - E_J cos(phi),

with all energies given as frequencies (E/h, GHz) and the external flux in
units of the flux quantum. The matrix is built in the harmonic-oscillator
basis of the LC subcircuit (plasma frequency sqrt(8 E_L E_C)) after
translating the phase coordinate to the inductive minimum, where the LC part
is diagonal and the Josephson term becomes -E_J cos(phi_op - phi_dc) with
phi_dc = 2*pi*phi_ext. The translation shifts only diagonal elements of the
phase operator, so off-diagonal matrix elements |<i|phi|j>| are unaffected.

The flux enters only through the identity

    cos(phi_op - phi_dc) = cos(phi_op) cos(phi_dc) + sin(phi_op) sin(phi_dc),

so H needs cos(phi_op) and sin(phi_op). phi_op = phi_zpf (a + a^dagger), and
the truncated a + a^dagger is the Jacobi matrix of the Hermite polynomials:
its eigenvectors are the same for every circuit and its eigenvalues are
sqrt(2) times the Gauss-Hermite nodes (Golub & Welsch, Math. Comp. 23, 221
(1969)). That decomposition is made once per basis size, and each circuit
scales the nodes by its phi_zpf (the oscillator-basis approach of
Groszkowski & Koch, scqubits, Quantum 5, 583 (2021)).

One kernel, ``_eigensolve``, diagonalizes every Hamiltonian, a stack of them
at a time, through LAPACK's dsyevr with the workspace scipy.linalg.eigh
queries: bit for bit eigh, without its per-call wrapper. It and the phase
basis call SciPy's LAPACK extension ``_flapack``, and the reset search calls
brentq's compiled kernel, ``scipy.optimize._zeros``; ``errors._scipy_extension``
loads each without the import of its subpackage, which would be about half of
a cold command. Truncation is measured, not assumed: the kernel reports the
weight each eigenvector has in the top sixth of the oscillator states, and a
spectrum whose weight there exceeds TAIL_LIMIT is refused. Sweeps,
reset-flux searches and eigenbasis phase matrices solve each flux point on a
short ladder of basis sizes, RUNGS and then ``basis_size``, and keep the
first rung whose tail weight is at most TAIL_CONVERGED. Each point climbs
from the bottom, so a sweep row equals the single-point solve at its flux.
A call forms cos(phi_op) and sin(phi_op) once per rung it climbs; each rung
solves the points still climbing as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NoSolutionError, NumericalError, _is_integer, _scipy_extension

DEFAULT_BASIS_SIZE = 120
DEFAULT_N_LEVELS = 6
MIN_BASIS_SIZE = 12
BASIS_PER_LEVEL = 3  # n_levels may be at most basis_size // BASIS_PER_LEVEL
RUNGS = (80, 100)  # basis sizes a point tries below basis_size, smallest first
# The bottom rung holds about nine in ten criterion-01 points, so most points
# solve once. A rung at 60 holds about six in ten: the rest pay for a failed
# solve, and a call's cost would swing by up to 2.5x with the circuit.
TAIL_DIVISOR = 6  # the tail is the top dim // TAIL_DIVISOR oscillator states
TAIL_CONVERGED = 1e-12  # largest tail weight that stops the climb below the top rung
# eigensystem's refusal threshold: at E_J 9, E_L 0.3 GHz even basis 120
# leaves 4.9e-12 in the tail, and its 6 levels agree with basis 200 to 5.5e-11 GHz
TAIL_LIMIT = 1e-10


@dataclass(frozen=True)
class FluxoniumParams:
    """Circuit energies (GHz), external flux (Phi0), and basis truncation.

    Attributes
    ----------
    e_j, e_c, e_l :
        Josephson, charging, and inductive energies as E/h in GHz.
    phi_ext :
        External flux bias in units of Phi0 (0.5 is the half-flux sweet spot).
    basis_size :
        Largest oscillator basis, the top rung of the ladder that sweeps,
        reset searches and eigenbasis phase matrices climb; a flux point
        stops at the first of RUNGS (below this size) whose tail weight is
        at most TAIL_CONVERGED. ``build_hamiltonian`` uses exactly this size.
        120 converges the low levels of criterion-01 circuits at every flux.
    """

    e_j: float
    e_c: float
    e_l: float
    phi_ext: float = 0.5
    basis_size: int = DEFAULT_BASIS_SIZE

    def __post_init__(self):
        if not 0 <= self.e_j < np.inf:
            raise ValueError(f"e_j must be non-negative and finite, got {self.e_j}")
        if not (0 < self.e_c < np.inf and 0 < self.e_l < np.inf):
            raise ValueError("e_c and e_l must be positive and finite")
        if not np.isfinite(self.phi_ext):
            raise ValueError(f"phi_ext must be finite, got {self.phi_ext}")
        if not _is_integer(self.basis_size) or self.basis_size < MIN_BASIS_SIZE:
            raise ValueError(
                f"basis_size must be an integer >= {MIN_BASIS_SIZE}, got {self.basis_size!r}"
            )

    def replace(self, **kwargs) -> "FluxoniumParams":
        from dataclasses import replace as _replace

        return _replace(self, **kwargs)

    @property
    def plasma_frequency(self) -> float:
        """LC plasma frequency sqrt(8 E_L E_C) in GHz."""
        return np.sqrt(8.0 * self.e_l * self.e_c)

    @property
    def phi_zpf(self) -> float:
        """Zero-point phase amplitude <0|phi|1> of the bare LC oscillator."""
        return (8.0 * self.e_c / self.e_l) ** 0.25 / np.sqrt(2.0)


@dataclass(frozen=True)
class EnergySpectrum:
    """Eigenfrequencies relative to the ground state, in GHz.

    ``levels`` ascend from exactly 0, as ``_eigensolve`` returns them.
    Eigenvectors are retained (in the oscillator basis, phase-fixed) so
    matrix elements can be evaluated afterwards. ``tail_weight`` is the
    largest weight any retained eigenvector has in the top
    ``dim // TAIL_DIVISOR`` oscillator states: how close the spectrum comes
    to the truncation edge.
    """

    levels: np.ndarray
    tail_weight: float
    _vectors: np.ndarray = field(default=None, repr=False)


@lru_cache(maxsize=len(RUNGS) + 2)
def _phase_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nodes, V) with a + a^dagger = V diag(nodes) V^T on ``n`` levels,
    from dstevd, as scipy.linalg.eigh_tridiagonal computes them.

    Each entry holds an n x n array, so the cache keeps only the rungs, the
    default top rung and one other size.
    """
    dstevd = _scipy_extension("linalg", "_flapack").dstevd
    nodes, v, info = dstevd(np.zeros(n), np.sqrt(np.arange(1.0, n)), compute_v=1)
    if info:
        raise np.linalg.LinAlgError(f"dstevd did not converge (LAPACK info={info})")
    nodes.setflags(write=False)
    v.setflags(write=False)
    return nodes, v


@np.errstate(over="ignore", invalid="ignore")  # _eigensolve refuses what overflows
def _flux_free_terms(params: FluxoniumParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(LC diagonal, cos(phi_op), sin(phi_op)): every term of H that flux leaves alone."""
    nodes, v = _phase_basis(params.basis_size)
    w = params.phi_zpf * nodes
    lc = (np.arange(params.basis_size) + 0.5) * params.plasma_frequency
    return lc, (v * np.cos(w)) @ v.T, (v * np.sin(w)) @ v.T


@np.errstate(over="ignore", invalid="ignore")  # _eigensolve refuses what overflows
def _assemble(terms, e_j: float, fluxes: np.ndarray) -> np.ndarray:
    """H at each of ``fluxes``: a (len(fluxes), n, n) stack from the flux-free
    terms of a circuit with ``e_j``, each row built in place as D - E_J (C cos
    + S sin), then (H + H^T) / 2, so every row is exactly symmetric."""
    lc, cos_phi, sin_phi = terms
    phi_dc = 2.0 * np.pi * fluxes
    diag = np.diag(lc)
    stack = np.empty((len(fluxes), *diag.shape))
    scratch = np.empty_like(diag)
    for h, c, s in zip(stack, np.cos(phi_dc), np.sin(phi_dc)):
        np.multiply(cos_phi, c, out=h)
        h += np.multiply(sin_phi, s, out=scratch)
        h *= e_j
        np.subtract(diag, h, out=h)
        np.divide(np.add(h, h.T, out=scratch), 2.0, out=h)
    return stack


def build_hamiltonian(params: FluxoniumParams) -> np.ndarray:
    """Hamiltonian matrix in the LC oscillator basis, GHz units.

    Returns a real symmetric ``basis_size x basis_size`` matrix. The
    Josephson term uses cos(phi_op - phi_dc) = cos(phi_op) cos(phi_dc) +
    sin(phi_op) sin(phi_dc), with cos(phi_op) and sin(phi_op) formed without
    an eigensolve from the eigenbasis of a + a^dagger that every circuit of
    this basis size shares; callers that visit many fluxes of one circuit
    form them once and reuse them. The result is explicitly symmetrized to
    absorb floating-point asymmetry of the reconstructed matrix functions.
    """
    return _assemble(_flux_free_terms(params), params.e_j, np.array([params.phi_ext]))[0]


@lru_cache(maxsize=len(RUNGS) + 2)
def _syevr(n: int):
    """(dsyevr, lwork, liwork) for n x n: the workspace scipy.linalg.eigh queries."""
    lapack = _scipy_extension("linalg", "_flapack")
    lwork, liwork, _ = lapack.dsyevr_lwork(n, lower=1)
    return lapack.dsyevr, int(lwork), liwork


def _eigensolve(stack: np.ndarray, n_levels: int):
    """(levels, vectors, tails, info) of the lowest ``n_levels`` states of each
    exactly symmetric (n, n) row of ``stack``, which it overwrites.

    Per row: levels above the ground state; vectors as LAPACK returns them,
    Fortran-ordered, each signed so its largest-magnitude component is
    positive; tails, each vector's weight in the top n // TAIL_DIVISOR states;
    info 0, dsyevr's failure code, or -1 for a row refused as not finite.
    ``n_levels`` may be at most a third of n: levels closer to the truncation
    edge are not trustworthy.
    """
    p, dim, _ = stack.shape
    if n_levels < 2:
        raise ValueError("n_levels must be at least 2")
    if n_levels > dim // BASIS_PER_LEVEL:
        raise ValueError(
            f"n_levels={n_levels} exceeds the truncation safety margin "
            f"(basis_size={dim} supports at most {dim // BASIS_PER_LEVEL})"
        )
    syevr, lwork, liwork = _syevr(dim)
    vals = np.zeros((p, n_levels))
    # phase_matrix's product rounds by layout: each row keeps LAPACK's
    vecs = np.zeros((p, n_levels, dim)).transpose(0, 2, 1)
    info = np.where(np.isfinite(stack).all(axis=(1, 2)), 0, -1)
    for i in np.flatnonzero(info == 0):
        # a C-ordered row's transpose is Fortran-ordered: solved in place
        w, vecs[i], _, _, info[i] = syevr(
            stack[i].T, range="I", il=1, iu=n_levels, lower=1, lwork=lwork, liwork=liwork,
            overwrite_a=1,
        )
        vals[i] = w[:n_levels]
    # Fix each eigenvector's sign: largest-magnitude component real-positive.
    rows, cols = np.arange(p)[:, None], np.arange(n_levels)
    lead = vecs[rows, np.abs(vecs).argmax(axis=1), cols]
    vecs *= np.where(lead < 0, -1.0, 1.0)[:, None]
    tails = (vecs[:, dim - dim // TAIL_DIVISOR:] ** 2).sum(axis=1)
    return vals - vals[:, :1], vecs, tails, info


def _spectrum(levels, vectors, tails, info) -> EnergySpectrum:
    """One row of ``_eigensolve`` as an EnergySpectrum, or the error refusing it."""
    if info < 0:
        raise ValueError("Hamiltonian is not finite")
    if info > 0:
        raise NumericalError(f"eigensolver failed to converge (dsyevr info {info})")
    level = int(tails.argmax())
    if tails[level] > TAIL_LIMIT:
        dim = len(vectors)
        raise NumericalError(
            f"basis {dim} too small: level {level} has weight {tails[level]:.2e} in the top "
            f"{dim // TAIL_DIVISOR} oscillator states (limit {TAIL_LIMIT:g})"
        )
    return EnergySpectrum(levels=levels, tail_weight=float(tails[level]), _vectors=vectors)


def eigensystem(h: np.ndarray, n_levels: int) -> EnergySpectrum:
    """Lowest ``n_levels`` eigenfrequencies of the symmetric ``h``, relative to
    the ground state: ``_eigensolve`` on a one-matrix stack.

    ``n_levels`` may be at most a third of the basis size. A matrix that is not
    finite raises ValueError. A retained eigenvector with more than TAIL_LIMIT
    of its weight in the top ``dim // TAIL_DIVISOR`` oscillator states raises
    NumericalError: the basis is too small.
    """
    # the kernel reads the transpose of each row and overwrites the stack:
    # hand it the transpose of a Fortran copy, so it reads h's lower triangle
    [row] = zip(*_eigensolve(np.array(h, dtype=float, order="F").T[None], n_levels))
    return _spectrum(*row)


def phase_matrix(params: FluxoniumParams, spectrum: EnergySpectrum) -> np.ndarray:
    """<i|phi|j> on the retained eigenstates of ``spectrum``, a circuit of ``params``.

    The basis size is that of the spectrum's vectors. The diagonal is
    referenced to the inductive minimum; the off-diagonal elements do not
    depend on that reference.
    """
    vecs = spectrum._vectors
    # phi_op = phi_zpf (a + a^dagger) with a|k> = sqrt(k)|k-1>: V^T a V needs
    # no n x n operator, and adding its transpose makes the result symmetric
    lowered = vecs[:-1].T @ (np.sqrt(np.arange(1.0, len(vecs)))[:, None] * vecs[1:])
    return params.phi_zpf * (lowered + lowered.T)


def _solve(params: FluxoniumParams, fluxes, n_levels: int, terms: dict) -> list[tuple]:
    """``_eigensolve`` row of ``params`` at each of ``fluxes`` on its smallest
    converged rung; ``_spectrum`` turns a row into its spectrum or its error.

    Rows climb the RUNGS below ``params.basis_size`` that hold ``n_levels`` at
    a third of their size, then ``basis_size``, as one stack per rung. A row
    stops at the first rung whose tail weight is at most TAIL_CONVERGED, or
    where it is found not finite; one whose solve failed climbs on, and the
    top rung answers only to TAIL_LIMIT.
    ``terms`` maps each rung to its flux-free terms and is filled as rungs are
    first climbed. An ``n_levels`` out of range raises before any row exists.
    """
    top = params.basis_size
    rungs = [n for n in RUNGS if n < top and n_levels <= n // BASIS_PER_LEVEL]
    fluxes = np.asarray(fluxes, dtype=float)
    rows = [None] * len(fluxes)
    climbing = list(range(len(fluxes)))
    for n in rungs + [top]:
        if n not in terms:
            terms[n] = _flux_free_terms(params.replace(basis_size=n))
        solved = _eigensolve(_assemble(terms[n], params.e_j, fluxes[climbing]), n_levels)
        still = []
        for idx, row in zip(climbing, zip(*solved)):
            info = row[3]
            if n < top and (info > 0 or info == 0 and row[2].max() > TAIL_CONVERGED):
                still.append(idx)
            else:
                rows[idx] = row
        climbing = still
        if not climbing:
            break
    return rows


def phase_matrix_element(
    params: FluxoniumParams, i: int, j: int, n_levels: int = DEFAULT_N_LEVELS
) -> float:
    """|<i|phi|j>| between eigenstates, i != j.

    Magnitudes are translation-independent for i != j, so the value refers to
    the phase operator of the untranslated Hamiltonian as well.
    """
    if i == j:
        raise ValueError("phase_matrix_element is defined for i != j")
    n_levels = max(n_levels, i + 1, j + 1)
    if min(i, j) < 0 or n_levels > params.basis_size // BASIS_PER_LEVEL:
        raise ValueError(f"level index out of range for basis_size={params.basis_size}")
    spectrum = _spectrum(*_solve(params, [params.phi_ext], n_levels, {})[0])
    # one triangle is read, so (i, j) and (j, i) agree exactly
    return float(abs(phase_matrix(params, spectrum)[min(i, j), max(i, j)]))


def eigenbasis_phase_matrix(
    params: FluxoniumParams, n_levels: int = DEFAULT_N_LEVELS
) -> tuple[np.ndarray, np.ndarray]:
    """(levels, phase-operator matrix) in the truncated eigenbasis.

    The matrix includes diagonal elements referenced to the inductive minimum;
    drive physics uses it as the coupling operator, where diagonal offsets
    only shift the energy reference.
    """
    spectrum = _spectrum(*_solve(params, [params.phi_ext], n_levels, {})[0])
    return spectrum.levels.copy(), phase_matrix(params, spectrum)


def spectrum_sweep(
    params: FluxoniumParams, flux_grid, n_levels: int = DEFAULT_N_LEVELS
) -> list[tuple[float, EnergySpectrum]]:
    """Eigensystem at each flux in ``flux_grid``; rows are independent.

    Each row is the single-point solve at its flux. The flux-free terms of
    each rung are computed once for the whole grid, and each rung solves the
    rows still climbing as one stack. A non-finite flux raises ValueError
    before any solve. A row refused on the top rung, or whose Hamiltonian is
    not finite, raises with its index and flux; when several are, the first
    in grid order is named.
    """
    flux_grid = list(flux_grid)
    if not flux_grid:
        raise ValueError("flux_grid must be non-empty")
    for idx, flux in enumerate(flux_grid):
        if not np.isfinite(flux):
            raise ValueError(f"sweep row {idx}: flux must be finite, got {flux}")
    sweep = []
    for idx, (flux, row) in enumerate(zip(flux_grid, _solve(params, flux_grid, n_levels, {}))):
        try:
            sweep.append((float(flux), _spectrum(*row)))
        except (NumericalError, ValueError) as exc:
            raise type(exc)(f"sweep row {idx} (flux={flux}): {exc}") from exc
    return sweep


@dataclass(frozen=True)
class ResetFlux:
    """Solution of f01(flux) = f_target closest to the half-flux point, and
    its excursion from there."""

    flux_phi0: float
    excursion_phi0: float


def _f01(params: FluxoniumParams, terms: dict, flux: float) -> float:
    return float(_spectrum(*_solve(params, [flux], 2, terms)[0]).levels[1])


def find_reset_flux(
    params: FluxoniumParams, f_target: float, scan_points: int = 160
) -> ResetFlux:
    """Flux phi* in (0, 0.5) nearest 0.5 where f01(phi*) equals ``f_target``.

    Walks a dense grid from 0.5 downward and stops at the first grid step
    that brackets the target, the crossing closest to the sweet spot, then
    refines it with a bracketing root-finder; the scan and every root-finder
    evaluation are single-point solves that share each rung's flux-free
    terms; the root-finder reads its bracket ends off the scan, so no flux
    is solved twice. The whole grid is evaluated only when no step brackets
    the target: then NoSolutionError names the attainable band, f01(0.5) up
    to the grid's largest f01. A non-finite ``f_target``, or a ``scan_points``
    that is not an integer >= 2, raises ValueError before any eigensolve.
    """
    if not np.isfinite(f_target):
        raise ValueError(f"f_target must be finite, got {f_target}")
    if not _is_integer(scan_points) or scan_points < 2:
        raise ValueError(f"scan_points must be an integer >= 2, got {scan_points!r}")
    terms = {}
    grid = np.linspace(0.5, 1e-3, scan_points)
    lo = _f01(params, terms, grid[0])
    if f_target == lo:
        return ResetFlux(0.5, 0.0)
    f01s = [lo]
    for k in range(len(grid) - 1):
        f01s.append(_f01(params, terms, grid[k + 1]))
        # below the sweet-spot minimum no bracket counts
        if lo <= f_target and (f01s[k] - f_target) * (f01s[k + 1] - f_target) <= 0:
            # brentq opens on both bracket ends, which the scan has just solved
            scanned = {grid[k]: f01s[k], grid[k + 1]: f01s[k + 1]}
            # brentq(..., xtol=1e-10)'s kernel call; its checks pass here and f01 is never NaN
            root = _scipy_extension("optimize", "_zeros")._brentq(
                lambda x: (scanned[x] if x in scanned else _f01(params, terms, x)) - f_target,
                grid[k + 1], grid[k], 1e-10, 4 * np.finfo(float).eps, 100, (), False, True,
            )
            return ResetFlux(float(root), 0.5 - float(root))
    raise NoSolutionError(
        f"f_target={f_target} GHz outside attainable band "
        f"[{lo:.4f}, {max(f01s):.4f}] GHz on flux in (0, 0.5]"
    )
