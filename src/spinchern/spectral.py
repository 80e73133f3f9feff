"""Static ground-state topology oracles.

Berry curvature from the sum-over-states formula, Chern numbers from
sphere quadrature and from a gauge-invariant lattice plaquette method,
and level-crossing location in the coupling strength.

Every query rests on one closed-form pole spectrum.  At the north pole
the field term is -|h| M_z and the interaction X commutes with M_z, so
the levels are -|h| M - J lambda with lambda running over the
eigenvalues of each M_z block X_M.  The blocks are diagonalised once per
chain size; their eigenvectors depend on neither J nor |h|.  Any other
field point follows by rotation covariance, H(theta, phi) = U H(pole)
U^dagger with U = R_z(phi) R_y(theta), so the spectrum is the same on
the whole sphere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateGroundState, OutOfRange
from .model import (
    ChainSpec,
    FieldPoint,
    _check_cap,
    _check_grid,
    _interaction_blocks,
    _pole_diagonals,
    _read_only,
)
from .qcore import sector_eigh

# Gap below this fraction of |h| counts as a ground-state degeneracy.
DEGENERACY_RTOL = 1e-9

# Admissibility of a plaquette grid (Fukui, Hatsugai and Suzuki, J. Phys.
# Soc. Jpn. 74, 1674 (2005)): the lattice sum is an exact integer when no
# plaquette phase wraps past pi.  A map over square grids of 2-24 cells
# at N = 4, 6 and 10 found every wrong integer with a link overlap below
# 0.2 or a plaquette phase above pi/2; grids from 10x10 up kept overlaps
# of at least 0.60 and phases of at most 1.01.
LATTICE_MIN_OVERLAP = 0.5
LATTICE_MAX_PHASE = 0.5 * math.pi

# Sector-line slopes closer than this, relative to the largest |lambda|,
# count as equal: every block's largest lambda is N - 1 up to roundoff,
# and those parallel lines must not meet.
_SLOPE_RTOL = 1e-12

# A crossing is kept only where the pole gap closes below this.
_CROSSING_GAP_TOL = 1e-8

# The unit-field north pole, where ramps and plaquette grids start and
# crossings are checked; built once, since a field point checks its angles.
_POLE = FieldPoint(theta=0.0)


@dataclass(frozen=True)
class CurvatureSample:
    """Berry curvature component F_phitheta at one field point."""

    point: FieldPoint
    f_phitheta: float
    gap: float


@dataclass(frozen=True)
class PoleSystem:
    """Ascending pole levels, the M_z sector of each, and the ground state.

    The ground state is a real sector vector held as a complex array,
    the dtype of every state a ramp evolves from it.
    """

    values: np.ndarray
    sectors: np.ndarray
    ground_state: np.ndarray

    @property
    def ground_gap(self) -> float:
        return float(self.values[1] - self.values[0])


@dataclass(frozen=True)
class _Sectors:
    """The interaction diagonalised block by block in M_z.

    Columns of ``vectors`` are the real block eigenvectors, sector after
    sector in ascending M; ``level_m`` and ``level_x`` hold each
    column's M and interaction eigenvalue, and ``starts`` the first
    column of each sector.  ``basis_m`` is the M_z of each basis state.
    """

    basis_m: np.ndarray
    level_m: np.ndarray
    level_x: np.ndarray
    vectors: np.ndarray
    starts: np.ndarray


@functools.lru_cache(maxsize=None)
def _sector_data(n_spins: int) -> _Sectors:
    level_m, level_x, vectors, starts = sector_eigh(_interaction_blocks(n_spins))
    _read_only(level_m, level_x, vectors, starts)
    return _Sectors(_pole_diagonals(n_spins)[0], level_m, level_x, vectors, starts)


@dataclass(frozen=True)
class _Response:
    """Signed squared S_x elements between neighbouring M_z sectors.

    S_x takes sector M only to M - 2 and M + 2, and on M -> M +- 2 the
    S_y block is -+i times the S_x block, so for a sector vector i,
    Im(<i|S_y|n><n|S_x|i>) = +-|<n|S_x|i>|^2, with + toward M + 2.  For
    sector s, ``columns[s]`` holds the sector-vector columns of both
    neighbours and ``table[s][r, k]`` that signed square for the
    sector's r-th vector and neighbour column ``columns[s][k]``.
    """

    columns: tuple
    table: tuple


@functools.lru_cache(maxsize=None)
def _sector_response(n_spins: int) -> _Response:
    """The sector table of every chain of ``n_spins``, for every J and |h|.

    The S_x block from sector M + 2 down to M is V_M^T F V_{M+2},
    with F the 0/1 flips of one up spin: sigma_x of site k takes basis
    state b to b ^ (1 << (n-1-k)), and the set bit is sigma_z = -1.  No
    2^n x 2^n array is built.
    """
    sectors = _sector_data(n_spins)
    bounds = [*sectors.starts, sectors.basis_m.size]
    cols = [np.arange(a, b) for a, b in zip(bounds, bounds[1:])]
    idx = [np.flatnonzero(sectors.basis_m == m) for m in sectors.level_m[bounds[:-1]]]
    vecs = [sectors.vectors[i, c] for i, c in zip(idx, map(slice, bounds, bounds[1:]))]
    rank = np.empty(sectors.basis_m.size, dtype=int)  # position within the sector
    for i in idx:
        rank[i] = np.arange(i.size)
    # down[s][r, k] = |<k|S_x|r>|^2 from vector r of sector s + 1 to k of s
    down = []
    for s in range(n_spins):
        flips = np.zeros((idx[s].size, idx[s + 1].size))
        for k in range(n_spins):
            bit = 1 << (n_spins - 1 - k)
            up = idx[s + 1][(idx[s + 1] & bit) == 0]
            flips[rank[up ^ bit], rank[up]] = 1.0
        down.append((vecs[s + 1].T @ flips.T @ vecs[s]) ** 2)
    columns, table = [], []
    for s in range(n_spins + 1):
        near = [(cols[s - 1], -down[s - 1])] if s > 0 else []
        if s < n_spins:
            near.append((cols[s + 1], down[s].T))
        columns.append(np.concatenate([c for c, _ in near]))
        table.append(np.concatenate([t for _, t in near], axis=1))
    _read_only(*columns, *table)
    return _Response(tuple(columns), tuple(table))


def _sectors(spec: ChainSpec) -> _Sectors:
    """Sector data of the chain size; the dimension cap is checked first."""
    _check_cap(spec)
    return _sector_data(spec.n_spins)


def _pole_levels(spec: ChainSpec, magnitude: float):
    """Sector data, the pole levels -|h| M - J lambda of its columns, and
    their stable ascending order."""
    sectors = _sectors(spec)
    if not (math.isfinite(magnitude) and magnitude > 0.0):
        raise OutOfRange(f"field magnitude must be positive and finite: {magnitude}")
    levels = -magnitude * sectors.level_m - spec.coupling_j * sectors.level_x
    return sectors, levels, np.argsort(levels, kind="stable")


def pole_system(spec: ChainSpec, magnitude: float = 1.0) -> PoleSystem:
    """Levels and ground state of the chain Hamiltonian with the field at
    the north pole; no eigensolve once the size's sector blocks are cached.

    The spectrum is the same at every field point of the same magnitude.
    """
    sectors, levels, order = _pole_levels(spec, magnitude)
    return PoleSystem(
        values=levels[order],
        sectors=sectors.level_m[order],
        ground_state=sectors.vectors[:, order[0]].astype(complex),
    )


def _each_spin(single: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply ``single`` to every spin of a state, or of each column of a
    matrix, as one 2x2 contraction per spin, O(n 2^n) per column.

    Each contraction acts on the leading spin and moves it to the back,
    so after n of them every spin is transformed and the spins are back
    in order, behind the column index.  A contraction is computed as
    x^T single^T, whose result is laid out for the next reshape, so no
    contraction copies the array first.  ``ndarray.dot`` skips the
    dispatch of the ``matmul`` ufunc, about a quarter of a contraction's
    time at these sizes, with the same bits.
    """
    out = x
    for _ in range(x.shape[0].bit_length() - 1):
        out = out.reshape(2, -1).T.dot(single.T)
    return out.reshape(x.shape[::-1]).T


def _rotate_y(psi: np.ndarray, angle: float) -> np.ndarray:
    """Apply R_y(angle) = exp(-i angle S_y / 2) to a state."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return _each_spin(np.array([[c, -s], [s, c]], dtype=complex), psi)


def _rotate_rows(psi: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rows R_y(angle) psi for every angle, as one batched 2x2 contraction
    per spin over the whole stack of angles.

    As in ``_each_spin``, each contraction acts on the leading spin of
    every row and moves it to the back, computed as x^T single^T.
    """
    c, s = np.cos(0.5 * angles), np.sin(0.5 * angles)
    singles_t = np.array([[c, s], [-s, c]]).transpose(2, 0, 1)
    out = np.broadcast_to(psi, (angles.size, psi.size))
    for _ in range(psi.size.bit_length() - 1):
        out = out.reshape(angles.size, 2, -1).transpose(0, 2, 1) @ singles_t
    return out.reshape(angles.size, psi.size)


def _require_gap(gap: float, p: FieldPoint) -> float:
    if gap < DEGENERACY_RTOL * p.magnitude:
        raise DegenerateGroundState(
            f"ground state degenerate (gap={gap:.3e}) at "
            f"theta={p.theta:.6g}, phi={p.phi:.6g}"
        )
    return gap


def _pole_system(spec: ChainSpec) -> PoleSystem:
    """Unit-field pole system with a gapped ground state, which starts
    every ramp and the plaquette grid.  ``pole_system`` enforces the
    dimension cap before any work.
    """
    system = pole_system(spec)
    _require_gap(system.ground_gap, _POLE)
    return system


def ground_gap(spec: ChainSpec, p: FieldPoint) -> float:
    """Energy difference between the two lowest levels."""
    return pole_system(spec, p.magnitude).ground_gap


def curvature_spectral(spec: ChainSpec, p: FieldPoint) -> CurvatureSample:
    """Ground-state Berry curvature F_phitheta by sum over states.

    F = i sum_{n>0} [<0|dH/dphi|n><n|dH/dtheta|0> - (theta <-> phi)]
        / (e_n - e_0)^2,

    oriented so a single free spin gives +1/2 at the equator.  The sum
    is taken in the pole frame, where U^dagger dH/dtheta U = -|h| S_x and
    U^dagger dH/dphi U = -|h| sin(theta) S_y.  There S_x and S_y reach
    only the sectors M_g +- 2 of the ground state, so the states n are
    the cached sector eigenvectors of those two sectors, and each term's
    numerator is read from the size's ``_sector_response`` table.
    """
    sectors, levels, order = _pole_levels(spec, p.magnitude)
    ground, excited = order[:2]
    gap = _require_gap(float(levels[excited] - levels[ground]), p)
    response = _sector_response(spec.n_spins)
    s = int(sectors.level_m[ground] + spec.n_spins) // 2
    near = response.columns[s]
    signed = response.table[s][ground - sectors.starts[s]]
    scale = -2.0 * p.magnitude**2 * math.sin(p.theta)
    f = scale * np.dot(signed, (levels[near] - levels[ground]) ** -2.0)
    return CurvatureSample(point=p, f_phitheta=float(f), gap=gap)


def chern_integral(spec: ChainSpec, grid: tuple[int, int] = (64, 16)) -> float:
    """First Chern number as the curvature integral over the field sphere.

    Quadrature is Gauss-Legendre in theta against a uniform periodic
    rule in phi; both converge spectrally for the smooth integrand, so
    modest grids reach quadrature-exact results.
    """
    n_theta, n_phi = _check_grid(grid)
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    thetas = 0.5 * math.pi * (nodes + 1.0)
    weights = 0.5 * math.pi * weights
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    total = 0.0
    for theta, w in zip(thetas, weights):
        row = sum(
            curvature_spectral(spec, FieldPoint(theta=theta, phi=phi)).f_phitheta
            for phi in phis
        )
        total += w * row * (2.0 * math.pi / n_phi)
    return total / (2.0 * math.pi)


def chern_lattice(spec: ChainSpec, grid: tuple[int, int] = (24, 24)) -> int:
    """First Chern number from plaquette link phases on a closed grid.

    The Berry connection is discretized into overlap link variables; the
    summed plaquette phase winding is an exact integer for any grid fine
    enough that no plaquette phase wraps past pi (Fukui, Hatsugai and
    Suzuki, J. Phys. Soc. Jpn. 74, 1674 (2005)).  The grid state at
    (theta, phi) is the rotated pole ground state R_z(phi) r(theta), with
    r(theta) = R_y(theta) g, and R_z(phi) is the diagonal phase
    exp(-i phi m / 2) in the M_z labels m.  So a link down a meridian,
    <r_i|r_{i+1}>, is the same at every phi and enters its plaquette
    once plain and once conjugated: as |down|^2, which leaves the phase
    alone.  A link along a row reads only that row's weights |r_i(b)|^2,
    right = sum_b |r_i(b)|^2 exp(-i dphi m_b / 2).

    On these rotated states the winding of each column telescopes to the
    change of the right-link phase between the poles, where r has M_z =
    M_g and -M_g, so the sum reads the pole ground sector M_g.  What the
    route adds is the admissibility margin: it raises ``OutOfRange``
    when a link overlap falls below ``LATTICE_MIN_OVERLAP`` or a
    plaquette phase exceeds ``LATTICE_MAX_PHASE``, where a coarse grid
    can return a wrong integer.
    """
    n_theta, n_phi = _check_grid(grid)
    pole = _pole_system(spec)
    thetas = np.linspace(0.0, math.pi, n_theta + 1)
    dphi = np.diff(np.linspace(0.0, 2.0 * math.pi, n_phi + 1))
    rows = _rotate_rows(pole.ground_state, thetas)
    # <r_i|r_{i+1}> per row pair, and right[i, k] from row i's weights
    down = np.einsum("ib,ib->i", rows[:-1].conj(), rows[1:])
    hops = np.exp(-0.5j * np.outer(_sectors(spec).basis_m, dphi))
    right = np.abs(rows) ** 2 @ hops
    angles = np.angle(right[1:] * right[:-1].conj())
    overlap = min(np.abs(down).min(), np.abs(right).min())
    phase = np.abs(angles).max()
    if overlap < LATTICE_MIN_OVERLAP or phase > LATTICE_MAX_PHASE:
        raise OutOfRange(
            f"{n_theta}x{n_phi} plaquette grid too coarse: smallest link overlap "
            f"{overlap:.3g} (needs >= {LATTICE_MIN_OVERLAP}), largest plaquette "
            f"phase {phase:.3g} (needs <= {LATTICE_MAX_PHASE:.3g})"
        )
    return int(round(angles.sum() / (2.0 * math.pi)))


def find_crossings(spec: ChainSpec, j_interval: tuple[float, float]) -> list[float]:
    """Coupling values in ``j_interval`` where the two lowest levels cross.

    At the pole the lowest level of each M_z sector is non-degenerate
    for J != 0 (Perron-Frobenius), so the two lowest levels cross
    exactly where the ground sector changes.  At unit field the lowest
    level of sector M is the line E_M(J) = -M - J lambda_M on either
    side of J = 0, with lambda_M the smallest eigenvalue of X_M for
    J < 0 and the largest for J > 0.  The ground energy is the lower
    envelope of these lines, a concave function of |J| on each side, so
    its slope only falls going outward and each sector holds at most one
    interval on each side.  From the unique ground sector M = N at J = 0
    the walk steps outward to the nearest intersection with a steeper
    line, until it passes the end of the interval; no energy is
    evaluated at either end.  A root is kept only if the pole gap closes
    there.
    """
    lo, hi = j_interval
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise OutOfRange(f"j_interval must be finite, got {j_interval}")
    if not lo < hi:
        raise ValueError("j_interval must satisfy lo < hi")
    sectors = _sectors(spec)
    m = sectors.level_m[sectors.starts]
    roots = []
    for side, reduce, end in ((-1.0, np.minimum, lo), (1.0, np.maximum, hi)):
        lam = reduce.reduceat(sectors.level_x, sectors.starts)
        slopes = -side * lam  # dE_M/dt along J = side * t, t >= 0
        tol = _SLOPE_RTOL * np.abs(lam).max()
        ground = m.size - 1  # M = N
        while True:
            steeper = np.flatnonzero(slopes < slopes[ground] - tol)
            if not steeper.size:
                break
            ts = (m[ground] - m[steeper]) / (slopes[ground] - slopes[steeper])
            nearest = np.argmin(ts)
            if ts[nearest] > side * end:
                break
            roots.append(float(side * ts[nearest]))
            ground = steeper[nearest]
    return [
        j
        for j in sorted(roots)
        if lo <= j <= hi
        and ground_gap(replace(spec, coupling_j=j), _POLE) < _CROSSING_GAP_TOL
    ]
