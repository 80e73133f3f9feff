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
    the dtype of every state a Trotter ramp evolves from it.  The exact
    ramp, the curvature sum and the lattice rows read only the levels
    and the ground sector.
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
    column of each sector.
    """

    level_m: np.ndarray
    level_x: np.ndarray
    vectors: np.ndarray
    starts: np.ndarray


@functools.lru_cache(maxsize=None)
def _sector_data(n_spins: int) -> _Sectors:
    level_m, level_x, vectors, starts = sector_eigh(_interaction_blocks(n_spins))
    _read_only(level_m, level_x, vectors, starts)
    return _Sectors(level_m, level_x, vectors, starts)


def _sectors(spec: ChainSpec) -> _Sectors:
    """Sector data of the chain size; the dimension cap is checked first."""
    _check_cap(spec)
    return _sector_data(spec.n_spins)


def _pole_levels(spec: ChainSpec, magnitude: float):
    """Sector data, the pole levels -|h| M - J lambda of its columns, and
    their stable ascending order."""
    if not (math.isfinite(magnitude) and magnitude > 0.0):
        raise OutOfRange(f"field magnitude must be positive and finite: {magnitude}")
    sectors = _sectors(spec)
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
    U^dagger dH/dphi U = -|h| sin(theta) S_y.  A gapped ground state g
    is the top of its spin-S multiplet, S = M_g / 2, so by Wigner-Eckart
    S_x and S_y reach only S- g, which lies 2|h| above g in M_g - 2.
    There the S_y element is -i times the S_x element, so the one term's
    numerator is -|<S- g|S_x|g>|^2 = -M_g.
    """
    sectors, levels, order = _pole_levels(spec, p.magnitude)
    ground, excited = order[:2]
    gap = _require_gap(float(levels[excited] - levels[ground]), p)
    m_g = float(sectors.level_m[ground])
    scale = -2.0 * p.magnitude**2 * math.sin(p.theta)
    f = scale * -m_g / (2.0 * p.magnitude) ** 2
    return CurvatureSample(point=p, f_phitheta=f, gap=gap)


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


def _multiplet_rows(m_g: int, thetas: np.ndarray):
    """Weights of R_y(theta)|S, S> on the M_z labels of its spin-S
    multiplet, S = m_g / 2, one row per angle, and those labels: the
    binomial C(m_g, k) cos^{2(m_g - k)}(theta/2) sin^{2k}(theta/2) on
    M = m_g - 2k."""
    k = np.arange(m_g + 1)
    binomial = np.array([math.comb(m_g, i) for i in k], dtype=float)
    cos2, sin2 = np.cos(0.5 * thetas) ** 2, np.sin(0.5 * thetas) ** 2
    weights = binomial * cos2[:, None] ** (m_g - k) * sin2[:, None] ** k
    return weights, m_g - 2 * k


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

    A gapped g is the top |S, S> of its spin-S multiplet, S = M_g / 2,
    so the rows live in that multiplet: their weights per M_z label are
    binomial (``_multiplet_rows``) and the down links are
    cos(dtheta / 2)^M_g.  No state of the chain is rotated.

    On these rotated states the winding of each column telescopes to the
    change of the right-link phase between the poles, where r has M_z =
    M_g and -M_g, so the sum reads the pole ground sector M_g.  What the
    route adds is the admissibility margin: it raises ``OutOfRange``
    when a link overlap falls below ``LATTICE_MIN_OVERLAP`` or a
    plaquette phase exceeds ``LATTICE_MAX_PHASE``, where a coarse grid
    can return a wrong integer.
    """
    n_theta, n_phi = _check_grid(grid)
    m_g = int(_pole_system(spec).sectors[0])
    thetas = np.linspace(0.0, math.pi, n_theta + 1)
    dphi = np.diff(np.linspace(0.0, 2.0 * math.pi, n_phi + 1))
    weights, m = _multiplet_rows(m_g, thetas)
    down = np.cos(0.5 * np.diff(thetas)) ** m_g
    right = weights @ np.exp(-0.5j * np.outer(m, dphi))
    angles = np.angle(right[1:] * right[:-1].conj())
    overlap = min(down.min(), np.abs(right).min())
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
