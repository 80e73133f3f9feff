"""Static ground-state topology oracles.

Berry curvature from the sum-over-states formula, Chern numbers from
sphere quadrature and from a gauge-invariant lattice plaquette method,
and level-crossing location in the coupling strength.

Every query rests on one closed-form pole spectrum.  At the north pole
the field term is -|h| M_z and the interaction X commutes with M_z, so
the levels are -|h| M - J lambda with lambda running over the
eigenvalues of each M_z block X_M.  The blocks are diagonalised once per
chain size; their kept eigenvectors depend on neither J nor |h|.  Any other
field point follows by rotation covariance, H(theta, phi) = U H(pole)
U^dagger with U = R_z(phi) R_y(theta), so the spectrum is the same on
the whole sphere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateGroundState, OutOfRange, SpinChernError
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

# The plaquette sum over 2 pi may sit this far from its integer.  Over
# 25575 admissible grids (M_g = 0-40, 1-79 cells an axis) it sat at most
# 1.1e-14 away; a grid of one phi cell, where every row link is the same
# phase, wound 0 for every M_g >= 1.
LATTICE_INTEGER_ATOL = 1e-9

# Sector-line slopes closer than this, relative to the largest |lambda|,
# count as equal: sectors M and -M have the same blocks up to a spin
# flip, so their lines are parallel up to roundoff and must not meet.
_SLOPE_RTOL = 1e-12

# The crossing nearest 0 may sit this far from J_sat(N).  At N = 2-14 it
# sat at most 5.6e-17 away, on one BLAS thread and on two.
_SATURATION_ATOL = 1e-10

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
    """Ascending pole levels and the M_z sector of each.

    Only ``pole_system``'s callers read this object, and in the package
    that is the ``spectrum`` command.  The ramps, the curvature sum, the
    lattice rows and the crossing check read the ground sector and the
    gap through ``_lowest_levels``, from each sector's extreme
    eigenvalues, and build no level array; the Trotter start takes its
    state from block M_g's ground column.
    """

    values: np.ndarray
    sectors: np.ndarray

    @property
    def ground_gap(self) -> float:
        return float(self.values[1] - self.values[0])


@dataclass(frozen=True)
class _Sectors:
    """The interaction diagonalised block by block in M_z.

    ``blocks`` holds, per sector in ascending M (the site table's
    ``sectors`` order), its M, basis indices and ascending eigenvalues
    from ``sector_eigh`` and its lowest and highest eigenvector columns
    as one (d, 2) array: 4 2^n numbers, where every column took C(2n,
    n).  ``extremes`` holds, per sector, (M, its two lowest eigenvalues
    ascending, its two highest descending) as Python floats, one of
    each for a one-state sector.  A sector's two lowest pole levels -|h|
    M - J lambda sit at one end of its spectrum, so the ground sector,
    the gap and the sector lines read this table, in O(N), and a gapped
    ground state is a kept column: a block's end levels are simple
    (Perron-Frobenius; Lieb and Mattis, J. Math. Phys. 3, 749 (1962)).
    """

    blocks: tuple
    extremes: tuple


@functools.lru_cache(maxsize=None)
def _sector_data(n_spins: int) -> _Sectors:
    blocks = []
    for m, idx, values, vectors in sector_eigh(_interaction_blocks(n_spins)):
        blocks.append((m, idx, values, vectors[:, [0, -1]]))
        del vectors  # before the next block is solved
    extremes = tuple(
        (float(m), tuple(map(float, values[:2])), tuple(map(float, values[::-1][:2])))
        for m, _, values, _ in blocks
    )
    _read_only(*(a for b in blocks for a in b[2:]))
    return _Sectors(tuple(blocks), extremes)


def _sectors(spec: ChainSpec) -> _Sectors:
    """Sector data of the chain size; the dimension cap is checked first."""
    _check_cap(spec)
    return _sector_data(spec.n_spins)


def _check_magnitude(magnitude: float) -> None:
    if not (math.isfinite(magnitude) and magnitude > 0.0):
        raise OutOfRange(f"field magnitude must be positive and finite: {magnitude}")


def pole_system(spec: ChainSpec, magnitude: float = 1.0) -> PoleSystem:
    """Every level of the chain Hamiltonian with the field at the north
    pole, -|h| M - J lambda from the block eigenvalues, stably sorted; no
    eigensolve once the size's sector blocks are cached.

    The spectrum is the same at every field point of the same magnitude.
    """
    _check_magnitude(magnitude)
    blocks = _sectors(spec).blocks
    level_m = np.repeat([float(m) for m, *_ in blocks], [b[1].size for b in blocks])
    level_x = np.concatenate([values for _, _, values, _ in blocks])
    levels = -magnitude * level_m - spec.coupling_j * level_x
    order = np.argsort(levels, kind="stable")
    return PoleSystem(values=levels[order], sectors=level_m[order])


def _lowest_levels(spec: ChainSpec, magnitude: float) -> tuple[float, float, float]:
    """M_g, the lowest pole level and the second-lowest, in O(N).

    A sector's levels -|h| M - J lambda fall as lambda rises for J > 0
    and rise with it otherwise, so its lowest two take the two largest
    lambda or the two smallest.  The second-lowest level of the chain is
    the lesser of the ground sector's next level and every other
    sector's lowest.  Each level has ``pole_system``'s arithmetic, and a
    tie keeps the lower sector, as its stable sort does, so both give
    the same bits.
    """
    _check_magnitude(magnitude)
    extremes = _sectors(spec).extremes
    field, j = -magnitude, spec.coupling_j
    end = 2 if j > 0.0 else 1
    m_g = None
    ground = second = math.inf
    for row in extremes:
        m, lams = row[0], row[end]
        low = field * m - j * lams[0]
        if low < ground:
            # the old ground lies at or below every other level seen
            second = ground
            if len(lams) > 1:
                above = field * m - j * lams[1]
                if above < second:
                    second = above
            m_g, ground = m, low
        elif low < second:
            second = low
    return m_g, ground, second


def _require_gap(gap: float, p: FieldPoint) -> float:
    if gap < DEGENERACY_RTOL * p.magnitude:
        raise DegenerateGroundState(
            f"ground state degenerate (gap={gap:.3e}) at "
            f"theta={p.theta:.6g}, phi={p.phi:.6g}"
        )
    return gap


def _pole_ground(spec: ChainSpec, p: FieldPoint = _POLE) -> tuple[float, float]:
    """M_g and the gap of the gapped ground level at field magnitude
    |p|, from each sector's extreme levels (``_lowest_levels``): no
    state is gathered and no level array is built.  The exact ramp, the
    curvature sum and the plaquette grid read only these.
    """
    m_g, ground, second = _lowest_levels(spec, p.magnitude)
    return m_g, _require_gap(float(second - ground), p)


def ground_gap(spec: ChainSpec, p: FieldPoint) -> float:
    """Energy difference between the two lowest levels, read from each
    sector's extreme levels: no state is gathered."""
    _, ground, second = _lowest_levels(spec, p.magnitude)
    return float(second - ground)


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
    m_g, gap = _pole_ground(spec, p)
    scale = -2.0 * p.magnitude**2 * math.sin(p.theta)
    f = scale * -m_g / (2.0 * p.magnitude) ** 2
    return CurvatureSample(p, f, gap)


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

    The grid counts and the chain's pole ground (the size cap, the gap
    and M_g) are checked on every call; the winding itself is summed
    once per (M_g, grid) by ``_lattice_winding``.
    """
    n_theta, n_phi = _check_grid(grid)
    m_g = int(_pole_ground(spec)[0])
    return _lattice_winding(m_g, n_theta, n_phi)


# An entry is one int, but the grid counts are the caller's choice, so
# the cache drops its oldest entries.  A sweep at one grid reads at most
# N + 1 keys (the bench's staircase pass reads 7), so 64 holds every
# ground sector of N <= 10 on five grids.


@functools.lru_cache(maxsize=64)
def _lattice_winding(m_g: int, n_theta: int, n_phi: int) -> int:
    """The plaquette winding of ``chern_lattice`` for ground sector m_g
    on an n_theta x n_phi grid.

    A grid that fails the admissibility margin raises ``OutOfRange``,
    and one on which the lattice breaks its own claims raises
    ``SpinChernError``, so no entry is stored and each later call raises
    again.  The claims: the plaquette sum over 2 pi lies within
    ``LATTICE_INTEGER_ATOL`` = 1e-9 of the integer it rounds to, and
    that integer is M_g, where the columns telescope.
    """
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
    winding = float(angles.sum()) / (2.0 * math.pi)
    chern = round(winding)
    residual = abs(winding - chern)
    if residual > LATTICE_INTEGER_ATOL or chern != m_g:
        raise SpinChernError(
            f"{n_theta}x{n_phi} plaquette winding {winding!r} at M_g = {m_g}: "
            f"residual {residual:.3g} from {chern} (needs <= "
            f"{LATTICE_INTEGER_ATOL:g} and an integer equal to M_g)"
        )
    return chern


def _check_saturation(n_spins: int, root: float) -> None:
    """``SpinChernError`` unless ``root`` is J_sat(N) (F3) to
    ``_SATURATION_ATOL``."""
    j_sat = -1.0 / (2.0 * (1.0 + math.cos(math.pi / n_spins)))
    residual = abs(root - j_sat)
    if residual > _SATURATION_ATOL:
        raise SpinChernError(
            f"crossing nearest 0 at N = {n_spins} is {root!r}, but J_sat(N) = "
            f"{j_sat!r}: residual {residual:.3g} (needs <= {_SATURATION_ATOL:g})"
        )


def find_crossings(spec: ChainSpec, j_interval: tuple[float, float]) -> list[float]:
    """Coupling values in ``j_interval`` where the two lowest levels cross.

    At the pole the lowest level of each M_z sector is non-degenerate
    for J != 0 (Perron-Frobenius), so the two lowest levels cross
    exactly where the ground sector changes.  At unit field and J >= 0
    the ground level is -N - J (N - 1) in M = N, below every other
    level -M - J lambda with lambda <= N - 1, so only J < 0 can hold a
    crossing.  There the lowest level of sector M is the line E_M(J) =
    -M - J lambda_M, with lambda_M the smallest eigenvalue of X_M.  The
    ground energy is the lower envelope of these lines, a concave
    function of -J, so its slope only falls going outward and each
    sector holds at most one interval.  From the unique ground sector
    M = N at J = 0 the walk steps outward to the nearest intersection
    with a steeper line, until it passes the lower end of the interval;
    no energy is evaluated at either end.  Each sector's M and
    lambda_M come from the sector data's ``extremes`` table, so no level
    array is read.  A root is kept only if the pole gap closes there.

    The walk's first root, the one nearest 0, is where the saturated
    level -N - J (N - 1) meets the lowest one-magnon level, J_sat(N) =
    -1 / (2 (1 + cos(pi / N))).  Whenever the walk reaches it, it is
    checked against that closed form and raises ``SpinChernError`` if
    they differ by more than ``_SATURATION_ATOL`` = 1e-10; the returned
    roots are the walk's own.
    """
    lo, hi = j_interval
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise OutOfRange(f"j_interval must be finite, got {j_interval}")
    if not lo < hi:
        raise OutOfRange(f"j_interval must satisfy lo < hi, got {j_interval}")
    extremes = _sectors(spec).extremes
    m = np.array([row[0] for row in extremes])
    # dE_M/dt along J = -t, t >= 0
    slopes = np.array([row[1][0] for row in extremes])
    tol = _SLOPE_RTOL * np.abs(slopes).max()
    roots = []
    ground = m.size - 1  # M = N
    while True:
        steeper = np.flatnonzero(slopes < slopes[ground] - tol)
        if not steeper.size:
            break
        ts = (m[ground] - m[steeper]) / (slopes[ground] - slopes[steeper])
        nearest = np.argmin(ts)
        if ts[nearest] > -lo:
            break
        roots.append(float(-ts[nearest]))
        if len(roots) == 1:
            _check_saturation(spec.n_spins, roots[0])
        ground = steeper[nearest]
    return [
        j
        for j in sorted(roots)
        if lo <= j <= hi
        and ground_gap(replace(spec, coupling_j=j), _POLE) < _CROSSING_GAP_TOL
    ]
