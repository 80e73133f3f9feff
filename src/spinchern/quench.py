"""Dynamical curvature measurement by quasiadiabatic polar quench.

The polar angle is ramped from the north pole to the equator with a
linearly growing angular velocity; the transverse magnetization picked
up en route is first order in the ramp rate with the Berry curvature as
the proportionality constant.  The ramp kernel here steps every ramp,
exact (one free spin) or Trotter (``pulsesim``'s split step core).
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    DegenerateGroundState,
    OutOfRange,
    StepCountTooSmall,
    VelocityOutOfLinearZone,
)
from .model import ChainSpec, _each_spin, _is_count, _read_only, _site_table
from .spectral import _pole_ground, _sector_data

# Largest ramp rate at which the readout m_phi / v stays within 5% of the
# static curvature.  On a plateau both are M_g times one free spin's (see
# the reduced ramp below, and F = M_g sin(theta) / 2), so their ratio is
# the one-spin ratio at every N and J, and the cap is a statement about
# one spin.  It was mapped at 300 steps and field magnitude 1 on a 0.0025
# grid from v = 0.05.  The deviation stays below 4.5% up to here and first
# passes 5% at v ~ 0.2999.  Beyond, the ratio rings with an amplitude that
# grows with v (the ramp's acceleration v^2/pi switches on abruptly at
# t = 0), so an isolated node at a faster rate (0.02% at v = 1.53, against
# 13.6% at v = 1.0) does not extend the zone.
LINEAR_ZONE_CAP = 0.29

# Magnetization drift beyond this on step doubling flags non-convergence.
CONVERGENCE_TOL = 1e-3


@dataclass(frozen=True)
class QuenchProtocol:
    """Polar ramp theta(t) = v^2 t^2 / (2 pi) ending at the equator."""

    v_theta: float
    steps: int = 300

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v_theta) and self.v_theta > 0.0):
            raise OutOfRange(f"v_theta must be positive and finite, got {self.v_theta}")
        # theta(t) = v^2 t^2 / (2 pi) squares the rate and times up to
        # pi / v, which overflow or vanish outside about 2.4e-154 to 1.3e154
        rate, total = self.v_theta * self.v_theta, self.total_time * self.total_time
        if not (0.0 < rate < math.inf and 0.0 < total < math.inf):
            raise OutOfRange(
                f"v_theta={self.v_theta} is outside the rates whose square and "
                f"squared ramp time pi / v_theta are finite and nonzero"
            )
        if not (_is_count(self.steps) and self.steps >= 1):
            raise OutOfRange(f"steps must be a whole number >= 1, got {self.steps!r}")

    @property
    def total_time(self) -> float:
        return math.pi / self.v_theta

    @property
    def step_time(self) -> float:
        return self.total_time / self.steps

    @property
    def final_angle(self) -> float:
        """theta(T), with the arithmetic of ``theta_of_t`` but no window check."""
        return self.v_theta**2 * self.total_time**2 / (2.0 * math.pi)


@dataclass(frozen=True)
class QuenchResult:
    """The curvature read off one ramp.

    ``gap`` is the pole gap of the chain at unit field, which rotation
    covariance keeps the same all along the ramp.
    """

    m_phi: float
    f_extracted: float
    v_theta: float
    adiabatic_overlap: float
    gap: float


def theta_of_t(protocol: QuenchProtocol, t):
    """Ramp profile; quadratic in t so the rate grows linearly from zero.

    ``t`` is a time or an array of times.
    """
    if not np.isfinite(t).all():
        raise OutOfRange(f"t={t} is not finite")
    total = protocol.total_time
    early, late = np.min(t), np.max(t)
    if early < 0.0 or late > total * (1.0 + 1e-12):
        bad = early if early < 0.0 else late
        raise OutOfRange(f"t={bad:.6g} outside ramp window [0, {total:.6g}]")
    return protocol.v_theta**2 * t**2 / (2.0 * math.pi)


def _midpoint_angles(protocol: QuenchProtocol) -> np.ndarray:
    """theta at the midpoint (k + 1/2) dt of each step k, which every
    single ramp's plan (``_step_phases``) and every stack reads."""
    midpoints = (np.arange(protocol.steps) + 0.5) * protocol.step_time
    return theta_of_t(protocol, midpoints)


# --- ramp kernel -------------------------------------------------------------
#
# The isotropic chain is rotation-covariant on the phi = 0 meridian:
# H(theta) = R(theta) H(0) R(theta)^T with R(theta) = exp(-i theta S_y / 2)
# the real collective y-rotation.  A ramp step at angle a is therefore
# R(a) C R(a)^T with a fixed core C: the split step core of
# ``pulsesim._trotter_core``, which breaks SU(2), or one free spin's
# exact step at the pole (see the reduced ramp below).
#
# The ramp runs in the frame W = w (x) ... (x) w whose columns are the
# sigma_y eigenvectors, eigenvalue +1 first.  There W^dagger S_y W is the
# diagonal of the site table's M_z labels m, so every rotation is
# the diagonal phase W^dagger R(a) W = exp(-i a m / 2).

_Y_FRAME = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / math.sqrt(2.0)

# Largest mirror-sector dimension at which a ramp multiplies its step
# matrices together instead of applying them to the state one by one;
# the choice depends on nothing else, so a ramp has the same bits alone
# or in a stack.  Medians of two runs of 1000 shuffled rounds of single
# 300-step ramps, product against loop, with the phases read from their
# table and so off the clock, on a 2-vCPU x86-64 VM with OpenBLAS 0.3.31
# on one thread: 0.15 vs 0.58-0.65 ms at d = 3, 0.20-0.22 vs 0.60-0.68
# ms at d = 6, 0.35-0.38 vs 0.62-0.70 ms at d = 10 and 0.44-0.47 vs
# 0.61-0.69 ms at d = 12, but 1.54-1.70 vs 0.66-0.76 ms at d = 20, where
# the d^3 products cost more than the calls they save.  The sectors of
# N <= 10 have no dimension between 12, N = 5's odd one, and 20.
_PRODUCT_MAX_DIM = 12

# Consecutive steps multiplied into one group before the pairwise rounds.
# In the same rounds, groups of 4 / 8 / 16 steps: 0.39 / 0.41 / 0.48 ms
# at d = 3, 0.39 / 0.38 / 0.44 ms at d = 6, 0.78 / 0.62 / 0.60 ms at
# d = 10.
_GROUP_STEPS = 8

# The kernel's one memory budget, in bytes built at once per chunk of
# steps: on the product path the groups' (d, d, groups) products and
# the core's product with them that replaces them, 32 d^2 / L per step
# (1820 steps at d = 12, 65536 at d = 2), and a
# stack's phases on the step loop, 16 d T per step of T ramps (546 steps
# of 6 ramps at d = 20).  Other phases are built whole.
_PRODUCT_BYTES = 2**20

# --- mirror sectors ----------------------------------------------------------
#
# Mirror reflection of the open chain, site i <-> N-1-i, reverses the n
# bits of a basis index.  The uniform chain's Hamiltonian commutes with
# it, and so does the y frame, which has one factor per site; the split
# step core, the M_z labels and so every step's phase are mirror
# symmetric.  The gapped pole ground state is nondegenerate and has a
# definite parity sigma = +-1, and a ramp never leaves that sector.
#
# A y-frame state of parity sigma is held by its entries x on the
# representatives r = {b <= rev(b)}, palindromes dropped when sigma = -1;
# the full y-frame state is y[r] = x, y[rev r] = sigma x.  The sector's
# frame takes a z-frame state to x and back in one product each:
# x = enter psi with enter = W[:, r]^dagger, and psi = right x with
# right = W[:, r] + w W[:, rev r], w = sigma or 0 on palindromes, whose
# partner is the column itself.  On x the core acts as enter C right.
#
# A ramp enters, runs and is read out in the sector.  The rotations and
# S_y are diagonal in the y frame with labels m, and m[rev b] = m[b], so
# a sum over the full y-frame state is a sum over x weighted by each
# representative's count of basis states, 1 on a palindrome and 2 on a
# mirror pair.

# The ground state's parity is checked at run time to this norm.
_PARITY_TOL = 1e-12


@dataclass(frozen=True)
class _MirrorSector:
    """The frame of the sector of one parity, read-only: ``enter`` =
    W[:, r]^dagger (contiguous) and ``right`` = W[:, r] + w W[:, rev r];
    the representatives' ``count``, 1 on a palindrome and 2 elsewhere,
    and ``weights`` = count m, m their M_z labels, which weigh |x|^2 in
    the readout; and what ``_rotation_phases`` reads of the labels,
    their distinct magnitudes ``spins`` ascending and the index
    ``lookup`` of each label among +spins, then -spins."""

    enter: np.ndarray
    right: np.ndarray
    count: np.ndarray
    weights: np.ndarray
    spins: np.ndarray
    lookup: np.ndarray


@functools.lru_cache(maxsize=None)
def _mirror_sector(n_spins: int, parity: float) -> _MirrorSector:
    """The frame of the sector of ``parity`` (see ``_MirrorSector``)."""
    sites = _site_table(n_spins)
    mirror = sites.mirror
    index = np.arange(mirror.size)
    reps = np.flatnonzero(index <= mirror if parity > 0 else index < mirror)
    palindromes = mirror[reps] == reps
    weights = np.where(palindromes, 0.0, parity)
    left = _each_spin(_Y_FRAME, np.eye(mirror.size, dtype=complex)[:, reps])
    # W commutes with the reflection, so W[:, rev r] = W[rev, r]
    right = left + weights * left[mirror]
    enter = np.ascontiguousarray(left.conj().T)
    m = sites.m[reps]
    count = np.where(palindromes, 1.0, 2.0)
    spins, lookup = np.unique(np.abs(m), return_inverse=True)
    lookup = np.where(m < 0.0, lookup + spins.size, lookup)
    sector = _MirrorSector(enter, right, count, count * m, spins, lookup)
    _read_only(*(getattr(sector, f.name) for f in fields(sector)))
    return sector


@functools.lru_cache(maxsize=None)
def _pole_start(n_spins: int, block: int, top: bool) -> tuple[float, np.ndarray]:
    """The mirror parity sigma and sector state x = enter g, read-only,
    of the ground column g of the M_z block ``block``: its largest
    interaction eigenvalue if ``top`` and its smallest otherwise.  The
    reflection maps the block onto itself, so g[rev b] = sigma g[b] is
    checked on the block, to ``_PARITY_TOL``.

    Both depend on the size, the block and the sign of J alone, so the
    cache is bounded by its key space: at most 2 (N + 1) entries per
    size, each one float and d complex numbers.
    """
    _, idx, _, ends = _sector_data(n_spins).blocks[block]
    column = ends[:, 1 if top else 0]
    sites = _site_table(n_spins)
    mirrored = column[sites.rank[sites.mirror[idx]]]
    parity = 1.0 if np.vdot(column, mirrored) >= 0.0 else -1.0
    defect = float(np.linalg.norm(mirrored - parity * column))
    if not defect <= _PARITY_TOL:
        raise DegenerateGroundState(
            f"pole ground state has no definite mirror parity "
            f"(defect {defect:.3e}), so it is degenerate"
        )
    start = _mirror_sector(n_spins, parity).enter[:, idx].dot(column)
    _read_only(start)
    return parity, start


def _trotter_start(spec: ChainSpec) -> tuple[float, float, np.ndarray]:
    """The unit-field pole gap, and the mirror parity and sector state
    of the gapped pole ground state g, which starts every Trotter ramp
    (``_pole_start``).  The cap and the gap are checked first.

    M_g and the gap come from each sector's extreme levels
    (``_pole_ground``); g is block M_g's ground column, its largest
    interaction eigenvalue for J > 0 and its smallest otherwise, the
    level ``pole_system`` sorts first.
    """
    m_g, gap = _pole_ground(spec)
    # sector s holds M = 2s - n
    block = (int(m_g) + spec.n_spins) // 2
    return (gap, *_pole_start(spec.n_spins, block, spec.coupling_j > 0.0))


def _step_deltas(angles: np.ndarray) -> np.ndarray:
    """delta_k = a_k - a_{k+1} of the midpoint angles along axis 0, and
    a_last for the last step, whose rotation R(a_last)^T ends the ramp in
    the pole's frame."""
    deltas = angles.copy()
    deltas[:-1] -= angles[1:]
    return deltas


def _rotation_phases(angles, sector: _MirrorSector) -> np.ndarray:
    """exp(-i a m / 2), the y-frame phase of the rotation R(a), for each
    angle a of ``angles`` (any shape) over the labels m of ``sector``,
    shape angles.shape + (d,).  Every ramp, single or in a stack, builds
    its phases here, so a ramp has the same bits alone or in a stack.

    The d labels take at most N + 1 values, so the exponential is taken
    once per magnitude |m| and gathered; the phase of -|m| is the
    conjugate of that of |m|, with the same bits as its own exponential.
    """
    half = np.exp(-0.5j * np.multiply.outer(angles, sector.spins))
    return np.take(np.concatenate((half, half.conj()), axis=-1), sector.lookup, axis=-1)


@dataclass(frozen=True)
class _RampPlan:
    """Every phase of a single ramp that J does not change, read-only
    views of one table built by one ``_rotation_phases`` call: the
    ``entry`` row exp(i a_0 m / 2) into the first step's frame, one row
    per step k of ``steps``, exp(-i delta_k m / 2) (see
    ``_step_deltas``), and the ``readout`` row exp(-i theta_f m / 2) of
    R(theta_f), with m the sector's M_z labels.  ``rows`` holds the step
    rows as ready views for the step loop, and is empty on the product
    path, which reads ``steps`` whole."""

    entry: np.ndarray
    steps: np.ndarray
    rows: tuple
    readout: np.ndarray


@functools.lru_cache(maxsize=16)
def _step_phases(protocol: QuenchProtocol, n_spins: int, parity: float) -> _RampPlan:
    """The plan of a single ramp in the mirror sector of ``parity`` (see
    ``_RampPlan``).

    It depends only on the protocol and the sector, not on J, so every
    single ramp of a sweep shares one plan and looks it up once.  A stack
    of noisy trials builds its own phases, through the same
    ``_rotation_phases``, which gives each row the bits of its own call.

    A Trotter sweep uses one protocol per rate and at most 2 sectors of
    its one size; the exact ramps' one-spin run stores no plan.  The
    bench's pulse pass reads 8 plans (one protocol, N = 2-7, both
    sectors at N = 2 and 4).  The cache keeps 16, the pulse pass twice
    over or a sweep over 8 rates.  A plan's table is 16 d bytes per step,
    plus the entry and readout rows: at 300 steps 0.35 MB for N = 7's
    even sector (d = 72) and 2.5 MB at the N = 10 cap (d = 528), so a
    full cache holds at most 5.5 MB at N <= 7 and 41 MB at the cap.  On
    the step loop (d > ``_PRODUCT_MAX_DIM``) the tuple of row views adds
    120 bytes per step, 36 KB at 300 steps.  A table is built whole,
    outside the kernel's memory budget ``_PRODUCT_BYTES``: 553.7 MB at
    the cap and 65536 steps.
    """
    angles = _midpoint_angles(protocol)
    rows = np.concatenate(([-angles[0]], _step_deltas(angles), [protocol.final_angle]))
    sector = _mirror_sector(n_spins, parity)
    table = _rotation_phases(rows, sector)
    _read_only(table)
    steps = table[1:-1]
    loop = tuple(steps) if sector.count.size > _PRODUCT_MAX_DIM else ()
    return _RampPlan(table[0], steps, loop, table[-1])


def _step_product(core: np.ndarray, phases: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The state psi after the steps P_k core, k in order, with P_k the
    diagonal phase phases[k].

    The steps run in chunks of ``_PRODUCT_BYTES``.  Per chunk the
    earliest S mod L steps of its S are applied to psi one by one, L =
    ``_GROUP_STEPS``.  The rest fall into groups of L consecutive steps,
    all built at once from the right in a (d, d, groups) layout, with
    C = core: X = P_0 C, then X <- P_k (C X) up to the group's latest
    step, one zgemm of C by X seen as (d, d groups) and one in-place
    phase whose inner loop runs over the groups.  The group products,
    transposed once to (groups, d, d), are multiplied pairwise, later
    group on the left, one batched matmul per round, until one is left;
    a round with an odd count first applies its earliest product to psi.
    """
    d = core.shape[0]
    steps = _PRODUCT_BYTES * _GROUP_STEPS // (32 * d * d)
    for start in range(0, len(phases), steps):
        chunk = phases[start : start + steps]
        peel = len(chunk) % _GROUP_STEPS
        for phase in chunk[:peel]:
            psi = phase * core.dot(psi)
        if peel == len(chunk):
            continue
        # lanes[k, i, g] is phase i of step k of group g
        groups = chunk[peel:].reshape(-1, _GROUP_STEPS, d)
        lanes = np.ascontiguousarray(groups.transpose(1, 2, 0))[:, :, None, :]
        mats = lanes[0] * core[:, :, None]
        for lane in lanes[1:]:
            mats = core.dot(mats.reshape(d, -1)).reshape(mats.shape)
            mats *= lane
        mats = np.ascontiguousarray(mats.transpose(2, 0, 1))
        while len(mats) > 1:
            if len(mats) % 2:
                psi = mats[0].dot(psi)
                mats = mats[1:]
            mats = mats[1::2] @ mats[0::2]
        psi = mats[0].dot(psi)
    return psi


def _ramp_state(
    ground: np.ndarray,
    n_spins: int,
    parity: float,
    core: np.ndarray,
    protocol: QuenchProtocol,
    offsets: np.ndarray | None = None,
    plan: _RampPlan | None = None,
) -> np.ndarray:
    """Final sector state of the ramp that applies R(a_k) C R(a_k)^T at
    step k, for the z-frame step C at the pole of ``n_spins`` spins (the
    split step of ``pulsesim._trotter_core``, or one spin's field step),
    from the start's sector state ``ground`` in the mirror sector of
    ``parity`` (see ``_trotter_start``).  ``core`` is C in that sector,
    enter C right, shape (d, d).

    a_k is the midpoint angle of step k.  Consecutive rotations fuse,
    R(a_{k+1})^T R(a_k) = R(a_k - a_{k+1}), so in the y frame step k is
    the matrix P_k W^dagger C W, P_k a diagonal phase.

    The ramp runs in the y frame of the sector, about half the basis,
    and returns the state there, shape (d,): the z-frame state is
    ``right`` times it.  A single ramp reads its phases from ``plan``,
    by default the cached ``_step_phases`` plan of its protocol and
    sector.

    ``offsets`` of shape (steps, T) runs T ramps as one stack, ramp t at
    a_k + offsets[k, t], and returns their sector states with shape
    (T, d, 1).  Each ramp keeps its own arithmetic, so its state has the
    same bits in any stack.

    At these sizes a step costs call dispatch, not flops.  Up to a
    sector dimension of ``_PRODUCT_MAX_DIM`` a ramp therefore multiplies
    its step matrices together (``_step_product``), each ramp of a stack
    on its own, and applies the product by one mat-vec.  Above it every
    step is one mat-vec and one phase.  A single ramp takes its mat-vec
    through ``ndarray.dot``, one zgemv without the dispatch of the
    ``matmul`` ufunc.  A stack keeps the broadcast ``core @ psi``,
    which is one zgemv per ramp and so gives each ramp the bits of its
    single run; one (d, T) zgemm over the stack would not.  Both paths
    build per chunk of steps within ``_PRODUCT_BYTES``, the kernel's one
    memory budget: group products, or a stack's phases on the loop.
    """
    if offsets is None:
        if plan is None:
            plan = _step_phases(protocol, n_spins, parity)
        psi = plan.entry * ground
        if ground.size <= _PRODUCT_MAX_DIM:
            return _step_product(core, plan.steps, psi)
        for phase in plan.rows:
            psi = phase * core.dot(psi)
        return psi
    sector = _mirror_sector(n_spins, parity)
    angles = _midpoint_angles(protocol)[:, None] + offsets
    deltas = _step_deltas(angles)
    psi = _rotation_phases(-angles[0], sector)[..., None] * ground[:, None]
    if ground.size <= _PRODUCT_MAX_DIM:
        for ramp, ramp_deltas in zip(psi[..., 0], deltas.T):
            phases = _rotation_phases(ramp_deltas, sector)
            ramp[:] = _step_product(core, phases, ramp)
    else:
        chunk = max(1, _PRODUCT_BYTES // (16 * ground.size * offsets.shape[1]))
        for start in range(0, protocol.steps, chunk):
            phases = _rotation_phases(deltas[start : start + chunk], sector)
            for phase in phases[..., None]:
                psi = phase * (core @ psi)
    return psi


def _ramp_readout(
    start: np.ndarray,
    n_spins: int,
    parity: float,
    core: np.ndarray,
    protocol: QuenchProtocol,
    offsets: np.ndarray | None = None,
) -> tuple[float, float]:
    """m_phi = sin(theta_f) sum c m |x|^2 and the adiabatic overlap
    |sum c conj(R x_0) x|^2 of the single ramp of ``_ramp_state`` from
    x_0 = ``start``, with c the representatives' counts and R the y-frame
    phase of R(theta_f): the target is the rotated start, no eigensolve.
    A single ramp reads R from the plan it steps with, one lookup;
    ``offsets`` of shape (steps, 1) runs the ramp as a stack of one,
    which builds R itself."""
    sector = _mirror_sector(n_spins, parity)
    theta = protocol.final_angle
    if offsets is None:
        plan = _step_phases(protocol, n_spins, parity)
        rotation = plan.readout
    else:
        plan, rotation = None, _rotation_phases(theta, sector)
    psi = _ramp_state(start, n_spins, parity, core, protocol, offsets, plan)
    psi = psi.reshape(-1)
    m_phi = math.sin(theta) * float(np.dot(sector.weights, (psi.conj() * psi).real))
    overlap = float(abs(np.vdot(rotation * start, sector.count * psi)) ** 2)
    return m_phi, overlap


# --- reduced ramp ------------------------------------------------------------
#
# The exchange X commutes with the total spin, and the field term
# -n(theta) . S is linear in it, so an exact step factorises,
# exp(-i H(theta) dt) = exp(i J X dt) exp(i dt n(theta) . S), and both
# factors commute along the ramp.  The pole ground state g is an X
# eigenstate, so the ramp is U g = e^{i J lambda_g T} (u (x) ... (x) u) g
# with u the 2x2 ramp of one free spin.  A gapped g is also the top of
# its spin-S multiplet, S = M_g / 2: otherwise S+ g would be a lower
# level in M_g + 2.  So U g is a spin-S coherent state (Radcliffe,
# J. Phys. A 4, 313 (1971)), whose transverse magnetization is M_g times
# that of u|up> and whose overlap with the rotated g is the M_g-th power
# of that of u|up>.  An exact ramp reads one spin: the kernel's N = 1
# run with the core diag(e^{i tau m}), taken into its sector as
# (enter e^{i tau m}) right, whose rotated step
# R(a) e^{i tau sigma_z} R(a)^T = e^{i tau n(a) . sigma} is exact.


@functools.lru_cache(maxsize=64)
def _spin_readout(protocol: QuenchProtocol) -> tuple[float, float]:
    """The readout (m_phi, overlap) of one free spin's ramp from |up>.

    It depends only on the protocol, not on the chain or J, and building
    it is most of an exact ramp.  So it is cached per (v_theta, steps):
    every exact ramp with that protocol, at every N and J, reads the
    same two floats.  Real traffic needs few protocols, one per rate of
    a sweep or scan and check_convergence's doubled one, so the 64 most
    recently used hold a scan over dozens of rates, and none grows more.
    Its ramp runs as a stack of one, with the single run's bits, so no
    plan of its phases evicts a Trotter ramp's from ``_step_phases``.
    """
    sector = _mirror_sector(1, 1.0)
    field = np.exp(1j * protocol.step_time * _site_table(1).m)
    core = (sector.enter * field).dot(sector.right)
    zero = np.zeros((protocol.steps, 1))
    return _ramp_readout(sector.enter[:, 0], 1, 1.0, core, protocol, zero)


def _ramp_result(
    gap: float, protocol: QuenchProtocol, m_phi: float, overlap: float
) -> QuenchResult:
    v = protocol.v_theta
    return QuenchResult(m_phi, m_phi / v, v, overlap, gap)


def evolve_quench(
    spec: ChainSpec,
    protocol: QuenchProtocol,
    *,
    check_convergence: bool = False,
) -> QuenchResult:
    """Integrate the ramp with midpoint-sampled piecewise-constant steps.

    The steps are exact, so the ramp reduces to the ramp of one free spin
    (see above), the ramp kernel's N = 1 run; no state of the chain is
    formed.  With ``check_convergence`` the step count is doubled once
    and the run rejected if the transverse magnetization moves by more
    than ``CONVERGENCE_TOL``.
    """
    m_g, gap = _pole_ground(spec)
    m_one, overlap_one = _spin_readout(protocol)
    if check_convergence:
        fine = replace(protocol, steps=2 * protocol.steps)
        drift = m_g * abs(_spin_readout(fine)[0] - m_one)
        if drift > CONVERGENCE_TOL:
            raise StepCountTooSmall(
                f"m_phi drifts by {drift:.3e} on step doubling; "
                f"increase steps beyond {protocol.steps}"
            )
    return _ramp_result(gap, protocol, m_g * m_one, overlap_one**m_g)


def extract_curvature(results) -> float:
    """Curvature from one or more ramps.

    A single result gives the plain ratio m_phi / v; several results are
    combined by a least-squares fit of m_phi = F v through the origin.
    Rates beyond the mapped linear zone only generate a warning, since
    the estimate stays well defined.
    """
    results = list(results)
    if not results:
        raise OutOfRange("no quench results supplied")
    for r in results:
        if r.v_theta > LINEAR_ZONE_CAP:
            warnings.warn(
                f"ramp rate exceeds the linear response zone cap {LINEAR_ZONE_CAP}",
                VelocityOutOfLinearZone,
            )
            break
    if len(results) == 1:
        return results[0].m_phi / results[0].v_theta
    v = np.array([r.v_theta for r in results])
    m = np.array([r.m_phi for r in results])
    return float(np.dot(v, m) / np.dot(v, v))


def linear_zone_scan(
    spec: ChainSpec,
    velocities,
    steps: int = QuenchProtocol.steps,
) -> list[tuple[float, float]]:
    """Table of (rate, m_phi/rate) for mapping the linear response zone;
    every rate and the step count are checked before the first ramp."""
    velocities = list(velocities)
    if not velocities:
        raise OutOfRange("velocities must not be empty")
    for k, v in enumerate(velocities):
        real = isinstance(v, numbers.Real) and not isinstance(v, bool)
        if not (real and math.isfinite(v) and v > 0.0):
            raise OutOfRange(f"velocities[{k}] is not a positive finite number: {v!r}")
    if sorted(velocities) != velocities:
        raise OutOfRange(f"velocities must be ascending, got {velocities}")
    protocols = [QuenchProtocol(v_theta=v, steps=steps) for v in velocities]
    return [(p.v_theta, evolve_quench(spec, p).m_phi / p.v_theta) for p in protocols]
