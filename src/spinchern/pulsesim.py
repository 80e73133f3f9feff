"""NMR realization layer: Trotter steps, pulse loops, zz refocusing.

The ramp protocol is decomposed into symmetric Trotter steps built from
collective rotations, diagonal field+zz segments and an xx+yy exchange
segment.  The diagonal segments map onto free NMR evolution with
deliberately off-resonant frames; the zz part of that evolution is
manufactured from a molecule's native coupling table by a refocusing
compiler that places pi pulses between delay segments.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCouplings,
    DegenerateGroundState,
    OutOfRange,
    UnphysicalDurations,
)
from .model import (
    _AXES,
    ChainSpec,
    FieldPoint,
    MoleculeSpec,
    _check_cap,
    _each_spin,
    _interaction_blocks,
    _is_count,
    _is_real,
    _is_real_list,
    _json_field,
    _json_file,
    _read_only,
    _rotate_spin,
    _rotate_y,
    _site_table,
)
from .qcore import PAULI, propagator, sector_eigh
from .quench import (
    QuenchProtocol,
    QuenchResult,
    _midpoint_angles,
    _ramp_result,
    _readout,
)
from .spectral import PoleSystem, _pole_system

# Adjacent couplings closer than this (relative) cannot be told apart
# by the closed-form segment timings.
_COUPLING_RTOL = 1e-12


def _diagonal_part(spec: ChainSpec, magnitude: float) -> np.ndarray:
    """Field and zz part of the pole Hamiltonian, which is diagonal."""
    sites = _site_table(spec.n_spins)
    return -magnitude * sites.m - spec.coupling_j * sites.zz


@functools.lru_cache(maxsize=None)
def _exchange_system(n_spins: int):
    """Levels and real eigenvector columns of the unit xx+yy exchange,
    which conserves M_z, solved by M_z blocks once per chain size: each
    block is the interaction's without its zz diagonal."""
    blocks = _interaction_blocks(n_spins)
    no_zz = ((m, idx, b - np.diag(np.diag(b))) for m, idx, b in blocks)
    _, values, vectors, _ = sector_eigh(no_zz)
    _read_only(values, vectors)
    return values, vectors


def _trotter_core(spec: ChainSpec, magnitude: float, tau: float) -> np.ndarray:
    """e^{-i(H_z+H_zz)tau/2} e^{-i(H_xx+H_yy)tau} e^{-i(H_z+H_zz)tau/2} at the pole.

    H_xx+H_yy is -J times the unit exchange, so its propagator over tau
    is the unit exchange's over -J tau.
    """
    _check_cap(spec)
    half = np.exp(-0.5j * _diagonal_part(spec, magnitude) * tau)
    exchange = propagator(*_exchange_system(spec.n_spins), -spec.coupling_j * tau)
    return (half[:, None] * exchange) * half[None, :]


def trotter_step(spec: ChainSpec, p: FieldPoint, tau: float) -> np.ndarray:
    """One symmetric split step for the chain Hamiltonian at phi = 0.

    R_y(theta) e^{-i(H_z+H_zz)tau/2} e^{-i(H_xx+H_yy)tau}
    e^{-i(H_z+H_zz)tau/2} R_y(-theta); local error is third order in
    tau.  The rotation carries the field direction, so only the phi=0
    meridian is reachable.
    """
    if p.phi != 0.0:
        raise ValueError("trotter_step is defined on the phi=0 meridian")
    if not (math.isfinite(tau) and tau > 0.0):
        raise OutOfRange(f"tau must be positive and finite, got {tau}")
    # R core R^T = (R (R core)^T)^T, R real
    rotated = _rotate_y(_trotter_core(spec, p.magnitude, tau), p.theta)
    return _rotate_y(rotated.T, p.theta).T


# --- Trotter ramp kernel -----------------------------------------------------
#
# The isotropic chain is rotation-covariant on the phi = 0 meridian:
# H(theta) = R(theta) H(0) R(theta)^T with R(theta) = exp(-i theta S_y / 2)
# the real collective y-rotation.  A Trotter step at angle a is therefore
# R(a) C R(a)^T with the fixed split step core C of ``_trotter_core``.
# The split step breaks SU(2), so unlike the exact ramp of ``quench`` it
# does not reduce to one spin.
#
# The ramp runs in the frame W = w (x) ... (x) w whose columns are the
# sigma_y eigenvectors, eigenvalue +1 first.  There W^dagger S_y W is the
# diagonal of the site table's M_z labels m, so every rotation is
# the diagonal phase W^dagger R(a) W = exp(-i a m / 2).

_Y_FRAME = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / math.sqrt(2.0)

# The step loop bounds the diagonal phases built at once to this many rows
# of the state dimension: this many steps of one ramp, fewer of a stack.
_PHASE_CHUNK = 64

# Largest mirror-sector dimension at which a ramp multiplies its step
# matrices together instead of applying them to the state one by one;
# the choice depends on nothing else, so a ramp has the same bits alone
# or in a stack.  Medians of 1000 shuffled rounds of single 300-step
# ramps, product against loop, on a 2-vCPU x86-64 VM with OpenBLAS
# 0.3.31 on one thread: 0.41 vs 0.96 ms at d = 3, 0.38 vs 0.89 ms at
# d = 6 and 0.62 vs 0.92 ms at d = 10, but 1.88 vs 1.08 ms at d = 20,
# where the d^3 products cost more than the calls they save.  The
# sectors of N <= 7 have no dimension between 10 and 20 but N = 5's odd
# one, 12.
_PRODUCT_MAX_DIM = 12

# Consecutive steps multiplied into one group before the pairwise rounds.
# In the same rounds, groups of 4 / 8 / 16 steps: 0.39 / 0.41 / 0.48 ms
# at d = 3, 0.39 / 0.38 / 0.44 ms at d = 6, 0.78 / 0.62 / 0.60 ms at
# d = 10.
_GROUP_STEPS = 8

# Steps whose matrices are built at once on the product path, whatever
# the stack: per step 16 d bytes of phases and 32 d^2 / L of group
# products with their scaled copy, 0.4 MB at d = 12; the default 300
# steps are one chunk.
_PRODUCT_CHUNK = 512

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
# x = left^dagger psi with left = W[:, r], and psi = right x with
# right = left + w W[:, rev r], w = sigma or 0 on palindromes, whose
# partner is the column itself.  On x the core acts as left^dagger C right.

# The ground state's parity is checked at run time to this norm.
_PARITY_TOL = 1e-12


@functools.lru_cache(maxsize=None)
def _mirror_sector(n_spins: int, parity: float):
    """The frame of the sector of ``parity``, read-only: left = W[:, r],
    right = left + w W[:, rev r] and the M_z labels m[r] of the
    representatives r."""
    sites = _site_table(n_spins)
    mirror = sites.mirror
    index = np.arange(mirror.size)
    reps = np.flatnonzero(index <= mirror if parity > 0 else index < mirror)
    weights = np.where(mirror[reps] == reps, 0.0, parity)
    left = _each_spin(_Y_FRAME, np.eye(mirror.size, dtype=complex)[:, reps])
    # W commutes with the reflection, so W[:, rev r] = W[rev, r]
    right = left + weights * left[mirror]
    m = sites.m[reps]
    _read_only(left, right, m)
    return left, right, m


def _mirror_parity(state: np.ndarray, n_spins: int) -> float:
    """sigma of a state with state[rev b] = sigma state[b] for every b."""
    mirrored = state[_site_table(n_spins).mirror]
    parity = 1.0 if np.vdot(state, mirrored).real >= 0.0 else -1.0
    defect = float(np.linalg.norm(mirrored - parity * state))
    if not defect <= _PARITY_TOL:
        raise DegenerateGroundState(
            f"pole ground state has no definite mirror parity "
            f"(defect {defect:.3e}), so it is degenerate"
        )
    return parity


def _step_product(
    core: np.ndarray, m: np.ndarray, deltas: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """The state psi after the steps P_k core, k in order, with P_k the
    diagonal phase exp(-i deltas[k] m / 2).

    Per chunk the earliest S mod L steps of its S are applied to psi one
    by one, L = ``_GROUP_STEPS``.  The rest fall into groups of L
    consecutive steps, all built at once from the left: G = P_last C,
    then G <- (G P_k) C down to the group's earliest step, one stacked
    (groups d, d) product with C = core per step.  The group products
    are multiplied pairwise, later group on the left, one batched matmul
    per round, until one is left; a round with an odd count first
    applies its earliest product to psi.
    """
    d = m.size
    for start in range(0, deltas.size, _PRODUCT_CHUNK):
        phases = np.exp(
            -0.5j * np.multiply.outer(deltas[start : start + _PRODUCT_CHUNK], m)
        )
        peel = len(phases) % _GROUP_STEPS
        for phase in phases[:peel]:
            psi = phase * core.dot(psi)
        if peel == len(phases):
            continue
        groups = phases[peel:].reshape(-1, _GROUP_STEPS, d)
        mats = groups[:, -1, :, None] * core
        for k in range(_GROUP_STEPS - 2, -1, -1):
            scaled = mats * groups[:, k, None, :]
            mats = scaled.reshape(-1, d).dot(core).reshape(-1, d, d)
        while len(mats) > 1:
            if len(mats) % 2:
                psi = mats[0].dot(psi)
                mats = mats[1:]
            mats = mats[1::2] @ mats[0::2]
        psi = mats[0].dot(psi)
    return psi


def _ramp_state(
    pole: PoleSystem,
    core: np.ndarray,
    protocol: QuenchProtocol,
    offsets: np.ndarray | None = None,
) -> np.ndarray:
    """Final state of the ramp that applies R(a_k) core R(a_k)^T at step
    k, given the split step ``core`` of ``_trotter_core``.

    a_k is the midpoint angle of step k.  Consecutive rotations fuse,
    R(a_{k+1})^T R(a_k) = R(a_k - a_{k+1}), so in the y frame step k is
    the matrix P_k W^dagger core W, P_k a diagonal phase.

    ``offsets`` of shape (steps, T) runs T ramps as one stack, ramp t at
    a_k + offsets[k, t], and returns their states with shape (T, 2^n, 1).
    Each ramp keeps its own arithmetic, so its state has the same bits
    in any stack.

    The ramp runs in the y frame of the pole ground state's mirror
    sector, about half the basis, entered and left through the sector's
    cached frame.  A ground state without a definite parity is
    degenerate and raises ``DegenerateGroundState``.

    At these sizes a step costs call dispatch, not flops.  Up to a
    sector dimension of ``_PRODUCT_MAX_DIM`` a ramp therefore multiplies
    its step matrices together (``_step_product``), each ramp of a stack
    on its own, and applies the product by one mat-vec.  Above it every
    step is one mat-vec and one phase.  A single ramp takes its mat-vec
    through ``ndarray.dot``, one zgemv without the dispatch of the
    ``matmul`` ufunc.  A stack keeps the broadcast ``core @ psi``,
    which is one zgemv per ramp and so gives each ramp the bits of its
    single run; one (d, T) zgemm over the stack would not.
    """
    angles = _midpoint_angles(protocol)
    n_spins = pole.ground_state.size.bit_length() - 1
    parity = _mirror_parity(pole.ground_state, n_spins)
    left, right, m = _mirror_sector(n_spins, parity)
    enter = left.conj().T
    core = enter.dot(core).dot(right)
    ground = enter.dot(pole.ground_state)
    if offsets is not None:
        angles = angles[:, None] + offsets
        m, ground = m[:, None], ground[:, None]
    psi = np.exp(0.5j * np.multiply.outer(angles[0], m)) * ground
    deltas = angles.copy()
    deltas[:-1] -= angles[1:]
    if m.size <= _PRODUCT_MAX_DIM:
        if offsets is None:
            psi = _step_product(core, m, deltas, psi)
        else:
            for ramp, ramp_deltas in zip(psi[..., 0], deltas.T):
                ramp[:] = _step_product(core, m[:, 0], ramp_deltas, ramp)
    else:
        chunk = max(1, _PHASE_CHUNK * protocol.steps // angles.size)
        for start in range(0, protocol.steps, chunk):
            phases = np.exp(
                -0.5j * np.multiply.outer(deltas[start : start + chunk], m)
            )
            if offsets is None:
                for phase in phases:
                    psi = phase * core.dot(psi)
            else:
                for phase in phases:
                    psi = phase * (core @ psi)
    return right.dot(psi) if offsets is None else right @ psi


def simulate_protocol_trotter(
    spec: ChainSpec, protocol: QuenchProtocol
) -> QuenchResult:
    """Trotterized counterpart of the exact ramp: the same pole system and
    readout, with rotations around the split step core."""
    pole = _pole_system(spec)
    core = _trotter_core(spec, 1.0, protocol.step_time)
    psi = _ramp_state(pole, core, protocol)
    return _ramp_result(pole, protocol, *_readout(pole.ground_state, psi, protocol))


def perturbed_fidelity(
    spec: ChainSpec,
    protocol: QuenchProtocol,
    angle_error_deg: float,
    seed: int = 0,
    trials: int = 20,
) -> float:
    """Worst-case overlap with the ideal ramp under rotation-angle noise.

    Each trial draws one uniform offset in +/-angle_error_deg per step;
    the offset shifts that step's framing rotation pair coherently (the
    same miscalibrated angle enters the + and - rotation).  Trials use
    seeds seed+0 .. seed+trials-1, so the result is reproducible and
    individual trials can run anywhere.
    """
    if not (math.isfinite(angle_error_deg) and angle_error_deg >= 0.0):
        raise OutOfRange("angle_error_deg must be nonnegative and finite")
    if not (_is_count(trials) and trials >= 1):
        raise OutOfRange(f"trials must be a whole number >= 1, got {trials!r}")
    if not (_is_count(seed) and seed >= 0):
        raise OutOfRange(f"seed must be a whole number >= 0, got {seed!r}")
    pole = _pole_system(spec)
    core = _trotter_core(spec, 1.0, protocol.step_time)
    bound = math.radians(angle_error_deg)
    # Column 0 is the ideal ramp.
    offsets = np.zeros((protocol.steps, trials + 1))
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        offsets[:, trial + 1] = rng.uniform(-bound, bound, protocol.steps)
    ideal, *noisy = _ramp_state(pole, core, protocol, offsets)
    worst = 1.0
    for psi in noisy:
        worst = min(worst, abs(np.vdot(ideal, psi)) ** 2)
    return float(worst)


# --- zz refocusing compiler -------------------------------------------------


@dataclass(frozen=True)
class CompiledZZ:
    """Delay segments and pi-pulse placements realizing a uniform zz chain.

    ``segment_patterns[s]`` records each spin's accumulated flip parity
    during segment ``s`` (first spin pinned to +1; a global flip is
    unobservable in zz evolution).  ``pi_pulse_placements`` has one
    entry per segment boundary, including the outer edges, listing the
    spins flipped there.
    """

    segment_durations: tuple
    segment_patterns: tuple
    pi_pulse_placements: tuple
    target_j: float
    tau: float
    base_couplings: np.ndarray

    @property
    def wall_time(self) -> float:
        return float(sum(self.segment_durations))


@dataclass(frozen=True)
class Rotation:
    """Instantaneous simultaneous rotation e^{-i angle sigma_axis/2}."""

    spins: tuple
    axis: str
    angle: float


@dataclass(frozen=True)
class Delay:
    """Free evolution under couplings plus per-spin frame offsets (rad/s)."""

    duration: float
    frame_offsets: tuple


@dataclass(frozen=True)
class PulseProgram:
    """Ordered rotation/delay event list for one molecule."""

    n_spins: int
    events: tuple

    def __post_init__(self):
        for k, ev in enumerate(self.events):
            if isinstance(ev, Delay):
                if not (math.isfinite(ev.duration) and ev.duration >= 0.0):
                    raise OutOfRange(
                        f"event {k}: delay durations must be nonnegative and "
                        f"finite, got {ev.duration}"
                    )
                if len(ev.frame_offsets) != self.n_spins:
                    raise OutOfRange(
                        f"event {k}: frame offsets must list every spin, got "
                        f"{len(ev.frame_offsets)} for {self.n_spins} spins"
                    )
                if not all(math.isfinite(x) for x in ev.frame_offsets):
                    raise OutOfRange(
                        f"event {k}: frame offsets must be finite, "
                        f"got {ev.frame_offsets}"
                    )
            elif isinstance(ev, Rotation):
                if ev.axis not in _AXES:
                    raise OutOfRange(
                        f"event {k}: rotation axis must be x, y or z, got {ev.axis!r}"
                    )
                if not math.isfinite(ev.angle):
                    raise OutOfRange(f"event {k}: rotation angles must be finite")
                outside = [s for s in ev.spins if not 0 <= s < self.n_spins]
                if outside:
                    raise OutOfRange(
                        f"event {k}: rotation spin {outside[0]} is outside the "
                        f"{self.n_spins}-spin frame"
                    )
            else:
                raise TypeError(f"event {k}: unknown event type {type(ev).__name__}")


def _adjacent_couplings(m: MoleculeSpec) -> np.ndarray:
    return np.array(
        [m.couplings_hz[i, i + 1] for i in range(m.n_spins - 1)]
    )


def _check_compilable(m: MoleculeSpec) -> np.ndarray:
    """Check that the compiler accepts ``m`` and return the couplings that
    fix its segment timings: the inner adjacent pair J[n-3, n-2],
    J[n-2, n-1], which must differ, or the one coupling of two spins.
    The table must have 2 to 4 spins and no vanishing adjacent coupling."""
    if not 2 <= m.n_spins <= 4:
        raise OutOfRange("refocusing compiler supports 2 to 4 spins")
    adj = _adjacent_couplings(m)
    scale = float(np.max(np.abs(m.couplings_hz)))
    if scale == 0.0 or np.any(np.abs(adj) <= _COUPLING_RTOL * scale):
        raise DegenerateCouplings(
            f"adjacent couplings must be nonzero, got {adj.tolist()} Hz"
        )
    pair = adj[-2:]
    if pair.size == 2 and abs(pair[0] - pair[1]) <= _COUPLING_RTOL * scale:
        a = m.n_spins - 3
        raise DegenerateCouplings(
            f"couplings J[{a}{a + 1}]={pair[0]} Hz and "
            f"J[{a + 1}{a + 2}]={pair[1]} Hz coincide; segment timings degenerate"
        )
    return pair


def _sign_patterns(n_spins: int):
    """All flip-parity patterns with the first spin pinned to +1."""
    return [
        (1,) + rest for rest in itertools.product((1, -1), repeat=n_spins - 1)
    ]


def effective_uniform_coupling(m: MoleculeSpec) -> float:
    """Uniform chain coupling (Hz) the standard schedule realizes at
    unit wall-time overhead.

    Two spins use the native coupling directly; longer chains are fixed
    by the inner adjacent pair a, b through J_a J_b / (J_a - J_b).
    """
    pair = _check_compilable(m)
    if pair.size == 1:
        return float(pair[0])
    j_a, j_b = pair
    return float(j_a * j_b / (j_a - j_b))


def compile_zz(m: MoleculeSpec, target_j: float, tau: float) -> CompiledZZ:
    """Delay/pi-pulse schedule whose zz evolution over tau matches
    exp(-i (-target_j) sum_adjacent sigma_z sigma_z tau).

    Segment sign patterns toggle each coupling term by the product of
    the two spins' flip parities; the schedule solves for nonnegative
    segment durations that integrate adjacent couplings to the target
    and non-adjacent ones to zero, taking the minimum-wall-time vertex
    of that linear program.

    Vertex rule: the bases are the column subsets in lexicographic
    order, and a feasible vertex replaces the one kept so far only if
    its wall time is lower by more than 1e-15 tau, so of vertices tied
    within that margin the first is kept.  This is not a global argmin,
    and the pick matters: four-spin tables with fewer than three
    non-adjacent couplings often have several optimal vertices.

    All bases are stacked and solved in one batch; those with a zero
    determinant, the zero pivot on which a single solve raises, are
    dropped first.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise OutOfRange(f"tau must be positive and finite, got {tau}")
    if not math.isfinite(target_j):
        raise OutOfRange(f"target_j must be finite, got {target_j}")
    _check_compilable(m)

    n = m.n_spins
    rows = []  # (i, j, required integrated weight)
    for i in range(n):
        for j in range(i + 1, n):
            coupling = m.couplings_hz[i, j]
            if j == i + 1:
                rows.append((i, j, -2.0 * target_j * tau / (math.pi * coupling)))
            elif coupling != 0.0:
                rows.append((i, j, 0.0))

    patterns = _sign_patterns(n)
    columns = np.array(
        [[p[i] * p[j] for p in patterns] for i, j, _ in rows], dtype=float
    )
    required = np.array([r for _, _, r in rows])

    # blocks[s] = columns[:, subsets[s]]
    subsets = np.array(list(itertools.combinations(range(len(patterns)), len(rows))))
    blocks = np.ascontiguousarray(np.moveaxis(columns[:, subsets], 1, 0))
    nonsingular = np.linalg.det(blocks) != 0.0
    subsets, blocks = subsets[nonsingular], blocks[nonsingular]
    rhs = np.broadcast_to(required[:, None], (len(blocks), len(rows), 1))
    durations = np.linalg.solve(blocks, rhs)
    residual = np.abs(blocks @ durations - rhs).max(axis=(1, 2))
    durations = durations[..., 0]
    feasible = (residual <= 1e-9 * max(1.0, np.max(np.abs(required)))) & (
        durations.min(axis=1) >= -1e-12 * tau
    )
    walls = durations.sum(axis=1)
    best = None
    for k in np.flatnonzero(feasible):
        if best is None or walls[k] < walls[best] - 1e-15 * tau:
            best = k
    if best is None:
        raise UnphysicalDurations(
            f"no nonnegative segment durations realize weights {required.tolist()}"
        )

    subset, durations = subsets[best], np.clip(durations[best], 0.0, None)
    segments = [
        (patterns[idx], float(t))
        for idx, t in zip(subset, durations)
        if t > 1e-15 * tau
    ]
    # Deterministic order: fewest flipped spins first, then pattern bits.
    segments.sort(key=lambda seg: (seg[0].count(-1), [x < 0 for x in seg[0]]))

    identity = (1,) * n
    boundary_patterns = [identity] + [p for p, _ in segments] + [identity]
    placements = tuple(
        frozenset(
            k
            for k in range(n)
            if boundary_patterns[b][k] != boundary_patterns[b + 1][k]
        )
        for b in range(len(boundary_patterns) - 1)
    )
    return CompiledZZ(
        segment_durations=tuple(t for _, t in segments),
        segment_patterns=tuple(p for p, _ in segments),
        pi_pulse_placements=placements,
        target_j=float(target_j),
        tau=float(tau),
        base_couplings=np.array(m.couplings_hz, dtype=float),
    )


def toggled_zz_coefficients(c: CompiledZZ) -> np.ndarray:
    """Effective zz coefficient of each pair, averaged over the target
    window: -target_j on adjacent pairs, 0 elsewhere, for a valid
    compilation."""
    n = len(c.segment_patterns[0]) if c.segment_patterns else 0
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            integrated = sum(
                t * p[i] * p[j]
                for p, t in zip(c.segment_patterns, c.segment_durations)
            )
            out[i, j] = out[j, i] = (
                0.5 * math.pi * c.base_couplings[i, j] * integrated / c.tau
            )
    return out


def to_pulse_program(c: CompiledZZ) -> PulseProgram:
    """Flatten a compiled schedule into delay and pi-pulse events."""
    n = c.base_couplings.shape[0]
    no_offset = (0.0,) * n
    events = []
    for b, flipped in enumerate(c.pi_pulse_placements):
        if flipped:
            events.append(
                Rotation(spins=tuple(sorted(flipped)), axis="x", angle=math.pi)
            )
        if b < len(c.segment_durations):
            events.append(
                Delay(duration=c.segment_durations[b], frame_offsets=no_offset)
            )
    return PulseProgram(n_spins=n, events=tuple(events))


def program_to_json(program: PulseProgram, path) -> None:
    """Write the event list in the interchange format."""
    payload = []
    for ev in program.events:
        if isinstance(ev, Delay):
            payload.append(
                {"type": "delay", "t_s": ev.duration, "frame": list(ev.frame_offsets)}
            )
        else:
            payload.append(
                {
                    "type": "pulse",
                    "spins": list(ev.spins),
                    "axis": ev.axis,
                    "angle_rad": ev.angle,
                }
            )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _is_spin_list(value) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(_is_count(s) and s >= 0 for s in value)
    )


def program_from_json(path) -> PulseProgram:
    """Read an event list.  The chain size is taken from the delays' frame
    vectors, or from the highest pulsed spin if there is no delay, so a
    pulse on a spin past the frame is reported at the pulse."""
    payload = _json_file(path, list, "a list of events")
    events = []
    frames, pulsed_spins = [], 0
    for k, item in enumerate(payload):
        where = f"{path} event {k}"
        kind = _json_field(item, "type", where)
        if kind == "delay":
            frame = _json_field(
                item, "frame", where, _is_real_list, "a list of numbers"
            )
            duration = _json_field(item, "t_s", where, _is_real, "a number")
            frames.append(len(frame))
            events.append(Delay(float(duration), tuple(map(float, frame))))
        elif kind == "pulse":
            spins = _json_field(
                item, "spins", where, _is_spin_list, "a nonempty list of indices >= 0"
            )
            axis = _json_field(item, "axis", where, _AXES.__contains__, "x, y or z")
            angle = _json_field(item, "angle_rad", where, _is_real, "a number")
            pulsed_spins = max(pulsed_spins, max(spins) + 1)
            events.append(Rotation(tuple(spins), axis, float(angle)))
        else:
            raise OutOfRange(f"{where} has unknown event type {kind!r}")
    n_spins = max(frames) if frames else pulsed_spins
    try:
        return PulseProgram(n_spins=n_spins, events=tuple(events))
    except OutOfRange as exc:
        raise OutOfRange(f"{path}: {exc}") from None


def _pauli_rotation(axis: str, angle: float) -> np.ndarray:
    return math.cos(angle / 2.0) * np.eye(2) - 1j * math.sin(angle / 2.0) * PAULI[axis]


def simulate_program(program: PulseProgram, m: MoleculeSpec) -> np.ndarray:
    """Propagator of the event list in the per-spin rotating frame.

    Delays evolve under the coupling table plus the event's explicit
    frame offsets; chemical shifts are absorbed by the frames and do
    not appear.  Rotations are ideal and instantaneous, applied as one
    2x2 contraction per rotated spin.  The dense propagator is held to
    the default chain cap before anything is built.
    """
    n = program.n_spins
    _check_cap(ChainSpec(n, 0.0))
    if m.n_spins != n:
        raise ValueError("program and molecule sizes differ")
    z = _site_table(n).z
    zz = np.zeros(2**n)
    for i in range(n):
        for j in range(i + 1, n):
            zz += 0.5 * math.pi * m.couplings_hz[i, j] * z[i] * z[j]

    dim = 2**n
    unitary = np.eye(dim, dtype=complex)
    for ev in program.events:
        if isinstance(ev, Delay):
            diag = zz + 0.5 * np.asarray(ev.frame_offsets) @ z
            unitary = np.exp(-1j * diag * ev.duration)[:, None] * unitary
        else:
            single = _pauli_rotation(ev.axis, ev.angle)
            # a spin listed twice is rotated once
            for k in sorted(set(ev.spins)):
                unitary = _rotate_spin(single, unitary, k)
    return unitary


@dataclass(frozen=True)
class SequenceReport:
    """Propagator-level comparison of a compiled sequence to its target."""

    effective_propagator: np.ndarray
    target_propagator: np.ndarray
    fidelity: float


def zz_target_propagator(n_spins: int, target_j: float, tau: float) -> np.ndarray:
    """Propagator of the uniform adjacent zz chain -target_j sum sz sz.

    Its arguments and the default chain cap are checked before any work.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise OutOfRange(f"tau must be positive and finite, got {tau}")
    if not math.isfinite(target_j):
        raise OutOfRange(f"target_j must be finite, got {target_j}")
    _check_cap(ChainSpec(n_spins, 0.0))
    diag = -target_j * _site_table(n_spins).zz
    return np.diag(np.exp(-1j * diag * tau))


def _zz_fidelity(effective: np.ndarray, target: np.ndarray) -> float:
    """|tr(effective^dagger target)| / dim, 1 for equal propagators up to
    a global phase; the trace is sum_ij conj(effective_ij) target_ij."""
    return float(abs(np.vdot(effective, target)) / target.shape[0])


def verify_sequence(c: CompiledZZ, m: MoleculeSpec) -> SequenceReport:
    """Simulate the compiled event list against the target zz propagator.

    All active terms commute, so a correct compilation is exact, not
    merely exact on average; any defect signals a compiler bug.
    """
    effective = simulate_program(to_pulse_program(c), m)
    target = zz_target_propagator(c.base_couplings.shape[0], c.target_j, c.tau)
    return SequenceReport(
        effective_propagator=effective,
        target_propagator=target,
        fidelity=_zz_fidelity(effective, target),
    )
