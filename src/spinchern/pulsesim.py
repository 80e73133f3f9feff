"""NMR realization layer: Trotter steps, pulse loops, zz refocusing.

The ramp protocol is decomposed into symmetric Trotter steps built from
collective rotations, diagonal field+zz segments and an xx+yy exchange
segment, stepped by ``quench``'s ramp kernel.  The diagonal segments map
onto free NMR evolution with deliberately off-resonant frames; the zz
part is manufactured from a molecule's native coupling table by a
refocusing compiler that places pi pulses between delay segments.
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
    OutOfRange,
    UnphysicalDurations,
)
from .model import (
    _AXES,
    ChainSpec,
    FieldPoint,
    MoleculeSpec,
    _check_cap,
    _interaction_blocks,
    _is_count,
    _is_real,
    _is_real_list,
    _json_count,
    _json_field,
    _json_file,
    _read_only,
    _rotate_spin,
    _rotate_y,
    _site_table,
    _write_text,
)
from .qcore import PAULI, sector_eigh
from .quench import (
    QuenchProtocol,
    QuenchResult,
    _mirror_sector,
    _ramp_readout,
    _ramp_result,
    _ramp_state,
    _trotter_start,
)

# Adjacent couplings closer than this (relative) cannot be told apart
# by the closed-form segment timings.
_COUPLING_RTOL = 1e-12


@functools.lru_cache(maxsize=None)
def _exchange_system(n_spins: int):
    """Levels and real eigenvector columns of the unit xx+yy exchange,
    which conserves M_z, solved by M_z blocks once per chain size: each
    block is the interaction's without its zz diagonal.  The columns
    are dense, sector after sector, for ``_trotter_core``."""
    blocks = _interaction_blocks(n_spins)
    no_zz = ((m, idx, b - np.diag(np.diag(b))) for m, idx, b in blocks)
    values, vectors = [], np.zeros((2**n_spins, 2**n_spins))
    for _, idx, block_values, block_vectors in sector_eigh(no_zz):
        # the block's columns follow those of the sectors before it
        vectors[idx, len(values) : len(values) + idx.size] = block_vectors
        values.extend(block_values)
    values = np.array(values)
    _read_only(values, vectors)
    return values, vectors


def _trotter_core(
    spec: ChainSpec, magnitude: float, tau: float, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """left C right, for the split step core at the pole
    C = e^{-i(H_z+H_zz)tau/2} e^{-i(H_xx+H_yy)tau} e^{-i(H_z+H_zz)tau/2},
    without forming C; a dense core has identities on both sides.

    H_xx+H_yy is -J times the unit exchange V diag(l) V^T, so C =
    h V diag(e^{iJ tau l}) V^T h, h the diagonal half step.  Its factors
    act on ``right`` one by one, so every array built has its shape.  V
    is real and acts on the interleaved real and imaginary parts, so it
    is never cast to a complex copy.
    """
    _check_cap(spec)
    sites = _site_table(spec.n_spins)
    diagonal = -magnitude * sites.m - spec.coupling_j * sites.zz  # field and zz
    half = np.exp(-0.5j * diagonal * tau)[:, None]
    values, vectors = _exchange_system(spec.n_spins)
    x = vectors.T.dot(np.ascontiguousarray(half * right).view(float)).view(complex)
    x *= np.exp(1j * spec.coupling_j * tau * values)[:, None]
    x = vectors.dot(x.view(float)).view(complex)
    x *= half
    return left.dot(x)


def trotter_step(spec: ChainSpec, p: FieldPoint, tau: float) -> np.ndarray:
    """One symmetric split step for the chain Hamiltonian at phi = 0.

    R_y(theta) e^{-i(H_z+H_zz)tau/2} e^{-i(H_xx+H_yy)tau}
    e^{-i(H_z+H_zz)tau/2} R_y(-theta); local error is third order in
    tau.  The rotation carries the field direction, so only the phi=0
    meridian is reachable.
    """
    if p.phi != 0.0:
        raise OutOfRange(f"trotter_step is defined on the phi=0 meridian, not {p.phi}")
    if not (math.isfinite(tau) and tau > 0.0):
        raise OutOfRange(f"tau must be positive and finite, got {tau}")
    _check_cap(spec)
    rotation = _rotate_y(np.eye(spec.dim), p.theta)
    return _trotter_core(spec, p.magnitude, tau, rotation, rotation.T)


def simulate_protocol_trotter(
    spec: ChainSpec, protocol: QuenchProtocol
) -> QuenchResult:
    """Trotterized counterpart of the exact ramp: ``quench``'s ramp
    kernel run around the split step core, started, run and read out in
    the pole ground state's mirror sector (``quench._ramp_readout``)."""
    gap, parity, ground = _trotter_start(spec)
    sector = _mirror_sector(spec.n_spins, parity)
    core = _trotter_core(spec, 1.0, protocol.step_time, sector.enter, sector.right)
    readout = _ramp_readout(ground, spec.n_spins, parity, core, protocol)
    return _ramp_result(gap, protocol, *readout)


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
    individual trials can run anywhere.  To first order in the bound b
    (radians) their mean infidelity is eps = (b^2 / 3) (T^2 / steps) M_g,
    T = pi / v: ||(1 - |g><g|) dH/dtheta g||^2 = M_g at every step, as
    the gapped ground state g is the top of its multiplet.

    The arguments, the chain cap and the pole gap are checked before any
    work.  The ideal ramp and the trials run as one stack in the mirror
    sector, where each overlap is |sum c conj(ideal) x_t|^2.
    """
    if not (math.isfinite(angle_error_deg) and angle_error_deg >= 0.0):
        raise OutOfRange("angle_error_deg must be nonnegative and finite")
    if not (_is_count(trials) and trials >= 1):
        raise OutOfRange(f"trials must be a whole number >= 1, got {trials!r}")
    if not (_is_count(seed) and seed >= 0):
        raise OutOfRange(f"seed must be a whole number >= 0, got {seed!r}")
    _, parity, ground = _trotter_start(spec)
    sector = _mirror_sector(spec.n_spins, parity)
    core = _trotter_core(spec, 1.0, protocol.step_time, sector.enter, sector.right)
    bound = math.radians(angle_error_deg)
    # Column 0 is the ideal ramp.
    offsets = np.zeros((protocol.steps, trials + 1))
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        offsets[:, trial + 1] = rng.uniform(-bound, bound, protocol.steps)
    ideal, *noisy = _ramp_state(ground, spec.n_spins, parity, core, protocol, offsets)
    weighted = sector.count[:, None] * ideal
    worst = 1.0
    for psi in noisy:
        worst = min(worst, abs(np.vdot(weighted, psi)) ** 2)
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


def _check_compilable(m: MoleculeSpec) -> tuple[list, list]:
    """Check that the compiler accepts ``m`` and return its coupling
    table, as nested lists, and the couplings that fix its segment
    timings: the inner adjacent pair J[n-3, n-2], J[n-2, n-1], which must
    differ, or the one coupling of two spins.  The table must have 2 to
    4 spins and no vanishing adjacent coupling.  It is read as Python
    floats: at most 16 of them, where numpy's per-call dispatch would
    cost more than the arithmetic."""
    if not 2 <= m.n_spins <= 4:
        raise OutOfRange("refocusing compiler supports 2 to 4 spins")
    table = m.couplings_hz.tolist()
    adj = [table[i][i + 1] for i in range(m.n_spins - 1)]
    scale = max(abs(x) for row in table for x in row)
    if scale == 0.0 or any(abs(x) <= _COUPLING_RTOL * scale for x in adj):
        raise DegenerateCouplings(f"adjacent couplings must be nonzero, got {adj} Hz")
    pair = adj[-2:]
    if len(pair) == 2 and abs(pair[0] - pair[1]) <= _COUPLING_RTOL * scale:
        a = m.n_spins - 3
        raise DegenerateCouplings(
            f"couplings J[{a}{a + 1}]={pair[0]} Hz and "
            f"J[{a + 1}{a + 2}]={pair[1]} Hz coincide; segment timings degenerate"
        )
    return table, pair


# The bases of ``compile_zz``'s linear program depend only on the chain
# size and on which couplings are constraint rows: the adjacent pairs and
# the nonzero non-adjacent ones.  So the cache is bounded by its key
# space, 1 + 2 + 8 = 11 keys for 2, 3 and 4 spins.  An entry's arrays
# take at most 9.3 KB (4 spins with one non-adjacent row: 58 bases of
# 4 x 4 blocks), and all 11 take 53 KB.


@functools.lru_cache(maxsize=None)
def _lp_bases(n_spins: int, pairs: tuple):
    """The flip-parity patterns, first spin pinned to +1, and the
    nonsingular bases of the linear program whose rows are the couplings
    ``pairs`` (i, j): each basis's column subset, in lexicographic order,
    and its block blocks[s] = columns[:, subsets[s]], both read-only.  A
    block with a zero determinant, the zero pivot on which a single
    solve raises, is dropped."""
    flips = itertools.product((1, -1), repeat=n_spins - 1)
    patterns = tuple((1,) + rest for rest in flips)
    columns = np.array([[p[i] * p[j] for p in patterns] for i, j in pairs], dtype=float)
    subsets = np.array(list(itertools.combinations(range(len(patterns)), len(pairs))))
    blocks = np.ascontiguousarray(np.moveaxis(columns[:, subsets], 1, 0))
    nonsingular = np.linalg.det(blocks) != 0.0
    subsets, blocks = subsets[nonsingular], blocks[nonsingular]
    _read_only(subsets, blocks)
    return patterns, subsets, blocks


def effective_uniform_coupling(m: MoleculeSpec) -> float:
    """Uniform chain coupling (Hz) the standard schedule realizes at
    unit wall-time overhead.

    Two spins use the native coupling directly; longer chains are fixed
    by the inner adjacent pair a, b through J_a J_b / (J_a - J_b).
    """
    _, pair = _check_compilable(m)
    if len(pair) == 1:
        return pair[0]
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

    The nonsingular bases of the table's constraint rows come from the
    ``_lp_bases`` cache, read after the table is checked; all are
    stacked and solved in one batch against this call's weights.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise OutOfRange(f"tau must be positive and finite, got {tau}")
    if not math.isfinite(target_j):
        raise OutOfRange(f"target_j must be finite, got {target_j}")
    table, _ = _check_compilable(m)

    n = m.n_spins
    pairs, required = [], []  # constraint rows and their integrated weights
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1:
                pairs.append((i, j))
                required.append(-2.0 * target_j * tau / (math.pi * table[i][j]))
            elif table[i][j] != 0.0:
                pairs.append((i, j))
                required.append(0.0)

    patterns, subsets, blocks = _lp_bases(n, tuple(pairs))
    # one right-hand side, broadcast over the stack of bases by the solve
    rhs = np.array(required)[:, None]
    durations = np.linalg.solve(blocks, rhs)
    residual = np.abs(blocks @ durations - rhs).max(axis=(1, 2))
    durations = durations[..., 0]
    feasible = (residual <= 1e-9 * max(1.0, *map(abs, required))) & (
        durations.min(axis=1) >= -1e-12 * tau
    )
    walls = durations.sum(axis=1).tolist()
    best = None
    for k in np.flatnonzero(feasible).tolist():
        if best is None or walls[k] < walls[best] - 1e-15 * tau:
            best = k
    if best is None:
        raise UnphysicalDurations(
            f"no nonnegative segment durations realize weights {required}"
        )

    # Durations down to -1e-12 tau are feasible; like every one of at
    # most 1e-15 tau, they leave no segment.
    segments = [
        (patterns[idx], t)
        for idx, t in zip(subsets[best].tolist(), durations[best].tolist())
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
    n = c.base_couplings.shape[0]
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
    """Write the event list in the interchange format.

    Numpy integer spin indices are written as JSON ints.  The list is
    serialized before the file is opened, so a value JSON cannot write
    raises ``TypeError`` before the file is touched."""
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
    _write_text(path, json.dumps(payload, indent=2, default=_json_count) + "\n")


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
        raise OutOfRange(f"program has {n} spins, the molecule {m.n_spins}")
    z = _site_table(n).z
    # sum over i < j of pi/2 J_ij z_i z_j
    zz = (0.5 * math.pi) * (z * np.triu(m.couplings_hz, 1).T.dot(z)).sum(axis=0)

    unitary = np.eye(2**n, dtype=complex)
    for ev in program.events:
        if isinstance(ev, Delay):
            diag = zz
            if any(ev.frame_offsets):
                diag = zz + 0.5 * np.dot(ev.frame_offsets, z)
            unitary *= np.exp(diag * (-1j * ev.duration))[:, None]
        else:
            half = ev.angle / 2.0
            single = math.cos(half) * np.eye(2) - 1j * math.sin(half) * PAULI[ev.axis]
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
