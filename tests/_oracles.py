"""Independent oracles and shared fixtures data for the test suite.

Everything here is deliberately implemented against the public API and
from first principles (finite differences, gauge-invariant plaquettes,
explicit Kronecker constructions) so the library under test never
validates itself against its own internals.  The oracles have their own
dense Hermitian eigensolver (``eigh``) and matrix exponential
(``expm_i``), and import no eigensolver or exact propagator from the
package; ``trotter_order`` measures the package's ``trotter_step``
against the oracle ``expm_i``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from spinchern import (
    ChainSpec,
    Delay,
    FieldPoint,
    MoleculeSpec,
    OutOfRange,
    PulseProgram,
    QuenchProtocol,
    SpinChernError,
    build_heisenberg,
    theta_of_t,
    trotter_step,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "scripts" / "data"

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# Ramps checked against ``dense_ramp``: one (N, J) inside each plateau of
# the pole ground state for J in [-2, 2], away from the level crossings,
# at rates from slow through the linear-zone cap to far outside it.
PLATEAU_CASES = [
    (1, 1.0),
    (2, -1.25), (2, 0.75),
    (3, -1.2), (3, 0.8),
    (4, -1.4), (4, -0.5), (4, 0.85),
    (5, -1.2), (5, -0.36), (5, 0.86),
    (6, -1.5), (6, -0.69), (6, -0.31), (6, 0.87),
]  # fmt: skip
RAMP_RATES = (0.05, 0.1, 0.29, 2.0)
ORACLE_STEPS = 40


# --- dense Hermitian layer ---------------------------------------------------
#
# A per-point eigensolver on full 2^n x 2^n complex matrices.  The
# package solves only real M_z blocks; these routes solve whatever they
# are given, so they check the package's solver rather than share it.


class NotHermitian(SpinChernError):
    """Matrix deviates from Hermiticity beyond the accepted tolerance."""


# Relative Frobenius tolerance accepted before declaring a matrix
# non-Hermitian; inputs within it are symmetrized to absorb roundoff.
HERMITICITY_RTOL = 1e-10


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def ground_state(self) -> np.ndarray:
        return self.vectors[:, 0]

    @property
    def ground_gap(self) -> float:
        return float(self.values[1] - self.values[0])


def _symmetrized(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    scale = np.linalg.norm(h)
    if scale > 0 and np.linalg.norm(h - h.conj().T) > HERMITICITY_RTOL * scale:
        raise NotHermitian(
            f"matrix asymmetry exceeds {HERMITICITY_RTOL:g} relative tolerance"
        )
    return (h + h.conj().T) / 2


def eigh(h: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    Input is symmetrized before solving.  Each eigenvector's phase is
    fixed by making its largest-magnitude component real positive, so
    results are deterministic for regression purposes.
    """
    values, vectors = np.linalg.eigh(_symmetrized(h))
    columns = np.arange(vectors.shape[1])
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), columns]
    # hypot, as the scalar abs() does; numpy's vectorised complex abs can
    # differ from it in the last bit.
    scale = np.hypot(pivots.real, pivots.imag)
    nonzero = scale > 0
    phases = np.ones_like(pivots)
    phases[nonzero] = np.conj(pivots[nonzero]) / scale[nonzero]
    vectors *= phases
    return EigenSystem(values=values, vectors=vectors)


def expm_i(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary propagator exp(-i h t) for Hermitian ``h``, through its
    eigendecomposition."""
    system = eigh(h)
    phases = np.exp(-1j * system.values * t)
    return (system.vectors * phases).dot(system.vectors.conj().T)


def field_cartesian(p: FieldPoint) -> np.ndarray:
    """Cartesian components of the field vector."""
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    return p.magnitude * np.array([st * cp, st * sp, ct])


def param_derivative(spec: ChainSpec, p: FieldPoint, which: str) -> np.ndarray:
    """dH/dtheta or dH/dphi from total spins read off build_heisenberg.

    With J = 0 and a unit field along axis a the Hamiltonian is -S_a,
    and only the field term depends on the angles.
    """
    if which not in ("theta", "phi"):
        raise ValueError("which must be 'theta' or 'phi'")
    free = replace(spec, coupling_j=0.0)
    s_x = -build_heisenberg(free, FieldPoint(theta=math.pi / 2))
    s_y = -build_heisenberg(free, FieldPoint(theta=math.pi / 2, phi=math.pi / 2))
    s_z = -build_heisenberg(free, FieldPoint(theta=0.0))
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    if which == "theta":
        direction = ct * cp * s_x + ct * sp * s_y - st * s_z
    else:
        direction = -st * sp * s_x + st * cp * s_y
    return -p.magnitude * direction


def trotter_order(spec: ChainSpec, p: FieldPoint, taus) -> float:
    """Log-log slope of the local error of the package's ``trotter_step``
    against the dense exact step, over the step lengths ``taus``."""
    taus = sorted(float(t) for t in taus)
    if len(taus) < 2 or not all(math.isfinite(t) and t > 0.0 for t in taus):
        raise OutOfRange(f"need two or more positive, finite step lengths, got {taus}")
    h = build_heisenberg(spec, p)
    errors = [
        np.linalg.norm(trotter_step(spec, p, t) - expm_i(h, t), 2) for t in taus
    ]
    return float(np.polyfit(np.log(taus), np.log(errors), 1)[0])


def plaquette_curvature(
    spec: ChainSpec, theta: float, phi: float, d: float = 1e-3
) -> float:
    """Berry curvature from a small gauge-invariant Wilson loop.

    The loop is centered on the sample point (corners at +/- d/2), which
    cancels the first-order discretization bias of a corner-anchored
    loop; the leading error is O(d^2).
    """
    corners = [
        (theta - d / 2, phi - d / 2),
        (theta - d / 2, phi + d / 2),
        (theta + d / 2, phi + d / 2),
        (theta + d / 2, phi - d / 2),
    ]
    states = []
    for th, ph in corners:
        system = eigh(
            build_heisenberg(spec, FieldPoint(theta=th, phi=ph % (2 * math.pi)))
        )
        states.append(system.ground_state)
    product = 1.0 + 0.0j
    for k in range(4):
        product *= np.vdot(states[k], states[(k + 1) % 4])
    return float(-np.angle(product) / d**2)


def dense_curvature(spec: ChainSpec, p: FieldPoint) -> float:
    """F_phitheta by the sum over states of a dense eigensolve at ``p``."""
    system = eigh(build_heisenberg(spec, p))
    ground = system.ground_state
    bra = system.vectors.conj().T
    a = bra @ (param_derivative(spec, p, "phi") @ ground)
    b = bra @ (param_derivative(spec, p, "theta") @ ground)
    gaps = system.values[1:] - system.values[0]
    return float(np.sum(-2.0 * np.imag(np.conj(a[1:]) * b[1:]) / gaps**2))


def dense_chern_lattice(spec: ChainSpec, grid: tuple[int, int] = (24, 24)) -> int:
    """Plaquette Chern number from one dense eigensolve per grid point."""
    n_theta, n_phi = grid
    thetas = np.linspace(0.0, math.pi, n_theta + 1)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi + 1)
    states = [
        [
            eigh(build_heisenberg(spec, FieldPoint(theta=th, phi=ph))).ground_state
            for ph in phis
        ]
        for th in thetas
    ]
    total = 0.0
    for i in range(n_theta):
        for k in range(n_phi):
            plaquette = (
                np.vdot(states[i][k], states[i + 1][k])
                * np.vdot(states[i + 1][k], states[i + 1][k + 1])
                * np.vdot(states[i + 1][k + 1], states[i][k + 1])
                * np.vdot(states[i][k + 1], states[i][k])
            )
            total += np.angle(plaquette)
    return int(round(total / (2.0 * math.pi)))


def bisection_crossings(
    spec: ChainSpec,
    j_interval: tuple[float, float],
    scan_step: float = 0.01,
    gap_tol: float = 1e-8,
) -> list[float]:
    """Pole level crossings from dense gaps: each interior grid minimum of
    the gap is refined by bisection on the sign of its finite-difference
    slope and kept if the gap closes there."""
    lo, hi = j_interval
    pole = FieldPoint(theta=0.0)

    def gap_at(j: float) -> float:
        h = build_heisenberg(replace(spec, coupling_j=j), pole)
        return eigh(h).ground_gap

    def slope(j: float, h: float = 1e-7) -> float:
        return (gap_at(j + h) - gap_at(j - h)) / (2.0 * h)

    js = np.linspace(lo, hi, max(2, int(round((hi - lo) / scan_step)) + 1))
    gaps = [gap_at(j) for j in js]
    crossings = []
    for k in range(1, len(js) - 1):
        if not (gaps[k] <= gaps[k - 1] and gaps[k] <= gaps[k + 1]):
            continue
        if gaps[k] < gap_tol:
            crossings.append(float(js[k]))
            continue
        a, b = float(js[k - 1]), float(js[k + 1])
        if not (slope(a) < 0.0 < slope(b)):
            continue
        for _ in range(80):
            mid = 0.5 * (a + b)
            if slope(mid) < 0.0:
                a = mid
            else:
                b = mid
            if b - a < 1e-13:
                break
        j_star = 0.5 * (a + b)
        if gap_at(j_star) < gap_tol:
            crossings.append(j_star)
    return crossings


def angle_noise_infidelity(
    spec: ChainSpec, protocol: QuenchProtocol, bound_deg: float
) -> float:
    """First-order mean infidelity of the ramp under pulse-angle noise.

    Noise model: each step's field direction is off by an independent
    offset drawn uniformly from +/-b (b = ``bound_deg`` in radians), so
    the step evolves under H(theta_k + delta_k) ~ H_k + delta_k dH/dtheta.
    To first order each step kicks the state out of the instantaneous
    ground state g_k by -i dt delta_k (1 - |g_k><g_k|) dH/dtheta |g_k>;
    the kicks of different steps are uncorrelated and <delta^2> = b^2/3,
    so the mean infidelity is

        (b^2 / 3) sum_k dt^2 ||(1 - |g_k><g_k|) dH/dtheta |g_k>||^2

    with theta_k the midpoint angle of step k.  dH/dtheta is a central
    difference of the public Hamiltonian (one-sided at the pole).
    """
    b = math.radians(bound_deg)
    dt = protocol.total_time / protocol.steps
    d = 1e-6
    total = 0.0
    for k in range(protocol.steps):
        theta = theta_of_t(protocol, (k + 0.5) * dt)
        lo, hi = max(theta - d, 0.0), min(theta + d, math.pi)
        dh = (
            build_heisenberg(spec, FieldPoint(theta=hi))
            - build_heisenberg(spec, FieldPoint(theta=lo))
        ) / (hi - lo)
        ground = eigh(build_heisenberg(spec, FieldPoint(theta=theta))).ground_state
        kick = dh @ ground
        kick = kick - ground * np.vdot(ground, kick)
        total += float(np.vdot(kick, kick).real)
    return b**2 / 3.0 * dt**2 * total


def _embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for k in range(n):
        out = np.kron(out, op if k == site else np.eye(2))
    return out


def product_pair_operators(n: int) -> dict:
    """Per-axis sums of adjacent two-site couplings, each a dense product
    of two embedded site operators."""
    pairs = {}
    for axis, op in (("x", _SX), ("y", _SY), ("z", _SZ)):
        acc = np.zeros((2**n, 2**n), dtype=complex)
        for site in range(n - 1):
            acc += _embed(op, site, n) @ _embed(op, site + 1, n)
        pairs[axis] = acc
    return pairs


def collective_ry(n: int, angle: float) -> np.ndarray:
    """exp(-i angle sum_j sigma_y^j / 2) as an explicit Kronecker product."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    out = np.array([[1.0]])
    for _ in range(n):
        out = np.kron(out, np.array([[c, -s], [s, c]]))
    return out


def dense_ramp(
    spec: ChainSpec,
    protocol: QuenchProtocol,
    *,
    trotter: bool = False,
    offsets=None,
):
    """Per-step dense integrator of the polar ramp.

    Returns (final state, m_phi, adiabatic overlap).  The exact variant
    rebuilds H at each step's midpoint angle theta_k and applies
    expm_i(H, dt).  The Trotter variant splits the pole Hamiltonian into
    its diagonal part A (field and zz) and the rest B (xx + yy) and
    applies R S R^T with S = e^{-iA dt/2} e^{-iB dt} e^{-iA dt/2} and R
    the Kronecker rotation to theta_k + offsets[k].  The start state is
    the pole ground state, m_phi = <S_y> sin(theta_final), and the
    overlap is taken with the ground state of H(theta_final), each from
    its own eigensolve.
    """
    n = spec.n_spins
    dt = protocol.total_time / protocol.steps
    pole = build_heisenberg(spec, FieldPoint(theta=0.0))
    psi = eigh(pole).ground_state.astype(complex)
    if trotter:
        a = np.diag(np.diag(pole))
        half = expm_i(a, dt / 2.0)
        split = half @ expm_i(pole - a, dt) @ half
    for k in range(protocol.steps):
        theta = theta_of_t(protocol, (k + 0.5) * dt)
        if trotter:
            if offsets is not None:
                theta += offsets[k]
            rot = collective_ry(n, theta)
            psi = rot @ (split @ (rot.T @ psi))
        else:
            h = build_heisenberg(spec, FieldPoint(theta=theta))
            psi = expm_i(h, dt) @ psi
    theta_final = theta_of_t(protocol, protocol.total_time)
    s_y = sum(_embed(_SY, site, n) for site in range(n))
    m_phi = float(np.vdot(psi, s_y @ psi).real) * math.sin(theta_final)
    final = eigh(build_heisenberg(spec, FieldPoint(theta=theta_final))).ground_state
    return psi, m_phi, float(abs(np.vdot(final, psi)) ** 2)


def pole_ground_magnetization(spec: ChainSpec) -> int:
    """Total sigma_z of the pole ground state, from one dense eigensolve;
    the total sigma_z is -H of the free chain with the field at the pole."""
    pole = FieldPoint(theta=0.0)
    ground = eigh(build_heisenberg(spec, pole)).ground_state
    s_z = -build_heisenberg(replace(spec, coupling_j=0.0), pole)
    return round(float(np.vdot(ground, s_z @ ground).real))


def assert_same_state(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> None:
    """States equal up to a global phase, entrywise within ``tol``."""
    phase = np.vdot(a, b)
    assert np.max(np.abs(a * phase / abs(phase) - b)) <= tol


def kron_chain_hamiltonian(n: int, j: float, theta: float, phi: float) -> np.ndarray:
    """Direct Kronecker-product construction of the chain Hamiltonian."""
    h_vec = np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )
    total = np.zeros((2**n, 2**n), dtype=complex)
    for site in range(n):
        for h, op in zip(h_vec, (_SX, _SY, _SZ)):
            total -= h * _embed(op, site, n)
    for site in range(n - 1):
        for op in (_SX, _SY, _SZ):
            total -= j * _embed(op, site, n) @ _embed(op, site + 1, n)
    return total


def enumerate_zz_vertices(m: MoleculeSpec, target_j: float, tau: float) -> list:
    """Every feasible vertex of the refocusing linear program, one
    ``np.linalg.solve`` per basis, in lexicographic basis order.

    Rows are the adjacent pairs, which must integrate J_ij t to the
    target, and the coupled non-adjacent pairs, which must integrate to
    zero.  Columns are the flip-parity patterns with the first spin
    pinned to +1.  Returns (wall time, patterns, durations) per vertex.
    """
    n = m.n_spins
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            coupling = m.couplings_hz[i, j]
            if j == i + 1:
                rows.append((i, j, -2.0 * target_j * tau / (math.pi * coupling)))
            elif coupling != 0.0:
                rows.append((i, j, 0.0))
    patterns = [(1,) + rest for rest in itertools.product((1, -1), repeat=n - 1)]
    columns = np.array(
        [[p[i] * p[j] for p in patterns] for i, j, _ in rows], dtype=float
    )
    required = np.array([r for _, _, r in rows])
    vertices = []
    for subset in itertools.combinations(range(len(patterns)), len(rows)):
        block = columns[:, subset]
        try:
            durations = np.linalg.solve(block, required)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(block @ durations - required)) > 1e-9 * max(
            1.0, np.max(np.abs(required))
        ):
            continue
        if np.min(durations) < -1e-12 * tau:
            continue
        vertices.append(
            (float(np.sum(durations)), [patterns[k] for k in subset], durations)
        )
    return vertices


def enumerated_zz_schedule(m: MoleculeSpec, target_j: float, tau: float):
    """The schedule ``compile_zz`` should return, from the enumeration.

    Scans the vertices in order and keeps a later one only if its wall
    time is lower by more than 1e-15 tau.  Returns (segment durations,
    segment patterns, pi-pulse placements) laid out as in ``CompiledZZ``.
    """
    best = None
    for vertex in enumerate_zz_vertices(m, target_j, tau):
        if best is None or vertex[0] < best[0] - 1e-15 * tau:
            best = vertex
    _, patterns, durations = best
    segments = [
        (p, float(t))
        for p, t in zip(patterns, np.clip(durations, 0.0, None))
        if t > 1e-15 * tau
    ]
    segments.sort(key=lambda seg: (seg[0].count(-1), [x < 0 for x in seg[0]]))
    edges = [(1,) * m.n_spins] + [p for p, _ in segments] + [(1,) * m.n_spins]
    placements = tuple(
        frozenset(k for k in range(m.n_spins) if a[k] != b[k])
        for a, b in zip(edges, edges[1:])
    )
    return (
        tuple(t for _, t in segments),
        tuple(p for p, _ in segments),
        placements,
    )


def kron_simulate_program(program: PulseProgram, m: MoleculeSpec) -> np.ndarray:
    """Propagator of an event list with every rotation a dense Kronecker
    gate and every delay a diagonal built spin by spin."""
    n = program.n_spins
    z = [np.diag(_embed(_SZ, site, n)).real for site in range(n)]
    zz = np.zeros(2**n)
    for i in range(n):
        for j in range(i + 1, n):
            zz += 0.5 * math.pi * m.couplings_hz[i, j] * z[i] * z[j]
    paulis = {"x": _SX, "y": _SY, "z": _SZ}
    unitary = np.eye(2**n, dtype=complex)
    for ev in program.events:
        if isinstance(ev, Delay):
            diag = zz.copy()
            for i, offset in enumerate(ev.frame_offsets):
                diag += 0.5 * offset * z[i]
            unitary = np.exp(-1j * diag * ev.duration)[:, None] * unitary
        else:
            single = (
                math.cos(ev.angle / 2.0) * np.eye(2)
                - 1j * math.sin(ev.angle / 2.0) * paulis[ev.axis]
            )
            gate = np.array([[1.0 + 0.0j]])
            for k in range(n):
                gate = np.kron(gate, single if k in ev.spins else np.eye(2))
            unitary = gate @ unitary
    return unitary
