"""Dynamical curvature measurement by quasiadiabatic polar quench.

The polar angle is ramped from the north pole to the equator with a
linearly growing angular velocity; the transverse magnetization picked
up en route is first order in the ramp rate with the Berry curvature as
the proportionality constant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateGroundState,
    OutOfRange,
    StepCountTooSmall,
    VelocityOutOfLinearZone,
)
from .model import ChainSpec, FieldPoint, param_derivative
from .qcore import EigenSystem, propagator
from .spectral import DEGENERACY_RTOL, _each_spin, _sector_data, pole_system

# Largest ramp rate at which the readout m_phi / v stays within 5% of the
# static curvature, mapped at 300 steps and field magnitude 1 on a 0.0025
# grid from v = 0.05 (N = 2, J = 1; the ratio is the same for every N and
# J on a plateau).  The deviation stays below 4.5% up to here and first
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
        if self.steps < 1:
            raise OutOfRange("steps must be at least 1")

    @property
    def total_time(self) -> float:
        return math.pi / self.v_theta

    @property
    def step_time(self) -> float:
        return self.total_time / self.steps


@dataclass(frozen=True)
class QuenchResult:
    """Final state and the curvature read off one ramp."""

    final_state: np.ndarray
    m_phi: float
    f_extracted: float
    v_theta: float
    adiabatic_overlap: float


def theta_of_t(protocol: QuenchProtocol, t):
    """Ramp profile; quadratic in t so the rate grows linearly from zero.

    ``t`` is a time or an array of times.
    """
    total = protocol.total_time
    early, late = np.min(t), np.max(t)
    if early < 0.0 or late > total * (1.0 + 1e-12):
        bad = early if early < 0.0 else late
        raise OutOfRange(f"t={bad:.6g} outside ramp window [0, {total:.6g}]")
    return protocol.v_theta**2 * t**2 / (2.0 * math.pi)


# --- propagation kernel -------------------------------------------------------
#
# The isotropic chain is rotation-covariant on the phi = 0 meridian:
# H(theta) = R(theta) H(0) R(theta)^T with R(theta) = exp(-i theta S_y / 2)
# the real collective y-rotation.  The closed-form pole spectrum of
# spectral.pole_system therefore serves a whole ramp: a step at angle a
# is R(a) C R(a)^T with a fixed step core C, exactly V e^{-i Lambda dt}
# V^dagger for the exact ramp or the symmetric split step of pulsesim for
# the Trotter ramp.
#
# The ramp runs in the frame W = w (x) ... (x) w whose columns are the
# sigma_y eigenvectors, eigenvalue +1 first.  There W^dagger S_y W is the
# diagonal of M_z labels m of spectral's sectors, so every rotation is
# the diagonal phase W^dagger R(a) W = exp(-i a m / 2).

_Y_FRAME = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / math.sqrt(2.0)

# Steps whose diagonal phases are built at once; bounds the phase table
# to this many rows of the state dimension.
_PHASE_CHUNK = 64


def _pole_system(spec: ChainSpec) -> EigenSystem:
    """Eigensystem of the unit-field pole Hamiltonian that starts every ramp.

    ``pole_system`` enforces the dimension cap before any work.
    """
    system = pole_system(spec)
    if system.ground_gap < DEGENERACY_RTOL:
        raise DegenerateGroundState(
            f"initial ground state degenerate (gap={system.ground_gap:.3e})"
        )
    return system


def _y_labels(pole: EigenSystem) -> np.ndarray:
    """The S_y eigenvalue of each basis state of the y frame."""
    return _sector_data(pole.vectors.shape[0].bit_length() - 1).basis_m


def _to_y_frame(x: np.ndarray) -> np.ndarray:
    """W^dagger x for a state, or for each column of a matrix."""
    return _each_spin(_Y_FRAME.conj().T, x)


def _ramp_state(
    pole: EigenSystem,
    core: np.ndarray,
    protocol: QuenchProtocol,
    offsets: np.ndarray | None = None,
) -> np.ndarray:
    """Final state, in the y frame, of the ramp that applies
    R(a_k) core R(a_k)^T at step k.

    a_k is the midpoint angle of step k plus ``offsets[k]`` if given.
    Consecutive rotations fuse, R(a_{k+1})^T R(a_k) = R(a_k - a_{k+1}),
    so in the y frame a step is one dense mat-vec with W^dagger core W
    and one diagonal phase.
    """
    midpoints = (np.arange(protocol.steps) + 0.5) * protocol.step_time
    angles = theta_of_t(protocol, midpoints)
    if offsets is not None:
        angles = angles + offsets
    m = _y_labels(pole)
    # W^dagger core W = (W^T (W^dagger core)^T)^T
    core_y = _each_spin(_Y_FRAME.T, _to_y_frame(core).T).T
    psi = np.exp(0.5j * angles[0] * m) * _to_y_frame(pole.ground_state)
    deltas = angles - np.append(angles[1:], 0.0)
    for start in range(0, deltas.size, _PHASE_CHUNK):
        chunk = deltas[start : start + _PHASE_CHUNK]
        for phase in np.exp(-0.5j * np.multiply.outer(chunk, m)):
            psi = phase * (core_y @ psi)
    return psi


def _ramp_result(
    pole: EigenSystem, psi: np.ndarray, protocol: QuenchProtocol
) -> QuenchResult:
    """Readout of a final state in the y frame.  The adiabatic target is
    the rotated pole ground state, so no eigensolve is needed at the end;
    only ``final_state`` is mapped back to the computational basis."""
    theta_final = theta_of_t(protocol, protocol.total_time)
    m = _y_labels(pole)
    m_phi = math.sin(theta_final) * float(np.dot(m, np.abs(psi) ** 2))
    target = np.exp(-0.5j * theta_final * m) * _to_y_frame(pole.ground_state)
    return QuenchResult(
        final_state=_each_spin(_Y_FRAME, psi),
        m_phi=m_phi,
        f_extracted=m_phi / protocol.v_theta,
        v_theta=protocol.v_theta,
        adiabatic_overlap=float(abs(np.vdot(target, psi)) ** 2),
    )


def evolve_quench(
    spec: ChainSpec,
    protocol: QuenchProtocol,
    *,
    check_convergence: bool = False,
) -> QuenchResult:
    """Integrate the ramp with midpoint-sampled piecewise-constant steps.

    With ``check_convergence`` the step count is doubled once and the
    run rejected if the transverse magnetization moves by more than
    ``CONVERGENCE_TOL``.
    """
    pole = _pole_system(spec)
    psi = _ramp_state(pole, propagator(pole, protocol.step_time), protocol)
    result = _ramp_result(pole, psi, protocol)

    if check_convergence:
        fine = replace(protocol, steps=2 * protocol.steps)
        psi_fine = _ramp_state(pole, propagator(pole, fine.step_time), fine)
        drift = abs(_ramp_result(pole, psi_fine, fine).m_phi - result.m_phi)
        if drift > CONVERGENCE_TOL:
            raise StepCountTooSmall(
                f"m_phi drifts by {drift:.3e} on step doubling; "
                f"increase steps beyond {protocol.steps}"
            )
    return result


def generalized_force(spec: ChainSpec, p: FieldPoint, state: np.ndarray) -> float:
    """Expectation of -dH/dphi, the observable conjugate to the azimuth."""
    return float(-np.real(np.vdot(state, param_derivative(spec, p, "phi") @ state)))


def extract_curvature(results, *, linear_zone_cap: float = LINEAR_ZONE_CAP) -> float:
    """Curvature from one or more ramps.

    A single result gives the plain ratio m_phi / v; several results are
    combined by a least-squares fit of m_phi = F v through the origin.
    Rates beyond the mapped linear zone only generate a warning, since
    the estimate stays well defined.
    """
    results = list(results)
    if not results:
        raise ValueError("no quench results supplied")
    if any(r.v_theta > linear_zone_cap for r in results):
        warnings.warn(
            f"ramp rate exceeds the linear response zone cap {linear_zone_cap}",
            VelocityOutOfLinearZone,
        )
    if len(results) == 1:
        return results[0].m_phi / results[0].v_theta
    v = np.array([r.v_theta for r in results])
    m = np.array([r.m_phi for r in results])
    return float(np.dot(v, m) / np.dot(v, v))


def linear_zone_scan(
    spec: ChainSpec,
    velocities,
    steps: int = 300,
) -> list[tuple[float, float]]:
    """Table of (rate, m_phi/rate) for mapping the linear response zone."""
    velocities = list(velocities)
    if any(v <= 0.0 for v in velocities):
        raise OutOfRange("ramp rates must be positive")
    if sorted(velocities) != velocities:
        raise ValueError("velocities must be ascending")
    out = []
    for v in velocities:
        res = evolve_quench(spec, QuenchProtocol(v_theta=v, steps=steps))
        out.append((v, res.m_phi / v))
    return out
