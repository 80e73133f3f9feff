"""Dynamical curvature measurement by quasiadiabatic polar quench.

The polar angle is ramped from the north pole to the equator with a
linearly growing angular velocity; the transverse magnetization picked
up en route is first order in the ramp rate with the Berry curvature as
the proportionality constant.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import OutOfRange, StepCountTooSmall, VelocityOutOfLinearZone
from .model import ChainSpec, _is_count, _read_only, _rotate_y, total_magnetization
from .spectral import _pole_ground

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
# of that of u|up>.  An exact ramp reads one spin.


# Real traffic needs few protocols: a sweep uses one per rate,
# check_convergence adds the doubled-steps one and linear_zone_scan one
# per rate it maps (the bench's ramp pass uses two, its pulse pass one).
# 64 holds a scan over dozens of rates.  An entry of _midpoint_angles is
# one float per step (2.4 KB at 300 steps), one of _spin_readout two
# floats.


@functools.lru_cache(maxsize=64)
def _midpoint_angles(protocol: QuenchProtocol) -> np.ndarray:
    """theta at the midpoint (k + 1/2) dt of each step k, read-only.

    The builds of the per-protocol tables (``_spin_readout`` here and
    ``pulsesim._step_phases``) read them, and so does every stack of
    noisy Trotter trials.  Building them took about 23 us on a 2-vCPU
    x86-64 VM, and uncached they added 0.1 ms to ``perturbed_fidelity``
    per bench pulse pass, so they are built once per protocol too.
    """
    midpoints = (np.arange(protocol.steps) + 0.5) * protocol.step_time
    angles = theta_of_t(protocol, midpoints)
    _read_only(angles)
    return angles


def _free_spin_ramp(protocol: QuenchProtocol) -> np.ndarray:
    """u = prod_k exp(i dt n_k . sigma), latest step leftmost, n_k the field
    direction at the midpoint of step k.

    Each step is the SU(2) matrix [[a, -b*], [b, a*]]; neighbouring steps
    are multiplied pairwise, all pairs at once, until one is left.
    """
    dt = protocol.step_time
    theta = _midpoint_angles(protocol)
    a = math.cos(dt) + 1j * math.sin(dt) * np.cos(theta)
    b = 1j * math.sin(dt) * np.sin(theta)
    while a.size > 1:
        if a.size % 2:  # pad with the identity as the latest step
            a, b = np.append(a, 1.0), np.append(b, 0.0)
        a0, b0, a1, b1 = a[0::2], b[0::2], a[1::2], b[1::2]
        a, b = a1 * a0 - b1.conj() * b0, b1 * a0 + a1.conj() * b0
    return np.array([[a[0], -b[0].conj()], [b[0], a[0].conj()]])


_UP = np.array([1.0, 0.0], dtype=complex)


def _readout(start: np.ndarray, psi: np.ndarray, protocol: QuenchProtocol):
    """m_phi and the adiabatic overlap of a ramp's final state ``psi``.
    The adiabatic target is the rotated start state, so no eigensolve is
    needed at the end."""
    theta_final = protocol.final_angle
    m_phi = math.sin(theta_final) * total_magnetization(psi, "y")
    target = _rotate_y(start, theta_final)
    return m_phi, float(abs(np.vdot(target, psi)) ** 2)


@functools.lru_cache(maxsize=64)
def _spin_readout(protocol: QuenchProtocol) -> tuple[float, float]:
    """The readout (m_phi, overlap) of one free spin's ramp from |up>.

    It depends only on the protocol, not on the chain or J, and building
    it is most of an exact ramp.  So it is cached per (v_theta, steps):
    every exact ramp with that protocol, at every N and J, reads the
    same two floats.  The cache keeps the 64 most recently used
    protocols, so a scan over many rates cannot grow it further.
    """
    return _readout(_UP, _free_spin_ramp(protocol)[:, 0], protocol)


def _ramp_result(
    gap: float, protocol: QuenchProtocol, m_phi: float, overlap: float
) -> QuenchResult:
    return QuenchResult(
        m_phi=m_phi,
        f_extracted=m_phi / protocol.v_theta,
        v_theta=protocol.v_theta,
        adiabatic_overlap=overlap,
        gap=gap,
    )


def evolve_quench(
    spec: ChainSpec,
    protocol: QuenchProtocol,
    *,
    check_convergence: bool = False,
) -> QuenchResult:
    """Integrate the ramp with midpoint-sampled piecewise-constant steps.

    The steps are exact, so the ramp reduces to the ramp of one free spin
    (see above), read off its 2x2 product; no state of the chain is
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
    if any(r.v_theta > LINEAR_ZONE_CAP for r in results):
        warnings.warn(
            f"ramp rate exceeds the linear response zone cap {LINEAR_ZONE_CAP}",
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
    steps: int = QuenchProtocol.steps,
) -> list[tuple[float, float]]:
    """Table of (rate, m_phi/rate) for mapping the linear response zone."""
    velocities = list(velocities)
    if any(v <= 0.0 for v in velocities):
        raise OutOfRange("ramp rates must be positive")
    if sorted(velocities) != velocities:
        raise OutOfRange(f"velocities must be ascending, got {velocities}")
    out = []
    for v in velocities:
        res = evolve_quench(spec, QuenchProtocol(v_theta=v, steps=steps))
        out.append((v, res.m_phi / v))
    return out
