"""Spin-chain and NMR Hamiltonians with their parameter derivatives.

The chain Hamiltonian is

    H = -sum_j h_vec . sigma_vec_j  -  J sum_j sigma_vec_j . sigma_vec_{j+1}

with an identical external field on every site, isotropic
nearest-neighbor coupling and open boundaries.  The field is
parameterized on a sphere as

    h_vec = |h| (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)),

the convention under which the phi-derivative of H at the equator is
minus the total y-magnetization.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCap, OutOfRange

_AXES = ("x", "y", "z")


def _is_count(value) -> bool:
    """True for a whole number (Python or numpy integer) that is not a bool.

    A plain int is tested first: the ABC check costs about a microsecond,
    and chain specs are built per row and per crossing candidate.
    """
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _check_grid(grid) -> tuple[int, int]:
    """The two counts of a quadrature or plaquette grid, or ``OutOfRange``
    unless they are two whole numbers (not bools) of at least 1."""
    try:
        counts = tuple(grid)
    except TypeError:
        counts = ()
    if len(counts) != 2 or not all(_is_count(c) for c in counts):
        raise OutOfRange(f"grid {grid!r} must be two whole counts >= 1")
    if min(counts) < 1:
        raise OutOfRange(f"grid {grid!r} has no cells")
    return counts


def _json_field(record, key: str, where: str, valid=None, expected: str = ""):
    """record[key] of a JSON object read from a file, or ``OutOfRange``
    naming the key that ``where`` lacks, or whose value fails ``valid``
    (a predicate; ``expected`` says what it accepts)."""
    if not isinstance(record, dict) or key not in record:
        raise OutOfRange(f"{where} has no {key!r}")
    value = record[key]
    if valid is not None and not valid(value):
        raise OutOfRange(f"{where} field {key!r} must be {expected}, got {value!r}")
    return value


@dataclass(frozen=True)
class FieldPoint:
    """Spherical coordinates of the external field."""

    theta: float
    phi: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise OutOfRange(f"theta={self.theta} outside [0, pi]")
        if not (0.0 <= self.phi <= 2 * math.pi):
            raise OutOfRange(f"phi={self.phi} outside [0, 2*pi]")
        if not (self.magnitude > 0.0 and math.isfinite(self.magnitude)):
            raise OutOfRange("field magnitude must be positive and finite")


@dataclass(frozen=True)
class ChainSpec:
    """Open Heisenberg chain: size and isotropic coupling strength."""

    n_spins: int
    coupling_j: float
    max_spins: int = 10

    def __post_init__(self):
        if not (_is_count(self.n_spins) and self.n_spins >= 1):
            raise OutOfRange(
                f"n_spins must be a whole number >= 1, got {self.n_spins!r}"
            )
        if not _is_count(self.max_spins):
            raise OutOfRange(
                f"max_spins must be a whole number, got {self.max_spins!r}"
            )
        if not math.isfinite(self.coupling_j):
            raise OutOfRange(f"coupling_j must be finite, got {self.coupling_j}")

    @property
    def dim(self) -> int:
        return 2**self.n_spins


@dataclass(frozen=True)
class MoleculeSpec:
    """Per-spin chemical shifts and symmetric scalar coupling table (Hz)."""

    labels: tuple
    shifts_hz: np.ndarray
    couplings_hz: np.ndarray

    def __post_init__(self):
        shifts = np.asarray(self.shifts_hz, dtype=float)
        couplings = np.asarray(self.couplings_hz, dtype=float)
        object.__setattr__(self, "shifts_hz", shifts)
        object.__setattr__(self, "couplings_hz", couplings)
        n = shifts.size
        if n < 2:
            raise ValueError("molecule needs at least two spins")
        if couplings.shape != (n, n):
            raise ValueError("couplings table must be n_spins x n_spins")
        if not np.allclose(couplings, couplings.T, atol=1e-12):
            raise ValueError("couplings table must be symmetric")
        if not (np.isfinite(shifts).all() and np.isfinite(couplings).all()):
            raise ValueError("molecule parameters must be finite")
        labels = self.labels
        if len(labels) != n or not all(isinstance(s, str) for s in labels):
            raise OutOfRange(
                f"'labels' must hold one string per spin, got {labels!r} "
                f"for {n} spins"
            )

    @property
    def n_spins(self) -> int:
        return self.shifts_hz.size

    @classmethod
    def from_json(cls, path) -> "MoleculeSpec":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        labels = _json_field(
            raw, "labels", path, lambda v: isinstance(v, list), "a list"
        )
        shifts, couplings = (
            _json_field(raw, key, path) for key in ("shifts_hz", "couplings_hz")
        )
        try:
            return cls(
                labels=tuple(labels),
                shifts_hz=np.asarray(shifts, dtype=float),
                couplings_hz=np.asarray(couplings, dtype=float),
            )
        except (TypeError, ValueError) as exc:
            raise OutOfRange(f"{path}: {exc}") from None


def field_cartesian(p: FieldPoint) -> np.ndarray:
    """Cartesian components of the field vector."""
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    return p.magnitude * np.array([st * cp, st * sp, ct])


# The basis diagonals, total spin operators and the unit-strength
# interaction are reused heavily by sweeps, so they are cached per chain
# size and read-only: an in-place write to one raises ValueError.


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=None)
def _z_diagonals(n_spins: int) -> np.ndarray:
    """Per-site sigma_z eigenvalue patterns over the computational basis."""
    z = np.array(
        [
            np.tile(np.repeat(np.array([1.0, -1.0]), 2 ** (n_spins - 1 - i)), 2**i)
            for i in range(n_spins)
        ]
    )
    _read_only(z)
    return z


@functools.lru_cache(maxsize=None)
def _pole_diagonals(n_spins: int):
    """Total sigma_z (the M_z label) and adjacent zz sum of each basis
    state: the field and zz diagonals of the pole Hamiltonian."""
    z = _z_diagonals(n_spins)
    basis_m = z.sum(axis=0)
    zz = (z[:-1] * z[1:]).sum(axis=0)
    _read_only(basis_m, zz)
    return basis_m, zz


def _interaction_blocks(n_spins: int):
    """Yield (M, basis indices, block) of the unit interaction X for each
    M_z sector in ascending M, built from bit patterns.

    X conserves M_z.  Its block is real symmetric: the zz sum on the
    diagonal, and 2 from xx+yy between two states that differ by the
    flip of one anti-aligned bond.  Site k is bit n-1-k of the basis
    index, set for sigma_z = -1.
    """
    z = _z_diagonals(n_spins)
    basis_m, zz = _pole_diagonals(n_spins)
    rank = np.empty(basis_m.size, dtype=int)  # position within the sector
    for m in range(-n_spins, n_spins + 1, 2):
        idx = np.flatnonzero(basis_m == m)
        rank[idx] = np.arange(idx.size)
        block = np.diag(zz[idx])
        for k in range(n_spins - 1):
            anti = idx[z[k, idx] != z[k + 1, idx]]
            block[rank[anti], rank[anti ^ (3 << (n_spins - 2 - k))]] = 2.0
        yield m, idx, block


@functools.lru_cache(maxsize=None)
def _chain_operators(n_spins: int):
    """Total spin per axis and the dense unit-strength interaction, built
    from bit patterns: sigma_z is diagonal, and sigma_x and sigma_y of
    site k take column b to row b ^ (1 << (n-1-k)), with entries 1 and
    i z_k[b]."""
    dim = 2**n_spins
    z = _z_diagonals(n_spins)
    cols = np.arange(dim)
    totals = {axis: np.zeros((dim, dim), dtype=complex) for axis in _AXES}
    totals["z"][cols, cols] = _pole_diagonals(n_spins)[0]
    for k in range(n_spins):
        rows = cols ^ (1 << (n_spins - 1 - k))
        totals["x"][rows, cols] = 1.0
        totals["y"][rows, cols] = 1j * z[k]
    interaction = np.zeros((dim, dim), dtype=complex)
    for _, idx, block in _interaction_blocks(n_spins):
        interaction[np.ix_(idx, idx)] = block
    _read_only(interaction, *totals.values())
    return totals, interaction


def _check_cap(spec: ChainSpec) -> None:
    if spec.n_spins > spec.max_spins:
        raise DimensionCap(
            f"2**{spec.n_spins} exceeds the configured cap 2**{spec.max_spins}"
        )


def build_heisenberg(spec: ChainSpec, p: FieldPoint) -> np.ndarray:
    """Chain Hamiltonian at a field point."""
    _check_cap(spec)
    totals, interaction = _chain_operators(spec.n_spins)
    hx, hy, hz = field_cartesian(p)
    return (
        -hx * totals["x"]
        - hy * totals["y"]
        - hz * totals["z"]
        - spec.coupling_j * interaction
    )


def param_derivative(spec: ChainSpec, p: FieldPoint, which: str) -> np.ndarray:
    """Analytic derivative of the Hamiltonian in ``theta`` or ``phi``.

    Only the field term depends on the angles, so the result is the
    (negated) total spin contracted with the derivative of the field
    direction.
    """
    _check_cap(spec)
    totals, _ = _chain_operators(spec.n_spins)
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    if which == "theta":
        d = (ct * cp, ct * sp, -st)
    elif which == "phi":
        d = (-st * sp, st * cp, 0.0)
    else:
        raise ValueError("which must be 'theta' or 'phi'")
    return -p.magnitude * (d[0] * totals["x"] + d[1] * totals["y"] + d[2] * totals["z"])


def total_magnetization(psi: np.ndarray, axis: str) -> float:
    """Expectation of the total Pauli magnetization along ``axis``."""
    if axis not in _AXES:
        raise ValueError("axis must be one of 'x', 'y', 'z'")
    dim = psi.shape[0]
    n_spins = dim.bit_length() - 1
    if 2**n_spins != dim:
        raise ValueError("state dimension is not a power of two")
    totals, _ = _chain_operators(n_spins)
    return float(np.real(np.vdot(psi, totals[axis].dot(psi))))

