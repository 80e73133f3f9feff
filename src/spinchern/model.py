"""Spin-chain configurations, their M_z blocks and the dense Hamiltonian.

The chain Hamiltonian is

    H = -sum_j h_vec . sigma_vec_j  -  J sum_j sigma_vec_j . sigma_vec_{j+1}

with an identical external field on every site, isotropic
nearest-neighbor coupling and open boundaries.  The field is
parameterized on a sphere as

    h_vec = |h| (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)),

the convention under which the phi-derivative of H at the equator is
minus the total y-magnetization.  Every solver reads the chain through
one site table per size, its spin-axis views and the M_z blocks of X;
``build_heisenberg`` assembles the dense matrix at one field point.
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


def _is_real(value) -> bool:
    """True for a JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_real_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_real, value))


def _json_file(path, kind: type, expected: str):
    """The JSON value in the file at ``path``, or ``OutOfRange`` naming
    the file unless it is a ``kind`` (``expected`` says what it must be)."""
    with open(path, encoding="utf-8") as fh:
        value = json.load(fh)
    if not isinstance(value, kind):
        raise OutOfRange(f"{path} must hold {expected}, got {value!r}")
    return value


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
        raw = _json_file(path, dict, "a JSON object")
        labels = _json_field(
            raw, "labels", path, lambda v: isinstance(v, list), "a list"
        )
        shifts = _json_field(raw, "shifts_hz", path, _is_real_list, "a list of numbers")
        couplings = _json_field(
            raw,
            "couplings_hz",
            path,
            lambda v: isinstance(v, list) and all(map(_is_real_list, v)),
            "a list of lists of numbers",
        )
        try:
            return cls(
                labels=tuple(labels),
                shifts_hz=np.asarray(shifts, dtype=float),
                couplings_hz=np.asarray(couplings, dtype=float),
            )
        except (TypeError, ValueError) as exc:
            raise OutOfRange(f"{path}: {exc}") from None


# Sweeps reuse the site table heavily, so it is cached per chain size and
# read-only: an in-place write to one of its arrays raises ValueError.


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True)
class _SiteTable:
    """The one place that says site k is bit n-1-k of a basis index, set
    for sigma_z = -1.  ``z[k, b]`` is sigma_z of site k in state b and
    ``flips[k, b]`` the state with site k flipped; ``up`` and ``down``
    pair each state with site k up to its flip, site after site.  ``m``
    and ``zz`` are each state's M_z label and adjacent zz sum, the pole
    Hamiltonian's diagonals, and ``mirror`` its image under k <-> n-1-k.
    ``sectors[s]`` lists the states of M = 2s - n in ascending order and
    ``rank`` each state's position in its sector.
    """

    z: np.ndarray
    flips: np.ndarray
    up: np.ndarray
    down: np.ndarray
    m: np.ndarray
    zz: np.ndarray
    mirror: np.ndarray
    sectors: tuple
    rank: np.ndarray


@functools.lru_cache(maxsize=None)
def _site_table(n_spins: int) -> _SiteTable:
    basis = np.arange(2**n_spins)
    bits = 1 << np.arange(n_spins - 1, -1, -1)
    flips = basis ^ bits[:, None]
    z = np.where(basis & bits[:, None], -1.0, 1.0)
    up, down = np.broadcast_to(basis, z.shape)[z > 0], flips[z > 0]
    m, zz = z.sum(axis=0), (z[:-1] * z[1:]).sum(axis=0)
    mirror = bits.dot(z[::-1] < 0)  # site k's bit where site n-1-k is down
    sectors = tuple(np.flatnonzero(m == s) for s in range(-n_spins, n_spins + 1, 2))
    rank = np.empty(basis.size, dtype=int)
    for idx in sectors:
        rank[idx] = np.arange(idx.size)
    _read_only(z, flips, up, down, m, zz, mirror, rank, *sectors)
    return _SiteTable(z, flips, up, down, m, zz, mirror, sectors, rank)


def _interaction_blocks(n_spins: int):
    """Yield (M, basis indices, block) of the unit interaction X for each
    M_z sector in ascending M.

    X conserves M_z.  Its block is real symmetric: the zz sum on the
    diagonal and the sector's bond flips off it.
    """
    sites = _site_table(n_spins)
    bond, cols = np.nonzero(sites.z[:-1] != sites.z[1:])  # anti-aligned
    rows = sites.flips[bond, sites.flips[bond + 1, cols]]  # bond flipped
    for m, idx in zip(range(-n_spins, n_spins + 1, 2), sites.sectors):
        block = np.diag(sites.zz[idx])
        inside = sites.m[cols] == m
        block[sites.rank[rows[inside]], sites.rank[cols[inside]]] = 2.0
        yield m, idx, block


# Spin-axis views: read as n axes of length 2, a basis index puts site k
# on axis k, the site table's bit order.  Nothing else reshapes by spin.


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


def _rotate_spin(single: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Apply ``single`` to spin k, axis 1 of a (2^k, 2, -1) view of ``x``."""
    return (single @ x.reshape(2**k, 2, -1)).reshape(x.shape)


def _check_cap(spec: ChainSpec) -> None:
    if spec.n_spins > spec.max_spins:
        raise DimensionCap(
            f"2**{spec.n_spins} exceeds the configured cap 2**{spec.max_spins}"
        )


def build_heisenberg(spec: ChainSpec, p: FieldPoint) -> np.ndarray:
    """Chain Hamiltonian at a field point, from the interaction blocks and
    the site table: sigma_x and sigma_y of site k take state b to
    flips[k, b] with entries 1 and i z[k, b]."""
    _check_cap(spec)
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    hx, hy, hz = (p.magnitude * c for c in (st * cp, st * sp, ct))
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for _, idx, block in _interaction_blocks(spec.n_spins):
        h[np.ix_(idx, idx)] = -spec.coupling_j * block
    cols = np.arange(spec.dim)
    sites = _site_table(spec.n_spins)
    h[cols, cols] -= hz * sites.m
    h[sites.flips, cols] = -hx - 1j * hy * sites.z
    return h


def total_magnetization(psi: np.ndarray, axis: str) -> float:
    """Expectation of the total Pauli magnetization along ``axis``; the
    site table's pairs a = psi[up], b = psi[down] give sigma_x and sigma_y
    as 2 Re and 2 Im of a* b, summed over every site by one vdot."""
    if axis not in _AXES:
        raise ValueError("axis must be one of 'x', 'y', 'z'")
    dim = psi.shape[0]
    n_spins = dim.bit_length() - 1
    if 2**n_spins != dim:
        raise ValueError("state dimension is not a power of two")
    sites = _site_table(n_spins)
    if axis == "z":
        return float(np.vdot(psi, sites.m * psi).real)
    pairs = 2.0 * np.vdot(psi[sites.up], psi[sites.down])
    return float(pairs.real if axis == "x" else pairs.imag)
