"""Dense complex linear algebra substrate.

Pauli operators, Hermitian eigendecomposition and unitary matrix
exponentials.  All matrices are plain ``numpy.ndarray`` of dtype
complex128; states are one-dimensional complex arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

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
    """Unitary propagator exp(-i h t) for Hermitian ``h``.

    Computed through the eigendecomposition, which is exact for
    Hermitian inputs at these dimensions.
    """
    return propagator(eigh(h), t)


def propagator(system: EigenSystem, t: float) -> np.ndarray:
    """Unitary exp(-i h t) given the eigensystem of ``h``."""
    phases = np.exp(-1j * system.values * t)
    return (system.vectors * phases).dot(system.vectors.conj().T)
