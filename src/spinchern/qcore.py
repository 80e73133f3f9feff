"""The package's one eigensolver and the propagator built on it.

Every operator the package diagonalises conserves the total M_z and is
real symmetric in the computational basis, so it is solved block by
block: one real ``np.linalg.eigh`` per M_z sector.  This module also
holds the Pauli matrices.
"""

from __future__ import annotations

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def sector_eigh(blocks):
    """Diagonalise a real symmetric operator that conserves M_z from its
    M_z blocks.

    ``blocks`` yields (M, basis indices, real symmetric block) sector by
    sector in ascending M, as ``model._interaction_blocks`` does.  Each
    block is solved by one real ``np.linalg.eigh``, and each eigenvector
    is signed so that its largest-magnitude entry is positive, which
    makes the result deterministic.  Returns each column's M and
    eigenvalue, the real eigenvector columns sector after sector (each
    column zero outside its sector's basis indices; within a sector in
    ascending eigenvalue) and the first column of each sector.
    """
    blocks = list(blocks)
    dim = sum(idx.size for _, idx, _ in blocks)
    vectors = np.zeros((dim, dim))
    level_m = np.empty(dim)
    values = np.empty(dim)
    starts = []
    col = 0
    for m, idx, block in blocks:
        block_values, block_vectors = np.linalg.eigh(block)
        pivots = block_vectors[
            np.argmax(np.abs(block_vectors), axis=0), np.arange(idx.size)
        ]
        cols = slice(col, col + idx.size)
        vectors[idx, cols] = block_vectors * np.copysign(1.0, pivots)
        level_m[cols] = m
        values[cols] = block_values
        starts.append(col)
        col += idx.size
    return level_m, values, vectors, np.array(starts)


def propagator(values: np.ndarray, vectors: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for h = V diag(values) V^T with real orthonormal V."""
    return (vectors * np.exp(-1j * values * t)).dot(vectors.T)
