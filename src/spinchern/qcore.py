"""The package's one eigensolver.

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
    makes the result deterministic.  Yields, block by block as it is
    solved, (M, basis indices, ascending eigenvalues, real eigenvector
    columns over those indices).
    """
    for m, idx, block in blocks:
        values, vectors = np.linalg.eigh(block)
        pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(idx.size)]
        vectors *= np.copysign(1.0, pivots)
        yield m, idx, values, vectors
        del values, vectors, pivots  # not held while the next block is solved
