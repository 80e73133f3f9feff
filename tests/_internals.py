"""Test helpers that reach into the package's own state.

The package keeps only each M_z block's eigenvalues and its two extreme
eigenvector columns, and builds no 2^n ground state.  Tests that compare
against the bits of the pole ground state as the package solves it
rebuild it here from ``qcore.sector_eigh``.  ``_oracles`` stays free of
the package's solver.
"""

from __future__ import annotations

import contextlib
import functools
from unittest import mock

import numpy as np

import spinchern.quench as quench
from spinchern import ChainSpec
from spinchern.model import _interaction_blocks
from spinchern.qcore import sector_eigh


@functools.lru_cache(maxsize=None)
def _solved_blocks(n_spins: int) -> tuple:
    return tuple(sector_eigh(_interaction_blocks(n_spins)))


def pole_ground_state(spec: ChainSpec, magnitude: float = 1.0) -> np.ndarray:
    """The pole ground state over the 2^n basis as a complex array: the
    first of every pole level -|h| M - J lambda by a stable sort, with
    its block's ``sector_eigh`` column."""
    blocks = _solved_blocks(spec.n_spins)
    level_m = np.repeat([float(m) for m, *_ in blocks], [b[1].size for b in blocks])
    level_x = np.concatenate([values for _, _, values, _ in blocks])
    levels = -magnitude * level_m - spec.coupling_j * level_x
    first = np.argsort(levels, kind="stable")[0]
    # sector s holds M = 2s - n
    s = (int(level_m[first]) + spec.n_spins) // 2
    _, idx, _, vectors = blocks[s]
    ground = np.zeros(spec.dim, dtype=complex)
    ground[idx] = vectors[:, first - sum(b[1].size for b in blocks[:s])]
    return ground


@contextlib.contextmanager
def product_chunks(steps: int, dim: int):
    """Run the ramp kernel's product path in chunks of ``steps`` steps at
    sector dimension ``dim``, so a short ramp crosses a chunk bound."""
    budget = 32 * dim * dim * steps // quench._GROUP_STEPS
    with mock.patch.object(quench, "_PRODUCT_BYTES", budget):
        yield


@contextlib.contextmanager
def phase_chunks(steps: int, dim: int, width: int):
    """Run a stack of ``width`` ramps on the ramp kernel's step loop in
    phase chunks of ``steps`` steps at sector dimension ``dim``, so a
    short stack crosses chunk bounds."""
    budget = 16 * dim * width * steps
    with mock.patch.object(quench, "_PRODUCT_BYTES", budget):
        yield
