from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchern import (
    ChainSpec,
    EigenSystem,
    FieldPoint,
    NotHermitian,
    eigh,
    expm_i,
    build_heisenberg,
)
from spinchern.qcore import PAULI


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_pauli_algebra():
    for axis, mat in PAULI.items():
        assert np.allclose(mat @ mat, np.eye(2))
        assert np.allclose(mat, mat.conj().T)
    assert np.allclose(
        PAULI["x"] @ PAULI["y"] - PAULI["y"] @ PAULI["x"], 2j * PAULI["z"]
    )


def test_eigh_sorted_and_phase_fixed():
    system = eigh(random_hermitian(8, seed=3))
    assert np.all(np.diff(system.values) >= 0)
    for k in range(8):
        column = system.vectors[:, k]
        pivot = column[np.argmax(np.abs(column))]
        assert pivot.imag == pytest.approx(0.0, abs=1e-12)
        assert pivot.real > 0


def _column_loop_eigh(h: np.ndarray):
    """Reference phase fix: one column at a time, pivot by scalar abs()."""
    values, vectors = np.linalg.eigh((h + h.conj().T) / 2)
    for k in range(vectors.shape[1]):
        pivot = vectors[int(np.argmax(np.abs(vectors[:, k]))), k]
        if abs(pivot) > 0:
            vectors[:, k] *= np.conj(pivot) / abs(pivot)
    return values, vectors


def test_eigh_phase_fix_is_bit_identical_to_column_loop():
    matrices = [
        random_hermitian(dim, seed) for dim in (1, 2, 3, 8, 32) for seed in range(4)
    ]
    matrices += [
        build_heisenberg(ChainSpec(n, j), FieldPoint(theta=theta, phi=0.3))
        for n in (1, 2, 3, 5)
        for j in (-1.3, -0.5, 0.0, 1.0)
        for theta in (0.0, 0.4, 2.9)
    ]
    for h in matrices:
        values, vectors = _column_loop_eigh(h)
        system = eigh(h)
        assert np.array_equal(system.values, values)
        assert np.array_equal(system.vectors, vectors)


def test_eigh_rejects_non_hermitian():
    mat = random_hermitian(4, seed=0)
    mat[0, 1] += 0.1
    with pytest.raises(NotHermitian):
        eigh(mat)


def test_eigh_accepts_roundoff_asymmetry():
    mat = random_hermitian(4, seed=1)
    mat[0, 1] += 1e-14
    eigh(mat)  # within tolerance, symmetrized silently


def test_ground_accessors():
    system = eigh(np.diag([3.0, -1.0, 2.0]).astype(complex))
    assert system.values[0] == pytest.approx(-1.0)
    assert system.ground_gap == pytest.approx(3.0)
    assert abs(system.ground_state[1]) == pytest.approx(1.0)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 4, 8]))
def test_eigh_reconstructs_input(seed, dim):
    mat = random_hermitian(dim, seed)
    system = eigh(mat)
    rebuilt = (system.vectors * system.values) @ system.vectors.conj().T
    assert np.allclose(rebuilt, mat, atol=1e-10)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    t=st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
)
def test_expm_i_unitary_and_group_law(seed, t):
    mat = random_hermitian(4, seed)
    u = expm_i(mat, t)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-9)
    assert np.allclose(expm_i(mat, t / 2) @ expm_i(mat, t / 2), u, atol=1e-9)


def test_expm_i_zero_time_is_identity():
    assert np.allclose(expm_i(random_hermitian(4, seed=7), 0.0), np.eye(4))


def test_eigensystem_is_frozen():
    system = eigh(random_hermitian(2, seed=5))
    assert isinstance(system, EigenSystem)
    with pytest.raises(AttributeError):
        system.values = np.zeros(2)
