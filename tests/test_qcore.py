from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinchern.model as model
import spinchern.pulsesim as pulsesim
import spinchern.spectral as spectral
from spinchern import ChainSpec, FieldPoint, build_heisenberg, pole_system
from spinchern.qcore import PAULI

from _oracles import EigenSystem, NotHermitian, eigh, expm_i


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


# --- the package's block solver ----------------------------------------------


def _block_solutions(n: int):
    """(levels, real eigenvector columns, M_z blocks) of the interaction's
    solve (``_sector_data``) and of the exchange's (``_exchange_system``,
    whose blocks are the interaction's without their zz diagonal)."""
    sectors = spectral._sector_data(n)
    blocks = [(idx, block) for _, idx, block in model._interaction_blocks(n)]
    no_zz = [(idx, block - np.diag(np.diag(block))) for idx, block in blocks]
    return [
        (sectors.level_x, sectors.vectors, blocks),
        (*pulsesim._exchange_system(n), no_zz),
    ]


@pytest.mark.parametrize("n", range(1, 11))
def test_block_solver_columns_are_real_orthonormal_signed_eigenvectors(n):
    dim = 2**n
    for levels, columns, blocks in _block_solutions(n):
        assert columns.dtype == np.float64
        assert np.abs(columns.T @ columns - np.eye(dim)).max() <= 1e-12
        pivots = columns[np.argmax(np.abs(columns), axis=0), np.arange(dim)]
        assert np.all(pivots > 0.0)
        col = 0
        for idx, block in blocks:
            cols = slice(col, col + idx.size)
            inside = columns[idx, cols]
            # unit columns whose sector part has unit norm vanish outside it
            assert np.abs(np.linalg.norm(inside, axis=0) - 1.0).max() <= 1e-12
            assert np.abs(block @ inside - inside * levels[cols]).max() <= 1e-12
            col += idx.size
        assert col == dim


@pytest.mark.parametrize("n", range(1, 9))
def test_pole_levels_match_the_oracle_dense_solve(n):
    for j in (-1.3, -0.4, 0.0, 0.55, 1.6):
        for magnitude in (0.6, 1.0, 2.2):
            spec = ChainSpec(n, j)
            dense = eigh(
                build_heisenberg(spec, FieldPoint(theta=0.0, magnitude=magnitude))
            )
            fast = pole_system(spec, magnitude)
            assert np.abs(fast.values - dense.values).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 8))
def test_trotter_core_matches_the_oracle_split_step(n):
    # e^{-iA tau/2} e^{-iB tau} e^{-iA tau/2} at the pole, A the diagonal
    # (field and zz) part of the dense Hamiltonian and B the rest.
    for j, magnitude, tau in ((-0.7, 1.0, 0.1), (0.45, 1.8, 0.37), (1.2, 0.5, 1.3)):
        spec = ChainSpec(n, j)
        h = build_heisenberg(spec, FieldPoint(theta=0.0, magnitude=magnitude))
        a = np.diag(np.diag(h))
        half = expm_i(a, tau / 2.0)
        oracle = half @ expm_i(h - a, tau) @ half
        core = pulsesim._trotter_core(spec, magnitude, tau)
        assert np.abs(core - oracle).max() <= 1e-13
