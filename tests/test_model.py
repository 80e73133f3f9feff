from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinchern.model as model
from spinchern import (
    ChainSpec,
    DimensionCap,
    FieldPoint,
    MoleculeSpec,
    OutOfRange,
    build_heisenberg,
    total_magnetization,
)

from spinchern.qcore import PAULI

from _oracles import (
    _embed,
    collective_ry,
    eigh,
    field_cartesian,
    kron_chain_hamiltonian,
    param_derivative,
    product_pair_operators,
)

ANGLES = st.floats(0.05, math.pi - 0.05)
PHIS = st.floats(0.0, 2 * math.pi - 1e-9)


def test_field_point_validation():
    with pytest.raises(ValueError):
        FieldPoint(theta=-0.1)
    with pytest.raises(ValueError):
        FieldPoint(theta=math.pi + 0.1)
    with pytest.raises(ValueError):
        FieldPoint(theta=1.0, phi=7.0)
    with pytest.raises(ValueError):
        FieldPoint(theta=1.0, magnitude=0.0)
    FieldPoint(theta=0.0, phi=0.0)
    FieldPoint(theta=math.pi, phi=2 * math.pi)


def test_field_cartesian_poles_and_equator():
    assert np.allclose(field_cartesian(FieldPoint(theta=0.0)), [0, 0, 1])
    assert np.allclose(
        field_cartesian(FieldPoint(theta=math.pi / 2)), [1, 0, 0], atol=1e-15
    )
    assert np.allclose(
        field_cartesian(FieldPoint(theta=math.pi / 2, phi=math.pi / 2, magnitude=2.0)),
        [0, 2, 0],
        atol=1e-15,
    )


def test_chain_spec_dim_and_cap():
    assert ChainSpec(3, 0.5).dim == 8
    with pytest.raises(ValueError):
        ChainSpec(0, 1.0)
    with pytest.raises(DimensionCap):
        build_heisenberg(ChainSpec(5, 1.0, max_spins=4), FieldPoint(theta=1.0))


def test_chain_spec_rejects_nonfinite_coupling():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfRange):
            ChainSpec(2, bad)


def test_field_point_rejects_nan_theta():
    # Unchecked, this raised a plain ValueError, outside SpinChernError.
    with pytest.raises(OutOfRange):
        FieldPoint(theta=math.nan)


def test_chain_spec_rejects_empty_chain():
    # Unchecked, this raised a plain ValueError, outside SpinChernError.
    with pytest.raises(OutOfRange):
        ChainSpec(0, 1.0)


def test_single_spin_hamiltonian_at_pole():
    h = build_heisenberg(ChainSpec(1, 0.0), FieldPoint(theta=0.0))
    assert np.allclose(h, -np.diag([1.0, -1.0]))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    j=st.floats(-2.0, 2.0),
    theta=ANGLES,
    phi=PHIS,
)
def test_hamiltonian_matches_kron_oracle(n, j, theta, phi):
    spec = ChainSpec(n, j)
    p = FieldPoint(theta=theta, phi=phi)
    assert np.allclose(
        build_heisenberg(spec, p), kron_chain_hamiltonian(n, j, theta, phi), atol=1e-12
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_operators_equal_product_construction(n):
    # The bit-pattern blocks, placed at their sector's basis indices, are
    # the product construction summed over the three axes.
    products = product_pair_operators(n)
    interaction = products["x"] + products["y"] + products["z"]
    built = np.zeros((2**n, 2**n))
    for _, idx, block in model._interaction_blocks(n):
        built[np.ix_(idx, idx)] = block
    assert np.array_equal(built, interaction)
    totals, dense_interaction = model._chain_operators(n)
    assert np.array_equal(dense_interaction, interaction)
    # The bit-pattern spin totals are the sums of embedded Pauli matrices.
    for axis in ("x", "y", "z"):
        embedded = sum(_embed(PAULI[axis], k, n) for k in range(n))
        assert np.array_equal(totals[axis], embedded)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 5),
    j=st.floats(-2.0, 2.0),
    theta=st.floats(0.0, math.pi),
    magnitude=st.floats(0.1, 3.0),
)
def test_hamiltonian_is_rotation_covariant(n, j, theta, magnitude):
    # H(theta) = R_y(theta) H(pole) R_y(theta)^T on the phi = 0 meridian:
    # the fact that lets one pole eigensolve serve a whole ramp.
    spec = ChainSpec(n, j)
    pole = build_heisenberg(spec, FieldPoint(theta=0.0, magnitude=magnitude))
    rot = collective_ry(n, theta)
    h = build_heisenberg(spec, FieldPoint(theta=theta, magnitude=magnitude))
    assert np.max(np.abs(h - rot @ pole @ rot.T)) <= 1e-12


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    j=st.floats(-2.0, 2.0),
    theta=ANGLES,
    phi=st.floats(0.1, 2 * math.pi - 0.1),
    which=st.sampled_from(["theta", "phi"]),
)
def test_param_derivative_matches_finite_difference(n, j, theta, phi, which):
    spec = ChainSpec(n, j)
    p = FieldPoint(theta=theta, phi=phi)
    step = 1e-6
    if which == "theta":
        plus = build_heisenberg(spec, FieldPoint(theta=theta + step, phi=phi))
        minus = build_heisenberg(spec, FieldPoint(theta=theta - step, phi=phi))
    else:
        plus = build_heisenberg(spec, FieldPoint(theta=theta, phi=phi + step))
        minus = build_heisenberg(spec, FieldPoint(theta=theta, phi=phi - step))
    numeric = (plus - minus) / (2 * step)
    assert np.allclose(param_derivative(spec, p, which), numeric, atol=1e-8)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(j=st.floats(-2.0, 2.0), theta=ANGLES, phi=PHIS)
def test_spectrum_is_rotationally_invariant(j, theta, phi):
    spec = ChainSpec(3, j)
    at_pole = eigh(build_heisenberg(spec, FieldPoint(theta=0.0))).values
    rotated = eigh(build_heisenberg(spec, FieldPoint(theta=theta, phi=phi))).values
    assert np.allclose(at_pole, rotated, atol=1e-10)


def test_param_derivative_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        param_derivative(ChainSpec(2, 1.0), FieldPoint(theta=1.0), "magnitude")


def test_total_magnetization_of_polarized_ground_state():
    spec = ChainSpec(2, 1.0)
    system = eigh(build_heisenberg(spec, FieldPoint(theta=0.0)))
    assert total_magnetization(system.ground_state, "z") == pytest.approx(2.0)
    assert total_magnetization(system.ground_state, "x") == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        total_magnetization(system.ground_state, "q")
    with pytest.raises(ValueError):
        total_magnetization(np.ones(3), "z")


def test_molecule_spec_validation():
    with pytest.raises(ValueError):
        MoleculeSpec(
            labels=("a", "b"),
            shifts_hz=np.array([1.0, 2.0]),
            couplings_hz=np.array([[0.0, 1.0], [2.0, 0.0]]),
        )
    with pytest.raises(ValueError):
        MoleculeSpec(
            labels=("a",),
            shifts_hz=np.array([1.0]),
            couplings_hz=np.array([[0.0]]),
        )
    with pytest.raises(ValueError):
        MoleculeSpec(
            labels=("a", "b"),
            shifts_hz=np.array([1.0, 2.0]),
            couplings_hz=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        )


def test_molecule_from_json_roundtrip(tmp_path):
    path = tmp_path / "mol.json"
    payload = {
        "labels": ["a", "b"],
        "shifts_hz": [10.0, -20.0],
        "couplings_hz": [[0.0, 5.0], [5.0, 0.0]],
        "t2_s": [1.0, 2.0],
    }
    path.write_text(json.dumps(payload))
    m = MoleculeSpec.from_json(path)
    assert m.n_spins == 2
    assert m.labels == ("a", "b")
    assert np.allclose(m.shifts_hz, [10.0, -20.0])
    assert np.allclose(m.couplings_hz, [[0.0, 5.0], [5.0, 0.0]])


def test_shipped_molecule_files(molecule2, molecule3, molecule4):
    assert molecule2.n_spins == 2
    assert molecule3.n_spins == 3
    assert molecule4.n_spins == 4
    assert molecule3.couplings_hz[0, 1] == 100.0
    assert molecule3.couplings_hz[1, 2] == -50.0

