from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spinchern.model as model
import spinchern.pulsesim as pulsesim
import spinchern.quench as quench
import spinchern.spectral as spectral
from spinchern import (
    ChainSpec,
    DegenerateCouplings,
    DegenerateGroundState,
    DimensionCap,
    Delay,
    FieldPoint,
    MoleculeSpec,
    OutOfRange,
    PulseProgram,
    QuenchProtocol,
    Rotation,
    UnphysicalDurations,
    build_heisenberg,
    compile_zz,
    effective_uniform_coupling,
    evolve_quench,
    find_crossings,
    perturbed_fidelity,
    pole_system,
    program_from_json,
    program_to_json,
    simulate_program,
    simulate_protocol_trotter,
    to_pulse_program,
    toggled_zz_coefficients,
    trotter_step,
    verify_sequence,
    zz_target_propagator,
)

from _internals import phase_chunks, pole_ground_state, product_chunks
from _oracles import (
    ORACLE_STEPS,
    PLATEAU_CASES,
    RAMP_RATES,
    angle_noise_infidelity,
    assert_same_compile,
    assert_same_state,
    cache_state,
    collective_ry,
    dense_ramp,
    enumerate_zz_vertices,
    enumerated_zz_schedule,
    expm_i,
    kron_simulate_program,
    ramp_readout,
    trotter_order,
)

TAU = 1e-3
POINT = FieldPoint(theta=0.7)
PROTO = QuenchProtocol(v_theta=0.1, steps=300)


def _fidelity(u: np.ndarray, v: np.ndarray) -> float:
    return abs(np.trace(u.conj().T @ v)) / u.shape[0]


def _target_for(m: MoleculeSpec) -> float:
    return -0.5 * math.pi * effective_uniform_coupling(m)


# --- symmetric split step ----------------------------------------------------


def test_step_is_unitary_and_tends_to_identity():
    step = trotter_step(ChainSpec(3, 1.0), POINT, 1e-6)
    assert np.allclose(step @ step.conj().T, np.eye(8), atol=1e-9)
    assert np.linalg.norm(step - np.eye(8), 2) <= 1e-5


def test_step_exact_without_interactions():
    spec = ChainSpec(2, 0.0)
    h = build_heisenberg(spec, POINT)
    for tau in (0.05, 0.7, 2.0):
        assert np.linalg.norm(trotter_step(spec, POINT, tau) - expm_i(h, tau), 2) < 1e-12


def test_step_exact_for_two_spins():
    # The two split parts commute for a single bond, so the widely
    # quoted third-order error only appears from three spins up.
    spec = ChainSpec(2, 1.0)
    h = build_heisenberg(spec, POINT)
    assert np.linalg.norm(trotter_step(spec, POINT, 0.1) - expm_i(h, 0.1), 2) < 1e-12


def test_step_validation():
    with pytest.raises(ValueError):
        trotter_step(ChainSpec(2, 1.0), FieldPoint(theta=0.7, phi=0.3), 0.1)
    with pytest.raises(ValueError):
        trotter_step(ChainSpec(2, 1.0), POINT, 0.0)


def test_step_rejects_nan_tau():
    # Unchecked, this returned a matrix of NaNs.
    with pytest.raises(OutOfRange):
        trotter_step(ChainSpec(2, 1.0), POINT, math.nan)


def test_local_error_is_third_order():
    spec = ChainSpec(3, 1.0)
    slope = trotter_order(spec, POINT, [0.1, 0.05, 0.025, 0.0125])
    assert 2.7 <= slope <= 3.3
    h = build_heisenberg(spec, POINT)
    err = lambda t: np.linalg.norm(trotter_step(spec, POINT, t) - expm_i(h, t), 2)
    assert 6.0 <= err(0.05) / err(0.025) <= 10.0


# --- Trotterized ramp --------------------------------------------------------


def test_trotter_protocol_tracks_exact_integrator():
    for n in (2, 3):
        spec = ChainSpec(n, 1.0)
        exact = evolve_quench(spec, PROTO)
        loop = simulate_protocol_trotter(spec, PROTO)
        assert abs(loop.m_phi - exact.m_phi) <= 1e-2
    single = ChainSpec(1, 0.0)
    assert abs(
        simulate_protocol_trotter(single, PROTO).m_phi
        - evolve_quench(single, PROTO).m_phi
    ) <= 1e-10


def test_trotter_protocol_step_doubling_drift():
    spec = ChainSpec(3, 1.0)
    m300 = simulate_protocol_trotter(spec, QuenchProtocol(0.1, 300)).m_phi
    m600 = simulate_protocol_trotter(spec, QuenchProtocol(0.1, 600)).m_phi
    assert abs(m600 - m300) <= 1e-3


def test_trotter_protocol_degenerate_start():
    with pytest.raises(DegenerateGroundState):
        simulate_protocol_trotter(ChainSpec(2, -0.5), PROTO)


# --- rotation-angle robustness ----------------------------------------------


def test_perturbed_fidelity_zero_error_is_one():
    assert perturbed_fidelity(ChainSpec(2, 1.0), PROTO, 0.0, seed=0, trials=2) == (
        pytest.approx(1.0, abs=1e-12)
    )


def test_perturbed_fidelity_deterministic_and_bounded():
    a = perturbed_fidelity(ChainSpec(2, 1.0), PROTO, 5.0, seed=7, trials=5)
    b = perturbed_fidelity(ChainSpec(2, 1.0), PROTO, 5.0, seed=7, trials=5)
    assert a == b
    assert 0.0 <= a <= 1.0


@pytest.mark.parametrize(
    "n, j",
    [(2, 1.0), (3, -0.3), (4, -0.5), (4, 1.0), (5, -0.4), (6, 1.0), (6, -0.31)],
)
def test_first_order_angle_noise_infidelity_is_the_closed_form(n, j):
    # Each step kicks the gapped g, the top of its multiplet, out of
    # itself with squared norm M_g, so the oracle's sum over 300 dense
    # steps is eps = (b^2 / 3) (T^2 / steps) M_g.
    spec, proto = ChainSpec(n, j), QuenchProtocol(0.1)
    m_g = pole_system(spec).sectors[0]
    eps = math.radians(5.0) ** 2 / 3.0 * proto.total_time**2 / proto.steps * m_g
    oracle = angle_noise_infidelity(spec, proto, 5.0)
    assert oracle == pytest.approx(eps, rel=1e-10, abs=0.0)


def test_perturbed_fidelity_mean_monotone_in_error_bound():
    # trials=1 isolates single draws, so averaging over seeds gives the
    # Monte Carlo mean at each error bound.
    spec = ChainSpec(2, 1.0)
    mean = lambda deg: np.mean(
        [perturbed_fidelity(spec, PROTO, deg, seed=k, trials=1) for k in range(20)]
    )
    assert mean(1.0) >= mean(5.0)


def _loop_chunks(monkeypatch, spec, steps, width):
    """A context that runs ``spec``'s stacks of ``width`` ramps in phase
    chunks of ``steps`` steps if they take the step loop, and the list in
    which the loop records the step count of each phase chunk it builds
    (only its chunks are built from 2-d angles)."""
    dim = quench._mirror_sector(spec.n_spins, quench._trotter_start(spec)[1]).count.size
    built = []
    build = quench._rotation_phases

    def recorded(angles, sector):
        if np.ndim(angles) == 2:
            built.append(len(angles))
        return build(angles, sector)

    monkeypatch.setattr(quench, "_rotation_phases", recorded)
    if dim <= quench._PRODUCT_MAX_DIM:
        return contextlib.nullcontext(), built
    return phase_chunks(steps, dim, width), built


@pytest.mark.parametrize(
    "n, j", [(1, 1.0), (2, 0.75), (3, 0.8), (4, 0.85), (5, 0.86), (6, 0.87)]
)
def test_stacked_trials_equal_single_trials_bit_for_bit(n, j, monkeypatch):
    # The trials run as one stack, each with its own mat-vec, so a trial's
    # fidelity has the same bits alone as among the others.  On the step
    # loop (N = 5 and 6, d = 20 and 36) the stack of 7 builds its phases
    # in chunks of 13 steps, 4 chunks, while a single trial's stack of 2
    # fits one.
    spec, proto = ChainSpec(n, j), QuenchProtocol(0.1, ORACLE_STEPS)
    chunks, built = _loop_chunks(monkeypatch, spec, 13, 7)
    with chunks:
        worst = perturbed_fidelity(spec, proto, 5.0, seed=3, trials=6)
        assert built == ([13, 13, 13, 1] if n >= 5 else [])
        singles = [
            perturbed_fidelity(spec, proto, 5.0, seed=3 + k, trials=1)
            for k in range(6)
        ]
    assert worst == min(singles)


def _sector_ramp(spec, proto, offsets=None):
    """The final sector state of a Trotter ramp of ``spec``, or of a
    stack with ``offsets``, from the pole ground state's sector start."""
    _, parity, ground = quench._trotter_start(spec)
    sector = quench._mirror_sector(spec.n_spins, parity)
    enter, right = sector.enter, sector.right
    core = pulsesim._trotter_core(spec, 1.0, proto.step_time, enter, right)
    return quench._ramp_state(ground, spec.n_spins, parity, core, proto, offsets)


def _unfold(spec, x):
    """The z-frame state of a sector state x of ``spec``'s ground sector,
    right @ x."""
    parity = quench._trotter_start(spec)[1]
    return quench._mirror_sector(spec.n_spins, parity).right @ x


def test_single_ramp_equals_its_stacked_run():
    # N = 3's even sector holds 6 of the 8 states.
    spec, proto = ChainSpec(3, 0.8), QuenchProtocol(0.1, 150)
    alone = _sector_ramp(spec, proto)
    stacked = _sector_ramp(spec, proto, np.zeros((proto.steps, 3)))
    assert alone.shape == (6,) and stacked.shape == (3, 6, 1)
    assert all(np.array_equal(alone, psi[:, 0]) for psi in stacked)


# Plateau cases at N <= 5.  Their ramps take the product path up to N = 4
# and the step loop at N = 5; (2, -1.25) and (4, -0.5) start in the odd
# mirror sector, the rest in the even one.
PRODUCT_CASES = [case for case in PLATEAU_CASES if case[0] <= 5]

# Product chunk length, in steps, set for the dense-oracle product test,
# so that a ramp of a few hundred steps multiplies several chunks.
CHUNK = 512


@pytest.mark.parametrize(
    "n, j",
    [(1, 1.0), (2, 0.75), (3, 0.8), (4, 0.85), (4, -0.5), (5, 0.86), (6, 0.87)],
)
def test_product_ramps_have_the_same_bits_alone_and_stacked(n, j, monkeypatch):
    # 151 steps are no multiple of the group length, so every product
    # ramp first applies its earliest steps one by one.  On the step loop
    # the stack of 4 builds its phases in 4 chunks of up to 50 steps, the
    # 5 ramps of the fidelity in 4 of up to 40, and a single ramp's stack
    # of 1 or 2 in 1 or 2.
    spec, proto = ChainSpec(n, j), QuenchProtocol(0.1, 151)
    offsets = np.random.default_rng(n).uniform(-0.1, 0.1, (proto.steps, 4))
    offsets[:, 0] = 0.0
    chunks, built = _loop_chunks(monkeypatch, spec, 50, 4)
    with chunks:
        stacked = _sector_ramp(spec, proto, offsets)
        assert built == ([50, 50, 50, 1] if n >= 5 else [])
        assert np.array_equal(_sector_ramp(spec, proto), stacked[0, :, 0])
        for t in range(1, 4):
            alone = _sector_ramp(spec, proto, offsets[:, t : t + 1])
            assert np.array_equal(alone[0], stacked[t])
        worst = perturbed_fidelity(spec, proto, 5.0, seed=3, trials=4)
        singles = [
            perturbed_fidelity(spec, proto, 5.0, seed=3 + k, trials=1)
            for k in range(4)
        ]
    assert worst == min(singles)


@settings(max_examples=16, derandomize=True, deadline=None)
@given(
    case=st.sampled_from(PRODUCT_CASES),
    v=st.sampled_from(RAMP_RATES),
    steps=st.one_of(
        st.integers(1, 121),
        st.integers(CHUNK + 1, CHUNK + 64),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=(3, 0.8), v=0.1, steps=1, seed=0)
@example(case=(4, -0.5), v=0.1, steps=quench._GROUP_STEPS + 3, seed=2)
@example(case=(2, -1.25), v=2.0, steps=3 * quench._GROUP_STEPS, seed=3)
@example(case=(3, -1.2), v=0.29, steps=2 * CHUNK + 1, seed=1)
@example(case=(4, 0.85), v=0.05, steps=CHUNK + 5, seed=4)
@example(case=(5, -0.36), v=0.1, steps=CHUNK + 3, seed=5)
@example(case=(4, 0.85), v=0.1, steps=300, seed=6)
def test_product_ramp_matches_dense_oracle(case, v, steps, seed):
    # The oracle runs in the full 2^n space, so it checks the restriction
    # to the mirror sector too: each sector state is unfolded to the
    # z frame and read out there.  A count that is no multiple of the group
    # length applies its earliest steps one by one, and one shorter than
    # a group has no product at all; past the chunk bound, here CHUNK
    # steps, a ramp multiplies several products.  Column 0 is the ideal
    # ramp, column 1 a noisy one.  The pulse pass's most common product
    # ramp is 300 steps at sector dimension 10 (N = 4, J > 0).
    n, j = case
    spec, proto = ChainSpec(n, j), QuenchProtocol(v, steps)
    offsets = np.zeros((steps, 2))
    offsets[:, 1] = np.random.default_rng(seed).uniform(-0.1, 0.1, steps)
    ground = pole_ground_state(spec)
    dim = quench._mirror_sector(n, quench._trotter_start(spec)[1]).count.size
    with product_chunks(CHUNK, dim):
        states = _unfold(spec, _sector_ramp(spec, proto, offsets))
    for state, column in zip(states, offsets.T):
        m_phi, overlap = ramp_readout(ground, state[:, 0], proto)
        psi, dense_m_phi, dense_overlap = dense_ramp(
            spec, proto, trotter=True, offsets=column
        )
        assert_same_state(state[:, 0], psi)
        assert m_phi == pytest.approx(dense_m_phi, abs=1e-10)
        assert overlap == pytest.approx(dense_overlap, abs=1e-10)


def test_ramp_form_is_chosen_by_dimension_alone(monkeypatch):
    # Single ramps and stacks of any width, by the dimension of the
    # ground state's mirror sector: products up to 12, the step loop at
    # N = 5's even sector of 20.
    dims = []
    product = quench._step_product

    def counted(core, *rest):
        dims.append(core.shape[0])
        return product(core, *rest)

    monkeypatch.setattr(quench, "_step_product", counted)
    for n, j in [(2, -1.25), (3, 0.8), (4, -0.5), (4, 0.85), (5, 0.86)]:
        spec, proto = ChainSpec(n, j), QuenchProtocol(0.1, 21)
        simulate_protocol_trotter(spec, proto)
        perturbed_fidelity(spec, proto, 5.0, trials=2)
    assert dims == [1] * 4 + [6] * 4 + [6] * 4 + [10] * 4


def test_mixed_mirror_parity_start_is_degenerate(monkeypatch):
    # A pole ground state with no definite mirror parity can only come
    # from a degenerate level; the ramp refuses it before any step.  At
    # N = 3, J = -1.2 the ground column lies in block M = 1, the states
    # 0b001, 0b010 and 0b100; the start's parity check is fed that
    # column plus an odd kick on the mirror pair 0b001, 0b100.  The
    # checked start is cached per block, so the cache is cleared first.
    spec, proto = ChainSpec(3, -1.2), QuenchProtocol(0.1, 21)
    sectors = spectral._sector_data(spec.n_spins)
    m, idx, values, ends = sectors.blocks[2]
    assert m == 1 and idx.tolist() == [0b001, 0b010, 0b100]
    mixed = ends.copy()
    mixed[[0, 2], 0] += [1e-6, -1e-6]  # odd, the ground column is even
    mixed[:, 0] /= np.linalg.norm(mixed[:, 0])
    blocks = list(sectors.blocks)
    blocks[2] = (m, idx, values, mixed)
    bad = dataclasses.replace(sectors, blocks=tuple(blocks))
    quench._pole_start.cache_clear()
    monkeypatch.setattr(quench, "_sector_data", lambda n: bad)

    def stepped(*args):
        raise AssertionError("the ramp stepped from a mixed-parity start")

    monkeypatch.setattr(quench, "_ramp_state", stepped)
    monkeypatch.setattr(pulsesim, "_ramp_state", stepped)
    for ramp in (
        lambda: quench._trotter_start(spec),
        lambda: simulate_protocol_trotter(spec, proto),
        lambda: perturbed_fidelity(spec, proto, 5.0, trials=2),
    ):
        with pytest.raises(DegenerateGroundState):
            ramp()


@pytest.mark.parametrize("n", range(1, 8))
def test_mirror_sectors_split_the_basis(n):
    # 2^ceil(n/2) palindromes; the even sector holds them and one of each
    # mirror pair, the odd sector one of each pair.  Each sector's frame
    # is checked against W from np.kron: enter = W[:, r]^dagger, a
    # contiguous array with orthonormal rows, right = W P_w unfolds a
    # sector state into the full space, and the sector core is the
    # gather C_y[r, r] + w C_y[r, rev r].  Each representative counts
    # the basis states it stands for, 1 on a palindrome and 2 on a pair,
    # so the counts sum to 2^n in the even sector and to 2^n -
    # 2^ceil(n/2) in the odd one.
    pairs = (2**n - 2 ** ((n + 1) // 2)) // 2
    mirror = model._site_table(n).mirror
    assert np.array_equal(mirror[mirror], np.arange(2**n))
    frame = functools.reduce(np.kron, [quench._Y_FRAME] * n)
    eye = np.eye(2**n)
    core = pulsesim._trotter_core(ChainSpec(n, 0.8), 1.0, 0.3, eye, eye)
    core_y = frame.conj().T @ core @ frame
    index = np.arange(2**n)
    palindromes = 2 ** ((n + 1) // 2)
    for parity, size, states in (
        (1.0, palindromes + pairs, 2**n),
        (-1.0, pairs, 2**n - palindromes),
    ):
        reps = np.flatnonzero(index <= mirror if parity > 0 else index < mirror)
        partners = mirror[reps]
        weights = np.where(partners == reps, 0.0, parity)
        # P_w: column c holds 1 at reps[c] and w at partners[c]
        unfold = np.zeros((2**n, reps.size))
        unfold[reps, np.arange(reps.size)] = 1.0
        unfold[partners, np.arange(reps.size)] += weights
        gathered = core_y[np.ix_(reps, reps)] + core_y[np.ix_(reps, partners)] * weights
        sector = quench._mirror_sector(n, parity)
        enter, right, count = sector.enter, sector.right, sector.count
        m = sector.weights / count
        assert right.shape == (2**n, size) and reps.size == size
        assert enter.shape == (size, 2**n) and enter.flags.c_contiguous
        for got, want, tol in (
            (enter, frame[:, reps].conj().T, 1e-14),
            (enter @ enter.conj().T, np.eye(size), 1e-14),
            (right, frame @ unfold, 1e-14),
            (enter @ core @ right, gathered, 1e-13),
        ):
            assert np.abs(got - want).max(initial=0.0) <= tol
        assert np.array_equal(m, model._site_table(n).m[reps])
        assert np.array_equal(count, np.where(partners == reps, 1.0, 2.0))
        assert count.sum() == states


def test_perturbed_fidelity_validation():
    with pytest.raises(OutOfRange):
        perturbed_fidelity(ChainSpec(2, 1.0), PROTO, -1.0)
    with pytest.raises(OutOfRange):
        perturbed_fidelity(ChainSpec(2, 1.0), PROTO, 1.0, trials=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(OutOfRange):
            perturbed_fidelity(ChainSpec(2, 1.0), PROTO, bad)


# --- refocusing compiler -----------------------------------------------------


def test_two_spin_compiles_to_single_natural_delay(molecule2):
    target = _target_for(molecule2)
    compiled = compile_zz(molecule2, target, TAU)
    assert compiled.segment_durations == pytest.approx((TAU,))
    assert all(not s for s in compiled.pi_pulse_placements)
    assert verify_sequence(compiled, molecule2).fidelity >= 1 - 1e-10


def test_three_spin_timings_reproduce_closed_forms(molecule3):
    j12 = molecule3.couplings_hz[0, 1]
    j23 = molecule3.couplings_hz[1, 2]
    t1 = j12 * TAU / (2 * (j12 - j23))
    t2 = -j23 * TAU / (2 * (j12 - j23))
    assert t1 == pytest.approx(TAU / 3)
    assert t2 == pytest.approx(TAU / 6)

    compiled = compile_zz(molecule3, _target_for(molecule3), TAU)
    assert sorted(compiled.segment_durations) == pytest.approx(
        sorted([t1, t2, t1 + t2]), rel=1e-12
    )
    assert compiled.wall_time == pytest.approx(TAU, rel=1e-12)


def test_four_spin_timings_contain_closed_forms(molecule4):
    j12 = molecule4.couplings_hz[0, 1]
    j23 = molecule4.couplings_hz[1, 2]
    j34 = molecule4.couplings_hz[2, 3]
    t1 = j23 * (j12 + j34) * TAU / (4 * j12 * (j23 - j34))
    t2 = j23 * (j12 - j34) * TAU / (4 * j12 * (j23 - j34))
    t3 = -j34 * TAU / (4 * (j23 - j34))

    compiled = compile_zz(molecule4, _target_for(molecule4), TAU)
    durations = sorted(compiled.segment_durations)
    for closed_form in (t1, t2, t3):
        assert any(d == pytest.approx(closed_form, rel=1e-9) for d in durations)
    assert compiled.wall_time == pytest.approx(TAU, rel=1e-12)
    assert verify_sequence(compiled, molecule4).fidelity >= 1 - 1e-10


# ChainSpec(2, -0.5) has a degenerate pole ground state and a chain over
# the cap makes build_heisenberg raise, so only a check made before any
# work raises OutOfRange here.
@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_bad_seed_is_rejected_before_any_work(seed):
    with pytest.raises(OutOfRange, match="seed"):
        perturbed_fidelity(ChainSpec(2, -0.5), PROTO, 5.0, seed=seed)


@pytest.mark.parametrize(
    "taus",
    [[0.1], [0.1, 0.0], [-0.1, 0.1], [0.1, math.nan], [math.inf, 0.1]],
    ids=["one", "zero", "negative", "nan", "inf"],
)
def test_bad_step_lengths_are_rejected_before_any_work(taus):
    with pytest.raises(OutOfRange, match="step lengths"):
        trotter_order(ChainSpec(3, 1.0, max_spins=2), POINT, taus)


def test_compile_rejects_degenerate_couplings(molecule3, molecule4):
    equal3 = MoleculeSpec(
        labels=molecule3.labels,
        shifts_hz=molecule3.shifts_hz,
        couplings_hz=np.array(
            [[0.0, 100.0, 1.3], [100.0, 0.0, 100.0], [1.3, 100.0, 0.0]]
        ),
    )
    with pytest.raises(DegenerateCouplings):
        compile_zz(equal3, 10.0, TAU)

    table4 = np.array(molecule4.couplings_hz)
    table4[1, 2] = table4[2, 1] = table4[2, 3]
    equal4 = MoleculeSpec(
        labels=molecule4.labels,
        shifts_hz=molecule4.shifts_hz,
        couplings_hz=table4,
    )
    with pytest.raises(DegenerateCouplings):
        compile_zz(equal4, 10.0, TAU)

    zero_adjacent = MoleculeSpec(
        labels=("a", "b"),
        shifts_hz=np.array([1.0, 2.0]),
        couplings_hz=np.zeros((2, 2)),
    )
    with pytest.raises(DegenerateCouplings):
        compile_zz(zero_adjacent, 10.0, TAU)


def test_compile_size_and_time_validation(molecule2):
    five = MoleculeSpec(
        labels=tuple("abcde"),
        shifts_hz=np.zeros(5),
        couplings_hz=np.diag(np.ones(4), 1) + np.diag(np.ones(4), -1),
    )
    with pytest.raises(OutOfRange):
        compile_zz(five, 1.0, TAU)
    with pytest.raises(ValueError):
        compile_zz(molecule2, 1.0, 0.0)


def test_compile_rejects_nonfinite_tau(molecule2):
    # Unchecked, both returned an empty schedule.
    for tau in (math.inf, math.nan):
        with pytest.raises(OutOfRange):
            compile_zz(molecule2, 1.0, tau)


# Unchecked, the target propagator took a NaN target to a NaN fidelity,
# an infinite tau to a NaN one with two RuntimeWarnings, and tau <= 0 to
# fidelities near 1.  At 40 spins a check made after the size cap would
# raise DimensionCap instead.
@pytest.mark.parametrize(
    "target_j, tau",
    [(math.nan, TAU), (math.inf, TAU), (1.0, math.inf), (1.0, math.nan),
     (1.0, 0.0), (1.0, -TAU)],
    ids=["target-nan", "target-inf", "tau-inf", "tau-nan", "tau-zero", "tau-negative"],
)  # fmt: skip
def test_bad_target_and_tau_are_rejected_before_any_work(molecule3, target_j, tau):
    with pytest.raises(OutOfRange):
        compile_zz(molecule3, target_j, tau)
    with pytest.raises(OutOfRange):
        zz_target_propagator(40, target_j, tau)


def test_pulse_routes_check_the_chain_cap_before_any_cache_access():
    # Unchecked, a 16-spin frame built a 2^16 x 2^16 identity, 68 GB.
    n = 40
    program = PulseProgram(
        n, (Delay(TAU, (0.0,) * n), Rotation((0, n - 1), "x", math.pi))
    )
    adjacent = np.diag(np.full(n - 1, 100.0), 1)
    molecule = MoleculeSpec(
        labels=tuple(f"s{k}" for k in range(n)),
        shifts_hz=np.zeros(n),
        couplings_hz=adjacent + adjacent.T,
    )
    before = cache_state()
    with pytest.raises(DimensionCap):
        simulate_program(program, molecule)
    # 11 spins is the first size past the default chain cap of 10.
    for size in (n, 11):
        with pytest.raises(DimensionCap):
            zz_target_propagator(size, 1.0, TAU)
    assert cache_state() == before


def test_toggled_average_hits_target_and_refocuses_rest(molecule3, molecule4):
    for m in (molecule3, molecule4):
        target = _target_for(m)
        compiled = compile_zz(m, target, TAU)
        matrix = toggled_zz_coefficients(compiled)
        n = m.n_spins
        for i in range(n):
            for j in range(i + 1, n):
                expected = -target if j == i + 1 else 0.0
                assert matrix[i, j] == pytest.approx(expected, abs=1e-12 * abs(target))


def test_empty_schedule_has_zero_coefficients_of_every_pair(
    molecule2, molecule3, molecule4
):
    # A zero target compiles to no segments; the table was 0 x 0 when its
    # size was read off the first segment's pattern.
    for m in (molecule2, molecule3, molecule4):
        compiled = compile_zz(m, 0.0, TAU)
        assert compiled.segment_durations == ()
        matrix = toggled_zz_coefficients(compiled)
        assert matrix.shape == (m.n_spins, m.n_spins)
        assert np.array_equal(matrix, np.zeros((m.n_spins, m.n_spins)))


def test_verify_reports_exact_fidelity_and_propagators(molecule3):
    compiled = compile_zz(molecule3, _target_for(molecule3), TAU)
    report = verify_sequence(compiled, molecule3)
    assert report.fidelity >= 1 - 1e-10
    dim = 2**molecule3.n_spins
    assert np.allclose(
        report.effective_propagator @ report.effective_propagator.conj().T,
        np.eye(dim),
        atol=1e-9,
    )
    assert report.target_propagator.shape == (dim, dim)


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_zz_fidelity_is_the_normalised_trace_overlap(dim):
    rng = np.random.default_rng(dim)
    shape = (dim, dim)
    effective, target = (
        np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
        for _ in range(2)
    )
    expected = _fidelity(effective, target)
    assert pulsesim._zz_fidelity(effective, target) == pytest.approx(expected, abs=1e-14)


def test_verify_invariant_under_time_rescaling(molecule3):
    target = _target_for(molecule3)
    assert verify_sequence(compile_zz(molecule3, target, 2 * TAU), molecule3).fidelity >= (
        1 - 1e-10
    )


def test_deleting_a_refocusing_pulse_breaks_the_sequence(molecule3):
    target = _target_for(molecule3)
    compiled = compile_zz(molecule3, target, TAU)
    program = to_pulse_program(compiled)
    idx = next(
        i for i, ev in enumerate(program.events) if isinstance(ev, Rotation)
    )
    broken = PulseProgram(
        n_spins=program.n_spins,
        events=program.events[:idx] + program.events[idx + 1 :],
    )
    fid = _fidelity(
        simulate_program(broken, molecule3),
        zz_target_propagator(3, target, TAU),
    )
    assert fid < 0.99


def test_effective_uniform_coupling_values(molecule2, molecule3, molecule4):
    assert effective_uniform_coupling(molecule2) == pytest.approx(215.0)
    assert effective_uniform_coupling(molecule3) == pytest.approx(100 * -50 / 150.0)
    assert effective_uniform_coupling(molecule4) == pytest.approx(50 * -30 / 80.0)


def test_program_json_roundtrip(tmp_path, molecule3):
    compiled = compile_zz(molecule3, _target_for(molecule3), TAU)
    program = to_pulse_program(compiled)
    path = tmp_path / "events.json"
    program_to_json(program, path)
    loaded = program_from_json(path)
    assert loaded == program


def test_program_json_writes_numpy_spins_as_ints(tmp_path):
    # PulseProgram accepts a numpy spin index, but json.dump raised on it
    # partway through the file and left the part before it behind.
    delay = Delay(duration=1e-3, frame_offsets=(0.0, 0.0))
    numpy_spins = PulseProgram(
        2, (Rotation(spins=(np.int64(1),), axis="x", angle=0.5), delay)
    )
    plain = PulseProgram(2, (Rotation(spins=(1,), axis="x", angle=0.5), delay))
    program_to_json(numpy_spins, tmp_path / "numpy.json")
    program_to_json(plain, tmp_path / "plain.json")
    text = (tmp_path / "numpy.json").read_text(encoding="utf-8")
    assert text == (tmp_path / "plain.json").read_text(encoding="utf-8")
    assert program_from_json(tmp_path / "numpy.json") == plain


def test_program_json_with_an_unserialisable_value_writes_nothing(tmp_path):
    program = PulseProgram(1, (Delay(duration=Fraction(1, 2), frame_offsets=(0.0,)),))
    with pytest.raises(TypeError, match="not JSON serializable"):
        program_to_json(program, tmp_path / "events.json")
    assert list(tmp_path.iterdir()) == []


def test_program_validation():
    with pytest.raises(ValueError):
        PulseProgram(n_spins=2, events=(Delay(duration=-1.0, frame_offsets=(0.0, 0.0)),))
    with pytest.raises(ValueError):
        PulseProgram(n_spins=2, events=(Delay(duration=1.0, frame_offsets=(0.0,)),))
    with pytest.raises(ValueError):
        PulseProgram(n_spins=2, events=(Rotation(spins=(2,), axis="x", angle=1.0),))
    with pytest.raises(TypeError):
        PulseProgram(n_spins=2, events=("delay",))
    for event in (
        Delay(duration=math.nan, frame_offsets=(0.0, math.inf)),
        Delay(duration=math.inf, frame_offsets=(0.0, 0.0)),
        Delay(duration=1e-3, frame_offsets=(0.0, math.nan)),
        Rotation(spins=(0,), axis="q", angle=1.0),
    ):
        with pytest.raises(OutOfRange):
            PulseProgram(n_spins=2, events=(event,))


def test_simulate_program_applies_frame_offsets(molecule2):
    # A bare delay with frame offsets evolves by the offset z-rotations
    # on top of the coupling term.
    offset = 2 * math.pi * 50.0
    program = PulseProgram(
        n_spins=2, events=(Delay(duration=1e-3, frame_offsets=(offset, 0.0)),)
    )
    u = simulate_program(program, molecule2)
    plain = simulate_program(
        PulseProgram(n_spins=2, events=(Delay(duration=1e-3, frame_offsets=(0.0, 0.0)),)),
        molecule2,
    )
    z_rot = np.kron(
        np.diag([np.exp(-0.5j * offset * 1e-3), np.exp(0.5j * offset * 1e-3)]),
        np.eye(2),
    )
    assert np.allclose(u, z_rot @ plain, atol=1e-12)


# --- batched compiler and gate-free simulator against their oracles ----------


def _molecule(upper: np.ndarray) -> MoleculeSpec:
    """Molecule with zero shifts and the couplings of an upper-triangular table."""
    n = upper.shape[0]
    return MoleculeSpec(
        labels=tuple("abcd"[:n]), shifts_hz=np.zeros(n), couplings_hz=upper + upper.T
    )


@st.composite
def compilable_molecules(draw):
    """2-4 spins; signed adjacent couplings, non-adjacent ones zero half
    the time.  At four spins, tables with fewer than three non-adjacent
    couplings often have several optimal vertices."""
    n = draw(st.integers(2, 4))
    table = np.zeros((n, n))
    for i in range(n - 1):
        sign = draw(st.sampled_from((-1.0, 1.0)))
        table[i, i + 1] = sign * draw(st.floats(20.0, 200.0))
    for i in range(n):
        for k in range(i + 2, n):
            table[i, k] = draw(st.just(0.0) | st.floats(-15.0, 15.0))
    if n >= 3:
        assume(abs(table[n - 3, n - 2] - table[n - 2, n - 1]) >= 10.0)
    return _molecule(table)


def _assert_compiles_like_enumeration(m: MoleculeSpec, target_j: float) -> None:
    durations, patterns, placements = enumerated_zz_schedule(m, target_j, TAU)
    compiled = compile_zz(m, target_j, TAU)
    assert np.array_equal(compiled.segment_durations, durations)
    assert compiled.segment_patterns == patterns
    assert compiled.pi_pulse_placements == placements


@settings(max_examples=80, derandomize=True, deadline=None)
@given(m=compilable_molecules(), target_j=st.floats(-300.0, 300.0))
def test_compile_matches_vertex_enumeration(m, target_j):
    if enumerate_zz_vertices(m, target_j, TAU):
        _assert_compiles_like_enumeration(m, target_j)
        # A compile on the cached LP bases equals one that builds them.
        warm = compile_zz(m, target_j, TAU)
        pulsesim._lp_bases.cache_clear()
        assert_same_compile(warm, compile_zz(m, target_j, TAU))
    else:
        with pytest.raises(UnphysicalDurations):
            compile_zz(m, target_j, TAU)


def test_lp_bases_cache_is_bounded_by_its_key_space():
    # The bases depend on the size and on which non-adjacent couplings
    # are nonzero: 1, 2 and 8 patterns at 2, 3 and 4 spins.  A table
    # with no feasible vertex still reads its bases.
    keys = set()
    for n in (2, 3, 4):
        non_adjacent = [(i, k) for i in range(n) for k in range(i + 2, n)]
        for size in range(len(non_adjacent) + 1):
            for coupled in itertools.combinations(non_adjacent, size):
                table = np.diag([150.0, 60.0, 20.0][: n - 1], 1)
                for i, k in coupled:
                    table[i, k] = 7.0
                m = _molecule(table)
                try:
                    compile_zz(m, _target_for(m), TAU)
                except UnphysicalDurations:
                    pass
                rows = sorted([(i, i + 1) for i in range(n - 1)] + list(coupled))
                keys.add((n, tuple(rows)))
    assert len(keys) == pulsesim._lp_bases.cache_info().currsize == 11
    before = pulsesim._lp_bases.cache_info()
    for n, pairs in keys:
        patterns, subsets, blocks = pulsesim._lp_bases(n, pairs)
        assert isinstance(patterns, tuple) and len(patterns) == 2 ** (n - 1)
        assert len(subsets) == len(blocks) >= 1
        for a in (subsets, blocks):
            with pytest.raises(ValueError):
                a[0] *= 2
    assert pulsesim._lp_bases.cache_info().misses == before.misses


def test_rejected_tables_leave_the_lp_cache_alone(molecule3, molecule4):
    # _check_compilable runs before the bases are read.
    table3 = np.array(molecule3.couplings_hz)
    table3[0, 1] = table3[1, 0] = table3[1, 2]
    table4 = np.array(molecule4.couplings_hz)
    table4[2, 3] = table4[3, 2] = 0.0
    chain5 = np.diag(np.ones(4), 1)
    rejected = [
        (MoleculeSpec(molecule3.labels, molecule3.shifts_hz, table3), DegenerateCouplings),
        (MoleculeSpec(molecule4.labels, molecule4.shifts_hz, table4), DegenerateCouplings),
        (MoleculeSpec(tuple("abcde"), np.zeros(5), chain5 + chain5.T), OutOfRange),
    ]
    before, lp = cache_state(), pulsesim._lp_bases.cache_info()
    for m, error in rejected:
        with pytest.raises(error):
            compile_zz(m, 10.0, TAU)
    assert pulsesim._lp_bases.cache_info() == lp
    assert cache_state() == before


def test_compile_keeps_the_first_of_tied_vertices():
    # Vertices 0 and 2 tie to 1 ulp, and vertex 2 is the lower: a global
    # argmin would pick it and change the schedule.
    m, target_j = _molecule(np.diag([156.0, 27.0, 93.0], 1)), -242.0
    walls = [wall for wall, _, _ in enumerate_zz_vertices(m, target_j, TAU)]
    assert 0 < walls[0] - walls[2] <= 1e-15 * TAU
    assert int(np.argmin(walls)) == 2
    _assert_compiles_like_enumeration(m, target_j)
    patterns = enumerate_zz_vertices(m, target_j, TAU)[2][1]
    assert set(compile_zz(m, target_j, TAU).segment_patterns) != set(patterns)


def test_compile_rejects_nonfinite_target(molecule3):
    # Unchecked, a NaN target compiled to an empty schedule.
    for target_j in (math.nan, math.inf):
        with pytest.raises(OutOfRange):
            compile_zz(molecule3, target_j, TAU)


@st.composite
def programs_on_molecules(draw):
    """Random rotations (spins may repeat) and delays with frame offsets."""
    n = draw(st.integers(2, 4))
    events = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            spins = draw(st.lists(st.integers(0, n - 1), max_size=n + 1))
            axis = draw(st.sampled_from("xyz"))
            angle = draw(st.floats(-2.0 * math.pi, 2.0 * math.pi))
            events.append(Rotation(spins=tuple(spins), axis=axis, angle=angle))
        else:
            offsets = draw(st.lists(st.floats(-3e3, 3e3), min_size=n, max_size=n))
            duration = draw(st.floats(0.0, 1e-3))
            events.append(Delay(duration=duration, frame_offsets=tuple(offsets)))
    entries = draw(st.lists(st.floats(-200.0, 200.0), min_size=n * n, max_size=n * n))
    table = np.triu(np.reshape(entries, (n, n)), 1)
    return PulseProgram(n_spins=n, events=tuple(events)), _molecule(table)


_TWICE_LISTED = (
    PulseProgram(
        n_spins=3,
        events=(
            Rotation(spins=(1, 1, 2), axis="y", angle=0.9),
            Delay(duration=4e-4, frame_offsets=(300.0, -50.0, 0.0)),
            Rotation(spins=(0, 2, 0), axis="x", angle=math.pi),
        ),
    ),
    _molecule(np.diag([120.0, -80.0], 1)),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=programs_on_molecules())
@example(case=_TWICE_LISTED)
def test_simulate_program_matches_kron_gates(case):
    program, m = case
    u = simulate_program(program, m)
    assert np.max(np.abs(u - kron_simulate_program(program, m))) <= 1e-14


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    theta=st.floats(0.05, math.pi - 0.05),
    tau=st.floats(0.01, 0.5),
    j=st.floats(-2.0, 2.0),
)
def test_step_always_unitary(theta, tau, j):
    step = trotter_step(ChainSpec(2, j), FieldPoint(theta=theta), tau)
    assert np.allclose(step @ step.conj().T, np.eye(4), atol=1e-9)


# --- one propagation kernel against the dense per-step oracle ----------------

@settings(max_examples=20, derandomize=True, deadline=None)
@given(n=st.integers(1, 6), delta=st.floats(-math.pi, math.pi))
def test_y_frame_diagonalises_rotations_and_keeps_the_exchange(n, delta):
    # The ramp kernel runs in W = w (x) ... (x) w, w the sigma_y
    # eigenvectors: there every framing rotation is a diagonal phase and
    # the SU(2)-invariant exchange is unchanged.
    frame = functools.reduce(np.kron, [quench._Y_FRAME] * n)
    pole = FieldPoint(theta=0.0)
    exchange = build_heisenberg(ChainSpec(n, 0.0), pole) - build_heisenberg(
        ChainSpec(n, 1.0), pole
    )
    assert np.max(np.abs(frame.conj().T @ exchange @ frame - exchange)) <= 1e-12
    m = model._site_table(n).m
    rotated = frame.conj().T @ collective_ry(n, delta) @ frame
    assert np.max(np.abs(rotated - np.diag(np.exp(-0.5j * delta * m)))) <= 1e-12


@st.composite
def plateau_chains(draw):
    """A chain of 1-7 spins with J inside any plateau of its pole ground
    sector in [-2, 2], kept a tenth of the plateau from its crossings."""
    n = draw(st.integers(1, 7))
    edges = [-2.0, *find_crossings(ChainSpec(n, 0.0), (-2.0, 2.0)), 2.0]
    k = draw(st.integers(0, len(edges) - 2))
    t = draw(st.floats(0.1, 0.9))
    return ChainSpec(n, edges[k] + t * (edges[k + 1] - edges[k]))


# The mirror sector restriction of ``_ramp_state`` rests on these three
# facts about bit reversal, the mirror reflection of the open chain.
@settings(max_examples=40, derandomize=True, deadline=None)
@given(spec=plateau_chains(), v=st.sampled_from(RAMP_RATES))
def test_bit_reversal_commutes_with_the_split_step_core(spec, v):
    mirror = model._site_table(spec.n_spins).mirror
    step_time = QuenchProtocol(v, ORACLE_STEPS).step_time
    eye = np.eye(2**spec.n_spins)
    core = pulsesim._trotter_core(spec, 1.0, step_time, eye, eye)
    assert np.max(np.abs(core[np.ix_(mirror, mirror)] - core)) <= 1e-13


@pytest.mark.parametrize("n", range(1, 8))
def test_bit_reversal_keeps_the_m_labels(n):
    sites = model._site_table(n)
    assert np.array_equal(sites.m[sites.mirror], sites.m)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(spec=plateau_chains())
def test_pole_ground_state_has_a_mirror_parity(spec):
    # The Trotter start is the sector state of that ground state: it
    # unfolds to it, and its parity is the state's.
    mirror = model._site_table(spec.n_spins).mirror
    ground = pole_ground_state(spec)
    frame = functools.reduce(np.kron, [quench._Y_FRAME] * spec.n_spins)
    for state in (ground, frame.conj().T @ ground):
        parity = np.vdot(state, state[mirror]).real
        assert abs(abs(parity) - 1.0) <= 1e-12
        assert np.max(np.abs(state[mirror] - np.sign(parity) * state)) <= 1e-12
    gap, sigma, start = quench._trotter_start(spec)
    assert sigma == np.sign(np.vdot(ground, ground[mirror]).real)
    assert gap == pole_system(spec).ground_gap
    assert np.max(np.abs(_unfold(spec, start) - ground)) <= 1e-14


@pytest.mark.parametrize("n, j", PLATEAU_CASES)
def test_trotter_ramp_matches_dense_oracle(n, j):
    spec = ChainSpec(n, j)
    for v in RAMP_RATES:
        proto = QuenchProtocol(v, ORACLE_STEPS)
        psi, m_phi, overlap = dense_ramp(spec, proto, trotter=True)
        result = simulate_protocol_trotter(spec, proto)
        assert_same_state(_unfold(spec, _sector_ramp(spec, proto)), psi)
        assert result.m_phi == pytest.approx(m_phi, abs=1e-10)
        assert result.adiabatic_overlap == pytest.approx(overlap, abs=1e-10)


@pytest.mark.parametrize("n, j", PLATEAU_CASES)
def test_perturbed_fidelity_matches_dense_oracle(n, j):
    spec = ChainSpec(n, j)
    seed, trials, error_deg = 11, 2, 5.0
    bound = math.radians(error_deg)
    for v in RAMP_RATES:
        proto = QuenchProtocol(v, ORACLE_STEPS)
        ideal = dense_ramp(spec, proto, trotter=True)[0]
        worst = 1.0
        for trial in range(trials):
            offsets = np.random.default_rng(seed + trial).uniform(
                -bound, bound, ORACLE_STEPS
            )
            psi = dense_ramp(spec, proto, trotter=True, offsets=offsets)[0]
            worst = min(worst, abs(np.vdot(ideal, psi)) ** 2)
        assert perturbed_fidelity(
            spec, proto, error_deg, seed=seed, trials=trials
        ) == pytest.approx(worst, abs=1e-10)


@pytest.mark.parametrize("n", range(1, 9))
def test_sector_readout_matches_the_full_space_one(n):
    # On every plateau, both mirror parities at even N: the readouts
    # summed over the sector state with the representatives' counts
    # against the oracle's readout of the unfolded 2^n state, and the
    # fidelity against 2^n overlaps of the unfolded trials.
    proto = QuenchProtocol(0.29, ORACLE_STEPS)
    seed, trials, error_deg = 5, 3, 4.0
    bound = math.radians(error_deg)
    offsets = np.zeros((proto.steps, trials + 1))
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        offsets[:, trial + 1] = rng.uniform(-bound, bound, proto.steps)
    edges = [-2.0, *find_crossings(ChainSpec(n, 0.0), (-2.0, 2.0)), 2.0]
    parities = set()
    for lo, hi in zip(edges, edges[1:]):
        spec = ChainSpec(n, 0.5 * (lo + hi))
        parities.add(quench._trotter_start(spec)[1])
        ground = pole_ground_state(spec)
        result = simulate_protocol_trotter(spec, proto)
        psi = _unfold(spec, _sector_ramp(spec, proto))
        m_phi, overlap = ramp_readout(ground, psi, proto)
        assert abs(result.m_phi - m_phi) <= 1e-13
        assert abs(result.adiabatic_overlap - overlap) <= 1e-13
        ideal, *noisy = _unfold(spec, _sector_ramp(spec, proto, offsets))
        worst = min(abs(np.vdot(ideal, state)) ** 2 for state in noisy)
        fidelity = perturbed_fidelity(spec, proto, error_deg, seed=seed, trials=trials)
        assert abs(fidelity - worst) <= 1e-13
    assert parities == ({1.0} if n % 2 else {1.0, -1.0})


# Ramp error against the exact integrator at the same step count, on the
# plateaus of PLATEAU_CASES with N >= 3 except the one whose pole ground
# state has the smallest M_z (J = -1.2, -1.4, -1.2, -1.5 for N = 3-6).
# There the tau^2 term of the m_phi error cancels and it falls as tau^4:
# at N = 3, J = -1.2 it reads 1.0e-6, 6.3e-8 and 3.9e-9 at 600, 1200 and
# 2400 steps.
SECOND_ORDER_CASES = [
    (3, 0.8), (4, -0.5), (4, 0.85), (5, -0.36), (5, 0.86),
    (6, -0.69), (6, -0.31), (6, 0.87),
]  # fmt: skip


def _trotter_ramp_errors(spec: ChainSpec) -> list:
    errors = []
    for steps in (150, 300, 600):
        proto = QuenchProtocol(0.1, steps)
        trotter = simulate_protocol_trotter(spec, proto).m_phi
        errors.append(abs(trotter - evolve_quench(spec, proto).m_phi))
    return errors


@pytest.mark.parametrize("n, j", SECOND_ORDER_CASES)
def test_trotter_ramp_error_is_second_order(n, j):
    errors = _trotter_ramp_errors(ChainSpec(n, j))
    assert all(3.5 <= a / b <= 4.5 for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("j", [-1.25, 0.75])
def test_two_spin_trotter_ramp_is_exact(j):
    # A single bond's zz and xx+yy parts commute, so the split step is the
    # exact step (measured error <= 2.1e-14).
    assert max(_trotter_ramp_errors(ChainSpec(2, j))) <= 1e-13


def test_trotter_step_checks_the_cap_before_it_builds_a_frame(monkeypatch):
    def built(*args):
        raise AssertionError("the rotation was built for a chain over the cap")

    monkeypatch.setattr(pulsesim, "_rotate_y", built)
    with pytest.raises(DimensionCap):
        trotter_step(ChainSpec(3, 1.0, max_spins=2), POINT, 0.1)


def test_warm_trotter_ramp_forms_no_full_space_matrix():
    # The sector core is built on d x 2^N arrays, at most two of them at
    # once, and the ramp holds the d x d core: at N = 10 (d = 528 or
    # 496) that is under 21 MiB, where one 2^N x 2^N complex array
    # takes 16 MiB; the dense core and its projection peaked at 48 MiB.
    spec, proto = ChainSpec(10, -0.3), QuenchProtocol(0.1, 300)
    simulate_protocol_trotter(spec, proto)  # fills the caches
    d = quench._mirror_sector(10, quench._trotter_start(spec)[1]).count.size
    bound = 16 * (2 * d * 2**10 + d * d) + 2**20  # complex128, plus 1 MiB
    tracemalloc.start()
    try:
        simulate_protocol_trotter(spec, proto)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_ramps_reject_chain_over_cap():
    spec = ChainSpec(3, 1.0, max_spins=2)
    with pytest.raises(DimensionCap):
        trotter_step(spec, POINT, 0.1)
    with pytest.raises(DimensionCap):
        simulate_protocol_trotter(spec, PROTO)
    with pytest.raises(DimensionCap):
        perturbed_fidelity(spec, PROTO, 1.0, trials=1)
