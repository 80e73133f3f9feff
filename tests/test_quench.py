from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinchern.model as model
import spinchern.pulsesim as pulsesim
import spinchern.quench as quench
from spinchern import (
    ChainSpec,
    DegenerateGroundState,
    DimensionCap,
    FieldPoint,
    OutOfRange,
    QuenchProtocol,
    StepCountTooSmall,
    SweepConfig,
    VelocityOutOfLinearZone,
    build_heisenberg,
    curvature_spectral,
    evolve_quench,
    extract_curvature,
    linear_zone_scan,
    perturbed_fidelity,
    pole_system,
    run_sweep,
    simulate_protocol_trotter,
    theta_of_t,
)
from spinchern.quench import CONVERGENCE_TOL

from _internals import pole_ground_state, product_chunks
from _oracles import (
    ORACLE_STEPS,
    PLATEAU_CASES,
    RAMP_RATES,
    assert_same_state,
    cache_state,
    dense_ramp,
    eigh,
    one_spin_ramp,
    param_derivative,
    pole_ground_magnetization,
    ramp_readout,
)

EQUATOR = FieldPoint(theta=math.pi / 2)
SLOW = QuenchProtocol(v_theta=0.1, steps=300)

# Product chunk length, in steps, set for the one-spin oracle test, so
# that a ramp of a few hundred steps multiplies several chunks.
CHUNK = 512


def _exact_final_state(spec, proto):
    """(u (x) ... (x) u) g, the chain state of an exact ramp up to its
    global phase, with u the oracle's one-spin ramp."""
    return model._each_spin(one_spin_ramp(proto), pole_ground_state(spec))


def _trotter_state(spec, proto):
    """The final z-frame state of a Trotter ramp: its sector state, which
    the readout reads, unfolded by the sector's frame."""
    _, parity, ground = quench._trotter_start(spec)
    sector = quench._mirror_sector(spec.n_spins, parity)
    enter, right = sector.enter, sector.right
    core = pulsesim._trotter_core(spec, 1.0, proto.step_time, enter, right)
    return right @ quench._ramp_state(ground, spec.n_spins, parity, core, proto)


def test_protocol_validation():
    with pytest.raises(OutOfRange):
        QuenchProtocol(v_theta=0.0)
    with pytest.raises(OutOfRange):
        QuenchProtocol(v_theta=-1.0)
    with pytest.raises(OutOfRange):
        QuenchProtocol(v_theta=1.0, steps=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(OutOfRange):
            QuenchProtocol(v_theta=bad)
    assert QuenchProtocol(v_theta=2.0).total_time == pytest.approx(math.pi / 2)


@pytest.mark.parametrize("v", [1e155, 1.35e154, 1.7e308, 2.3e-154, 1e-160, 5e-324])
def test_protocol_rejects_rates_whose_ramp_arithmetic_overflows(v, monkeypatch):
    # Finite rates whose square or squared ramp time pi / v overflows or
    # vanishes: 1e155 raised a bare OverflowError from v_theta**2 and
    # 1e-160 one from the squared ramp time, both mid-ramp.  A sweep and
    # a scan refuse them before any ramp.
    ramps = []
    monkeypatch.setattr(quench, "evolve_quench", lambda *args: ramps.append(args))
    with pytest.raises(OutOfRange, match="v_theta"):
        QuenchProtocol(v_theta=v)
    for method in ("dynamical", "trotter"):
        with pytest.raises(OutOfRange, match="v_theta"):
            SweepConfig(
                spec=ChainSpec(2, 0.0), j_values=(1.0,), method=method,
                velocities=(0.1, v),
            )  # fmt: skip
    with pytest.raises(OutOfRange, match="v_theta"):
        linear_zone_scan(ChainSpec(2, 1.0), sorted([0.1, v]))
    assert ramps == []


@pytest.mark.parametrize("v", [2.4e-154, 1.3e154])
def test_protocol_accepts_the_ends_of_the_rate_range(v):
    # Just inside both ends, the ramp still ends at the equator and the
    # exact ramp reads finite numbers.
    proto = QuenchProtocol(v_theta=v)
    assert proto.final_angle == pytest.approx(math.pi / 2, rel=1e-15)
    result = evolve_quench(ChainSpec(2, 1.0), proto)
    assert math.isfinite(result.m_phi) and math.isfinite(result.adiabatic_overlap)


def test_protocol_rejects_fractional_steps():
    # The ramp is a product over a whole number of steps.
    with pytest.raises(OutOfRange):
        QuenchProtocol(v_theta=0.1, steps=2.5)


def test_ramp_rejects_chain_over_cap():
    with pytest.raises(DimensionCap):
        evolve_quench(ChainSpec(3, 1.0, max_spins=2), SLOW, check_convergence=True)


def test_ramp_profile_endpoints_and_window():
    proto = QuenchProtocol(v_theta=0.5)
    assert theta_of_t(proto, 0.0) == 0.0
    assert theta_of_t(proto, proto.total_time) == pytest.approx(math.pi / 2)
    assert theta_of_t(proto, proto.total_time / 2) == pytest.approx(math.pi / 8)
    with pytest.raises(OutOfRange):
        theta_of_t(proto, -1e-9)
    with pytest.raises(OutOfRange):
        theta_of_t(proto, proto.total_time * 1.01)
    # Unchecked, a NaN time returned NaN, also inside an array.
    for t in (math.nan, math.inf, -math.inf, np.array([0.0, math.nan])):
        with pytest.raises(OutOfRange, match="not finite"):
            theta_of_t(proto, t)


def test_slow_ramp_reads_off_the_curvature():
    for n, j in ((1, 0.0), (2, 1.0), (3, 1.0)):
        spec = ChainSpec(n, j)
        f_static = curvature_spectral(spec, EQUATOR).f_phitheta
        result = evolve_quench(spec, SLOW)
        assert result.f_extracted == pytest.approx(f_static, rel=0.01)
        assert result.v_theta == 0.1


def test_response_ratio_is_size_and_coupling_universal():
    # Within a plateau the interaction only shifts the ground multiplet's
    # energy, so the scaled response m_phi/(v F) collapses onto a single
    # curve for every chain: the free-spin one.
    ratios = []
    for n, j in ((1, 0.0), (2, 1.0), (2, 1.7), (3, 1.0)):
        spec = ChainSpec(n, j)
        f_static = curvature_spectral(spec, EQUATOR).f_phitheta
        ratios.append(evolve_quench(spec, SLOW).f_extracted / f_static)
    assert np.ptp(ratios) < 1e-9


def test_adiabatic_overlap_high_for_slow_ramps():
    result = evolve_quench(ChainSpec(2, 1.0), SLOW)
    assert result.adiabatic_overlap > 0.99
    fast = evolve_quench(ChainSpec(2, 1.0), QuenchProtocol(5.0, 300))
    assert fast.adiabatic_overlap < result.adiabatic_overlap


def test_degenerate_start_raises():
    with pytest.raises(DegenerateGroundState):
        evolve_quench(ChainSpec(2, -0.5), SLOW)


def test_convergence_guard():
    with pytest.raises(StepCountTooSmall):
        evolve_quench(
            ChainSpec(2, 1.0), QuenchProtocol(1.0, 3), check_convergence=True
        )
    evolve_quench(ChainSpec(2, 1.0), SLOW, check_convergence=True)


def test_generalized_force_equals_transverse_magnetization():
    # The generalized force is -<psi|dH/dphi|psi>, read at the equator,
    # on the chain's final state u (x) u g; the route reads one spin.
    spec = ChainSpec(2, 1.0)
    result = evolve_quench(spec, SLOW)
    psi = _exact_final_state(spec, SLOW)
    force = -np.real(np.vdot(psi, param_derivative(spec, EQUATOR, "phi") @ psi))
    assert force == pytest.approx(result.m_phi, abs=1e-12)


def test_extract_curvature_single_and_multi():
    ra = evolve_quench(ChainSpec(2, 1.0), QuenchProtocol(0.05, 300))
    rb = evolve_quench(ChainSpec(2, 1.0), QuenchProtocol(0.1, 300))
    assert extract_curvature([rb]) == pytest.approx(rb.m_phi / 0.1)
    fitted = extract_curvature([ra, rb])
    manual = (ra.v_theta * ra.m_phi + rb.v_theta * rb.m_phi) / (
        ra.v_theta**2 + rb.v_theta**2
    )
    assert fitted == pytest.approx(manual, abs=1e-14)
    with pytest.raises(ValueError):
        extract_curvature([])


def test_extract_curvature_warns_beyond_linear_zone():
    fast = evolve_quench(ChainSpec(2, 1.0), QuenchProtocol(2.0, 300))
    with pytest.warns(VelocityOutOfLinearZone):
        extract_curvature([fast])


def test_linear_zone_scan_shape_and_node():
    spec = ChainSpec(2, 1.0)
    table = linear_zone_scan(spec, [0.05, 0.5, 1.0, 1.53], steps=300)
    assert [v for v, _ in table] == [0.05, 0.5, 1.0, 1.53]
    ratios = {v: r for v, r in table}
    # Response sags towards v~1 and passes through the quantized value at
    # an isolated node of its ringing near v = 1.53; the linear zone
    # itself ends far earlier, at LINEAR_ZONE_CAP.
    assert ratios[1.0] < ratios[0.5] < ratios[0.05]
    assert ratios[1.53] == pytest.approx(1.0, abs=5e-4)


def test_linear_zone_scan_validation():
    with pytest.raises(OutOfRange):
        linear_zone_scan(ChainSpec(2, 1.0), [0.0, 0.1])
    with pytest.raises(ValueError):
        linear_zone_scan(ChainSpec(2, 1.0), [0.2, 0.1])


@pytest.mark.parametrize(
    "rates, steps, named",
    [
        pytest.param([], 300, "velocities must not be empty", id="empty"),
        pytest.param([0.1, math.nan], 300, r"velocities\[1\]", id="nan"),
        pytest.param([0.1, math.inf], 300, r"velocities\[1\]", id="inf"),
        pytest.param([0.1, "0.2"], 300, r"velocities\[1\]", id="string"),
        pytest.param([None, 0.1], 300, r"velocities\[0\]", id="none"),
        pytest.param([0.1, True], 300, r"velocities\[1\]", id="bool"),
        pytest.param([0.1, 0.2], 0, "steps", id="steps_zero"),
    ],
)
def test_linear_zone_scan_checks_every_rate_before_its_first_ramp(
    monkeypatch, rates, steps, named
):
    # Before, [0.1, nan] and [0.1, inf] ran the v = 0.1 ramp and only
    # then raised from QuenchProtocol, and [] returned [].
    ramps = []
    monkeypatch.setattr(quench, "evolve_quench", lambda *args: ramps.append(args))
    with pytest.raises(OutOfRange, match=named):
        linear_zone_scan(ChainSpec(2, 1.0), rates, steps=steps)
    assert ramps == []


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    v=st.floats(0.05, 1.5),
    n=st.sampled_from([1, 2]),
)
def test_final_state_is_normalized(v, n):
    # The state an exact ramp reads is one free spin's, u|up>, and at
    # J = 1 the chain's M_g is N.
    proto = QuenchProtocol(v, 50)
    result = evolve_quench(ChainSpec(n, 1.0), proto)
    spin = one_spin_ramp(proto)[:, 0]
    assert np.linalg.norm(spin) == pytest.approx(1.0, abs=1e-9)
    m_one = ramp_readout(np.array([1.0, 0.0]), spin, proto)[0]
    assert result.m_phi == pytest.approx(n * m_one, abs=1e-11)
    assert 0.0 <= result.adiabatic_overlap <= 1.0 + 1e-12


@pytest.mark.parametrize("n, j", PLATEAU_CASES)
def test_evolve_quench_matches_dense_oracle(n, j):
    spec = ChainSpec(n, j)
    for v in RAMP_RATES:
        proto = QuenchProtocol(v, ORACLE_STEPS)
        _, m_phi, overlap = dense_ramp(spec, proto)
        result = evolve_quench(spec, proto)
        assert result.m_phi == pytest.approx(m_phi, abs=1e-10)
        assert result.adiabatic_overlap == pytest.approx(overlap, abs=1e-10)

        m_fine = dense_ramp(spec, replace(proto, steps=2 * ORACLE_STEPS))[1]
        if abs(m_fine - m_phi) > CONVERGENCE_TOL:
            with pytest.raises(StepCountTooSmall):
                evolve_quench(spec, proto, check_convergence=True)
        else:
            checked = evolve_quench(spec, proto, check_convergence=True)
            assert checked.m_phi == pytest.approx(m_phi, abs=1e-10)


@pytest.mark.parametrize("n, j", [(3, 0.8), (5, -0.36)])
def test_full_length_ramps_match_dense_oracle(n, j):
    # The default 300-step protocol, as the sweeps run it: guards the
    # phase accumulated over a whole ramp, which the 40-step oracle
    # comparisons above cannot.
    spec = ChainSpec(n, j)
    for trotter, ramp in ((False, evolve_quench), (True, simulate_protocol_trotter)):
        psi, m_phi, overlap = dense_ramp(spec, SLOW, trotter=trotter)
        result = ramp(spec, SLOW)
        if trotter:
            assert_same_state(_trotter_state(spec, SLOW), psi)
        assert result.m_phi == pytest.approx(m_phi, abs=1e-10)
        assert result.adiabatic_overlap == pytest.approx(overlap, abs=1e-10)


@pytest.mark.parametrize("n, j", [c for c in PLATEAU_CASES if c[0] >= 2])
@settings(max_examples=5, derandomize=True, deadline=None)
@given(v=st.floats(0.05, 2.0), steps=st.integers(1, 300))
def test_ramp_is_the_free_spin_ramp_of_the_ground_multiplet(n, j, v, steps):
    # The exchange commutes with every field term, so the pole ground
    # state, with total sigma_z M_g, moves as a spin coherent state of
    # spin M_g / 2: its readout is M_g times that of one free spin and its
    # adiabatic overlap that of one free spin to the power M_g.
    spec = ChainSpec(n, j)
    proto = QuenchProtocol(v, steps)
    _, m_one, overlap_one = dense_ramp(ChainSpec(1, 0.0), proto)
    m_g = pole_ground_magnetization(spec)
    result = evolve_quench(spec, proto)
    assert result.m_phi == pytest.approx(m_g * m_one, abs=1e-10)
    assert result.adiabatic_overlap == pytest.approx(overlap_one**m_g, abs=1e-10)


def test_eight_spin_ramp_matches_dense_oracle():
    # M_g = 4, between the pole crossings at J = -0.435 and -0.302, so the
    # ground state is entangled rather than a product state.
    # The chain's final state is the oracle's, e^{i J lambda_g T}
    # (u (x) ... (x) u) g, global phase included.  The oracle starts from
    # its own eigensolve, so the start states' relative phase is taken
    # out.
    spec = ChainSpec(8, -0.37)
    assert pole_ground_magnetization(spec) == 4
    pole = FieldPoint(theta=0.0)
    system = pole_system(spec)
    dense_ground = eigh(build_heisenberg(spec, pole)).ground_state
    start = np.vdot(dense_ground, pole_ground_state(spec))
    for v in (0.1, 2.0):
        proto = QuenchProtocol(v, ORACLE_STEPS)
        psi, m_phi, overlap = dense_ramp(spec, proto)
        result = evolve_quench(spec, proto)
        phase = np.exp(-1j * (system.values[0] + system.sectors[0]) * proto.total_time)
        final = phase * _exact_final_state(spec, proto)
        assert np.max(np.abs(final - start * psi)) <= 1e-10
        assert result.m_phi == pytest.approx(m_phi, abs=1e-10)
        assert result.adiabatic_overlap == pytest.approx(overlap, abs=1e-10)


# --- the per-protocol tables --------------------------------------------------


def test_dynamical_sweep_builds_one_free_spin_product(monkeypatch):
    # Every row of every chain size shares the protocol, so only the
    # first ramp misses the readout cache and runs the one-spin ramp.  A
    # rate no other test uses.
    builds = []
    build = quench._ramp_state
    monkeypatch.setattr(
        quench, "_ramp_state", lambda *a: builds.append(a[4]) or build(*a)
    )
    before = quench._spin_readout.cache_info()
    rows = []
    for n in (2, 3, 4):
        cfg = SweepConfig(
            spec=ChainSpec(n, 0.0),
            j_values=(-1.7, 0.8, 1.5),
            method="dynamical",
            velocities=(0.0937,),
        )
        rows += run_sweep(cfg)
    after = quench._spin_readout.cache_info()
    assert len(rows) == 9 and all(row.converged for row in rows)
    assert builds == [QuenchProtocol(0.0937)]
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == len(rows) - 1


def test_warm_free_spin_product_is_the_uncached_one():
    # The cached readout of the free-spin product.  Protocols that share
    # a rate or a step count are distinct entries.
    up = np.array([1.0, 0.0])
    for proto in (SLOW, replace(SLOW, steps=600), replace(SLOW, v_theta=0.2)):
        quench._spin_readout(proto)
        warm = quench._spin_readout(proto)
        cold = quench._spin_readout.__wrapped__(proto)
        assert warm == cold
        oracle = ramp_readout(up, one_spin_ramp(proto)[:, 0], proto)
        assert warm == pytest.approx(oracle, abs=1e-11)
        assert all(type(x) is float for x in warm)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(v=st.floats(0.03, 5.0), steps=st.integers(1, 4000))
@example(v=0.03, steps=1)
@example(v=5.0, steps=quench._GROUP_STEPS - 1)
@example(v=0.29, steps=quench._GROUP_STEPS + 3)
@example(v=0.1, steps=CHUNK + 5)
@example(v=2.0, steps=2 * CHUNK + 1)
@example(v=0.05, steps=4000)
def test_spin_readout_is_the_oracle_one_spin_ramp(v, steps):
    # The exact ramp's one-spin readout is the ramp kernel's N = 1 run;
    # the oracle multiplies 2x2 expm steps.  Counts no multiple of the
    # group length apply their earliest steps one by one, and counts
    # past the chunk bound multiply several products.  One spin's chunk
    # holds 65536 steps, so each ramp runs again in chunks of CHUNK.
    proto = QuenchProtocol(v, steps)
    spin = one_spin_ramp(proto)[:, 0]
    m_phi, overlap = ramp_readout(np.array([1.0, 0.0]), spin, proto)
    readouts = [quench._spin_readout.__wrapped__(proto)]
    with product_chunks(CHUNK, 2):
        readouts.append(quench._spin_readout.__wrapped__(proto))
    for got_m_phi, got_overlap in readouts:
        assert abs(got_m_phi - m_phi) <= 1e-11
        assert abs(got_overlap - overlap) <= 1e-11


def test_exact_ramps_store_no_step_phase_table():
    # The one-spin ramp runs as a stack of one, which builds its phases
    # per call: behind the cached readout a stored table would never be
    # read again, and would evict the Trotter ramps' tables.  Rates no
    # other test uses.
    spec = ChainSpec(3, 0.8)
    simulate_protocol_trotter(spec, SLOW)
    before = quench._step_phases.cache_info()
    readouts = quench._spin_readout.cache_info().misses
    for k in range(20):
        evolve_quench(spec, QuenchProtocol(0.0411 + 0.0007 * k))
    after = quench._step_phases.cache_info()
    assert quench._spin_readout.cache_info().misses == readouts + 20
    assert after.currsize == before.currsize and after.misses == before.misses


@pytest.mark.parametrize("n, j", [(2, -1.25), (3, 0.8), (5, 0.86)])
def test_warm_step_phases_are_the_uncached_ones(n, j):
    # An odd sector, an even one and one on the step loop.  A plan has
    # the entry row, one row per step, which only the step loop also
    # reads as a tuple of views, and the readout row of R(theta_f), with
    # the bits of its own phase call.
    parity = quench._trotter_start(ChainSpec(n, j))[1]
    sector = quench._mirror_sector(n, parity)
    dim = sector.count.size
    loop = dim > quench._PRODUCT_MAX_DIM
    for proto in (SLOW, replace(SLOW, steps=600), replace(SLOW, v_theta=0.2)):
        quench._step_phases(proto, n, parity)
        warm = quench._step_phases(proto, n, parity)
        cold = quench._step_phases.__wrapped__(proto, n, parity)
        shapes = {"entry": (dim,), "steps": (proto.steps, dim), "readout": (dim,)}
        for name, shape in shapes.items():
            got, want = getattr(warm, name), getattr(cold, name)
            assert got.shape == shape and not got.flags.writeable
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert len(warm.rows) == len(cold.rows) == (proto.steps if loop else 0)
        for got, want, step in zip(warm.rows, cold.rows, warm.steps):
            assert got.shape == (dim,) and not got.flags.writeable
            assert got.tobytes() == want.tobytes() == step.tobytes()
        readout = quench._rotation_phases(proto.final_angle, sector)
        assert warm.readout.tobytes() == readout.tobytes()


def _sector_labels(n, parity):
    """The M_z labels of the sector's representatives, from the site
    table: every b <= rev(b), palindromes dropped in the odd sector."""
    sites = model._site_table(n)
    index = np.arange(2**n)
    keep = index <= sites.mirror if parity > 0 else index < sites.mirror
    return sites.m[np.flatnonzero(keep)]


@pytest.mark.parametrize("n", range(1, 11))
def test_label_wise_phases_are_the_elementwise_exponential(n):
    # One exponential per label magnitude, a conjugate per negative
    # label and a gather give the bits and the layout of exp(-i a m / 2)
    # taken entry by entry: single ramps' angles (S,), a stack's (S, T)
    # and one ramp's strided column of them, a final angle, and at N <= 4
    # the 65536 steps of one spin's longest product chunk.
    rng = np.random.default_rng(n)
    stack = rng.uniform(-4.0, 4.0, (300, 6))
    arrays = [
        quench._step_deltas(quench._midpoint_angles(SLOW)),
        stack,
        stack.T[2],
        np.float64(-1.234),
    ]
    if n <= 4:
        arrays.append(quench._midpoint_angles(QuenchProtocol(0.1, 65536)))
    for parity in (1.0, -1.0):
        sector = quench._mirror_sector(n, parity)
        m = _sector_labels(n, parity)
        assert sector.spins.size <= n + 1
        for angles in arrays:
            got = quench._rotation_phases(angles, sector)
            want = np.exp(-0.5j * np.multiply.outer(angles, m))
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()


def _elementwise_phases(angles, sector):
    """exp(-i a m / 2) entry by entry, as the phases were built before
    they were built per label magnitude."""
    m = sector.weights / sector.count
    return np.exp(-0.5j * np.multiply.outer(angles, m))


def test_spin_readout_keeps_its_bits_under_label_wise_phases(monkeypatch):
    # 24 protocols from v = 0.05 to 5 and from 1 to 4000 steps; one
    # spin's two phases are one exponential and its conjugate.
    protocols = [
        QuenchProtocol(v, steps)
        for v in (0.05, 0.1, 0.29, 1.0, 2.0, 5.0)
        for steps in (1, 7, 300, 4000)
    ]
    label_wise = [quench._spin_readout.__wrapped__(p) for p in protocols]
    monkeypatch.setattr(quench, "_rotation_phases", _elementwise_phases)
    assert label_wise == [quench._spin_readout.__wrapped__(p) for p in protocols]


@pytest.mark.parametrize(
    "n, j", [(1, 0.5), (2, -1.25), (3, 0.8), (5, 0.86), (6, -0.31)]
)
def test_warm_pole_starts_are_the_uncached_ones(n, j):
    # The cached start is the sector state the per-call gathers built,
    # with its bits, and a single ramp from it reads out like its stack
    # of one.
    spec = ChainSpec(n, j)
    block = (int(pole_system(spec).sectors[0]) + n) // 2
    quench._trotter_start(spec)
    parity, warm = quench._pole_start(n, block, j > 0.0)
    cold_parity, cold = quench._pole_start.__wrapped__(n, block, j > 0.0)
    assert parity == cold_parity and warm.tobytes() == cold.tobytes()
    # enter g for the oracle's ground state g, up to its global phase
    sector = quench._mirror_sector(n, parity)
    want = sector.enter @ pole_ground_state(spec)
    norm = np.linalg.norm(want)
    assert np.linalg.norm(warm) == pytest.approx(norm, abs=1e-12)
    assert abs(np.vdot(want, warm)) == pytest.approx(norm**2, abs=1e-12)
    core = pulsesim._trotter_core(spec, 1.0, SLOW.step_time, sector.enter, sector.right)
    zero = np.zeros((SLOW.steps, 1))
    single = quench._ramp_readout(warm, n, parity, core, SLOW)
    assert single == quench._ramp_readout(warm, n, parity, core, SLOW, zero)


def test_pole_start_cache_is_bounded_by_its_key_space():
    # The start depends on the size, the ground block and the sign of J,
    # at most 2 (N + 1) entries per size, however many couplings run.
    quench._pole_start.cache_clear()
    keys = set()
    for n in range(1, 7):
        for j in np.linspace(-2.0, 2.0, 81):
            spec = ChainSpec(n, float(j))
            try:
                quench._trotter_start(spec)
            except DegenerateGroundState:
                continue
            m_g = int(pole_system(spec).sectors[0])
            keys.add((n, (m_g + n) // 2, j > 0.0))
    assert quench._pole_start.cache_info().currsize == len(keys)
    assert all(sum(k[0] == n for k in keys) <= 2 * (n + 1) for n in range(1, 7))


def test_trotter_sweep_builds_each_step_phase_table_once():
    # Over two sizes, each (protocol, sector) builds one table of step
    # phases, and every later row hits it.  N = 2 starts in its odd
    # sector at J = -1.25 and in its even one at 0.75; N = 3 starts in
    # its even one at every coupling.  A rate no other test uses.
    before = quench._step_phases.cache_info()
    rows = []
    for n, couplings in ((2, (-1.25, 0.75, -1.3, 0.8)), (3, (-1.2, 0.8, 1.1))):
        cfg = SweepConfig(
            spec=ChainSpec(n, 0.0), j_values=couplings, method="trotter",
            velocities=(0.0913,), steps=120,
        )  # fmt: skip
        rows += run_sweep(cfg)
    after = quench._step_phases.cache_info()
    assert len(rows) == 7 and all(row.converged for row in rows)
    assert after.misses - before.misses == 3
    assert after.hits - before.hits == len(rows) - 3


@settings(max_examples=200, derandomize=True, deadline=None)
@given(v=st.floats(0.01, 10.0), steps=st.integers(1, 4000))
def test_final_angle_is_theta_of_t_at_the_end(v, steps):
    proto = QuenchProtocol(v, steps)
    assert proto.final_angle == theta_of_t(proto, proto.total_time)


def _assert_raises_before_any_cache_access(call):
    before = cache_state()
    with pytest.raises(OutOfRange):
        call()
    assert cache_state() == before


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: QuenchProtocol(0.1, steps=True), id="steps_bool"),
        pytest.param(lambda: ChainSpec(2.5, 1.0), id="n_spins_fractional"),
        pytest.param(lambda: ChainSpec(True, 1.0), id="n_spins_bool"),
        pytest.param(
            lambda: ChainSpec(3, 1.0, max_spins=2.5), id="max_spins_fractional"
        ),
        pytest.param(lambda: ChainSpec(3, 1.0, max_spins=True), id="max_spins_bool"),
        pytest.param(
            lambda: perturbed_fidelity(ChainSpec(3, 1.0), SLOW, 3.0, trials=2.5),
            id="trials_fractional",
        ),
        pytest.param(
            lambda: perturbed_fidelity(ChainSpec(3, 1.0), SLOW, 3.0, trials=True),
            id="trials_bool",
        ),
        pytest.param(
            lambda: SweepConfig(spec=ChainSpec(3, 0.0), j_values=(0.5, math.nan)),
            id="sweep_j_nan",
        ),
    ],
)
def test_bad_counts_raise_before_any_cache_access(call):
    # Unchecked, a fractional count failed later with a TypeError, a bool
    # ran as 1, and a NaN coupling failed inside the first sweep row.
    _assert_raises_before_any_cache_access(call)


@pytest.mark.parametrize(
    "grid",
    [
        pytest.param((2.5, 3), id="fractional"),
        pytest.param((True, 8), id="bool"),
        pytest.param((0, 8), id="empty"),
        pytest.param((24,), id="one_axis"),
    ],
)
def test_bad_lattice_grids_raise_before_any_cache_access(grid):
    # Unchecked, these failed inside the first row, after its gap, and a
    # bool ran as one cell.
    _assert_raises_before_any_cache_access(
        lambda: SweepConfig(
            spec=ChainSpec(2, 0.0), j_values=(0.5,), method="lattice", lattice_grid=grid
        )
    )


@pytest.mark.parametrize("method", ["dynamical", "trotter"])
@pytest.mark.parametrize(
    "bad",
    [
        pytest.param({"velocities": (0.1, math.nan)}, id="velocity_nan"),
        pytest.param({"velocities": (math.inf,)}, id="velocity_inf"),
        pytest.param({"velocities": (-1.0,)}, id="velocity_negative"),
        pytest.param({"steps": 0}, id="steps_zero"),
        pytest.param({"steps": 2.5}, id="steps_fractional"),
    ],
)
def test_bad_ramp_sweep_inputs_raise_before_any_cache_access(method, bad):
    # Unchecked, these failed inside the first row, after its gap, or
    # inside a pool worker.
    _assert_raises_before_any_cache_access(
        lambda: SweepConfig(
            spec=ChainSpec(3, 0.0), j_values=(0.5,), method=method, **bad
        )
    )
