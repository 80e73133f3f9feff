"""Acceptance gate: one test per release criterion, pinned tolerances.

Run with -v to get one pass/fail line per criterion.  Each test prints a
single detail line (shown for failing criteria) with the measured
numbers next to their bounds.

Criterion 5 maps the linear zone of the ramp readout: every rate up to
``LINEAR_ZONE_CAP`` reads the static curvature within 5% (worst 4.2%, at
v = 0.24), and v = 5.0 deviates by more than 10% (79.7%).  Criterion 9
checks pulse-angle robustness against first-order theory: at +/-5
degrees the mean infidelity of 20 trials is 0.01658 against a predicted
0.01670, and the worst trial (fidelity 0.9492) sits at 3.0 times the
prediction.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest

from spinchern import (
    ChainSpec,
    DegenerateCouplings,
    FieldPoint,
    MoleculeSpec,
    QuenchProtocol,
    SweepConfig,
    VelocityOutOfLinearZone,
    chern_integral,
    chern_lattice,
    compile_zz,
    curvature_spectral,
    detect_plateaus,
    default_j_grid,
    effective_uniform_coupling,
    evolve_quench,
    extract_curvature,
    find_crossings,
    linear_zone_scan,
    perturbed_fidelity,
    run_sweep,
    simulate_protocol_trotter,
    verify_sequence,
)
from spinchern.quench import LINEAR_ZONE_CAP

from _oracles import (
    DATA_DIR,
    angle_noise_infidelity,
    plaquette_curvature,
    trotter_order,
)

EQUATOR = FieldPoint(theta=math.pi / 2)

# Plateau segments narrower than this in J are crossing shoulders, not
# plateaus, and are excluded from the quantization checks.
MIN_PLATEAU_WIDTH = 0.25


def _plateau_means(n_spins, method, velocities=(0.1,), steps=300):
    cfg = SweepConfig(
        spec=ChainSpec(n_spins, 0.0),
        j_values=default_j_grid(),
        method=method,
        velocities=velocities,
        steps=steps,
    )
    stats = detect_plateaus(run_sweep(cfg))
    wide = [s for s in stats if s.j_range[1] - s.j_range[0] >= MIN_PLATEAU_WIDTH]
    return sorted(s.plateau_mean for s in wide)


def _check_plateaus(n_spins, expected, dyn_tol, budget_s):
    start = time.monotonic()
    spectral = _plateau_means(n_spins, "spectral")
    dynamical = _plateau_means(n_spins, "dynamical")
    elapsed = time.monotonic() - start
    print(
        f"criterion N={n_spins}: spectral={spectral} dynamical={dynamical} "
        f"expected={expected} dyn_tol={dyn_tol} runtime={elapsed:.2f}s/"
        f"{budget_s}s"
    )
    assert len(spectral) == len(expected)
    assert len(dynamical) == len(expected)
    for got, want in zip(spectral, expected):
        assert got == pytest.approx(want, abs=1e-6)
    for got, want in zip(dynamical, expected):
        assert got == pytest.approx(want, abs=dyn_tol)
    assert elapsed < budget_s


def test_criterion_01_plateau_quantization_two_spins():
    _check_plateaus(2, [0.0, 1.0], dyn_tol=0.02, budget_s=5.0)


def test_criterion_02_plateau_quantization_three_spins():
    _check_plateaus(3, [0.5, 1.5], dyn_tol=0.03, budget_s=20.0)


def test_criterion_03_plateau_quantization_four_spins():
    start = time.monotonic()
    dynamical = _plateau_means(4, "dynamical")
    elapsed = time.monotonic() - start
    expected = [0.0, 1.0, 2.0]
    print(
        f"criterion N=4: dynamical={dynamical} expected={expected} "
        f"tol=0.05 runtime={elapsed:.2f}s/120s"
    )
    assert len(dynamical) == len(expected)
    for got, want in zip(dynamical, expected):
        assert got == pytest.approx(want, abs=0.05)
    assert elapsed < 120.0


def test_criterion_04_chern_number_reduction():
    integers = []
    worst = 0.0
    for n in (1, 2, 3, 4):
        spec = ChainSpec(n, 1.0)
        integral = chern_integral(spec)
        equator_f = curvature_spectral(spec, EQUATOR).f_phitheta
        worst = max(worst, abs(integral - 2.0 * equator_f))
        integers.append(chern_lattice(spec))
    print(
        f"criterion chern: |integral - 2F| worst={worst:.3e} (<=1e-3) "
        f"lattice={integers} (== [1, 2, 3, 4])"
    )
    assert worst <= 1e-3
    assert integers == [1, 2, 3, 4]


def test_criterion_05_linear_zone_boundary():
    """The readout F = m_phi / v is linear up to the declared cap.

    Every rate on a grid from 0.05 up to ``LINEAR_ZONE_CAP`` (step at most
    0.01) reads the static curvature within 5%; a fast ramp (v = 5.0) has
    left the linear zone by more than 10%; and ``extract_curvature``
    warns for a rate outside the zone (v = 1.0) but not at the cap.
    """
    spec = ChainSpec(2, 1.0)
    limit = curvature_spectral(spec, EQUATOR).f_phitheta
    lo = 0.05
    points = math.ceil((LINEAR_ZONE_CAP - lo) / 0.01)
    grid = [lo + (LINEAR_ZONE_CAP - lo) * k / points for k in range(points + 1)]
    table = linear_zone_scan(spec, grid)
    v_worst, f_worst = max(table, key=lambda row: abs(row[1] - limit))
    dev_zone = abs(f_worst - limit) / limit
    f_fast = evolve_quench(spec, QuenchProtocol(v_theta=5.0)).f_extracted
    dev_fast = abs(f_fast - limit) / limit
    print(
        f"criterion linear zone: worst dev on [{lo}, {LINEAR_ZONE_CAP}]="
        f"{dev_zone:.4f} at v={v_worst:.4f} (<=0.05) "
        f"dev(v=5.0)={dev_fast:.4f} (>0.10)"
    )
    assert dev_zone <= 0.05
    assert dev_fast > 0.10
    outside = evolve_quench(spec, QuenchProtocol(v_theta=1.0))
    with pytest.warns(VelocityOutOfLinearZone):
        extract_curvature([outside])
    at_cap = evolve_quench(spec, QuenchProtocol(v_theta=LINEAR_ZONE_CAP))
    with warnings.catch_warnings():
        warnings.simplefilter("error", VelocityOutOfLinearZone)
        extract_curvature([at_cap])


def test_criterion_06_crossing_location_two_spins():
    spec = ChainSpec(2, 0.0)
    found = find_crossings(spec, (-1.0, -0.01))
    step = 0.05
    rows = run_sweep(
        SweepConfig(
            spec=spec,
            j_values=default_j_grid(step=step, lo=-1.0, hi=0.0),
            method="spectral",
        )
    )
    bracket = None
    last = None
    for row in rows:
        if not row.converged:
            continue
        if last is not None and abs(row.f_phitheta - last.f_phitheta) > 0.25:
            bracket = (last.j, row.j)
            break
        last = row
    print(
        f"criterion crossing: found={found} (== -0.5 +/- 1e-6) "
        f"sweep jump bracket={bracket} (contains -0.5, within one step)"
    )
    assert len(found) == 1
    assert found[0] == pytest.approx(-0.5, abs=1e-6)
    assert bracket is not None
    assert bracket[0] <= -0.5 <= bracket[1]
    midpoint = 0.5 * (bracket[0] + bracket[1])
    assert abs(midpoint - (-0.5)) <= step + 1e-12


def test_criterion_07_trotter_order_and_tracking():
    spec = ChainSpec(3, 1.0)
    point = FieldPoint(theta=0.7)
    slope = trotter_order(spec, point, [0.1, 0.05, 0.025, 0.0125])
    protocol = QuenchProtocol(v_theta=0.1, steps=300)
    exact = evolve_quench(spec, protocol).m_phi
    loop = simulate_protocol_trotter(spec, protocol).m_phi
    diff = abs(loop - exact)
    print(
        f"criterion trotter: local-error slope={slope:.3f} (3.0 +/- 0.3) "
        f"|m_loop - m_exact|={diff:.2e} (<=1e-2)"
    )
    assert slope == pytest.approx(3.0, abs=0.3)
    assert diff <= 1e-2


def test_criterion_08_refocusing_compiler():
    molecule = MoleculeSpec.from_json(DATA_DIR / "three_spin.json")
    tau = 1e-3
    target_j = -0.5 * math.pi * effective_uniform_coupling(molecule)
    compiled = compile_zz(molecule, target_j, tau)
    report = verify_sequence(compiled, molecule)
    durations = sorted(compiled.segment_durations)
    j12, j23 = 100.0, -50.0
    t1 = j12 * tau / (2.0 * (j12 - j23))
    t2 = -j23 * tau / (2.0 * (j12 - j23))
    expected = sorted([t1, t2, t1 + t2])
    infidelity = 1.0 - report.fidelity
    print(
        f"criterion compiler: infidelity={infidelity:.2e} (<=1e-10) "
        f"durations={durations} closed-form={expected}"
    )
    assert infidelity <= 1e-10
    assert durations == pytest.approx(expected, rel=1e-12)
    degenerate = MoleculeSpec.from_json(DATA_DIR / "three_spin.json")
    couplings = np.array(degenerate.couplings_hz)
    couplings[1, 2] = couplings[2, 1] = couplings[0, 1]
    degenerate = MoleculeSpec(
        labels=degenerate.labels,
        shifts_hz=degenerate.shifts_hz,
        couplings_hz=couplings,
    )
    with pytest.raises(DegenerateCouplings):
        compile_zz(degenerate, target_j, tau)


def test_criterion_09_pulse_angle_robustness():
    """Ramp fidelity under +/-5 degree pulse-angle noise obeys first-order theory.

    To first order a trial's infidelity is |z|^2 with z = sum_k delta_k c_k,
    where delta_k is step k's angle offset and c_k the kick it gives the
    state out of the instantaneous ground state (``angle_noise_infidelity``
    spells it out).  For two spins dH/dtheta couples the triplet ground
    state to one level only, and the kicks' phases wind at the gap (2)
    over the ramp time pi / v, about ten turns.  So z is a sum of 300
    independent terms of near-uniform phase, close to a circular complex
    Gaussian, and the per-trial infidelity is exponential with mean
    eps = E|z|^2, the oracle's value.  With n = 20 trials and a false-alarm
    chance alpha = 1e-3:

    - mean: Chernoff bounds for the mean of n unit exponentials,
      P(mean >= 1 + x) <= exp(-n (x - ln(1 + x))) and
      P(mean <= 1 - y) <= exp(-n (-y - ln(1 - y))), each set to alpha / 2,
      put mean / eps in [0.36, 2.15] (rounded outwards).  The mean of 20
      draws scatters by 1/sqrt(20) = 22%, so a tighter band would hold
      only for some seeds.
    - worst trial: P(max >= c eps) <= n exp(-c) = alpha at
      c = ln(n / alpha) = 9.9.

    A noise model that offsets only one of the two framing rotations of a
    step reads 16.7 eps in the mean and fails both checks.
    """
    spec = ChainSpec(2, 1.0)
    protocol = QuenchProtocol(v_theta=0.1, steps=300)
    error_deg, seed, trials = 5.0, 0, 20
    worst = perturbed_fidelity(spec, protocol, error_deg, seed=seed, trials=trials)
    fidelities = np.array(
        [
            perturbed_fidelity(spec, protocol, error_deg, seed=seed + k, trials=1)
            for k in range(trials)
        ]
    )
    eps = angle_noise_infidelity(spec, protocol, error_deg)
    mean_ratio = float(np.mean(1.0 - fidelities)) / eps
    worst_ratio = (1.0 - worst) / eps
    worst_cap = math.log(trials / 1e-3)
    print(
        f"criterion robustness: min fidelity={worst:.6f} first-order eps={eps:.5f} "
        f"mean infidelity/eps={mean_ratio:.4f} ([0.36, 2.15]) "
        f"worst infidelity/eps={worst_ratio:.3f} (<={worst_cap:.2f})"
    )
    assert worst == fidelities.min()
    assert 0.36 <= mean_ratio <= 2.15
    assert worst_ratio <= worst_cap


def test_criterion_10_oracle_equivalence():
    worst = 0.0
    for n in (1, 2, 3, 4):
        for j in (-1.5, -1.0, 1.0, 1.5):
            for theta in (0.4, math.pi / 2, 2.2):
                spec = ChainSpec(n, j)
                point = FieldPoint(theta=theta, phi=0.3)
                spectral = curvature_spectral(spec, point).f_phitheta
                lattice = plaquette_curvature(spec, theta, 0.3)
                worst = max(worst, abs(spectral - lattice))
    print(f"criterion oracles: worst |spectral - plaquette|={worst:.3e} (<=1e-4)")
    assert worst <= 1e-4
