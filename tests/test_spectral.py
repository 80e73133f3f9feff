from __future__ import annotations

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinchern.model as model
import spinchern.pulsesim as pulsesim
import spinchern.quench as quench
import spinchern.spectral as spectral
from spinchern import (
    ChainSpec,
    DegenerateGroundState,
    DimensionCap,
    FieldPoint,
    OutOfRange,
    SpinChernError,
    SweepConfig,
    build_heisenberg,
    chern_integral,
    chern_lattice,
    curvature_spectral,
    default_j_grid,
    find_crossings,
    ground_gap,
    pole_system,
    run_sweep,
    total_magnetization,
)

from _internals import pole_ground_state
from _oracles import (
    CACHES,
    PLATEAU_CASES,
    bisection_crossings,
    cache_state,
    dense_chern_lattice,
    dense_curvature,
    eigh,
    plaquette_curvature,
    sorted_level_crossings,
    sorted_pole_ground,
)

EQUATOR = FieldPoint(theta=math.pi / 2)

# Coupling values sitting safely inside plateaus for every N <= 4.
OFF_CROSSING = (-1.5, -1.0, 1.0, 1.5)


def test_single_spin_curvature_is_half_sines():
    spec = ChainSpec(1, 0.0)
    for theta in (0.3, 1.1, math.pi / 2, 2.5):
        sample = curvature_spectral(spec, FieldPoint(theta=theta))
        assert sample.f_phitheta == pytest.approx(0.5 * math.sin(theta), abs=1e-12)


def test_ferromagnetic_pair_acts_as_spin_one():
    spec = ChainSpec(2, 1.0)
    for theta in (0.4, math.pi / 2, 2.2):
        sample = curvature_spectral(spec, FieldPoint(theta=theta))
        assert sample.f_phitheta == pytest.approx(math.sin(theta), abs=1e-10)


def test_curvature_vanishes_at_pole():
    sample = curvature_spectral(ChainSpec(2, 1.0), FieldPoint(theta=0.0))
    assert sample.f_phitheta == pytest.approx(0.0, abs=1e-14)


def test_degenerate_ground_state_raises():
    with pytest.raises(DegenerateGroundState):
        curvature_spectral(ChainSpec(2, -0.5), EQUATOR)


def test_ground_gap_at_crossing_and_plateau():
    assert ground_gap(ChainSpec(2, -0.5), FieldPoint(theta=0.0)) < 1e-12
    assert ground_gap(ChainSpec(2, 1.0), FieldPoint(theta=0.0)) > 0.5


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    j=st.sampled_from(OFF_CROSSING),
    theta=st.floats(0.1, math.pi - 0.1),
    phi=st.floats(0.0, 2 * math.pi - 1e-9),
)
def test_curvature_is_azimuth_independent(n, j, theta, phi):
    spec = ChainSpec(n, j)
    at_zero = curvature_spectral(spec, FieldPoint(theta=theta)).f_phitheta
    rotated = curvature_spectral(spec, FieldPoint(theta=theta, phi=phi)).f_phitheta
    assert rotated == pytest.approx(at_zero, abs=1e-9)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    j=st.sampled_from(OFF_CROSSING),
    theta=st.floats(0.3, math.pi - 0.3),
)
def test_curvature_matches_wilson_loop(n, j, theta):
    spec = ChainSpec(n, j)
    spectral = curvature_spectral(spec, FieldPoint(theta=theta)).f_phitheta
    loop = plaquette_curvature(spec, theta, 0.345)
    assert spectral == pytest.approx(loop, abs=1e-4)


def test_chern_integral_quantized_on_plateaus():
    assert chern_integral(ChainSpec(1, 0.0)) == pytest.approx(1.0, abs=1e-6)
    assert chern_integral(ChainSpec(2, 1.0)) == pytest.approx(2.0, abs=1e-6)
    assert chern_integral(ChainSpec(3, 1.0)) == pytest.approx(3.0, abs=1e-6)
    assert chern_integral(ChainSpec(2, -1.0)) == pytest.approx(0.0, abs=1e-6)


def test_chern_integral_matches_meridian_shortcut():
    # The isotropic coupling makes the curvature phi-independent, so the
    # sphere integral collapses to one Gauss-Legendre meridian integral.
    nodes, weights = np.polynomial.legendre.leggauss(64)
    thetas = 0.5 * math.pi * (nodes + 1.0)
    weights = 0.5 * math.pi * weights
    for j in (1.0, -1.0):
        spec = ChainSpec(2, j)
        values = [
            curvature_spectral(spec, FieldPoint(theta=t)).f_phitheta for t in thetas
        ]
        meridian = float(np.dot(weights, values))
        assert chern_integral(spec) == pytest.approx(meridian, abs=1e-9)


def test_chern_lattice_exact_integers():
    assert [chern_lattice(ChainSpec(n, 1.0)) for n in (1, 2, 3, 4)] == [1, 2, 3, 4]
    assert chern_lattice(ChainSpec(2, -1.0)) == 0
    assert chern_lattice(ChainSpec(4, -0.5)) == 2


def test_chern_lattice_rejects_coarse_grids():
    # Unchecked, these grids return 1 and -2 for the Chern numbers 4 and 6.
    # A rejected grid stores no winding, so a second call raises the same
    # error.
    for spec, grid in ((ChainSpec(4, 1.0), (3, 3)), (ChainSpec(6, 1.0), (4, 4))):
        stored = spectral._lattice_winding.cache_info().currsize
        match = f"{grid[0]}x{grid[1]}.*overlap.*phase"
        messages = []
        for _ in range(2):
            with pytest.raises(OutOfRange, match=match) as raised:
                chern_lattice(spec, grid)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert spectral._lattice_winding.cache_info().currsize == stored
    for grid in ((0, 4), (4, 0)):
        with pytest.raises(OutOfRange, match="no cells"):
            chern_lattice(ChainSpec(2, 1.0), grid)


@pytest.mark.parametrize(
    "route",
    [
        pytest.param(lambda grid: chern_integral(ChainSpec(2, 1.0), grid), id="integral"),
        pytest.param(lambda grid: chern_lattice(ChainSpec(2, 1.0), grid), id="lattice"),
        pytest.param(
            lambda grid: SweepConfig(
                spec=ChainSpec(2, 0.0), j_values=(1.0,), method="lattice",
                lattice_grid=grid,
            ),
            id="sweep",
        ),
    ],
)  # fmt: skip
@pytest.mark.parametrize(
    "grid",
    [
        pytest.param((8, 0), id="empty"),
        pytest.param((2.5, 4), id="fractional"),
        pytest.param((True, 4), id="bool"),
        pytest.param((8,), id="one_axis"),
        pytest.param(8, id="scalar"),
    ],
)
def test_every_grid_is_two_whole_counts(route, grid):
    # Unchecked, chern_integral raised ZeroDivisionError on (8, 0) and a
    # numpy TypeError on (2.5, 4), and returned pi on (True, 4).
    with pytest.raises(OutOfRange, match="grid"):
        route(grid)


def test_chern_lattice_raises_on_crossing():
    with pytest.raises(DegenerateGroundState):
        chern_lattice(ChainSpec(2, -0.5))


def _other_multiplet(real):
    """Rows of the multiplet two labels up, which wind to M_g + 2."""
    return lambda m_g, thetas: real(m_g + 2, thetas)


def _stretched_labels(real):
    """Rows on labels 1.1 M, which wind to 1.1 M_g."""

    def rows(m_g, thetas):
        weights, m = real(m_g, thetas)
        return weights, 1.1 * m

    return rows


@pytest.mark.parametrize(
    "rows,spec,match",
    [
        pytest.param(
            _other_multiplet,
            ChainSpec(4, -0.5),
            r"24x24 plaquette winding 4\.0.* at M_g = 2: residual .* from 4 ",
            id="another_multiplet",
        ),
        pytest.param(
            _stretched_labels,
            ChainSpec(4, -0.5),
            r"24x24 plaquette winding 2\.2.* at M_g = 2: residual 0\.2 from 2 ",
            id="stretched_labels",
        ),
    ],
)
def test_a_winding_that_breaks_its_claims_raises_and_stores_nothing(
    monkeypatch, rows, spec, match
):
    # A winding on another integer than M_g, or on M_g's integer but off
    # it by more than the tolerance, names the grid, M_g and the residual;
    # the next call with the true rows sums the grid again.
    spectral._lattice_winding.cache_clear()
    monkeypatch.setattr(spectral, "_multiplet_rows", rows(spectral._multiplet_rows))
    with pytest.raises(SpinChernError, match=match):
        chern_lattice(spec)
    assert spectral._lattice_winding.cache_info().currsize == 0
    monkeypatch.undo()
    assert chern_lattice(spec) == int(spectral._pole_ground(spec)[0])
    assert spectral._lattice_winding.cache_info().misses == 2


def test_a_one_column_grid_raises_instead_of_winding_zero():
    # Every row link of a grid with one phi cell is the same phase, so
    # its plaquette phases are all 0 and the sum wound 0 for every M_g.
    match = r"24x1 plaquette winding .* at M_g = 3: .* from 0 "
    with pytest.raises(SpinChernError, match=match):
        chern_lattice(ChainSpec(3, 1.0), (24, 1))
    assert chern_lattice(ChainSpec(2, -1.0), (24, 1)) == 0


def test_a_lattice_sweep_sums_each_ground_sector_once():
    # The sweep sums the winding of each ground sector once, before its
    # first row, so every row reads it stored; a row at a crossing reads
    # nothing.
    n = 4
    spectral._lattice_winding.cache_clear()
    cfg = SweepConfig(
        spec=ChainSpec(n, 0.0), j_values=default_j_grid(step=0.1), method="lattice"
    )
    rows = run_sweep(cfg)
    assert len(rows) == 41
    info = spectral._lattice_winding.cache_info()
    sectors = {r.chern for r in rows if r.converged}
    assert info.misses == len(sectors) <= n + 1
    assert info.hits == sum(r.converged for r in rows)


def test_find_crossings_analytic_values():
    assert find_crossings(ChainSpec(2, 0.0), (-2.0, 2.0)) == pytest.approx(
        [-0.5], abs=1e-6
    )
    assert find_crossings(ChainSpec(3, 0.0), (-2.0, 2.0)) == pytest.approx(
        [-1.0 / 3.0], abs=1e-6
    )
    four = find_crossings(ChainSpec(4, 0.0), (-2.0, 2.0))
    assert four == pytest.approx(
        [-0.7588190451025134, (math.sqrt(2.0) - 2.0) / 2.0], abs=1e-6
    )


def test_find_crossings_in_first_and_last_scan_interval():
    # -0.5 lies within 0.003 of either end of the interval, or well inside it.
    for interval in ((-0.503, 2.0), (-2.0, -0.497), (-2.0, 2.0)):
        assert find_crossings(ChainSpec(2, 0.0), interval) == pytest.approx(
            [-0.5], abs=1e-12
        )


def test_find_crossings_resolves_several_crossings_in_one_scan_step():
    # N = 6 crosses three times in [-2, 2], twice within [-1, 0].  Every
    # sub-interval, closed at both ends, keeps exactly the roots inside it.
    spec = ChainSpec(6, 0.0)
    roots = find_crossings(spec, (-2.0, 2.0))
    assert len(roots) == 3
    mids = [0.5 * (a + b) for a, b in zip(roots, roots[1:])]
    intervals = [
        (-2.0, mids[0]),
        (mids[0], mids[1]),
        (mids[1], 2.0),
        (-2.0, roots[1]),
        (roots[1], 2.0),
        (roots[0], roots[2]),
        (mids[0], 0.0),
        (roots[2] + 1e-9, 2.0),
        (-0.2, 0.2),
    ]
    for lo, hi in intervals:
        inside = [j for j in roots if lo <= j <= hi]
        assert find_crossings(spec, (lo, hi)) == inside


@pytest.mark.parametrize("n", range(1, 10))
def test_find_crossings_on_the_widest_finite_intervals(n):
    # All crossings lie in (-2, 2): past them the ground sector has the
    # steepest line on its side, and for J > 0 all lines are parallel.
    spec = ChainSpec(n, 0.0)
    roots = find_crossings(spec, (-2.0, 2.0))
    assert all(j < 0.0 for j in roots)
    assert find_crossings(spec, (-1e300, 1e300)) == roots
    assert find_crossings(spec, (-1.7e308, 1.7e308)) == roots
    assert find_crossings(spec, (0.0, 1e300)) == []


def test_find_crossings_empty_when_no_crossing():
    assert find_crossings(ChainSpec(2, 0.0), (0.5, 2.0)) == []
    with pytest.raises(ValueError):
        find_crossings(ChainSpec(2, 0.0), (1.0, -1.0))


def test_curvature_independent_of_field_strength():
    # The monopole charge is set by the sphere topology, not its radius.
    weak = curvature_spectral(ChainSpec(1, 0.0), EQUATOR).f_phitheta
    strong = curvature_spectral(
        ChainSpec(1, 0.0), FieldPoint(theta=math.pi / 2, magnitude=2.0)
    ).f_phitheta
    assert strong == pytest.approx(weak, abs=1e-12)


# --- closed-form pole spectrum against dense per-point oracles ---------------


@pytest.mark.parametrize("n", range(1, 8))
def test_pole_system_matches_dense_spectrum(n):
    for j in (-1.7, -0.4, 0.0, 0.3, 1.2):
        for magnitude in (0.5, 1.0, 2.5):
            system = pole_system(ChainSpec(n, j), magnitude)
            values, vectors = np.linalg.eigh(
                build_heisenberg(ChainSpec(n, j), FieldPoint(0.0, magnitude=magnitude))
            )
            assert np.max(np.abs(system.values - values)) <= 1e-12
            # A level's sector is the <S_z> of any dense eigenvector of it.
            dense_m = [total_magnetization(v, "z") for v in vectors.T]
            assert np.max(np.abs(system.sectors - dense_m)) <= 1e-9
            if system.ground_gap > 1e-9:
                ground = pole_ground_state(ChainSpec(n, j), magnitude)
                overlap = abs(np.vdot(vectors[:, 0], ground))
                assert overlap == pytest.approx(1.0, abs=1e-12)


def test_pole_system_rejects_bad_field_magnitude():
    # Unchecked, the magnitude was rejected only after the size's sector
    # blocks were solved: one cache miss at N = 9.  The query under
    # _pole_ground and ground_gap checks it too, though their field
    # points have checked it already.
    for route in (pole_system, spectral._lowest_levels):
        for magnitude in (math.nan, math.inf, 0.0, -1.0):
            before = cache_state()
            with pytest.raises(OutOfRange):
                route(ChainSpec(9, 1.0), magnitude)
            assert cache_state() == before


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 5),
    j=st.sampled_from(OFF_CROSSING),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi),
    magnitude=st.floats(0.3, 3.0),
)
def test_curvature_matches_dense_oracle(n, j, theta, phi, magnitude):
    # Crossings sit at J proportional to |h|, so scale J with the field.
    spec = ChainSpec(n, j * magnitude)
    p = FieldPoint(theta=theta, phi=phi, magnitude=magnitude)
    fast = curvature_spectral(spec, p).f_phitheta
    assert fast == pytest.approx(dense_curvature(spec, p), abs=1e-10)


def _plateau_couplings(n):
    """One coupling inside each plateau of the unit-field pole ground state."""
    roots = find_crossings(ChainSpec(n, 0.0), (-2.0, 2.0))
    mids = [0.5 * (a + b) for a, b in zip(roots, roots[1:])]
    return [roots[0] - 0.5, *mids, 1.0]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_curvature_matches_dense_oracle_on_every_plateau_of_larger_chains(n):
    # The route sums over the ground multiplet alone; the dense oracle
    # sums over every level of a fresh eigensolve.
    for j in _plateau_couplings(n):
        for magnitude in (0.7, 1.9):
            spec = ChainSpec(n, j * magnitude)
            for theta in (0.4, math.pi / 2, 2.5):
                p = FieldPoint(theta=theta, magnitude=magnitude)
                fast = curvature_spectral(spec, p).f_phitheta
                assert fast == pytest.approx(dense_curvature(spec, p), abs=1e-10)


@pytest.mark.parametrize("n", range(1, 11))
def test_equator_curvature_is_half_the_pole_sector_up_to_the_cap(n):
    for j in np.linspace(-2.0, 2.0, 41):
        spec = ChainSpec(n, float(j))
        pole = pole_system(spec)
        if pole.ground_gap < 1e-3:
            continue
        two_f = 2.0 * curvature_spectral(spec, EQUATOR).f_phitheta
        assert two_f == pytest.approx(pole.sectors[0], abs=1e-9)


# --- the ground multiplet ----------------------------------------------------
#
# The exact ramp, the curvature sum and the lattice rows read the gapped
# pole ground state g as the top |S, S> of a spin-S multiplet, S = M_g / 2.

J_GRID = np.linspace(-2.0, 2.0, 41)


@pytest.mark.parametrize("n", range(1, 11))
def test_pole_ground_state_is_highest_weight(n):
    # sum_k sigma+_k g = 0: sigma+_k takes each state with site k down to
    # its flip.
    sites = model._site_table(n)
    for j in J_GRID:
        spec = ChainSpec(n, float(j))
        if pole_system(spec).ground_gap < 1e-3:
            continue
        ground = pole_ground_state(spec)
        raised = np.zeros_like(ground)
        for z, flips in zip(sites.z, sites.flips):
            raised[flips[z < 0]] += ground[z < 0]
        assert np.abs(raised).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 11))
def test_ferromagnetic_ground_sector_is_saturated(n):
    # For J > 0 the ground state is all up, M_g = N, and the lowest
    # excitation is its own multiplet's S- g, 2|h| above it.
    for j in J_GRID[J_GRID > 0.0]:
        for magnitude in (0.5, 1.0, 3.0):
            pole = pole_system(ChainSpec(n, float(j)), magnitude)
            assert pole.sectors[0] == n
            assert pole.ground_gap == pytest.approx(2.0 * magnitude, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 11))
def test_first_crossing_is_the_one_magnon_saturation_coupling(n, monkeypatch):
    # The saturated level -N - J (N - 1) first meets the lowest one-magnon
    # level for J < 0, -(N - 2) - J (N - 5 - 4 cos(pi / N)) at unit field,
    # at J_sat = -1 / (2 (1 + cos(pi / N))).  find_crossings checks that
    # root against J_sat once per search that reaches it, and not at all
    # on an interval that stops short of it (J_sat lies in [-1/2, -1/4]).
    seen = []
    check = spectral._check_saturation

    def record(n_spins, root):
        seen.append((n_spins, root))
        check(n_spins, root)

    monkeypatch.setattr(spectral, "_check_saturation", record)
    j_sat = -1.0 / (2.0 * (1.0 + math.cos(math.pi / n)))
    nearest = min(find_crossings(ChainSpec(n, 0.0), (-2.0, 2.0)), key=abs)
    assert nearest == pytest.approx(j_sat, abs=1e-12)
    assert seen == [(n, nearest)]
    assert find_crossings(ChainSpec(n, 0.0), (-0.2, 2.0)) == []
    assert len(seen) == 1


@pytest.mark.parametrize("shift", [1e-8, -1e-8])
def test_a_nearest_crossing_off_j_sat_raises(shift, monkeypatch):
    # The one-magnon line, shifted in lambda_min, meets the saturated one
    # about 4e-10 from J_sat at N = 4.
    n = 4
    true = spectral._sector_data(n)
    extremes = tuple(
        (m, (lows[0] + shift, *lows[1:]), highs) if m == n - 2 else (m, lows, highs)
        for m, lows, highs in true.extremes
    )
    shifted = spectral._Sectors(true.blocks, extremes)
    monkeypatch.setattr(spectral, "_sector_data", lambda size: shifted)
    with pytest.raises(SpinChernError, match="nearest 0 at N = 4 .* residual"):
        find_crossings(ChainSpec(n, 0.0), (-2.0, 2.0))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.integers(1, 6), j=st.floats(-2.0, 2.0))
def test_equator_curvature_is_half_the_pole_magnetization(n, j):
    spec = ChainSpec(n, j)
    pole = FieldPoint(theta=0.0)
    assume(ground_gap(spec, pole) > 1e-3)  # a clean dense ground state
    ground = eigh(build_heisenberg(spec, pole)).ground_state
    two_f = 2.0 * curvature_spectral(spec, EQUATOR).f_phitheta
    assert two_f == pytest.approx(total_magnetization(ground, "z"), abs=1e-9)


@pytest.mark.parametrize("n,j", PLATEAU_CASES)
def test_chern_lattice_matches_dense_oracle_on_every_plateau(n, j):
    # on a cleared winding cache and then on the stored winding
    spectral._lattice_winding.cache_clear()
    cold = chern_lattice(ChainSpec(n, j))
    warm = chern_lattice(ChainSpec(n, j))
    assert spectral._lattice_winding.cache_info()[:2] == (1, 1)
    assert cold == warm == dense_chern_lattice(ChainSpec(n, j))


@pytest.mark.parametrize("n", range(2, 7))
def test_find_crossings_matches_bisection_oracle(n):
    fast = find_crossings(ChainSpec(n, 0.0), (-2.0, 2.0))
    slow = bisection_crossings(ChainSpec(n, 0.0), (-2.0, 2.0))
    assert len(fast) == len(slow) >= 1
    assert np.max(np.abs(np.array(fast) - np.array(slow))) <= 1e-10


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda s: curvature_spectral(s, EQUATOR), id="curvature_spectral"),
        pytest.param(lambda s: ground_gap(s, FieldPoint(theta=0.0)), id="ground_gap"),
        pytest.param(lambda s: chern_lattice(s), id="chern_lattice"),
        pytest.param(lambda s: find_crossings(s, (-2.0, 2.0)), id="find_crossings"),
        pytest.param(lambda s: pole_system(s), id="pole_system"),
        pytest.param(lambda s: spectral._pole_ground(s), id="pole_ground"),
    ],
)
def test_size_cap_is_checked_before_any_cache_access(call):
    before = cache_state()
    with pytest.raises(DimensionCap):
        call(ChainSpec(3, 1.0, max_spins=2))
    assert cache_state() == before


@pytest.mark.parametrize(
    "call,error",
    [
        pytest.param(
            lambda s: find_crossings(s, (-math.inf, 2.0)),
            OutOfRange,
            id="interval_infinite_lo",
        ),
        pytest.param(
            lambda s: find_crossings(s, (-2.0, math.inf)),
            OutOfRange,
            id="interval_infinite_hi",
        ),
        pytest.param(
            lambda s: chern_lattice(s, (2.5, 3)), OutOfRange, id="fractional_grid"
        ),
        pytest.param(lambda s: chern_lattice(s, (True, 8)), OutOfRange, id="bool_grid"),
        pytest.param(
            lambda s: chern_lattice(dataclasses.replace(s, coupling_j=-1.0 / 3.0)),
            DegenerateGroundState,
            id="degenerate_coupling",
        ),
    ],
)
def test_bad_scan_inputs_raise_before_any_cache_access(call, error):
    # Unchecked, the fractional grid raised a TypeError from numpy.  A
    # degenerate coupling is found from the size's sector levels, so it
    # reads them, warm here; it touches no other cache, the lattice
    # winding's included.
    spectral._sector_data(3)
    before = cache_state()
    with pytest.raises(error):
        call(ChainSpec(3, 1.0))
    for cache, was, now in zip(CACHES, before, cache_state()):
        if error is DegenerateGroundState and cache is spectral._sector_data:
            now = now._replace(hits=was.hits)
        assert now == was, f"{cache.__module__}.{cache.__name__}"


def _fields(cached):
    """The arrays of a cached dataclass, those in its tuple fields (at any
    depth) too."""
    return _arrays(tuple(getattr(cached, f.name) for f in dataclasses.fields(cached)))


def _arrays(value) -> list:
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    return [value] if isinstance(value, np.ndarray) else []


@pytest.mark.parametrize(
    "cached",
    [
        pytest.param(lambda n: _fields(model._site_table(n)), id="site_table"),
        pytest.param(lambda n: _fields(spectral._sector_data(n)), id="sector_data"),
        pytest.param(
            lambda n: list(pulsesim._exchange_system(n)), id="exchange_system"
        ),
        pytest.param(
            lambda n: [
                *_fields(quench._step_phases(quench.QuenchProtocol(0.1 * n), n, 1.0)),
                *_fields(quench._step_phases(quench.QuenchProtocol(0.1 * n), n, -1.0)),
            ],
            id="step_phases",
        ),
        pytest.param(
            lambda n: [
                *_fields(quench._mirror_sector(n, 1.0)),
                *_fields(quench._mirror_sector(n, -1.0)),
            ],
            id="mirror_sector",
        ),
        pytest.param(
            lambda n: [
                quench._pole_start(n, block, top)[1]
                for block in range(n + 1)
                for top in (False, True)
            ],
            id="pole_start",
        ),
        pytest.param(
            lambda n: list(pulsesim._lp_bases(n, ((0, 1), (0, 2), (1, 2)))[1:]),
            id="lp_bases",
        ),
    ],
)
def test_cached_arrays_are_read_only(cached):
    arrays = cached(3)
    assert arrays
    for a in arrays:
        before = a.copy()
        with pytest.raises(ValueError):
            a *= 2
        assert np.array_equal(a, before)


@pytest.mark.parametrize("n", range(1, 11))
def test_sector_data_holds_no_array_larger_than_its_blocks(n):
    # Each block keeps its basis indices, its eigenvalues and its lowest
    # and highest eigenvector columns, 4 2^n numbers over the blocks.
    # Every column of every block took C(2n, n) reals, and a dense
    # 2^n x 2^n scatter of them 4^n.
    sectors = spectral._sector_data(n)
    assert sum(a.size for a in _fields(sectors)) <= 4 * 2**n
    for _, idx, values, ends in sectors.blocks:
        assert values.shape == (idx.size,) and ends.shape == (idx.size, 2)


def test_cold_sector_data_at_ten_spins_holds_under_a_tenth_of_a_mebibyte():
    # Its blocks' indices, eigenvalues and two columns each, 32 KiB with
    # the tuples around them; every column of every block took 1.44 MiB.
    # The site table is built first: it is not the sector data's.
    model._site_table(10)
    spectral._sector_data.cache_clear()
    tracemalloc.start()
    try:
        spectral._sector_data(10)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 0.1 * 2**20


@pytest.mark.parametrize("n", range(1, 7))
def test_each_spin_equals_kron_construction(n):
    rng = np.random.default_rng(n)
    single = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    single /= np.linalg.norm(single, 2)
    full = functools.reduce(np.kron, [single] * n)
    dim = 2**n
    # a state, and matrices whose columns are transformed one by one
    for shape in ((dim,), (dim, 3), (dim, dim)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x /= np.linalg.norm(x, axis=0)
        assert np.abs(model._each_spin(single, x) - full @ x).max() <= 1e-14


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_rows_equal_single_rotations(n):
    # The lattice rows, all angles at once from the ground multiplet's
    # binomial weights, against each angle's rotation of the pole ground
    # state summed over the basis states of each M_z label.
    sector = ((model._site_table(n).m + n) // 2).astype(int)
    angles = np.concatenate([np.linspace(0.0, math.pi, 25), [0.123, 2.9, 4.0]])
    seen = set()
    for j in _plateau_couplings(n) if n > 1 else [0.0]:
        m_g = int(pole_system(ChainSpec(n, j)).sectors[0])
        ground = pole_ground_state(ChainSpec(n, j))
        weights, m = spectral._multiplet_rows(m_g, angles)
        assert weights.shape == (angles.size, m_g + 1)
        for row, angle in zip(weights, angles):
            rotated = np.abs(model._rotate_y(ground, angle)) ** 2
            by_label = np.bincount(sector, weights=rotated, minlength=n + 1)
            expected = np.zeros(n + 1)
            expected[(m + n) // 2] = row
            assert np.abs(by_label - expected).max() <= 1e-14
        seen.add(m_g)
    assert seen == set(range(n % 2, n + 1, 2))


def test_ground_level_routes_gather_no_ground_state(monkeypatch):
    # The exact ramp, the curvature sum, the plaquette grid, the gap, the
    # crossing search and a lattice sweep row read M_g and the gap from
    # the levels alone.  The Trotter ramps read them too, and take their
    # start from block M_g's ground column, so no route needs the pole
    # system.
    def gather(*args):
        raise AssertionError("pole_system gathered the ground state")

    monkeypatch.setattr(spectral, "pole_system", gather)
    spec = ChainSpec(4, -0.5)
    assert quench.evolve_quench(spec, quench.QuenchProtocol(0.1)).gap > 0.0
    assert curvature_spectral(spec, EQUATOR).gap > 0.0
    assert chern_lattice(spec) == 2
    assert ground_gap(spec, EQUATOR) > 0.0
    assert len(find_crossings(spec, (-2.0, 2.0))) == 2
    sweep = SweepConfig(spec=spec, j_values=(-0.5,), method="lattice")
    assert run_sweep(sweep)[0].gap_at_pole > 0.0
    proto = quench.QuenchProtocol(0.1)
    assert pulsesim.simulate_protocol_trotter(spec, proto).gap > 0.0
    assert 0.0 < pulsesim.perturbed_fidelity(spec, proto, 5.0, trials=2) <= 1.0


# find_crossings(ChainSpec(n, 0), (-2.5, 2.5)) as the sorted-levels code
# returned it, digit for digit, with multi-threaded OpenBLAS.  The block
# eigenvalues' last bits move with the BLAS thread count (with one thread
# N = 10's second crossing reads -0.5104939399426396), so the crossings'
# bits are checked against ``sorted_level_crossings`` on the eigenvalues
# the package reads, and these digits to 1e-12.
SORTED_LEVEL_CROSSINGS = {
    1: [],
    2: [-0.5],
    3: [-0.3333333333333333],
    4: [-0.7588190451025207, -0.2928932188134525],
    5: [-0.4468797368446167, -0.276393202250021],
    6: [-1.0171247662233607, -0.3607581815728147, -0.26794919243112275],
    7: [-0.5650773058126168, -0.3224899053259985, -0.2630237709004218],
    8: [
        -1.2732621463217755, -0.4345456913805166,
        -0.30161654997877074, -0.25989153247414504,
    ],
    9: [
        -0.6844245434314291, -0.37456595018888544,
        -0.288815344951498, -0.25777280103144085,
    ],
    10: [
        -1.5273629309041319, -0.5104939399426401, -0.340922664831642,
        -0.2803373754521608, -0.25627140773422913,
    ],
}  # fmt: skip


@pytest.mark.parametrize("n", range(1, 11))
def test_pole_queries_equal_the_sorted_levels_bit_for_bit(n):
    # M_g and the gap from each sector's extreme levels against a stable
    # sort of all 2^n levels, with ==: on a grid in J, at every crossing
    # and 1e-9 past it, and at J = 0 and +-1e-12, at three magnitudes.
    # 2070 cases over n = 1-10.
    # every level's M and interaction eigenvalue, block after block
    blocks = spectral._sector_data(n).blocks
    level_m = np.repeat([float(m) for m, *_ in blocks], [b[1].size for b in blocks])
    level_x = np.concatenate([values for _, _, values, _ in blocks])
    crossings = find_crossings(ChainSpec(n, 0.0), (-2.5, 2.5))
    assert crossings == sorted_level_crossings(level_m, level_x, -2.5, 2.5)
    assert crossings == pytest.approx(SORTED_LEVEL_CROSSINGS[n], rel=1e-12, abs=0.0)
    couplings = [float(j) for j in np.linspace(-2.5, 2.5, 61)]
    couplings += [j + d for j in crossings for d in (0.0, 1e-9)]
    couplings += [0.0, 1e-12, -1e-12]
    degenerate = 0
    for magnitude in (0.37, 1.0, 2.9):
        p = FieldPoint(theta=0.0, magnitude=magnitude)
        for j in couplings:
            spec = ChainSpec(n, j)
            m_g, gap = sorted_pole_ground(level_m, level_x, magnitude, j)
            assert ground_gap(spec, p) == gap
            if gap < spectral.DEGENERACY_RTOL * magnitude:
                degenerate += 1
                with pytest.raises(DegenerateGroundState):
                    spectral._pole_ground(spec, p)
            else:
                assert spectral._pole_ground(spec, p) == (m_g, gap)
    # the crossings are those of unit field, each degenerate there (the
    # J grid holds some of them again)
    assert degenerate >= len(crossings)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda s: ground_gap(s, EQUATOR), id="ground_gap"),
        pytest.param(lambda s: spectral._pole_ground(s), id="pole_ground"),
        pytest.param(
            lambda s: quench.evolve_quench(s, quench.QuenchProtocol(0.1)),
            id="evolve_quench",
        ),
    ],
)
def test_warm_pole_queries_at_ten_spins_allocate_no_level_array(call):
    # A warm query reads one row per sector, O(N); a sort of all 2^10
    # levels allocated about 25 KB.
    spec = ChainSpec(10, -0.3)
    call(spec)
    tracemalloc.start()
    try:
        call(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024


def test_cold_routes_at_ten_spins_peak_below_one_dense_operator():
    # The bound is one 2^10 x 2^10 complex matrix, 16 MiB: no route holds
    # a dense spin total or interaction of the chain.
    for cache in CACHES:
        cache.cache_clear()
    spec = ChainSpec(10, 1.0)
    tracemalloc.start()
    try:
        quench.evolve_quench(spec, quench.QuenchProtocol(0.1))
        curvature_spectral(spec, EQUATOR)
        chern_lattice(spec)
        ground_gap(spec, FieldPoint(theta=0.0))
        find_crossings(spec, (-2.0, 2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
