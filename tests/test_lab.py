from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinchern
from spinchern import (
    ChainSpec,
    DimensionCap,
    FieldPoint,
    LengthMismatch,
    MoleculeSpec,
    OutOfRange,
    PlateauStats,
    QuenchProtocol,
    SpinChernError,
    SweepConfig,
    SweepRow,
    TooFewRows,
    chern_lattice,
    cli_main,
    curvature_spectral,
    default_j_grid,
    detect_plateaus,
    deviation_report,
    evolve_quench,
    export_results,
    extract_curvature,
    find_crossings,
    import_results,
    linear_zone_scan,
    pole_system,
    program_from_json,
    run_sweep,
    simulate_program,
    simulate_protocol_trotter,
    total_magnetization,
    trotter_step,
)
from spinchern import cli, lab
from spinchern.pulsesim import Delay, PulseProgram
from spinchern.quench import LINEAR_ZONE_CAP

from _oracles import DATA_DIR


def _row(j, f, converged=True, method="spectral"):
    return SweepRow(
        j=j,
        f_phitheta=f,
        chern=2 * f,
        gap_at_pole=1.0,
        method=method,
        converged=converged,
    )


# --- sweeps -------------------------------------------------------------------


def test_sweep_config_validation():
    # Each bad value raises OutOfRange naming its field; before, an empty
    # J list, an unknown method and a ramp without rates raised a plain
    # ValueError, and an entry that is not a number a TypeError or an
    # OverflowError.
    spec = ChainSpec(2, 0.0)
    cases = [
        ({"j_values": ()}, "'j_values'"),
        ({"j_values": (1.0, "one")}, "'j_values'"),
        ({"j_values": ([1.0],)}, "'j_values'"),
        ({"j_values": (10**400,)}, "'j_values'"),
        ({"velocities": (0.1, None)}, "'velocities'"),
        ({"method": "magic"}, "'method'"),
        ({"method": "dynamical", "velocities": ()}, "'velocities'"),
    ]
    for fields, name in cases:
        with pytest.raises(OutOfRange, match=name):
            SweepConfig(**{"spec": spec, "j_values": (1.0,), **fields})


def test_sweep_config_checks_every_field_whatever_the_method():
    # Unchecked, a spectral config held steps=-5 and lattice_grid="ab",
    # and export_results wrote "steps": -5 into its sidecar.
    spec = ChainSpec(2, 0.0)
    with pytest.raises(OutOfRange, match="'steps'"):
        SweepConfig(spec=spec, j_values=(1,), steps=-5, lattice_grid="ab")
    cases = [
        ({"steps": -5}, "'steps'"),
        ({"steps": 2.5}, "'steps'"),
        ({"steps": True}, "'steps'"),
        ({"lattice_grid": "ab"}, "'lattice_grid'"),
        ({"lattice_grid": (0, 4)}, "'lattice_grid'"),
    ]
    for method in lab.METHODS:
        for fields, name in cases:
            with pytest.raises(OutOfRange, match=name):
                SweepConfig(spec=spec, j_values=(1.0,), method=method, **fields)
    assert SweepConfig(spec=spec, j_values=(1.0,)).steps == QuenchProtocol(0.1).steps


@pytest.mark.parametrize("grid", [[24, 24], np.array([24, 24])], ids=["list", "array"])
def test_sweep_config_stores_its_grid_as_a_tuple(grid):
    # The grid was kept as given: a list or an array made the config
    # unhashable and unequal to one with the default grid.
    default = SweepConfig(spec=ChainSpec(2, 0.0), j_values=(1.0,))
    cfg = SweepConfig(spec=ChainSpec(2, 0.0), j_values=(1.0,), lattice_grid=grid)
    assert type(cfg.lattice_grid) is tuple and cfg.lattice_grid == (24, 24)
    assert cfg == default and hash(cfg) == hash(default)


def _two_spins() -> MoleculeSpec:
    return MoleculeSpec(("a", "b"), np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: find_crossings(ChainSpec(2, 0.0), (1.0, 1.0)), id="find_crossings"
        ),
        pytest.param(
            lambda: linear_zone_scan(ChainSpec(2, 1.0), (0.2, 0.1)),
            id="linear_zone_scan",
        ),
        pytest.param(lambda: extract_curvature([]), id="extract_curvature"),
        pytest.param(
            lambda: simulate_program(
                PulseProgram(3, (Delay(1e-3, (0.0, 0.0, 0.0)),)), _two_spins()
            ),
            id="simulate_program",
        ),
        pytest.param(
            lambda: trotter_step(ChainSpec(2, 1.0), FieldPoint(0.7, phi=0.3), 0.1),
            id="trotter_step",
        ),
        pytest.param(
            lambda: total_magnetization(np.ones(4), "w"), id="total_magnetization_axis"
        ),
        pytest.param(
            lambda: total_magnetization(np.ones(3), "z"), id="total_magnetization_dim"
        ),
        pytest.param(
            lambda: MoleculeSpec(("a",), np.zeros(1), np.zeros((1, 1))),
            id="molecule_one_spin",
        ),
        pytest.param(
            lambda: MoleculeSpec(("a", "b"), np.zeros(2), np.zeros((2, 3))),
            id="molecule_shape",
        ),
        pytest.param(
            lambda: MoleculeSpec(("a", "b"), np.zeros(2), np.triu(np.ones((2, 2)))),
            id="molecule_asymmetric",
        ),
        pytest.param(
            lambda: MoleculeSpec(("a", "b"), [0.0, math.nan], np.zeros((2, 2))),
            id="molecule_nan",
        ),
        pytest.param(
            lambda: cli._load_molecule(
                argparse.Namespace(molecule=DATA_DIR / "three_spin.json", n=4)
            ),
            id="cli_molecule_size",
        ),
    ],
)
def test_public_entry_points_raise_a_domain_error(call):
    # Each of these raised a plain ValueError, outside SpinChernError.
    with pytest.raises(SpinChernError):
        call()


def test_spectral_sweep_rows_sorted_and_quantized():
    cfg = SweepConfig(
        spec=ChainSpec(2, 0.0), j_values=(1.0, -1.0, 0.3), method="spectral"
    )
    rows = run_sweep(cfg)
    assert [r.j for r in rows] == [-1.0, 0.3, 1.0]
    assert all(r.converged for r in rows)
    assert rows[0].f_phitheta == pytest.approx(0.0, abs=1e-9)
    assert rows[2].f_phitheta == pytest.approx(1.0, abs=1e-9)
    for r in rows:
        assert r.chern == pytest.approx(2 * r.f_phitheta)
        assert r.method == "spectral"
        assert r.gap_at_pole > 0


def test_sweep_keeps_crossing_row_as_nonconverged():
    cfg = SweepConfig(
        spec=ChainSpec(2, 0.0), j_values=(-1.0, -0.5, 1.0), method="spectral"
    )
    rows = run_sweep(cfg)
    crossing = rows[1]
    assert not crossing.converged
    assert math.isnan(crossing.f_phitheta)
    assert crossing.gap_at_pole < 1e-12


def test_methods_cross_agreement():
    js = (-1.2, -0.8, 0.3, 1.0)
    spectral = run_sweep(
        SweepConfig(spec=ChainSpec(2, 0.0), j_values=js, method="spectral")
    )
    dynamical = run_sweep(
        SweepConfig(
            spec=ChainSpec(2, 0.0),
            j_values=js,
            method="dynamical",
            velocities=(0.05,),
        )
    )
    lattice = run_sweep(
        SweepConfig(spec=ChainSpec(2, 0.0), j_values=js, method="lattice")
    )
    for spec_row, dyn_row, lat_row in zip(spectral, dynamical, lattice):
        # The ramp at v=0.05 sits 1.5% below the static value on this
        # response curve, so the cross-method bound is 0.035 rather
        # than the naive 0.01.
        assert abs(dyn_row.f_phitheta - spec_row.f_phitheta) <= 0.035
        assert lat_row.chern == pytest.approx(round(2 * spec_row.f_phitheta))


def test_trotter_sweep_matches_dynamical():
    js = (-1.0, 1.0)
    kwargs = dict(spec=ChainSpec(2, 0.0), j_values=js, velocities=(0.1,), steps=300)
    dyn = run_sweep(SweepConfig(method="dynamical", **kwargs))
    trot = run_sweep(SweepConfig(method="trotter", **kwargs))
    for d, t in zip(dyn, trot):
        assert t.f_phitheta == pytest.approx(d.f_phitheta, abs=1e-6)
        assert t.method == "trotter"


# The public route a sweep row of each method calls once per rate.
ROUTES = {
    "spectral": "curvature_spectral",
    "lattice": "chern_lattice",
    "dynamical": "evolve_quench",
    "trotter": "simulate_protocol_trotter",
}


@pytest.mark.parametrize("method", lab.METHODS)
def test_sweep_rows_make_one_public_call_per_rate(method, monkeypatch):
    # Counters wrap lab's bindings of the routes, as the bench tracer's
    # spans do, so a row that reached a private twin would count nothing.
    calls = dict.fromkeys(ROUTES.values(), 0)

    def counted(name, fn):
        def route(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return route

    for name in calls:
        monkeypatch.setattr(lab, name, counted(name, getattr(lab, name)))
    velocities = (0.1, 0.2, 0.25)
    js = (-1.0, -0.5, 0.4, 1.0)  # -0.5 is the N = 2 crossing
    rows = run_sweep(
        SweepConfig(
            spec=ChainSpec(2, 0.0), j_values=js, method=method, velocities=velocities
        )
    )
    assert [r.converged for r in rows] == [True, False, True, True]
    per_row = len(velocities) if method in ("dynamical", "trotter") else 1
    expected = dict.fromkeys(ROUTES.values(), 0)
    # The crossing row stops at its first call, which raises.
    expected[ROUTES[method]] = 3 * per_row + 1
    assert calls == expected


@pytest.mark.parametrize("method", lab.METHODS)
@pytest.mark.parametrize(
    "n, j",
    [pytest.param(3, 0.7, id="N3"), pytest.param(4, -0.35, id="N4"),
     pytest.param(2, -0.5, id="crossing")],
)  # fmt: skip
def test_sweep_rows_keep_the_bits_of_their_route(method, n, j):
    spec = ChainSpec(n, j)
    (row,) = run_sweep(
        SweepConfig(spec=ChainSpec(n, 0.0), j_values=(j,), method=method)
    )
    assert row.gap_at_pole == pole_system(spec).ground_gap
    if not row.converged:
        assert math.isnan(row.f_phitheta)
        return
    if method == "spectral":
        direct = curvature_spectral(spec, FieldPoint(theta=math.pi / 2)).f_phitheta
    elif method == "lattice":
        direct = 0.5 * chern_lattice(spec)
    else:
        ramp = evolve_quench if method == "dynamical" else simulate_protocol_trotter
        direct = extract_curvature([ramp(spec, QuenchProtocol(0.1, 300))])
    assert row.f_phitheta == direct
    assert row.chern == 2.0 * direct


def test_lattice_sweep_refuses_a_coarse_grid_before_its_first_row(monkeypatch):
    # At N = 2 a 2x2 grid is admissible for the M_g = 0 rows (J < -1/2)
    # but not for M_g = 2, where the rows once reached it after 17 calls.
    with pytest.raises(OutOfRange) as direct:
        chern_lattice(ChainSpec(2, -0.4), (2, 2))
    calls = []
    route = lab.chern_lattice
    monkeypatch.setattr(
        lab, "chern_lattice", lambda *args: calls.append(args) or route(*args)
    )
    cfg = SweepConfig(
        spec=ChainSpec(2, 0.0), j_values=default_j_grid(step=0.1),
        method="lattice", lattice_grid=(2, 2),
    )  # fmt: skip
    with pytest.raises(OutOfRange) as swept:
        run_sweep(cfg)
    assert str(swept.value) == str(direct.value)
    assert calls == []


@pytest.mark.parametrize("method", lab.METHODS)
def test_only_lattice_sweeps_sum_their_sectors_first(method, monkeypatch):
    # A lattice sweep reads each coupling's ground sector before its rows,
    # the crossing at -0.5 included, and sums each sector once, M_g = 0
    # then 2; the other methods do no such work.
    calls = {"_pole_ground": [], "_lattice_winding": []}
    for name, seen in calls.items():
        route = getattr(lab, name)
        monkeypatch.setattr(
            lab, name, lambda *args, r=route, s=seen: s.append(args) or r(*args)
        )
    js = (1.0, -0.5, 0.4, -1.0)
    run_sweep(SweepConfig(spec=ChainSpec(2, 0.0), j_values=js, method=method))
    if method == "lattice":
        assert len(calls["_pole_ground"]) == 4
        assert calls["_lattice_winding"] == [(0, 24, 24), (2, 24, 24)]
    else:
        assert calls == {"_pole_ground": [], "_lattice_winding": []}


def test_ramp_config_builds_its_protocols_once(tmp_path, monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(QuenchProtocol(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(lab, "QuenchProtocol", counted)
    cfg = SweepConfig(
        spec=ChainSpec(2, 0.0),
        j_values=(-1.0, 0.4, 1.0),
        velocities=(0.1, 0.2),
        method="dynamical",
    )
    assert all(row.converged for row in run_sweep(cfg))
    assert len(built) == 2
    # The protocols are no field: a config rebuilt from its sidecar is
    # equal and writes the same bytes.
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    export_results([], [], first, config=cfg)
    saved = json.loads(first.with_suffix(".json").read_text(encoding="utf-8"))
    c = saved["config"]
    rebuilt = SweepConfig(
        spec=ChainSpec(c["n_spins"], c["coupling_j"], c["max_spins"]),
        j_values=c["j_values"],
        velocities=c["velocities"],
        steps=c["steps"],
        method=c["method"],
        output_path=c["output_path"],
        lattice_grid=c["lattice_grid"],
    )
    assert rebuilt == cfg and hash(rebuilt) == hash(cfg)
    assert repr(rebuilt) == repr(cfg) and "_protocols" not in repr(cfg)
    export_results([], [], second, config=rebuilt)
    assert (
        second.with_suffix(".json").read_bytes()
        == first.with_suffix(".json").read_bytes()
    )


@pytest.mark.parametrize("method", lab.METHODS)
def test_sweep_rows_keep_the_template_cap(method):
    # Each row builds its own spec from the template; one built without
    # max_spins would take the default cap of 10 spins.
    below = SweepConfig(
        spec=ChainSpec(4, 0.0, max_spins=3), j_values=(1.0,), method=method
    )
    with pytest.raises(DimensionCap):
        run_sweep(below)
    if method == "trotter":
        return  # an N = 11 Trotter ramp takes seconds; the cap check above suffices
    above = SweepConfig(
        spec=ChainSpec(11, 0.0, max_spins=11), j_values=(1.0,), method=method
    )
    (row,) = run_sweep(above)
    assert row.converged and round(row.chern) == 11


def test_import_leaves_the_process_pool_unloaded():
    # Importing the package loads no multiprocessing, directly or via numpy.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, spinchern; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


# --- plateau statistics ---------------------------------------------------------


def test_detect_plateaus_needs_enough_rows():
    with pytest.raises(TooFewRows):
        detect_plateaus([_row(0.0, 1.0), _row(1.0, 1.0)])
    with pytest.raises(TooFewRows):
        detect_plateaus([_row(j, 1.0, converged=False) for j in (0, 1, 2, 3)])


def test_detect_plateaus_constant_rows():
    stats = detect_plateaus([_row(j, 1.0) for j in (0.0, 0.5, 1.0)])
    assert len(stats) == 1
    assert stats[0].plateau_mean == pytest.approx(1.0)
    assert stats[0].plateau_std == 0.0
    assert stats[0].j_range == (0.0, 1.0)
    assert stats[0].nearest_theory == 1.0


def test_detect_plateaus_segments_at_jumps_and_gaps():
    rows = (
        [_row(j, 0.01) for j in (-2.0, -1.5, -1.0)]
        + [_row(-0.5, float("nan"), converged=False)]
        + [_row(j, 0.97) for j in (0.0, 0.5, 1.0)]
        + [_row(j, 1.52) for j in (1.5, 2.0)]
    )
    stats = detect_plateaus(rows)
    assert len(stats) == 3
    assert stats[0].nearest_theory == 0.0
    assert stats[1].nearest_theory == 1.0
    assert stats[2].nearest_theory == 1.5
    assert stats[1].j_range == (0.0, 1.0)


def test_detect_plateaus_half_integer_rounding():
    stats = detect_plateaus([_row(j, 0.497) for j in (0.0, 0.1, 0.2)])
    assert stats[0].nearest_theory == 0.5


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    levels=st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=4
    ),
    per_level=st.integers(3, 5),
)
def test_detect_plateaus_recovers_staircases(levels, per_level):
    # Build a noiseless staircase; consecutive equal levels merge.
    rows, j = [], 0.0
    for level in levels:
        for _ in range(per_level):
            rows.append(_row(j, level))
            j += 0.1
    expected = [levels[0]]
    for level in levels[1:]:
        if abs(level - expected[-1]) > 0.25:
            expected.append(level)
        else:
            expected[-1] = level
    stats = detect_plateaus(rows)
    assert [s.nearest_theory for s in stats] == expected


# --- deviation ----------------------------------------------------------------


def test_deviation_report_arithmetic():
    assert deviation_report([1.0, 2.0], [0.0, 0.0]) == pytest.approx(math.sqrt(2.5))
    assert deviation_report([1.0, 2.0], [1.0, 2.0]) == 0.0
    with pytest.raises(LengthMismatch):
        deviation_report([1.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        deviation_report([], [])


def test_dynamical_deviation_from_static_theory_is_small():
    js = [j for j in default_j_grid(step=0.1) if abs(j + 0.5) > 0.05]
    spec_rows = run_sweep(
        SweepConfig(spec=ChainSpec(2, 0.0), j_values=js, method="spectral")
    )
    dyn_rows = run_sweep(
        SweepConfig(
            spec=ChainSpec(2, 0.0), j_values=js, method="dynamical", velocities=(0.1,)
        )
    )
    sigma = deviation_report(
        [r.f_phitheta for r in dyn_rows], [r.f_phitheta for r in spec_rows]
    )
    assert sigma <= 0.01


# --- persistence ----------------------------------------------------------------


def test_export_import_roundtrip_bit_exact(tmp_path):
    rows = [
        _row(-0.123456789123456789, 1 / 3),
        _row(0.1 + 0.2, math.pi / 7),
        SweepRow(
            j=0.5,
            f_phitheta=float("nan"),
            chern=float("nan"),
            gap_at_pole=1e-300,
            method="spectral",
            converged=False,
        ),
    ]
    path = tmp_path / "rows.csv"
    export_results(rows, [], path)
    loaded = import_results(path)
    assert len(loaded) == len(rows)
    for a, b in zip(loaded, rows):
        assert a.j == b.j
        assert a.gap_at_pole == b.gap_at_pole
        assert a.method == b.method
        assert a.converged == b.converged
        if math.isnan(b.f_phitheta):
            assert math.isnan(a.f_phitheta) and math.isnan(a.chern)
        else:
            assert a.f_phitheta == b.f_phitheta and a.chern == b.chern


def test_export_header_and_sidecar(tmp_path):
    path = tmp_path / "out.csv"
    cfg = SweepConfig(
        spec=ChainSpec(2, 0.0), j_values=(0.0, 1.0), method="spectral"
    )
    stats = [
        PlateauStats(
            plateau_mean=1.0, plateau_std=0.0, j_range=(0.0, 1.0), nearest_theory=1.0
        )
    ]
    export_results(
        [_row(0.0, 1.0)], stats, path, config=cfg, crossings=[-0.5], seed=42
    )
    first_line = path.read_text().splitlines()[0]
    assert first_line == "j,f_phitheta,chern,gap_at_pole,method,converged"
    sidecar = json.loads((tmp_path / "out.json").read_text())
    assert sidecar["seed"] == 42
    assert sidecar["crossings"] == [-0.5]
    assert sidecar["config"]["n_spins"] == 2
    assert sidecar["config"]["method"] == "spectral"
    assert sidecar["plateaus"][0]["nearest_theory"] == 1.0
    assert sidecar["version"]


def test_export_sidecar_text_is_pinned(tmp_path):
    path = tmp_path / "pinned.csv"
    cfg = SweepConfig(
        spec=ChainSpec(3, 0.0),
        j_values=(-1, 0.25),
        velocities=(0.05, 0.1),
        method="trotter",
        output_path="run.csv",
    )
    stats = [PlateauStats(1.5, 0.0, (-1.0, 0.25), 1.5)]
    export_results([], stats, path, config=cfg, crossings=[-1 / 3], seed=7)
    expected = """{
  "version": "VERSION",
  "seed": 7,
  "config": {
    "n_spins": 3,
    "coupling_j": 0.0,
    "max_spins": 10,
    "j_values": [
      -1.0,
      0.25
    ],
    "velocities": [
      0.05,
      0.1
    ],
    "steps": 300,
    "method": "trotter",
    "output_path": "run.csv",
    "lattice_grid": [
      24,
      24
    ]
  },
  "plateaus": [
    {
      "plateau_mean": 1.5,
      "plateau_std": 0.0,
      "j_range": [
        -1.0,
        0.25
      ],
      "nearest_theory": 1.5
    }
  ],
  "crossings": [
    -0.3333333333333333
  ]
}
"""
    text = (tmp_path / "pinned.json").read_text(encoding="utf-8")
    assert text == expected.replace("VERSION", spinchern.__version__)


def test_export_table_bytes_are_pinned(tmp_path):
    # 17 significant digits and CRLF line ends, whatever writes the rows.
    rows = [
        SweepRow(-0.0, math.nan, math.nan, 1e-300, "spectral", False),
        SweepRow(0.1 + 0.2, math.inf, -math.inf, 0.5, "lattice", True),
        SweepRow(1 / 3, 2.0, 4.0, 123456789.0, "trotter", True),
    ]
    path = tmp_path / "pinned.csv"
    export_results(rows, [], path)
    assert path.read_bytes() == (
        b"j,f_phitheta,chern,gap_at_pole,method,converged\r\n"
        b"-0,nan,nan,1e-300,spectral,false\r\n"
        b"0.30000000000000004,inf,-inf,0.5,lattice,true\r\n"
        b"0.33333333333333331,2,4,123456789,trotter,true\r\n"
    )


def test_export_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    export_results([], [], path)
    assert path.read_text().splitlines() == [
        "j,f_phitheta,chern,gap_at_pole,method,converged"
    ]
    sidecar = json.loads((tmp_path / "empty.json").read_text())
    assert sidecar["plateaus"] == [] and sidecar["crossings"] == []
    assert import_results(path) == []


@pytest.mark.parametrize("name", ["out.json", "out.JSON", "out.Json"])
def test_export_to_a_json_path_is_refused_before_any_write(tmp_path, name):
    # The sidecar takes the path's base and a .json extension, so it
    # overwrote a .json table, which import_results then refused.
    with pytest.raises(OutOfRange, match="sidecar"):
        export_results([_row(0.0, 1.0)], [], tmp_path / name)
    assert list(tmp_path.iterdir()) == []


def test_export_writes_numpy_counts_as_json_ints(tmp_path):
    # A config is valid with numpy integer counts, but json.dump raised
    # on them after writing the table and part of the sidecar.
    cfg = SweepConfig(
        spec=ChainSpec(np.int64(2), 0.0),
        j_values=(-1.0, 1.0),
        steps=np.int64(300),
        lattice_grid=np.array([24, 24]),
    )
    plain = SweepConfig(spec=ChainSpec(2, 0.0), j_values=(-1.0, 1.0))
    export_results([], [], tmp_path / "numpy.csv", config=cfg, seed=np.int64(7))
    export_results([], [], tmp_path / "plain.csv", config=plain, seed=7)
    text = (tmp_path / "numpy.json").read_text(encoding="utf-8")
    assert text == (tmp_path / "plain.json").read_text(encoding="utf-8")
    c = json.loads(text)["config"]
    rebuilt = SweepConfig(
        spec=ChainSpec(c["n_spins"], c["coupling_j"], c["max_spins"]),
        j_values=c["j_values"],
        steps=c["steps"],
        lattice_grid=c["lattice_grid"],
    )
    assert rebuilt == cfg


def test_export_with_an_unserialisable_sidecar_writes_nothing(tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable"):
        export_results([_row(0.0, 1.0)], [], tmp_path / "out.csv", seed=object())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["lattice,x", "bogus"])
def test_export_refuses_a_method_import_would_refuse(tmp_path, method):
    # The row was written, quoted for its comma, and import_results then
    # raised OutOfRange on the table.
    rows = [_row(0.0, 1.0), _row(0.5, 1.0, method=method)]
    with pytest.raises(OutOfRange, match=r"rows\[1\]: method"):
        export_results(rows, [], tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []


def _staircase(count: int) -> tuple[list, list]:
    rows = [_row(float(j), float(j > 0)) for j in np.linspace(-2.0, 2.0, count)]
    return rows, detect_plateaus(rows)


def test_export_over_a_longer_export_leaves_only_the_new_bytes(tmp_path):
    # Files are written in place, so each must be cut to its new length.
    path = tmp_path / "sweep.csv"
    export_results(*_staircase(41), path, seed=12345)
    export_results(*_staircase(5), path)
    export_results(*_staircase(5), tmp_path / "fresh.csv")
    for name in ("sweep", "fresh"):
        assert len(import_results(tmp_path / f"{name}.csv")) == 5
    for suffix in (".csv", ".json"):
        fresh = (tmp_path / f"fresh{suffix}").read_bytes()
        assert (tmp_path / f"sweep{suffix}").read_bytes() == fresh


def test_export_through_a_symlink_writes_its_target_and_keeps_its_mode(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n" * 1000)
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    export_results(*_staircase(5), link)
    export_results(*_staircase(5), tmp_path / "fresh.csv")
    assert link.is_symlink()
    assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_a_failed_export_write_leaves_an_empty_table(tmp_path, monkeypatch):
    # Written in place over a longer table, a write that fails partway
    # would leave the new bytes followed by the old ones.
    path = tmp_path / "sweep.csv"
    export_results(*_staircase(41), path)
    write = os.write

    def write_then_fail(fd, data):
        write(fd, data[:10])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", write_then_fail)
    with pytest.raises(OSError, match="No space left"):
        export_results(*_staircase(5), path)
    monkeypatch.undo()
    assert path.read_bytes() == b""


_CSV_HEADER = "j,f_phitheta,chern,gap_at_pole,method,converged"
_CSV_ROW = "0.5,1,1,0.25,spectral,true"


@pytest.mark.parametrize(
    "lines, line, message",
    [
        pytest.param(["j,f,chern,gap,method,converged", _CSV_ROW], 1, "header",
                     id="header"),
        pytest.param([], 1, "header", id="no-header"),
        pytest.param([_CSV_HEADER, _CSV_ROW, "0.5,1,1,0.25,spectral"], 3, "5 fields",
                     id="short-row"),
        pytest.param([_CSV_HEADER, _CSV_ROW + ",extra"], 2, "7 fields", id="long-row"),
        pytest.param([_CSV_HEADER, "0.5,one,1,0.25,spectral,true"], 2, "not a number",
                     id="not-a-number"),
        pytest.param([_CSV_HEADER, "0.5,1,1,0.25,spectral,yes"], 2, "converged",
                     id="converged-yes"),
        pytest.param([_CSV_HEADER, _CSV_ROW, "0.5,1,1,0.25,bogus,true"], 3, "method",
                     id="method-bogus"),
    ],
)  # fmt: skip
def test_import_rejects_malformed_files(lines, line, message, tmp_path):
    # DictReader raised KeyError on a wrong header, a TypeError on a short
    # row, and read converged=yes as False and a method of bogus as a row.
    path = tmp_path / "rows.csv"
    path.write_text("".join(f"{x}\r\n" for x in lines))
    where = f"{re.escape(str(path))} line {line}: "
    with pytest.raises(OutOfRange, match=where + f".*{message}"):
        import_results(path)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=5,
    )
)
def test_float_serialization_roundtrips_exactly(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "rows.csv"
    rows = [_row(v, v) for v in values]
    export_results(rows, [], path)
    assert [r.j for r in import_results(path)] == [r.j for r in rows]


# --- CLI ------------------------------------------------------------------------


def test_cli_sweep_happy_path(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli_main(
        [
            "sweep",
            "--n",
            "2",
            "--j-min",
            "-1",
            "--j-max",
            "1",
            "--j-step",
            "0.5",
            "--method",
            "spectral",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists() and (tmp_path / "sweep.json").exists()
    assert "plateau_mean" in capsys.readouterr().out


def test_cli_sweep_reads_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "from_config.csv"
    cfg_path.write_text(
        json.dumps(
            {
                "n_spins": 2,
                "j_values": [-1.0, 0.0, 1.0],
                "method": "spectral",
                "output_path": str(out),
            }
        )
    )
    assert cli_main(["sweep", "--config", str(cfg_path)]) == 0
    assert len(import_results(out)) == 3


def test_cli_sweep_to_a_json_output_exits_one_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out.json"
    flags = ["--j-min", "-1", "--j-max", "1", "--j-step", "1", "--output", str(out)]
    assert cli_main(["sweep", "--n", "2", *flags]) == 1
    assert "OutOfRange" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["out.json", "out.JSON"])
def test_cli_sweep_refuses_a_json_output_before_the_first_row(
    tmp_path, capsys, monkeypatch, name
):
    # The refusal came from export_results, after every row was computed.
    def unreachable(cfg):
        raise AssertionError("the sweep ran before its output path was checked")

    monkeypatch.setattr(cli, "run_sweep", unreachable)
    flags = ["--method", "trotter", "--j-min", "-1", "--j-max", "1", "--j-step", "0.1"]
    argv = ["sweep", "--n", "10", *flags, "--output", str(tmp_path / name)]
    assert cli_main(argv) == 1
    assert "sidecar" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["velocites", "max_spins", "lattice_grid"])
def test_cli_sweep_config_with_an_unknown_key_is_refused(tmp_path, capsys, key):
    # Unchecked, a misspelled rate list ran the default rate, and the
    # sidecar's own max_spins and lattice_grid were dropped unread.
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "never.csv"
    record = {"n_spins": 2, "method": "dynamical", "j_values": [1.0], key: [0.25]}
    cfg_path.write_text(json.dumps({**record, "output_path": str(out)}))
    assert cli_main(["sweep", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert str(cfg_path) in err and repr(key) in err
    assert not out.exists()


def test_cli_curvature_at_crossing_fails_cleanly(capsys):
    code = cli_main(["curvature", "--n", "2", "--j", "-0.5", "--method", "spectral"])
    assert code == 1
    err = capsys.readouterr().err
    assert "degenerate" in err
    assert "DegenerateGroundState" in err


def test_cli_curvature_all_methods(capsys):
    assert cli_main(["curvature", "--n", "2", "--j", "1.0", "--method", "all"]) == 0
    out = capsys.readouterr().out
    assert all(method in out for method in lab.METHODS)


def test_cli_crossings(capsys):
    assert cli_main(["crossings", "--n", "2"]) == 0
    assert "-0.5000" in capsys.readouterr().out


def test_cli_spectrum_writes_csv(tmp_path, capsys):
    out = tmp_path / "levels.csv"
    code = cli_main(
        ["spectrum", "--n", "2", "--j-min", "-1", "--j-max", "1", "--j-step", "1",
         "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "j,e0,e1,e2,e3"
    assert len(lines) == 4


def test_cli_spectrum_writes_to_a_device(capsys):
    # A device such as /dev/null takes the table but cannot be truncated.
    code = cli_main(
        ["spectrum", "--n", "2", "--j-min", "-1", "--j-max", "1", "--j-step", "1",
         "--output", os.devnull]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {os.devnull}"


@pytest.mark.parametrize(
    "step, lo, hi",
    [
        (0.0, -2.0, 2.0),
        (-0.1, -2.0, 2.0),
        (math.nan, -2.0, 2.0),
        (math.inf, -2.0, 2.0),
        (0.05, math.inf, 2.0),
        (0.05, -2.0, math.nan),
        (0.05, 1.0, -1.0),
        # one point over the cap, and a count too large for a float
        (1.0, 0.0, float(lab.MAX_J_POINTS)),
        (5e-324, -1.0, 1.0),
    ],
)
def test_bad_j_grid_is_rejected_before_any_work(step, lo, hi, capsys):
    with pytest.raises(OutOfRange):
        default_j_grid(step=step, lo=lo, hi=hi)
    flags = [f"--j-step={step}", f"--j-min={lo}", f"--j-max={hi}"]
    for command in ("spectrum", "sweep"):
        assert cli_main([command, "--n", "2", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: OutOfRange: ")


def test_cli_pulse_compile_and_verify(tmp_path, capsys):
    events = tmp_path / "events.json"
    molecule = str(DATA_DIR / "three_spin.json")
    code = cli_main(
        ["pulse", "compile", "--molecule", molecule, "--n", "3", "--output", str(events)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verification fidelity: 1.0000" in out
    target = -0.5 * math.pi * (100 * -50 / 150.0)
    code = cli_main(
        [
            "pulse",
            "verify",
            "--molecule",
            molecule,
            "--sequence",
            str(events),
            "--target-j",
            str(target),
            "--tau",
            "1e-3",
        ]
    )
    assert code == 0
    assert "fidelity: 1.0000" in capsys.readouterr().out


def test_cli_pulse_compile_equal_couplings_exits_one(tmp_path, capsys):
    molecule = json.loads((DATA_DIR / "three_spin.json").read_text())
    j = molecule["couplings_hz"][0][1]
    molecule["couplings_hz"][1][2] = molecule["couplings_hz"][2][1] = j
    path = tmp_path / "equal.json"
    path.write_text(json.dumps(molecule))
    code = cli_main(["pulse", "compile", "--molecule", str(path), "--n", "3"])
    assert code == 1
    assert "DegenerateCouplings" in capsys.readouterr().err


def _without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


_DELAY = {"type": "delay", "t_s": 1e-3, "frame": [0.0, 0.0, 0.0]}
_PULSE = {"type": "pulse", "spins": [0, 2], "axis": "x", "angle_rad": math.pi}
_MOLECULE = json.loads((DATA_DIR / "three_spin.json").read_text())


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        pytest.param("sequence", [_DELAY, dict(_PULSE, axis="w")], "axis", id="axis-w"),
        pytest.param("sequence", [dict(_DELAY, t_s=math.nan)], "delay", id="t-nan"),
        pytest.param("sequence", [dict(_DELAY, t_s=math.inf)], "delay", id="t-inf"),
        pytest.param("sequence", [dict(_DELAY, t_s=-1e-3)], "delay", id="t-negative"),
        pytest.param(
            "sequence", [dict(_DELAY, frame=[0.0, math.inf, 0.0])], "frame", id="frame-inf"
        ),
        pytest.param("sequence", [_without(_DELAY, "t_s")], "'t_s'", id="no-t_s"),
        pytest.param("sequence", [_without(_PULSE, "axis")], "'axis'", id="no-axis"),
        pytest.param("sequence", [_without(_PULSE, "type")], "'type'", id="no-type"),
        pytest.param("molecule", _without(_MOLECULE, "labels"), "'labels'", id="no-labels"),
        pytest.param(
            "molecule", _without(_MOLECULE, "couplings_hz"), "'couplings_hz'",
            id="no-couplings",
        ),
    ],
)
def test_bad_pulse_files_are_rejected(kind, payload, message, tmp_path, capsys):
    # The reader raises OutOfRange before any simulation, and the CLI
    # prints it and exits 1 with no traceback.
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))
    reader = program_from_json if kind == "sequence" else MoleculeSpec.from_json
    with pytest.raises(OutOfRange, match=message):
        reader(path)
    files = {"molecule": DATA_DIR / "three_spin.json", "sequence": tmp_path / "ok.json"}
    files["sequence"].write_text(json.dumps([_DELAY, _PULSE]))
    files[kind] = path
    commands = [
        ["pulse", "verify", "--molecule", str(files["molecule"]),
         "--sequence", str(files["sequence"]), "--target-j", "1", "--tau", "1e-3"],
    ]  # fmt: skip
    if kind == "molecule":
        commands.append(["pulse", "compile", "--molecule", str(path)])
    for argv in commands:
        assert cli_main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: OutOfRange: ") and message in err


@pytest.mark.parametrize(
    "kind, payload, where, field",
    [
        pytest.param("molecule", dict(_MOLECULE, labels=5), "", "'labels'",
                     id="labels-int"),
        pytest.param("molecule", dict(_MOLECULE, labels=["A"]), "", "'labels'",
                     id="labels-short"),
        pytest.param("molecule", dict(_MOLECULE, shifts_hz="x"), "", "'shifts_hz'",
                     id="shifts-string"),
        pytest.param("molecule", dict(_MOLECULE, couplings_hz="x"), "",
                     "'couplings_hz'", id="couplings-string"),
        pytest.param("sequence", [_DELAY, dict(_PULSE, spins=[])], " event 1",
                     "'spins'", id="spins-empty"),
        pytest.param("sequence", [dict(_PULSE, spins=[1.7])], " event 0", "'spins'",
                     id="spins-fractional"),
        pytest.param("sequence", [dict(_DELAY, t_s="1")], " event 0", "'t_s'",
                     id="t-string"),
        pytest.param("sequence", [_DELAY, dict(_PULSE, axis="w")], " event 1",
                     "'axis'", id="axis-w"),
        pytest.param("sequence", [_PULSE, dict(_DELAY, t_s=-1e-3)], ": event 1",
                     "delay", id="t-negative"),
        pytest.param("sequence", [dict(_DELAY, frame=[0.0, math.nan, 0.0])],
                     ": event 0", "frame", id="frame-nan"),
        pytest.param("sequence", [_DELAY, dict(_PULSE, spins=[0, 3])], ": event 1",
                     "spin 3 is outside the 3-spin frame", id="spin-past-frame"),
    ],
)  # fmt: skip
def test_pulse_file_values_are_type_checked(kind, payload, where, field, tmp_path,
                                            capsys):  # fmt: skip
    # Unchecked, labels=5 died with a TypeError traceback, an empty spin
    # list with a bare ValueError from max(), spin 1.7 ran as spin 1,
    # one label passed for three spins, and a string of shifts or
    # couplings named the file but not the key.  A negative delay, a NaN
    # frame offset and a spin past the frame length named neither the
    # file nor the event, and then the spin past the frame was blamed on
    # the delay before it.  Every message names the file, the event and
    # the field.
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))
    molecule = path if kind == "molecule" else DATA_DIR / "three_spin.json"
    sequence = path if kind == "sequence" else tmp_path / "ok.json"
    sequence.write_text(json.dumps(payload if kind == "sequence" else [_DELAY]))
    commands = [
        ["pulse", "verify", "--molecule", str(molecule), "--sequence", str(sequence),
         "--target-j", "1", "--tau", "1e-3"],
    ]  # fmt: skip
    if kind == "molecule":
        commands.append(["pulse", "compile", "--molecule", str(path)])
    for argv in commands:
        assert cli_main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: OutOfRange: {path}{where}")
        assert field in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(["--target-j", "nan", "--tau", "1e-3"], id="target-nan"),
        pytest.param(["--target-j", "1", "--tau", "inf"], id="tau-inf"),
        pytest.param(["--target-j", "1", "--tau=0"], id="tau-zero"),
        pytest.param(["--target-j", "1", "--tau=-1e-3"], id="tau-negative"),
    ],
)
def test_cli_pulse_verify_rejects_bad_target_and_tau(flags, tmp_path, capsys):
    # Unchecked, a NaN target printed "fidelity: nan" and exited 0, an
    # infinite tau printed two RuntimeWarnings and nan, and tau <= 0
    # printed fidelities of about 0.997.
    sequence = tmp_path / "ok.json"
    sequence.write_text(json.dumps([_DELAY, _PULSE]))
    argv = ["pulse", "verify", "--molecule", str(DATA_DIR / "three_spin.json"),
            "--sequence", str(sequence), *flags]  # fmt: skip
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: OutOfRange: ")


@pytest.mark.parametrize(
    "command, payload, field",
    [
        pytest.param("sweep", [1, 2], "a JSON object", id="config-list"),
        pytest.param("sweep", {"j_values": [[1]]}, "'j_values'", id="j-nested"),
        pytest.param("sweep", {"method": "dynamical", "velocities": [[0.1]]},
                     "'velocities'", id="velocities-nested"),
        pytest.param("sweep", {"n_spins": 2, "steps": True}, "'steps'", id="steps-bool"),
        pytest.param("sweep", {"method": 5}, "'method'", id="method-int"),
        pytest.param("sweep", {"method": "bogus"}, "'method'", id="method-unknown"),
        pytest.param("sweep", {"j_values": []}, "'j_values'", id="j-empty"),
        pytest.param("sweep", {"method": "dynamical", "velocities": []},
                     "'velocities'", id="velocities-empty"),
        pytest.param("sweep", {"j_values": [0.5], "output_path": 5}, "'output_path'",
                     id="output-int"),
        pytest.param("verify", 5, "a list of events", id="sequence-int"),
        pytest.param("compile", [1], "a JSON object", id="molecule-list"),
    ],
)  # fmt: skip
def test_cli_json_files_are_type_checked(command, payload, field, tmp_path, capsys):
    # Unchecked, a list config died with an AttributeError, nested
    # j_values or velocities with a TypeError from float(), a bool step
    # count ran a spectral sweep, a method 5 and an output path 5 failed
    # without naming the file (the path only after the whole sweep), an
    # unknown method, an empty J list and a ramp method's empty rate list
    # named neither the file nor the key, and a sequence holding 5 died
    # with a TypeError.
    path = tmp_path / "file.json"
    path.write_text(json.dumps(payload))
    argv = {
        "sweep": ["sweep", "--config", str(path)],
        "verify": ["pulse", "verify", "--molecule", str(DATA_DIR / "three_spin.json"),
                   "--sequence", str(path), "--target-j", "1", "--tau", "1e-3"],
        "compile": ["pulse", "compile", "--molecule", str(path)],
    }[command]  # fmt: skip
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: OutOfRange: {path}") and field in err


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(["--n", "0"], id="no-spins"),
        pytest.param(["--method", "dynamical", "--steps", "0"], id="steps-zero"),
        pytest.param(["--method", "trotter", "--v", "0.1,nan"], id="rate-nan"),
    ],
)
def test_cli_bad_sweep_flag_names_no_file(flags, tmp_path, capsys):
    # The file is a valid sweep, so the error is the flag's own.
    path = tmp_path / "file.json"
    path.write_text(json.dumps({"j_values": [0.5]}))
    assert cli_main(["sweep", "--config", str(path), *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: OutOfRange: ") and str(path) not in err


def test_cli_sweep_file_must_be_valid_on_its_own(tmp_path, capsys):
    # A flag applies over a valid sweep; it does not mend the file.
    path = tmp_path / "file.json"
    path.write_text(json.dumps({"method": "dynamical", "velocities": []}))
    argv = ["sweep", "--config", str(path), "--method", "spectral"]
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: OutOfRange: {path}: 'velocities'")


def test_cli_pulse_verify_rejects_a_chain_over_the_cap(tmp_path, capsys):
    n = 12
    molecule = tmp_path / "molecule.json"
    molecule.write_text(
        json.dumps(
            {
                "labels": [f"s{k}" for k in range(n)],
                "shifts_hz": [0.0] * n,
                "couplings_hz": [
                    [100.0 if abs(i - k) == 1 else 0.0 for k in range(n)]
                    for i in range(n)
                ],
            }
        )
    )
    sequence = tmp_path / "sequence.json"
    sequence.write_text(json.dumps([dict(_DELAY, frame=[0.0] * n)]))
    argv = ["pulse", "verify", "--molecule", str(molecule), "--sequence",
            str(sequence), "--target-j", "1", "--tau", "1e-3"]  # fmt: skip
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: DimensionCap: ")


def test_cli_pulse_compile_rejects_wrong_size(capsys):
    code = cli_main(
        ["pulse", "compile", "--molecule", str(DATA_DIR / "three_spin.json"), "--n", "4"]
    )
    assert code == 1


def test_cli_linear_zone(capsys):
    assert cli_main(["linear-zone", "--n", "2", "--j", "1.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["v_theta", "m_phi/v", "vs_static"]
    rows = {float(r.split()[0]): float(r.split()[2]) for r in lines[2:]}
    assert LINEAR_ZONE_CAP in rows and 1.53 not in rows
    assert abs(rows[LINEAR_ZONE_CAP] - 1.0) <= 0.05


@pytest.mark.parametrize(
    "rates, named",
    [("", "velocities must not be empty"), ("0.1,nan", "velocities[1]"),
     ("0.1,inf", "velocities[1]")],
)  # fmt: skip
def test_cli_linear_zone_rejects_bad_rates(rates, named, capsys):
    # An empty --v printed an empty table and exited 0.
    assert cli_main(["linear-zone", "--v", rates]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: OutOfRange: ") and named in err


@pytest.mark.parametrize("command", ["linear-zone", "sweep"])
@pytest.mark.parametrize(
    "rates, named",
    [("0.1,,0.2", "velocities[1]"), (",0.1", "velocities[0]"),
     ("0.1,0.2,", "velocities[2]"), ("0.1, ,0.2", "velocities[1]")],
)  # fmt: skip
def test_cli_rejects_an_empty_rate_before_any_ramp(
    command, rates, named, monkeypatch, capsys
):
    # An empty entry was dropped, so the other rates ran and the command
    # exited 0.
    ramps = [_record(monkeypatch, f, []) for f in ("linear_zone_scan", "run_sweep")]
    argv = [command, "--v", rates]
    if command == "sweep":
        argv += ["--method", "dynamical"]
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and ramps == [[], []]
    assert err.startswith(f"error: OutOfRange: {named} is empty")


def test_cli_robustness(capsys):
    code = cli_main(
        ["robustness", "--n", "2", "--v", "0.5", "--steps", "60", "--error-deg", "1",
         "--trials", "2", "--seed", "1"]
    )
    assert code == 0
    assert "min fidelity" in capsys.readouterr().out


def _record(monkeypatch, name: str, result) -> list:
    """Replace the CLI's ``name`` by a stub returning ``result``; the
    list gets each call's positional and keyword arguments."""
    calls = []

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        return result

    monkeypatch.setattr(cli, name, stub)
    return calls


def test_cli_omitted_flags_reach_the_api_defaults(monkeypatch, capsys):
    # An omitted flag is left out of the call, so the API's own default
    # applies; before, the CLI restated 300 steps, 20 trials, seed 0 and
    # the coupling grid's ends and step.
    default = QuenchProtocol(0.1)
    fidelity = _record(monkeypatch, "perturbed_fidelity", 1.0)
    assert cli_main(["robustness"]) == 0
    assert fidelity == [((ChainSpec(2, 1.0), default, 5.0), {})]
    scan = _record(monkeypatch, "linear_zone_scan", [(0.1, 1.0)])
    assert cli_main(["linear-zone", "--v", "0.1"]) == 0
    assert scan == [((ChainSpec(2, 1.0), (0.1,)), {})]
    for method in lab.RAMP_METHODS:
        route = {"dynamical": "evolve_quench", "trotter": "simulate_protocol_trotter"}
        ramps = _record(monkeypatch, route[method], SimpleNamespace(f_extracted=0.5))
        argv = ["curvature", "--n", "2", "--j", "1", "--method", method]
        assert cli_main(argv) == 0
        assert ramps == [((ChainSpec(2, 1.0), default), {})]
    crossings = _record(monkeypatch, "find_crossings", [])
    assert cli_main(["crossings", "--n", "2"]) == 0
    grid = default_j_grid()
    assert crossings == [((ChainSpec(2, 0.0), (grid[0], grid[-1])), {})]
    flags = argparse.Namespace(j_min=0.5, j_max=None, j_step=None)
    assert cli._j_grid_from_args(flags) == default_j_grid(lo=0.5)
    capsys.readouterr()


def test_cli_robustness_rejects_a_negative_seed(capsys):
    assert cli_main(["robustness", "--n", "2", "--seed", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: OutOfRange: seed")


def test_cli_usage_errors_exit_two(capsys):
    assert cli_main([]) == 2
    assert cli_main(["sweep", "--method", "bogus"]) == 2
    capsys.readouterr()


def test_cli_missing_file_exits_one(capsys):
    assert cli_main(["pulse", "compile", "--molecule", "/nonexistent.json"]) == 1
    assert "error" in capsys.readouterr().err
