"""One seed-0 pass of each benchmark workload against its stored reference.

The bench harness compares every task's numbers with
``bench/reference/<workload>.json`` to 1e-10; running the same check here
makes a kernel change that drifts fail the test suite too.  The workload
module is only imported and called; nothing under ``bench/`` is written.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import spinchern.pulsesim as pulsesim
import spinchern.quench as quench
import spinchern.spectral as spectral

from _oracles import CACHES, assert_same_compile, cache_state

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
SEED = 0


def _load_workloads():
    name = "bench_workloads"
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _check_pass(workload, out_dir):
    """Run one seed-0 pass and compare every task with the stored record."""
    with open(BENCH_DIR / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    assert stored["seed"] == SEED
    tasks = workloads.generate(workload, SEED)
    assert len(stored["records"]) == len(tasks)
    ctx = workloads.PassContext(out_dir=str(out_dir))
    oracle = workloads.PoleOracle()
    for task, reference in zip(tasks, stored["records"]):
        record = workloads.check(task, workloads.call(task, ctx), ctx, oracle)
        assert workloads.compare(record, reference), (task.kind, task.n, task.args)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_zero_pass_matches_reference(workload, tmp_path):
    _check_pass(workload, tmp_path)


def test_ramp_pass_on_a_warm_protocol_cache_matches_reference(tmp_path):
    # The bench repeats passes in one process, so all but the first run
    # every ramp on a cached free-spin readout.
    _check_pass("ramp", tmp_path)
    warm = quench._spin_readout.cache_info()
    _check_pass("ramp", tmp_path)
    assert quench._spin_readout.cache_info().misses == warm.misses


def test_pulse_pass_on_warm_step_phase_tables_matches_reference(tmp_path):
    # All but the first pass run every single Trotter ramp on its
    # sector's cached table of step phases and its cached start, and
    # every zz compile on its cached LP bases: no cache of the package
    # misses again.
    _check_pass("pulse", tmp_path)
    warm = quench._step_phases.cache_info()
    warm_bases = pulsesim._lp_bases.cache_info()
    warm_starts = quench._pole_start.cache_info()
    warm_all = cache_state()
    _check_pass("pulse", tmp_path)
    after = quench._step_phases.cache_info()
    assert after.misses == warm.misses and after.hits > warm.hits
    after_bases = pulsesim._lp_bases.cache_info()
    assert after_bases.misses == warm_bases.misses
    assert after_bases.hits > warm_bases.hits
    assert quench._pole_start.cache_info().hits > warm_starts.hits
    missed = [
        f"{cache.__module__}.{cache.__name__}"
        for cache, before, now in zip(CACHES, warm_all, cache_state())
        if now.misses != before.misses
    ]
    assert not missed, f"a warm pulse pass missed {', '.join(missed)}"


def test_warm_lp_bases_compile_the_bench_tables_like_cold_ones():
    # The 36 seed-0 tables, several with vertices tied within 1e-12 tau:
    # the cached bases give the solve the same blocks, so the same bits
    # and the same vertex.
    tasks = workloads.generate("pulse", SEED)
    tables = [task.args for task in tasks if task.kind == "zz"]
    assert len(tables) == 36
    for args in tables:
        pulsesim.compile_zz(*args)
    warm = [pulsesim.compile_zz(*args) for args in tables]
    for args, compiled in zip(tables, warm):
        pulsesim._lp_bases.cache_clear()
        assert_same_compile(compiled, pulsesim.compile_zz(*args))


def test_staircase_pass_on_a_warm_sector_cache_matches_reference(tmp_path):
    # Every staircase pass after the first reads the levels of each size
    # from its cached sector blocks.  Its 11 lattice calls read 7 ground
    # sectors on one grid, so a first pass from a cleared winding cache
    # reads 4 stored windings, and every later pass reads all 11.
    spectral._lattice_winding.cache_clear()
    _check_pass("staircase", tmp_path)
    warm = spectral._sector_data.cache_info()
    warm_windings = spectral._lattice_winding.cache_info()
    assert warm_windings[:2] == (4, 7)
    _check_pass("staircase", tmp_path)
    assert spectral._sector_data.cache_info().misses == warm.misses
    assert spectral._lattice_winding.cache_info()[:2] == (4 + 11, 7)
