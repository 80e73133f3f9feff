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

import spinchern.quench as quench
import spinchern.spectral as spectral

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
    # every ramp on a cached free-spin product.
    _check_pass("ramp", tmp_path)
    warm = quench._free_spin_ramp.cache_info()
    _check_pass("ramp", tmp_path)
    assert quench._free_spin_ramp.cache_info().misses == warm.misses


def test_staircase_pass_on_a_warm_sector_cache_matches_reference(tmp_path):
    # Every staircase pass after the first reads the levels of each size
    # from its cached sector blocks.
    _check_pass("staircase", tmp_path)
    warm = spectral._sector_data.cache_info()
    _check_pass("staircase", tmp_path)
    assert spectral._sector_data.cache_info().misses == warm.misses
