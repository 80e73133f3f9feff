"""Benchmark for spinchern: end-to-end metrics per workload, or per-layer spans.

Run from the root of a checkout:

    python3 bench/run.py --workload staircase --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload ramp --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --table --seed 0 --seconds 10
    python3 bench/run.py --workload pulse --seed 0 --update-reference

With ``--trace 0`` it prints wall_s, task_ms_p50, task_ms_p90, setup_s,
peak_rss_mb and error_rate for the workload.  With ``--trace 1`` it
prints per-layer call counts and self times from spans wrapped around
the public functions of qcore, model, spectral, quench, pulsesim and lab,
plus a per-chain-size breakdown.  ``--table`` runs all three workloads
traced and prints the baseline table (median per call, N = 3-7).
``--update-reference`` stores every task's output for the given seed (the
committed files hold seed 0); later runs with that seed compare each
task's output against it at 1e-10.

Times are rescaled to reference machine speed by the probe in speed.py,
which is timed between tasks; the unscaled pass times are printed too.
wall_s is the sum over the task list of each task's median latency over
the run's passes, and task_ms_p50/p90 are percentiles of those medians.

Every workload runs serially in fresh processes, with BLAS pinned to one
thread and SPINCHERN_WORKERS unset.  setup_s is the median over several
fresh processes of importing spinchern, generating the inputs and filling
the operator cache.  The last line of output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("staircase", "ramp", "pulse")
SETUP_RUNS = 9
DEADLINE_S = 170.0
TABLE_SIZES = range(3, 8)
TABLE_ROWS = (
    ("quench.evolve_quench", "`evolve_quench`, 300 steps"),
    ("spectral.curvature_spectral", "`curvature_spectral`, one point"),
    ("pulsesim.simulate_protocol_trotter", "`simulate_protocol_trotter`, 300 steps"),
    ("spectral.chern_lattice", "`chern_lattice` 24x24 (625 eigensolves)"),
)

# Per-layer spans reported as <name>.calls and <name>.self_s.
SPANS = (
    "qcore.eigh",
    "qcore.expm_i",
    "numpy.linalg.eigh",
    "model.build_heisenberg",
    "model.param_derivative",
    "model.total_magnetization",
    "spectral.curvature_spectral",
    "spectral.ground_gap",
    "spectral.chern_lattice",
    "spectral.find_crossings",
    "quench.evolve_quench",
    "pulsesim.simulate_protocol_trotter",
    "pulsesim.perturbed_fidelity",
    "pulsesim.compile_zz",
    "pulsesim.verify_sequence",
    "pulsesim.simulate_program",
    "lab.run_sweep",
)
SELF_ONLY = ("lab.export_results", "lab.import_results")


class BenchError(RuntimeError):
    pass


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("benchmark ran out of time")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPINCHERN_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def run_worker(mode: str, workload: str, seed: int, seconds: float, deadline) -> dict:
    """Run one fresh worker process and return its JSON result."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--mode", mode,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--root", str(ROOT),
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=deadline.left(),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def task_medians(passes) -> list:
    """Each task's median scaled latency over the passes, in task order."""
    return [statistics.median(samples) for samples in zip(*(p["scaled"] for p in passes))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# --- end-to-end ---------------------------------------------------------------


def end_to_end(args, deadline) -> tuple:
    # One untimed process first, so later ones read compiled bytecode.
    run_worker("setup", args.workload, args.seed, 0, deadline)
    setups = [
        run_worker("setup", args.workload, args.seed, 0, deadline)
        for _ in range(SETUP_RUNS)
    ]
    result = run_worker("measure", args.workload, args.seed, args.seconds, deadline)
    setups.append(result)

    passes = result["passes"]
    latencies_ms = [1e3 * t for t in task_medians(passes)]
    deciles = statistics.quantiles(latencies_ms, n=10)
    metrics = {
        "wall_s": metric(sum(latencies_ms) / 1e3, "s"),
        "task_ms_p50": metric(deciles[4], "ms"),
        "task_ms_p90": metric(deciles[8], "ms"),
        "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }
    beyond_p90 = sum(1 for t in latencies_ms if t > deciles[8])
    q1, q2, q3 = quartiles([p["wall_s"] for p in passes])
    speed = statistics.median(p["speed"] for p in passes)
    notes = [
        f"times are at reference speed; this run's speed factor {speed:.3f} "
        f"(probe {result['probe_ms']:.3f} ms)",
        f"passes: {len(passes)} of {result['tasks']} tasks; unscaled pass wall time "
        f"quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s",
        f"task latency samples: {len(latencies_ms)} task medians over "
        f"{len(passes)} passes ({beyond_p90} beyond p90)",
        "setup_s samples (scaled/unscaled): "
        + ", ".join(f"{s['setup_s']:.4f}/{s['setup_raw_s']:.4f}" for s in setups),
        f"error_rate: {ratio(result['failed'], result['attempted']):.4g} "
        f"({result['failed']} failed / {result['attempted']} attempted)",
    ]
    return result, metrics, notes


# --- per layer ----------------------------------------------------------------


def _median_of(passes, key: str, name: str) -> float:
    return statistics.median(p["layers"][key].get(name, 0) for p in passes)


def _sum_of(passes, key: str, name: str) -> float:
    return sum(p["layers"][key].get(name, 0) for p in passes)


def _facts(passes, name: str) -> float:
    return sum(p["facts"].get(name, 0) for p in passes)


def per_layer(result) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    lapack = "numpy.linalg.eigh"
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = metric(_median_of(traced, "calls", name), "count")
        out[f"{name}.self_s"] = metric(_median_of(traced, "self_s", name), "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = metric(_median_of(traced, "self_s", name), "s")

    crossings_eigh = _sum_of(traced, "nested", f"spectral.find_crossings>{lapack}")
    out["spectral.find_crossings.eigh_per_crossing"] = metric(
        ratio(crossings_eigh, _facts(traced, "spectral.crossings")), "eigh/crossing"
    )
    ramp_eigh = _sum_of(traced, "nested", f"quench.evolve_quench>{lapack}")
    ramps = _sum_of(traced, "calls", "quench.evolve_quench")
    out["quench.eigh_per_ramp"] = metric(ratio(ramp_eigh, ramps), "eigh/ramp")
    out["quench.step_us"] = metric(
        1e6
        * ratio(
            _sum_of(traced, "total_s", "quench.evolve_quench"),
            _facts(traced, "quench.steps"),
        ),
        "us",
    )
    trotter_s = _sum_of(traced, "total_s", "pulsesim.simulate_protocol_trotter")
    trotter_s += _sum_of(traced, "total_s", "pulsesim.perturbed_fidelity")
    out["pulsesim.trotter_step_us"] = metric(
        1e6 * ratio(trotter_s, _facts(traced, "pulsesim.steps")), "us"
    )
    out["pulsesim.compile_zz.lp_subsets"] = metric(
        ratio(_facts(traced, "pulsesim.lp_subsets"), len(traced)), "count"
    )
    rows = _facts(traced, "lab.rows")
    out["lab.rows"] = metric(ratio(rows, len(traced)), "count")
    out["lab.converged_ratio"] = metric(ratio(_facts(traced, "lab.converged"), rows), "ratio")
    out["lab.export_bytes"] = metric(
        ratio(_facts(traced, "lab.export_bytes"), len(traced)), "bytes"
    )
    out["trace.overhead_s"] = metric(
        sum(task_medians(traced)) - sum(task_medians(plain)), "s"
    )
    out["trace.uncovered_s"] = metric(
        statistics.median(p["uncovered_s"] for p in traced), "s"
    )
    return out


def size_breakdown(passes) -> dict:
    """{(span, N): [inclusive seconds, ...]} over traced passes."""
    merged = {}
    for p in passes:
        if not p["traced"]:
            continue
        for key, values in p["layers"]["by_size"].items():
            name, n = key.rsplit("@", 1)
            merged.setdefault((name, int(n)), []).extend(values)
    return merged


def format_table(breakdown) -> list:
    header = "| workload | " + " | ".join(f"N={n}" for n in TABLE_SIZES) + " |"
    lines = [header, "|---" * (len(TABLE_SIZES) + 1) + "|"]
    for name, label in TABLE_ROWS:
        cells = []
        for n in TABLE_SIZES:
            values = breakdown.get((name, n))
            cells.append(
                f"{1e3 * statistics.median(values):.3g} ms (n={len(values)})"
                if values
                else "-"
            )
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return lines


def traced_notes(result) -> list:
    traced = [p for p in result["passes"] if p["traced"]]
    notes = [
        f"tracer self-check: evolve_quench(N=3, steps=300) made "
        f"{result['lapack_per_probe_ramp']} LAPACK eigensolves, all inside spans",
        f"passes: {len(traced)} traced, {len(result['passes']) - len(traced)} untraced",
        "span                                      calls/pass   self_s/pass   total_s/pass",
    ]
    names = sorted(
        {n for p in traced for n in p["layers"]["calls"]},
        key=lambda n: -_median_of(traced, "self_s", n),
    )
    for name in names:
        notes.append(
            f"{name:<42}{_median_of(traced, 'calls', name):>10.0f}"
            f"{_median_of(traced, 'self_s', name):>14.6f}"
            f"{_median_of(traced, 'total_s', name):>15.6f}"
        )
    notes.append("per-chain-size median inclusive time per call:")
    notes += format_table(size_breakdown(result["passes"]))
    notes.append(
        f"error_rate: {ratio(result['failed'], result['attempted']):.4g} "
        f"({result['failed']} failed / {result['attempted']} attempted)"
    )
    return notes


# --- modes --------------------------------------------------------------------


def summary(result, metrics) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_header(args, result) -> None:
    env = dict(result["env"], commit=git_commit(), workload=args.workload, seed=args.seed)
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    if result["reference_checked"]:
        print(f"reference: every task compared with the seed-{args.seed} reference")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def run_table(args, deadline) -> int:
    breakdown = {}
    for workload in WORKLOADS:
        result = run_worker("trace", workload, args.seed, args.seconds, deadline)
        if result["failed"]:
            raise BenchError(f"{workload}: {result['failed']} tasks failed")
        for key, values in size_breakdown(result["passes"]).items():
            breakdown.setdefault(key, []).extend(values)
    print("median inclusive time per call, at reference speed (bench/speed.py)")
    print("\n".join(format_table(breakdown)))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true")
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.table and args.workload is None:
        parser.error("--workload is required unless --table is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spinchern" / "__init__.py").is_file():
        print(f"no spinchern sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = Deadline(DEADLINE_S)
    try:
        if args.table:
            return run_table(args, deadline)
        if args.update_reference:
            result = run_worker("reference", args.workload, args.seed, 0, deadline)
            print(f"wrote {result['written']}")
            return 0
        if args.trace:
            result = run_worker("trace", args.workload, args.seed, args.seconds, deadline)
            metrics, notes = per_layer(result), traced_notes(result)
        else:
            result, metrics, notes = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print_header(args, result)
    for name, m in metrics.items():
        print(f"{name:<44}{m['value']:>16.6g} {m['unit']}")
    print("\n".join(notes))
    print(json.dumps(summary(result, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
