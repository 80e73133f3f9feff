"""One benchmark process for one workload; started by ``run.py``.

Modes:

- ``setup``: import spinchern, generate the inputs and fill the operator
  cache at every chain size the workload uses, then report the time.
- ``measure``: set up, then run untraced passes over the task list.
- ``trace``: set up, self-check the tracer, then alternate untraced and
  traced passes so the tracing overhead is measured in one process.
- ``reference``: set up, run one pass and write the reference file.

Every time reported is rescaled to reference machine speed with the
probe in ``speed.py``.  The last line of standard output is one JSON
object with the results.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MAX_FAILURE_MESSAGES = 5
PROBE_INTERVAL_S = 0.03
SETUP_PROBES = 50


def setup(workload: str, seed: int, root: Path):
    """Everything a CLI user pays for on each invocation."""
    import spinchern as sc

    location = Path(sc.__file__).resolve()
    if (root / "src") not in location.parents:
        raise SystemExit(f"imported spinchern from {location}, not from {root / 'src'}")
    import workloads

    tasks = workloads.generate(workload, seed)
    for n in workloads.chain_sizes(tasks):
        sc.build_heisenberg(sc.ChainSpec(n, 1.0), sc.FieldPoint(theta=0.5))
    return tasks, perf_counter() - _T0


class Runner:
    """Runs passes over a task list and keeps what they measured."""

    def __init__(self, tasks, out_dir: str, probe, reference=None, tracer=None):
        import workloads

        self.w = workloads
        self.tasks = tasks
        self.out_dir = out_dir
        self.probe = probe
        self.reference = reference
        self.tracer = tracer
        self.oracle = workloads.PoleOracle()
        self.attempted = 0
        self.failures = []
        self.records = []
        self._last_probe = float("-inf")

    def run_pass(self, traced: bool = False) -> dict:
        """One pass.  ``wall_s`` sums the task calls; ``clock_s`` adds the
        checks and probes.  ``marks`` holds the probe preceding each task."""
        tracer = self.tracer
        ctx = self.w.PassContext(out_dir=self.out_dir)
        latencies, marks, records = [], [], []
        probe_s = 0.0
        if traced:
            tracer.install()
            tracer.reset()
        start = perf_counter()
        try:
            for index, task in enumerate(self.tasks):
                if perf_counter() - self._last_probe >= PROBE_INTERVAL_S:
                    probe_s += self.probe.run()
                    self._last_probe = perf_counter()
                marks.append(len(self.probe.times) - 1)
                self.attempted += 1
                out, error, latency = self._call(task, ctx, traced)
                latencies.append(latency)
                if error is None:
                    error = self._check(index, task, out, ctx, records)
                if error is not None:
                    self.failures.append(f"{task.kind} N={task.n} {task.args!r}: {error}")
            clock = perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        self.records = records
        result = {
            "traced": traced,
            "wall_s": sum(latencies),
            "clock_s": clock,
            "latencies": latencies,
            "marks": marks,
            "facts": ctx.facts,
        }
        if traced:
            result["layers"] = _layer_snapshot(tracer)
            result["uncovered_s"] = clock - probe_s - tracer.top_s
        return result

    def _call(self, task, ctx, traced: bool):
        """(output, error message or None, latency) of one task."""
        if traced:
            self.tracer.enabled = True
        start = perf_counter()
        try:
            out = self.w.call(task, ctx)
        except Exception:  # a task that raises counts as failed
            latency = perf_counter() - start
            return None, traceback.format_exc(limit=3), latency
        finally:
            if traced:
                self.tracer.enabled = False
        return out, None, perf_counter() - start

    def _check(self, index: int, task, out, ctx, records):
        """Error message, or None after keeping the task's record and work."""
        w = self.w
        try:
            record = w.check(task, out, ctx, self.oracle)
            if self.reference is not None and not w.compare(record, self.reference[index]):
                raise w.CheckFailed(f"{record} differs from reference {self.reference[index]}")
        except w.CheckFailed as exc:
            return str(exc)
        records.append(record)
        for name, amount in task.work.items():
            ctx.add(name, amount)
        return None


def rescale(passes, probe) -> None:
    """Replace each pass's latencies and span times by reference-speed ones.

    A task is scaled by the probes around it; span totals of a traced pass
    by the median probe of that pass.
    """
    from speed import NEIGHBOURS, REFERENCE_S

    for _ in range(NEIGHBOURS):  # probes after the last task
        probe.run()
    for p in passes:
        marks = p.pop("marks")
        latencies = p.pop("latencies")
        p["scaled"] = [t * probe.scale_at(m) for t, m in zip(latencies, marks)]
        window = probe.times[max(0, marks[0]) : marks[-1] + NEIGHBOURS + 1]
        factor = REFERENCE_S / statistics.median(window)
        p["speed"] = factor
        if p["traced"]:
            layers = p["layers"]
            for key in ("self_s", "total_s"):
                layers[key] = {k: v * factor for k, v in layers[key].items()}
            layers["by_size"] = {
                k: [v * factor for v in values] for k, values in layers["by_size"].items()
            }
            p["uncovered_s"] *= factor


def _layer_snapshot(tracer) -> dict:
    nested = {f"{a}>{b}": count for (a, b), count in tracer.nested.items()}
    by_size = {f"{name}@{n}": values for (name, n), values in tracer.by_size.items()}
    return {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "total_s": dict(tracer.total_s),
        "nested": nested,
        "by_size": by_size,
    }


def environment() -> dict:
    import platform

    import numpy as np

    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    libs = {
        name: " ".join(
            str(deps.get(name, {}).get(key, ""))
            for key in ("name", "version", "openblas configuration")
        ).strip()
        for name in ("blas", "lapack")
    }
    threads = {
        var: os.environ.get(var)
        for var in (
            "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS",
            "MKL_NUM_THREADS",
            "SPINCHERN_WORKERS",
        )
    }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": libs["blas"],
        "lapack": libs["lapack"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": threads,
    }


def load_reference(workload: str, seed: int, n_tasks: int):
    """Per-task records stored for this seed, or None for other seeds."""
    with open(BENCH_DIR / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    if stored["seed"] != seed:
        return None
    if len(stored["records"]) != n_tasks:
        raise SystemExit(f"reference has {len(stored['records'])} records for {n_tasks} tasks")
    return stored["records"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "reference"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args(argv)

    tasks, setup_s = setup(args.workload, args.seed, args.root)
    from speed import REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    speed = REFERENCE_S / probe.median(SETUP_PROBES)
    result = {"setup_s": setup_s * speed, "setup_raw_s": setup_s, "tasks": len(tasks)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    out_base = args.root / ".bench_out"
    out_base.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=out_base)
    try:
        result.update(_run(args, tasks, out_dir, probe))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_base.rmdir()
        except OSError:  # another run still uses it
            pass
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def _run(args, tasks, out_dir: str, probe) -> dict:
    if args.mode == "reference":
        runner = Runner(tasks, out_dir, probe)
        runner.run_pass()
        if runner.failures:
            raise SystemExit("reference pass failed:\n" + "\n".join(runner.failures))
        path = BENCH_DIR / "reference" / f"{args.workload}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "records": runner.records}, fh)
            fh.write("\n")
        return {"written": str(path.relative_to(args.root))}

    reference = load_reference(args.workload, args.seed, len(tasks))
    tracer = None
    self_check = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        self_check = tracer.self_check()
    runner = Runner(tasks, out_dir, probe, reference, tracer)
    passes = []
    start = perf_counter()
    while True:
        traced = args.mode == "trace" and len(passes) % 2 == 1
        passes.append(runner.run_pass(traced))
        elapsed = perf_counter() - start
        typical = statistics.median(p["clock_s"] for p in passes)
        enough = len(passes) >= (2 if args.mode == "trace" else 1)
        if enough and elapsed + typical > args.seconds:
            break
    rescale(passes, probe)
    return {
        "passes": passes,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:MAX_FAILURE_MESSAGES],
        "reference_checked": reference is not None,
        "lapack_per_probe_ramp": self_check,
        "probe_ms": 1e3 * statistics.median(probe.times),
    }


if __name__ == "__main__":
    sys.exit(main())
