"""Seeded task lists for the three benchmark workloads, and their checks.

A task is one public call into spinchern: a sweep row, a ramp, a lattice
Chern number, a crossing search, a CSV round trip or a compile+verify.
``generate`` builds a workload's fixed task list from the seed alone;
``call`` runs one task and ``check`` validates its output and returns
the numbers kept in the reference file.

Workloads, and why each was chosen:

- ``staircase``: spectral sweep rows for N = 2-7, lattice Chern numbers
  on every plateau, crossing searches and a CSV round trip per sweep.
  Many independent small eigensolves plus a write path: it stresses
  qcore, model, spectral and lab, and bypasses ramp propagation.
- ``ramp``: dynamical sweep rows (one 300-step ramp each) for N = 2-5
  and single ramps at N = 6 and 7.  Sequential per-step eigensolves in
  quench; qcore.eigh is nearly bypassed.
- ``pulse``: Trotter sweep rows for N = 2-5, Trotter ramps at N = 6
  and 7, rotation-noise fidelities and zz-refocusing compile+verify on
  random coupling tables.  The same ramp job by dense collective
  rotations, plus the LP vertex enumeration.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

import spinchern as sc

WORKLOADS = ("staircase", "ramp", "pulse")

J_RANGE = (-2.0, 2.0)
RAMP_STEPS = 300
RAMP_RATE = 0.1

# Level crossings of the pole Hamiltonian in J_RANGE: roots of the
# difference of two M_z-sector ground energies, found offline by a
# bracketing root finder to 1e-15.  N = 2 and 3 have the closed forms
# -1/2 and -1/3.  Generated couplings keep a margin from them.
CROSSINGS = {
    2: (-0.5,),
    3: (-1.0 / 3.0,),
    4: (-0.7588190451025201, -0.29289321881345254),
    5: (-0.44687973684461646, -0.276393202250021),
    6: (-1.017124766223359, -0.3607581815728147, -0.2679491924311228),
    7: (-0.565077305812619, -0.3224899053259979, -0.2630237709004216),
}
ROW_MARGIN = 0.005
# Seeds move each input a little around a fixed design, so every seed
# runs the same mix of work: the eigensolver's cost depends on the
# spectrum, and so on J.
GRID_JITTER = 0.1  # of the grid step
PLATEAU_JITTER = 0.1  # of the plateau width, around its middle
SINGLE_J = 1.0  # single ramps and fidelities: the ferromagnetic plateau
SINGLE_JITTER = 0.05

# Output checks.  None of them is an acceptance-criterion bound.
QUANTIZATION_TOL = 1e-9  # spectral 2F from an integer (measured <= 1.2e-13)
DYNAMICAL_TOL = 0.05  # ramp-row 2F from the integer (measured <= 0.027)
CROSSING_GAP_TOL = 1e-8  # pole gap at a reported crossing
CROSSING_TOL = 1e-9  # crossing against CROSSINGS
FIDELITY_TOL = 1e-12  # compiled zz sequence against its target
REFERENCE_TOL = 1e-10  # optimisation vs behaviour change


class CheckFailed(Exception):
    """A task's output is wrong."""


@dataclass(frozen=True)
class Task:
    kind: str
    n: int
    args: tuple = ()
    # Work done by the task, known from its inputs: ramp and Trotter
    # steps integrated, LP vertex subsets enumerated.
    work: dict = field(default_factory=dict)


@dataclass
class PassContext:
    """State shared by the tasks of one pass."""

    out_dir: str
    rows: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)

    def add(self, name: str, amount: float = 1) -> None:
        self.facts[name] = self.facts.get(name, 0) + amount


# --- generation ---------------------------------------------------------------


def _away_from_crossings(n: int, j: float, margin: float) -> float:
    for c in CROSSINGS[n]:
        if abs(j - c) < margin:
            j = c + math.copysign(margin, j - c)
    return j


def _jittered_grid(rng: random.Random, n: int, count: int) -> list:
    lo, hi = J_RANGE
    step = (hi - lo) / (count - 1)
    grid = []
    for i in range(count):
        j = lo + i * step + rng.uniform(-GRID_JITTER, GRID_JITTER) * step
        grid.append(_away_from_crossings(n, min(hi, max(lo, j)), ROW_MARGIN))
    return grid


def _plateau_couplings(rng: random.Random, n: int) -> list:
    edges = (J_RANGE[0],) + CROSSINGS[n] + (J_RANGE[1],)
    return [
        0.5 * (a + b) + rng.uniform(-PLATEAU_JITTER, PLATEAU_JITTER) * (b - a)
        for a, b in zip(edges, edges[1:])
    ]


def _coupling(rng: random.Random) -> float:
    return SINGLE_J + rng.uniform(-SINGLE_JITTER, SINGLE_JITTER)


RAMP_WORK = {"quench.steps": RAMP_STEPS, "quench.ramps": 1}


def _molecule(rng: random.Random, n: int) -> sc.MoleculeSpec:
    """Random signed coupling table that the refocusing compiler accepts."""
    while True:
        couplings = np.zeros((n, n))
        for i in range(n - 1):
            couplings[i, i + 1] = rng.choice((-1.0, 1.0)) * rng.uniform(20.0, 200.0)
        for i in range(n):
            for k in range(i + 2, n):
                if rng.random() < 0.5:
                    couplings[i, k] = rng.uniform(-15.0, 15.0)
        couplings = couplings + couplings.T
        # The inner adjacent pair must differ for the segment timings.
        if n < 3 or abs(couplings[n - 3, n - 2] - couplings[n - 2, n - 1]) >= 10.0:
            break
    return sc.MoleculeSpec(
        labels=tuple(f"S{i}" for i in range(n)),
        shifts_hz=np.array([rng.uniform(-500.0, 500.0) for _ in range(n)]),
        couplings_hz=couplings,
    )


def _lp_subsets(m: sc.MoleculeSpec) -> int:
    """Vertex subsets compile_zz enumerates: C(2^(n-1), constraint rows)."""
    n = m.n_spins
    rows = (n - 1) + sum(
        1 for i in range(n) for k in range(i + 2, n) if m.couplings_hz[i, k] != 0.0
    )
    return math.comb(2 ** (n - 1), rows)


def generate(workload: str, seed: int) -> list:
    """The workload's task list; the same seed gives the same tasks."""
    rng = random.Random(f"{workload}:{seed}")
    tasks = []
    if workload == "staircase":
        for n in range(2, 8):
            tasks += [Task("spectral_row", n, (j,)) for j in _jittered_grid(rng, n, 41)]
            tasks.append(Task("round_trip", n))
        for n in range(2, 6):
            tasks += [Task("lattice", n, (j,)) for j in _plateau_couplings(rng, n)]
        tasks.append(Task("lattice", 6, (_plateau_couplings(rng, 6)[-1],)))
        for n in range(2, 5):
            lo = J_RANGE[0] + rng.uniform(0.0, 0.02)
            hi = J_RANGE[1] - rng.uniform(0.0, 0.02)
            tasks.append(Task("crossings", n, (lo, hi)))
    elif workload == "ramp":
        for n, count in ((2, 20), (3, 20), (4, 30), (5, 30)):
            tasks += [
                Task("dynamical_row", n, (j,), RAMP_WORK)
                for j in _jittered_grid(rng, n, count)
            ]
        for n in (6, 7):
            j = _coupling(rng)
            for rate in (RAMP_RATE, 2 * RAMP_RATE):
                tasks.append(Task("ramp", n, (j, rate), RAMP_WORK))
    elif workload == "pulse":
        for n, count in ((2, 15), (3, 25), (4, 25), (5, 15)):
            tasks += [
                Task("trotter_row", n, (j,), {"pulsesim.steps": RAMP_STEPS})
                for j in _jittered_grid(rng, n, count)
            ]
        for n in (6, 7):
            tasks.append(
                Task("trotter_ramp", n, (_coupling(rng),), {"pulsesim.steps": RAMP_STEPS})
            )
        for n in range(2, 6):
            trials = 5
            args = (_coupling(rng), rng.uniform(1.0, 5.0), rng.randrange(10**6), trials)
            tasks.append(
                Task("fidelity", n, args, {"pulsesim.steps": RAMP_STEPS * (trials + 1)})
            )
        for n in (2, 3, 4) * 12:
            m = _molecule(rng, n)
            target_j = rng.uniform(-300.0, -30.0)
            tasks.append(
                Task("zz", n, (m, target_j, 1e-3), {"pulsesim.lp_subsets": _lp_subsets(m)})
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tasks


def chain_sizes(tasks) -> list:
    """Chain sizes whose operator cache the workload fills."""
    return sorted({t.n for t in tasks if t.kind != "zz"})


# --- calls --------------------------------------------------------------------


def _row(method: str, n: int, j: float):
    cfg = sc.SweepConfig(
        spec=sc.ChainSpec(n, 0.0),
        j_values=(j,),
        method=method,
        velocities=(RAMP_RATE,),
        steps=RAMP_STEPS,
    )
    return sc.run_sweep(cfg)


def _round_trip(task: Task, ctx: PassContext):
    rows = ctx.rows[task.n]
    cfg = sc.SweepConfig(spec=sc.ChainSpec(task.n, 0.0), j_values=[r.j for r in rows])
    path = os.path.join(ctx.out_dir, f"staircase_n{task.n}.csv")
    sc.export_results(rows, sc.detect_plateaus(rows), path, config=cfg)
    return path, sc.import_results(path)


def _protocol(rate: float = RAMP_RATE):
    return sc.QuenchProtocol(v_theta=rate, steps=RAMP_STEPS)


def _compile_verify(task: Task):
    molecule, target_j, tau = task.args
    compiled = sc.compile_zz(molecule, target_j, tau)
    return compiled, sc.verify_sequence(compiled, molecule)


def call(task: Task, ctx: PassContext):
    n, args = task.n, task.args
    kind = task.kind
    if kind == "spectral_row":
        return _row("spectral", n, *args)
    if kind == "dynamical_row":
        return _row("dynamical", n, *args)
    if kind == "trotter_row":
        return _row("trotter", n, *args)
    if kind == "round_trip":
        return _round_trip(task, ctx)
    if kind == "lattice":
        return sc.chern_lattice(sc.ChainSpec(n, args[0]))
    if kind == "crossings":
        return sc.find_crossings(sc.ChainSpec(n, 0.0), args)
    if kind == "ramp":
        j, rate = args
        return sc.evolve_quench(sc.ChainSpec(n, j), _protocol(rate))
    if kind == "trotter_ramp":
        return sc.simulate_protocol_trotter(sc.ChainSpec(n, args[0]), _protocol())
    if kind == "fidelity":
        j, error_deg, trial_seed, trials = args
        return sc.perturbed_fidelity(
            sc.ChainSpec(n, j), _protocol(), error_deg, seed=trial_seed, trials=trials
        )
    if kind == "zz":
        return _compile_verify(task)
    raise ValueError(f"unknown task kind {kind!r}")


# --- independent oracle -------------------------------------------------------


class PoleOracle:
    """Spectrum of the pole Hamiltonian H = -sum sz - J sum s.s, by M_z blocks.

    Built here from bit patterns, independent of spinchern.model.  At the
    pole M_z is conserved, so the ground state's M_z labels its plateau:
    it equals the Chern number 2F.
    """

    def __init__(self):
        self._parts = {}

    def _build(self, n: int):
        dim = 2**n
        basis = np.arange(dim)
        bits = (basis[:, None] >> np.arange(n - 1, -1, -1)) & 1  # site 0 first
        mz = (1 - 2 * bits).sum(axis=1)  # bit 0 is sigma_z = +1
        exchange = np.zeros((dim, dim))
        for k in range(n - 1):
            parallel = bits[:, k] == bits[:, k + 1]
            exchange[basis, basis] += np.where(parallel, 1.0, -1.0)
            flipped = basis ^ ((1 << (n - 1 - k)) | (1 << (n - 2 - k)))
            anti = basis[~parallel]
            exchange[anti, flipped[anti]] += 2.0
        sectors = [(int(m), np.nonzero(mz == m)[0]) for m in np.unique(mz)]
        return -np.diag(mz.astype(float)), exchange, sectors

    def levels(self, n: int, j: float):
        """(ground-state M_z, gap between the two lowest levels)."""
        if n not in self._parts:
            self._parts[n] = self._build(n)
        field_part, exchange, sectors = self._parts[n]
        h = field_part - j * exchange
        lows = []
        for m, idx in sectors:
            values = np.linalg.eigvalsh(h[np.ix_(idx, idx)])
            lows += [(float(v), m) for v in values[:2]]
        lows.sort()
        return lows[0][1], lows[1][0] - lows[0][0]

    def chern(self, n: int, j: float) -> int:
        return self.levels(n, j)[0]


# --- checks -------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _single_row(rows, ctx: PassContext):
    _require(len(rows) == 1, f"expected one sweep row, got {len(rows)}")
    row = rows[0]
    ctx.add("lab.rows")
    ctx.add("lab.converged", row.converged)
    _require(row.converged, f"row at J={row.j!r} did not converge")
    return row


def _plateau_match(two_f: float, expected: int, what: str) -> None:
    _require(
        round(two_f) == expected,
        f"{what}: 2F={two_f:.6f} is not on the spectral plateau {expected}",
    )


def check(task: Task, out, ctx: PassContext, oracle: PoleOracle) -> list:
    """Validate one task's output; return its numbers for the reference."""
    n, kind = task.n, task.kind
    if kind in ("spectral_row", "dynamical_row", "trotter_row"):
        row = _single_row(out, ctx)
        two_f = 2.0 * row.f_phitheta
        expected = oracle.chern(n, row.j)
        if kind == "spectral_row":
            _require(
                abs(two_f - round(two_f)) <= QUANTIZATION_TOL and row.chern == two_f,
                f"N={n} J={row.j!r}: 2F={two_f!r} is not quantized",
            )
            _plateau_match(two_f, expected, f"N={n} J={row.j!r}")
            ctx.rows.setdefault(n, []).append(row)
        elif kind == "dynamical_row":
            _require(
                abs(two_f - expected) <= DYNAMICAL_TOL,
                f"N={n} J={row.j!r}: ramp 2F={two_f:.4f} vs integer {expected}",
            )
        else:
            _plateau_match(two_f, expected, f"Trotter row N={n} J={row.j!r}")
        return [row.f_phitheta, row.gap_at_pole]
    if kind == "round_trip":
        path, imported = out
        ctx.add("lab.export_bytes", os.path.getsize(path))
        sidecar = os.path.splitext(path)[0] + ".json"
        ctx.add("lab.export_bytes", os.path.getsize(sidecar))
        _require(imported == ctx.rows[n], f"N={n}: CSV round trip is not bit-exact")
        return [len(imported)]
    if kind == "lattice":
        expected = oracle.chern(n, task.args[0])
        _require(out == expected, f"N={n}: lattice Chern {out} vs 2F {expected}")
        return [out]
    if kind == "crossings":
        ctx.add("spectral.crossings", len(out))
        return _check_crossings(task, out, ctx, oracle)
    if kind in ("ramp", "trotter_ramp"):
        j = task.args[0]
        _plateau_match(2.0 * out.f_extracted, oracle.chern(n, j), f"{kind} N={n} J={j!r}")
        return [out.m_phi, out.adiabatic_overlap]
    if kind == "fidelity":
        _require(0.0 < out <= 1.0 + FIDELITY_TOL, f"fidelity {out!r} outside (0, 1]")
        return [out]
    if kind == "zz":
        compiled, report = out
        _require(
            report.fidelity >= 1.0 - FIDELITY_TOL,
            f"compiled zz sequence fidelity {report.fidelity!r}",
        )
        tau = compiled.tau
        return [report.fidelity, compiled.wall_time / tau] + [
            t / tau for t in compiled.segment_durations
        ]
    raise ValueError(f"unknown task kind {kind!r}")


def _check_crossings(task: Task, out, ctx: PassContext, oracle: PoleOracle) -> list:
    n = task.n
    lo, hi = task.args
    rows = sorted((r for r in ctx.rows.get(n, ()) if lo <= r.j <= hi), key=lambda r: r.j)
    jumps = [
        (a.j, b.j) for a, b in zip(rows, rows[1:]) if round(a.chern) != round(b.chern)
    ]
    _require(
        len(out) == len(jumps),
        f"N={n}: {len(out)} crossings for {len(jumps)} staircase jumps",
    )
    for x in out:
        _require(
            any(a < x < b for a, b in jumps), f"N={n}: crossing {x!r} outside every jump"
        )
        _, gap = oracle.levels(n, x)
        _require(gap < CROSSING_GAP_TOL, f"N={n}: pole gap {gap:.3e} at crossing {x!r}")
        _require(
            min(abs(x - c) for c in CROSSINGS[n]) <= CROSSING_TOL,
            f"N={n}: crossing {x!r} not in {CROSSINGS[n]}",
        )
    return list(out)


def compare(record: list, reference: list) -> bool:
    """True when a task's numbers match the reference to REFERENCE_TOL."""
    if len(record) != len(reference):
        return False
    return all(
        abs(a - b) <= REFERENCE_TOL * max(1.0, abs(b)) for a, b in zip(record, reference)
    )
