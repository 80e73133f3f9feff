"""Coupling-strength sweeps, plateau statistics and flat-file output.

A sweep scans the chain coupling over a grid and records the curvature
(and Chern number) per point by one of four methods; plateau detection
segments the resulting staircase and summarizes each quantized step.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from ._version import __version__
from .errors import DegenerateGroundState, LengthMismatch, OutOfRange, TooFewRows
from .model import ChainSpec, FieldPoint, _check_grid
from .pulsesim import simulate_protocol_trotter
from .quench import QuenchProtocol, evolve_quench, extract_curvature
from .spectral import chern_lattice, curvature_spectral, ground_gap

METHODS = ("dynamical", "spectral", "lattice", "trotter")

# Worker count for row-parallel sweeps; unset or 1 keeps them serial.
WORKERS_ENV = "SPINCHERN_WORKERS"

# Half the minimal plateau spacing; robust to ramp-method noise ~0.02.
JUMP_THRESHOLD = 0.25

# A row reads the gap at the pole or the spectral curvature at the
# equator; built once, since a field point checks its angles.
_POLE = FieldPoint(theta=0.0)
_EQUATOR = FieldPoint(theta=math.pi / 2)


@dataclass(frozen=True)
class SweepConfig:
    """One coupling sweep: chain template, J grid, method and output."""

    spec: ChainSpec
    j_values: tuple
    velocities: tuple = (0.1,)
    steps: int = 300
    method: str = "spectral"
    output_path: str | None = None
    lattice_grid: tuple = (24, 24)

    def __post_init__(self):
        object.__setattr__(self, "j_values", tuple(float(j) for j in self.j_values))
        object.__setattr__(
            self, "velocities", tuple(float(v) for v in self.velocities)
        )
        if not self.j_values:
            raise ValueError("j_values must be nonempty")
        if not all(map(math.isfinite, self.j_values)):
            raise OutOfRange(f"j_values must be finite, got {self.j_values}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.method == "lattice":
            _check_grid(self.lattice_grid)
        if self.method in ("dynamical", "trotter"):
            if not self.velocities:
                raise ValueError("ramp methods need at least one velocity")
            # each protocol checks its rate and the step count
            for v in self.velocities:
                QuenchProtocol(v_theta=v, steps=self.steps)


@dataclass(frozen=True)
class SweepRow:
    """Curvature and Chern estimate at one coupling value."""

    j: float
    f_phitheta: float
    chern: float
    gap_at_pole: float
    method: str
    converged: bool


@dataclass(frozen=True)
class PlateauStats:
    """Summary of one quantized segment of a sweep."""

    plateau_mean: float
    plateau_std: float
    j_range: tuple
    nearest_theory: float


def _sweep_row(cfg: SweepConfig, j: float) -> SweepRow:
    """One public call per rate, and the pole gap from its result."""
    spec = replace(cfg.spec, coupling_j=j)
    method = cfg.method
    converged = True
    try:
        if method == "spectral":
            sample = curvature_spectral(spec, _EQUATOR)
            f, gap = sample.f_phitheta, sample.gap
        elif method == "lattice":
            f = 0.5 * chern_lattice(spec, cfg.lattice_grid)
            gap = ground_gap(spec, _POLE)
        else:
            ramp = evolve_quench if method == "dynamical" else simulate_protocol_trotter
            results = [ramp(spec, QuenchProtocol(v, cfg.steps)) for v in cfg.velocities]
            f, gap = extract_curvature(results), results[0].gap
    except DegenerateGroundState:
        f, gap, converged = math.nan, ground_gap(spec, _POLE), False
    return SweepRow(
        j=j,
        f_phitheta=float(f),
        chern=2.0 * float(f),
        gap_at_pole=gap,
        method=method,
        converged=converged,
    )


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
        if workers >= 1:
            return workers
    except ValueError:
        pass
    raise OutOfRange(f"{WORKERS_ENV}={raw!r} is not a positive integer")


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per coupling value, sorted by J.

    Coupling values hitting a ground-state degeneracy are kept as
    non-converged rows so downstream plots show where the jump sits.
    Set the worker-count environment variable to parallelize over rows;
    output order is independent of the worker count.
    """
    workers = _worker_count()
    js = sorted(cfg.j_values)
    if workers > 1:
        # Imported here: it pulls in multiprocessing, which a serial
        # sweep and a plain import never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_row, itertools.repeat(cfg), js))
    return [_sweep_row(cfg, j) for j in js]


def detect_plateaus(rows) -> list[PlateauStats]:
    """Segment a sweep at jumps and degeneracies; summarize each piece.

    Adjacent converged rows whose curvature differs by more than
    ``JUMP_THRESHOLD`` start a new segment, as does any non-converged
    row.  Every segment is reported, including single-row ones between
    closely spaced jumps.
    """
    if sum(1 for r in rows if r.converged) < 3:
        raise TooFewRows("plateau detection needs at least 3 converged rows")
    ordered = sorted(rows, key=lambda r: r.j)
    segments: list[list[SweepRow]] = []
    current: list[SweepRow] = []
    for row in ordered:
        if not row.converged:
            if current:
                segments.append(current)
                current = []
            continue
        if current and abs(row.f_phitheta - current[-1].f_phitheta) > JUMP_THRESHOLD:
            segments.append(current)
            current = []
        current.append(row)
    if current:
        segments.append(current)

    stats = []
    for seg in segments:
        values = np.array([r.f_phitheta for r in seg])
        mean = float(values.mean())
        stats.append(
            PlateauStats(
                plateau_mean=mean,
                plateau_std=float(values.std()),
                j_range=(seg[0].j, seg[-1].j),
                nearest_theory=round(2.0 * mean) / 2.0,
            )
        )
    return stats


def deviation_report(observed, theory) -> float:
    """Root mean square deviation between observed and theory values."""
    observed = list(observed)
    theory = list(theory)
    if not observed or len(observed) != len(theory):
        raise LengthMismatch(
            f"observed has {len(observed)} entries, theory has {len(theory)}"
        )
    diffs = np.array(observed) - np.array(theory)
    return float(np.sqrt(np.mean(diffs**2)))


# The header row export_results writes and import_results requires.
_CSV_HEADER = ["j", "f_phitheta", "chern", "gap_at_pole", "method", "converged"]


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def export_results(
    rows,
    stats,
    path,
    *,
    config: SweepConfig | None = None,
    crossings=None,
    seed=None,
) -> None:
    """CSV table of rows plus a JSON sidecar with run metadata.

    Floats are serialized with 17 significant digits, so re-importing
    reproduces them bit-exactly.
    """
    path = os.fspath(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    _format_float(r.j),
                    _format_float(r.f_phitheta),
                    _format_float(r.chern),
                    _format_float(r.gap_at_pole),
                    r.method,
                    "true" if r.converged else "false",
                ]
            )

    sidecar = {
        "version": __version__,
        "seed": seed,
        "config": None
        if config is None
        else {
            "n_spins": config.spec.n_spins,
            "coupling_j": config.spec.coupling_j,
            "max_spins": config.spec.max_spins,
            "j_values": list(config.j_values),
            "velocities": list(config.velocities),
            "steps": config.steps,
            "method": config.method,
            "output_path": config.output_path,
            "lattice_grid": list(config.lattice_grid),
        },
        "plateaus": [
            {
                "plateau_mean": s.plateau_mean,
                "plateau_std": s.plateau_std,
                "j_range": list(s.j_range),
                "nearest_theory": s.nearest_theory,
            }
            for s in stats
        ],
        "crossings": [] if crossings is None else list(crossings),
    }
    base, _ = os.path.splitext(path)
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def import_results(path) -> list[SweepRow]:
    """Read back a CSV written by export_results.

    Raises ``OutOfRange`` naming the file and line on any other header
    row, a row with too few or too many fields, a value that is not a
    number, a ``method`` outside ``METHODS``, or a ``converged`` that is
    not ``true`` or ``false``.
    """
    path = os.fspath(path)
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise OutOfRange(
                f"{path} line 1: header must be {','.join(_CSV_HEADER)}, got {header!r}"
            )
        for record in reader:
            where = f"{path} line {reader.line_num}"
            if len(record) != len(_CSV_HEADER):
                raise OutOfRange(
                    f"{where}: {len(record)} fields, expected {len(_CSV_HEADER)}"
                )
            *numbers, method, converged = record
            try:
                j, f_phitheta, chern, gap = map(float, numbers)
            except ValueError:
                raise OutOfRange(f"{where}: not a number in {numbers!r}") from None
            if method not in METHODS:
                raise OutOfRange(
                    f"{where}: method must be one of {METHODS}, got {method!r}"
                )
            if converged not in ("true", "false"):
                raise OutOfRange(
                    f"{where}: converged must be true or false, got {converged!r}"
                )
            rows.append(
                SweepRow(j, f_phitheta, chern, gap, method, converged == "true")
            )
    return rows


def default_j_grid(step: float = 0.05, lo: float = -2.0, hi: float = 2.0) -> tuple:
    """The standard coupling grid bracketing every crossing for N <= 4."""
    if not (math.isfinite(step) and step > 0.0):
        raise OutOfRange(f"grid step must be positive and finite, got {step}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise OutOfRange(f"grid ends must be finite with lo <= hi, got [{lo}, {hi}]")
    count = int(round((hi - lo) / step)) + 1
    return tuple(float(j) for j in np.linspace(lo, hi, count))
