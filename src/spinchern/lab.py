"""Coupling-strength sweeps, plateau statistics and flat-file output.

A sweep scans the chain coupling over a grid and records the curvature
(and Chern number) per point by one of four methods; plateau detection
segments the resulting staircase and summarizes each quantized step.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from ._version import __version__
from .errors import DegenerateGroundState, LengthMismatch, OutOfRange, TooFewRows
from .model import (
    ChainSpec,
    FieldPoint,
    _check_grid,
    _is_count,
    _json_count,
    _write_text,
)
from .pulsesim import simulate_protocol_trotter
from .quench import QuenchProtocol, evolve_quench, extract_curvature
from .spectral import _lattice_winding, _pole_ground, chern_lattice
from .spectral import curvature_spectral, ground_gap

METHODS = ("dynamical", "spectral", "lattice", "trotter")
RAMP_METHODS = ("dynamical", "trotter")

# Most points a coupling grid may hold.  A sweep runs one row per point,
# so a grid is built whole before its first row: 1e5 points is 2000 times
# the default grid and a few seconds of spectral rows, while a typo in an
# end (--j-min -1e6) would otherwise build 4e7 points, about 1.2 GiB as
# a tuple of floats, and then run that many rows.
MAX_J_POINTS = 100_000

# Half the minimal plateau spacing; robust to ramp-method noise ~0.02.
JUMP_THRESHOLD = 0.25

# A row reads the gap at the pole or the spectral curvature at the
# equator; built once, since a field point checks its angles.
_POLE = FieldPoint(theta=0.0)
_EQUATOR = FieldPoint(theta=math.pi / 2)


@dataclass(frozen=True)
class SweepConfig:
    """One coupling sweep: chain template, J grid, method and output.

    The one place that knows a sweep's fields, defaults and valid
    values: a value outside them raises ``OutOfRange`` naming its field.
    """

    spec: ChainSpec
    j_values: tuple
    velocities: tuple = (0.1,)
    steps: int = QuenchProtocol.steps
    method: str = "spectral"
    output_path: str | None = None
    lattice_grid: tuple = (24, 24)

    def __post_init__(self):
        object.__setattr__(self, "j_values", self._numbers("j_values"))
        object.__setattr__(self, "velocities", self._numbers("velocities"))
        if not self.j_values:
            raise OutOfRange("'j_values' must not be empty")
        if not all(map(math.isfinite, self.j_values)):
            raise OutOfRange(f"'j_values' must be finite, got {self.j_values}")
        if self.method not in METHODS:
            raise OutOfRange(f"'method' must be one of {METHODS}, got {self.method!r}")
        if not (_is_count(self.steps) and self.steps >= 1):
            raise OutOfRange(
                f"'steps' must be a whole number >= 1, got {self.steps!r}"
            )
        try:
            grid = _check_grid(self.lattice_grid)
        except OutOfRange as exc:
            raise OutOfRange(f"'lattice_grid': {exc}") from None
        object.__setattr__(self, "lattice_grid", grid)
        protocols = ()
        if self.method in RAMP_METHODS:
            if not self.velocities:
                raise OutOfRange(
                    f"'velocities' must not be empty for a {self.method} sweep"
                )
            # each protocol checks its rate
            protocols = tuple([QuenchProtocol(v, self.steps) for v in self.velocities])
        # Every ramp row reads these protocols, so they are built once, here.
        # Kept outside the fields, they leave equality, hashing, repr and the
        # sidecar as they were.
        object.__setattr__(self, "_protocols", protocols)

    def _numbers(self, name: str) -> tuple:
        """Field ``name`` as a tuple of floats, or ``OutOfRange`` naming it."""
        values = getattr(self, name)
        try:
            return tuple(map(float, values))
        except (TypeError, ValueError, OverflowError):
            raise OutOfRange(f"{name!r} must hold numbers, got {values!r}") from None


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
    template = cfg.spec
    spec = ChainSpec(template.n_spins, j, template.max_spins)
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
            results = [ramp(spec, protocol) for protocol in cfg._protocols]
            f, gap = extract_curvature(results), results[0].gap
    except DegenerateGroundState:
        f, gap, converged = math.nan, ground_gap(spec, _POLE), False
    f = float(f)
    return SweepRow(j, f, 2.0 * f, gap, method, converged)


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per coupling value, sorted by J.

    Coupling values hitting a ground-state degeneracy are kept as
    non-converged rows so downstream plots show where the jump sits.

    A lattice sweep first sums each ground sector's winding in row order,
    so a grid too coarse for one raises ``OutOfRange`` before any row.
    """
    j_values = sorted(cfg.j_values)
    if cfg.method == "lattice":
        sectors = {}
        for j in j_values:
            try:
                sectors[int(_pole_ground(replace(cfg.spec, coupling_j=j))[0])] = None
            except DegenerateGroundState:
                pass
        for m_g in sectors:
            _lattice_winding(m_g, *cfg.lattice_grid)
    return [_sweep_row(cfg, j) for j in j_values]


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

# One table row in csv's default dialect, which import_results reads:
# 17 significant digits, so every float reads back bit-exactly, and CRLF
# line ends.  No field needs quoting: a method outside METHODS is
# refused before the row is written.
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%s,%s\r\n"


def _config_fields(config: SweepConfig) -> dict:
    """The config's fields by name, with the chain spec's fields in
    place of the spec; JSON writes the tuples as lists."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            out.update((g.name, getattr(value, g.name)) for g in fields(value))
        else:
            out[f.name] = value
    return out


def _sidecar_path(path) -> str:
    """The path of the JSON sidecar of the table at ``path``: its base
    with a .json extension.  A .json ``path``, in any letter case, raises
    ``OutOfRange``: the sidecar would overwrite the table."""
    path = os.fspath(path)
    base, extension = os.path.splitext(path)
    if extension.lower() == ".json":
        raise OutOfRange(f"{path}: a .json table would be overwritten by its sidecar")
    return base + ".json"


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
    reproduces them bit-exactly.  The sidecar is ``path`` with a .json
    extension, so a .json ``path`` raises ``OutOfRange`` before any
    write: the sidecar would overwrite the table.  Both files are
    serialized before either is opened, so a row whose ``method`` is
    outside ``METHODS`` raises ``OutOfRange`` naming the row, and a
    value JSON cannot write raises ``TypeError``, and neither leaves a
    file behind.  An existing file is overwritten in place and cut to
    the new length (``model._write_text`` says why), so a reader that
    opens it during an export, or a crash, can see the new rows followed
    by old ones.  Nothing is fsynced, so an export is not crash-atomic.
    """
    sidecar_path = _sidecar_path(path)
    lines = [",".join(_CSV_HEADER) + "\r\n"]
    for k, r in enumerate(rows):
        if r.method not in METHODS:
            raise OutOfRange(
                f"rows[{k}]: method must be one of {METHODS}, got {r.method!r}"
            )
        flag = "true" if r.converged else "false"
        row = (r.j, r.f_phitheta, r.chern, r.gap_at_pole, r.method, flag)
        lines.append(_CSV_ROW % row)
    sidecar = {
        "version": __version__,
        "seed": seed,
        "config": None if config is None else _config_fields(config),
        "plateaus": [vars(s) for s in stats],
        "crossings": [] if crossings is None else list(crossings),
    }
    text = json.dumps(sidecar, indent=2, default=_json_count) + "\n"
    _write_text(path, "".join(lines))
    _write_text(sidecar_path, text)


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
    """The standard coupling grid bracketing every crossing for N <= 4.

    A grid of more than ``MAX_J_POINTS`` points raises ``OutOfRange``
    before any point is built.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise OutOfRange(f"grid step must be positive and finite, got {step}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise OutOfRange(f"grid ends must be finite with lo <= hi, got [{lo}, {hi}]")
    spacings = (hi - lo) / step
    count = round(spacings) + 1 if math.isfinite(spacings) else math.inf
    if count > MAX_J_POINTS:
        raise OutOfRange(
            f"grid [{lo}, {hi}] at step {step} has {count} points, "
            f"more than the cap of {MAX_J_POINTS}"
        )
    return tuple(float(j) for j in np.linspace(lo, hi, count))
