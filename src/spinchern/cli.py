"""Command-line interface.

Subcommands cover the level spectra, curvature at a point, coupling
sweeps, crossing location, the refocusing compiler, the linear response
zone and the pulse-noise robustness check.  Exit code 0 on success,
1 on a domain error (message names the failing condition), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from dataclasses import replace

from ._version import __version__
from .errors import OutOfRange, SpinChernError, TooFewRows
from .lab import (
    METHODS,
    SweepConfig,
    _sidecar_path,
    default_j_grid,
    detect_plateaus,
    export_results,
    run_sweep,
)
from .model import (
    ChainSpec,
    FieldPoint,
    MoleculeSpec,
    _is_count,
    _is_real_list,
    _json_field,
    _json_file,
    _write_text,
)
from .pulsesim import (
    _zz_fidelity,
    compile_zz,
    effective_uniform_coupling,
    perturbed_fidelity,
    program_from_json,
    program_to_json,
    simulate_program,
    simulate_protocol_trotter,
    to_pulse_program,
    verify_sequence,
    zz_target_propagator,
)
from .quench import QuenchProtocol, evolve_quench, linear_zone_scan
from .spectral import chern_lattice, curvature_spectral, find_crossings, pole_system


def _print_table(headers, rows):
    widths = [
        max(len(str(h)), *(len(str(r[k])) for r in rows)) if rows else len(str(h))
        for k, h in enumerate(headers)
    ]
    line = "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(r, widths)))


def _given(**flags) -> dict:
    """The flags that were given, by the name of the argument they set;
    an omitted flag leaves the API's default."""
    return {name: value for name, value in flags.items() if value is not None}


def _j_grid_from_args(args) -> tuple:
    """``default_j_grid`` over the grid flags given, or () for none."""
    given = _given(lo=args.j_min, hi=args.j_max, step=args.j_step)
    return default_j_grid(**given) if given else ()


# The grid ends and step that ``default_j_grid`` takes for an omitted flag;
# the crossing search reads its ends from here, building no grid.
_J_GRID_DEFAULTS = {
    name: p.default for name, p in inspect.signature(default_j_grid).parameters.items()
}


def _parse_velocities(text: str) -> tuple:
    """The rates of a comma-separated ``--v``, none for a blank one; an
    empty entry is rejected before any ramp runs."""
    entries = text.split(",") if text.strip() else []
    for k, entry in enumerate(entries):
        if not entry.strip():
            raise OutOfRange(f"velocities[{k}] is empty in {text!r}")
    return tuple(map(float, entries))


def _cmd_spectrum(args) -> int:
    grid = _j_grid_from_args(args) or default_j_grid(step=0.1)
    table = []
    for j in grid:
        levels = pole_system(ChainSpec(args.n, j)).values
        table.append([f"{j:.4f}"] + [f"{e:.6f}" for e in levels])
    headers = ["j"] + [f"e{k}" for k in range(2**args.n)]
    _print_table(headers, table)
    if args.output:
        lines = [",".join(row) + "\n" for row in [headers, *table]]
        _write_text(args.output, "".join(lines))
        print(f"wrote {args.output}")
    return 0


def _cmd_curvature(args) -> int:
    spec = ChainSpec(n_spins=args.n, coupling_j=args.j)
    point = FieldPoint(theta=args.theta)
    rows = []
    methods = METHODS if args.method == "all" else (args.method,)
    for method in methods:
        if method == "spectral":
            f = curvature_spectral(spec, point).f_phitheta
            rows.append([method, f"{f:.8f}", f"{2 * f:.8f}"])
        elif method == "lattice":
            chern = chern_lattice(spec)
            rows.append([method, f"{chern / 2:.8f}", str(chern)])
        else:
            ramp = evolve_quench if method == "dynamical" else simulate_protocol_trotter
            protocol = QuenchProtocol(args.v, **_given(steps=args.steps))
            f = ramp(spec, protocol).f_extracted
            rows.append([method, f"{f:.8f}", f"{2 * f:.8f}"])
    _print_table(["method", "f_phitheta", "chern"], rows)
    return 0


# The JSON type of each key a sweep config file may hold; SweepConfig
# checks the values.
_SWEEP_FILE_KEYS = {
    "n_spins": (_is_count, "a whole number"),
    "j_values": (_is_real_list, "a list of numbers"),
    "velocities": (_is_real_list, "a list of numbers"),
    "steps": (_is_count, "a whole number"),
    "method": (lambda v: isinstance(v, str), "a string"),
    "output_path": (lambda v: v is None or isinstance(v, str), "a string"),
}


def _load_sweep_config(args) -> SweepConfig:
    """The sweep of the config file, or of 2 spins over ``default_j_grid``
    without one, with the flags given applied over it.  The file must
    be a valid sweep on its own, with no key outside
    ``_SWEEP_FILE_KEYS``: its errors name the file."""
    cfg = SweepConfig(spec=ChainSpec(2, 0.0), j_values=default_j_grid())
    if args.config:
        raw = _json_file(args.config, dict, "a JSON object")
        unknown = sorted(set(raw) - set(_SWEEP_FILE_KEYS))
        if unknown:
            raise OutOfRange(f"{args.config} has unknown keys {unknown}")
        fields = {
            key: _json_field(raw, key, args.config, valid, expected)
            for key, (valid, expected) in _SWEEP_FILE_KEYS.items()
            if key in raw
        }
        try:
            if "n_spins" in fields:
                fields["spec"] = ChainSpec(fields.pop("n_spins"), 0.0)
            cfg = replace(cfg, **fields)
        except OutOfRange as exc:
            raise OutOfRange(f"{args.config}: {exc}") from None
    flags = _given(
        spec=None if args.n is None else ChainSpec(args.n, 0.0),
        j_values=_j_grid_from_args(args) or None,
        velocities=_parse_velocities(args.v) if args.v else None,
        steps=args.steps,
        method=args.method,
        output_path=args.output or None,
    )
    return replace(cfg, **flags)


def _cmd_sweep(args) -> int:
    cfg = _load_sweep_config(args)
    out = cfg.output_path or f"sweep_n{cfg.spec.n_spins}_{cfg.method}.csv"
    _sidecar_path(out)  # a refused table path is refused before the first row
    rows = run_sweep(cfg)
    try:
        stats = detect_plateaus(rows)
    except TooFewRows:
        stats = []
    crossings = find_crossings(
        cfg.spec, (min(cfg.j_values) - 1e-9, max(cfg.j_values) + 1e-9)
    )
    _print_table(
        ["j", "f_phitheta", "chern", "converged"],
        [
            [f"{r.j:.4f}", f"{r.f_phitheta:.6f}", f"{r.chern:.6f}", r.converged]
            for r in rows
        ],
    )
    if stats:
        print()
        _print_table(
            ["plateau_mean", "plateau_std", "j_lo", "j_hi", "nearest_theory"],
            [
                [
                    f"{s.plateau_mean:.6f}",
                    f"{s.plateau_std:.2e}",
                    f"{s.j_range[0]:.4f}",
                    f"{s.j_range[1]:.4f}",
                    f"{s.nearest_theory:g}",
                ]
                for s in stats
            ],
        )
    export_results(rows, stats, out, config=cfg, crossings=crossings)
    print(f"\nwrote {out}")
    return 0


def _cmd_crossings(args) -> int:
    spec = ChainSpec(n_spins=args.n, coupling_j=0.0)
    ends = {**_J_GRID_DEFAULTS, **_given(lo=args.j_min, hi=args.j_max)}
    found = find_crossings(spec, (ends["lo"], ends["hi"]))
    if not found:
        print("no crossings found")
    for j in found:
        print(f"{j:.10f}")
    return 0


def _load_molecule(args) -> MoleculeSpec:
    m = MoleculeSpec.from_json(args.molecule)
    if args.n is not None and m.n_spins != args.n:
        raise OutOfRange(
            f"molecule has {m.n_spins} spins, --n asked for {args.n}"
        )
    return m


def _cmd_pulse_compile(args) -> int:
    m = _load_molecule(args)
    target_j = args.target_j
    if target_j is None:
        target_j = -0.5 * math.pi * effective_uniform_coupling(m)
    compiled = compile_zz(m, target_j, args.tau)
    placements = [
        ",".join(map(str, sorted(flipped))) or "-"
        for flipped in compiled.pi_pulse_placements
    ]
    segments = zip(compiled.segment_durations, compiled.segment_patterns)
    rows = [
        [k, f"{t:.6e}", "".join("+" if x > 0 else "-" for x in p), placements[k]]
        for k, (t, p) in enumerate(segments)
    ]
    _print_table(["segment", "duration_s", "pattern", "pulses_before"], rows)
    print(f"closing pulses: {placements[-1]}")
    print(
        f"target_j={compiled.target_j:.6g} rad/s  tau={compiled.tau:.6g} s  "
        f"wall={compiled.wall_time:.6g} s"
    )
    report = verify_sequence(compiled, m)
    print(f"verification fidelity: {report.fidelity:.12f}")
    if args.output:
        program_to_json(to_pulse_program(compiled), args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_pulse_verify(args) -> int:
    m = _load_molecule(args)
    program = program_from_json(args.sequence)
    target = zz_target_propagator(m.n_spins, args.target_j, args.tau)
    fidelity = _zz_fidelity(simulate_program(program, m), target)
    print(f"fidelity: {fidelity:.12f}")
    return 0


def _cmd_linear_zone(args) -> int:
    spec = ChainSpec(n_spins=args.n, coupling_j=args.j)
    velocities = _parse_velocities(args.v)
    f_static = curvature_spectral(spec, FieldPoint(theta=math.pi / 2)).f_phitheta
    table = linear_zone_scan(spec, velocities, **_given(steps=args.steps))
    # A plateau with Chern number 0 has no curvature to compare against.
    _print_table(
        ["v_theta", "m_phi/v", "vs_static"],
        [
            [
                f"{v:.4f}",
                f"{ratio:.6f}",
                f"{ratio / f_static:.4f}" if round(2.0 * f_static) else "nan",
            ]
            for v, ratio in table
        ],
    )
    return 0


def _cmd_robustness(args) -> int:
    spec = ChainSpec(n_spins=args.n, coupling_j=args.j)
    proto = QuenchProtocol(args.v, **_given(steps=args.steps))
    worst = perturbed_fidelity(
        spec, proto, args.error_deg, **_given(seed=args.seed, trials=args.trials)
    )
    print(f"min fidelity over the trials at +/-{args.error_deg} deg: {worst:.6f}")
    return 0


def _add_j_grid_flags(p) -> None:
    p.add_argument("--j-min", type=float, default=None)
    p.add_argument("--j-max", type=float, default=None)
    p.add_argument("--j-step", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinchern",
        description="Topological transitions of driven Heisenberg spin chains",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="energy levels versus coupling strength")
    p.add_argument("--n", type=int, required=True)
    _add_j_grid_flags(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("curvature", help="Berry curvature at one field point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--theta", type=float, default=math.pi / 2)
    p.add_argument("--method", choices=(*METHODS, "all"), default="spectral")
    p.add_argument("--v", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("sweep", help="curvature versus coupling strength")
    p.add_argument("--config", default=None)
    p.add_argument("--n", type=int, default=None)
    _add_j_grid_flags(p)
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--v", default=None, help="comma-separated ramp rates")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("crossings", help="couplings where the ground gap closes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j-min", type=float, default=None)
    p.add_argument("--j-max", type=float, default=None)
    p.set_defaults(func=_cmd_crossings)

    pulse = sub.add_parser("pulse", help="refocusing compiler and verifier")
    pulse_sub = pulse.add_subparsers(dest="pulse_command", required=True)

    p = pulse_sub.add_parser("compile", help="compile a uniform zz schedule")
    p.add_argument("--molecule", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--target-j", type=float, default=None, help="rad/s")
    p.add_argument("--tau", type=float, default=1e-3, help="seconds")
    p.add_argument("--output", default=None, help="write event-list JSON here")
    p.set_defaults(func=_cmd_pulse_compile)

    p = pulse_sub.add_parser("verify", help="check an event list against a target")
    p.add_argument("--molecule", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--sequence", required=True, help="event-list JSON")
    p.add_argument("--target-j", type=float, required=True, help="rad/s")
    p.add_argument("--tau", type=float, required=True, help="seconds")
    p.set_defaults(func=_cmd_pulse_verify)

    p = sub.add_parser("linear-zone", help="response ratio versus ramp rate")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument(
        "--v",
        default="0.05,0.1,0.2,0.29,0.5,1.0,2.0",
        help="comma-separated ascending ramp rates",
    )
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=_cmd_linear_zone)

    p = sub.add_parser("robustness", help="ramp fidelity under pulse-angle noise")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--v", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--error-deg", type=float, default=5.0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_robustness)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SpinChernError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


main = cli_main
