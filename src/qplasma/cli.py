"""Command-line interface: parameter reports, dispersion scans, scenario
runs and side-by-side model comparisons.

All quantities are in normalized units except `params`, which speaks SI.
Outputs are deterministic: the same config produces byte-identical files,
and every emitted file embeds the config hash.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

import numpy as np

from . import simulate
from .config import EQUILIBRIA, ConfigError, parse_config, read_keys
from .constants import EV
from .diagio import format_table
from .dispersion import (QUANTUM_FLUID, VLASOV_KINETIC, WIGNER_KINETIC,
                         DielectricModel, k_scan)
from .equilibria import make_equilibrium
from .params import (PhysicalConditions, classify_regime,
                     compute_dimensionless, compute_scales,
                     pauli_collision_time)

MATERIALS = {
    # electron density (1/m^3), temperature (K)
    "gold": (5.9e28, 300.0),
}


def cmd_params(args) -> int:
    if args.material is not None:
        density, temperature = MATERIALS[args.material]
    elif args.density is not None and args.temperature is not None:
        density, temperature = args.density, args.temperature
    else:
        print("error: give --material or both --density and --temperature",
              file=sys.stderr)
        return 2
    try:
        cond = PhysicalConditions(number_density=density,
                                  temperature=temperature)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    scales = compute_scales(cond)
    group = compute_dimensionless(cond)
    regime = classify_regime(group)
    tau_ee, tau_p, outside = pauli_collision_time(cond)

    rows = [
        ("density [1/m^3]", density),
        ("temperature [K]", temperature),
        ("plasma_frequency [1/s]", scales.plasma_frequency),
        ("thermal_velocity [m/s]", scales.thermal_velocity),
        ("debye_length [m]", scales.debye_length),
        ("de_broglie_length [m]", scales.de_broglie),
        ("fermi_energy [eV]", scales.fermi_energy / EV),
        ("fermi_temperature [K]", scales.fermi_temperature),
        ("fermi_velocity [m/s]", scales.fermi_velocity),
        ("fermi_screening_length [m]", scales.fermi_screening_length),
        ("chi", group.chi),
        ("g_classical", group.g_classical),
        ("g_quantum", group.g_quantum),
        ("H", group.H),
        ("nu_ee_over_wp", group.nu_ee_over_wp),
        ("tau_ee [s]", tau_ee),
        ("tau_p [s]", tau_p),
        ("regime", regime.value),
        ("pauli_estimate_valid", not outside),
    ]
    if args.csv:
        sys.stdout.write(format_table(("quantity", "value"), rows))
    else:
        width = max(len(name) for name, _ in rows)
        for name, val in rows:
            if isinstance(val, float):
                print(f"{name:<{width}}  {val:.6g}")
            else:
                print(f"{name:<{width}}  {val}")
    return 0


def cmd_dispersion(args) -> int:
    if args.out and (err := _out_in_the_way(args.out, directory=False)):
        return _path_error(err, args.out)
    eq = None
    try:
        if args.model in (VLASOV_KINETIC, WIGNER_KINETIC):
            eq = make_equilibrium(args.equilibrium, args.t_over_tf)
        model = DielectricModel(args.model, equilibrium=eq, H=args.h)
        for k in (args.kmin, args.kmax):  # linspace would warn on inf
            if not np.isfinite(k):
                raise ValueError(f"k must be positive and finite, got {k}")
        roots = k_scan(model, np.linspace(args.kmin, args.kmax, args.nk))
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    text = format_table(
        ("k", "re_omega", "im_omega", "residual", "trusted"),
        [(r.k, r.omega.real, r.omega.imag, r.residual, r.continuation_trusted)
         for r in roots])
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        Path(args.out).write_text(text)
    except OSError as err:
        return _path_error(err, args.out)
    return 0


def _out_in_the_way(out, directory: bool) -> OSError | None:
    """The OSError that a path in the way would give `out` when it takes a
    command's output, a directory (made with its parents) or else a file.
    Checked before the work, so that no run or scan is lost to it."""
    path = Path(out)
    first = next((p for p in (path, *path.parents) if p.exists()), path)
    if first == path and not directory:
        code = errno.EISDIR if path.is_dir() else None
    elif not first.is_dir():
        code = errno.ENOTDIR
    else:
        code = None if directory or first == path.parent else errno.ENOENT
    return OSError(code, os.strerror(code), out) if code else None


def _path_error(err: OSError, out) -> int:
    """Report an output that cannot be written as one line; a failed write
    to an open file names no path, so `out` stands for it."""
    print(f"error: {err.filename or out}: {err.strerror or err}",
          file=sys.stderr)
    return 2


def _load_configs(paths, overrides):
    """The parsed config of each file, or None after printing why the first
    file that cannot be read or parsed was refused."""
    cfgs = []
    try:
        for path in paths:
            cfgs.append(parse_config(Path(path).read_text(), overrides))
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        print(f"config error: {path}: {reason}", file=sys.stderr)
        return None
    except ConfigError as err:
        for p in err.problems:
            print(f"config error: {p}", file=sys.stderr)
        return None
    return cfgs


def _run(cfg, path):
    """simulate.run(cfg), or None after printing why the run stopped."""
    try:
        return simulate.run(cfg)
    except (ValueError, ArithmeticError, MemoryError) as err:
        print(f"run error: {path}: {str(err) or type(err).__name__}",
              file=sys.stderr)


def cmd_run(args) -> int:
    cfgs = _load_configs([args.config], args.override)
    if cfgs is None:
        return 2
    [cfg] = cfgs
    if err := _out_in_the_way(args.out, directory=True):
        return _path_error(err, args.out)
    result = _run(cfg, args.config)
    if result is None:
        return 3
    try:
        paths = simulate.write_outputs(cfg, result, args.out)
    except OSError as err:
        return _path_error(err, args.out)
    for p in paths:
        print(p)
    return 0


def cmd_compare(args) -> int:
    cfgs = _load_configs([args.config_a, args.config_b], args.override)
    if cfgs is None:
        return 2
    cfg_a, cfg_b = cfgs
    # The discretization keys both models read (only phase space has n_v).
    mismatched = [k for k in ("k", "n_x", "dt", "t_end", "output_every", "n_v", "v_max")
                  if getattr(cfg_a, k) != getattr(cfg_b, k)
                  and all(k in read_keys(c.model, c.equilibrium) for c in cfgs)]
    if mismatched:
        print(f"error: configs differ in grid/time keys {mismatched}; "
              "compare requires matching discretization", file=sys.stderr)
        return 2
    if err := _out_in_the_way(args.out, directory=True):
        return _path_error(err, args.out)
    sa = _run(cfg_a, args.config_a)
    sb = sa and _run(cfg_b, args.config_b)  # b runs only if a ran
    if sb is None:
        return 3
    sa, sb = sa.series, sb.series
    out = Path(args.out)
    path = out / (f"compare_{cfg_a.model}_{cfg_a.config_hash()}_"
                  f"{cfg_b.model}_{cfg_b.config_hash()}.csv")
    text = format_table(
        ("t", "field_energy_a", "field_energy_b", "total_energy_a",
         "total_energy_b"),
        zip(sa.times, sa.field_energy, sb.field_energy, sa.total_energy,
            sb.total_energy),
        f"config_hash_a={cfg_a.config_hash()} "
        f"config_hash_b={cfg_b.config_hash()}")
    try:
        out.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as err:
        return _path_error(err, args.out)
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qplasma",
        description="1D electrostatic quantum-plasma toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="SI parameter report for an electron gas")
    p.add_argument("--material", choices=sorted(MATERIALS), default=None)
    p.add_argument("--density", type=float, default=None,
                   help="electron density in 1/m^3")
    p.add_argument("--temperature", type=float, default=None,
                   help="temperature in K")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("dispersion", help="root scan of a dielectric model")
    p.add_argument("--model", required=True, choices=sorted(
        (VLASOV_KINETIC, WIGNER_KINETIC, QUANTUM_FLUID)))
    p.add_argument("--equilibrium", choices=EQUILIBRIA,
                   default="fd3d_projected_T0")
    p.add_argument("--t-over-tf", type=float, default=0.0, dest="t_over_tf")
    p.add_argument("--h", type=float, default=0.0)
    p.add_argument("--kmin", type=float, default=0.1)
    p.add_argument("--kmax", type=float, default=2.0)
    p.add_argument("--nk", type=int, default=20)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare",
                       help="run two scenarios and join their series")
    p.add_argument("config_a")
    p.add_argument("config_b")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
