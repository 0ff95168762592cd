"""Command-line front end: tune, compute, verify, local-pressure, simulate.

File formats.  Particle files are plain text, one particle per line
(``x y z q m``), preceded by a header ``cell Lx Ly Lz`` (orthorhombic) or
``cell3 h11 h21 h31 h12 h22 h32 h13 h23 h33`` (triclinic, column-major);
``#`` starts a comment.  Config files are flat ``key = value`` lines with
the same names as the long command-line flags; flags override the file.
The NPT flags, --seed among them, belong to simulate, the one command that
draws random numbers.  All numeric output is printed with 17 significant
digits, and every output artifact embeds the fully resolved configuration.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 runtime or physics error.
"""

from __future__ import annotations

import argparse
import sys as _sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .evaluate import (CoulombSolver, EwaldParameters, ParameterError,
                       default_order, evaluate_exact)
from .kernel import KernelError
from .mesh import PlanningError
from .npt import NptConfig, SimulationError, integrate
from .oracle import OracleError, classical_ewald, make_report, virial_audit
from .pswf import PswfError, solve_bandwidth
from .realspace import RealspaceError
from .system import Cell, CellError, GeometryError, ParticleSystem

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

FMT = "%.17g"


class InputError(Exception):
    """Malformed input file; message carries line/column diagnostics."""


def fnum(x) -> str:
    return FMT % float(x)


# ---------------------------------------------------------------------------
# particle files

def read_particles(path) -> ParticleSystem:
    lines = Path(path).read_text().splitlines()
    h = None
    rows = []
    for ln, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        cols = text.split()
        if h is None:
            if cols[0] == "cell":
                if len(cols) != 4:
                    raise InputError(f"{path}:{ln}: 'cell' header needs 3 "
                                     f"lengths, got {len(cols) - 1}")
                h = np.diag(_parse_floats(path, ln, cols[1:], offset=1))
            elif cols[0] == "cell3":
                if len(cols) != 10:
                    raise InputError(f"{path}:{ln}: 'cell3' header needs 9 "
                                     f"entries, got {len(cols) - 1}")
                vals = _parse_floats(path, ln, cols[1:], offset=1)
                h = np.array(vals).reshape(3, 3, order="F")
            else:
                raise InputError(f"{path}:{ln}: expected 'cell' or 'cell3' "
                                 f"header, got {cols[0]!r}")
            continue
        if len(cols) != 5:
            raise InputError(f"{path}:{ln}: expected 5 columns "
                             f"(x y z q m), got {len(cols)}")
        rows.append(_parse_floats(path, ln, cols, offset=0))
    if h is None:
        raise InputError(f"{path}: missing 'cell' header line")
    if not rows:
        raise InputError(f"{path}: no particle lines")
    arr = np.array(rows)
    try:
        return ParticleSystem(cell=Cell(h=h), positions=arr[:, :3],
                              charges=arr[:, 3], masses=arr[:, 4])
    except CellError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_floats(path, ln, cols, offset):
    out = []
    for col, tok in enumerate(cols, start=1 + offset):
        try:
            out.append(float(tok))
        except ValueError:
            raise InputError(f"{path}:{ln}:{col}: not a number: {tok!r}")
    return out


# ---------------------------------------------------------------------------
# config files

def _parse_bool(tok: str) -> bool:
    low = tok.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {tok!r}")


# Run parameters: config key -> (type, default).  Every key is also a flag
# --key-name (barostat is --no-barostat); the SIMULATE_OPTIONS flags belong
# to simulate alone.
COMMON_OPTIONS = {
    "delta_split": (float, 1e-6), "p_order": (int, None), "r_c": (float, None),
    "oversampling": (float, 1.0), "force_mode": (str, "ik"),
    "prefactor": (float, 1.0),
}
SIMULATE_OPTIONS = {
    "seed": (int, 0), "dt": (float, 2e-3), "n_steps": (int, 1000),
    "target_t": (float, 1.0), "target_p0": (float, 0.0), "tau_p": (float, 10.0),
    "beta_t": (float, 0.05), "thermostat_period": (int, 10),
    "barostat": (_parse_bool, True), "softcore_coeff": (float, 1.0),
    "record_every": (int, 10),
}
OPTIONS = {**COMMON_OPTIONS, **SIMULATE_OPTIONS}


def read_config(path) -> dict:
    out = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise InputError(f"{path}:{ln}: expected 'key = value'")
        key, val = (t.strip() for t in text.split("=", 1))
        if key not in OPTIONS:
            raise InputError(f"{path}:{ln}: unknown config key {key!r}")
        try:
            out[key] = OPTIONS[key][0](val)
        except ValueError as exc:
            raise InputError(f"{path}:{ln}: {exc}") from exc
    return out


def resolve_config(args, reserved=(), **defaults) -> dict:
    """defaults < config file < explicit flags; deterministic.

    Keyword arguments replace built-in defaults for one subcommand.  The
    keys in ``reserved`` are set by the subcommand itself; a config file or
    flag that sets one raises InputError naming it.
    """
    cfg = {key: default for key, (_, default) in OPTIONS.items()}
    cfg.update(defaults)
    given = read_config(args.config) if getattr(args, "config", None) else {}
    for key in OPTIONS:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = flag
    for key in reserved:
        if key in given:
            raise InputError(f"{key} is set by {args.command} itself; remove it "
                             f"from the flags and the config file")
    cfg.update(given)
    if cfg["p_order"] is None:
        cfg["p_order"] = default_order(cfg["delta_split"])
    return cfg


def config_header(cfg: dict, command: str) -> list:
    lines = [f"# prolate-ewald {command}",
             "# units: reduced; energies in prefactor*q^2/length, "
             "pressures in prefactor*q^2/length^4",
             f"# coulomb-prefactor {fnum(cfg['prefactor'])}"]
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, bool):
            txt = "true" if val else "false"
        elif isinstance(val, float):
            txt = fnum(val)
        else:
            txt = str(val)
        lines.append(f"# config {key} = {txt}")
    return lines


def ewald_params(cfg: dict, cell: Cell | None) -> EwaldParameters:
    """Checked parameters; r_c defaults to 0.45 of the cell's smallest width.

    Without a cell (tune without --cell) nothing is planned, and a unit
    cutoff stands in for the default.
    """
    r_c = cfg["r_c"]
    if r_c is None:
        r_c = (1.0 if cell is None
               else 0.45 * float(np.min(cell.perpendicular_widths())))
    return EwaldParameters(r_c=float(r_c), delta_split=cfg["delta_split"],
                           P=cfg["p_order"],
                           oversampling=cfg["oversampling"],
                           prefactor=cfg["prefactor"],
                           force_mode=cfg["force_mode"])


def _emit(lines, output):
    text = "\n".join(lines) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        _sys.stdout.write(text)


# ---------------------------------------------------------------------------
# tune

# Target relative error -> splitting tolerance: delta = target / divisor,
# per quantity.  The divisors are read off the calibration sweep stored in
# data/tune_calibration.txt (regenerate with tools/calibrate_tune.py):
# achieved force error tracks delta with a constant below one, while the
# pressure components need delta about three times tighter than the target.
# The sweep uses static random configurations, so strongly structured
# systems may land a small factor above the target.
TUNE_DIVISORS = {"diag-pressure": 3, "offdiag-pressure": 3, "force": 1}
# The sweep ran at this oversampling; tune plans its grid at it unless the
# flag or a config file says otherwise.
TUNE_OVERSAMPLING = 2.0


class TuningError(Exception):
    pass


def tune_parameters(quantity: str, target: float) -> dict:
    if quantity not in TUNE_DIVISORS:
        raise TuningError(f"unknown quantity {quantity!r}; choose from "
                          f"{sorted(TUNE_DIVISORS)}")
    if not (1e-8 <= target <= 1e-2):
        raise TuningError(f"target error {target} outside [1e-8, 1e-2]")
    delta = target / TUNE_DIVISORS[quantity]
    return {"quantity": quantity, "target": target, "delta": delta,
            "c_split": solve_bandwidth(delta), "P": default_order(delta)}


def cmd_tune(args) -> int:
    cfg = resolve_config(args, reserved=("delta_split", "p_order"),
                         oversampling=TUNE_OVERSAMPLING)
    tuned = tune_parameters(args.quantity, args.target)
    cfg.update(delta_split=tuned["delta"], p_order=tuned["P"])
    cell = Cell.orthorhombic(args.cell) if args.cell else None
    params = ewald_params(cfg, cell)
    lines = config_header(cfg, "tune")
    lines.append(f"tune quantity {tuned['quantity']}")
    lines.append(f"tune target {fnum(tuned['target'])}")
    lines.append(f"tune delta {fnum(tuned['delta'])}")
    lines.append(f"tune c_split {fnum(tuned['c_split'])}")
    # The window is tabulated from the splitting basis, so c_spread = c_split.
    lines.append(f"tune c_spread {fnum(tuned['c_split'])}")
    lines.append(f"tune P {tuned['P']}")
    if cell is not None:
        spec = CoulombSolver(cell, params).spec
        lines.append(f"tune r_c {fnum(params.r_c)}")
        lines.append(f"tune grid {spec.M[0]} {spec.M[1]} {spec.M[2]}")
        lines.append("tune spacing " + " ".join(fnum(s) for s in spec.spacing))
    lines.append(f"tune oversampling {fnum(cfg['oversampling'])}")
    _emit(lines, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compute / local-pressure

def compute_lines(sys: ParticleSystem, cfg: dict) -> list:
    out = CoulombSolver(sys.cell, ewald_params(cfg, sys.cell)).evaluate(sys)
    terms = {"near": out.u_near, "far": out.u_far, "self": out.u_self,
             "background": out.u_background}
    lines = [f"energy total {fnum(out.energy)}"]
    for name, value in terms.items():
        lines.append(f"energy {name} {fnum(value)}")
    for a in range(3):
        lines.append("pressure " + "xyz"[a] + " "
                     + " ".join(fnum(v) for v in out.pressure[a]))
    for i, f in enumerate(out.forces):
        lines.append(f"force {i} " + " ".join(fnum(v) for v in f))
    return lines


def cmd_compute(args) -> int:
    cfg = resolve_config(args)
    sys = read_particles(args.input)
    lines = config_header(cfg, "compute") + compute_lines(sys, cfg)
    _emit(lines, args.output)
    return EXIT_OK


def cmd_local_pressure(args) -> int:
    cfg = resolve_config(args)
    sys = read_particles(args.input)
    params = ewald_params(cfg, sys.cell)
    solver = CoulombSolver(sys.cell, params)
    tensors = solver.local_pressure(sys)
    lines = config_header(cfg, "local-pressure")
    total = tensors.sum(axis=0)
    for a in range(3):
        lines.append("pressure-far " + "xyz"[a] + " "
                     + " ".join(fnum(v) for v in total[a]))
    for i, t in enumerate(tensors):
        flat = t[np.triu_indices(3)]
        lines.append(f"local {i} " + " ".join(fnum(v) for v in flat))
    _emit(lines, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def run_verification(sys: ParticleSystem, cfg: dict) -> list:
    """Oracle suite on one configuration; returns OracleReports."""
    params = ewald_params(cfg, sys.cell)
    delta = params.delta_split
    reports = []

    exact = evaluate_exact(sys, params)
    out = CoulombSolver(sys.cell, params).evaluate(sys)
    reports.append(make_report("energy vs direct k-sum", exact.energy,
                               out.energy, delta))
    # Force and pressure errors carry an O(1) constant over delta that
    # depends on the charge configuration (coherent lattices are worst),
    # so the audit checks order of magnitude rather than delta itself.
    reports.append(make_report("forces vs direct k-sum", exact.forces,
                               out.forces, max(10 * delta, 1e-9)))
    reports.append(make_report("pressure vs direct k-sum",
                               exact.pressure, out.pressure,
                               max(10 * delta, 1e-9)))
    # The background energy scales as 1/V, so its pressure is U_bg/V;
    # the virial identity covers the rest, and reads only its trace.
    p_coulomb = out.pressure - (out.u_background
                                / sys.cell.volume) * np.eye(3)
    reports.append(virial_audit(sys, p_coulomb, np.zeros((3, 3)),
                                out.u_near, out.u_far, out.u_self, delta))

    e_cl, f_cl, p_cl = classical_ewald(sys, check=True)
    pref = params.prefactor
    # Energy agreement tracks delta with a small constant; force and
    # pressure errors carry an extra O(1) factor from the kernel tail
    # beyond r_c, so they are audited at the order-of-delta level.
    reports.append(make_report("energy vs classical Ewald", pref * e_cl,
                               out.energy, max(1e-9, delta)))
    reports.append(make_report("forces vs classical Ewald", pref * f_cl,
                               out.forces, max(1e-9, 10 * delta)))
    reports.append(make_report("pressure vs classical Ewald", pref * p_cl,
                               out.pressure, max(1e-9, 10 * delta)))
    return reports


def cmd_verify(args) -> int:
    cfg = resolve_config(args)
    sys = read_particles(args.input)
    reports = run_verification(sys, cfg)
    lines = config_header(cfg, "verify")
    for rep in reports:
        lines.append(f"report {'pass' if rep.passed else 'FAIL'} "
                     f"{rep.quantity!r} rel {fnum(rep.rel_deviation)} "
                     f"abs {fnum(rep.abs_deviation)} tol {fnum(rep.tolerance)}")
    ok = all(r.passed for r in reports)
    lines.append(f"verify {'pass' if ok else 'FAIL'} {len(reports)} checks")
    _emit(lines, args.output)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    sys = read_particles(args.input)
    # Every NptConfig field but ewald is the option of its lower-cased name.
    ncfg = NptConfig(ewald=ewald_params(cfg, sys.cell),
                     **{f.name: cfg[f.name.lower()] for f in fields(NptConfig)
                        if f.name != "ewald"})
    stats = integrate(ncfg, sys)
    lines = config_header(cfg, "simulate")
    lines.append("thermo-columns step T P_xx P_xy P_xz P_yy P_yz P_zz V "
                 "U_coulomb U_softcore kinetic enthalpy")
    for rec in stats.records:
        p = rec.pressure[np.triu_indices(3)]
        vals = [rec.temperature, *p, rec.volume, rec.u_coulomb,
                rec.u_softcore, rec.kinetic, rec.enthalpy]
        lines.append(f"thermo {rec.step} " + " ".join(fnum(v) for v in vals))
    lines.append(f"stat mean_pressure {fnum(stats.mean_pressure)}")
    lines.append(f"stat stderr_pressure {fnum(stats.stderr_pressure)}")
    lines.append(f"stat mean_volume {fnum(stats.mean_volume)}")
    lines.append(f"stat stderr_volume {fnum(stats.stderr_volume)}")
    lines.append(f"stat mean_temperature {fnum(stats.mean_temperature)}")
    lines.append(f"stat n_samples {stats.n_samples}")
    lines.append(f"stat grid_changes {stats.grid_changes}")
    lines.append(f"stat neighbor_rebuilds {stats.neighbor_rebuilds}")
    _emit(lines, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def _cell_lengths(tok):
    """argparse type of --cell: three comma-separated finite positive floats."""
    try:
        vals = [float(t) for t in tok.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {tok!r}") from None
    if len(vals) != 3 or not all(0 < v < np.inf for v in vals):
        raise argparse.ArgumentTypeError(
            f"{tok!r} is not 3 finite positive lengths")
    return vals


def _add_options(p, options):
    """One flag per run parameter; see OPTIONS."""
    for key, (typ, _) in options.items():
        if key == "barostat":
            p.add_argument("--no-barostat", dest=key, action="store_false",
                           default=None)
        else:
            p.add_argument("--" + key.replace("_", "-"), type=typ)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prolate-ewald",
        description="Periodic electrostatics with prolate-window kernel "
                    "splitting: energies, forces, pressure tensors, NPT.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, summary, input_file=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--output", help="write records here instead of stdout")
        if input_file:
            p.add_argument("--input", required=True)
        _add_options(p, COMMON_OPTIONS)
        p.set_defaults(func=func)
        return p

    p = command("tune", cmd_tune, "map a target error to parameters",
                input_file=False)
    p.add_argument("--quantity", required=True,
                   choices=("diag-pressure", "offdiag-pressure", "force"))
    p.add_argument("--target", required=True, type=float)
    p.add_argument("--cell", type=_cell_lengths,
                   help="Lx,Ly,Lz to also plan the grid")
    command("compute", cmd_compute, "energy/forces/pressure for one file")
    command("verify", cmd_verify, "oracle suite; nonzero exit on failure")
    command("local-pressure", cmd_local_pressure,
            "per-particle far-field tensors")
    p = command("simulate", cmd_simulate, "NPT run on a particle file")
    _add_options(p, SIMULATE_OPTIONS)
    return ap


USAGE_ERRORS = (InputError, TuningError, ParameterError, OSError)
RUNTIME_ERRORS = (PlanningError, SimulationError, GeometryError, CellError,
                  KernelError, PswfError, RealspaceError, OracleError)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=_sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
