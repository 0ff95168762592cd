#!/usr/bin/env python3
"""Regenerate data/tune_calibration.txt.

Sweeps the split tolerance over static random charge configurations and
records the achieved relative errors of forces and of the diagonal and
off-diagonal pressure components against the gridless mode-sum reference.
The divisors in prolate_ewald.cli.TUNE_DIVISORS are read off this table:
force error tracks delta_split with a constant below one, so tune sets
delta_split to the target, while the pressure components can reach the
tolerance itself, so tune sets delta_split to a third of the target.

The sweep uses static random configurations, not snapshots drawn from a
running simulation, so error constants for strongly structured systems
(lattices, interfaces) can be a small multiple of the tabulated values.

Usage: python3 tools/calibrate_tune.py > data/tune_calibration.txt
"""

import sys
from pathlib import Path

import numpy as np

# Import the package from this checkout's src/, so that the usage line above
# works without an installed package or PYTHONPATH.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from prolate_ewald import (Cell, CoulombSolver, EwaldParameters,  # noqa: E402
                           ParticleSystem, evaluate_exact)

DELTAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
R_CUT = 0.9
LENGTHS = (3.0, 3.0, 3.0)
SYSTEMS = [(16, 503), (32, 507), (64, 516)]


def random_system(n, seed):
    rng = np.random.default_rng(seed)
    lengths = np.asarray(LENGTHS)
    cell = Cell.orthorhombic(lengths)
    pos = rng.uniform(0.0, 1.0, (n, 3)) * lengths
    q = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return ParticleSystem(cell=cell, positions=pos, charges=q)


def main():
    print("# tune calibration sweep: achieved relative error vs delta_split")
    print("# static random configurations; P = ceil(-log10 delta) + 1,")
    print(f"# oversampling 2.0, r_c {R_CUT}, cubic box L {LENGTHS[0]}")
    print("# columns: delta quantity median-error max-error")
    for delta in DELTAS:
        P = int(np.ceil(-np.log10(delta))) + 1
        errs = {"force": [], "diag-pressure": [], "offdiag-pressure": []}
        for (n, seed) in SYSTEMS:
            sys = random_system(n, seed)
            params = EwaldParameters(r_c=R_CUT, delta_split=delta, P=P,
                                     oversampling=2.0)
            solver = CoulombSolver(sys.cell, params)
            out = solver.evaluate(sys)
            ref = evaluate_exact(sys, params)
            f_ref, p_ref = ref.forces, ref.pressure
            dp = out.pressure - p_ref
            errs["force"].append(np.linalg.norm(out.forces - f_ref)
                                 / np.linalg.norm(f_ref))
            diag = np.diag_indices(3)
            errs["diag-pressure"].append(
                np.linalg.norm(dp[diag]) / np.linalg.norm(p_ref[diag]))
            off = ~np.eye(3, dtype=bool)
            errs["offdiag-pressure"].append(
                np.linalg.norm(dp[off]) / max(np.linalg.norm(p_ref[off]),
                                              1e-30))
        for quantity, values in errs.items():
            print(f"{delta:.1e} {quantity} {np.median(values):.3e} "
                  f"{np.max(values):.3e}")


if __name__ == "__main__":
    main()
