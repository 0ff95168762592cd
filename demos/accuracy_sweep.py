#!/usr/bin/env python3
"""Spectral accuracy of the mesh pipeline, as data records.

Sweeps the split tolerance, the grid size, and the spreading order on one
random configuration and prints the relative pressure error against the
gridless mode-sum reference.  Pipe the output into your plotting tool of
choice; each record is "sweep-name knob error".
"""

import numpy as np

from prolate_ewald import (Cell, CoulombSolver, EwaldParameters,
                           ParticleSystem, evaluate_exact)


def main():
    rng = np.random.default_rng(777)
    n, L, r_c = 100, 6.0, 2.4
    cell = Cell.orthorhombic((L, L, L))
    q = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    sys = ParticleSystem(cell=cell, positions=rng.uniform(0, L, (n, 3)),
                         charges=q)

    def pressure_error(solver):
        out = solver.evaluate(sys)
        p_ref = evaluate_exact(sys, solver.params).pressure
        return np.linalg.norm(out.pressure - p_ref) / np.linalg.norm(p_ref)

    for delta in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        solver = CoulombSolver(cell, EwaldParameters(
            r_c=r_c, delta_split=delta, oversampling=2.0))
        print(f"delta-sweep {delta:.1e} {pressure_error(solver):.6e}")

    for M in (14, 18, 22, 26, 30):
        solver = CoulombSolver(cell, EwaldParameters(
            r_c=r_c, delta_split=1e-6, P=7, oversampling=2.0))
        solver.rebind_cell(cell, fixed_M=(M, M, M))
        print(f"grid-sweep {M} {pressure_error(solver):.6e}")

    for P in range(2, 9):
        solver = CoulombSolver(cell, EwaldParameters(
            r_c=r_c, delta_split=1e-6, P=P, oversampling=2.0))
        print(f"order-sweep {P} {pressure_error(solver):.6e}")


if __name__ == "__main__":
    main()
