#!/usr/bin/env python3
"""Microseconds per NPT step in each callee of one step of the npt216 workload.

Builds the npt216 workload of benchmark/workloads.py from ``--seed``, runs
WARMUP_BLOCKS untraced blocks of its steps, times ``--blocks`` more
untraced, then runs as many again with every callee below wrapped by the
benchmark's span tracer (benchmark/tracer.py), which patches the library
from outside.  For each callee it prints the calls per step and the
total and self time per step, in microseconds of the traced run; the
untraced time per step closes the table, so the difference from the
``integrate`` row is the tracing overhead.  Times are raw wall-clock
times of this host, not the benchmark's calibrated ``op_s``.  A callee
that a tree does not have is listed as absent and skipped, so the same
script profiles an older checkout.

Usage: python3 tools/step_profile.py [--seed 1] [--blocks 5]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the package from this checkout's src/ and the workloads and the
# tracer from its benchmark/, so that the usage line works without an
# installed package.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
import workloads  # noqa: E402
from tracer import OpSpans, Tracer  # noqa: E402

CALLEES = (
    "npt.integrate", "npt._evaluate_all", "npt._neighbors",
    "system.build_cell_list", "evaluate.CoulombSolver.evaluate",
    "realspace.short_range", "realspace.pair_sums", "mesh.forward_density",
    "mesh._window_weights", "mesh._deposit", "mesh.TransformProvider.forward",
    "mesh.long_range_energy", "mesh.long_range_pressure",
    "mesh.long_range_forces", "mesh.TransformProvider.inverse",
    "evaluate._assemble", "npt.barostat_step", "evaluate.CoulombSolver.rebind_cell",
    "mesh.plan_grid", "mesh.ModeWorkspace.__init__", "mesh.axis_modes",
    "system.Cell.__post_init__", "system.ParticleSystem.__post_init__",
    "evaluate.kinetic_pressure", "npt.kinetic_temperature",
)
WARMUP_BLOCKS = 3


def block(w):
    """Seconds per step of one block from a fresh solver."""
    w.solver = w.new_solver()
    start = time.perf_counter()
    w.op()
    return (time.perf_counter() - start) / w.steps


def profile(seed, blocks):
    w = workloads.WORKLOADS["npt216"]()
    w.prepare(seed)
    for _ in range(WARMUP_BLOCKS):
        block(w)
    untraced = statistics.median(block(w) for _ in range(blocks))
    tracer = Tracer({f"prolate_ewald.{name}": None for name in CALLEES})
    for k in range(blocks):
        w.solver = w.new_solver()
        tracer.install(k)
        try:
            w.op()
        finally:
            tracer.remove()
    per_step = 1e6 / (blocks * w.steps)
    spans = [OpSpans(tracer.spans, k) for k in range(blocks)]
    print(f"npt216 (seed {seed}, {blocks} blocks of {w.steps} steps), us per step")
    print(f"  {'callee':<36} {'calls':>7} {'total':>9} {'self':>9}")
    for name in CALLEES:
        if f"prolate_ewald.{name}" in tracer.absent:
            print(f"  {name:<36} absent")
            continue
        calls = sum(q.calls(name) for q in spans) / (blocks * w.steps)
        total = sum(q.total(name) for q in spans) * per_step
        self_ = sum(q.self_time(name) for q in spans) * per_step
        print(f"  {name:<36} {calls:>7.2f} {total:>9.1f} {self_:>9.1f}")
    print(f"  {'untraced step':<36} {'':>7} {untraced * 1e6:>9.1f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", type=int, default=5)
    args = parser.parse_args(argv)
    profile(args.seed, args.blocks)


if __name__ == "__main__":
    main()
