#!/usr/bin/env python3
"""Traced memory of each library stage in one operation of each benchmark workload.

Builds the workloads of benchmark/workloads.py from ``--seed``, runs
WARMUP_OPS operations, then one operation under ``tracemalloc`` with every
stage below wrapped.  For each stage it prints the number of calls and
the largest traced memory at entry, peak and exit over those calls, in MiB;
the last line of a workload is the peak of the whole operation, the figure
the benchmark reports as ``peak_mem_mib``.  A stage's peak includes the
stages it calls (_window_weights runs inside forward_density, the inverse
transform inside long_range_forces and local_pressure).

Usage: python3 tools/memory_phases.py [--seed 1] [--workload bulk16k ...]
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the package from this checkout's src/ and the workloads from its
# benchmark/, so that the usage line works without an installed package.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
import prolate_ewald  # noqa: E402
import workloads  # noqa: E402

STAGES = ("system.build_cell_list", "realspace.short_range", "mesh.forward_density",
          "mesh._window_weights", "mesh.long_range_energy", "mesh.long_range_pressure",
          "mesh.long_range_forces", "mesh.local_pressure",
          "mesh.TransformProvider.inverse")
MIB = 2.0**20
# The benchmark traces its peak after a run of timed operations.  The first
# operations of a process peak higher while caches fill (npt216: 0.771 MiB
# in the first, 0.729 MiB from the eleventh on), so as many run first here.
WARMUP_OPS = 10


class StageMemory:
    """Wraps each stage wherever a package module holds it, and records its
    calls and its largest entry, peak and exit traced memory."""

    def __init__(self):
        self.rows = {stage: [0, 0, 0, 0] for stage in STAGES}
        self.op_peak = 0
        self._open = []     # running peaks of the stages now executing
        self._patches = []

    def fold_peak(self):
        peak = tracemalloc.get_traced_memory()[1]
        self.op_peak = max(self.op_peak, peak)
        self._open = [max(p, peak) for p in self._open]
        tracemalloc.reset_peak()

    def _wrap(self, stage, fn):
        def traced(*args, **kwargs):
            row = self.rows[stage]
            self.fold_peak()
            entry = tracemalloc.get_traced_memory()[0]
            self._open.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.fold_peak()
                peak = self._open.pop()
            exit_ = tracemalloc.get_traced_memory()[0]
            row[0] += 1
            row[1:] = [max(row[1], entry), max(row[2], peak), max(row[3], exit_)]
            return result
        return traced

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "prolate_ewald"]
        for stage in STAGES:
            module, *path = stage.split(".")
            owner = getattr(prolate_ewald, module)
            for attr in path[:-1]:      # a method: patch it on its class
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapped = self._wrap(stage, original)
            if path[:-1]:
                self._patches.append((owner, path[-1], original))
                setattr(owner, path[-1], wrapped)
                continue
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, value))
                        setattr(owner, key, wrapped)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)


def measure(name, seed):
    w = workloads.WORKLOADS[name]()
    w.prepare(seed)
    for _ in range(WARMUP_OPS):
        if w.fresh_solver:
            w.solver = w.new_solver()
        w.op()
    if w.fresh_solver:
        w.solver = w.new_solver()
    with StageMemory() as memory:
        tracemalloc.start()
        try:
            w.op()
            memory.fold_peak()
        finally:
            tracemalloc.stop()
    print(f"{name} (seed {seed})")
    print(f"  {'stage':<26} {'calls':>6} {'entry':>8} {'peak':>8} {'exit':>8}")
    for stage, (calls, entry, peak, exit_) in memory.rows.items():
        if calls:
            print(f"  {stage.split('.', 1)[1]:<26} {calls:>6} {entry / MIB:>8.3f} "
                  f"{peak / MIB:>8.3f} {exit_ / MIB:>8.3f}")
    print(f"  {'operation peak':<26} {'':>6} {'':>8} {memory.op_peak / MIB:>8.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", choices=list(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.workload:
        measure(name, args.seed)


if __name__ == "__main__":
    main()
