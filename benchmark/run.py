#!/usr/bin/env python3
"""Benchmark of the prolate Ewald library: one workload per process.

    python3 benchmark/run.py --workload bulk16k --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics (setup_s, op_s, peak_mem_mib); with ``--trace 1`` it holds
the per-layer metrics of a traced run.  Details of every run, and the spans
of a traced run, are written under ``benchmark/results/``.  See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("bulk16k", "stress8k", "npt216")
# One BLAS/OpenMP thread: run-to-run spread is the point of the benchmark.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_TIMED_CALLS = 3
SETUP_REPEATS = 3     # traced solver constructions behind the setup-stage metrics
# After each operation the host calibration runs for this share of its time.
CALIBRATION_SHARE = 0.15


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_library():
    """Import prolate_ewald from src/ with one compute thread, or None."""
    if not (SRC / "prolate_ewald" / "__init__.py").is_file():
        return None
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(SRC))
    import prolate_ewald
    if not Path(prolate_ewald.__file__).resolve().is_relative_to(SRC):
        return None
    return prolate_ewald


class Runner:
    """Runs a workload's operation and counts attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.repeats_identical = True

    def call(self):
        """Seconds per operation of one call of the op, or None if it raised."""
        w = self.workload
        if w.fresh_solver:
            w.solver = w.new_solver()
        self.attempted += w.steps
        start = time.perf_counter()
        try:
            out = w.op()
        except Exception as exc:  # counted as failed; the run goes on
            self.failed += w.steps
            print(f"operation failed: {exc!r}", file=sys.stderr)
            return None
        elapsed = (time.perf_counter() - start) / w.steps
        if self.first is None:
            self.first = out
        elif not w.same(self.first, out):
            self.repeats_identical = False
        return elapsed

    def peak_mib(self):
        """Peak traced allocation of one call, in an untimed pass."""
        w = self.workload
        if w.fresh_solver:
            w.solver = w.new_solver()
        tracemalloc.start()
        try:
            w.op()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20


def until(seconds, body):
    deadline = time.perf_counter() + seconds
    calls = 0
    while calls < MIN_TIMED_CALLS or time.perf_counter() < deadline:
        body()
        calls += 1


def median_of(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None):
    args = parse_args(argv)
    if load_library() is None:
        print(f"benchmark: no prolate_ewald package under {SRC}", file=sys.stderr)
        return 2
    import workloads
    workload = workloads.WORKLOADS[args.workload]()
    setup_s = time.perf_counter() - T_START
    workload.prepare(args.seed)

    runner = Runner(workload)
    runner.call()                                   # warm-up, not timed
    times, traced_times, layer_rows, setup_rows = [], [], [], []
    tracer = None
    if args.trace:
        import layers
        from tracer import OpSpans, Tracer
        tracer = Tracer(layers.TARGETS)
        for k in range(SETUP_REPEATS):
            tracer.install(f"setup{k}")
            try:
                workload.new_solver()
            finally:
                tracer.remove()
            setup_rows.append(layers.setup_metrics(OpSpans(tracer.spans, f"setup{k}")))

        def traced_pair():
            times.append(runner.call())
            op = len(traced_times)
            tracer.install(op)
            try:
                traced_times.append(runner.call())
            finally:
                tracer.remove()
            layer_rows.append(layers.op_metrics(OpSpans(tracer.spans, op), workload.steps))

        until(args.seconds, traced_pair)
    else:
        from calibration import Calibration
        calibration = Calibration()

        def calibrated_call():
            elapsed = runner.call()
            times.append(elapsed)
            calibration.run(CALIBRATION_SHARE * (elapsed or 0.0) * workload.steps)

        until(args.seconds, calibrated_call)
        peak = runner.peak_mib()

    checks = workload.checks(runner.first) if runner.first is not None else []
    checks.append({"name": "repeated outputs bitwise identical",
                   "value": float(not runner.repeats_identical), "bound": 0.0,
                   "ok": runner.repeats_identical})
    correct = all(c["ok"] for c in checks)
    ok_times = [t for t in times if t is not None]

    if args.trace:
        medians = {name: median_of([row[name] for row in rows])
                   for rows in (layer_rows, setup_rows) for name in rows[0]}
        medians["trace.overhead_s"] = (
            median_of([t for t in traced_times if t is not None]) - median_of(ok_times))
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit in layers.UNITS.items()}
    else:
        scale = calibration.scale()
        metrics = {"setup_s": {"value": setup_s * scale, "unit": "s"},
                   "op_s": {"value": (statistics.fmean(ok_times) if ok_times else float("nan"))
                            * scale, "unit": "s"},
                   "peak_mem_mib": {"value": peak, "unit": "MiB"}}

    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "result": result, "checks": checks,
                   "setup_wall_s": setup_s, "op_times_s": times,
                   "calibration_times_s": [] if args.trace else calibration.times,
                   "traced_op_times_s": traced_times,
                   "absent": tracer.absent if tracer else []}, fh, indent=1)
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}_spans.json")
        for name in tracer.absent:
            print(f"trace target absent: {name}")
    for c in checks:
        print(f"[{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['value']:.3e} "
              f"(bound {c['bound']:.3e})")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
