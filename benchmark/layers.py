"""Which library functions the traced run wraps, and the per-layer metrics.

Names are the ones the calling modules look up; README.md maps each metric
to the end-to-end metric it should move.  Times and counts are per
operation (per NPT step on npt216) unless the name says otherwise.
"""

from __future__ import annotations

from tracer import OpSpans

FORWARD = "mesh.TransformProvider.forward"
INVERSE = "mesh.TransformProvider.inverse"
REBIND = "evaluate.CoulombSolver.rebind_cell"
STENCIL_BYTES_PER_POINT = 8 + 8   # int64 flat index + float64 weight


def _rebind_full(args, kwargs, result):
    fixed = kwargs.get("fixed_M", args[2] if len(args) > 2 else None)
    return {"full": int(fixed is None)}


TARGETS = {
    "prolate_ewald.system.build_cell_list": lambda a, k, r: {"pairs": int(r.n_pairs)},
    "prolate_ewald.realspace.short_range": lambda a, k, r: {"pairs": int(r.pair_count)},
    "prolate_ewald.mesh.forward_density": None,
    "prolate_ewald.mesh._window_weights": lambda a, k, r: {
        "bytes": a[0].n * a[1].P ** 3 * STENCIL_BYTES_PER_POINT},
    "prolate_ewald.mesh.TransformProvider.forward": None,
    "prolate_ewald.mesh.TransformProvider.inverse": None,
    "prolate_ewald.mesh.long_range_energy": None,
    "prolate_ewald.mesh.long_range_pressure": None,
    "prolate_ewald.mesh.long_range_forces": None,
    "prolate_ewald.mesh.local_pressure": None,
    "prolate_ewald.mesh.ModeWorkspace.__init__": lambda a, k, r: {
        "grid_points": int(a[1].n_grid), "retained_modes": int(a[0].k2.size)},
    "prolate_ewald.mesh.plan_grid": None,
    "prolate_ewald.pswf.solve_bandwidth": None,
    "prolate_ewald.pswf.build_pswf": None,
    "prolate_ewald.pswf.tabulate_window": None,
    "prolate_ewald.realspace.build_pair_table": None,
    "prolate_ewald.evaluate.CoulombSolver.evaluate": None,
    "prolate_ewald.evaluate.CoulombSolver.local_pressure": None,
    "prolate_ewald.evaluate.CoulombSolver.rebind_cell": _rebind_full,
    "prolate_ewald.npt.integrate": None,
    "prolate_ewald.npt.softcore_interactions": None,
    "prolate_ewald.npt.barostat_step": None,
}

# Metric name -> unit, in the order they are reported.
UNITS = {
    "system.cell_list_s": "s", "system.pairs": "count",
    "realspace.short_range_s": "s", "realspace.pairs_in_cutoff": "count",
    "mesh.spread_s": "s", "mesh.fft_forward_s": "s", "mesh.fft_forward_calls": "count",
    "mesh.reduce_s": "s", "mesh.fft_inverse_s": "s", "mesh.fft_inverse_calls": "count",
    "mesh.gather_s": "s", "mesh.stencil_bytes_computed": "bytes",
    "mesh.grid_points": "count", "mesh.retained_modes": "count",
    "evaluate.rebind_s": "s", "evaluate.rebind_calls": "count",
    "mesh.mode_workspace_s": "s", "evaluate.self_s": "s",
    "npt.softcore_s": "s", "npt.barostat_self_s": "s", "npt.integrate_self_s": "s",
    "npt.full_replans": "count", "npt.replan_fallbacks": "count",
    "pswf.solve_bandwidth_s": "s", "pswf.build_pswf_s": "s",
    "pswf.tabulate_window_s": "s", "realspace.pair_table_s": "s",
    "mesh.plan_grid_s": "s", "trace.overhead_s": "s",
}


def op_metrics(q: OpSpans, steps: int) -> dict:
    """Per-operation metrics of one traced call of the workload's op.

    ``steps`` operations ran in the call; NPT replans and fallbacks are
    reported per call (one ``integrate`` run), everything else per operation.
    """
    per_call = {
        "system.cell_list_s": q.total("system.build_cell_list"),
        "system.pairs": q.count("system.build_cell_list", "pairs"),
        "realspace.short_range_s": q.total("realspace.short_range"),
        "realspace.pairs_in_cutoff": q.count("realspace.short_range", "pairs"),
        "mesh.spread_s": q.excluding(["mesh.forward_density"], {FORWARD}),
        "mesh.fft_forward_s": q.total(FORWARD),
        "mesh.fft_forward_calls": q.calls(FORWARD),
        "mesh.reduce_s": q.total("mesh.long_range_energy", "mesh.long_range_pressure"),
        "mesh.fft_inverse_s": q.total(INVERSE),
        "mesh.fft_inverse_calls": q.calls(INVERSE),
        "mesh.gather_s": q.excluding(["mesh.long_range_forces", "mesh.local_pressure"],
                                     {INVERSE}),
        "mesh.stencil_bytes_computed": q.count("mesh._window_weights", "bytes"),
        "evaluate.rebind_s": q.total(REBIND),
        "evaluate.rebind_calls": q.calls(REBIND),
        "mesh.mode_workspace_s": q.total("mesh.ModeWorkspace.__init__"),
        "evaluate.self_s": (q.self_time("evaluate.CoulombSolver.evaluate")
                            + q.self_time("evaluate.CoulombSolver.local_pressure")),
        "npt.softcore_s": q.total("npt.softcore_interactions"),
        "npt.barostat_self_s": q.self_time("npt.barostat_step"),
        "npt.integrate_self_s": q.self_time("npt.integrate"),
    }
    out = {name: value / steps for name, value in per_call.items()}
    out["npt.full_replans"] = q.count(REBIND, "full")
    out["npt.replan_fallbacks"] = q.calls(
        REBIND, where=lambda span: span.get("error") == "PlanningError")
    return out


def setup_metrics(q: OpSpans) -> dict:
    """Stage times of one traced CoulombSolver construction, and its mesh size."""
    return {
        "pswf.solve_bandwidth_s": q.total("pswf.solve_bandwidth"),
        "pswf.build_pswf_s": q.total("pswf.build_pswf"),
        "pswf.tabulate_window_s": q.total("pswf.tabulate_window"),
        "realspace.pair_table_s": q.total("realspace.build_pair_table"),
        "mesh.plan_grid_s": q.excluding(["mesh.plan_grid"], {"pswf.tabulate_window"}),
        "mesh.grid_points": q.count("mesh.ModeWorkspace.__init__", "grid_points"),
        "mesh.retained_modes": q.count("mesh.ModeWorkspace.__init__", "retained_modes"),
    }
