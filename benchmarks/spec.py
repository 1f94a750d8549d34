"""Names and units of everything the benchmark reports.

Kept free of numpy and relayflow imports so the parent process can
validate its arguments without loading the library.  The same tables
appear in ``BENCHMARK.json`` at the repository root; the self-tests
check that the two agree.
"""

WORKLOADS = ("fixtures-converge", "team5x4-ascent", "mobile-lockstep", "large-cold")

# name -> unit; reported by every untraced run (``--trace 0``)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "utility": "phi",
    "sim_realtime_x": "x",
    "peak_rss_mb": "MB",
    "verified_ratio": "ratio",
}

# name -> unit; reported by every traced run (``--trace 1``)
PER_LAYER = {
    "lp.solve.calls": "count",
    "lp.solve.self_s": "s",
    "lp.ipm_iters": "count",
    "lp.path.converged": "count",
    "lp.path.polished": "count",
    "lp.path.simplex": "count",
    "lp.path.other": "count",
    "simplex.solve_simplex.calls": "count",
    "simplex.solve_simplex.self_s": "s",
    "simplex.fallback_ratio": "ratio",
    "mcfp.solve_mcfp.calls": "count",
    "mcfp.solve_mcfp.ms_p50": "ms",
    "mcfp.solve_mcfp.ms_tail": "ms",
    "mcfp.solve_mcfp.tail_pct": "%",
    "mcfp.solve_mcfp.samples": "count",
    "mcfp.solve_mcfp.self_s": "s",
    "mcfp.build_instance.self_s": "s",
    "mcfp.build_lp.calls": "count",
    "mcfp.build_lp.self_s": "s",
    "mcfp.verify_solution.self_s": "s",
    "mcfp.check_kkt.self_s": "s",
    "mcfp.lp_vars": "count",
    "mcfp.lp_rows": "count",
    "mcfp.lp_nnz": "count",
    "ascent.iterations": "count",
    "ascent.self_s": "s",
    "ascent.gradient_from_duals.self_s": "s",
    "dynamics.ticks": "count",
    "dynamics.tick_ms_p50": "ms",
    "dynamics.tick_ms_tail": "ms",
    "dynamics.tick_tail_pct": "%",
    "dynamics.ticks_over_dt": "ratio",
    "dynamics.step_task.self_s": "s",
    "dynamics.step_relay.self_s": "s",
    "dynamics.self_s": "s",
    "capacity.capacity_matrix.self_s": "s",
    "capacity.gradient_factor_matrix.self_s": "s",
    "network.spawn_scenario.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
