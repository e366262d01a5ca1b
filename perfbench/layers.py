"""Per-layer metrics computed from the spans of one traced trajectory.

"Per step" means per steady step: steps 2..N, the ones ``step_s_p50``
covers.  Step 1 carries the factorization and the lazy caches, so the
factorization metrics are totals over the whole trajectory instead.
"""

import math
import statistics
from collections import defaultdict

from spans import STEP, enclosing, self_times

# Every span kind that can run inside a time step, and the per-step
# self-time metric that carries it.  The step span's own self time is the
# time no layer covers.  Together these metrics make up the step's wall time.
STEP_SELF = {
    "maps.sample_fields": "maps.sample_fields.self_s_per_step",
    "expressions.eval": "expressions.eval.self_s_per_step",
    "assembly.assemble_step": "assembly.assemble_step.self_s_per_step",
    "solver.apply_boundary_conditions":
        "solver.apply_boundary_conditions.self_s_per_step",
    "solver.advance": "solver.advance.self_s_per_step",
    "solver.factor": "solver.factor_s_per_step",
    "solver.lu_solve": "solver.lu_solve_s_per_step",
    "analysis.k_norm": "analysis.k_norm.self_s_per_step",
    "analysis.energy_balance_terms":
        "analysis.energy_balance_terms.self_s_per_step",
    "analysis.error_update": "analysis.error_update.self_s_per_step",
    "fileio.write_vtk": "fileio.self_s_per_step",
    "fileio.write_diagnostics_csv": "fileio.self_s_per_step",
    "fileio.write_checkpoint": "fileio.self_s_per_step",
    STEP: "trace.unattributed_s_per_step",
}


def layer_metrics(spans, traj, untraced_step_s_p50):
    """Return the per-layer metrics and a list of what is wrong with them:
    spans left open, span kinds inside a step that no metric carries, and
    per-step self times that do not add up to the mean steady-step wall time
    of the traced run."""
    problems = [f"span {s.name!r} was never closed"
                for s in spans if math.isnan(s.end)]
    own = self_times(spans)
    step_of = enclosing(spans, STEP)
    steps = [i for i, s in enumerate(spans) if s.name == STEP]
    steady = set(steps[1:])
    n = len(steady)

    calls = defaultdict(int)
    per_step = dict.fromkeys(STEP_SELF.values(), 0.0)
    points = 0
    unknown = set()
    for i, s in enumerate(spans):
        if step_of[i] not in steady:
            continue
        calls[s.name] += 1
        points += s.attrs.get("points", 0)
        if s.name in STEP_SELF:
            per_step[STEP_SELF[s.name]] += own[i] / n
        else:
            unknown.add(s.name)
    problems += [f"span {name!r} runs inside a step but no per-step metric "
                 "carries it" for name in sorted(unknown)]

    factors = [s for s in spans if s.name == "solver.factor"]
    factored_steps = {step_of[i] for i, s in enumerate(spans)
                      if s.name == "solver.factor" and step_of[i] >= 0}
    writes = [s for s in spans if s.name.startswith("fileio.")]
    vtk = [s.duration for s in spans if s.name == "fileio.write_vtk"]
    step_wall = sum(spans[i].duration for i in steady)
    trace_p50 = statistics.median(traj.step_s)

    def total(prefix):
        return sum(s.duration for s in spans if s.name.startswith(prefix))

    metrics = {
        **per_step,
        "maps.sample_fields.calls_per_step": calls["maps.sample_fields"] / n,
        "maps.sample_fields.points_per_step": points / n,
        "expressions.eval.calls_per_step": calls["expressions.eval"] / n,
        "assembly.assemble_step.calls_per_step":
            calls["assembly.assemble_step"] / n,
        "solver.factorizations": len(factors),
        "solver.factor_s": sum(s.duration for s in factors),
        "solver.factor_nnz": max((s.attrs["nnz"] for s in factors),
                                 default=0),
        "solver.factor_reuse_ratio": 1.0 - len(factored_steps) / len(steps),
        "solver.lu_solves_per_step": calls["solver.lu_solve"] / n,
        "solver.linear_iterations_p50": statistics.median(
            r["linear_iterations"] for r in traj.records),
        "analysis.k_norm.calls_per_step": calls["analysis.k_norm"] / n,
        "fileio.write_vtk.s_per_call": statistics.mean(vtk) if vtk else 0.0,
        "fileio.write_s": sum(s.duration for s in writes),
        "fileio.bytes_written": sum(s.attrs["bytes"] for s in writes),
        "meshing.generate_s": total("meshing."),
        "spaces.setup_s": total("spaces.setup"),
        "config.load_s": total("config.load_config"),
        "trace.step_s_p50": trace_p50,
        "trace.overhead_ratio": trace_p50 / untraced_step_s_p50,
        "trace.unattributed_share":
            per_step["trace.unattributed_s_per_step"] * n / step_wall,
    }
    reported = sum(metrics[name] for name in per_step)
    if not math.isclose(reported, step_wall / n, rel_tol=1e-6):
        problems.append(f"per-step self times add up to {reported:.9g} s, "
                        f"the mean steady step takes {step_wall / n:.9g} s")
    return metrics, problems
