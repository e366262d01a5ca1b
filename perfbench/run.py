"""Benchmark of movingflow's time stepping, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload manufactured-l3 --seed 1 \\
        --seconds 30 --trace 0

Workloads: manufactured-l3, tube-l1, expression-cli (see perfbench/README.md).
With ``--trace 0`` the run makes ``round(seconds / nominal_s)`` rounds, at
least one, where ``nominal_s`` is a workload's round time on a 2-core x86
machine, so every run of a workload with the same ``--seconds`` measures the
same work.  A round times a few set-ups, then one whole trajectory (fresh
set-up, every step, diagnostics, outputs).  A fixed calibration kernel runs
before the first round, after each round's set-ups and after every step,
outside the timed intervals; each interval's wall time is scaled by the
machine speed the kernel saw on either side of it (see calibrate.py), and
the run reports the medians of the scaled times.  A run lasts about
``--seconds`` or one round, whichever is longer.
With ``--trace 1`` it runs one untraced and one traced trajectory and
reports the per-layer metrics computed from the traced one's spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON object with the environment and the checks' details.  The exit
code is 0 when every correctness check passed, 1 when one failed and 2
when the program could not be run at all.
"""

import os

# BLAS and OpenMP read these once, when numpy is first imported.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg_1m": os.getloadavg()[0],
    }


def import_program():
    """Import movingflow from this checkout's ``src``, never another copy;
    return why that failed, or None."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import movingflow
    except ImportError as exc:
        return f"cannot import movingflow from {ROOT / 'src'}: {exc}"
    if Path(movingflow.__file__).resolve().parent != ROOT / "src" / \
            "movingflow":
        return f"movingflow imported from {movingflow.__file__}, not from " \
               "this checkout"
    return None


def timed_setups(workload, repeats):
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def end_to_end(workload, seconds):
    """Rounds of timed set-ups and one whole trajectory.  Calibration
    samples before the first round, after each round's set-ups and after
    every step give each interval's factor (see calibrate.py)."""
    from calibrate import Calibration

    rounds = max(1, round(seconds / workload.nominal_s))
    calibration = Calibration()
    calibration.measure()
    setups, trajectories = [], []
    for _ in range(rounds):
        times = timed_setups(workload, math.ceil(SETUP_REPEATS / rounds))
        setups.append((calibration.measure(), times))
        gc.collect()
        trajectories.append(workload.trajectory(calibration=calibration))
        if not trajectories[-1].complete:
            break
    done = [t for t in trajectories if t.complete]
    if not done:
        return trajectories, {}, {}
    # (factor, wall times) for every interval a metric takes samples from
    series = {
        "setup_s": setups,
        "first_step_s": [(t.scales[0], [t.first_step_s]) for t in done],
        "step_s_p50": [(f, [x]) for t in done
                       for f, x in zip(t.scales[1:], t.step_s)],
        "run_s": [(statistics.fmean(t.scales), [t.run_s]) for t in done],
    }
    metrics = {name: statistics.median(x * f for f, xs in samples
                                       for x in xs)
               for name, samples in series.items()}
    wall = {name: round(statistics.median(x for f, xs in samples
                                          for x in xs), 6)
            for name, samples in series.items()}
    return trajectories, metrics, {
        "wall": wall,
        "calibration_s": [round(c, 6) for c in calibration.samples],
        "steady_step_samples": len(series["step_s_p50"])}


def traced(workload, work_dir):
    from layers import layer_metrics
    from spans import Tracer, instrument

    reference = workload.trajectory()
    tracer = Tracer()
    with instrument(tracer):
        traj = workload.trajectory(tracer)
    trajectories = [reference, traj]
    if not (reference.complete and traj.complete):
        return trajectories, {}, {}
    metrics, problems = layer_metrics(tracer.spans, traj,
                                      statistics.median(reference.step_s))
    for problem in problems:
        traj.fail(traj.steps, problem)
    spans_path = work_dir / "spans.json"
    spans_path.write_text(json.dumps(
        [[s.name, s.start, s.end, s.parent, s.attrs] for s in tracer.spans]))
    return trajectories, metrics, {"spans": str(spans_path.relative_to(ROOT))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    problem = import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import metrics as names
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.NAMES)}")
    work_dir = ROOT / ".perfbench_out" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, work_dir)
    if args.trace:
        trajectories, metrics, details = traced(workload, work_dir)
    else:
        trajectories, metrics, details = end_to_end(workload, args.seconds)
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(t.steps for t in trajectories)
    failed = sum(t.failed_steps for t in trajectories)
    digests = sorted({t.digest for t in trajectories if t.digest})
    failures = [f"trajectory {i + 1}, step {k}: {m}"
                for i, t in enumerate(trajectories)
                for k, msgs in sorted(t.failures.items()) for m in msgs]
    if len(digests) > 1:
        failures.append(f"repeated trajectories wrote different outputs: "
                        f"{digests}")
        failed += 1
    errors = [t.error_energy for t in trajectories
              if t.error_energy is not None]
    reported = {
        "error_energy": errors[0] if errors else None,
        "failure_ratio": failed / attempted,
    }
    wanted = names.PER_LAYER if args.trace else names.END_TO_END
    correct = not failures and all(n in metrics for n in wanted)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trajectories {len(trajectories)}  trace {args.trace}")
    for name in wanted + ([] if args.trace else list(reported)):
        value = metrics.get(name, reported.get(name))
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<50} {shown:>14} {names.UNITS[name]}")
    for line in failures:
        print(f"  FAILED {line}")
    if args.trace:
        details["counts"] = {n: metrics.get(n) for n in names.COUNTS}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "env": env, "digests": digests, **reported,
                      **details}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": names.UNITS[n]}
                    for n in wanted if n in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
