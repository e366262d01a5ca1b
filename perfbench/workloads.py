"""The benchmark's three workloads and the checks on their outputs.

A trajectory is what a user waits for: set-up, every time step with its
diagnostics, and any output files.  ``clocked`` stands in for
``movingflow.solver.run`` while a trajectory runs.  It appends one callback
after the program's own, which stamps the end of each step and keeps the
step's record; when given a calibration, it then takes one calibration
sample before the next step starts, outside every timed interval; when
tracing, it brackets each step in a ``step`` span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from movingflow import (DiscreteField, ErrorAccumulator, FlowProblem,
                        FlowState, SolverConfig, TaylorHoodSpace, cli,
                        interpolate, manufactured_2d, solver, tube_benchmark)
from movingflow import config as mfconfig
from movingflow.fileio import DIAGNOSTIC_COLUMNS, read_checkpoint

from spans import STEP

DIVERGENCE_TOL = 1e-9      # max |B u - g| a step; the seed code stays < 3e-12
ERROR_RTOL = 0.01          # allowed relative change of error_energy


@dataclass
class Trajectory:
    steps: int                 # steps asked for
    starts: list = field(default_factory=list)   # clock as each step began
    ends: list = field(default_factory=list)     # clock as each step ended
    scales: list = field(default_factory=list)   # calibration factor a step
    calibration_s: float = 0.0  # calibration time inside the trajectory
    records: list = field(default_factory=list)  # the per-step diagnostics
    run_s: float = math.nan    # wall time, less calibration_s
    failures: dict = field(default_factory=dict)   # step -> messages
    digest: str = ""
    error_energy: float = None
    final: object = None       # FlowState after the last step

    @property
    def first_step_s(self):
        return self.ends[0] - self.starts[0]

    @property
    def step_s(self):
        """Wall time of steps 2..N."""
        return [e - s for s, e in zip(self.starts[1:], self.ends[1:])]

    def fail(self, step, message):
        self.failures.setdefault(step, []).append(message)

    @property
    def failed_steps(self):
        """Steps that raised, never ran, or failed a check."""
        done = len(self.records)
        return len(set(self.failures) | set(range(done + 1, self.steps + 1)))

    @property
    def complete(self):
        return len(self.ends) == self.steps


@contextlib.contextmanager
def clocked(trajectory, tracer=None, calibration=None):
    original = solver.run

    def clocked_run(initial, problem, config, T, dt, callbacks=(), **kwargs):
        n = int(round((T - initial.t) / dt))
        trajectory.starts.append(time.perf_counter())
        step = tracer.begin(STEP) if tracer else None

        def stamp(state, record):
            nonlocal step
            if tracer:
                tracer.end(step)
                step = None
            trajectory.ends.append(time.perf_counter())
            trajectory.records.append(record)
            if calibration is not None:
                trajectory.scales.append(calibration.measure())
                trajectory.calibration_s += calibration.samples[-1]
            if len(trajectory.records) < n:
                trajectory.starts.append(time.perf_counter())
                if tracer:
                    step = tracer.begin(STEP)

        try:
            result = original(initial, problem, config, T, dt,
                              callbacks=[*callbacks, stamp], **kwargs)
            trajectory.final = result.final
            return result
        finally:
            if step is not None:       # the step raised
                tracer.end(step)

    solver.run = clocked_run
    try:
        yield
    finally:
        solver.run = original


def check_records(traj, tolerance):
    for rec in traj.records:
        k = rec["step"]
        values = [v for v in rec.values() if isinstance(v, (int, float))]
        if not all(math.isfinite(v) for v in values):
            traj.fail(k, "non-finite diagnostic")
        if not rec["linear_residual"] <= tolerance:
            traj.fail(k, f"linear residual {rec['linear_residual']:.3g} "
                         f"above tolerance {tolerance:g}")
        if not rec["divergence_residual"] <= DIVERGENCE_TOL:
            traj.fail(k, f"divergence residual "
                         f"{rec['divergence_residual']:.3g} above "
                         f"{DIVERGENCE_TOL:g}")


def state_digest(state):
    h = hashlib.sha256()
    for field_ in (state.u, state.p):
        coeffs = field_.coefficients
        if not np.all(np.isfinite(coeffs)):
            return None
        h.update(np.ascontiguousarray(coeffs, dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class ExactCase:
    """A built-in exact-solution case on a fixed prefix of its trajectory,
    with the energy error accumulated by a run callback."""

    name: str
    factory: object
    level: int
    dt: float
    steps: int
    error_energy: float        # the seed code's value, gated to ERROR_RTOL
    nominal_s: float           # round time on a 2-core x86 machine

    def setup(self):
        case = self.factory()
        mesh = case.mesh_for_level(self.level)
        space = TaylorHoodSpace(mesh)
        problem = FlowProblem(space=space, map=case.map, nu=case.nu,
                              bcs=case.boundary_conditions(),
                              forcing=case.forcing)

        def at_start(fn):
            return lambda X: fn(case.map.position(X, 0.0), 0.0)

        initial = FlowState(
            k=0, t=0.0,
            u=interpolate(space, "velocity", at_start(case.velocity)),
            p=interpolate(space, "pressure", at_start(case.pressure)))
        return case, space, problem, initial

    def trajectory(self, tracer=None, calibration=None):
        traj = Trajectory(self.steps)
        start = time.perf_counter()
        case, space, problem, initial = self.setup()
        config = SolverConfig(stress=case.stress)
        errors = ErrorAccumulator(space, case.map, case.velocity,
                                  case.velocity_gradient, self.dt, case.nu)
        with clocked(traj, tracer, calibration):
            try:
                solver.run(initial, problem, config, self.steps * self.dt,
                           self.dt, callbacks=[errors.update])
            except Exception as exc:   # counted as failed steps, reported
                traj.fail(len(traj.records) + 1,
                          f"{type(exc).__name__}: {exc}")
            traj.error_energy = errors.report().combined
        traj.run_s = time.perf_counter() - start - traj.calibration_s
        check_records(traj, config.tolerance)
        if traj.final is not None:
            traj.digest = state_digest(traj.final)
            if traj.digest is None:
                traj.fail(self.steps, "non-finite final state")
            ref = self.error_energy
            if not abs(traj.error_energy - ref) <= ERROR_RTOL * ref:
                traj.fail(self.steps, f"error_energy {traj.error_energy:.6g} "
                                      f"differs from {ref:.6g} by more "
                                      f"than {ERROR_RTOL:.0%}")
        return traj


@dataclass(frozen=True)
class CliCase:
    """``movingflow run`` on a generated config: expression map and
    forcing, bdf2, eddy viscosity, VTK with q-criterion, CSV, checkpoint."""

    name: str
    seed: int
    work_dir: Path
    steps: int = 4
    dt: float = 0.05
    vtk_every: int = 2
    nominal_s: float = 4.0

    @property
    def config_path(self):
        return self.work_dir / "config.json"

    @property
    def out_dir(self):
        return self.work_dir / "output"

    def config(self):
        rng = random.Random(self.seed)
        a = round(rng.uniform(0.1, 0.3), 6)
        f1 = round(rng.uniform(0.5, 2.0), 6)
        f2 = round(rng.uniform(0.5, 2.0), 6)
        return {
            "mesh": {"generator": {"kind": "box", "dimension": 2,
                                   "divisions": [32, 32]}},
            "map": {"kind": "expression",
                    "expressions": f"x1 + {a}*t*sin(x1*x2); "
                                   f"x2 + {a}*t*exp(x1*x2/4)"},
            "physics": {"nu": 0.01, "smagorinsky": {"cs": 0.17},
                        "forcing": [f"{f1}*sin(pi*x2)*cos(t)",
                                    f"-{f2}*sin(pi*x1)*(1+t)"]},
            "time": {"dt": self.dt, "T": self.steps * self.dt,
                     "scheme": "bdf2"},
            "bcs": {"noslip": {"type": "noslip"}},
            "output": {"directory": "output", "vtk_every": self.vtk_every,
                       "csv": True, "q_criterion": True, "checkpoint": True},
        }

    def prepare(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config(), indent=1))

    def setup(self):
        """What ``movingflow run`` does before its first step: its own
        config load and set-up, and the zero initial state."""
        _, _, space, problem, _ = cli._setup(
            mfconfig.load_config(self.config_path))
        return FlowState(k=0, t=0.0, u=DiscreteField(space, "velocity"),
                         p=DiscreteField(space, "pressure")), problem

    def vtk_names(self):
        return [f"state_{k:06d}.vtk"
                for k in range(0, self.steps + 1, self.vtk_every)]

    def trajectory(self, tracer=None, calibration=None):
        traj = Trajectory(self.steps)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        err = io.StringIO()
        argv = ["run", "--config", str(self.config_path),
                "--output", str(self.out_dir)]
        start = time.perf_counter()
        with clocked(traj, tracer, calibration), \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.cli(argv)
        traj.run_s = time.perf_counter() - start - traj.calibration_s
        if code != 0:
            traj.fail(len(traj.records) + 1,
                      f"cli exit code {code}: {err.getvalue().strip()}")
        check_records(traj, SolverConfig().tolerance)
        if code == 0:
            self._check_outputs(traj, traj.final)
        return traj

    def _check_outputs(self, traj, final):
        n = self.steps
        csv = self.out_dir / "diagnostics.csv"
        ckpt = self.out_dir / "final.ckpt"
        files = [csv, ckpt] + [self.out_dir / v for v in self.vtk_names()]
        missing = [p.name for p in files if not p.is_file()]
        if missing:
            traj.fail(n, f"missing outputs {missing}")
            return
        lines = csv.read_text().splitlines()
        if lines[0] != ",".join(DIAGNOSTIC_COLUMNS):
            traj.fail(n, f"CSV header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        if [r[0] for r in rows] != [str(k) for k in range(1, n + 1)] or \
                any(len(r) != len(DIAGNOSTIC_COLUMNS) for r in rows):
            traj.fail(n, f"CSV has {len(rows)} rows, not steps 1..{n}")
        restored = read_checkpoint(ckpt, final.u.space)
        if (restored.k, restored.t) != (final.k, final.t) or \
                state_digest(restored) != state_digest(final) or \
                state_digest(final) is None:
            traj.fail(n, "checkpoint does not restore the final state "
                         "bitwise")
        h = hashlib.sha256()
        for p in files:
            h.update(p.name.encode())
            h.update(hashlib.sha256(p.read_bytes()).digest())
        traj.digest = h.hexdigest()


def make(name, seed, work_dir):
    if name == "manufactured-l3":
        return ExactCase(name, manufactured_2d, level=3, dt=0.003125,
                         steps=4, error_energy=0.0009792055827823295,
                         nominal_s=4.4)
    if name == "tube-l1":
        return ExactCase(name, tube_benchmark, level=1, dt=0.02, steps=4,
                         error_energy=0.2974732588431816, nominal_s=7.6)
    if name == "expression-cli":
        case = CliCase(name, seed, Path(work_dir))
        case.prepare()
        return case
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


NAMES = ("manufactured-l3", "tube-l1", "expression-cli")
