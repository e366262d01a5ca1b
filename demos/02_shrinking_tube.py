"""Flow in a shrinking tube with a known exact solution.

The reference tube (radius exp((y+4)/8) around the y axis) contracts
radially by sqrt(1 - t/4).  The built-in benchmark case carries the exact
velocity, pressure and forcing; this script runs the coarsest level and
reports the combined energy-norm error, then writes the deformed
configuration for visualization.
"""

from pathlib import Path

from movingflow import (ErrorAccumulator, FlowProblem, FlowState,
                        SolverConfig, TaylorHoodSpace, interpolate,
                        tube_benchmark, run)
from movingflow.fileio import write_vtk
from movingflow.spaces import DiscreteField

OUTDIR = Path("demo_output") / "02_shrinking_tube"

case = tube_benchmark()
mesh = case.mesh_for_level(1)
space = TaylorHoodSpace(mesh)
print(f"tube mesh: {mesh.n_cells} tets, "
      f"{space.n_velocity_dofs + space.n_pressure_dofs} unknowns")

problem = FlowProblem(space=space, map=case.map, nu=case.nu,
                      bcs=case.boundary_conditions(), forcing=case.forcing)
config = SolverConfig(stress=case.stress)

dt = case.base_dt
u0 = interpolate(space, "velocity",
                 lambda X: case.velocity(case.map.position(X, 0.0), 0.0))
initial = FlowState(0, 0.0, u0, DiscreteField(space, "pressure"))

errors = ErrorAccumulator(space, case.map, case.velocity,
                          case.velocity_gradient, dt, case.nu)
result = run(initial, problem, config, T=case.T, dt=dt,
             callbacks=[errors.update])

report = errors.report()
print(f"steps: {len(report.times)}, dt = {dt}")
print(f"max_k ||e||_k                   : {report.max_l2:.5f}")
print(f"sqrt(sum dt ||D e||_k^2)        : {report.dissipation_sum:.5f}")
print(f"combined energy-norm error      : {report.combined:.5f}")

OUTDIR.mkdir(parents=True, exist_ok=True)
for state, name in ((initial, "initial"), (result.final, "final")):
    write_vtk(OUTDIR / f"{name}.vtk", mesh, case.map, state.t,
              u=state.u, p=state.p)
print(f"wrote {OUTDIR}/initial.vtk and final.vtk "
      f"(the final frame shows the contracted tube)")
