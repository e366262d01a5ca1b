"""Domain motion from stored mesh frames.

When the motion comes from imaging or an external solver, the map is a
sequence of nodal position frames over the fixed connectivity.  Positions
are interpolated linearly in time, the gradient is the cellwise-constant
displacement gradient, and walls move with the map's own domain velocity:
the P1 interpolant of the slope of the current frame interval.  For frames
that sample an affine, linear-in-time motion this pathway is exact, so the
run must match the analytic-map run to roundoff, which is verified below.
"""

from pathlib import Path
import tempfile

import numpy as np

from movingflow import (AxisScalingMap, BoundaryConditionSet, DiscreteField,
                        FlowProblem, FlowState, NoslipBC, SolverConfig,
                        TaylorHoodSpace, generate_box, load_mesh_sequence,
                        run)
from movingflow.meshing import NOSLIP

mesh = generate_box(2, (4, 4))
space = TaylorHoodSpace(mesh)

# analytic motion: linear-in-time axis scaling (compresses in y, widens in x)
scales = [lambda t: 1.0 + 0.5 * t, lambda t: 1.0 - 0.25 * t]
rates = [lambda t: 0.5, lambda t: -0.25]
analytic = AxisScalingMap(scales, rates)

# write three frames in the on-disk format: time on line 1, one coordinate
# line per node, identical node ordering in every frame
frame_dir = Path(tempfile.mkdtemp(prefix="frames_"))
for k, t in enumerate((0.0, 0.05, 0.1)):
    coords = mesh.vertices * [s(t) for s in scales]
    lines = [f"{t}"] + [f"{x:.17g} {y:.17g}" for x, y in coords]
    (frame_dir / f"frame_{k:03d}.txt").write_text("\n".join(lines))
sequence = load_mesh_sequence(frame_dir, mesh)
print(f"loaded {len(sequence.times)} frames from {frame_dir}")

rng = np.random.default_rng(1)
coeffs = rng.standard_normal(space.n_velocity_dofs)
coeffs[space.constrained_dof_mask()] = 0.0

results = {}
for name, map_ in (("analytic", analytic), ("frames", sequence)):
    problem = FlowProblem(space=space, map=map_, nu=0.5,
                          bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))
    states = [FlowState(0, 0.0, DiscreteField(space, "velocity",
                                              coeffs.copy()),
                        DiscreteField(space, "pressure"))]
    run(states[0], problem, SolverConfig(), T=0.1, dt=0.025,
        callbacks=[lambda state, _: states.append(state)])
    results[name] = states

worst = 0.0
for sa, sm in zip(results["analytic"], results["frames"]):
    worst = max(worst, np.abs(sa.u.coefficients - sm.u.coefficients).max())
print(f"max velocity dof difference between the two pathways: {worst:.2e}")
assert worst < 1e-8
print("stored-frame and analytic runs agree to roundoff")
