"""Eddy-viscosity closure and the two-step bdf2 scheme.

On under-resolved meshes the subgrid closure replaces the molecular
viscosity with nu + (C_s h_T)^2 sqrt(2 D:D), evaluated pointwise from the
lagged velocity field.  This script lets a vortex pair decay in a box and
compares the kinetic-energy histories with the closure off and on, and with
backward Euler versus bdf2.  As shipped, bdf2 lags the advection field one
step, as backward Euler does, so it is first order in time too (observed
orders 1.07 and 1.11; ROADMAP.md, open item 1).
"""

import numpy as np

from movingflow import (BoundaryConditionSet, DiscreteField, FlowProblem,
                        FlowState, IdentityMap, NoslipBC, SolverConfig,
                        TaylorHoodSpace, generate_box, interpolate, run)
from movingflow.meshing import NOSLIP

mesh = generate_box(2, (8, 8))
space = TaylorHoodSpace(mesh)


def vortices(X):
    # counter-rotating pair from a sine stream function
    sx = np.sin(2 * np.pi * X[:, 0])
    sy = np.sin(np.pi * X[:, 1])
    cx = np.cos(2 * np.pi * X[:, 0])
    cy = np.cos(np.pi * X[:, 1])
    return np.stack([np.pi * sx * cy, -2 * np.pi * cx * sy], axis=1)


u0 = interpolate(space, "velocity", vortices)
u0.coefficients[space.constrained_dof_mask()] = 0.0

histories = {}
for label, cfg in {
    "molecular, backward Euler": SolverConfig(smagorinsky=None),
    "eddy closure (C_s=0.2)": SolverConfig(smagorinsky=0.2),
    "molecular, bdf2": SolverConfig(scheme="bdf2"),
}.items():
    problem = FlowProblem(space=space, map=IdentityMap(2), nu=0.002,
                          bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))
    initial = FlowState(0, 0.0, u0.copy(), DiscreteField(space, "pressure"))
    result = run(initial, problem, cfg, T=0.5, dt=0.025)
    histories[label] = [r["kinetic_energy"] for r in result.diagnostics]

print(f"{'t':>6}", *(f"{name:>28}" for name in histories))
times = np.arange(1, 21) * 0.025
for i, t in enumerate(times):
    print(f"{t:6.3f}", *(f"{histories[name][i]:28.6f}" for name in histories))

final = {name: h[-1] for name, h in histories.items()}
assert final["eddy closure (C_s=0.2)"] < final["molecular, backward Euler"]
print("\nthe eddy closure drains energy faster on this coarse mesh, "
      "as expected")
