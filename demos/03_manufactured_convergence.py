"""Convergence verification with a manufactured solution.

The unit square stretches with an area-preserving map while the exact flow
is the curl of sin(pi x) sin(pi y) cos(t) in physical coordinates.  Halving
the mesh width and quartering the time step should shrink the combined
energy-norm error by a factor of about four (second order).
"""

from pathlib import Path

from movingflow import convergence_study, manufactured_2d

OUTDIR = Path("demo_output") / "03_manufactured_convergence"

case = manufactured_2d()
table = convergence_study(
    case, levels=3,
    progress=lambda lvl, tab: print(f"level {lvl}: "
                                    f"error {tab.errors()[-1]:.6g}"))

print()
print(table)
print()
print("observed orders:", ", ".join(f"{o:.3f}" for o in table.orders()))

OUTDIR.mkdir(parents=True, exist_ok=True)
table.to_csv(OUTDIR / "convergence.csv")
print(f"table written to {OUTDIR}/convergence.csv")
