"""Step-weighted norms, error measures and the convergence-study harness.

The step norm ||v||_k is the J-weighted L2 norm over the reference domain at
time t_k.  The trajectory error is reported in the combined energy measure

    max_k ||e^k||_k  +  sqrt( sum_k dt ||D_k(e^k)||_k^2 )

where D_k is the pulled-back symmetric velocity-gradient rate and e^k
compares the discrete solution against the exact solution composed with the
map at quadrature points (not against its interpolant).
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import sampling
from .solver import (FlowProblem, FlowState, SolverConfig, run)
from .spaces import TaylorHoodSpace, interpolate

__all__ = [
    "k_norm", "EnergyErrorReport", "ErrorAccumulator", "EnergyBalance",
    "energy_balance_terms", "ConvergenceTable", "convergence_study",
]

log = logging.getLogger(__name__)


def k_norm(field, map_, t):
    """J-weighted L2 norm at time t of a velocity DiscreteField."""
    space = field.space
    samples = sampling.map_samples(space, map_)
    vals = samples.field(t, field).values
    sq = np.einsum("dcq,dcq->cq", vals, vals)
    wts = sampling.cell_data(space).weights
    return float(np.sqrt(np.sum(wts * samples.jacobian(t) * sq)))


@dataclass
class EnergyErrorReport:
    times: np.ndarray
    l2_errors: np.ndarray          # ||e^k||_k per step
    rate_errors: np.ndarray        # ||D_k(e^k)||_k per step
    dt: float
    nu: float

    @property
    def max_l2(self):
        return float(self.l2_errors.max(initial=0.0))

    @property
    def dissipation_sum(self):
        return float(np.sqrt(self.dt * np.sum(self.rate_errors ** 2)))

    @property
    def combined(self):
        """max_k ||e||_k + sqrt(sum dt ||D_k e||_k^2)."""
        return self.max_l2 + self.dissipation_sum


class ErrorAccumulator:
    """Per-step error recorder against exact fields in physical coordinates.

    ``velocity(X, t)`` and ``velocity_gradient(X, t)`` are evaluated at the
    mapped quadrature points; pass it as a run callback via ``update``.
    """

    def __init__(self, space, map_, velocity, velocity_gradient, dt, nu):
        self.space = space
        self.map = map_
        self.velocity = velocity
        self.velocity_gradient = velocity_gradient
        self.dt = dt
        self.nu = nu
        self.times = []
        self.l2 = []
        self.rate = []

    def update(self, state, record=None):
        space, map_ = self.space, self.map
        t = state.t
        samples = sampling.map_samples(space, map_)
        cells = samples.cells(t)
        uh = samples.field(t, state.u)
        nc, nq, d = cells.position.shape
        phys = cells.position.reshape(-1, d)
        wJ = sampling.cell_data(space).weights * cells.J
        # the exact fields as component planes, like the discrete ones
        ue = np.asarray(self.velocity(phys, t), dtype=float).T.reshape(
            d, nc, nq)
        err = ue - uh.values
        l2 = math.sqrt(float(np.sum(wJ * np.einsum("dcq,dcq->cq", err, err))))

        Ge = np.asarray(self.velocity_gradient(phys, t), dtype=float)
        Gerr = np.moveaxis(Ge, 0, -1).reshape(d, d, nc, nq) - uh.gradients
        D = 0.5 * (Gerr + np.swapaxes(Gerr, 0, 1))
        rate = math.sqrt(float(np.sum(wJ * np.einsum("abcq,abcq->cq", D, D))))

        self.times.append(t)
        self.l2.append(l2)
        self.rate.append(rate)

    def report(self):
        return EnergyErrorReport(times=np.asarray(self.times),
                                 l2_errors=np.asarray(self.l2),
                                 rate_errors=np.asarray(self.rate),
                                 dt=self.dt, nu=self.nu)


# ---------------------------------------------------------------------------
# discrete energy balance diagnostics
# ---------------------------------------------------------------------------


@dataclass
class EnergyBalance:
    """The cell terms of a step's energy balance.  With the reaction and
    outflow powers of ``solver.advance``, a backward-Euler step satisfies
    kinetic_rate + dissipation + numerical_dissipation = forcing_power +
    reaction_power + outflow_power to roundoff, at any dt; ``run`` records
    left minus right as ``energy_defect``.  An eddy viscosity dissipates
    more than ``dissipation``, so there the defect is <= 0; later ``bdf2``
    steps have no such identity, and their defect is None."""

    kinetic_rate: float
    dissipation: float
    numerical_dissipation: float
    forcing_power: float

    def as_dict(self):
        return asdict(self)


def energy_balance_terms(state_prev, state, map_, nu, forcing=None,
                         stress="symmetric", norms=(None, None)):
    """The energy-balance terms of the step from ``state_prev`` to
    ``state``.  ``norms`` may carry ||u^{k-1}||_{k-1} and ||u^k||_k where
    the caller has them; a None entry is computed."""
    space = state.u.space
    dt = state.t - state_prev.t
    nkm, nk = norms
    if nk is None:
        nk = k_norm(state.u, map_, state.t)
    if nkm is None:
        nkm = k_norm(state_prev.u, map_, state_prev.t)
    kinetic_rate = (nk ** 2 - nkm ** 2) / (2.0 * dt)

    samples = sampling.map_samples(space, map_)
    uh = samples.field(state.t, state.u)
    data = sampling.cell_data(space)
    wJ = data.weights * samples.cells(state.t).J
    Gh = uh.gradients                                    # (d, d, nc, nq)
    if stress == "symmetric":
        D = 0.5 * (Gh + np.swapaxes(Gh, 0, 1))
        dissipation = 2.0 * nu * float(np.sum(
            wJ * np.einsum("abcq,abcq->cq", D, D)))
    else:
        dissipation = nu * float(np.sum(
            wJ * np.einsum("abcq,abcq->cq", Gh, Gh)))

    # the components of u^k - u^{k-1} at the cell points, (d, nc, nq)
    jump = sampling.point_values(data, sampling.cell_components(
        space, state.u.nodal() - state_prev.u.nodal()))
    numerical = float(np.sum(
        data.weights * samples.jacobian(state_prev.t) *
        np.einsum("acq,acq->cq", jump, jump))) / (2.0 * dt)

    power = 0.0 if forcing is None else float(np.sum(wJ * np.einsum(
        "cqd,dcq->cq", samples.forcing(state.t, forcing), uh.values)))
    return EnergyBalance(kinetic_rate=kinetic_rate, dissipation=dissipation,
                         numerical_dissipation=numerical, forcing_power=power)


# ---------------------------------------------------------------------------
# convergence harness
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceTable:
    rows: list = field(default_factory=list)
    level_diagnostics: list = field(default_factory=list)

    COLUMNS = ("mesh_step_size", "element_count", "time_step", "N",
               "error", "ratio", "observed_order")

    def add_row(self, h, cells, dt, steps, error):
        if not np.isfinite(error) or error <= 0.0:
            raise ValueError(f"invalid error value {error!r} for a table row")
        row = {"mesh_step_size": h, "element_count": cells, "time_step": dt,
               "N": steps, "error": error, "ratio": None,
               "observed_order": None}
        if self.rows:
            prev = self.rows[-1]
            row["ratio"] = prev["error"] / error
            row["observed_order"] = (math.log(row["ratio"]) /
                                     math.log(prev["mesh_step_size"] / h))
        self.rows.append(row)

    def errors(self):
        return [r["error"] for r in self.rows]

    def ratios(self):
        return [r["ratio"] for r in self.rows[1:]]

    def orders(self):
        return [r["observed_order"] for r in self.rows[1:]]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for r in self.rows:
                cells = []
                for c in self.COLUMNS:
                    v = r[c]
                    cells.append("" if v is None else
                                 (f"{v:.10g}" if isinstance(v, float) else str(v)))
                fh.write(",".join(cells) + "\n")

    def __str__(self):
        head = f"{'h':>10} {'cells':>8} {'dt':>10} {'N':>6} " \
               f"{'error':>12} {'ratio':>8} {'order':>7}"
        lines = [head]
        for r in self.rows:
            ratio = "" if r["ratio"] is None else f"{r['ratio']:8.3f}"
            order = "" if r["observed_order"] is None else \
                f"{r['observed_order']:7.2f}"
            lines.append(f"{r['mesh_step_size']:10.4g} {r['element_count']:8d} "
                         f"{r['time_step']:10.4g} {r['N']:6d} "
                         f"{r['error']:12.5g} {ratio:>8} {order:>7}")
        return "\n".join(lines)


def convergence_study(case, levels, *, progress=None):
    """Run ``case`` on its mesh-level sequence and tabulate energy errors.

    The time step scales from the case's base step with the square of the
    nominal mesh ratio, dt = base_dt (h_l / h_1)^2, so the paper's condition
    h^(2 m_u + 2) <= c dt holds on every level: m_u is the velocity's
    polynomial degree (the paper's abstract), 2 here, and h^6 / dt shrinks
    as h^4.
    """
    if levels < 2:
        raise ValueError("a convergence study needs at least 2 levels")
    config = SolverConfig(stress=case.stress)
    table = ConvergenceTable()
    from .meshing import mesh_quality

    for level in range(1, levels + 1):
        mesh = case.mesh_for_level(level)
        ratio = case.nominal_h(level) / case.nominal_h(1)
        steps = int(round(case.T / (case.base_dt * ratio ** 2)))
        dt = case.T / steps
        space = TaylorHoodSpace(mesh)
        problem = FlowProblem(space=space, map=case.map, nu=case.nu,
                              bcs=case.boundary_conditions(),
                              forcing=case.forcing)
        u0 = interpolate(space, "velocity",
                         lambda X: case.velocity(case.map.position(X, 0.0), 0.0))
        p0 = interpolate(space, "pressure",
                         lambda X: case.pressure(case.map.position(X, 0.0), 0.0))
        initial = FlowState(k=0, t=0.0, u=u0, p=p0)
        acc = ErrorAccumulator(space, case.map, case.velocity,
                               case.velocity_gradient, dt, case.nu)
        result = run(initial, problem, config, case.T, dt,
                     callbacks=[acc.update])
        report = acc.report()
        quality = mesh_quality(mesh)
        table.add_row(h=quality.h_max, cells=mesh.n_cells, dt=dt, steps=steps,
                      error=report.combined)
        table.level_diagnostics.append(result.diagnostics)
        if progress is not None:
            progress(level, table)
    return table
