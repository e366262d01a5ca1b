"""Step-weighted norms, error measures and the convergence-study harness.

The step norm ||v||_k is the J-weighted L2 norm over the reference domain at
time t_k.  The trajectory error is reported in the combined energy measure

    max_k ||e^k||_k  +  sqrt( sum_k dt ||D_k(e^k)||_k^2 )

together with the variant that carries the 2*nu factor inside the
dissipation sum, where D_k is the pulled-back symmetric velocity-gradient
rate and e^k compares the discrete solution against the exact solution
composed with the map at quadrature points (not against its interpolant).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .solver import (FlowProblem, FlowState, SolverConfig, run)
from .spaces import DiscreteField, TaylorHoodSpace, interpolate

__all__ = [
    "k_norm", "EnergyErrorReport", "ErrorAccumulator", "EnergyBalance",
    "energy_balance_terms", "ConvergenceTable", "convergence_study",
]

log = logging.getLogger(__name__)


def k_norm(field, map_, t, space=None):
    """J-weighted L2 norm at time t of a DiscreteField or of a callable
    fn(X_ref) -> values (callables need an explicit space)."""
    if isinstance(field, DiscreteField):
        space = field.space
        if field.component == "velocity":
            vals = sampling.map_samples(space, map_).field(t, field).values
        else:
            pv = field.coefficients[space.mesh.cells]
            vals = (pv @ sampling.cell_data(space).pvals.T)[..., None]
    elif space is None:
        raise ValueError("k_norm of a callable needs the space argument")
    else:
        pts = sampling.cell_data(space).points
        vals = np.asarray(field(pts.reshape(-1, space.dimension)), dtype=float)
        vals = vals.reshape(pts.shape[0], pts.shape[1], -1)
    wts = sampling.cell_data(space).weights
    J = sampling.map_samples(space, map_).jacobian(t)
    sq = np.einsum("cqd,cqd->cq", vals, vals)
    return float(np.sqrt(np.sum(wts * J * sq)))


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

    @property
    def combined_with_viscosity(self):
        """sqrt(max_k ||e||_k^2 + 2 nu sum dt ||D_k e||_k^2)."""
        return float(np.sqrt(self.max_l2 ** 2 +
                             2.0 * self.nu * self.dt *
                             np.sum(self.rate_errors ** 2)))


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
        ue = np.asarray(self.velocity(phys, t), dtype=float).reshape(nc, nq, d)
        err = ue - uh.values
        l2 = math.sqrt(float(np.sum(wJ * np.einsum("cqd,cqd->cq", err, err))))

        Ge = np.asarray(self.velocity_gradient(phys, t),
                        dtype=float).reshape(nc, nq, d, d)
        Gerr = Ge - uh.gradients
        D = 0.5 * (Gerr + np.swapaxes(Gerr, 2, 3))
        rate = math.sqrt(float(np.sum(wJ * np.einsum("cqab,cqab->cq", D, D))))

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
    """Discretized terms of the energy balance: kinetic-energy rate, viscous
    dissipation, boundary work of the discrete stress against the domain
    velocity, and forcing power.  These are diagnostics; the implicit scheme
    satisfies inequality-type bounds, not the exact balance."""

    kinetic_rate: float
    dissipation: float
    boundary_work: float
    forcing_power: float

    def as_dict(self):
        return {"kinetic_rate": self.kinetic_rate,
                "dissipation": self.dissipation,
                "boundary_work": self.boundary_work,
                "forcing_power": self.forcing_power}


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
    wJ = sampling.cell_data(space).weights * samples.cells(state.t).J
    Gh = uh.gradients
    if stress == "symmetric":
        D = 0.5 * (Gh + np.swapaxes(Gh, 2, 3))
        dissipation = 2.0 * nu * float(np.sum(
            wJ * np.einsum("cqab,cqab->cq", D, D)))
    else:
        dissipation = nu * float(np.sum(
            wJ * np.einsum("cqab,cqab->cq", Gh, Gh)))

    if forcing is not None:
        fv = samples.forcing(state.t, forcing)
        power = float(np.sum(wJ * np.einsum("cqd,cqd->cq", fv, uh.values)))
    else:
        power = 0.0

    work = _boundary_work(space, map_, state, nu, stress)
    return EnergyBalance(kinetic_rate=kinetic_rate, dissipation=dissipation,
                         boundary_work=work, forcing_power=power)


def _boundary_work(space, map_, state, nu, stress):
    """int_boundary (J sigma F^{-T} n) . xi_t ds with the discrete stress."""
    facets = sampling.map_samples(space, map_).facets(state.t)
    if np.max(np.abs(facets.xi_t)) == 0.0:
        return 0.0
    d = space.dimension
    fd = sampling.facet_data(space)

    # the discrete velocity gradient and pressure from the cell side
    ucell = state.u.nodal()[space.cell_nodes[fd.cells]]     # (nbf, nb, d)
    pcell = state.p.coefficients[space.mesh.cells[fd.cells]]  # (nbf, d+1)
    G = np.swapaxes(ucell, 1, 2)[:, None] @ fd.cell_grads   # du_a/dx_m
    Ghat = G @ facets.Finv
    ph = np.einsum("fqp,fp->fq", fd.cell_pvals, pcell)
    if stress == "symmetric":
        visc = nu * (Ghat + np.swapaxes(Ghat, 2, 3))
    else:
        visc = nu * Ghat
    sigma = visc - ph[..., None, None] * np.eye(d)
    traction = (sigma @ facets.conormal[..., None])[..., 0]
    return float(np.sum(fd.weights *
                        np.einsum("fqa,fqa->fq", traction, facets.xi_t)))


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
    h^4 <= c dt for the quadratic velocity holds on every level.
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
                     callbacks=[acc.update], record_energy=False)
        report = acc.report()
        quality = mesh_quality(mesh)
        table.add_row(h=quality.h_max, cells=mesh.n_cells, dt=dt, steps=steps,
                      error=report.combined)
        table.level_diagnostics.append(result.diagnostics)
        if progress is not None:
            progress(level, table)
    return table
