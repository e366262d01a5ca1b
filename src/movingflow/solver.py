"""Time-stepping driver for the moving-domain flow scheme.

Each implicit step assembles the linearized system (the advection field is
the previous velocity minus the interpolated domain velocity), applies the
boundary conditions by symmetric elimination, fixes the pressure gauge when
no outflow boundary exists, and solves the sparse saddle-point system with a
direct factorization plus one step of iterative refinement (default) or a
preconditioned Krylov method.

Wall data on no-slip boundaries is the interpolated domain velocity; for
mesh-sequence maps it is the backward difference quotient of the stored
nodal positions over the step.  When the mesh has no outflow (neumann)
facets, the interpolated boundary data is first corrected along the nodal
outward-normal field so that its discrete flux vanishes exactly, and the
pressure is pinned to zero physical mean through a bordered row/column.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly, sampling
from .maps import MeshSequenceMap, SingularMappingError
from .spaces import DiscreteField

__all__ = [
    "FlowState", "FlowProblem", "SolverConfig", "SolverError",
    "NoslipBC", "DirichletBC", "NeumannBC", "BoundaryConditionSet",
    "ConstrainedSystem", "apply_boundary_conditions", "advance", "run",
    "RunResult", "smagorinsky_viscosity", "map_velocity_at_nodes",
]

log = logging.getLogger(__name__)


class SolverError(RuntimeError):
    def __init__(self, message, residuals=None, step=None):
        super().__init__(message)
        self.residuals = list(residuals or [])
        self.step = step


class CallbackError(RuntimeError):
    def __init__(self, step, cause):
        super().__init__(f"callback failed at step {step}: {cause}")
        self.step = step


@dataclass
class FlowState:
    k: int
    t: float
    u: DiscreteField
    p: DiscreteField


@dataclass
class NoslipBC:
    """Velocity equals the domain wall velocity (moving no-slip)."""


@dataclass
class DirichletBC:
    """Prescribed velocity; ``data(X_ref, t) -> (n, d)``."""

    data: object


@dataclass
class NeumannBC:
    """Natural outflow condition; ``traction(X_ref, t, normals) -> (n, d)``
    integrated as int J g . psi, or None for the homogeneous (do-nothing)
    condition."""

    traction: object = None


_BC_KINDS = {"noslip": NoslipBC, "dirichlet": DirichletBC, "neumann": NeumannBC}


class BoundaryConditionSet:
    """Maps every boundary label of the mesh to a condition."""

    def __init__(self, entries):
        self.entries = dict(entries)
        for label, bc in self.entries.items():
            expected = _BC_KINDS[label.kind]
            if not isinstance(bc, expected):
                raise ValueError(f"label {label} needs a {expected.__name__}")

    def validate(self, mesh):
        missing = [str(l) for l in set(mesh.boundary_labels) - set(self.entries)]
        if missing:
            raise ValueError(f"no boundary condition for labels {sorted(missing)}")

    def dirichlet_patches(self):
        return {label.patch: bc for label, bc in self.entries.items()
                if label.kind == "dirichlet"}

    def neumann_tractions(self):
        return {label.patch: bc.traction for label, bc in self.entries.items()
                if label.kind == "neumann"}


@dataclass
class FlowProblem:
    space: object
    map: object
    nu: float
    bcs: BoundaryConditionSet
    forcing: object = None

    def __post_init__(self):
        self.bcs.validate(self.space.mesh)


@dataclass
class SolverConfig:
    linear_solver: str = "direct"            # 'direct' | 'iterative'
    tolerance: float = None
    scheme: str = "backward-euler"           # 'backward-euler' | 'bdf2'
    smagorinsky: float = None                # eddy constant C_s, or None
    stress: str = "symmetric"                # 'symmetric' | 'full-gradient'
    temam: bool = True
    quadrature_degree: int = None

    def __post_init__(self):
        if self.linear_solver not in ("direct", "iterative"):
            raise ValueError(f"unknown linear solver {self.linear_solver!r}")
        if self.scheme not in ("backward-euler", "bdf2"):
            raise ValueError(f"unknown time scheme {self.scheme!r}")
        if self.tolerance is None:
            self.tolerance = 1e-10 if self.linear_solver == "direct" else 1e-8
        if self.tolerance <= 0:
            raise ValueError("solver tolerance must be positive")
        if self.smagorinsky is not None and self.smagorinsky <= 0:
            raise ValueError("eddy-viscosity constant must be positive")


def smagorinsky_viscosity(D, h_T, nu, C_s=0.2):
    """Eddy viscosity nu + (C_s h_T)^2 sqrt(2 D:D) for a symmetric rate
    tensor D (batched over leading axes)."""
    D = np.asarray(D, dtype=float)
    rate = np.sqrt(2.0 * np.einsum("...ab,...ab->...", D, D))
    return nu + (C_s * np.asarray(h_T)) ** 2 * rate


def map_velocity_at_nodes(space, map_, t, dt=None):
    """Domain velocity interpolated at the velocity nodes.

    Analytic maps evaluate xi_t exactly; mesh-sequence maps use the backward
    difference quotient of nodal positions over the step (midedge nodes are
    endpoint averages, consistent with the piecewise-linear geometry).
    """
    if isinstance(map_, MeshSequenceMap):
        if dt is None:
            vert = map_.node_velocities(t)
        else:
            vert = (map_.node_positions(t) - map_.node_positions(t - dt)) / dt
        edges = space.mesh.edges
        mid = 0.5 * (vert[edges[:, 0]] + vert[edges[:, 1]])
        return np.vstack([vert, mid])
    return sampling.map_samples(space, map_).wall(t)


def _boundary_values(bcs, space, map_, t, dt):
    """Nodal boundary velocity data (zero at unconstrained nodes)."""
    from .spaces import DIRICHLET_NODE, NOSLIP_NODE

    values = np.zeros((space.n_nodes, space.dimension))
    kinds = space.node_kind
    ns_nodes = np.flatnonzero(kinds == NOSLIP_NODE)
    if ns_nodes.size:
        wall = map_velocity_at_nodes(space, map_, t, dt)
        values[ns_nodes] = wall[ns_nodes]
    patches = bcs.dirichlet_patches()
    for patch, bc in patches.items():
        nodes = np.flatnonzero((kinds == DIRICHLET_NODE) &
                               (space.node_patch == patch))
        if nodes.size:
            values[nodes] = np.asarray(
                bc.data(space.velocity_nodes[nodes], t), dtype=float)
    return values


@dataclass
class ConstrainedSystem:
    matrix: sp.csc_matrix
    rhs: np.ndarray
    n_u: int
    n_p: int
    gauge: bool
    bc_values: np.ndarray          # full-length velocity vector of BC data
    mask: np.ndarray               # constrained velocity dofs
    A: sp.csr_matrix               # eliminated velocity block (for checks)
    pinned: sp.csc_matrix = None   # sparse factorization core for the gauge

    def split(self, x):
        u = x[:self.n_u].copy()
        p = x[self.n_u:self.n_u + self.n_p].copy()
        u[self.mask] = self.bc_values[self.mask]
        return u, p


def apply_boundary_conditions(step, bcs, space, map_, t, dt=None):
    """Eliminate constrained velocity dofs symmetrically and append the
    pressure gauge when the boundary has no outflow part.

    Rows and columns of constrained dofs are zeroed with a unit diagonal and
    the boundary values are moved to the right-hand side.  Without outflow
    facets the boundary data is first made exactly flux-compatible by
    subtracting a constant multiple of the nodal outward-normal field.
    """
    values = _boundary_values(bcs, space, map_, t, dt)
    gauge = not space.mesh.has_neumann_boundary()
    if gauge:
        nfield = assembly.boundary_normal_field(space)
        flux_n = assembly.piola_boundary_flux(space, map_, t, nfield)
        if abs(flux_n) < 1e-12:
            raise SolverError("degenerate boundary normal field")
        flux_v = assembly.piola_boundary_flux(space, map_, t, values)
        values = values - (flux_v / flux_n) * nfield

    mask = space.constrained_dof_mask()
    ub = np.zeros(space.n_velocity_dofs)
    ub[mask] = values.ravel()[mask]

    keep = sp.diags((~mask).astype(float), format="csr")
    pin = sp.diags(mask.astype(float), format="csr")
    A = keep @ step.A @ keep + pin
    rhs_u = step.rhs_u - step.A @ ub
    rhs_u[mask] = ub[mask]
    B = step.B @ keep
    h = step.constraint_rhs - step.B @ ub

    if gauge:
        e = assembly.pressure_gauge_vector(space, map_, t)
        ecol = sp.csr_matrix(e[:, None])
        K = sp.bmat([[A, -B.T, None],
                     [B, None, ecol],
                     [None, ecol.T, None]], format="csc")
        rhs = np.concatenate([rhs_u, h, [0.0]])
        # sparse core for the factorization: same matrix with the dense
        # gauge row/column replaced by pinning one pressure dof; the full
        # bordered system is then solved exactly through a short Krylov
        # recurrence (the difference has rank <= 4)
        ip = int(np.argmax(e))
        Bp = B.tolil()
        Bp[ip, :] = 0.0
        Bp = Bp.tocsr()
        dp = sp.coo_matrix(([1.0], ([ip], [ip])),
                           shape=(space.n_pressure_dofs, space.n_pressure_dofs))
        pinned = sp.bmat([[A, -Bp.T, None],
                          [Bp, dp, None],
                          [None, None, sp.eye(1)]], format="csc")
        return ConstrainedSystem(matrix=K, rhs=rhs,
                                 n_u=space.n_velocity_dofs,
                                 n_p=space.n_pressure_dofs, gauge=gauge,
                                 bc_values=ub, mask=mask, A=A.tocsr(),
                                 pinned=pinned)
    K = sp.bmat([[A, -B.T], [B, None]], format="csc")
    rhs = np.concatenate([rhs_u, h])
    return ConstrainedSystem(matrix=K, rhs=rhs, n_u=space.n_velocity_dofs,
                             n_p=space.n_pressure_dofs, gauge=gauge,
                             bc_values=ub, mask=mask, A=A.tocsr())


def _finish_direct(system, x, lu, tolerance, extra_iters=0):
    scale = max(float(np.linalg.norm(system.rhs)), 1e-300)
    residuals = [float(np.linalg.norm(system.rhs - system.matrix @ x)) / scale]
    x = x + lu.solve(system.rhs - system.matrix @ x)
    residuals.append(float(np.linalg.norm(system.rhs - system.matrix @ x)) / scale)
    if not np.isfinite(residuals[-1]) or residuals[-1] > tolerance:
        raise SolverError(
            f"direct solve did not reach tolerance {tolerance:g} "
            f"(residuals {residuals})", residuals)
    return x, {"iterations": len(residuals) + extra_iters,
               "residual": residuals[-1], "residual_history": residuals}


def _factor_core(system):
    """Factor the sparse core: the pinned matrix in the gauge case (the
    dense gauge row/column would blow up the factorization fill), otherwise
    the constrained saddle matrix itself."""
    return spla.splu(system.pinned if system.pinned is not None
                     else system.matrix)


def _solve_direct(system, tolerance, cache=None):
    """Direct solve with factorization reuse.

    The factored core serves as an exact-or-nearby preconditioner for the
    current system: exact when the core is this step's matrix (then one
    refinement step suffices), perturbed by the gauge border (low rank) or
    by the slow drift of the map coefficients when a cached factor from an
    earlier step is reused.  A short restarted Krylov recurrence controls
    the true residual in every case; on stagnation the core is refactored.
    """
    target = min(tolerance * 1e-2, 1e-11)
    fresh = False
    lu = cache.get("lu") if cache is not None else None
    if lu is None or cache.get("shape") != system.matrix.shape:
        lu = _factor_core(system)
        fresh = True
        if cache is not None:
            cache["lu"] = lu
            cache["shape"] = system.matrix.shape
    if fresh and system.pinned is None:
        return _finish_direct(system, lu.solve(system.rhs), lu, tolerance)
    x, residuals = _solve_low_rank_perturbed(system.matrix, lu, system.rhs,
                                             tolerance, target=target)
    if x is None and not fresh:
        lu = _factor_core(system)
        if cache is not None:
            cache["lu"] = lu
            cache["shape"] = system.matrix.shape
        if system.pinned is None:
            return _finish_direct(system, lu.solve(system.rhs), lu, tolerance)
        x, residuals = _solve_low_rank_perturbed(system.matrix, lu,
                                                 system.rhs, tolerance,
                                                 target=target)
    if x is None:   # pathological case: factor the bordered matrix itself
        log.warning("gauge recurrence stalled; factoring the bordered matrix")
        lu = spla.splu(system.matrix)
        if cache is not None:
            cache.clear()
        return _finish_direct(system, lu.solve(system.rhs), lu, tolerance)
    return x, {"iterations": len(residuals), "residual": residuals[-1],
               "residual_history": residuals}


def _solve_low_rank_perturbed(M, core_lu, b, tol, target=None, max_krylov=12,
                              cycles=4):
    """Solve M x = b where core_lu factors M up to a low-rank difference.

    Right-preconditioned GMRES cycles; with an exact core factor the
    preconditioned operator is identity plus low rank, so each cycle
    terminates within rank+1 steps up to roundoff, and restarting on the
    residual equation reaches the attainable floor.  Cycles aim for
    ``target`` (< tol); the result is accepted once below ``tol``.
    """
    target = tol if target is None else target
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        return np.zeros_like(b), [0.0]
    x = np.zeros_like(b)
    r = b.copy()
    residuals = []
    for _ in range(cycles):
        beta = float(np.linalg.norm(r))
        V = np.empty((max_krylov + 1, len(b)))
        H = np.zeros((max_krylov + 1, max_krylov))
        V[0] = r / beta
        j_used = 0
        for j in range(max_krylov):
            w = M @ core_lu.solve(V[j])
            for i in range(j + 1):          # modified Gram-Schmidt
                H[i, j] = w @ V[i]
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            j_used = j + 1
            if H[j + 1, j] <= 1e-300:
                break
            V[j + 1] = w / H[j + 1, j]
            # right preconditioning keeps the true residual norm, so the
            # small least-squares residual is a sound early-exit estimate
            e1 = np.zeros(j_used + 1)
            e1[0] = beta
            _, lsq_res, *_ = np.linalg.lstsq(H[:j_used + 1, :j_used], e1,
                                             rcond=None)
            est = math.sqrt(float(lsq_res[0])) if lsq_res.size else 0.0
            if est <= 0.3 * target * scale:
                break
        e1 = np.zeros(j_used + 1)
        e1[0] = beta
        y, *_ = np.linalg.lstsq(H[:j_used + 1, :j_used], e1, rcond=None)
        x = x + core_lu.solve(V[:j_used].T @ y)
        r = b - M @ x
        residuals.append(float(np.linalg.norm(r)) / scale)
        if residuals[-1] <= target:
            return x, residuals
        if len(residuals) >= 2 and residuals[-1] > 0.5 * residuals[-2]:
            break   # stagnated: accept if already below the tolerance
    return (x, residuals) if residuals[-1] <= tol else (None, residuals)


def _solve_iterative(system, space, map_, t, nu, tolerance):
    """GMRES with a block upper-triangular preconditioner: exact velocity
    factor and the nu-scaled pressure mass as the Schur approximation."""
    n_u, n_p = system.n_u, system.n_p
    n = system.matrix.shape[0]
    Alu = spla.splu(system.matrix[:n_u, :n_u].tocsc())
    mp = assembly.pressure_gauge_vector(space, map_, t)   # lumped J-mass
    sdiag = np.maximum(mp, 1e-300) / max(nu, 1e-300)
    BT = system.matrix[:n_u, n_u:n_u + n_p]

    def precondition(r):
        out = np.empty_like(r)
        p = -r[n_u:n_u + n_p] / sdiag
        out[n_u:n_u + n_p] = p
        out[:n_u] = Alu.solve(r[:n_u] - BT @ p)
        if n > n_u + n_p:
            out[n_u + n_p:] = r[n_u + n_p:]
        return out

    M = spla.LinearOperator((n, n), matvec=precondition)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    options = dict(M=M, restart=200, maxiter=50, callback=count,
                   callback_type="pr_norm")
    try:
        x, info = spla.gmres(system.matrix, system.rhs, rtol=tolerance,
                             **options)
    except TypeError:   # older scipy uses tol=
        x, info = spla.gmres(system.matrix, system.rhs, tol=tolerance,
                             **options)
    scale = max(float(np.linalg.norm(system.rhs)), 1e-300)
    res = float(np.linalg.norm(system.rhs - system.matrix @ x)) / scale
    if info != 0 or not np.isfinite(res) or res > 10 * tolerance:
        raise SolverError(f"krylov solve failed (info={info}, residual={res:g})",
                          [res])
    return x, {"iterations": iterations, "residual": res,
               "residual_history": [res]}


def advance(state, problem, config, dt, state_prev2=None, linear_cache=None):
    """One implicit step from ``state`` to time ``state.t + dt``.

    ``linear_cache`` (a dict threaded between calls) lets the direct solver
    reuse its factorization across steps; the Krylov correction keeps the
    solution at the configured tolerance regardless.  A map with J <= 0 at
    any quadrature point of the step raises a SolverError with the step
    index.
    """
    space, map_ = problem.space, problem.map
    t_k = float(state.t + dt)
    k = state.k + 1
    bdf2 = config.scheme == "bdf2" and state_prev2 is not None
    try:
        wall = map_velocity_at_nodes(space, map_, t_k, dt)
        w = DiscreteField(space, "velocity",
                          (state.u.nodal() - wall).ravel())
        step = assembly.assemble_step(
            space, map_, t_k, state.t, dt, w, state.u, problem.nu,
            forcing=problem.forcing,
            neumann_data=problem.bcs.neumann_tractions(),
            stress=config.stress, temam=config.temam,
            smagorinsky=config.smagorinsky,
            quadrature_degree=config.quadrature_degree,
            scheme="bdf2" if bdf2 else "backward-euler",
            u_prev2=state_prev2.u if bdf2 else None,
            t_prev2=state_prev2.t if bdf2 else None)
        system = apply_boundary_conditions(step, problem.bcs, space, map_,
                                           t_k, dt)
    except SingularMappingError as exc:
        raise SolverError(f"map validation failed at step {k} "
                          f"(t={t_k:g}): {exc}", step=k) from exc
    if config.linear_solver == "direct":
        x, info = _solve_direct(system, config.tolerance, cache=linear_cache)
    else:
        x, info = _solve_iterative(system, space, map_, t_k, problem.nu,
                                   config.tolerance)
    ucoef, pcoef = system.split(x)

    new = FlowState(k=k, t=t_k,
                    u=DiscreteField(space, "velocity", ucoef),
                    p=DiscreteField(space, "pressure", pcoef))
    div_res = float(np.linalg.norm(step.B @ ucoef - step.constraint_rhs))
    info = dict(info)
    info["divergence_residual"] = div_res
    return new, info


@dataclass
class RunResult:
    final: FlowState
    diagnostics: list
    states: list = None


def run(initial, problem, config, T, dt, callbacks=(), store_states=False,
        record_energy=True):
    """March the scheme from ``initial`` to time T in steps of dt.

    dt must divide T - t0 within roundoff.  Callbacks are invoked after each
    accepted step with (state, record); failures abort with the step index.
    What the run cached on the space (tables, map samples, sparsity
    patterns) is released when it returns.
    """
    span = float(T - initial.t)
    if dt <= 0:
        raise ValueError("dt must be positive")
    N = int(round(span / dt))
    if abs(N * dt - span) > 1e-9 * max(abs(T), 1.0):
        raise ValueError(f"dt={dt} does not divide the time span {span}")

    from .analysis import energy_balance_terms, k_norm

    diagnostics = []
    states = [initial] if store_states else None
    state, prev = initial, None
    cache = {}
    try:
        for _ in range(N):
            state_prev = state
            state, info = advance(state, problem, config, dt,
                                  state_prev2=prev, linear_cache=cache)
            prev = state_prev if config.scheme == "bdf2" else None

            norm_k = k_norm(state.u, problem.map, state.t)
            record = {
                "step": state.k, "time": state.t,
                "velocity_norm_k": norm_k,
                "kinetic_energy": 0.5 * norm_k ** 2,
                "divergence_residual": info["divergence_residual"],
                "linear_iterations": info["iterations"],
                "linear_residual": info["residual"],
            }
            if record_energy:
                record.update(energy_balance_terms(
                    state_prev, state, problem.map, problem.nu,
                    problem.forcing, stress=config.stress).as_dict())
            diagnostics.append(record)
            if store_states:
                states.append(state)
            for cb in callbacks:
                try:
                    cb(state, record)
                except Exception as exc:
                    raise CallbackError(state.k, exc) from exc
    finally:
        # the caches hang on the space, which callers keep alive
        sampling.release(problem.space)
    return RunResult(final=state, diagnostics=diagnostics, states=states)
