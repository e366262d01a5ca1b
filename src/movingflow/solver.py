"""Time-stepping driver for the moving-domain flow scheme.

Each implicit step assembles the linearized system (the advection field is
the previous velocity minus the interpolated domain velocity), applies the
boundary conditions by symmetric elimination and solves the sparse
saddle-point system, whose pattern is fixed per space, by a float64
flexible GMRES preconditioned with a float32 sparse LU factor, made in a
nested-dissection order of the reference cells.  Later steps with the same
time-derivative coefficient reuse that factor.

Wall data on no-slip boundaries is the interpolated domain velocity; for
mesh-sequence maps it is the backward difference quotient of the stored
nodal positions over the step.  When the mesh has no outflow (neumann)
facets, that data is first corrected along the nodal outward-normal field
so that its discrete flux vanishes exactly; as B^T 1 = 0 on the free
velocity dofs, the continuity row of one pressure dof is then replaced by
p_i = 0 (the pin) and the solution shifted to zero physical mean.
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
from .spaces import DIRICHLET_NODE, NOSLIP_NODE, DiscreteField

__all__ = [
    "FlowState", "FlowProblem", "SolverConfig", "SolverError",
    "NoslipBC", "DirichletBC", "NeumannBC", "BoundaryConditionSet",
    "ConstrainedSystem", "apply_boundary_conditions", "advance", "run",
    "RunResult", "map_velocity_at_nodes",
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
    tolerance: float = 1e-10
    scheme: str = "backward-euler"           # 'backward-euler' | 'bdf2'
    smagorinsky: float = None                # eddy constant C_s, or None
    stress: str = "symmetric"                # 'symmetric' | 'full-gradient'

    def __post_init__(self):
        if self.scheme not in ("backward-euler", "bdf2"):
            raise ValueError(f"unknown time scheme {self.scheme!r}")
        if self.tolerance <= 0:
            raise ValueError("solver tolerance must be positive")
        if self.smagorinsky is not None and self.smagorinsky <= 0:
            raise ValueError("eddy-viscosity constant must be positive")


def map_velocity_at_nodes(space, map_, t, dt):
    """Domain velocity interpolated at the velocity nodes.

    Analytic maps evaluate xi_t exactly; mesh-sequence maps use the backward
    difference quotient of nodal positions over the step (midedge nodes are
    endpoint averages, consistent with the piecewise-linear geometry).
    """
    if isinstance(map_, MeshSequenceMap):
        vert = (map_.node_positions(t) - map_.node_positions(t - dt)) / dt
        edges = space.mesh.edges
        mid = 0.5 * (vert[edges[:, 0]] + vert[edges[:, 1]])
        return np.vstack([vert, mid])
    return sampling.map_samples(space, map_).wall(t)


def _boundary_values(bcs, space, map_, t, dt):
    """Nodal boundary velocity data (zero at unconstrained nodes)."""
    values = np.zeros((space.n_nodes, space.dimension))
    kinds = space.node_kind
    ns_nodes = np.flatnonzero(kinds == NOSLIP_NODE)
    if ns_nodes.size:
        values[ns_nodes] = map_velocity_at_nodes(space, map_, t, dt)[ns_nodes]
    for patch, bc in bcs.dirichlet_patches().items():
        nodes = np.flatnonzero((kinds == DIRICHLET_NODE) &
                               (space.node_patch == patch))
        if nodes.size:
            values[nodes] = np.asarray(
                bc.data(space.velocity_nodes[nodes], t), dtype=float)
    return values


_DISSECTION_LEAF = 32    # most unnumbered nodes of a part left unsplit


def _nested_dissection(space):
    """A fill-reducing order of the saddle dofs: a nested dissection of the
    reference cells (George 1973).

    A set of cells is split at the median rank of the cell centroids along
    the axis, of the d axes, whose two halves share the fewest unnumbered
    nodes.  Those shared nodes are its separator, numbered after both
    halves, which are split again until a part has at most
    ``_DISSECTION_LEAF`` unnumbered nodes (a cell has at most 10, so any
    part with more has two cells to split).  The parts of one depth are
    split together.  Each block lists its nodes' velocity dofs, then the
    pressure dofs of its vertices (a pressure dof couples to the nodes its
    vertex does).  Constrained dofs are isolated unit rows, so where they
    fall does not matter.
    """
    cells, n, d = space.cell_nodes, space.n_nodes, space.dimension
    n_cells = len(cells)
    centroid = space.velocity_nodes[space.mesh.cells].mean(axis=1)
    by_axis = np.argsort(centroid, axis=0, kind="stable").T
    degree = np.bincount(cells.ravel(), minlength=n)
    # an unnumbered node's cells all lie in one part: any of them names it
    owner = np.empty(n, dtype=np.intp)
    owner[cells.ravel()] = np.repeat(np.arange(n_cells), cells.shape[1])
    part = np.zeros(n_cells, dtype=np.intp)  # of each cell still being split
    path = np.zeros(1, dtype=np.int64)    # per part, base 3: 0 left, 1 right
    depth = np.full(n, -1)                # where each node was numbered
    code = np.zeros(n, dtype=np.int64)    # and the path of its part there
    live, level = np.arange(n_cells), 0
    while True:
        free = np.flatnonzero(depth < 0)
        node_part = part[owner[free]]
        leaf = np.bincount(node_part, minlength=len(path)) <= _DISSECTION_LEAF
        done = leaf[node_part]
        depth[free[done]], code[free[done]] = level, path[node_part[done]]
        live = live[~leaf[part[live]]]
        if not live.size:
            break
        free, node_part = free[~done], node_part[~done]
        # per axis: each live cell's side of its part's median rank, and the
        # free nodes with cells on both sides
        size = np.bincount(part[live], minlength=len(path))
        first = np.cumsum(size) - size
        in_live = np.zeros(n_cells, dtype=bool)
        in_live[live] = True
        right = np.zeros((d, n_cells), dtype=bool)
        cut = np.zeros((d, len(free)), dtype=bool)
        for a in range(d):
            s = by_axis[a][in_live[by_axis[a]]]
            s = s[np.argsort(part[s], kind="stable")]
            p = part[s]
            right[a, s] = np.arange(len(s)) - first[p] >= size[p] // 2
            on_left = np.bincount(cells[s[~right[a, s]]].ravel(), minlength=n)
            cut[a] = (on_left[free] > 0) & (on_left[free] < degree[free])
        axis = np.argmin([np.bincount(node_part[c], minlength=len(path))
                          for c in cut], axis=0)
        sep = cut[axis[node_part], np.arange(len(free))]
        depth[free[sep]], code[free[sep]] = level, path[node_part[sep]]
        p = part[live]
        child, part[live] = np.unique(2 * p + right[axis[p], live],
                                      return_inverse=True)
        path = path[child // 2] * 3 + child % 2
        level += 1
    # separators after both halves: pad each path, then a 2, to one length
    key = (code * 3 + 2) * 3 ** (depth.max() - depth)
    return np.argsort(np.concatenate([np.repeat(2 * key, d),
                                      2 * key[:space.n_pressure_dofs] + 1]),
                      kind="stable")


class _SaddleLayout:
    """The CSC pattern of a space's constrained saddle matrix.

    Its entries are A at free rows and columns, every structural entry of B
    and -B^T at free velocity dofs (exact zeros included) and a unit
    diagonal at constrained velocity dofs.  Without outflow facets the
    pressure dof of the vertex with the largest reference patch volume is
    the pin: its continuity row and -B^T column are left out and its
    diagonal is one.  ``gather`` gives, per entry, its position in
    ``[A.data, B.data, -B.data, 1.0]``: a step fills the matrix with it.
    ``order`` is the nested-dissection order its factors use.
    """

    def __init__(self, space, A, B):
        n_p, n_u = B.shape
        self.mask = mask = space.constrained_dof_mask()
        self.pin = None                   # and ``at_pin`` is all False
        if not space.mesh.has_neumann_boundary():
            cells = space.mesh.cells
            volume = np.repeat(sampling.geometry(space).det, cells.shape[1])
            self.pin = int(np.argmax(np.bincount(cells.ravel(), volume, n_p)))
        self.at_pin = at_pin = np.arange(n_p) == self.pin
        # int32 entries listed so that rows ascend within every column: A
        # by rows, then B by rows (n_u + r); each -B^T column and unit is
        # alone in its column.  The COO to CSC conversion is one counting
        # pass over the columns that keeps that order, so nothing is sorted
        free = ~mask
        source = np.arange(A.nnz + B.nnz, dtype=np.int32)
        a_row = np.repeat(np.arange(n_u, dtype=np.int32), np.diff(A.indptr))
        a = free[a_row] & free[A.indices]
        b_row = np.repeat(np.arange(n_p, dtype=np.int32), np.diff(B.indptr))
        b = free[B.indices] & ~at_pin[b_row]
        b_row, b_col = n_u + b_row[b], B.indices[b]
        b_source = source[A.nnz:][b]
        units = np.flatnonzero(np.concatenate([mask, at_pin])).astype(np.int32)
        K = sp.coo_matrix((
            np.concatenate([source[:A.nnz][a], b_source, b_source + B.nnz,
                            np.full(len(units), A.nnz + 2 * B.nnz,
                                    dtype=np.int32)]),
            (np.concatenate([a_row[a], b_row, b_col, units]),
             np.concatenate([A.indices[a], b_col, b_row, units]))),
            shape=(n_u + n_p,) * 2).tocsc()
        self.indptr, self.indices, self.gather = K.indptr, K.indices, K.data
        self.order = _nested_dissection(space)

    def matrix(self, A, B):
        data = np.concatenate([A.data, B.data, -B.data, [1.0]])[self.gather]
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=(len(self.indptr) - 1,) * 2)


@dataclass
class ConstrainedSystem:
    matrix: sp.csc_matrix
    rhs: np.ndarray
    n_u: int
    n_p: int
    bc_values: np.ndarray          # full-length velocity vector of BC data
    mask: np.ndarray               # constrained velocity dofs
    B: sp.csr_matrix               # the step's divergence block
    order: np.ndarray              # fill-reducing order of the saddle dofs
    pin: int = None                # pressure dof set to 0 (gauge case)
    gauge_vector: np.ndarray = None
    time_coefficient: float = None  # alpha/dt of the step

    def split(self, x):
        """Velocity with the boundary values in place and, in the gauge
        case, the pressure shifted to zero physical mean."""
        u = x[:self.n_u].copy()
        p = x[self.n_u:self.n_u + self.n_p].copy()
        u[self.mask] = self.bc_values[self.mask]
        if self.pin is not None:
            p -= (self.gauge_vector @ p) / self.gauge_vector.sum()
        return u, p

    def residual(self, u, p):
        """Relative residual of [[A, -B^T], [B, 0]] (u, p) = rhs without the
        pin, at a split solution (u holds the boundary values)."""
        Au = (self.matrix @ np.concatenate([u, np.zeros(self.n_p)]))[:self.n_u]
        r_u = np.where(self.mask, 0.0, self.rhs[:self.n_u] - Au + self.B.T @ p)
        scale = math.hypot(np.linalg.norm(self.rhs[:self.n_u]),
                           np.linalg.norm(self.B @ self.bc_values))
        return math.hypot(np.linalg.norm(r_u),
                          np.linalg.norm(self.B @ u)) / max(scale, 1e-300)


def apply_boundary_conditions(step, bcs, space, map_, t, dt):
    """Eliminate constrained velocity dofs symmetrically and fix the
    pressure gauge when the boundary has no outflow part.

    Rows and columns of constrained dofs are zeroed with a unit diagonal and
    the boundary values are moved to the right-hand side.  Without outflow
    facets the boundary data is first made exactly flux-compatible by
    subtracting a constant multiple of the nodal outward-normal field, and
    the layout pins one pressure dof.
    """
    values = _boundary_values(bcs, space, map_, t, dt)
    # A and B have fixed patterns on a space; A's has d diagonal entries or,
    # for the symmetric stress, a full d x d block per node pair, and the
    # two differ in size: one layout each, cached on the space
    A, B = step.A, step.B
    layout = sampling.cached(space, ("saddle", A.nnz),
                             lambda: _SaddleLayout(space, A, B))
    e = None
    if layout.pin is not None:
        nfield = assembly.boundary_normal_field(space)
        flux_n = assembly.piola_boundary_flux(space, map_, t, nfield)
        if abs(flux_n) < 1e-12:
            raise SolverError("degenerate boundary normal field")
        flux_v = assembly.piola_boundary_flux(space, map_, t, values)
        values = values - (flux_v / flux_n) * nfield
        e = assembly.pressure_gauge_vector(space, map_, t)

    mask = layout.mask
    ub = np.zeros(space.n_velocity_dofs)
    ub[mask] = values.ravel()[mask]
    rhs_u = step.rhs_u - A @ ub
    rhs_u[mask] = ub[mask]
    h = -(B @ ub)
    h[layout.at_pin] = 0.0
    return ConstrainedSystem(
        matrix=layout.matrix(A, B), rhs=np.concatenate([rhs_u, h]),
        n_u=space.n_velocity_dofs, n_p=space.n_pressure_dofs, bc_values=ub,
        mask=mask, B=B, order=layout.order, pin=layout.pin, gauge_vector=e,
        time_coefficient=step.time_coefficient)


class _SinglePrecisionFactor:
    """SuperLU factor of a float32 copy of a saddle matrix, in the
    fill-reducing ``order`` of its rows and columns.

    ``solve`` takes and returns float64 vectors in the matrix's own order;
    the permutations and the casts to and from float32 happen here and
    nowhere else.  SuperLU keeps the given order (``NATURAL``) and, in
    symmetric mode, prefers diagonal pivots down to 0.01 of the largest
    entry of their column, so the zero pressure diagonal is pivoted on only
    after its block's velocity dofs have filled it.  An entry that float32
    cannot hold, or a non-finite one, raises a SolverError instead of
    becoming inf.
    """

    def __init__(self, K, order):
        if not np.all(np.abs(K.data) <= np.finfo(np.float32).max):
            raise SolverError("the saddle matrix has an entry outside the "
                              "float32 range or a non-finite one")
        self.order = order
        Kp = K.astype(np.float32)[order][:, order].tocsc()
        self.lu = spla.splu(Kp, permc_spec="NATURAL", diag_pivot_thresh=0.01,
                            options={"SymmetricMode": True})

    def solve(self, v):
        x = np.empty_like(v)
        x[self.order] = self.lu.solve(v[self.order].astype(np.float32))
        return x


def _solve_direct(system, tolerance, cache=None):
    """Solve the saddle system by the float64 flexible GMRES of
    ``_solve_with_stale_factor`` with a float32 factor, from the
    extrapolation 2 x^{k-1} - x^{k-2} of the solutions in ``cache``
    (x^{k-1} if it holds one, zero if none).  ``info["solver_event"]`` names
    the factor: ``fresh`` (none yet) and ``refactor`` (the cached one
    stalled or was made for another alpha/dt) factor this step's matrix,
    ``reuse`` keeps the cached one.  ``info["iterations"]`` counts GMRES
    cycles.  Another shape drops the factor and the history; x is None when
    the step's own factor misses ``tolerance``.
    """
    K, b = system.matrix, system.rhs
    cache = {} if cache is None else cache
    if cache.get("shape") != K.shape:
        cache.clear()
    history = cache.get("history", [])
    x0 = 2.0 * history[1] - history[0] if len(history) == 2 else \
        history[-1] if history else None
    target = min(tolerance * 1e-2, 1e-11)
    event, x, cycles = "fresh", None, 0
    if "lu" in cache:
        if cache["coefficient"] == system.time_coefficient:
            x, residuals = _solve_with_stale_factor(K, cache["lu"], b,
                                                    tolerance, target, x0=x0)
            cycles = len(residuals) - 1
        event = "refactor" if x is None else "reuse"
    if x is None:
        cache.pop("lu", None)    # two factors alive at once raise the peak RSS
        cache.update(lu=_SinglePrecisionFactor(K, system.order), shape=K.shape,
                     coefficient=system.time_coefficient)
        x, residuals = _solve_with_stale_factor(K, cache["lu"], b, tolerance,
                                                target, x0=x0)
        cycles += len(residuals) - 1
    if x is not None:
        cache["history"] = [*history[-1:], x]
    return x, {"iterations": cycles, "residual_history": residuals,
               "solver_event": event}


def _solve_with_stale_factor(M, lu, b, tol, target, x0=None, max_krylov=12,
                             cycles=4):
    """Solve M x = b from ``x0`` (or zero) with the factor ``lu`` of an
    earlier step's matrix.

    The matrices differ only by the drift of the map coefficients between
    the steps, so M lu^{-1} is close to the identity and each restarted,
    right-preconditioned GMRES cycle needs few steps.  The preconditioned
    vectors z_j = lu^{-1} v_j are kept, as in flexible GMRES, so a cycle
    makes one LU solve per Krylov vector and updates x with them.  The
    residuals are relative to |b|: the one at ``x0``, which returns x0
    without a solve when it meets ``target``, then one per cycle.  Cycles
    aim for ``target`` (< tol); a stall above ``tol`` returns (None,
    residuals).
    """
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        return np.zeros_like(b), [0.0]
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x, r = x0, b - M @ x0
    residuals = [float(np.linalg.norm(r)) / scale]
    for _ in range(cycles):
        if residuals[-1] <= target:
            return x, residuals
        beta = float(np.linalg.norm(r))
        V = np.empty((max_krylov + 1, len(b)))
        Z = np.empty((max_krylov, len(b)))
        H = np.zeros((max_krylov + 1, max_krylov))
        e1 = np.zeros(max_krylov + 1)
        e1[0] = beta
        V[0] = r / beta
        for j in range(max_krylov):
            Z[j] = lu.solve(V[j])
            w = M @ Z[j]
            for i in range(j + 1):          # modified Gram-Schmidt
                H[i, j] = w @ V[i]
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            # right preconditioning keeps the true residual norm, so the
            # small least-squares residual is a sound early-exit estimate
            y, lsq_res, *_ = np.linalg.lstsq(H[:j + 2, :j + 1], e1[:j + 2],
                                             rcond=None)
            est = math.sqrt(float(lsq_res[0])) if lsq_res.size else 0.0
            if H[j + 1, j] <= 1e-300 or est <= 0.3 * target * scale:
                break
            V[j + 1] = w / H[j + 1, j]
        x = x + Z[:j + 1].T @ y
        r = b - M @ x
        residuals.append(float(np.linalg.norm(r)) / scale)
        if len(residuals) >= 3 and residuals[-1] > 0.5 * residuals[-2]:
            break   # stagnated: accept if already below the tolerance
    return (x, residuals) if residuals[-1] <= tol else (None, residuals)


def advance(state, problem, config, dt, state_prev2=None, linear_cache=None):
    """One implicit step from ``state`` to time ``state.t + dt``.

    ``linear_cache`` (a dict threaded between calls) lets the solve reuse
    its factorization across steps.  A map with J <= 0 at any quadrature
    point of the step, or a solve that misses ``config.tolerance``, raises a
    SolverError with the step index.  ``info["residual"]`` is that of the
    system without the pin; a warning reports it when above the tolerance.
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
            stress=config.stress,
            smagorinsky=config.smagorinsky,
            scheme="bdf2" if bdf2 else "backward-euler",
            u_prev2=state_prev2.u if bdf2 else None,
            t_prev2=state_prev2.t if bdf2 else None)
        system = apply_boundary_conditions(step, problem.bcs, space, map_,
                                           t_k, dt)
    except SingularMappingError as exc:
        raise SolverError(f"map validation failed at step {k} "
                          f"(t={t_k:g}): {exc}", step=k) from exc
    tol = config.tolerance
    try:
        x, info = _solve_direct(system, tol, cache=linear_cache)
    except SolverError as exc:
        raise SolverError(f"step {k}: {exc}", step=k) from exc
    if not info["residual_history"][-1] <= tol:
        raise SolverError(f"{info['solver_event']} solve at step {k} left a "
                          f"residual above {tol:g}",
                          info["residual_history"], step=k)
    ucoef, pcoef = system.split(x)
    # read-only, so the level's evaluations of the state cannot go stale
    ucoef.flags.writeable = pcoef.flags.writeable = False
    info = dict(info, residual=system.residual(ucoef, pcoef))
    if not info["residual"] <= tol:
        log.warning("step %d: the residual %.3g without the pin exceeds "
                    "%g: the gauge does not hold exactly (B^T 1 != 0 on "
                    "the free velocity dofs)", k, info["residual"], tol)

    new = FlowState(k=k, t=t_k,
                    u=DiscreteField(space, "velocity", ucoef),
                    p=DiscreteField(space, "pressure", pcoef))
    info["divergence_residual"] = float(np.linalg.norm(step.B @ ucoef))
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
    norm_k = None      # ||u^{k-1}||_{k-1}, carried into the energy terms
    try:
        for _ in range(N):
            state_prev, norm_prev = state, norm_k
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
                "solver_event": info["solver_event"],
            }
            log.debug("step %d: %s solve", state.k, info["solver_event"])
            if record_energy:
                record.update(energy_balance_terms(
                    state_prev, state, problem.map, problem.nu,
                    problem.forcing, stress=config.stress,
                    norms=(norm_prev, norm_k)).as_dict())
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
