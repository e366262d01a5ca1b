"""Time-stepping driver for the moving-domain flow scheme.

Each implicit step assembles the linearized system (the advection field is
the previous velocity minus the interpolated domain velocity), moves the
boundary data into the right-hand side and solves the sparse saddle-point
system of the step's unknowns, whose pattern is fixed per space, by a
float64 flexible GMRES preconditioned with a float32 sparse LU factor, made
with the pressure unknowns scaled by a power of two so that it pivots on its
diagonal.  The unknowns are numbered once per space, in a nested-dissection
order of the reference cells, so the matrix, the Krylov vectors and the
factor share one order and the factor needs no permutation.  The same
layout marks, once per space, the pressure unknowns and the matrix entries
of B and -B^T, which the scaling reads.  A ``SaddleSolver`` keeps that
factor for later steps with the same time-derivative coefficient.

Wall data on no-slip boundaries is the map's own xi_t at the velocity
nodes (for a mesh-sequence map, the P1 interpolant of the frame-interval
slope).  When the mesh has no outflow (neumann) facets, that data is first
corrected along the nodal outward-normal field so that its discrete flux
vanishes exactly; as B^T 1 = 0 on the free velocity dofs, one pressure dof
(the pin) is then held at zero, its continuity row left out, and the
solution shifted to zero physical mean.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly, sampling
from .maps import DEFAULT_THRESHOLDS, SingularMappingError
from .spaces import DIRICHLET_NODE, NOSLIP_NODE, DiscreteField

__all__ = [
    "FlowState", "FlowProblem", "SolverConfig", "SolverError",
    "NoslipBC", "DirichletBC", "NeumannBC", "BoundaryConditionSet",
    "ConstrainedSystem", "apply_boundary_conditions", "advance",
    "time_steps", "run",
    "RunResult", "SaddleSolver",
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
    """Natural outflow condition: ``traction(X_ref, t, m) -> (n, d)`` at
    reference facet points, with m = F^{-T} n the pulled-back normal of the
    reference normal n there, integrated as int J g . psi over the reference
    facets; or None for the homogeneous (do-nothing) condition.  A physical
    stress sigma gives g = sigma m, since J m dS_ref = n_phys dS_phys."""

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
        labels = set(mesh.boundary_labels)
        missing = sorted(str(l) for l in labels - set(self.entries))
        if missing:
            raise ValueError(f"no boundary condition for labels {missing}")
        stray = sorted(str(l) for l in set(self.entries) - labels)
        if stray:
            raise ValueError(f"labels {stray} have a condition but no facet")

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
        if self.stress not in ("symmetric", "full-gradient"):
            raise ValueError(f"unknown stress form {self.stress!r}")
        if not self.tolerance > 0:
            raise ValueError("solver tolerance must be positive")
        if self.smagorinsky is not None and not self.smagorinsky > 0:
            raise ValueError("eddy-viscosity constant must be positive")


def _boundary_values(bcs, space, map_, t):
    """Nodal boundary velocity data (zero at unconstrained nodes)."""
    values = np.zeros((space.n_nodes, space.dimension))
    kinds = space.node_kind
    ns_nodes = np.flatnonzero(kinds == NOSLIP_NODE)
    if ns_nodes.size:
        values[ns_nodes] = sampling.map_samples(space, map_).wall(t)[ns_nodes]
    for patch, bc in bcs.dirichlet_patches().items():
        nodes = np.flatnonzero((kinds == DIRICHLET_NODE) &
                               (space.node_patch == patch))
        if nodes.size:
            values[nodes] = np.asarray(
                bc.data(space.velocity_nodes[nodes], t), dtype=float)
    return values


# most unnumbered nodes of a part left unsplit, per dimension, from the
# first-step fill with the pressure scaled (see _SinglePrecisionFactor).
# 2D: leaves of 4-8 nodes fill within 0.2% of each other and 5-10% below
# leaves of 10-16 on manufactured L2-L4 and the 32 x 32 and 64 x 64 boxes,
# and 8 splits the least; L3 and L4 fill 23% and 19% less than at 32.
# 3D: the tube's fill moves by 1% from 16 to 64 nodes, and at 8 its factor
# pivots off the diagonal for every pressure scale.
_DISSECTION_LEAF = {2: 8, 3: 32}


def _nested_dissection(space):
    """A fill-reducing order of all velocity and pressure dofs: a nested
    dissection of the reference cells (George 1973).

    A set of cells is split at the median rank of the cell centroids along
    the axis, of the d axes, whose two halves share the fewest unnumbered
    nodes.  Those shared nodes are its separator, numbered after both
    halves, which are split again until a part has at most
    ``_DISSECTION_LEAF[d]`` unnumbered nodes, 8 in 2D and 32 in 3D (a cell
    has 6 nodes in 2D and 10 in 3D, so any part with more has two cells to
    split).  The parts of one depth are split together.  Each block lists
    its nodes' velocity dofs, then the pressure dofs of its vertices (a
    pressure dof couples to the nodes its vertex does).  ``_SaddleLayout``
    restricts it to the unknowns and numbers them in it.
    """
    cells, n, d = space.cell_nodes, space.n_nodes, space.dimension
    n_cells, most = len(cells), _DISSECTION_LEAF[d]
    centroid = space.velocity_nodes[space.mesh.cells].mean(axis=1)
    by_axis = np.argsort(centroid, axis=0, kind="stable").T
    degree = np.bincount(cells.ravel(), minlength=n)
    # an unnumbered node's cells all lie in one part: any of them names it
    owner = sampling.node_cells(space)
    part = np.zeros(n_cells, dtype=np.intp)  # of each cell still being split
    path = np.zeros(1, dtype=np.int64)    # per part, base 3: 0 left, 1 right
    depth = np.full(n, -1)                # where each node was numbered
    code = np.zeros(n, dtype=np.int64)    # and the path of its part there
    live, level = np.arange(n_cells), 0
    while True:
        free = np.flatnonzero(depth < 0)
        node_part = part[owner[free]]
        leaf = np.bincount(node_part, minlength=len(path)) <= most
        done = leaf[node_part]
        depth[free[done]], code[free[done]] = level, path[node_part[done]]
        live = live[~leaf[part[live]]]
        if not live.size:
            break
        free, node_part = free[~done], node_part[~done]
        # per axis: each live cell's side of its part's median rank, and the
        # free nodes with cells on both sides
        size = np.bincount(part[live], minlength=len(path))
        # each part's cells on one axis, in order: the first right one
        split = np.cumsum(size) - size + size // 2
        in_live = np.zeros(n_cells, dtype=bool)
        in_live[live] = True
        right = np.zeros((d, n_cells), dtype=bool)
        cut = np.zeros((d, len(free)), dtype=bool)
        cells_of_free = degree[free]
        for a in range(d):
            s = by_axis[a][in_live[by_axis[a]]]
            s = s[np.argsort(part[s], kind="stable")]
            on_right = np.arange(len(s)) >= split[part[s]]
            right[a, s] = on_right
            on_left = np.bincount(cells[s[~on_right]].ravel(), minlength=n)
            on_left = on_left[free]
            cut[a] = (on_left > 0) & (on_left < cells_of_free)
        axis = np.argmin([np.bincount(node_part[c], minlength=len(path))
                          for c in cut], axis=0)
        sep = cut[axis[node_part], np.arange(len(free))]
        depth[free[sep]], code[free[sep]] = level, path[node_part[sep]]
        p = part[live]
        side = 2 * p + right[axis[p], live]
        child = np.zeros(2 * len(path), dtype=bool)
        child[side] = True
        part[live] = (np.cumsum(child) - 1)[side]    # children in order
        child = np.flatnonzero(child)
        path = path[child // 2] * 3 + child % 2
        level += 1
    # separators after both halves: pad each path, then a 2, to one length
    key = (code * 3 + 2) * 3 ** (depth.max() - depth)
    return np.argsort(np.concatenate([np.repeat(2 * key, d),
                                      2 * key[:space.n_pressure_dofs] + 1]),
                      kind="stable")


class _SaddleLayout:
    """The CSC pattern of a space's saddle matrix over the unknowns of a
    step: the free velocity dofs and the pressure dofs but the pin, in the
    nested-dissection order that the factor uses.

    Without outflow facets the pressure dof of the vertex with the largest
    reference patch volume is the pin, held at zero.  ``unknowns`` gives
    the positions of the unknowns, in that order, in the vector of all
    velocity and pressure dofs, ``pressure`` marks the pressure unknowns
    among them and ``free`` gives the positions of the free velocity dofs.
    The entries are A at free rows and columns and every structural entry
    of B and -B^T at the unknowns (exact zeros included), rows ascending in
    every column as SuperLU sorts them.  ``gather`` gives, per entry, its
    position in ``[A.data, B.data, -B.data]``: a step fills the matrix with
    it.  ``in_b`` marks the entries of B and -B^T.

    The pattern comes from the rows of A, B and -B^T, whose node-pair
    patterns are built on the first assembly, by counting passes with no
    comparison sort (Davis 2006): their columns are numbered as K's, the
    rows of the unknowns are taken in the dissection order, and one
    transpose lists every column's rows in that order.
    """

    def __init__(self, space, A, B):
        n_p, n_u = B.shape
        self.pin = None
        if not space.mesh.has_neumann_boundary():
            cells = space.mesh.cells
            volume = np.repeat(sampling.geometry(space).det, cells.shape[1])
            self.pin = int(np.argmax(np.bincount(cells.ravel(), volume, n_p)))
        unknown = np.concatenate([~space.constrained_dof_mask(),
                                  np.arange(n_p) != self.pin])
        order = _nested_dissection(space)
        self.unknowns = order[unknown[order]]
        self.pressure = self.unknowns >= n_u
        self.free = np.flatnonzero(unknown[:n_u])
        n = len(self.unknowns)
        index = np.full(n_u + n_p, n, dtype=np.int32)   # n: no unknown
        index[self.unknowns] = np.arange(n, dtype=np.int32)
        # rows holding positions in [A.data, B.data, -B.data], columns
        # numbered as K's: A's rows, B's rows, -B^T's rows (B transposed)
        # and an empty row
        at = np.arange(A.nnz + B.nnz, dtype=np.intp)  # a step gathers by it
        bt = sp.csr_matrix((at[A.nnz:] + B.nnz, B.indices, B.indptr),
                           shape=(n_p, n_u)).tocsc()
        rows = sp.csr_matrix((
            np.concatenate([at, bt.data]),
            index[np.concatenate([A.indices, B.indices, bt.indices + n_u],
                                 dtype=np.intp)],
            np.concatenate([A.indptr, A.nnz + B.indptr[1:],
                            A.nnz + B.nnz + bt.indptr[1:],
                            [A.nnz + 2 * B.nnz]])),
            shape=(2 * n_u + n_p + 1, n + 1))
        # unknown k takes rows 2 k, its A or B row, and 2 k + 1, its -B^T
        # row or the empty one; the transpose lists them in that order in
        # every column, and column n collects the entries of no unknown
        take = np.empty((n, 2), np.intp)
        take[:, 0] = self.unknowns
        take[:, 1] = np.where(self.pressure, 2 * n_u + n_p,
                              self.unknowns + n_u + n_p)
        K = rows[take.ravel()].tocsc()
        K.indices >>= 1
        self.indptr = K.indptr[:-1]
        self.indices = K.indices[:self.indptr[-1]]
        self.gather = K.data[:self.indptr[-1]]
        self.in_b = self.gather >= A.nnz

    def matrix(self, A, B):
        data = np.concatenate([A.data, B.data, -B.data])[self.gather]
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=(len(self.indptr) - 1,) * 2)


@dataclass
class ConstrainedSystem:
    """A step's saddle system over the unknowns of its ``layout``, with the
    boundary data moved into ``rhs``.  ``rhs_norm`` is the norm of the
    right-hand side of the system of every dof, whose rows at the
    constrained velocity dofs and the pin hold the boundary values and
    zero: the solve's residuals are relative to it."""

    step: assembly.AssembledStep
    layout: _SaddleLayout
    matrix: sp.csc_matrix
    rhs: np.ndarray
    rhs_norm: float
    bc_values: np.ndarray          # full-length velocity vector of BC data
    bc_divergence: np.ndarray      # B @ bc_values
    gauge_vector: np.ndarray = None

    def split(self, x):
        """Velocity and pressure with x at the unknowns, the boundary
        values and a zero pin beside them and, in the gauge case, the
        pressure shifted to zero physical mean."""
        full = np.concatenate([self.bc_values, np.zeros(self.step.B.shape[0])])
        full[self.layout.unknowns] = x
        u, p = np.split(full, [len(self.bc_values)])
        if self.layout.pin is not None:
            p -= (self.gauge_vector @ p) / self.gauge_vector.sum()
        return u, p

    def residual(self, p, Au, Bu):
        """Relative residual of [[A, -B^T], [B, 0]] (u, p) = (rhs_u, 0) at
        the free velocity dofs and every pressure dof, the pin's included,
        at a split solution (u holds the boundary values), from the
        products Au = A u and Bu = B u that its step makes anyway."""
        f = self.rhs[~self.layout.pressure]    # free velocity rows
        r_u = (self.step.rhs_u - Au + self.step.B.T @ p)[self.layout.free]
        scale = math.hypot(np.linalg.norm(f), np.linalg.norm(self.bc_values),
                           np.linalg.norm(self.bc_divergence))
        return math.hypot(np.linalg.norm(r_u),
                          np.linalg.norm(Bu)) / max(scale, 1e-300)


def apply_boundary_conditions(step, bcs, space, map_, t):
    """The step's system over its unknowns, with the boundary data moved
    into the right-hand side, and the pressure gauge fixed when the
    boundary has no outflow part.

    The columns of the constrained velocity dofs times their boundary
    values leave the right-hand side.  Without outflow facets the boundary
    data is first made exactly flux-compatible by subtracting a constant
    multiple of the nodal outward-normal field, and the layout pins one
    pressure dof.
    """
    values = _boundary_values(bcs, space, map_, t)
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

    ub = values.ravel().copy()
    ub[layout.free] = 0.0
    Bub = B @ ub
    rhs = np.concatenate([step.rhs_u - A @ ub, -Bub])[layout.unknowns]
    return ConstrainedSystem(
        step=step, layout=layout, matrix=layout.matrix(A, B), rhs=rhs,
        rhs_norm=math.hypot(np.linalg.norm(rhs), np.linalg.norm(ub)),
        bc_values=ub, bc_divergence=Bub, gauge_vector=e)


class _SinglePrecisionFactor:
    """SuperLU factor of a float32 copy of a step's saddle matrix, whose
    unknowns its layout numbers in a fill-reducing order, with the pressure
    unknowns scaled by a power of two.

    ``solve`` takes and returns float64 vectors; the casts to and from
    float32 happen here and nowhere else.  SuperLU keeps the given order
    (``NATURAL``) and, in symmetric mode, prefers diagonal pivots down to
    0.01 of the largest entry of their column, so the zero pressure
    diagonal is pivoted on only after its block's velocity dofs have filled
    it.  With the pressure unknowns scaled by s, a filled pressure diagonal
    (about s^2 |B|^2 / |A|) sits beside entries s |B| in its column, and a
    velocity diagonal |A| beside entries s |B| in the pressure rows, so
    both pivot on the diagonal only for s in a window around |A| / |B|.
    Unscaled, fine 2D meshes, whose B is small against A, fall below it:
    SuperLU pivots off the diagonal and the fill doubles (manufactured
    level 4: 868 such pivots, 1.46e7 entries).  So D K D is factored, D
    being 1 at the velocity unknowns and s at the pressure unknowns (as the
    layout marks them), and ``solve`` returns D (D K D)^{-1} D v.  s is the
    power of two nearest max|A| / (4 max|B|) over the unknowns, the
    maxima taken over the entries the layout marks as A's and as B's: the
    measured windows run from about 1/100 to 5-80 times max|A| / max|B|
    (2D and 3D; viscosities 1/100 to 100 times and time steps 1/64 to 16
    times the built-in cases').  A power of two is exact in floating
    point: where K itself factors on its diagonal, the solve is bitwise
    that of K's factor.  An entry that float32 cannot hold, or a
    non-finite one, raises a SolverError instead of becoming inf.  The
    scaling's temporaries end before SuperLU's work arrays grow.
    """

    def __init__(self, system):
        K, in_b = system.matrix, system.layout.in_b
        size = np.abs(K.data)
        if not np.all(size <= np.finfo(np.float32).max):
            raise SolverError("the saddle matrix has an entry outside the "
                              "float32 range or a non-finite one")
        # the power of two nearest max|A| / (4 max|B|), in logarithms as the
        # quotient can overflow
        s = np.exp2(np.rint(np.log2(np.where(in_b, 0.0, size).max()) -
                            np.log2(np.where(in_b, size, 0.0).max()) - 2.0))
        del size
        # s is a power of two, so the scaled copy is exact
        data = K.data.astype(np.float32)
        np.multiply(data, np.float32(s), out=data, where=in_b)
        self.scale = np.where(system.layout.pressure, s, 1.0)
        self.lu = spla.splu(sp.csc_matrix((data, K.indices, K.indptr),
                                          shape=K.shape),
                            permc_spec="NATURAL", diag_pivot_thresh=0.01,
                            options={"SymmetricMode": True})

    def solve(self, v):
        scale = self.scale
        return self.lu.solve((scale * v).astype(np.float32)) * scale


_KRYLOV = 12    # Krylov vectors, so LU solves, in one FGMRES cycle at most
_CYCLES = 4     # FGMRES cycles in one run at most


class SaddleSolver:
    """The solve of every step: a float64 flexible GMRES (Saad 1993) on the
    step's saddle matrix, preconditioned by a factor of an earlier step's.

    It keeps the ``preconditioner`` (a float32 factor; anything with
    ``solve(v)``), the ``coefficient`` alpha/dt it was made for and the last
    two solutions (``history``), dropped for a system of another shape, and
    counts the preconditioner's applications in ``lu_solves``.  A solve
    starts from 2 x^{k-1} - x^{k-2} (x^{k-1}, or zero) and aims for
    ``min(1e-2 tolerance, 1e-11)`` relative to the system's ``rhs_norm``.
    ``fresh`` (none kept) and ``refactor`` (kept for another alpha/dt, or
    stalled) factor the step's matrix; a refactor after a stall goes on
    from the stalled run's last iterate when its residual is the lower.
    ``reuse`` keeps the factor, and its coefficient when the start already
    meets the target, so that no LU solve is made.
    """

    def __init__(self):
        self.shape = self.preconditioner = self.coefficient = None
        self.history, self.lu_solves = [], 0

    def solve(self, system, tolerance):
        """x to ``tolerance`` (None when the step's own factor misses it) and
        the ``solver_event``, GMRES cycles of both runs (``iterations``),
        the last run's ``residual_history`` and the ``lu_solves`` made."""
        K, b, scale = system.matrix, system.rhs, system.rhs_norm
        coefficient = system.step.time_coefficient
        if K.shape != self.shape:
            self.preconditioner, self.history = None, []
        h = self.history
        if h and scale:
            x = 2.0 * h[1] - h[0] if len(h) == 2 else h[-1]
            r = b - K @ x
        else:
            x, r = np.zeros_like(b), b.copy()
        start = (scale, x, r,
                 float(np.linalg.norm(r)) / scale if scale else 0.0)
        target, solves = min(tolerance * 1e-2, 1e-11), self.lu_solves
        residuals, event, iterations = [start[3]], "reuse", 0
        if self.preconditioner is None:
            x, event = None, "fresh"
        elif not residuals[0] <= target:
            x = None
            if self.coefficient == coefficient:
                y, r, residuals = self._fgmres(K, b, *start, target)
                iterations = len(residuals) - 1
                if residuals[-1] <= tolerance:
                    x = y
                elif residuals[-1] < start[3]:  # the refactor goes on from y
                    start = (scale, y, r, residuals[-1])
            event = "refactor" if x is None else "reuse"
        if x is None:
            self.preconditioner = None  # two factors alive raise the peak RSS
            self.preconditioner = _SinglePrecisionFactor(system)
            self.coefficient, self.shape = coefficient, K.shape
            x, _, residuals = self._fgmres(K, b, *start, target)
            iterations += len(residuals) - 1
            if not residuals[-1] <= tolerance:
                x = None
        self.history = [*h[-1:], x] if x is not None else h
        return x, {"iterations": iterations, "residual_history": residuals,
                   "solver_event": event, "lu_solves": self.lu_solves - solves}

    def _fgmres(self, M, b, scale, x, r, relative, target):
        """M x = b from x, with residual r (``relative`` to ``scale``): one
        LU solve per Krylov vector, whose preconditioned vectors are kept as
        in flexible GMRES.  M drifts little from the factored matrix, so the
        right-preconditioned cycles are short.  Cycles aim for ``target``
        and stop when one gains less than half; the last iterate, its
        residual vector and the residuals, ``relative`` and then one per
        cycle, are returned."""
        residuals = [relative]
        for _ in range(_CYCLES):
            if residuals[-1] <= target:
                return x, r, residuals
            V, Z = np.empty((_KRYLOV + 1, len(b))), np.empty((_KRYLOV, len(b)))
            H, e1 = np.zeros((_KRYLOV + 1, _KRYLOV)), np.zeros(_KRYLOV + 1)
            e1[0] = beta = float(np.linalg.norm(r))
            V[0] = r / beta
            for j in range(_KRYLOV):
                Z[j] = self.preconditioner.solve(V[j])
                self.lu_solves += 1
                w = M @ Z[j]
                for i in range(j + 1):          # modified Gram-Schmidt
                    H[i, j] = w @ V[i]
                    w -= H[i, j] * V[i]
                H[j + 1, j] = np.linalg.norm(w)
                # right preconditioning keeps the true residual norm, so the
                # small least-squares residual is a sound early-exit estimate
                y, lsq_res, *_ = np.linalg.lstsq(H[:j + 2, :j + 1],
                                                 e1[:j + 2], rcond=None)
                est = math.sqrt(float(lsq_res[0])) if lsq_res.size else 0.0
                if H[j + 1, j] <= 1e-300 or est <= 0.3 * target * scale:
                    break
                V[j + 1] = w / H[j + 1, j]
            x = x + Z[:j + 1].T @ y
            r = b - M @ x
            residuals.append(float(np.linalg.norm(r)) / scale)
            if len(residuals) >= 3 and residuals[-1] > 0.5 * residuals[-2]:
                break   # stagnated
        return x, r, residuals


def advance(state, problem, config, dt, state_prev2=None, saddle_solver=None):
    """One implicit step from ``state`` to time ``state.t + dt``.

    ``saddle_solver``, a ``SaddleSolver`` passed between steps, keeps the
    factor and the solution history; a fresh one is made when none is given.
    A starting velocity that is not finite, a map with J <= 0 or a
    non-finite F^{-1} at any quadrature point of the step, non-finite wall
    data, traction load, forcing load or Dirichlet data, or a solve that
    misses ``config.tolerance``, raises a SolverError with the step index.
    ``info`` is the solve's, with the ``residual`` of the system without the
    pin (a warning reports it above the tolerance), the divergence residual
    and the step's reaction and outflow powers.
    """
    space, map_ = problem.space, problem.map
    t_k = float(state.t + dt)
    k = state.k + 1
    bdf2 = config.scheme == "bdf2" and state_prev2 is not None
    try:
        # first: the state enters A, rhs_u and the advection field
        if not np.isfinite(state.u.coefficients).all():
            raise SolverError("the starting velocity is not finite")
        wall = sampling.map_samples(space, map_).wall(t_k)
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
                                           t_k)
        # the wall first: it enters A and the no-slip values too
        for part, values in (("wall data", wall),
                             ("traction load", step.neumann),
                             ("forcing load", step.rhs_u),
                             ("Dirichlet data", system.bc_values)):
            if values is not None and not np.isfinite(values).all():
                raise SolverError(f"the {part} is not finite")
    except SingularMappingError as exc:
        raise SolverError(f"map validation failed at step {k} "
                          f"(t={t_k:g}): {exc}", step=k) from exc
    except SolverError as exc:
        raise SolverError(f"step {k}: {exc}", step=k) from exc
    tol = config.tolerance
    try:
        x, info = (saddle_solver or SaddleSolver()).solve(system, tol)
    except SolverError as exc:
        raise SolverError(f"step {k}: {exc}", step=k) from exc
    if not info["residual_history"][-1] <= tol:
        raise SolverError(f"{info['solver_event']} solve at step {k} left a "
                          f"residual above {tol:g}",
                          info["residual_history"], step=k)
    ucoef, pcoef = system.split(x)
    # read-only, so the level's evaluations of the state cannot go stale
    ucoef.flags.writeable = pcoef.flags.writeable = False
    Au, Bu = step.A @ ucoef, step.B @ ucoef
    info = dict(info, residual=system.residual(pcoef, Au, Bu))
    if not info["residual"] <= tol:
        log.warning("step %d: the residual %.3g without the pin exceeds "
                    "%g: the gauge does not hold exactly (B^T 1 != 0 on "
                    "the free velocity dofs)", k, info["residual"], tol)

    new = FlowState(k=k, t=t_k,
                    u=DiscreteField(space, "velocity", ucoef),
                    p=DiscreteField(space, "pressure", pcoef))
    info["divergence_residual"] = float(np.linalg.norm(Bu))
    # u . (A u - B^T p - rhs_u), with u . B^T p as p . B u
    info["reaction_power"] = float(ucoef @ (Au - step.rhs_u) - pcoef @ Bu)
    info["outflow_power"] = assembly.outflow_power(space, step, new.u.nodal())
    return new, info


@dataclass
class RunResult:
    final: FlowState
    diagnostics: list


def time_steps(initial, problem, T, dt):
    """The number of steps of dt from ``initial.t`` to T.

    Raises ValueError when dt does not divide the span at least once, or
    when the map cannot be evaluated at T (a mesh-sequence map whose frames
    end before it): the map is evaluated once there, at one velocity node,
    so a run fails before its first step.
    """
    span = float(T - initial.t)
    if dt <= 0:
        raise ValueError("dt must be positive")
    N = int(round(span / dt))
    if abs(N * dt - span) > 1e-9 * max(abs(T), 1.0):
        raise ValueError(f"dt={dt} does not divide the time span {span}")
    if N < 1:
        raise ValueError(f"the time span {span} holds no step of dt={dt}")
    space = problem.space
    problem.map.velocity(space.velocity_nodes[:1], float(T),
                         cells=sampling.node_cells(space)[:1])
    return N


def run(initial, problem, config, T, dt, callbacks=()):
    """March the scheme from ``initial`` to time T in steps of dt.

    dt must divide T - t0 within roundoff, at least once, and the map must
    hold at T (see ``time_steps``).  Callbacks are invoked after each
    accepted step with (state, record); failures abort with the step index.
    One ``SaddleSolver`` serves every step.  What the run cached on the
    space (tables, map samples, sparsity patterns) is released when it
    returns.
    """
    N = time_steps(initial, problem, T, dt)

    from .analysis import energy_balance_terms, k_norm

    diagnostics = []
    state, prev, saddle = initial, None, SaddleSolver()
    norm_k = None      # ||u^{k-1}||_{k-1}, carried into the energy terms
    try:
        for _ in range(N):
            state_prev, norm_prev = state, norm_k
            state, info = advance(state, problem, config, dt,
                                  state_prev2=prev, saddle_solver=saddle)
            prev = state_prev if config.scheme == "bdf2" else None

            norm_k = k_norm(state.u, problem.map, state.t)
            # J at the level's cell points, kept by the step's own sample
            min_J = float(sampling.map_samples(
                problem.space, problem.map).jacobian(state.t).min())
            if min_J < DEFAULT_THRESHOLDS[0]:
                log.warning("step %d: min J %.3g at the cell points is below "
                            "%g", state.k, min_J, DEFAULT_THRESHOLDS[0])
            record = {
                "step": state.k, "time": state.t,
                "velocity_norm_k": norm_k,
                "kinetic_energy": 0.5 * norm_k ** 2,
                "divergence_residual": info["divergence_residual"],
                "min_J": min_J,
                "linear_iterations": info["iterations"],
                "lu_solves": info["lu_solves"],
                "linear_residual": info["residual"],
                "solver_event": info["solver_event"],
                **energy_balance_terms(
                    state_prev, state, problem.map, problem.nu,
                    problem.forcing, stress=config.stress,
                    norms=(norm_prev, norm_k)).as_dict(),
                "reaction_power": info["reaction_power"],
                "outflow_power": info["outflow_power"],
            }
            if config.scheme == "bdf2" and diagnostics:   # bdf2: no identity
                record.update(numerical_dissipation=None, energy_defect=None)
            else:             # the identity of analysis.EnergyBalance
                record["energy_defect"] = (
                    record["kinetic_rate"] + record["dissipation"] +
                    record["numerical_dissipation"] - record["forcing_power"]
                    - record["reaction_power"] - record["outflow_power"])
            log.debug("step %d: %s solve", state.k, info["solver_event"])
            diagnostics.append(record)
            for cb in callbacks:
                try:
                    cb(state, record)
                except Exception as exc:
                    raise CallbackError(state.k, exc) from exc
    finally:
        # the caches hang on the space, which callers keep alive
        sampling.release(problem.space)
    return RunResult(final=state, diagnostics=diagnostics)
