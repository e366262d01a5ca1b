"""Assembly of the moving-domain flow forms into sparse blocks.

All forms live on the fixed reference mesh; the domain motion enters through
pointwise map data F^{-1}, J evaluated at quadrature points.  Per step the
velocity block collects

* the discrete time-derivative mass term (J-weighted at the previous level
  for backward Euler),
* the 0.5 [J]_t zeroth-order term (always the backward time difference of J),
* the convection term ((J F^{-1} w) . grad u, psi),
* the skew-symmetrizing divergence term, assembled by parts so that no
  second derivatives of the map are needed: the volume part is explicitly
  antisymmetric and the boundary integral is kept on outflow facets only,
* the viscous term, either 2 nu J D(u):D(psi) with the pulled-back symmetric
  rate tensor D, or the full-gradient variant nu J (grad u F^{-1}) : (grad
  psi F^{-1}), optionally with a pointwise eddy-viscosity coefficient,

and the pressure coupling B[q, psi] = int J q F^{-T} : grad psi.

The map data come from the per-time-level sample of ``sampling``, which
boundary conditions and diagnostics read too.

Kernels.  Each form is one batched numpy expression over the whole
(cell, quadrature point) stack.  The gradient forms read the level's
pulled-back basis gradients ``ghat`` = grad phi F^{-1} from the sample, and
mass-type terms are ``(w J) @ (phi_i phi_j)``.  The standalone forms and
``assemble_step`` call the same kernels; ``assemble_step`` runs the
gradient kernels over blocks of cells to bound their temporaries.

Scatter.  The blocks have fixed patterns on the reference mesh, built once
per space: the node pairs of the cell blocks, each cell block entry's pair,
and the CSR expansions to velocity components (int32 ``indptr`` and
``indices``) with each entry's slot in the summed data.  A form sums its
local blocks over the node pairs with one ``np.bincount`` and gathers the
sums into the CSR data.  The velocity block holds the d diagonal entries
of each node pair when no term couples the velocity components and full
d x d blocks for the symmetric stress; B holds (1, d) blocks.  Entries
that sum to exactly zero stay in the pattern.  Assembly is single-threaded
with a fixed reduction order, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sampling import cached, cell_data, facet_data, geometry, map_samples
from .spaces import DiscreteField

__all__ = [
    "AssembledStep", "assemble_step", "weighted_mass_matrix", "mass_matrix",
    "rate_mass_matrix", "convection_matrices", "viscous_matrix",
    "divergence_matrix", "forcing_vector", "pressure_gauge_vector",
    "piola_boundary_flux", "boundary_normal_field", "velocity_at_points",
    "cell_quadrature_points", "smagorinsky_viscosity",
]


@dataclass
class AssembledStep:
    """One time step of the discrete system.

    A is the velocity-velocity block, B the pressure-velocity divergence
    block; the saddle system reads  A u - B^T p = rhs_u,  B u = 0.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    rhs_u: np.ndarray
    t: float
    dt: float
    time_coefficient: float     # alpha/dt: u^k's weight in the time derivative

    def triplets(self, block="A"):
        """Canonical COO triplets: duplicates summed, sorted row-major."""
        mat = {"A": self.A, "B": self.B}[block].tocsr()
        mat.sum_duplicates()
        coo = mat.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return coo.row[order], coo.col[order], coo.data[order]


# ---------------------------------------------------------------------------
# sparsity patterns and scatter
# ---------------------------------------------------------------------------


def _sum(index, local, size, width=1):
    """Sum ``local`` into ``size`` slots of ``width`` adjacent entries;
    ``index`` gives the slot of each run of ``width`` local values."""
    if width > 1:
        index = (index.reshape(-1, 1) * width + np.arange(width)).ravel()
    return np.bincount(index.ravel(), weights=local.ravel(),
                       minlength=size * width)


def _frozen(index):
    """An index array as read-only int32; the matrices of a pattern share
    its arrays."""
    index = index.astype(np.int32, copy=False)
    index.flags.writeable = False
    return index


class _CSR:
    """A fixed CSR pattern, with each entry's ``slot`` in the summed data
    (None where the summed data is in CSR order already)."""

    def __init__(self, indptr, indices, slot, shape):
        self.indptr, self.indices = _frozen(indptr), _frozen(indices)
        self.slot = None if slot is None else _frozen(slot)
        self.shape = shape

    def matrix(self, summed):
        data = summed.ravel()
        if self.slot is not None:
            data = data[self.slot]
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


class _Pattern:
    """The sorted (row, column) node pairs of the cell blocks of the
    ``rows`` and ``cols`` node tables, each block entry's pair, and the CSR
    patterns of the pairs expanded to d velocity components."""

    def __init__(self, rows, cols, n_rows, n_cols, d):
        self.n_rows, self.n_cols, self.d = n_rows, n_cols, d
        keys, index = np.unique(
            (rows[:, :, None] * n_cols + cols[:, None, :]).ravel(),
            return_inverse=True)
        self.n_pairs = len(keys)
        self.pair_cols = _frozen(keys % n_cols)
        self.pair_ptr = _frozen(np.searchsorted(keys // n_cols,
                                                np.arange(n_rows + 1)))
        self._index = {1: _frozen(index.ravel())}   # per run width
        self._csr = {}

    def pairs(self, rows, cols):
        """The pair of each (row, col) entry, which must be in the pattern."""
        keys = np.repeat(np.arange(self.n_rows), np.diff(self.pair_ptr)) * \
            self.n_cols + self.pair_cols
        return _frozen(np.searchsorted(keys,
                                       (rows * self.n_cols + cols).ravel()))

    def sum(self, local, width=1):
        """Sums per pair of the cell block entries' runs of ``width``
        adjacent local values, (pairs * width,)."""
        index = self._index.get(width)
        if index is None:
            index = self._index[width] = _frozen((
                self._index[1][:, None] * width +
                np.arange(width, dtype=np.int32)).ravel())
        return np.bincount(index, weights=local.ravel(),
                           minlength=self.n_pairs * width)

    def csr(self, r, diagonal=False):
        """The CSR pattern with an (r, d) block per pair: rows (i, a) for
        a < r, columns (j, b) for b < d.  With ``diagonal`` it holds only
        the b = a entries of (d, d) blocks, whose slot is their pair;
        otherwise an entry's slot is its place in the (pairs, r, d) sums."""
        key = (r, diagonal)
        if key not in self._csr:
            # int32 throughout, in place where it can be: this runs with
            # the first assembly, and its temporaries set the peak memory
            d = self.d
            per = 1 if diagonal else d           # entries of a pair a row
            lengths = np.repeat(np.diff(self.pair_ptr), r) * per
            indptr = _frozen(np.concatenate([[0], np.cumsum(lengths)]))
            row = np.repeat(np.arange(self.n_rows * r, dtype=np.int32),
                            lengths)
            k = np.arange(indptr[-1], dtype=np.int32)
            k -= indptr[row]
            a = row % r
            pair = self.pair_ptr[row // r]
            del row
            pair += k // per
            b = a if diagonal else k % per
            del k
            indices = self.pair_cols[pair] * d + b
            if diagonal:
                slot = pair
            elif r > 1:
                slot = (pair * r + a) * d + b
            else:           # the (pairs, 1, d) sums are in CSR order
                slot = None
            self._csr[key] = _CSR(indptr, indices, slot,
                                  (self.n_rows * r, self.n_cols * d))
        return self._csr[key]


def _patterns(space):
    """The node-pair pattern of the velocity block and the vertex-node
    pattern of the pressure block, built on the first assembly."""
    def build():
        conn, n, d = space.cell_nodes, space.n_nodes, space.dimension
        return (_Pattern(conn, conn, n, n, d),
                _Pattern(space.mesh.cells, conn, space.n_pressure_dofs, n, d))
    return cached(space, "patterns", build)


def _velocity_matrix(space, scalar, coupling=None, boundary=None):
    """Velocity block: ``scalar`` (nc, nb, nb) on every component alike,
    plus the component-coupling blocks (nc, nb, nb, d, d) and the pair data
    ``boundary`` of facet terms.  Without coupling its pattern holds the d
    diagonal entries of each node pair, with it full d x d blocks."""
    pattern, d = _patterns(space)[0], space.dimension
    data = pattern.sum(scalar)
    if boundary is not None:
        data += boundary
    if coupling is None:
        return pattern.csr(d, diagonal=True).matrix(data)
    blocks = pattern.sum(coupling, d * d).reshape(-1, d, d)
    blocks[:, np.arange(d), np.arange(d)] += data[:, None]
    return pattern.csr(d).matrix(blocks)


def _pressure_matrix(space, local):
    """Pressure-velocity CSR from (nc, d+1, nb, d) local blocks."""
    pattern, d = _patterns(space)[1], space.dimension
    return pattern.csr(1).matrix(pattern.sum(local, d))


# ---------------------------------------------------------------------------
# batched kernels over the (cell, quadrature point) stack
# ---------------------------------------------------------------------------


def _mass_local(data, weight):
    """sum_q weight phi_i phi_j per cell, (nc, nb, nb)."""
    nb = data.vals.shape[1]
    return (weight @ data.outer).reshape(-1, nb, nb)


def _convection_local(data, ghat, J, W, wc):
    """C[c, i, j] = sum_q W (z . grad phi_j) phi_i with z = J F^{-1} w,
    where z . grad phi = J (ghat . w)."""
    wq = data.vals @ wc                                  # (nc, nq, d)
    ddir = J[..., None] * (ghat @ wq[..., None])[..., 0]   # (nc, nq, nb)
    return data.vals.T @ (W[..., None] * ddir)


def smagorinsky_viscosity(D, h_T, nu, C_s=0.2):
    """Eddy viscosity nu + (C_s h_T)^2 sqrt(2 D:D) for a symmetric rate
    tensor D (batched over leading axes)."""
    D = np.asarray(D, dtype=float)
    rate = np.sqrt(2.0 * np.einsum("...ab,...ab->...", D, D))
    return nu + (C_s * np.asarray(h_T)) ** 2 * rate


def _eddy_viscosity(ghat, wc, diam, nu, smagorinsky):
    """nu, or the Smagorinsky viscosity of D, the pulled-back rate of the
    lagged field, (nc, nq)."""
    if smagorinsky is None:
        return nu
    cs = float(smagorinsky)
    if cs <= 0:
        raise ValueError("eddy-viscosity constant must be positive")
    Gw = np.swapaxes(wc, 1, 2)[:, None] @ ghat           # (nc, nq, d, d)
    Dw = 0.5 * (Gw + np.swapaxes(Gw, 2, 3))
    return smagorinsky_viscosity(Dw, diam[:, None], nu, cs)


def _viscous_local(ghat, kappa, stress):
    """Viscous blocks with the pointwise coefficient kappa = W J nu: the
    scalar kappa ghat_i . ghat_j, (nc, nb, nb), and for the symmetric form
    the coupling [c, i, j, a, b] = sum_q kappa (ghat_i)_b (ghat_j)_a."""
    if stress not in ("symmetric", "full-gradient"):
        raise ValueError(f"unknown stress form {stress!r}")
    nc, nq, nb, d = ghat.shape
    H = ghat.reshape(nc, nq, nb * d)
    X = ((np.swapaxes(H, 1, 2) * kappa[:, None, :]) @ H).reshape(
        nc, nb, d, nb, d)
    scalar = np.einsum("cieje->cij", X)
    if stress == "full-gradient":
        return scalar, None
    return scalar, X.transpose(0, 1, 3, 4, 2)


def _divergence_local(data, ghat, wj):
    """B[c, p, j, e] = sum_q wj q_p (ghat_j)_e with wj = W J,
    (nc, d+1, nb, d)."""
    nc, nq, nb, d = ghat.shape
    return (data.pvals.T @ (wj[..., None] * ghat.reshape(nc, nq, nb * d))
            ).reshape(nc, -1, nb, d)


def _by_cells(kernel, *arrays, size=256):
    """``kernel`` over blocks of ``size`` cells of the per-cell arrays, its
    outputs joined: bounds the (cell, q, basis, d) temporaries."""
    parts = [kernel(*(a[i:i + size] for a in arrays))
             for i in range(0, len(arrays[0]), size)]
    return [None if p[0] is None else np.concatenate(p) for p in zip(*parts)]


def _temam_boundary(space, map_, t, w):
    """0.5 (z.n) phi_i phi_j over neumann facets as scalar pattern data,
    or None without neumann facets."""
    sel = _neumann_facets(space)
    if sel.size == 0:
        return None
    fd = facet_data(space)
    facets = map_samples(space, map_).facets(t)
    nodes = fd.nodes[sel]
    zn = np.einsum("fqd,fqd->fq", fd.vals @ _nodal(w)[nodes],
                   facets.conormal[sel])
    local = ((0.5 * fd.weights[sel] * zn) @ np.einsum(
        "qi,qj->qij", fd.vals, fd.vals).reshape(len(fd.vals), -1))
    pattern = _patterns(space)[0]
    pairs = cached(space, "outflow_pairs", lambda: pattern.pairs(
        nodes[:, :, None], nodes[:, None, :]))
    return _sum(pairs, local, pattern.n_pairs)


def _neumann_facets(space, patch=None):
    """The neumann facets (of one patch), cached on the space."""
    return cached(space, ("neumann_facets", patch), lambda: np.flatnonzero(
        [lbl.kind == "neumann" and (patch is None or lbl.patch == patch)
         for lbl in space.mesh.boundary_labels]))


# ---------------------------------------------------------------------------
# individual forms (used by tests, diagnostics and the step assembler)
# ---------------------------------------------------------------------------


def weighted_mass_matrix(space, weights):
    """Velocity mass matrix with a per-quadrature-point weight (nc, nq)."""
    data = cell_data(space)
    return _velocity_matrix(space, _mass_local(data, data.weights * weights))


def mass_matrix(space, map_, t):
    """J(t)-weighted velocity mass matrix (the step-norm Gram matrix)."""
    return weighted_mass_matrix(space, map_samples(space, map_).jacobian(t))


def rate_mass_matrix(space, map_, t_k, t_prev, dt):
    """Mass matrix weighted with the backward difference (J_k - J_{k-1})/dt."""
    samples = map_samples(space, map_)
    Jk, Jp = samples.jacobian(t_k), samples.jacobian(t_prev)
    return weighted_mass_matrix(space, (Jk - Jp) / dt)


def convection_matrices(space, map_, t, w):
    """Convection block C and skew-symmetrizing block T for advection w.

    C[(i,a),(j,b)] = delta_ab int (z . grad phi_j) phi_i with z = J F^{-1} w;
    T is the by-parts divergence term -0.5[(z.grad phi_j) phi_i +
    (z.grad phi_i) phi_j] plus the surface term 0.5 (z.n) phi_i phi_j on
    outflow (neumann) facets.
    """
    data = cell_data(space)
    cells = map_samples(space, map_).cells(t)
    C = _convection_local(data, cells.ghat, cells.J, data.weights,
                          _nodal(w)[space.cell_nodes])
    T = -0.5 * (C + np.swapaxes(C, 1, 2))
    return _velocity_matrix(space, C), _velocity_matrix(
        space, T, boundary=_temam_boundary(space, map_, t, w))


def viscous_matrix(space, map_, t, nu, stress="symmetric", *,
                   smagorinsky=None, w=None):
    """Viscous velocity block; see the module docstring for the two forms."""
    data = cell_data(space)
    cells = map_samples(space, map_).cells(t)
    wc = _nodal(DiscreteField(space, "velocity") if w is None else w)[
        space.cell_nodes]
    nuq = _eddy_viscosity(cells.ghat, wc, geometry(space).cell_diam, nu,
                          smagorinsky)
    return _velocity_matrix(space, *_viscous_local(
        cells.ghat, data.weights * cells.J * nuq, stress))


def divergence_matrix(space, map_, t):
    """Pressure-velocity block B[q, (j,c)] = int J q (grad_phys phi_j)_c."""
    data = cell_data(space)
    cells = map_samples(space, map_).cells(t)
    return _pressure_matrix(space, _divergence_local(
        data, cells.ghat, data.weights * cells.J))


def forcing_vector(space, map_, t, forcing):
    """(J f, psi) with f given in physical coordinates: f(xhat, t) -> (n, d)."""
    data = cell_data(space)
    samples = map_samples(space, map_)
    cells = samples.cells(t)
    fvals = samples.forcing(t, forcing)
    local = data.vals.T @ ((data.weights * cells.J)[..., None] * fvals)
    return _sum(space.cell_nodes, local, space.n_nodes, space.dimension)


def pressure_gauge_vector(space, map_, t):
    """e_i = int J q_i, the physical-volume weights of the pressure basis."""
    data = cell_data(space)
    J = map_samples(space, map_).jacobian(t)
    return _sum(space.mesh.cells, (data.weights * J) @ data.pvals,
                space.n_pressure_dofs)


# ---------------------------------------------------------------------------
# boundary flux machinery
# ---------------------------------------------------------------------------


def piola_boundary_flux(space, map_, t, values):
    """Surface integral of the transformed normal flux of a nodal velocity
    field: int_boundary (J F^{-T} n) . v_h ds over all boundary facets."""
    fd = facet_data(space)
    facets = map_samples(space, map_).facets(t)
    vq = fd.vals @ _nodal_values(space, values)[fd.nodes]   # (nbf, nqf, d)
    return float(np.sum(fd.weights *
                        np.einsum("fqd,fqd->fq", facets.conormal, vq)))


def boundary_normal_field(space):
    """Outward unit normal per boundary node, facet normals averaged with
    area weights; zero at interior nodes.  Cached on the space, read-only."""
    def build():
        mesh = space.mesh
        weighted = (mesh.boundary_facet_areas()[:, None] *
                    mesh.boundary_facet_normals())
        nodes = space.facet_nodes
        acc = np.zeros((space.n_nodes, space.dimension))
        # unbuffered, in facet order: each node sums as a facet loop would
        np.add.at(acc, nodes.ravel(), np.repeat(weighted, nodes.shape[1], 0))
        norm = np.linalg.norm(acc, axis=1)
        nz = norm > 0
        acc[nz] /= norm[nz, None]
        acc.flags.writeable = False
        return acc
    return cached(space, "boundary_normal_field", build)


# ---------------------------------------------------------------------------
# nodal fields and their values at the cell quadrature points
# ---------------------------------------------------------------------------


def _nodal(values):
    if isinstance(values, DiscreteField):
        return values.nodal()
    return np.asarray(values, dtype=float)


def _nodal_values(space, values):
    nodal = _nodal(values)
    if nodal.shape != (space.n_nodes, space.dimension):
        raise ValueError(f"expected nodal values of shape "
                         f"{(space.n_nodes, space.dimension)}, got {nodal.shape}")
    return nodal


def cell_quadrature_points(space):
    """Reference coordinates of the cell quadrature points, (nc, nq, d),
    plus the combined weights |det| * w_q, (nc, nq)."""
    data = cell_data(space)
    return data.points, data.weights


def velocity_at_points(space, field):
    """Velocity field values at the cell quadrature points, (nc, nq, d)."""
    return cell_data(space).vals @ _nodal(field)[space.cell_nodes]


# ---------------------------------------------------------------------------
# the step assembler
# ---------------------------------------------------------------------------


def assemble_step(space, map_, t_k, t_prev, dt, w, u_prev, nu,
                  forcing=None, neumann_data=None, *, stress="symmetric",
                  smagorinsky=None, scheme="backward-euler",
                  u_prev2=None, t_prev2=None):
    """Assemble the sparse blocks of one implicit time step.

    ``w`` is the advection field u^{k-1} - I_h(xi_t^k); ``neumann_data`` maps
    patch ids to traction densities g(x_ref, t, n) -> (n, d), assembled as
    int J g . psi over the facets of that patch (g may be None for a
    homogeneous outflow condition).
    """
    if space.dimension != map_.dimension:
        raise ValueError("space and map dimensions differ")
    data = cell_data(space)
    samples = map_samples(space, map_)
    cells = samples.cells(t_k)
    Jk, Jprev = cells.J, samples.jacobian(t_prev)
    if scheme == "bdf2":
        if u_prev2 is None or t_prev2 is None:
            raise ValueError("bdf2 needs the two previous states")
        Jprev2 = samples.jacobian(t_prev2)
        Jdot = (3.0 * Jk - 4.0 * Jprev + Jprev2) / (2.0 * dt)
        Jtime = Jk               # weight of the discrete time derivative
        alpha = 1.5
        combo = (2.0 * _nodal(u_prev) - 0.5 * _nodal(u_prev2)) / dt
    else:
        Jdot = (Jk - Jprev) / dt
        Jtime = Jprev
        alpha = 1.0
        combo = _nodal(u_prev) / dt

    def gradient_terms(ghat, J, W, wc, diam):
        kappa = W * J * _eddy_viscosity(ghat, wc, diam, nu, smagorinsky)
        return (_convection_local(data, ghat, J, W, wc),
                *_viscous_local(ghat, kappa, stress),
                _divergence_local(data, ghat, W * J))
    W = data.weights
    C, visc, coupling, Bloc = _by_cells(
        gradient_terms, cells.ghat, Jk, W, _nodal(w)[space.cell_nodes],
        geometry(space).cell_diam)
    scalar = _mass_local(data, W * (Jtime * (alpha / dt) + 0.5 * Jdot)) + visc
    scalar += 0.5 * (C - np.swapaxes(C, 1, 2))                   # C + T
    A = _velocity_matrix(space, scalar, coupling,
                         _temam_boundary(space, map_, t_k, w))
    B = _pressure_matrix(space, Bloc)

    rhs = _sum(space.cell_nodes, _mass_local(data, W * Jtime) @
               combo[space.cell_nodes], space.n_nodes, space.dimension)
    if forcing is not None:
        rhs += forcing_vector(space, map_, t_k, forcing)
    if neumann_data is not None:
        rhs += _neumann_vector(space, map_, t_k, neumann_data)

    return AssembledStep(A=A, B=B, rhs_u=rhs, t=t_k, dt=dt,
                         time_coefficient=alpha / dt)


def _neumann_vector(space, map_, t, neumann_data):
    """int J g . psi over neumann facets, per-patch traction densities; each
    traction is evaluated once over all quadrature points of its patch."""
    d = space.dimension
    rhs = np.zeros(space.n_velocity_dofs)
    fd = facet_data(space)
    for patch, g in neumann_data.items():
        sel = _neumann_facets(space, patch)
        if sel.size == 0 or g is None:
            continue
        facets = map_samples(space, map_).facets(t)
        nqf = fd.points.shape[1]
        normals = np.repeat(fd.normals[sel], nqf, axis=0)
        gq = np.asarray(g(fd.points[sel].reshape(-1, d), t, normals),
                        dtype=float).reshape(len(sel), nqf, d)
        local = fd.vals.T @ ((fd.weights[sel] * facets.J[sel])[..., None] * gq)
        rhs += _sum(fd.nodes[sel], local, space.n_nodes, d)
    return rhs
