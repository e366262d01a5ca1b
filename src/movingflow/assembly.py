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
(cell, quadrature point) stack: basis gradients are pulled back as
``(lgrads @ inv) @ F^{-1}`` with the cell's inverse edge matrix ``inv``, and
mass-type terms are ``(w J) @ (phi_i phi_j)``.  The standalone forms and
``assemble_step`` call the same kernels; ``assemble_step`` runs the
gradient kernels over blocks of cells to bound their temporaries.

Scatter.  Local blocks are summed with ``np.bincount`` into a scalar
node-by-node CSR pattern, built with its cell-to-entry index on the first
assembly.  The velocity block is made of d x d blocks over that pattern,
converted to CSR without the entries that sum to exactly zero (the
off-diagonal ones when no term couples velocity components).  Assembly is
single-threaded with a fixed reduction order, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elements import default_degree
from .sampling import cached, cell_data, facet_data, geometry, map_samples
from .spaces import DiscreteField

__all__ = [
    "AssembledStep", "assemble_step", "weighted_mass_matrix", "mass_matrix",
    "rate_mass_matrix", "convection_matrices", "viscous_matrix",
    "divergence_matrix", "forcing_vector", "pressure_gauge_vector",
    "piola_boundary_flux", "boundary_area", "boundary_flux_correction",
    "boundary_normal_field", "velocity_at_points", "velocity_gradients",
    "cell_quadrature_points",
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


class _Pattern:
    """Sorted (row, column) keys of a CSR pattern over the cell blocks of
    the ``rows`` and ``cols`` node tables, with each block entry's slot."""

    def __init__(self, rows, cols, n_rows, n_cols):
        self.n_rows, self.n_cols = n_rows, n_cols
        self.keys, self.index = np.unique(
            (rows[:, :, None] * n_cols + cols[:, None, :]).ravel(),
            return_inverse=True)
        self.indices = self.keys % n_cols
        self.indptr = np.searchsorted(self.keys // n_cols,
                                      np.arange(n_rows + 1))

    def sum(self, local, width=1):
        return _sum(self.index, local, len(self.keys), width)

    def csr(self, blocks):
        """The CSR matrix with (nnz, r, c) blocks on the pattern's entries."""
        r, c = blocks.shape[1:]
        return sp.bsr_matrix((blocks, self.indices, self.indptr), shape=(
            self.n_rows * r, self.n_cols * c)).tocsr()


def _patterns(space):
    """The node-by-node pattern of the velocity block and the vertex-by-node
    pattern of the pressure block, built on the first assembly."""
    def build():
        conn, n = space.cell_nodes, space.n_nodes
        return (_Pattern(conn, conn, n, n),
                _Pattern(space.mesh.cells, conn, space.n_pressure_dofs, n))
    return cached(space, "patterns", build)


def _velocity_matrix(space, scalar, coupling=None, boundary=None):
    """Velocity block: ``scalar`` (nc, nb, nb) on every component alike,
    plus the component-coupling blocks (nc, nb, nb, d, d) and the scalar
    pattern data ``boundary`` of facet terms.  Entries that sum to exactly
    zero are left out."""
    pattern, d = _patterns(space)[0], space.dimension
    data = pattern.sum(scalar)
    if boundary is not None:
        data += boundary
    blocks = np.zeros((len(data), d, d)) if coupling is None else \
        pattern.sum(coupling, d * d).reshape(-1, d, d)
    blocks[:, np.arange(d), np.arange(d)] += data[:, None]
    A = pattern.csr(blocks)
    A.eliminate_zeros()
    return A


def _pressure_matrix(space, local):
    """Pressure-velocity CSR from (nc, d+1, nb, d) local blocks."""
    pattern, d = _patterns(space)[1], space.dimension
    return pattern.csr(pattern.sum(local, d).reshape(-1, 1, d))


# ---------------------------------------------------------------------------
# batched kernels over the (cell, quadrature point) stack
# ---------------------------------------------------------------------------


def _mass_local(data, weight):
    """sum_q weight phi_i phi_j per cell, (nc, nb, nb)."""
    nb = data.vals.shape[1]
    return (weight @ data.outer).reshape(-1, nb, nb)


def _ghat(data, inv, Finv):
    """Pulled-back basis gradients grad phi F^{-1}, (nc, nq, nb, d).  This
    order of the products keeps the exact zeros of the coupling blocks, and
    so the sparsity of A, that the order lgrads @ (inv F^{-1}) turns into
    roundoff."""
    return (data.lgrads @ inv[:, None]) @ Finv


def _convection_local(data, ghat, J, W, wc):
    """C[c, i, j] = sum_q W (z . grad phi_j) phi_i with z = J F^{-1} w,
    where z . grad phi = J (ghat . w)."""
    wq = data.vals @ wc                                  # (nc, nq, d)
    ddir = J[..., None] * (ghat @ wq[..., None])[..., 0]   # (nc, nq, nb)
    return data.vals.T @ (W[..., None] * ddir)


def _eddy_viscosity(ghat, wc, diam, nu, smagorinsky):
    """nu, or nu + (C_s h)^2 sqrt(2 D:D) with D the pulled-back rate of
    the lagged field, (nc, nq)."""
    if smagorinsky is None:
        return nu
    cs = float(smagorinsky)
    if cs <= 0:
        raise ValueError("eddy-viscosity constant must be positive")
    Gw = np.swapaxes(wc, 1, 2)[:, None] @ ghat           # (nc, nq, d, d)
    Dw = 0.5 * (Gw + np.swapaxes(Gw, 2, 3))
    rate = np.sqrt(2.0 * np.einsum("cqab,cqab->cq", Dw, Dw))
    return nu + (cs * diam[:, None]) ** 2 * rate


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


def _temam_boundary(space, map_, t, w, degree):
    """0.5 (z.n) phi_i phi_j over neumann facets as scalar pattern data,
    or None without neumann facets."""
    sel = _neumann_facets(space)
    if sel.size == 0:
        return None
    fd = facet_data(space, degree + 2)
    facets = map_samples(space, map_).facets(t, degree)
    nodes = fd.nodes[sel]
    zn = np.einsum("fqd,fqd->fq", fd.vals @ _nodal(w)[nodes],
                   facets.conormal[sel])
    nfb = nodes.shape[1]
    local = ((0.5 * fd.weights[sel] * zn) @ np.einsum(
        "qi,qj->qij", fd.vals, fd.vals).reshape(len(fd.vals), -1))
    pattern = _patterns(space)[0]
    keys = np.repeat(nodes, nfb, axis=1) * pattern.n_cols + np.tile(nodes, nfb)
    return _sum(np.searchsorted(pattern.keys, keys), local, len(pattern.keys))


def _neumann_facets(space, patch=None):
    """The neumann facets (of one patch), cached on the space."""
    return cached(space, ("neumann_facets", patch), lambda: np.flatnonzero(
        [lbl.kind == "neumann" and (patch is None or lbl.patch == patch)
         for lbl in space.mesh.boundary_labels]))


# ---------------------------------------------------------------------------
# individual forms (used by tests, diagnostics and the step assembler)
# ---------------------------------------------------------------------------


def weighted_mass_matrix(space, weights, degree=None):
    """Velocity mass matrix with a per-quadrature-point weight (nc, nq)."""
    data = cell_data(space, degree or default_degree(space.dimension))
    return _velocity_matrix(space, _mass_local(data, data.weights * weights))


def mass_matrix(space, map_, t, degree=None):
    """J(t)-weighted velocity mass matrix (the step-norm Gram matrix)."""
    J = map_samples(space, map_).jacobian(t, degree)
    return weighted_mass_matrix(space, J, degree)


def rate_mass_matrix(space, map_, t_k, t_prev, dt, degree=None):
    """Mass matrix weighted with the backward difference (J_k - J_{k-1})/dt."""
    samples = map_samples(space, map_)
    Jk, Jp = samples.jacobian(t_k, degree), samples.jacobian(t_prev, degree)
    return weighted_mass_matrix(space, (Jk - Jp) / dt, degree)


def convection_matrices(space, map_, t, w, degree=None, temam_boundary=True):
    """Convection block C and skew-symmetrizing block T for advection w.

    C[(i,a),(j,b)] = delta_ab int (z . grad phi_j) phi_i with z = J F^{-1} w;
    T is the by-parts divergence term -0.5[(z.grad phi_j) phi_i +
    (z.grad phi_i) phi_j] plus, when ``temam_boundary``, the surface term
    0.5 (z.n) phi_i phi_j on outflow (neumann) facets.
    """
    degree = degree or default_degree(space.dimension)
    data = cell_data(space, degree)
    cells = map_samples(space, map_).cells(t, degree)
    C = _convection_local(data, _ghat(data, geometry(space).inv, cells.Finv),
                          cells.J, data.weights, _nodal(w)[space.cell_nodes])
    T = -0.5 * (C + np.swapaxes(C, 1, 2))
    Tb = _temam_boundary(space, map_, t, w, degree) if temam_boundary else None
    return _velocity_matrix(space, C), _velocity_matrix(space, T, boundary=Tb)


def viscous_matrix(space, map_, t, nu, stress="symmetric", degree=None,
                   smagorinsky=None, w=None):
    """Viscous velocity block; see the module docstring for the two forms."""
    degree = degree or default_degree(space.dimension)
    data = cell_data(space, degree)
    cells = map_samples(space, map_).cells(t, degree)
    geo = geometry(space)
    ghat = _ghat(data, geo.inv, cells.Finv)
    wc = _nodal(DiscreteField(space, "velocity") if w is None else w)[
        space.cell_nodes]
    nuq = _eddy_viscosity(ghat, wc, geo.cell_diam, nu, smagorinsky)
    return _velocity_matrix(space, *_viscous_local(
        ghat, data.weights * cells.J * nuq, stress))


def divergence_matrix(space, map_, t, degree=None):
    """Pressure-velocity block B[q, (j,c)] = int J q (grad_phys phi_j)_c."""
    degree = degree or default_degree(space.dimension)
    data = cell_data(space, degree)
    cells = map_samples(space, map_).cells(t, degree)
    return _pressure_matrix(space, _divergence_local(
        data, _ghat(data, geometry(space).inv, cells.Finv),
        data.weights * cells.J))


def forcing_vector(space, map_, t, forcing, degree=None):
    """(J f, psi) with f given in physical coordinates: f(xhat, t) -> (n, d)."""
    degree = degree or default_degree(space.dimension)
    data = cell_data(space, degree)
    samples = map_samples(space, map_)
    cells = samples.cells(t, degree)
    fvals = samples.forcing(t, forcing, degree)
    local = data.vals.T @ ((data.weights * cells.J)[..., None] * fvals)
    return _sum(space.cell_nodes, local, space.n_nodes, space.dimension)


def pressure_gauge_vector(space, map_, t, degree=None):
    """e_i = int J q_i, the physical-volume weights of the pressure basis."""
    data = cell_data(space, degree or default_degree(space.dimension))
    J = map_samples(space, map_).jacobian(t, degree)
    return _sum(space.mesh.cells, (data.weights * J) @ data.pvals,
                space.n_pressure_dofs)


# ---------------------------------------------------------------------------
# boundary flux machinery
# ---------------------------------------------------------------------------


def boundary_area(space):
    return float(space.mesh.boundary_facet_areas().sum())


def piola_boundary_flux(space, map_, t, values, degree=None):
    """Surface integral of the transformed normal flux of a nodal velocity
    field: int_boundary (J F^{-T} n) . v_h ds over all boundary facets."""
    fd = facet_data(space, (degree or default_degree(space.dimension)) + 2)
    facets = map_samples(space, map_).facets(t, degree)
    vq = fd.vals @ _nodal_values(space, values)[fd.nodes]   # (nbf, nqf, d)
    return float(np.sum(fd.weights *
                        np.einsum("fqd,fqd->fq", facets.conormal, vq)))


def boundary_flux_correction(space, map_, t, boundary_values, degree=None):
    """Flux of the interpolated boundary data divided by the boundary area:
    the constant whose subtraction along the outward normal field restores
    discrete compatibility of the data when no outflow boundary exists."""
    flux = piola_boundary_flux(space, map_, t, boundary_values, degree)
    return flux / boundary_area(space)


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


def cell_quadrature_points(space, degree=None):
    """Reference coordinates of the cell quadrature points, (nc, nq, d),
    plus the combined weights |det| * w_q, (nc, nq)."""
    data = cell_data(space, degree or default_degree(space.dimension))
    return data.points, data.weights


def velocity_at_points(space, field, degree=None):
    """Velocity field values at the cell quadrature points, (nc, nq, d)."""
    data = cell_data(space, degree or default_degree(space.dimension))
    return data.vals @ _nodal(field)[space.cell_nodes]


def velocity_gradients(space, field, degree=None):
    """Reference-domain gradients (du_a/dx_b) at quadrature points,
    (nc, nq, d, d)."""
    data = cell_data(space, degree or default_degree(space.dimension))
    vc = _nodal(field)[space.cell_nodes]
    return (np.swapaxes(vc, 1, 2)[:, None] @ data.lgrads) @ \
        geometry(space).inv[:, None]


# ---------------------------------------------------------------------------
# the step assembler
# ---------------------------------------------------------------------------


def assemble_step(space, map_, t_k, t_prev, dt, w, u_prev, nu,
                  forcing=None, neumann_data=None, *, stress="symmetric",
                  temam=True, smagorinsky=None, quadrature_degree=None,
                  scheme="backward-euler", u_prev2=None, t_prev2=None):
    """Assemble the sparse blocks of one implicit time step.

    ``w`` is the advection field u^{k-1} - I_h(xi_t^k); ``neumann_data`` maps
    patch ids to traction densities g(x_ref, t, n) -> (n, d), assembled as
    int J g . psi over the facets of that patch (g may be None for a
    homogeneous outflow condition).
    """
    if space.dimension != map_.dimension:
        raise ValueError("space and map dimensions differ")
    degree = quadrature_degree or default_degree(space.dimension)
    data = cell_data(space, degree)
    samples = map_samples(space, map_)
    cells = samples.cells(t_k, degree)
    Jk, Jprev = cells.J, samples.jacobian(t_prev, degree)
    if scheme == "bdf2":
        if u_prev2 is None or t_prev2 is None:
            raise ValueError("bdf2 needs the two previous states")
        Jprev2 = samples.jacobian(t_prev2, degree)
        Jdot = (3.0 * Jk - 4.0 * Jprev + Jprev2) / (2.0 * dt)
        Jtime = Jk               # weight of the discrete time derivative
        alpha = 1.5
        combo = (2.0 * _nodal(u_prev) - 0.5 * _nodal(u_prev2)) / dt
    else:
        Jdot = (Jk - Jprev) / dt
        Jtime = Jprev
        alpha = 1.0
        combo = _nodal(u_prev) / dt

    def gradient_terms(inv, Finv, J, W, wc, diam):
        ghat = _ghat(data, inv, Finv)
        kappa = W * J * _eddy_viscosity(ghat, wc, diam, nu, smagorinsky)
        return (_convection_local(data, ghat, J, W, wc),
                *_viscous_local(ghat, kappa, stress),
                _divergence_local(data, ghat, W * J))
    geo, W = geometry(space), data.weights
    C, visc, coupling, Bloc = _by_cells(
        gradient_terms, geo.inv, cells.Finv, Jk, W,
        _nodal(w)[space.cell_nodes], geo.cell_diam)
    scalar = _mass_local(data, W * (Jtime * (alpha / dt) + 0.5 * Jdot)) + visc
    scalar += 0.5 * (C - np.swapaxes(C, 1, 2)) if temam else C   # C + T
    Tb = _temam_boundary(space, map_, t_k, w, degree) if temam else None
    A = _velocity_matrix(space, scalar, coupling, Tb)
    B = _pressure_matrix(space, Bloc)

    rhs = _sum(space.cell_nodes, _mass_local(data, W * Jtime) @
               combo[space.cell_nodes], space.n_nodes, space.dimension)
    if forcing is not None:
        rhs += forcing_vector(space, map_, t_k, forcing, degree)
    if neumann_data is not None:
        rhs += _neumann_vector(space, map_, t_k, neumann_data, degree)

    return AssembledStep(A=A, B=B, rhs_u=rhs, t=t_k, dt=dt)


def _neumann_vector(space, map_, t, neumann_data, degree):
    """int J g . psi over neumann facets, per-patch traction densities; each
    traction is evaluated once over all quadrature points of its patch."""
    d = space.dimension
    rhs = np.zeros(space.n_velocity_dofs)
    fd = facet_data(space, degree + 2)
    for patch, g in neumann_data.items():
        sel = _neumann_facets(space, patch)
        if sel.size == 0 or g is None:
            continue
        facets = map_samples(space, map_).facets(t, degree)
        nqf = fd.points.shape[1]
        normals = np.repeat(fd.normals[sel], nqf, axis=0)
        gq = np.asarray(g(fd.points[sel].reshape(-1, d), t, normals),
                        dtype=float).reshape(len(sel), nqf, d)
        local = fd.vals.T @ ((fd.weights[sel] * facets.J[sel])[..., None] * gq)
        rhs += _sum(fd.nodes[sel], local, space.n_nodes, d)
    return rhs
