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

Kernels.  All forms live on the fixed reference mesh, so each gradient
form splits into a fixed table of reference basis products and a d x d
factor per point (the tensor representation of Kirby, Knepley, Logg and
Scott, SISC 2005, here with a per-point factor because the map is not
affine).  The level's sample holds the map factor G = inv F^{-1} as planes
G[k, e], (d, d, nc, nq), with grad phi F^{-1} = lgrad G; ``sampling``
builds the tables once per space, rows (k, q).  A kernel forms its
per-point factor by written-out sums on planes and makes one product
(nc, rows) @ (rows, local block) against its table:

* convection: W J G w against phi_i d_k phi_j;
* full-gradient viscous: kappa G G^T, d(d+1)/2 planes, against the
  symmetrized d_k phi_i d_l phi_j;
* divergence: W J G[:, e] for each component e against q_p d_k phi_j.

The symmetric-stress coupling keeps the product H^T kappa H of the
per-cell stacks H = grad phi F^{-1}, (nq, nb d), over blocks of cells;
H comes from one product per point q of the cells' G with the table of
d_k phi_i.
Mass-type terms are ``(w J) @ (phi_i phi_j)``.  The standalone forms and
``assemble_step`` call the same kernels.

Scatter.  The mesh is fixed, so the map from the cells' local blocks to
the data of A and B is one fixed linear operator, built on the first
assembly as CSR with one unit entry per local value, each row's in local
order.  The matvec adds a row's terms in that order from 0.0, as a
bincount would.  All of it comes from the node pairs of the cell blocks,
sorted once by two counting-sort transposes, with no comparison sort
(Davis 2006): a row (i, a) of A or B lists node i's pairs, so the patterns
are the pair tables expanded by arithmetic, and each local value's entry
is its pair's place in that run.  An operator is written as its transpose,
one unit per local value in local order, and one counting-sort transpose
to CSR lists each row's terms in local order.
The coupling [c, i, b, j, a] and the divergence [e, c, p, j] sum straight
into their CSR data.  The cell scalars and the Temam facet term sum per
node pair; a pair's d diagonal entries then take its sum.  The velocity
block holds only those diagonal entries when no term couples the velocity
components (A = S x I_d), and full d x d blocks for the symmetric stress;
B holds (1, d) blocks.  Entries that sum to exactly zero stay in the
pattern.  Assembly is single-threaded with a fixed reduction order, so
results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .sampling import (cached, cell_components, cell_data, facet_data,
                       geometry, map_samples, plane_dot, point_gradients,
                       point_values)
from .spaces import DiscreteField

__all__ = [
    "AssembledStep", "assemble_step", "weighted_mass_matrix", "mass_matrix",
    "rate_mass_matrix", "convection_matrices", "viscous_matrix",
    "divergence_matrix", "forcing_vector", "pressure_gauge_vector",
    "piola_boundary_flux", "boundary_normal_field", "smagorinsky_viscosity",
    "outflow_power",
]


@dataclass
class AssembledStep:
    """One time step of the discrete system.

    A is the velocity-velocity block, B the pressure-velocity divergence
    block; the saddle system reads  A u - B^T p = rhs_u,  B u = 0.  A and
    rhs_u hold the neumann facets' Temam term and load; see outflow_power.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    rhs_u: np.ndarray
    t: float
    dt: float
    time_coefficient: float     # alpha/dt: u^k's weight in the time derivative
    outflow: np.ndarray = None
    neumann: np.ndarray = None


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


def _scatter(indptr, indices, n_local):
    """A fixed operator with one unit entry per local value: row t sums
    the local values ``indices[indptr[t]:indptr[t + 1]]``, which ascend.
    CSR's matvec adds a row's terms in stored order from 0.0, as a
    bincount does, so the sums are bitwise those of ``_sum``."""
    # bool units, a byte each: the product upcasts them to 1.0
    return sp.csr_matrix((np.ones(len(indices), bool), _frozen(indices),
                          _frozen(indptr)), shape=(len(indptr) - 1, n_local))


class _CSR:
    """A fixed CSR pattern.  ``scatter`` sums local values into its data;
    ``pair`` is the node pair of its diagonal entries, at ``diagonal`` (all
    entries where that is None)."""

    def __init__(self, indptr, indices, shape):
        self.indptr, self.indices = _frozen(indptr), _frozen(indices)
        self.shape = shape
        self.scatter = self.diagonal = self.pair = None

    def matrix(self, data):
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


def _arange(n):
    return np.arange(n, dtype=np.int32)


class _Pattern:
    """The sorted (row, column) node pairs of the cell blocks of the
    ``rows`` and ``cols`` node tables, the operator ``scatter`` that sums
    the block entries' local values per pair, and the CSR patterns of the
    pairs expanded to d velocity components.

    The block entries are sorted once, into the pairs, by two counting
    passes.  A CSR pattern is the pair tables expanded by arithmetic: row
    (i, a) lists row node i's run of pairs, with an entry per column
    component b (only b = a with ``diagonal``).  Its scatter operator is
    written as its transpose, each local value at the entry its block
    entry's pair sums into, and a counting-sort transpose lists each
    entry's local values in local order."""

    def __init__(self, rows, cols, n_rows, n_cols, d):
        self.n_rows, self.n_cols, self.d = n_rows, n_cols, d
        self._rows, self._cols = rows, cols.shape[1]
        nc, ni = rows.shape
        # two counting-sort transposes, each keeping the order it is
        # given: the cells of each column node, then each block entry
        # (c, i, j) of those cells under its row node, so that a row
        # node's entries ascend by column node and then in local order
        by_col = sp.csr_matrix((_arange(cols.size), cols.ravel(),
                                np.arange(0, cols.size + 1, self._cols,
                                          dtype=np.int32)),
                               shape=(nc, n_cols)).tocsc()
        c = by_col.indices
        base = by_col.data + c * ((ni - 1) * self._cols)  # flat (c, 0, j)
        entry = np.empty((len(c), ni), np.int32)          # flat (c, i, j)
        for i in range(ni):
            np.add(base, i * self._cols, out=entry[:, i])
        node = rows[c.astype(np.intp)].astype(np.int32)
        by_row = sp.csr_matrix((entry.ravel(), node.ravel(),
                                by_col.indptr * ni),
                               shape=(n_cols, n_rows)).tocsc()
        col, order = by_row.indices, by_row.data
        new = np.empty(len(col), bool)
        np.not_equal(col[1:], col[:-1], out=new[1:])
        starts = by_row.indptr[:-1]
        new[starts[starts < len(col)]] = True    # a row node's first pair
        first = np.flatnonzero(new)
        self.n_pairs = len(first)
        self.pair_cols = _frozen(col[first])
        self.pair_ptr = _frozen(np.searchsorted(first, by_row.indptr))
        self._order = _frozen(order)
        self._ptr = _frozen(np.append(first, len(order)))
        self._csr = {}

    @cached_property
    def scatter(self):
        """The operator that sums the block entries' local values per pair."""
        return _scatter(self._ptr, self._order, len(self._order))

    def csr(self, r, diagonal=False):
        """The CSR pattern with an (r, d) block per pair: rows (i, a) for
        a < r, columns (j, b) for b < d; with ``diagonal`` only the b = a
        entries of (d, d) blocks, which take their pair's sum.  Otherwise
        its ``scatter`` sums the local blocks [c, i, b, j, a] (r = d) or
        [b, c, i, j] (r = 1) into its data."""
        key = (r, diagonal)
        if key not in self._csr:
            self._csr[key] = self._build(r, diagonal)
        return self._csr[key]

    def _build(self, r, diagonal):
        # int32 but for what indexes (numpy indexes fastest with intp):
        # this runs with the first assembly, and its temporaries set the
        # peak memory
        d, ptr, n = self.d, self.pair_ptr, self.n_pairs
        per = 1 if diagonal else d           # entries of a pair a row
        count = np.diff(ptr)                 # pairs of a row node
        # a slot per pair of each row (i, a): row node i's run of pairs,
        # per entries each, starting at slot r ptr_i + a count_i
        run = np.repeat(count, r)
        indptr = np.zeros(self.n_rows * r + 1, np.int32)
        np.cumsum(run * per, out=indptr[1:])
        a = _arange(r)
        shift = (r - 1) * ptr[:-1, None] + count[:, None] * a
        pair = np.arange(r * n)
        pair -= np.repeat(shift.ravel(), run)
        comp = np.repeat(np.tile(a, self.n_rows), run)   # each slot's a
        columns = self.pair_cols[pair]
        columns *= d
        if diagonal:
            columns += comp
            indices = columns
        else:
            indices = np.empty((r * n, d), np.int32)
            for b in range(d):
                np.add(columns, b, out=indices[:, b])
        csr = _CSR(indptr, indices.ravel(), (self.n_rows * r, self.n_cols * d))
        if r > 1:
            csr.pair = _frozen(pair)
            if diagonal:
                return csr
            csr.diagonal = _frozen(d * _arange(r * n) + comp)
        csr.scatter = self._operator(r, indptr)
        return csr

    def _operator(self, r, indptr):
        """The scatter of ``csr(r)``, whose rows start at ``indptr``.  The
        local value (b, a) of block entry (c, i, j), of pair p of row node
        i, goes to entry indptr[i r + a] + d (p - pair_ptr[i]) + b, and
        the transpose lists each entry's values in local order."""
        d, n = self.d, len(self._order)
        pair = np.empty(n, np.int32)         # of each block entry (c, i, j)
        pair[self._order.astype(np.intp)] = np.repeat(_arange(self.n_pairs),
                                                      np.diff(self._ptr))
        pair = (d * pair).reshape(*self._rows.shape, self._cols)
        before = d * self.pair_ptr[self._rows]
        # in the local layout, [c, i, b, j, a] or [b, c, i, j] (r = 1)
        entry = np.empty((*pair.shape[:2], d, self._cols, r) if r > 1 else
                         (d, *pair.shape), np.int32)
        for a in range(r):
            start = pair + (indptr[self._rows * r + a] - before)[:, :, None]
            for b in range(d):
                np.add(start, b, out=entry[:, :, b, :, a] if r > 1 else
                       entry[b])
        units = sp.csc_matrix((np.ones(entry.size, bool), entry.ravel(),
                               _arange(entry.size + 1)),
                              shape=(indptr[-1], entry.size))
        scatter = units.tocsr()
        _frozen(scatter.indices)
        _frozen(scatter.indptr)
        return scatter


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
    plus the component-coupling blocks (nc, nb, d, nb, d) and the pair sums
    ``boundary`` of facet terms.  Without coupling its pattern holds the d
    diagonal entries of each node pair, with it full d x d blocks."""
    pattern, d = _patterns(space)[0], space.dimension
    sums = pattern.scatter @ scalar.ravel()
    if boundary is not None:
        sums += boundary
    csr = pattern.csr(d, diagonal=coupling is None)
    if coupling is None:
        return csr.matrix(sums[csr.pair])
    data = csr.scatter @ coupling.ravel()
    data[csr.diagonal] += sums[csr.pair]
    return csr.matrix(data)


def _pressure_matrix(space, local):
    """Pressure-velocity CSR from the local blocks [e, c, p, j] of the
    divergence kernel, (d, nc, d+1, nb), summed in that order: no
    transposed copy, and each sum takes its terms in (c, p, j) order."""
    csr = _patterns(space)[1].csr(1)
    return csr.matrix(csr.scatter @ local.ravel())


# ---------------------------------------------------------------------------
# batched kernels: per-point factors on planes, one product with a table
# ---------------------------------------------------------------------------

_BLOCK = 256        # cells per block of the symmetric coupling


def _mass_local(data, weight):
    """sum_q weight phi_i phi_j per cell, (nc, nb, nb)."""
    nb = data.vals.shape[1]
    return (weight @ data.outer).reshape(-1, nb, nb)


def _convection_local(data, G, wj, wc):
    """C[c, i, j] = sum_q W (z . grad phi_j) phi_i with z = J F^{-1} w and
    wj = W J; z . grad phi_j = J sum_k d_k phi_j (G w)_k.  ``wc`` is the
    advection field's cell components, (d, nc, nb)."""
    d, nc, nb = wc.shape
    wq = point_values(data, wc)                          # (d, nc, nq)
    factor = np.empty(wq.shape)
    for k in range(d):
        plane_dot(G[k], wq, factor[k])
    factor *= wj
    return (_rows(factor) @ data.convection).reshape(nc, nb, nb)


def _rows(planes):
    """Per-point factor planes (m, nc, nq) as the (nc, m nq) rows of a
    table product."""
    return planes.transpose(1, 0, 2).reshape(planes.shape[1], -1)


def smagorinsky_viscosity(D, h_T, nu, C_s=0.2):
    """Eddy viscosity nu + (C_s h_T)^2 sqrt(2 D:D) for a symmetric rate
    tensor D (batched over leading axes)."""
    D = np.asarray(D, dtype=float)
    rate = np.sqrt(2.0 * np.einsum("...ab,...ab->...", D, D))
    return nu + (C_s * np.asarray(h_T)) ** 2 * rate


def _eddy_viscosity(data, G, wc, diam, nu, smagorinsky):
    """nu, or the Smagorinsky viscosity of D, the pulled-back rate of the
    lagged field, (nc, nq)."""
    if smagorinsky is None:
        return nu
    cs = float(smagorinsky)
    if cs <= 0:
        raise ValueError("eddy-viscosity constant must be positive")
    Gw = point_gradients(data, G, wc)                    # (d, d, nc, nq)
    Dw = 0.5 * (Gw + np.swapaxes(Gw, 0, 1))
    return smagorinsky_viscosity(np.moveaxis(Dw, (0, 1), (2, 3)),
                                 diam[:, None], nu, cs)


def _viscous_local(data, G, kappa, stress):
    """Viscous blocks with the pointwise coefficient kappa = W J nu and
    g_i = grad phi_i F^{-1}: the scalar sum_q kappa g_i . g_j, (nc, nb,
    nb), and for the symmetric form the coupling [c, i, b, j, a] = sum_q
    kappa (g_i)_b (g_j)_a, the product's own order."""
    if stress not in ("symmetric", "full-gradient"):
        raise ValueError(f"unknown stress form {stress!r}")
    d, _, nc, nq = G.shape
    nb = data.vals.shape[1]
    if stress == "full-gradient":
        # kappa (G G^T)[k, l] for k <= l against the symmetrized table
        factor = np.empty((len(data.pairs), nc, nq))
        for p, (k, l) in enumerate(data.pairs):
            plane_dot(G[k], G[l], factor[p])
        factor *= kappa
        return (_rows(factor) @ data.stiffness).reshape(nc, nb, nb), None
    # H^T kappa H per cell, over blocks of cells that bound the stacks H
    X = np.empty((nc, nb * d, nb * d))
    for i in range(0, nc, _BLOCK):
        n = min(_BLOCK, nc - i)
        Gq = G[:, :, i:i + n].transpose(3, 2, 0, 1).reshape(nq, n, d * d)
        H = np.swapaxes(Gq @ data.gradient_blocks, 0, 1).copy()
        np.matmul(np.swapaxes(H * kappa[i:i + n, :, None], 1, 2), H,
                  out=X[i:i + n])
    X = X.reshape(nc, nb, d, nb, d)
    return np.einsum("cieje->cij", X), X


def _divergence_local(data, G, wj):
    """B[e, c, p, j] = sum_q wj q_p (grad phi_j F^{-1})_e with wj = W J,
    (d, nc, d+1, nb): the factor wj G[k, e] against q_p d_k phi_j."""
    d, nc = G.shape[0], G.shape[2]
    factor = (G * wj).transpose(1, 2, 0, 3).reshape(d * nc, -1)
    return (factor @ data.divergence).reshape(d, nc, d + 1, -1)


def _temam_boundary(space, map_, t, w):
    """0.5 (z.n) phi_i phi_j over neumann facets: its point weights, and
    the term as scalar pattern data; (None, None) without neumann facets."""
    sel = _neumann_facets(space)
    if sel.size == 0:
        return None, None
    fd = facet_data(space)
    facets = map_samples(space, map_).facets(t)
    nodes = fd.nodes[sel]
    zn = np.einsum("fqd,fqd->fq", fd.vals @ _nodal(w)[nodes],
                   facets.conormal[sel])
    outflow = 0.5 * fd.weights[sel] * zn
    local = outflow @ np.einsum("qi,qj->qij", fd.vals, fd.vals).reshape(
        len(fd.vals), -1)
    return outflow, _facet_scatter(space) @ local.ravel()


def _facet_scatter(space):
    """The operator that sums the neumann facets' local blocks (f, i, j)
    per velocity node pair, built on first use."""
    def build():
        pattern, n = _patterns(space)[0], space.n_nodes
        nodes = facet_data(space).nodes[_neumann_facets(space)]
        keys = np.repeat(np.arange(n),
                         np.diff(pattern.pair_ptr)) * n + pattern.pair_cols
        pair = np.searchsorted(keys, (nodes[:, :, None] * n +
                                      nodes[:, None, :]).ravel())
        order = np.argsort(pair, kind="stable")
        ptr = np.searchsorted(pair[order], np.arange(pattern.n_pairs + 1))
        return _scatter(ptr, order, len(order))
    return cached(space, "facet_scatter", build)


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
    C = _convection_local(data, cells.G, data.weights * cells.J,
                          cell_components(space, _nodal(w)))
    T = -0.5 * (C + np.swapaxes(C, 1, 2))
    return _velocity_matrix(space, C), _velocity_matrix(
        space, T, boundary=_temam_boundary(space, map_, t, w)[1])


def viscous_matrix(space, map_, t, nu, stress="symmetric", *,
                   smagorinsky=None, w=None):
    """Viscous velocity block; see the module docstring for the two forms."""
    data = cell_data(space)
    cells = map_samples(space, map_).cells(t)
    wc = cell_components(space, _nodal(
        DiscreteField(space, "velocity") if w is None else w))
    nuq = _eddy_viscosity(data, cells.G, wc, geometry(space).cell_diam, nu,
                          smagorinsky)
    return _velocity_matrix(space, *_viscous_local(
        data, cells.G, data.weights * cells.J * nuq, stress))


def divergence_matrix(space, map_, t):
    """Pressure-velocity block B[q, (j,c)] = int J q (grad_phys phi_j)_c."""
    data = cell_data(space)
    cells = map_samples(space, map_).cells(t)
    return _pressure_matrix(space, _divergence_local(
        data, cells.G, data.weights * cells.J))


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

    W, G = data.weights, cells.G
    wj, wc = W * Jk, cell_components(space, _nodal(w))
    kappa = wj * _eddy_viscosity(data, G, wc, geometry(space).cell_diam, nu,
                                 smagorinsky)
    C = _convection_local(data, G, wj, wc)
    visc, coupling = _viscous_local(data, G, kappa, stress)
    scalar = _mass_local(data, W * (Jtime * (alpha / dt) + 0.5 * Jdot)) + visc
    scalar += 0.5 * (C - np.swapaxes(C, 1, 2))                   # C + T
    outflow, temam = _temam_boundary(space, map_, t_k, w)
    A = _velocity_matrix(space, scalar, coupling, temam)
    B = _pressure_matrix(space, _divergence_local(data, G, wj))

    rhs = _sum(space.cell_nodes, _mass_local(data, W * Jtime) @
               combo[space.cell_nodes], space.n_nodes, space.dimension)
    if forcing is not None:
        rhs += forcing_vector(space, map_, t_k, forcing)
    neumann = None
    if neumann_data is not None:
        neumann = _neumann_vector(space, map_, t_k, neumann_data)
        rhs += neumann

    return AssembledStep(A=A, B=B, rhs_u=rhs, t=t_k, dt=dt,
                         time_coefficient=alpha / dt, outflow=outflow,
                         neumann=neumann)


def outflow_power(space, step, u):
    """int J g.u - 1/2 int (z.n) |u|^2 over the neumann facets for the
    nodal velocity u, from the step's own Neumann load and Temam weights."""
    if step.outflow is None:
        return 0.0
    fd = facet_data(space)
    uq = fd.vals @ u[fd.nodes[_neumann_facets(space)]]
    load = 0.0 if step.neumann is None else step.neumann @ u.ravel()
    return float(load - np.sum(step.outflow[..., None] * uq ** 2))


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
