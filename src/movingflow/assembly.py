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
d_k phi_i.  Each plane b of the coupling is one product per block, the
rows (i, b) of (kappa H)^T times H, written in place; the scalar is the
sum of the planes' diagonals.
Mass-type terms are ``(w J) @ (phi_i phi_j)``.  The standalone forms and
``assemble_step`` call the same kernels.

Per-cell kernels.  When the map's F is constant on every reference cell
(``cellwise_constant_gradient``, the affine case of the tensor
representation), the divergence and, without eddy viscosity, the viscous
blocks take G and det J from the level's per-cell sample and contract
them against tables that ``sampling`` integrated once with the rule
weights: the divergence factor det J G[:, e] against q_p d_k phi_j, the
scalar det J nu (G G^T)[k, l] against the symmetrized d_k phi_i d_l phi_j,
and the symmetric coupling's plane b, in one product, det J nu G[k, b]
G[l, a] against d_k phi_i d_l phi_j.  They agree with the per-point
kernels to roundoff.  The map's property alone picks the path.
Convection, eddy viscosity, mass, forcing and Temam terms stay per point.

Scatter.  The mesh is fixed, so the sparsity of A and B and the sums
that fill them are fixed too.  Both come from the node pairs of the cell
blocks, sorted once on the first assembly by two counting-sort
transposes, with no comparison sort (Davis 2006).  Each pattern keeps one
operator, CSR with a unit entry per block entry (c, i, j), that lists
each pair's entries in local order; its matvec adds them in that order
from 0.0, as a bincount would.  Every form sums through it: the cell
scalars, each plane b of the symmetric coupling [c, i, b, j, a] as rows
(c, i, j) of its d values a, and each plane e of the divergence [e, c, p,
j].  The Temam facet term enters through the scalar blocks of its
facets' cells, added in facet order before the sums.  The velocity block
holds a pair's d diagonal entries, which take its scalar sum, when no
term couples the velocity components (A = S x I_d); with the symmetric
stress it holds full d x d blocks, entry (a, b) the coupling sum plus,
for a = b, the scalar sum.  B holds (1, d) blocks, and its data are the
(pair, e) sums in order.  A row (i, a) lists node i's pairs, so the
patterns are the pair tables expanded by arithmetic, and one fixed gather
places A's sums.  Entries that sum to exactly zero stay in the pattern.
Assembly is single-threaded with a fixed reduction order, so results are
deterministic.
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


def _frozen(index, dtype=np.int32):
    """An index array as read-only ``dtype``; the matrices of a pattern
    share its arrays."""
    index = index.astype(dtype, copy=False)
    index.flags.writeable = False
    return index


class _CSR:
    """A fixed CSR pattern filled from node-pair sums.  A row lists one
    run of entries per node pair, and ``pair`` gives each run's row of the
    sums (None where the data are the sums in order)."""

    def __init__(self, indptr, indices, shape, pair=None):
        self.indptr, self.indices = _frozen(indptr), _frozen(indices)
        self.shape = shape
        # intp, which numpy gathers with fastest
        self.pair = None if pair is None else _frozen(pair, np.intp)

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
    component b (only b = a with ``diagonal``), and its ``pair`` places
    each run in the pair sums."""

    def __init__(self, rows, cols, n_rows, n_cols, d):
        self.n_rows, self.n_cols, self.d = n_rows, n_cols, d
        (nc, ni), nj = rows.shape, cols.shape[1]
        # two counting-sort transposes, each keeping the order it is
        # given: the cells of each column node, then each block entry
        # (c, i, j) of those cells under its row node, so that a row
        # node's entries ascend by column node and then in local order
        by_col = sp.csr_matrix((_arange(cols.size), cols.ravel(),
                                np.arange(0, cols.size + 1, nj,
                                          dtype=np.int32)),
                               shape=(nc, n_cols)).tocsc()
        c = by_col.indices
        base = by_col.data + c * ((ni - 1) * nj)          # flat (c, 0, j)
        entry = np.empty((len(c), ni), np.int32)          # flat (c, i, j)
        for i in range(ni):
            np.add(base, i * nj, out=entry[:, i])
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
        """The operator that sums the block entries' local values per pair,
        each pair's in local order: row p has a unit entry at each of pair
        p's local values, ascending, and CSR's matvec adds a row's terms in
        stored order from 0.0, as a bincount does, so the sums are bitwise
        those of ``_sum``."""
        # bool units, a byte each: the product upcasts them to 1.0
        order = self._order
        return sp.csr_matrix((np.ones(len(order), bool), order, self._ptr),
                             shape=(self.n_pairs, len(order)))

    def csr(self, r, diagonal=False):
        """The CSR pattern with an (r, d) block per pair: rows (i, a) for
        a < r, columns (j, b) for b < d; with ``diagonal`` only the b = a
        entries of (d, d) blocks.  The run of pair p in row (i, a) is row
        p of the sums (n_pairs,) with ``diagonal``, row (p, a) of the sums
        (n_pairs, d, d) for r = d, and row p of the sums (n_pairs, d) in
        order for r = 1."""
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
        shape = (self.n_rows * r, self.n_cols * d)
        if diagonal:
            columns += comp
            return _CSR(indptr, columns, shape, pair)
        indices = np.empty((r * n, d), np.int32)
        for b in range(d):
            np.add(columns, b, out=indices[:, b])
        return _CSR(indptr, indices.ravel(), shape,
                    pair * d + comp if r > 1 else None)


def _patterns(space):
    """The node-pair pattern of the velocity block and the vertex-node
    pattern of the pressure block, built on the first assembly."""
    def build():
        conn, n, d = space.cell_nodes, space.n_nodes, space.dimension
        return (_Pattern(conn, conn, n, n, d),
                _Pattern(space.mesh.cells, conn, space.n_pressure_dofs, n, d))
    return cached(space, "patterns", build)


def _velocity_matrix(space, scalar, coupling=None):
    """Velocity block: ``scalar`` (nc, nb, nb) on every component alike,
    plus the component-coupling blocks [c, i, b, j, a], (nc, nb, d, nb, d).
    Without coupling its pattern holds the d diagonal entries of each node
    pair, with it full d x d blocks."""
    pattern, d = _patterns(space)[0], space.dimension
    sums = pattern.scatter @ scalar.ravel()
    csr = pattern.csr(d, diagonal=coupling is None)
    if coupling is None:
        return csr.matrix(sums[csr.pair])
    data = np.empty((len(csr.pair), d))
    # plane b, [(c, i, j), a], summed per pair gives the entries (p, a, b);
    # no copy when the plane is contiguous, as the kernel keeps it
    for b, plane in enumerate(np.moveaxis(coupling, 2, 0)):
        coupled = pattern.scatter @ plane.reshape(-1, d)
        coupled[:, b] += sums                # a = b: coupling + scalar
        data[:, b] = coupled.ravel()[csr.pair]
    return csr.matrix(data.ravel())


def _pressure_matrix(space, local):
    """Pressure-velocity CSR from the local blocks [e, c, p, j] of the
    divergence kernel, (d, nc, d+1, nb): plane e summed per pair, each sum
    in (c, p, j) order, gives the entries (pair, e), which are B's data."""
    pattern = _patterns(space)[1]
    data = np.empty((pattern.n_pairs, len(local)))
    for e, plane in enumerate(local):
        data[:, e] = pattern.scatter @ plane.ravel()
    return pattern.csr(1).matrix(data.ravel())


# ---------------------------------------------------------------------------
# batched kernels: per-point factors on planes, one product with a table
# ---------------------------------------------------------------------------

_BLOCK = 2 ** 16    # entries of the symmetric coupling per block of cells


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
    kappa (g_i)_b (g_j)_a, as a view of the contiguous planes [b][c, i, j,
    a] that the pair sums read, and the scalar as the sum over e of its
    entries [c, i, e, j, e], in e order."""
    d, _, nc, nq = G.shape
    nb = data.vals.shape[1]
    if stress == "full-gradient":
        # kappa (G G^T)[k, l] for k <= l against the symmetrized table
        factor = np.empty((len(data.pairs), nc, nq))
        for p, (k, l) in enumerate(data.pairs):
            plane_dot(G[k], G[l], factor[p])
        factor *= kappa
        return (_rows(factor) @ data.stiffness).reshape(nc, nb, nb), None
    # H^T kappa H per cell, over blocks of cells that bound the stacks H:
    # plane b, [c, i, j, a], is one product per block, the rows (i, b) of
    # (kappa H)^T times H, written in place
    cells = max(1, min(_BLOCK // (nb * d) ** 2, nc))
    scalar, planes = np.zeros((nc, nb, nb)), np.empty((d, nc, nb, nb, d))
    for i in range(0, nc, cells):
        n = min(cells, nc - i)
        Gq = G[:, :, i:i + n].transpose(3, 2, 0, 1).reshape(nq, n, d * d)
        H = np.swapaxes(Gq @ data.gradient_blocks, 0, 1).copy()
        Hk = np.swapaxes(H * kappa[i:i + n, :, None], 1, 2).reshape(
            n, nb, d, nq)                                  # [c, i, b, q]
        for b in range(d):
            np.matmul(Hk[:, :, b], H,
                      out=planes[b, i:i + n].reshape(n, nb, nb * d))
    for e in range(d):                 # the scalar: the diagonals a = b
        scalar += planes[e, ..., e]
    return scalar, planes.transpose(1, 2, 0, 3, 4)


def _viscous_cells(data, G, kappa, stress):
    """The viscous blocks of ``_viscous_local`` for G, (d, d, nc), and the
    coefficient kappa = det J nu, (nc,), constant on each cell, against
    the rule-integrated tables: the scalar kappa (G G^T)[k, l] against the
    symmetrized sums of d_k phi_i d_l phi_j, and for the symmetric form
    the coupling plane b, [c, (i, j, a)], kappa G[k, b] G[l, a] against
    the sums of d_k phi_i d_l phi_j, in one product."""
    d, _, nc = G.shape
    nb = data.vals.shape[1]
    factor = np.empty((len(data.pairs), nc))
    for p, (k, l) in enumerate(data.pairs):
        plane_dot(G[k], G[l], factor[p])
    factor *= kappa
    scalar = (factor.T @ data.cell_stiffness).reshape(nc, nb, nb)
    if stress == "full-gradient":
        return scalar, None
    kG = (G * kappa).transpose(2, 0, 1)[:, None]          # [c, 1, l, a]
    planes = np.empty((d, nc, nb, nb, d))
    for b in range(d):
        outer = G[:, b].T[:, :, None, None] * kG          # [c, k, l, a]
        np.matmul(outer.reshape(nc, -1), data.cell_coupling,
                  out=planes[b].reshape(nc, -1))
    return scalar, planes.transpose(1, 2, 0, 3, 4)


def _viscous(space, map_, cells, wc, nu, stress, smagorinsky):
    """The viscous blocks of the level's map sample ``cells``: per cell
    when the map's F is constant on each cell and nu has no eddy part,
    else per point; ``wc`` is the lagged field's cell components."""
    if stress not in ("symmetric", "full-gradient"):
        raise ValueError(f"unknown stress form {stress!r}")
    data = cell_data(space)
    if smagorinsky is None and map_.cellwise_constant_gradient:
        G, detJ = _cell_factors(space, cells)
        return _viscous_cells(data, G, detJ * nu, stress)
    nuq = _eddy_viscosity(data, cells.G, wc, geometry(space).cell_diam, nu,
                          smagorinsky)
    return _viscous_local(data, cells.G, data.weights * cells.J * nuq,
                          stress)


def _divergence(space, map_, cells):
    """The divergence blocks [e, c, p, j] of the level's map sample
    ``cells``, per cell when the map's F is constant on each cell."""
    data = cell_data(space)
    if not map_.cellwise_constant_gradient:
        return _divergence_local(data, cells.G, data.weights * cells.J)
    G, detJ = _cell_factors(space, cells)
    d, _, nc = G.shape
    factor = (G * detJ).transpose(1, 2, 0).reshape(d * nc, d)    # [e, c, k]
    return (factor @ data.cell_divergence).reshape(d, nc, d + 1, -1)


def _cell_factors(space, cells):
    """G, (d, d, nc), and det J, (nc,), of a map sample whose points of a
    cell share them: the first point's, times the cell's volume factor."""
    return cells.G[..., 0], geometry(space).det * cells.J[:, 0]


def _divergence_local(data, G, wj):
    """B[e, c, p, j] = sum_q wj q_p (grad phi_j F^{-1})_e with wj = W J,
    (d, nc, d+1, nb): the factor wj G[k, e] against q_p d_k phi_j."""
    d, nc = G.shape[0], G.shape[2]
    factor = (G * wj).transpose(1, 2, 0, 3).reshape(d * nc, -1)
    return (factor @ data.divergence).reshape(d, nc, d + 1, -1)


def _add_temam(space, map_, t, w, scalar):
    """Add 0.5 (z.n) phi_i phi_j over the neumann facets to the contiguous
    scalar cell blocks (nc, nb, nb) of their cells, in facet order; returns
    the term's point weights, None without neumann facets."""
    sel = _neumann_facets(space)
    if sel.size == 0:
        return None
    fd = facet_data(space)
    facets = map_samples(space, map_).facets(t)
    zn = np.einsum("fqd,fqd->fq", fd.vals @ _nodal(w)[fd.nodes[sel]],
                   facets.conormal[sel])
    outflow = 0.5 * fd.weights[sel] * zn
    local = outflow @ np.einsum("qi,qj->qij", fd.vals, fd.vals).reshape(
        len(fd.vals), -1)
    # unbuffered: a block entry on several facets sums them in facet order
    np.add.at(scalar.reshape(-1), _facet_blocks(space), local)
    return outflow


def _facet_blocks(space):
    """The flat place (c, i, j) in the scalar cell blocks of each neumann
    facet's block entry (f, k, l): c the facet's cell, i and j where its
    nodes k and l sit among that cell's nodes.  Cached on the space."""
    def build():
        sel, fd = _neumann_facets(space), facet_data(space)
        cells, nodes = fd.cells[sel], fd.nodes[sel]          # (nf, nfb)
        at = np.argmax(space.cell_nodes[cells][:, None, :] ==
                       nodes[:, :, None], axis=2)            # (nf, nfb)
        nb = space.cell_nodes.shape[1]
        return _frozen(((cells[:, None, None] * nb + at[:, :, None]) * nb +
                        at[:, None, :]).reshape(len(sel), -1), np.intp)
    return cached(space, "facet blocks", build)


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
    _add_temam(space, map_, t, w, T)
    return _velocity_matrix(space, C), _velocity_matrix(space, T)


def viscous_matrix(space, map_, t, nu, stress="symmetric", *,
                   smagorinsky=None, w=None):
    """Viscous velocity block; see the module docstring for the two forms."""
    cells = map_samples(space, map_).cells(t)
    wc = cell_components(space, _nodal(
        DiscreteField(space, "velocity") if w is None else w))
    return _velocity_matrix(space, *_viscous(space, map_, cells, wc, nu,
                                             stress, smagorinsky))


def divergence_matrix(space, map_, t):
    """Pressure-velocity block B[q, (j,c)] = int J q (grad_phys phi_j)_c."""
    cells = map_samples(space, map_).cells(t)
    return _pressure_matrix(space, _divergence(space, map_, cells))


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
    patch ids to traction densities g(x_ref, t, m) -> (n, d), with m =
    F^{-T} n the level's pulled-back normal at the points, assembled as
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

    W = data.weights
    wc = cell_components(space, _nodal(w))
    C = _convection_local(data, cells.G, W * Jk, wc)
    visc, coupling = _viscous(space, map_, cells, wc, nu, stress, smagorinsky)
    scalar = _mass_local(data, W * (Jtime * (alpha / dt) + 0.5 * Jdot)) + visc
    scalar += 0.5 * (C - np.swapaxes(C, 1, 2))                   # C + T
    outflow = _add_temam(space, map_, t_k, w, scalar)
    A = _velocity_matrix(space, scalar, coupling)
    B = _pressure_matrix(space, _divergence(space, map_, cells))

    rhs = _sum(space.cell_nodes, _mass_local(data, W * Jtime) @
               combo[space.cell_nodes], space.n_nodes, space.dimension)
    if forcing is not None:
        rhs += forcing_vector(space, map_, t_k, forcing)
    neumann = None
    if neumann_data is not None:
        neumann = _neumann_vector(space, map_, t_k, neumann_data)
        rhs += neumann

    return AssembledStep(A=A, B=B, rhs_u=rhs, time_coefficient=alpha / dt, outflow=outflow,
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
    traction is evaluated once over all quadrature points of its patch,
    given the pulled-back normal F^{-T} n there."""
    d = space.dimension
    rhs = np.zeros(space.n_velocity_dofs)
    fd = facet_data(space)
    for patch, g in neumann_data.items():
        sel = _neumann_facets(space, patch)
        if sel.size == 0 or g is None:
            continue
        facets = map_samples(space, map_).facets(t)
        nqf = fd.points.shape[1]
        gq = np.asarray(g(fd.points[sel].reshape(-1, d), t,
                          facets.normal[sel].reshape(-1, d)),
                        dtype=float).reshape(len(sel), nqf, d)
        local = fd.vals.T @ ((fd.weights[sel] * facets.J[sel])[..., None] * gq)
        rhs += _sum(fd.nodes[sel], local, space.n_nodes, d)
    return rhs
