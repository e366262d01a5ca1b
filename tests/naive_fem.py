"""Naive dense reference assembly, for fixed domains and moving maps.

Plain loops over cells, quadrature points and basis pairs; used to check the
vectorized assembly against an independent code path.  The identity-map
forms integrate with ``conical_rule`` at a given degree, none of the
program's tables.  The moving-map forms (``moving_*``) loop
over the cells and the space's cell points and build each form from F^{-1}
itself: ``np.linalg.inv`` and ``np.linalg.det`` of the map's gradient at
the point, no sampling tables, no map factor, on the space's cell rule.
``quadrature`` adds the conical-product rule at the degrees that have no
tabled rule, for tests that integrate above the program's rules.
"""

import numpy as np
from scipy.special import roots_jacobi

from movingflow import elements, sampling
from movingflow.elements import QuadratureRule, shape_functions


def _jacobi01(n, alpha):
    # Gauss-Jacobi with weight (1-x)^alpha on [-1,1], mapped to [0,1];
    # the extra 2^-(alpha+1) absorbs the weight-function rescaling
    x, w = roots_jacobi(n, alpha, 0.0)
    return 0.5 * (x + 1.0), w * 0.5 ** (alpha + 1)


def conical_rule(d, degree):
    """Conical-product rule on the reference triangle or tetrahedron,
    exact to ``degree``: Gauss-Legendre in u, Gauss-Jacobi in v (and w)
    under x = u (1-v) (1-w), y = v (1-w), z = w."""
    n = max(1, (degree + 2) // 2)   # 2n-1 >= degree
    axes = [_jacobi01(n, float(a)) for a in range(d)]
    grid = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    weights = np.ones_like(grid[0])
    for a, (_, w) in enumerate(axes):
        weights = weights * w.reshape((-1,) + (1,) * (d - 1 - a))
    coords, rest = [], np.ones_like(grid[0])
    for a in range(d - 1, -1, -1):      # z, then y, then x
        coords.insert(0, grid[a] * rest)
        rest = rest * (1.0 - grid[a])
    coords = [c.ravel() for c in coords]
    pts = np.stack([1.0 - sum(coords), *coords], axis=1)
    return QuadratureRule(points=pts, weights=weights.ravel(),
                          exactness=degree)


def quadrature(d, degree):
    """The program's rule where it has one, else ``conical_rule``."""
    try:
        return elements.quadrature(d, degree)
    except ValueError:
        return conical_rule(d, degree)


def _cell_setup(mesh, rule):
    d = mesh.dimension
    v2 = shape_functions(2, d)
    v1 = shape_functions(1, d)
    vals = v2.values(rule.points)
    grads_loc = v2.gradients(rule.points)
    pvals = v1.values(rule.points)
    return rule, vals, grads_loc, pvals


def _geometry(mesh, c):
    verts = mesh.vertices[mesh.cells[c]]
    G = (verts[1:] - verts[0]).T
    Ginv = np.linalg.inv(G)
    return verts, abs(np.linalg.det(G)), Ginv


def mass(space, degree):
    mesh = space.mesh
    d = mesh.dimension
    rule, vals, grads_loc, _ = _cell_setup(mesh, conical_rule(d, degree))
    n = space.n_velocity_dofs
    M = np.zeros((n, n))
    for c in range(mesh.n_cells):
        nodes = space.cell_nodes[c]
        _, det, _ = _geometry(mesh, c)
        for q, wq in enumerate(rule.weights):
            for i, ni in enumerate(nodes):
                for j, nj in enumerate(nodes):
                    contrib = wq * det * vals[q, i] * vals[q, j]
                    for a in range(d):
                        M[ni * d + a, nj * d + a] += contrib
    return M


def viscous(space, nu, stress, degree):
    mesh = space.mesh
    d = mesh.dimension
    rule, vals, grads_loc, _ = _cell_setup(mesh, conical_rule(d, degree))
    n = space.n_velocity_dofs
    A = np.zeros((n, n))
    for c in range(mesh.n_cells):
        nodes = space.cell_nodes[c]
        _, det, Ginv = _geometry(mesh, c)
        for q, wq in enumerate(rule.weights):
            g = grads_loc[q] @ Ginv          # (nb, d) physical gradients
            for i, ni in enumerate(nodes):
                for j, nj in enumerate(nodes):
                    for a in range(d):
                        for b in range(d):
                            if stress == "full-gradient":
                                val = nu * (a == b) * g[i] @ g[j]
                            else:
                                # 2 nu D(phi_j e_b) : D(phi_i e_a)
                                val = nu * ((a == b) * (g[i] @ g[j]) +
                                            g[i][b] * g[j][a])
                            A[ni * d + a, nj * d + b] += wq * det * val
    return A


def divergence(space, degree):
    mesh = space.mesh
    d = mesh.dimension
    rule, vals, grads_loc, pvals = _cell_setup(mesh, conical_rule(d, degree))
    B = np.zeros((space.n_pressure_dofs, space.n_velocity_dofs))
    for c in range(mesh.n_cells):
        nodes = space.cell_nodes[c]
        pnodes = mesh.cells[c]
        _, det, Ginv = _geometry(mesh, c)
        for q, wq in enumerate(rule.weights):
            g = grads_loc[q] @ Ginv
            for i, pi in enumerate(pnodes):
                for j, nj in enumerate(nodes):
                    for b in range(d):
                        B[pi, nj * d + b] += wq * det * pvals[q, i] * g[j][b]
    return B


def convection(space, w_nodal, degree):
    """Convection (w . grad u, psi) and the by-parts skew term without the
    boundary integral (valid for meshes without outflow facets)."""
    mesh = space.mesh
    d = mesh.dimension
    rule, vals, grads_loc, _ = _cell_setup(mesh, conical_rule(d, degree))
    n = space.n_velocity_dofs
    C = np.zeros((n, n))
    T = np.zeros((n, n))
    for c in range(mesh.n_cells):
        nodes = space.cell_nodes[c]
        _, det, Ginv = _geometry(mesh, c)
        wc = w_nodal[nodes]
        for q, wq in enumerate(rule.weights):
            g = grads_loc[q] @ Ginv
            wval = vals[q] @ wc
            for i, ni in enumerate(nodes):
                for j, nj in enumerate(nodes):
                    cij = wq * det * vals[q, i] * (g[j] @ wval)
                    cji = wq * det * vals[q, j] * (g[i] @ wval)
                    for a in range(d):
                        C[ni * d + a, nj * d + a] += cij
                        T[ni * d + a, nj * d + a] -= 0.5 * (cij + cji)
    return C, T



# --- moving maps: every form from F^{-1} at each cell point -----------------


def _moving_points(space, map_, t):
    """Per cell: its velocity and pressure nodes, |det| of the cell, its
    diameter and per point (rule weight, basis values, pressure basis
    values, grad phi F^{-1} (nb, d), J); the space's cell rule."""
    mesh = space.mesh
    rule, vals, grads_loc, pvals = _cell_setup(
        mesh, sampling.rules(mesh.dimension)[0])
    for c in range(mesh.n_cells):
        verts, det, Ginv = _geometry(mesh, c)
        diam = max(np.linalg.norm(a - b) for a in verts for b in verts)
        F = map_.gradient(rule.points @ verts, t,
                          cells=np.full(len(rule.weights), c))
        points = [(wq, vals[q], pvals[q],
                   grads_loc[q] @ Ginv @ np.linalg.inv(F[q]),
                   np.linalg.det(F[q]))
                  for q, wq in enumerate(rule.weights)]
        yield space.cell_nodes[c], mesh.cells[c], det, diam, points


def _dofs(nodes, d):
    """The velocity dofs (i, a) of the nodes, node-major."""
    return (np.asarray(nodes)[:, None] * d + np.arange(d)).ravel()


def moving_convection(space, map_, t, w_nodal):
    """C[(i,a),(j,a)] = int (z . grad phi_j) phi_i with z = J F^{-1} w."""
    d = space.dimension
    n = space.n_velocity_dofs
    C = np.zeros((n, n))
    for nodes, _, det, _, points in _moving_points(space, map_, t):
        dofs = _dofs(nodes, d)
        for wq, v, _, g, J in points:
            wval = v @ w_nodal[nodes]
            local = wq * det * J * np.outer(v, g @ wval)      # [i, j]
            C[np.ix_(dofs, dofs)] += np.kron(local, np.eye(d))
    return C


def moving_viscous(space, map_, t, nu, stress, smagorinsky=None,
                   w_nodal=None):
    """nu_T J (grad u F^{-1}) : (grad psi F^{-1}), or 2 nu_T J D(u) : D(psi)
    for the symmetric stress, with nu_T = nu + (C_s h)^2 sqrt(2 D(w):D(w))
    for a Smagorinsky constant C_s, h the cell diameter."""
    d = space.dimension
    n = space.n_velocity_dofs
    A = np.zeros((n, n))
    for nodes, _, det, diam, points in _moving_points(space, map_, t):
        dofs = _dofs(nodes, d)
        for wq, _, _, g, J in points:
            nu_t = nu
            if smagorinsky is not None:
                gw = w_nodal[nodes].T @ g          # grad w F^{-1}, [a, b]
                D = 0.5 * (gw + gw.T)
                nu_t = nu + (smagorinsky * diam) ** 2 * np.sqrt(
                    2.0 * np.sum(D * D))
            # [i, a, j, b]: delta_ab g_i . g_j (+ g_ib g_ja, symmetric)
            local = np.einsum("ij,ab->iajb", g @ g.T, np.eye(d))
            if stress == "symmetric":
                local += np.einsum("ib,ja->iajb", g, g)
            A[np.ix_(dofs, dofs)] += (wq * det * J * nu_t *
                                      local.reshape(len(dofs), -1))
    return A


def moving_divergence(space, map_, t):
    """B[p, (j,b)] = int J q_p (grad phi_j F^{-1})_b."""
    d = space.dimension
    B = np.zeros((space.n_pressure_dofs, space.n_velocity_dofs))
    for nodes, pnodes, det, _, points in _moving_points(space, map_, t):
        dofs = _dofs(nodes, d)
        for wq, _, pv, g, J in points:
            B[np.ix_(pnodes, dofs)] += wq * det * J * np.outer(pv, g.ravel())
    return B


def moving_gradients(space, map_, t, u_nodal):
    """grad u F^{-1} at the cell points, (nc, nq, d, d) with [a, b] =
    d u_a / d x_b."""
    return np.array([[u_nodal[nodes].T @ g for _, _, _, g, _ in points]
                     for nodes, _, _, _, points in
                     _moving_points(space, map_, t)])
