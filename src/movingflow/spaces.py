"""Taylor-Hood velocity/pressure spaces on a simplicial mesh.

The pair is the lowest-order one (m = 1): continuous piecewise-quadratic
velocity (vertex and midedge nodes, d components, interleaved dof order
``node * d + component``) with continuous piecewise-linear pressure at the
vertices.

Velocity nodes are classified against the labeled boundary facets with
precedence noslip > dirichlet > neumann; conflicts are logged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TaylorHoodSpace", "DiscreteField", "interpolate",
           "INTERIOR", "NOSLIP_NODE", "DIRICHLET_NODE", "NEUMANN_NODE"]

log = logging.getLogger(__name__)

INTERIOR, NOSLIP_NODE, DIRICHLET_NODE, NEUMANN_NODE = 0, 1, 2, 3
_PRECEDENCE = {"noslip": 3, "dirichlet": 2, "neumann": 1}
_KIND_CODE = {"noslip": NOSLIP_NODE, "dirichlet": DIRICHLET_NODE,
              "neumann": NEUMANN_NODE}


class TaylorHoodSpace:
    """Quadratic velocity / linear pressure dof layout over a mesh."""

    def __init__(self, mesh):
        self.mesh = mesh
        d = mesh.dimension
        self.dimension = d

        mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] +
                     mesh.vertices[mesh.edges[:, 1]])
        self.velocity_nodes = np.vstack([mesh.vertices, mid])
        self.n_nodes = len(self.velocity_nodes)
        self.n_velocity_dofs = self.n_nodes * d
        self.n_pressure_dofs = mesh.n_vertices

        # per-cell scalar node ids: vertices then midedge nodes, matching
        # the local edge order of the quadratic basis
        self.cell_nodes = np.hstack([mesh.cells,
                                     mesh.n_vertices + mesh.cell_edges])
        self.n_local = self.cell_nodes.shape[1]

        self._classify_boundary()

    # -- boundary classification ---------------------------------------------

    def _classify_boundary(self):
        mesh = self.mesh
        d = mesh.dimension
        kind = np.zeros(self.n_nodes, dtype=np.int8)
        patch = np.full(self.n_nodes, -1, dtype=np.int64)
        rank = np.zeros(self.n_nodes, dtype=np.int8)

        edge_index = {tuple(e): i for i, e in enumerate(map(tuple, mesh.edges))}

        def facet_node_ids(facet):
            nodes = list(facet)
            if d == 2:
                pairs = [tuple(sorted(facet))]
            else:
                pairs = [tuple(sorted((facet[a], facet[b])))
                         for a, b in ((0, 1), (0, 2), (1, 2))]
            nodes += [mesh.n_vertices + edge_index[p] for p in pairs]
            return nodes

        facet_nodes = []
        for facet, label in zip(mesh.boundary_facets, mesh.boundary_labels):
            ids = facet_node_ids(facet)
            facet_nodes.append(ids)
            r = _PRECEDENCE[label.kind]
            p = -1 if label.patch is None else label.patch
            for n in ids:
                if r > rank[n]:
                    if rank[n] > 0 and kind[n] != _KIND_CODE[label.kind]:
                        log.info("boundary node %d: %s overrides weaker label",
                                 n, label.kind)
                    rank[n] = r
                    kind[n] = _KIND_CODE[label.kind]
                    patch[n] = p
                elif r == rank[n] and kind[n] == DIRICHLET_NODE and p != patch[n]:
                    keep = min(patch[n], p)
                    log.info("boundary node %d on dirichlet patches %d and %d; "
                             "keeping %d", n, patch[n], p, keep)
                    patch[n] = keep
        self.node_kind = kind
        self.node_patch = patch
        # (nbf, n_facet_nodes) velocity node ids per boundary facet: facet
        # vertices first, then facet midedge nodes (3D)
        self.facet_nodes = np.asarray(facet_nodes, dtype=np.int64)

    # -- dof helpers -----------------------------------------------------------

    def velocity_dofs_of_nodes(self, nodes):
        nodes = np.asarray(nodes, dtype=np.int64)
        d = self.dimension
        return (nodes[:, None] * d + np.arange(d)[None, :]).ravel()

    def constrained_nodes(self):
        """Nodes with strongly imposed velocity (noslip or dirichlet)."""
        return np.flatnonzero((self.node_kind == NOSLIP_NODE) |
                              (self.node_kind == DIRICHLET_NODE))

    def constrained_dof_mask(self):
        mask = np.zeros(self.n_velocity_dofs, dtype=bool)
        mask[self.velocity_dofs_of_nodes(self.constrained_nodes())] = True
        return mask


@dataclass
class DiscreteField:
    """Coefficient vector over a space, velocity- or pressure-valued."""

    space: TaylorHoodSpace
    component: str                      # 'velocity' | 'pressure'
    coefficients: np.ndarray = field(default=None)

    def __post_init__(self):
        n = self.expected_length()
        if self.coefficients is None:
            self.coefficients = np.zeros(n)
        else:
            self.coefficients = np.asarray(self.coefficients, dtype=float)
            if self.coefficients.shape != (n,):
                raise ValueError(
                    f"{self.component} field needs {n} coefficients, "
                    f"got shape {self.coefficients.shape}")

    def expected_length(self):
        if self.component == "velocity":
            return self.space.n_velocity_dofs
        if self.component == "pressure":
            return self.space.n_pressure_dofs
        raise ValueError(f"unknown component {self.component!r}")

    def nodal(self):
        """Velocity coefficients reshaped to (n_nodes, d)."""
        if self.component != "velocity":
            raise ValueError("nodal() is for velocity fields")
        return self.coefficients.reshape(self.space.n_nodes,
                                         self.space.dimension)

    def copy(self):
        return DiscreteField(self.space, self.component,
                             self.coefficients.copy())


def interpolate(space, component, fn, t=None):
    """Nodal Lagrange interpolant of ``fn``.

    ``fn`` maps an (n, d) array of node coordinates (and optionally the time)
    to values: (n, d) for velocity, (n,) for pressure.
    """
    if component == "velocity":
        pts = space.velocity_nodes
    elif component == "pressure":
        pts = space.mesh.vertices
    else:
        raise ValueError(f"unknown component {component!r}")
    values = fn(pts) if t is None else fn(pts, t)
    values = np.asarray(values, dtype=float)
    if component == "velocity":
        expected = (len(pts), space.dimension)
        if values.shape != expected:
            raise ValueError(f"velocity data has shape {values.shape}, "
                             f"expected {expected}")
        coeffs = values.ravel()
    else:
        coeffs = values.reshape(-1)
        if coeffs.shape != (len(pts),):
            raise ValueError(f"pressure data has shape {values.shape}, "
                             f"expected ({len(pts)},)")
    if not np.all(np.isfinite(coeffs)):
        bad = int(np.flatnonzero(~np.isfinite(coeffs))[0])
        raise ValueError(f"non-finite interpolation value at dof {bad}")
    return DiscreteField(space, component, coeffs)
