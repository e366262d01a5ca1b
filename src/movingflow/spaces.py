"""Taylor-Hood velocity/pressure spaces on a simplicial mesh.

The pair is the lowest-order one (velocity degree m_u = 2, pressure degree
1): continuous piecewise-quadratic velocity (vertex and midedge nodes, d
components, interleaved dof order ``node * d + component``) with continuous
piecewise-linear pressure at the vertices.

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

# the boundary kinds, ordered by precedence: the smallest code wins
INTERIOR, NOSLIP_NODE, DIRICHLET_NODE, NEUMANN_NODE = 0, 1, 2, 3
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
        # (nbf, n_facet_nodes) velocity node ids per boundary facet: facet
        # vertices first, then facet midedge nodes
        self.facet_nodes = np.hstack([mesh.boundary_facets,
                                      mesh.n_vertices + mesh.facet_edges])

        # kind and patch of every (facet, node) pair, in facet order
        code = {l: (_KIND_CODE[l.kind], -1 if l.patch is None else l.patch)
                for l in set(mesh.boundary_labels)}
        facet_code = np.array(list(map(code.get, mesh.boundary_labels)),
                              dtype=np.int64).reshape(-1, 2)
        kind, patch = np.repeat(facet_code, self.facet_nodes.shape[1], axis=0).T
        nodes = self.facet_nodes.ravel()

        # sort each node's pairs by kind, then Dirichlet patch, then facet
        # order: the node keeps its first pair
        order = np.lexsort((np.where(kind == DIRICHLET_NODE, patch, 0), kind,
                            nodes))
        nodes, kind, patch = nodes[order], kind[order], patch[order]
        same = nodes[1:] == nodes[:-1]
        head = np.ones(len(nodes), dtype=bool)
        head[1:] = ~same
        self.node_kind = np.zeros(self.n_nodes, dtype=np.int8)
        self.node_patch = np.full(self.n_nodes, -1, dtype=np.int64)
        self.node_kind[nodes[head]] = kind[head]
        self.node_patch[nodes[head]] = patch[head]

        # conflicts show between neighboring pairs of one node: a weaker
        # kind, or a second patch of a Dirichlet node
        weaker = np.unique(nodes[1:][same & (kind[1:] != kind[:-1])])
        if weaker.size:
            log.info("%d boundary nodes: a stronger label overrides weaker "
                     "ones (first node %d)", weaker.size, weaker[0])
        split = np.unique(nodes[1:][
            same & (kind[1:] == DIRICHLET_NODE) & (patch[1:] != patch[:-1])
            & (self.node_kind[nodes[1:]] == DIRICHLET_NODE)])
        if split.size:
            log.info("%d boundary nodes on two dirichlet patches keep the "
                     "smallest (first node %d, keeping patch %d)",
                     split.size, split[0], self.node_patch[split[0]])

    # -- dof helpers -----------------------------------------------------------

    def constrained_dof_mask(self):
        """Velocity dofs with strongly imposed values (noslip or dirichlet
        nodes)."""
        return np.repeat(np.isin(self.node_kind, (NOSLIP_NODE, DIRICHLET_NODE)),
                         self.dimension)


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


def interpolate(space, component, fn):
    """Nodal Lagrange interpolant of ``fn``.

    ``fn`` maps an (n, d) array of node coordinates to values: (n, d) for
    velocity, (n,) for pressure.
    """
    if component == "velocity":
        pts = space.velocity_nodes
    elif component == "pressure":
        pts = space.mesh.vertices
    else:
        raise ValueError(f"unknown component {component!r}")
    values = np.asarray(fn(pts), dtype=float)
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
