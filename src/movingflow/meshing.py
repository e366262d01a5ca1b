"""Simplicial reference-domain meshes.

The mesh never moves: all domain motion is carried by the space-time map.
This module provides the simplex mesh container with labeled boundary
facets and edge connectivity (needed for quadratic velocity nodes): every
cell and boundary facet reads its edge ids from ``cell_edges`` and
``facet_edges``.  Boxes and tubes are the Kuhn split of a vertex-id grid,
and uniform red refinement splits every cell and facet by fixed local
tables over those edge ids.

Meshes are immutable after construction (arrays are marked read-only);
concurrent read access is safe.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .elements import LOCAL_EDGES

__all__ = [
    "BoundaryLabel", "NOSLIP", "dirichlet", "neumann",
    "SimplicialMesh", "MeshQuality", "build_connectivity",
    "generate_box", "generate_tube", "refine_uniform", "mesh_quality",
    "reference_simplex_mesh",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoundaryLabel:
    """Boundary facet label: kind plus an optional patch id."""

    kind: str            # 'noslip' | 'dirichlet' | 'neumann'
    patch: int | None = None

    def __post_init__(self):
        if self.kind not in ("noslip", "dirichlet", "neumann"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "noslip" and self.patch is not None:
            raise ValueError("noslip labels carry no patch id")
        if self.kind != "noslip" and self.patch is None:
            raise ValueError(f"{self.kind} labels need a patch id")

    def __str__(self):
        return self.kind if self.patch is None else f"{self.kind}:{self.patch}"

    @staticmethod
    def parse(text):
        if ":" in text:
            kind, patch = text.split(":", 1)
            return BoundaryLabel(kind, int(patch))
        return BoundaryLabel(text)


NOSLIP = BoundaryLabel("noslip")


def dirichlet(patch=0):
    return BoundaryLabel("dirichlet", patch)


def neumann(patch=0):
    return BoundaryLabel("neumann", patch)


class SimplicialMesh:
    """Triangle (d=2) or tetrahedral (d=3) mesh with labeled boundary.

    Attributes
    ----------
    vertices : (nv, d) float array
    cells : (nc, d+1) int array, positively oriented
    boundary_facets : (nbf, d) int array of vertex indices
    boundary_labels : list of BoundaryLabel, one per boundary facet
    boundary_cells : (nbf,) index of the unique cell adjacent to each facet
    edges : (ne, 2) sorted unique vertex pairs
    cell_edges : (nc, n_local_edges) edge index per local cell edge
    facet_edges : (nbf, d(d-1)/2) edge index per local boundary facet edge,
        in ``LOCAL_EDGES[d - 1]`` order
    """

    def __init__(self, dimension, vertices, cells, boundary_facets,
                 boundary_labels, boundary_cells, edges, cell_edges,
                 facet_edges):
        self.dimension = dimension
        self.vertices = vertices
        self.cells = cells
        self.boundary_facets = boundary_facets
        self.boundary_labels = tuple(boundary_labels)
        self.boundary_cells = boundary_cells
        self.edges = edges
        self.cell_edges = cell_edges
        self.facet_edges = facet_edges
        for arr in (self.vertices, self.cells, self.boundary_facets,
                    self.boundary_cells, self.edges, self.cell_edges,
                    self.facet_edges):
            arr.setflags(write=False)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return len(self.edges)

    def cell_volumes(self):
        verts = self.vertices[self.cells]
        edge = verts[:, 1:, :] - verts[:, :1, :]
        from math import factorial
        return np.linalg.det(edge) / factorial(self.dimension)

    def boundary_facet_areas(self):
        pts = self.vertices[self.boundary_facets]
        if self.dimension == 2:
            return np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
        cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def boundary_facet_normals(self):
        """Outward unit normals, oriented away from the adjacent cell."""
        pts = self.vertices[self.boundary_facets]
        if self.dimension == 2:
            tang = pts[:, 1] - pts[:, 0]
            normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
        else:
            normal = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        centroid = pts.mean(axis=1)
        inner = self.vertices[self.cells[self.boundary_cells]].mean(axis=1)
        flip = np.einsum("fd,fd->f", normal, centroid - inner) < 0.0
        normal[flip] *= -1.0
        return normal

    def has_neumann_boundary(self):
        return any(lbl.kind == "neumann" for lbl in set(self.boundary_labels))


@dataclass(frozen=True)
class MeshQuality:
    h_max: float
    h_min: float
    shape_regularity: float   # max over cells of diameter / insphere diameter
    cell_count: int
    vertex_count: int
    edge_count: int


def _key(row):
    return tuple(int(v) for v in row)


def build_connectivity(vertices, cells, boundary_facets, boundary_labels):
    """Assemble a validated SimplicialMesh from raw arrays.

    Cell orientation is fixed to positive signed volume (swapping the last
    two vertices where needed), edges are extracted, and the labeled facets
    are checked against the facet-cell adjacency.
    """
    vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
    cells = np.ascontiguousarray(np.asarray(cells, dtype=np.int64))
    d = vertices.shape[1]
    if d not in (2, 3):
        raise ValueError("only 2D and 3D meshes are supported")
    if cells.shape[1] != d + 1:
        raise ValueError(f"cells must have {d + 1} vertices in {d}D")
    if cells.min(initial=0) < 0 or cells.max(initial=-1) >= len(vertices):
        raise IndexError("cell vertex index out of range")

    # orientation: positive signed volume
    verts = vertices[cells]
    edge = verts[:, 1:, :] - verts[:, :1, :]
    vol = np.linalg.det(edge)
    tiny = 1e-14 * max(np.abs(vol).max(initial=0.0), 1e-300)
    if np.any(np.abs(vol) <= tiny):
        raise ValueError(f"cell {int(np.argmin(np.abs(vol)))} has zero volume")
    flip = vol < 0
    cells = cells.copy()
    cells[flip, -2], cells[flip, -1] = cells[flip, -1], cells[flip, -2].copy()

    # facet -> adjacent cells: one sort of the codes sum_j v_j nv^(d-1-j)
    # of the sorted vertex rows of every cell facet (facet i leaves out
    # local vertex i), followed by those of the labeled facets; the codes
    # order as the rows do
    nv = len(vertices)
    if nv ** d > np.iinfo(np.int64).max:
        raise ValueError(f"{nv} vertices are too many to number the facets "
                         f"of a {d}D mesh")
    boundary_facets = np.asarray(boundary_facets, dtype=np.int64).reshape(-1, d)
    if boundary_facets.min(initial=0) < 0 or \
            boundary_facets.max(initial=-1) >= nv:
        raise IndexError("boundary facet vertex index out of range")
    nloc = d + 1
    local = [[j for j in range(nloc) if j != i] for i in range(nloc)]
    faces = np.sort(cells[:, local], axis=2).reshape(-1, d)
    rows = np.concatenate([faces, np.sort(boundary_facets, axis=1)])
    codes, first, inverse = np.unique(rows @ nv ** np.arange(d - 1, -1, -1),
                                      return_index=True, return_inverse=True)
    keys = rows[first]
    counts = np.bincount(inverse[:len(faces)], minlength=len(keys))
    shared = np.flatnonzero(counts > 2)
    if shared.size:
        bad = shared[np.argmin(first[shared])]     # the first one met
        raise ValueError(f"non-manifold facet {_key(keys[bad])}: shared by "
                         f"{counts[bad]} cells")

    if len(boundary_facets) != len(boundary_labels):
        raise ValueError("one label per boundary facet required")
    slot = inverse[len(faces):]
    wrong = np.flatnonzero(counts[slot] != 1)
    if wrong.size:
        key = _key(keys[slot[wrong[0]]])
        if counts[slot[wrong[0]]] == 0:
            raise ValueError(f"dangling boundary facet {key}: not a face of "
                             "any cell")
        raise ValueError(f"facet {key} is interior, cannot carry a boundary "
                         "label")
    owners = first[slot] // nloc
    missing = counts == 1
    missing[slot] = False
    if missing.any():
        raise ValueError(f"{int(missing.sum())} boundary facets carry no "
                         f"label (e.g. {_key(keys[np.argmax(missing)])})")

    # edges: unique sorted vertex pairs v0 < v1 in lexicographic order, as
    # the sorted codes v0 * nv + v1; facet edges are found in those codes
    pairs = np.sort(cells[:, LOCAL_EDGES[d]], axis=2)
    codes, cell_edges = np.unique(pairs[..., 0] * nv + pairs[..., 1],
                                  return_inverse=True)
    edges = np.stack(divmod(codes, nv), axis=1)
    pairs = np.sort(boundary_facets[:, LOCAL_EDGES[d - 1]], axis=2)
    facet_edges = np.searchsorted(codes, pairs[..., 0] * nv + pairs[..., 1])

    return SimplicialMesh(
        dimension=d, vertices=vertices, cells=cells,
        boundary_facets=boundary_facets, boundary_labels=list(boundary_labels),
        boundary_cells=owners, edges=edges,
        cell_edges=cell_edges.reshape(len(cells), -1), facet_edges=facet_edges)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _kuhn_cells(ids):
    """Kuhn split of every cell of a d-dimensional vertex-id grid.

    Each grid cell gives d! simplices, one per permutation of the axes: the
    path from the cell's low corner to its high corner that steps along the
    axes in that order.  The same split in every cell keeps shared faces
    conforming.  Rows run grid cell major, then over the permutations.
    """
    d = ids.ndim
    counts = [n - 1 for n in ids.shape]

    def corner(offset):
        return ids[tuple(slice(o, o + n) for o, n in zip(offset, counts))]

    paths = []
    for perm in itertools.permutations(range(d)):
        offset = [0] * d
        path = [corner(offset)]
        for axis in perm:
            offset[axis] = 1
            path.append(corner(offset))
        paths.append(np.stack(path, axis=-1))
    return np.stack(paths, axis=-2).reshape(-1, d + 1)


def _quad_facets(grids):
    """Boundary triangles (a, b, c), (a, c, d) of every grid quad
    a, b, c, d = g[i, j], g[i+1, j], g[i+1, j+1], g[i, j+1] of each 2D
    vertex-id grid g (all of one shape).  Shape (n0, n1, len(grids), 2, 3):
    the quads of the grids interleave, grid cell major."""
    g = np.stack(grids, axis=-1)
    quads = np.stack([g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:]], axis=-1)
    return quads[..., [[0, 1, 2], [0, 2, 3]]]


_BOX_FACES = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")


def generate_box(dimension, divisions, extents=None, labels=None):
    """Structured simplex mesh of an axis-aligned box.

    The Kuhn split of the grid gives 2 triangles per grid quad (d=2) and 6
    tetrahedra around the main diagonal of each grid hex (d=3), so
    neighboring cells conform.  Outer faces are labeled per ``labels``
    (face name -> label), defaulting to noslip everywhere.
    """
    d = dimension
    divisions = tuple(int(n) for n in np.atleast_1d(divisions)) if not np.isscalar(divisions) \
        else (int(divisions),) * d
    if len(divisions) != d or any(n < 1 for n in divisions):
        raise ValueError("need one positive division count per axis")
    if extents is None:
        extents = [(0.0, 1.0)] * d
    face_names = _BOX_FACES[:2 * d]
    labels = dict(labels or {})
    for name in labels:
        if name not in face_names:
            raise ValueError(f"unknown box face {name!r}")
    face_label = {name: labels.get(name, NOSLIP) for name in face_names}

    axes = [np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(extents, divisions)]
    vertices = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                        axis=1)
    ids = np.arange(len(vertices)).reshape([n + 1 for n in divisions])
    # per axis, the min and max faces, their facets interleaved
    facets, labs = [], []
    for axis in range(d):
        ends = [np.take(ids, 0, axis), np.take(ids, -1, axis)]
        if d == 2:                                  # one segment per edge
            g = np.stack(ends, axis=-1)
            group = np.stack([g[:-1], g[1:]], axis=-1)
        else:
            group = _quad_facets(ends)
        facets.append(group.reshape(-1, d))
        lo, hi = face_names[2 * axis:2 * axis + 2]
        pattern = [face_label[lo]] * (d - 1) + [face_label[hi]] * (d - 1)
        labs += pattern * (len(facets[-1]) // len(pattern))
    return build_connectivity(vertices, _kuhn_cells(ids), np.vstack(facets),
                              labs)


def _square_to_disk(u, v):
    """Map [-1,1]^2 onto the unit disk; the square boundary lands exactly on
    the unit circle."""
    return u * np.sqrt(1.0 - 0.5 * v * v), v * np.sqrt(1.0 - 0.5 * u * u)


def generate_tube(axial_divisions, radial_divisions, radius_fn, y_range,
                  labels=None):
    """Structured tet mesh of a tube around the x2 axis with radius r(y).

    A square cross-section grid is mapped to the disk, scaled per section to
    r(y), extruded along the axis and split into tets.  Default labels:
    lateral surface and inlet (min y) noslip, outlet (max y) neumann(0).
    """
    na, nr = int(axial_divisions), int(radial_divisions)
    if na < 1 or nr < 1:
        raise ValueError("axial and radial division counts must be >= 1")
    y0, y1 = map(float, y_range)
    ys = np.linspace(y0, y1, na + 1)
    radii = np.array([float(radius_fn(y)) for y in ys])
    if np.any(radii <= 0.0):
        raise ValueError("radius function must be positive on the axial range")
    labels = dict(labels or {})
    for name in labels:
        if name not in ("lateral", "inlet", "outlet"):
            raise ValueError(f"unknown tube face {name!r}")
    lab_lat = labels.get("lateral", NOSLIP)
    lab_in = labels.get("inlet", NOSLIP)
    lab_out = labels.get("outlet", neumann(0))

    m = 2 * nr                      # grid cells per cross-section direction
    grid = np.linspace(-1.0, 1.0, m + 1)
    U, V = np.meshgrid(grid, grid, indexing="ij")
    DX, DZ = _square_to_disk(U, V)  # (m+1, m+1) unit-disk coordinates

    r = radii[:, None, None]
    y = np.broadcast_to(ys[:, None, None], (na + 1, m + 1, m + 1))
    vertices = np.stack([r * DX, y, r * DZ], axis=-1).reshape(-1, 3)
    ids = np.arange(len(vertices)).reshape(na + 1, m + 1, m + 1)

    # lateral surface: the four sides of the section grid, extruded; each
    # side grid is transposed so its quads run section major
    sides = [ids[:, :, 0], ids[:, :, m], ids[:, 0, :], ids[:, m, :]]
    lateral = _quad_facets([side.T for side in sides]).swapaxes(0, 1)
    disks = _quad_facets([ids[0], ids[na]])        # inlet / outlet
    facets = np.vstack([lateral.reshape(-1, 3), disks.reshape(-1, 3)])
    labs = ([lab_lat] * (lateral.size // 3)
            + [lab_in, lab_in, lab_out, lab_out] * (m * m))
    return build_connectivity(vertices, _kuhn_cells(ids), facets, labs)


# ---------------------------------------------------------------------------
# Uniform red refinement
# ---------------------------------------------------------------------------


# Children as rows of local node ids: the cell's (or facet's) vertices, then
# the midpoints of its edges in LOCAL_EDGES order.
_RED_TRIANGLES = np.array([(0, 3, 4), (1, 5, 3), (2, 4, 5), (3, 5, 4)])
_RED_FACETS = {2: np.array([(0, 2), (2, 1)]),
               3: np.array([(0, 3, 4), (1, 3, 5), (2, 4, 5), (3, 5, 4)])}
# A tet gives its four corner tets and four tets around one diagonal of the
# octahedron of its edge midpoints: m01-m23, m02-m13 or m03-m12.  The
# octahedron's equator around each diagonal is a fixed 4-cycle.
_OCT_DIAGONALS = np.array([(4, 9), (5, 8), (6, 7)])
_OCT_RINGS = ((5, 6, 8, 7), (4, 6, 9, 7), (4, 5, 9, 8))
_RED_TETS = np.array([
    [(0, 4, 5, 6), (1, 4, 7, 8), (2, 5, 7, 9), (3, 6, 8, 9)]
    + [(a, b, ring[k], ring[(k + 1) % 4]) for k in range(4)]
    for (a, b), ring in zip(_OCT_DIAGONALS, _OCT_RINGS)])


def refine_uniform(mesh):
    """Red refinement: each triangle -> 4 children, each tet -> 8 children
    (octahedron split along its shortest interior diagonal, ties to the
    first).  Boundary facets inherit their parent's label."""
    d = mesh.dimension
    nv = mesh.n_vertices
    mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mid])
    nodes = np.hstack([mesh.cells, nv + mesh.cell_edges])
    if d == 2:
        cells = nodes[:, _RED_TRIANGLES]
    else:
        diff = (vertices[nodes[:, _OCT_DIAGONALS[:, 0]]]
                - vertices[nodes[:, _OCT_DIAGONALS[:, 1]]])
        # lengths as np.linalg.norm gives them for one vector, the root of
        # one dot product, so near-ties break the same way for any batch
        squares = (diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
        diagonal = np.argmin(np.sqrt(squares), axis=1)
        cells = nodes[np.arange(len(nodes))[:, None, None],
                      _RED_TETS[diagonal]]
    facet_nodes = np.hstack([mesh.boundary_facets, nv + mesh.facet_edges])
    facets = facet_nodes[:, _RED_FACETS[d]].reshape(-1, d)
    labels = np.repeat(np.array(mesh.boundary_labels, dtype=object),
                       len(_RED_FACETS[d]))
    return build_connectivity(vertices, cells.reshape(-1, d + 1), facets,
                              labels)


def mesh_quality(mesh):
    verts = mesh.vertices[mesh.cells]
    d = mesh.dimension
    # simplex diameter = longest edge
    a, b = np.array(LOCAL_EDGES[d]).T
    elen = np.linalg.norm(verts[:, a, :] - verts[:, b, :], axis=2)
    diam = elen.max(axis=1)
    vol = np.abs(mesh.cell_volumes())
    # insphere radius r = d * |V| / (sum of facet measures)
    surf = np.zeros(len(mesh.cells))
    for i in range(d + 1):
        fpts = verts[:, [j for j in range(d + 1) if j != i], :]
        if d == 2:
            surf += np.linalg.norm(fpts[:, 1] - fpts[:, 0], axis=1)
        else:
            cr = np.cross(fpts[:, 1] - fpts[:, 0], fpts[:, 2] - fpts[:, 0])
            surf += 0.5 * np.linalg.norm(cr, axis=1)
    insphere_diam = 2.0 * d * vol / surf
    return MeshQuality(
        h_max=float(diam.max()), h_min=float(diam.min()),
        shape_regularity=float((diam / insphere_diam).max()),
        cell_count=mesh.n_cells, vertex_count=mesh.n_vertices,
        edge_count=mesh.n_edges)


def reference_simplex_mesh(d, label=NOSLIP):
    """Single unit reference simplex with all facets carrying ``label``."""
    if d == 2:
        vertices = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        cells = [(0, 1, 2)]
        facets = [(0, 1), (1, 2), (0, 2)]
    else:
        vertices = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                    (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        cells = [(0, 1, 2, 3)]
        facets = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return build_connectivity(vertices, cells, facets, [label] * len(facets))
