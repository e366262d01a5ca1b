"""Simplicial reference-domain meshes.

The mesh never moves: all domain motion is carried by the space-time map.
This module provides the simplex mesh container with labeled boundary
facets and edge connectivity (needed for quadratic velocity nodes),
structured generators for boxes and tubes, and uniform red refinement.

Meshes are immutable after construction (arrays are marked read-only);
concurrent read access is safe.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

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


# local edges of a simplex: all vertex pairs in lexicographic order; this
# order fixes the layout of quadratic midedge nodes everywhere downstream
def _local_edges(d):
    return [(a, b) for a in range(d + 1) for b in range(a + 1, d + 1)]


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
    """

    def __init__(self, dimension, vertices, cells, boundary_facets,
                 boundary_labels, boundary_cells, edges, cell_edges):
        self.dimension = dimension
        self.vertices = vertices
        self.cells = cells
        self.boundary_facets = boundary_facets
        self.boundary_labels = tuple(boundary_labels)
        self.boundary_cells = boundary_cells
        self.edges = edges
        self.cell_edges = cell_edges
        for arr in (self.vertices, self.cells, self.boundary_facets,
                    self.boundary_cells, self.edges, self.cell_edges):
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
        return any(lbl.kind == "neumann" for lbl in self.boundary_labels)


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


def _unique_rows(rows):
    """``np.unique(rows, axis=0, return_index=True, return_inverse=True)``
    for integer rows, through one stable lexsort of the columns."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], order[new], inverse


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

    # facet -> adjacent cells: one sort of the sorted vertex rows
    # of every cell facet (facet i leaves out local vertex i), followed by
    # those of the labeled facets
    nloc = d + 1
    local = [[j for j in range(nloc) if j != i] for i in range(nloc)]
    faces = np.sort(cells[:, local], axis=2).reshape(-1, d)
    boundary_facets = np.asarray(boundary_facets, dtype=np.int64).reshape(-1, d)
    keys, first, inverse = _unique_rows(
        np.concatenate([faces, np.sort(boundary_facets, axis=1)]))
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

    # edges: unique sorted vertex pairs, lexicographic order
    locals_ = _local_edges(d)
    pairs = np.sort(cells[:, locals_].reshape(-1, 2), axis=1)
    edges, _, inverse = _unique_rows(pairs)
    cell_edges = inverse.reshape(len(cells), len(locals_))

    return SimplicialMesh(
        dimension=d, vertices=vertices, cells=cells,
        boundary_facets=boundary_facets, boundary_labels=list(boundary_labels),
        boundary_cells=owners, edges=edges, cell_edges=cell_edges)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

_BOX_FACES_2D = ("xmin", "xmax", "ymin", "ymax")
_BOX_FACES_3D = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")


def generate_box(dimension, divisions, extents=None, labels=None):
    """Structured simplex mesh of an axis-aligned box.

    Each grid quad is split into 2 triangles (d=2); each grid hex into 6
    tetrahedra along a consistent main diagonal (d=3), so neighboring cells
    conform.  Outer faces are labeled per ``labels`` (face name -> label),
    defaulting to noslip everywhere.
    """
    d = dimension
    divisions = tuple(int(n) for n in np.atleast_1d(divisions)) if not np.isscalar(divisions) \
        else (int(divisions),) * d
    if len(divisions) != d or any(n < 1 for n in divisions):
        raise ValueError("need one positive division count per axis")
    if extents is None:
        extents = [(0.0, 1.0)] * d
    face_names = _BOX_FACES_2D if d == 2 else _BOX_FACES_3D
    labels = dict(labels or {})
    for name in labels:
        if name not in face_names:
            raise ValueError(f"unknown box face {name!r}")
    face_label = {name: labels.get(name, NOSLIP) for name in face_names}

    axes = [np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(extents, divisions)]
    if d == 2:
        nx, ny = divisions
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        vertices = np.stack([X.ravel(), Y.ravel()], axis=1)

        def vid(i, j):
            return i * (ny + 1) + j

        cells = []
        for i in range(nx):
            for j in range(ny):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
                cells.append((v00, v10, v11))
                cells.append((v00, v11, v01))
        facets, labs = [], []
        for j in range(ny):
            facets.append((vid(0, j), vid(0, j + 1)));     labs.append(face_label["xmin"])
            facets.append((vid(nx, j), vid(nx, j + 1)));   labs.append(face_label["xmax"])
        for i in range(nx):
            facets.append((vid(i, 0), vid(i + 1, 0)));     labs.append(face_label["ymin"])
            facets.append((vid(i, ny), vid(i + 1, ny)));   labs.append(face_label["ymax"])
        return build_connectivity(vertices, cells, facets, labs)

    nx, ny, nz = divisions
    X, Y, Z = np.meshgrid(axes[0], axes[1], axes[2], indexing="ij")
    vertices = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    def vid3(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    cells = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                corner = [vid3(i + a, j + b, k + c)
                          for a in (0, 1) for b in (0, 1) for c in (0, 1)]
                cells.extend(_hex_to_tets(corner))
    facets, labs = [], []

    def quad(vids, label):
        a, b, c, dd = vids
        facets.append((a, b, c)); labs.append(label)
        facets.append((a, c, dd)); labs.append(label)

    for j in range(ny):
        for k in range(nz):
            quad([vid3(0, j, k), vid3(0, j + 1, k), vid3(0, j + 1, k + 1),
                  vid3(0, j, k + 1)], face_label["xmin"])
            quad([vid3(nx, j, k), vid3(nx, j + 1, k), vid3(nx, j + 1, k + 1),
                  vid3(nx, j, k + 1)], face_label["xmax"])
    for i in range(nx):
        for k in range(nz):
            quad([vid3(i, 0, k), vid3(i + 1, 0, k), vid3(i + 1, 0, k + 1),
                  vid3(i, 0, k + 1)], face_label["ymin"])
            quad([vid3(i, ny, k), vid3(i + 1, ny, k), vid3(i + 1, ny, k + 1),
                  vid3(i, ny, k + 1)], face_label["ymax"])
    for i in range(nx):
        for j in range(ny):
            quad([vid3(i, j, 0), vid3(i + 1, j, 0), vid3(i + 1, j + 1, 0),
                  vid3(i, j + 1, 0)], face_label["zmin"])
            quad([vid3(i, j, nz), vid3(i + 1, j, nz), vid3(i + 1, j + 1, nz),
                  vid3(i, j + 1, nz)], face_label["zmax"])
    return build_connectivity(vertices, cells, facets, labs)


def _hex_to_tets(c):
    """Kuhn split of a hex into 6 tets around the main diagonal c[0]-c[7].

    Corner order: c[(a<<2) | (b<<1) | cc] for offsets (a, b, cc) along the
    three axes.  The same split in every hex keeps shared faces conforming.
    """
    paths = [(4, 6, 7), (4, 5, 7), (2, 6, 7), (2, 3, 7), (1, 5, 7), (1, 3, 7)]
    return [(c[0], c[p], c[q], c[r]) for p, q, r in paths]


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

    nsec = (m + 1) * (m + 1)
    vertices = np.empty(((na + 1) * nsec, 3))
    for layer, (y, r) in enumerate(zip(ys, radii)):
        base = layer * nsec
        vertices[base:base + nsec, 0] = (r * DX).ravel()
        vertices[base:base + nsec, 1] = y
        vertices[base:base + nsec, 2] = (r * DZ).ravel()

    def vid(layer, i, j):
        return layer * nsec + i * (m + 1) + j

    cells = []
    for layer in range(na):
        for i in range(m):
            for j in range(m):
                corner = [vid(layer + a, i + b, j + c)
                          for a in (0, 1) for b in (0, 1) for c in (0, 1)]
                cells.extend(_hex_to_tets(corner))

    facets, labs = [], []

    def quad(vids, label):
        a, b, c, d = vids
        facets.append((a, b, c)); labs.append(label)
        facets.append((a, c, d)); labs.append(label)

    # lateral surface: the four sides of the section grid, extruded
    for layer in range(na):
        for i in range(m):
            quad([vid(layer, i, 0), vid(layer, i + 1, 0),
                  vid(layer + 1, i + 1, 0), vid(layer + 1, i, 0)], lab_lat)
            quad([vid(layer, i, m), vid(layer, i + 1, m),
                  vid(layer + 1, i + 1, m), vid(layer + 1, i, m)], lab_lat)
            quad([vid(layer, 0, i), vid(layer, 0, i + 1),
                  vid(layer + 1, 0, i + 1), vid(layer + 1, 0, i)], lab_lat)
            quad([vid(layer, m, i), vid(layer, m, i + 1),
                  vid(layer + 1, m, i + 1), vid(layer + 1, m, i)], lab_lat)
    # inlet / outlet disks
    for i in range(m):
        for j in range(m):
            quad([vid(0, i, j), vid(0, i + 1, j), vid(0, i + 1, j + 1),
                  vid(0, i, j + 1)], lab_in)
            quad([vid(na, i, j), vid(na, i + 1, j), vid(na, i + 1, j + 1),
                  vid(na, i, j + 1)], lab_out)
    return build_connectivity(vertices, cells, facets, labs)


# ---------------------------------------------------------------------------
# Uniform red refinement
# ---------------------------------------------------------------------------


def refine_uniform(mesh):
    """Red refinement: each triangle -> 4 children, each tet -> 8 children
    (octahedron split along its shortest interior diagonal).  Boundary
    facets inherit their parent's label."""
    d = mesh.dimension
    nv = mesh.n_vertices
    mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mid])
    edge_mid = {tuple(e): nv + i for i, e in enumerate(map(tuple, mesh.edges))}

    def m(a, b):
        return edge_mid[(a, b) if a < b else (b, a)]

    cells = []
    if d == 2:
        for v0, v1, v2 in mesh.cells:
            m01, m02, m12 = m(v0, v1), m(v0, v2), m(v1, v2)
            cells += [(v0, m01, m02), (v1, m12, m01), (v2, m02, m12),
                      (m01, m12, m02)]
        facets, labs = [], []
        for (a, b), lbl in zip(mesh.boundary_facets, mesh.boundary_labels):
            mab = m(a, b)
            facets += [(a, mab), (mab, b)]
            labs += [lbl, lbl]
    else:
        for v0, v1, v2, v3 in mesh.cells:
            m01, m02, m03 = m(v0, v1), m(v0, v2), m(v0, v3)
            m12, m13, m23 = m(v1, v2), m(v1, v3), m(v2, v3)
            cells += [(v0, m01, m02, m03), (v1, m01, m12, m13),
                      (v2, m02, m12, m23), (v3, m03, m13, m23)]
            # octahedron m01 m02 m03 m12 m13 m23: pick the shortest of the
            # three interior diagonals, then fan 4 tets around it
            diags = [(m01, m23), (m02, m13), (m03, m12)]
            lengths = [np.linalg.norm(vertices[a] - vertices[b]) for a, b in diags]
            a, b = diags[int(np.argmin(lengths))]
            ring = [v for v in (m01, m02, m03, m12, m13, m23) if v not in (a, b)]
            ring = _octahedron_ring(ring, edge_mid, vertices)
            for r0, r1 in zip(ring, ring[1:] + ring[:1]):
                cells.append((a, b, r0, r1))
        facets, labs = [], []
        for (a, b, c), lbl in zip(mesh.boundary_facets, mesh.boundary_labels):
            mab, mac, mbc = m(a, b), m(a, c), m(b, c)
            facets += [(a, mab, mac), (b, mab, mbc), (c, mac, mbc),
                       (mab, mbc, mac)]
            labs += [lbl] * 4
    return build_connectivity(vertices, cells, facets, labs)


def _octahedron_ring(ring, edge_mid, vertices):
    """Order 4 equator vertices of the midpoint octahedron into a cycle.

    Two midpoint vertices are adjacent iff their parent edges share a parent
    vertex; consecutive ring entries must be adjacent."""
    parents = {}
    for key, idx in edge_mid.items():
        parents[idx] = set(key)
    ordered = [ring[0]]
    remaining = list(ring[1:])
    while remaining:
        last = ordered[-1]
        for cand in remaining:
            if parents[cand] & parents[last]:
                ordered.append(cand)
                remaining.remove(cand)
                break
        else:
            raise AssertionError("octahedron equator is not a cycle")
    return ordered


def mesh_quality(mesh):
    verts = mesh.vertices[mesh.cells]
    d = mesh.dimension
    # simplex diameter = longest edge
    locals_ = _local_edges(d)
    elen = np.linalg.norm(verts[:, [a for a, _ in locals_], :] -
                          verts[:, [b for _, b in locals_], :], axis=2)
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
