import hashlib
import re

import numpy as np
import pytest

from movingflow.elements import LOCAL_EDGES
from movingflow.meshing import (NOSLIP, BoundaryLabel, build_connectivity,
                                dirichlet, generate_box, generate_tube,
                                mesh_quality, neumann, refine_uniform,
                                reference_simplex_mesh)
from movingflow.spaces import TaylorHoodSpace


def test_boundary_label_parsing():
    assert BoundaryLabel.parse("noslip") == NOSLIP
    assert BoundaryLabel.parse("dirichlet:3") == dirichlet(3)
    assert str(neumann(1)) == "neumann:1"
    with pytest.raises(ValueError):
        BoundaryLabel("sticky")
    with pytest.raises(ValueError):
        BoundaryLabel("dirichlet")          # needs a patch id


def test_single_reference_tet_connectivity():
    mesh = reference_simplex_mesh(3)
    assert mesh.n_edges == 6
    assert mesh.n_cells == 1
    assert len(mesh.boundary_facets) == 4
    assert np.all(mesh.cell_volumes() > 0)


def test_unit_square_two_triangles():
    mesh = generate_box(2, (1, 1))
    assert mesh.n_edges == 5
    assert len(mesh.boundary_facets) == 4
    assert abs(mesh.cell_volumes().sum() - 1.0) < 1e-14


def test_index_out_of_range_rejected():
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(IndexError):
        build_connectivity(vertices, [(0, 1, 7)], [(0, 1)], [NOSLIP])
    # facets are matched by codes in base n_vertices: an index outside
    # the vertex range must not alias another facet
    for bad in ((1, 3), (-1, 2)):
        with pytest.raises(IndexError, match="boundary facet"):
            build_connectivity(vertices, [(0, 1, 2)],
                               [(0, 1), (1, 2), bad], [NOSLIP] * 3)


def test_facet_codes_overflow_rejected():
    # 2^21 vertices: the 3D facet codes v0 nv^2 + v1 nv + v2 need nv^3 = 2^63
    vertices = np.zeros((2 ** 21, 3))
    vertices[1:4] = np.eye(3)
    with pytest.raises(ValueError, match="too many to number the facets"):
        build_connectivity(vertices, [(0, 1, 2, 3)], [], [])


def test_dangling_facet_rejected():
    mesh = generate_box(2, (1, 1))
    facets = list(map(tuple, mesh.boundary_facets)) + [(0, 3)]
    labels = list(mesh.boundary_labels) + [NOSLIP]
    with pytest.raises(ValueError, match="dangling|interior"):
        build_connectivity(mesh.vertices, mesh.cells, facets, labels)


def test_nonmanifold_rejected():
    # three triangles sharing one edge
    vertices = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)]
    cells = [(0, 1, 2), (1, 3, 2), (0, 2, 4)]
    # edge (0,2) belongs to cells 0 and 2 -> fine; fabricate a third
    cells.append((0, 1, 2))
    with pytest.raises(ValueError, match="non-manifold"):
        build_connectivity(vertices, cells, [], [])


def test_zero_volume_cell_rejected():
    with pytest.raises(ValueError, match="zero volume"):
        build_connectivity([[0, 0], [1, 0], [2, 0]], [(0, 1, 2)], [], [])


def test_unlabeled_boundary_rejected():
    mesh = generate_box(2, (1, 1))
    with pytest.raises(ValueError, match="no label"):
        build_connectivity(mesh.vertices, mesh.cells,
                           mesh.boundary_facets[:-1],
                           list(mesh.boundary_labels)[:-1])


def test_orientation_fix():
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    mesh = build_connectivity(vertices, [(0, 2, 1)],
                              [(0, 1), (1, 2), (0, 2)], [NOSLIP] * 3)
    assert mesh.cell_volumes()[0] > 0


def test_box_3d_counts():
    mesh = generate_box(3, (2, 2, 2))
    assert mesh.n_cells == 48
    assert mesh.n_vertices == 27
    assert abs(mesh.cell_volumes().sum() - 1.0) < 1e-12


def test_box_quality_and_labels():
    labels = {"xmin": dirichlet(0), "xmax": neumann(0)}
    mesh = generate_box(2, (4, 4), labels=labels)
    q = mesh_quality(mesh)
    assert abs(q.h_max - np.sqrt(2) / 4) < 1e-14
    assert q.h_min <= q.h_max
    assert q.shape_regularity >= 2.0
    kinds = {str(l) for l in mesh.boundary_labels}
    assert kinds == {"noslip", "dirichlet:0", "neumann:0"}


def test_box_volume_exact():
    mesh = generate_box(3, (3, 2, 2), extents=[(0, 3), (0, 1), (0, 2)])
    assert abs(mesh.cell_volumes().sum() - 6.0) < 1e-10


def test_generate_box_validation():
    with pytest.raises(ValueError):
        generate_box(2, (0, 4))
    with pytest.raises(ValueError):
        generate_box(2, (2, 2), labels={"front": NOSLIP})


def test_tube_lateral_vertices_on_surface():
    mesh = generate_tube(3, 2, lambda y: 1.0, (0.0, 1.0))
    lateral = [i for i, l in enumerate(mesh.boundary_labels)
               if l.kind == "noslip"]
    # inlet facets are also noslip by default; select by normal direction
    normals = mesh.boundary_facet_normals()
    side = [i for i in lateral if abs(normals[i][1]) < 0.9]
    vids = np.unique(mesh.boundary_facets[side])
    radii = np.sqrt(mesh.vertices[vids, 0] ** 2 + mesh.vertices[vids, 2] ** 2)
    assert np.abs(radii - 1.0).max() < 1e-12


def test_tube_variable_radius_surface():
    radius = lambda y: np.exp((y / 4 + 1) / 2)
    mesh = generate_tube(4, 2, radius, (-4.0, 4.0))
    normals = mesh.boundary_facet_normals()
    side = [i for i, l in enumerate(mesh.boundary_labels)
            if l.kind == "noslip" and abs(normals[i][1]) < 0.9]
    vids = np.unique(mesh.boundary_facets[side])
    v = mesh.vertices[vids]
    radii = np.sqrt(v[:, 0] ** 2 + v[:, 2] ** 2)
    assert np.abs(radii - radius(v[:, 1])).max() < 1e-12


def test_tube_outlet_is_neumann():
    mesh = generate_tube(3, 2, lambda y: 1.0, (0.0, 1.0))
    normals = mesh.boundary_facet_normals()
    for n, l in zip(normals, mesh.boundary_labels):
        if l.kind == "neumann":
            assert n[1] > 0.99          # outlet faces point along +y


def test_tube_parameter_validation():
    with pytest.raises(ValueError):
        generate_tube(3, 0, lambda y: 1.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        generate_tube(3, 2, lambda y: -1.0, (0.0, 1.0))


def test_tube_volume_converges_with_resolution():
    # red refinement keeps the polyhedral boundary, so the geometric volume
    # defect shrinks with the mesher resolution, not under refine_uniform
    radius = lambda y: np.exp((y / 4 + 1) / 2)
    exact = np.pi * 4 * (np.exp(2) - 1)
    errs = []
    for na, nr in ((4, 2), (8, 4), (16, 8)):
        mesh = generate_tube(na, nr, radius, (-4.0, 4.0))
        errs.append(abs(mesh.cell_volumes().sum() - exact))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    # and refinement preserves the polyhedral volume exactly
    mesh = generate_tube(4, 2, radius, (-4.0, 4.0))
    fine = refine_uniform(mesh)
    assert abs(fine.cell_volumes().sum() - mesh.cell_volumes().sum()) < 1e-10


def test_refine_triangle_counts():
    mesh = generate_box(2, (1, 1))
    fine = refine_uniform(mesh)
    assert fine.n_cells == 8
    assert fine.n_vertices == 9
    finer = refine_uniform(fine)
    assert finer.n_cells == 32


def _label_area(mesh, label):
    areas = mesh.boundary_facet_areas()
    return sum(a for a, l in zip(areas, mesh.boundary_labels) if l == label)


def test_refine_tet_counts():
    mesh = reference_simplex_mesh(3)
    fine = refine_uniform(mesh)
    assert fine.n_cells == 8
    assert fine.n_vertices == 10
    assert np.all(fine.cell_volumes() > 0)
    assert abs(fine.cell_volumes().sum() - 1.0 / 6.0) < 1e-14
    # a refinement that searched all edges per cell would take seconds here
    box = generate_box(3, (4, 4, 4), extents=[(0, 2), (0, 1), (0, 1)],
                       labels={"xmin": dirichlet(0), "xmax": neumann(0)})
    finer = refine_uniform(refine_uniform(box))
    assert finer.n_cells == 24576
    assert np.all(finer.cell_volumes() > 0)
    assert abs(finer.cell_volumes().sum() - 2.0) < 1e-12
    for label, area in ((NOSLIP, 8.0), (dirichlet(0), 1.0), (neumann(0), 1.0)):
        assert abs(_label_area(finer, label) - area) < 1e-12


def test_refine_halves_structured_h():
    mesh = generate_box(3, (2, 2, 2))
    fine = refine_uniform(mesh)
    assert abs(mesh_quality(fine).h_max - 0.5 * mesh_quality(mesh).h_max) < 1e-14


def test_refine_preserves_labels():
    labels = {"xmin": dirichlet(0), "xmax": neumann(0)}
    mesh = generate_box(3, (1, 1, 1), labels=labels)
    fine = refine_uniform(mesh)
    assert len(fine.boundary_facets) == 4 * len(mesh.boundary_facets)
    for label in (NOSLIP, dirichlet(0), neumann(0)):
        assert abs(_label_area(mesh, label) - _label_area(fine, label)) < 1e-12


def test_build_connectivity_idempotent():
    mesh = generate_box(2, (2, 3))
    rebuilt = build_connectivity(mesh.vertices, mesh.cells,
                                 mesh.boundary_facets, mesh.boundary_labels)
    assert np.array_equal(rebuilt.cells, mesh.cells)
    assert np.array_equal(rebuilt.edges, mesh.edges)
    assert np.array_equal(rebuilt.cell_edges, mesh.cell_edges)
    assert np.array_equal(rebuilt.facet_edges, mesh.facet_edges)
    assert rebuilt.boundary_labels == mesh.boundary_labels


def test_meshes_are_immutable():
    mesh = generate_box(2, (2, 2))
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 7.0


def _facet_owners(cells):
    """Brute-force facet -> owning cells, one cell facet at a time, in the
    order the cells and their facets are met."""
    owners = {}
    for c, conn in enumerate(cells):
        for i in range(len(conn)):
            key = tuple(sorted(int(v) for v in np.delete(conn, i)))
            owners.setdefault(key, []).append(c)
    return owners


@pytest.mark.parametrize("make", [
    lambda: generate_box(3, (2, 3, 2)),
    lambda: generate_tube(3, 2, lambda y: 1.0 + 0.1 * y, (0.0, 2.0)),
    lambda: generate_box(2, (3, 2), labels={"xmax": neumann(0)}),
], ids=["box-3d", "tube", "box-2d"])
def test_connectivity_matches_brute_force(make):
    mesh = make()
    owners = _facet_owners(mesh.cells)
    labeled = [tuple(sorted(map(int, f))) for f in mesh.boundary_facets]
    assert set(labeled) == {k for k, o in owners.items() if len(o) == 1}
    assert np.array_equal(mesh.boundary_cells,
                          [owners[k][0] for k in labeled])

    facets, labels = list(mesh.boundary_facets), list(mesh.boundary_labels)
    args = (mesh.vertices, mesh.cells)
    interior = next(k for k, o in owners.items() if len(o) == 2)
    with pytest.raises(ValueError, match=re.escape(
            f"facet {interior} is interior, cannot carry a boundary label")):
        build_connectivity(*args, facets + [interior[::-1]], labels + [NOSLIP])
    d = mesh.dimension
    dangling = tuple(range(d - 1)) + (mesh.n_vertices - 1,)
    assert dangling not in owners
    with pytest.raises(ValueError, match=re.escape(
            f"dangling boundary facet {dangling}: not a face of any cell")):
        build_connectivity(*args, facets + [dangling], labels + [NOSLIP])
    dropped = sorted(labeled[1:3])[0]
    with pytest.raises(ValueError, match=re.escape(
            f"2 boundary facets carry no label (e.g. {dropped})")):
        build_connectivity(*args, facets[:1] + facets[3:],
                           labels[:1] + labels[3:])
    # a repeated cell: its interior facets get three owners
    cells = np.vstack([mesh.cells, mesh.cells[4]])
    shared = next(k for k, o in _facet_owners(cells).items() if len(o) > 2)
    with pytest.raises(ValueError, match=re.escape(
            f"non-manifold facet {shared}: shared by 3 cells")):
        build_connectivity(mesh.vertices, cells, facets, labels)


def _labeled_box_2d():
    # two Dirichlet patches meet at the (xmin, ymin) corner
    return generate_box(2, (4, 3), labels={
        "xmin": dirichlet(0), "ymin": dirichlet(2), "xmax": neumann(0)})


def _labeled_box_3d():
    # two Neumann patches meet along the (ymax, zmax) edge
    return generate_box(3, (2, 3, 2), labels={
        "xmin": dirichlet(3), "ymin": dirichlet(1), "ymax": neumann(2),
        "zmax": neumann(1)})


# sha256 of every topology array of each mesh and of its space's boundary
# classification, recorded from the loop-based generators, refinement and
# classification that the table lookups replaced
_ARRAY_DIGESTS = {
    "box-2d": "b550be94837d392303d905e410660c4580e2cd9a748159dd96941065ee1dacc5",
    "box-2d-dirichlet-patches": "97b3eb6bca9c58edd9ee19a1dc13eada8cd8c47b9f869654715e99026fc31664",
    "box-3d-neumann-patches": "46e1b434234d084d83ea4c5c37220ecc1c44d491d3e0d0fe1f4a68ab94ed1e64",
    "tube": "d5b233a541b73c171243c559d17c4e789702284082111435ed45765ec0b63e47",
    "box-2d-refined": "e749e9b42fdc3f0ad3f826812579982b1be6c53fb03cd2ce07e64ceb51eabdfc",
    "box-2d-refined-twice": "0ca6bd091e7c1fa7b4f917decc71042186207d50ffb6442c4e7ee57b20b2d2ff",
    "box-3d-refined": "d44f62df3d41021d73d9f953df66045f4e2d8b750935e29cadf67b512e71ae28",
    "box-3d-refined-twice": "0948cac582baded7e0a4d432de0adf4ffd1b918988788f255964ba51f6a2cc70",
}

_DIGEST_MESHES = {
    "box-2d": lambda: generate_box(2, (3, 2)),
    "box-2d-dirichlet-patches": _labeled_box_2d,
    "box-3d-neumann-patches": _labeled_box_3d,
    "tube": lambda: generate_tube(3, 2, lambda y: 1.0 + 0.1 * y, (0.0, 2.0),
                                  labels={"inlet": dirichlet(1)}),
    "box-2d-refined": lambda: refine_uniform(_labeled_box_2d()),
    "box-2d-refined-twice": lambda: refine_uniform(
        refine_uniform(_labeled_box_2d())),
    "box-3d-refined": lambda: refine_uniform(_labeled_box_3d()),
    "box-3d-refined-twice": lambda: refine_uniform(
        refine_uniform(_labeled_box_3d())),
}


@pytest.mark.parametrize("name", sorted(_DIGEST_MESHES))
def test_mesh_and_space_arrays_match_recorded_digests(name):
    mesh = _DIGEST_MESHES[name]()
    space = TaylorHoodSpace(mesh)
    h = hashlib.sha256()
    for arr in (mesh.vertices, mesh.cells, mesh.boundary_facets,
                mesh.boundary_cells, mesh.edges, mesh.cell_edges):
        h.update(arr.tobytes())
    h.update(str(mesh.boundary_labels).encode())
    for arr in (space.node_kind, space.node_patch, space.facet_nodes):
        h.update(arr.tobytes())
    assert h.hexdigest() == _ARRAY_DIGESTS[name]


@pytest.mark.parametrize("name", ["tube", "box-2d-dirichlet-patches"])
def test_facet_edges_under_renumbering(name):
    mesh = _DIGEST_MESHES[name]()
    perm = np.random.default_rng(7).permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    renumbered = build_connectivity(vertices, perm[mesh.cells],
                                    perm[mesh.boundary_facets],
                                    mesh.boundary_labels)
    d = mesh.dimension
    facets, edges = renumbered.boundary_facets, renumbered.edges
    assert renumbered.facet_edges.shape == (len(facets), len(LOCAL_EDGES[d - 1]))
    for k, (a, b) in enumerate(LOCAL_EDGES[d - 1]):
        joined = np.sort(facets[:, [a, b]], axis=1)
        assert np.array_equal(edges[renumbered.facet_edges[:, k]], joined)
    # the same node positions carry the same kinds and patches
    classified = []
    for m in (mesh, renumbered):
        space = TaylorHoodSpace(m)
        order = np.lexsort(space.velocity_nodes.T)
        classified.append((space.velocity_nodes[order],
                           space.node_kind[order], space.node_patch[order]))
    for before, after in zip(*classified):
        assert np.array_equal(before, after)
