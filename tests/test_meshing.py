import re

import numpy as np
import pytest

from movingflow.meshing import (NOSLIP, BoundaryLabel, build_connectivity,
                                dirichlet, generate_box, generate_tube,
                                mesh_quality, neumann, refine_uniform,
                                reference_simplex_mesh)


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
    with pytest.raises(IndexError):
        build_connectivity([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                           [(0, 1, 7)], [(0, 1)], [NOSLIP])


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


def test_refine_tet_counts():
    mesh = reference_simplex_mesh(3)
    fine = refine_uniform(mesh)
    assert fine.n_cells == 8
    assert fine.n_vertices == 10
    assert np.all(fine.cell_volumes() > 0)
    assert abs(fine.cell_volumes().sum() - 1.0 / 6.0) < 1e-14


def test_refine_halves_structured_h():
    mesh = generate_box(3, (2, 2, 2))
    fine = refine_uniform(mesh)
    assert abs(mesh_quality(fine).h_max - 0.5 * mesh_quality(mesh).h_max) < 1e-14


def test_refine_preserves_labels():
    labels = {"xmin": dirichlet(0), "xmax": neumann(0)}
    mesh = generate_box(3, (1, 1, 1), labels=labels)
    fine = refine_uniform(mesh)
    assert len(fine.boundary_facets) == 4 * len(mesh.boundary_facets)

    def label_area(m, kind):
        areas = m.boundary_facet_areas()
        return sum(a for a, l in zip(areas, m.boundary_labels)
                   if str(l) == kind)

    for kind in ("noslip", "dirichlet:0", "neumann:0"):
        assert abs(label_area(mesh, kind) - label_area(fine, kind)) < 1e-12


def test_build_connectivity_idempotent():
    mesh = generate_box(2, (2, 3))
    rebuilt = build_connectivity(mesh.vertices, mesh.cells,
                                 mesh.boundary_facets, mesh.boundary_labels)
    assert np.array_equal(rebuilt.cells, mesh.cells)
    assert np.array_equal(rebuilt.edges, mesh.edges)
    assert np.array_equal(rebuilt.cell_edges, mesh.cell_edges)
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
