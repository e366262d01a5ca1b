import logging

import numpy as np
import pytest

from movingflow.meshing import dirichlet, generate_box, neumann
from movingflow.spaces import (DIRICHLET_NODE, INTERIOR, NEUMANN_NODE,
                               NOSLIP_NODE, DiscreteField, TaylorHoodSpace,
                               interpolate)
from movingflow import sampling


def test_dof_counts():
    mesh = generate_box(2, (3, 3))
    space = TaylorHoodSpace(mesh)
    assert space.n_velocity_dofs == (mesh.n_vertices + mesh.n_edges) * 2
    assert space.n_pressure_dofs == mesh.n_vertices


def test_boundary_classification_geometry():
    labels = {"xmin": dirichlet(0), "xmax": neumann(0)}
    mesh = generate_box(2, (3, 3), labels=labels)
    space = TaylorHoodSpace(mesh)
    X = space.velocity_nodes
    for n in np.flatnonzero(space.node_kind == DIRICHLET_NODE):
        assert abs(X[n, 0]) < 1e-14              # on the xmin face
    for n in np.flatnonzero(space.node_kind == NEUMANN_NODE):
        assert abs(X[n, 0] - 1.0) < 1e-14
    for n in np.flatnonzero(space.node_kind == NOSLIP_NODE):
        on_wall = min(abs(X[n, 1]), abs(X[n, 1] - 1.0)) < 1e-14
        assert on_wall
    interior = np.flatnonzero(space.node_kind == INTERIOR)
    assert interior.size > 0
    for n in interior:
        assert (X[n] > 1e-14).all() and (X[n] < 1 - 1e-14).all()


def test_noslip_wins_at_corners():
    # xmin dirichlet meets noslip walls at two corners; noslip precedence
    labels = {"xmin": dirichlet(0)}
    mesh = generate_box(2, (2, 2), labels=labels)
    space = TaylorHoodSpace(mesh)
    corner = np.flatnonzero(
        (np.abs(space.velocity_nodes[:, 0]) < 1e-14) &
        (np.abs(space.velocity_nodes[:, 1]) < 1e-14))
    assert space.node_kind[corner[0]] == NOSLIP_NODE


def test_two_dirichlet_patches_keep_the_smallest(caplog):
    # xmin (patch 3) facets come before ymin (patch 1) facets; xmax neumann
    # meets both noslip and dirichlet, ymax noslip meets xmin
    labels = {"xmin": dirichlet(3), "ymin": dirichlet(1), "xmax": neumann(0)}
    mesh = generate_box(2, (4, 3), labels=labels)
    with caplog.at_level(logging.INFO, logger="movingflow.spaces"):
        space = TaylorHoodSpace(mesh)
    X = space.velocity_nodes
    corner = np.flatnonzero((X == 0.0).all(axis=1))
    assert space.node_kind[corner] == DIRICHLET_NODE
    assert space.node_patch[corner] == 1
    xmin = np.flatnonzero((X[:, 0] == 0.0) & (X[:, 1] > 0.0) & (X[:, 1] < 1.0))
    assert np.all(space.node_kind[xmin] == DIRICHLET_NODE)
    assert np.all(space.node_patch[xmin] == 3)
    # one record per kind of conflict
    messages = [rec.getMessage() for rec in caplog.records]
    assert [m for m in messages if "dirichlet patches" in m] == [
        "1 boundary nodes on two dirichlet patches keep the smallest "
        "(first node 0, keeping patch 1)"]
    overrides = [m for m in messages if "overrides" in m]
    assert len(overrides) == 1
    assert overrides[0].startswith("3 boundary nodes")


def test_interpolate_reproduces_quadratics():
    mesh = generate_box(2, (2, 2))
    space = TaylorHoodSpace(mesh)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((2, 6))

    def quad(X):
        x, y = X[:, 0], X[:, 1]
        basis = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=1)
        return basis @ coeffs.T

    u = interpolate(space, "velocity", quad)
    # evaluate the interpolant at the cell quadrature points and compare
    data = sampling.cell_data(space)
    vals = np.moveaxis(sampling.point_values(
        data, sampling.cell_components(space, u.nodal())), 0, -1)
    exact = quad(data.points.reshape(-1, 2)).reshape(vals.shape)
    assert np.abs(vals - exact).max() < 1e-13


def test_interpolate_constant_velocity():
    mesh = generate_box(3, (1, 1, 1))
    space = TaylorHoodSpace(mesh)
    u = interpolate(space, "velocity", lambda X: np.ones_like(X))
    assert np.allclose(u.coefficients, 1.0)


def test_pressure_interpolant_misses_bilinear():
    mesh = generate_box(2, (1, 1))
    space = TaylorHoodSpace(mesh)
    p = interpolate(space, "pressure", lambda X: X[:, 0] * X[:, 1])
    # linear interpolant of x*y on the square cannot match at edge midpoints
    mid = np.array([[0.5, 0.5]])
    cells = mesh.cells
    # evaluate P1 interpolant at the diagonal midpoint of cell 0
    verts = mesh.vertices[cells[0]]
    vals = p.coefficients[cells[0]]
    # barycentric coordinates of the midpoint in cell 0
    A = np.vstack([verts.T, np.ones(3)])
    lam = np.linalg.solve(A, np.array([0.5, 0.5, 1.0]))
    interp = lam @ vals
    assert abs(interp - 0.25) > 1e-3


def test_interpolate_rejects_nonfinite():
    mesh = generate_box(2, (1, 1))
    space = TaylorHoodSpace(mesh)

    def bad(X):
        out = np.ones_like(X)
        out[0, 0] = np.nan
        return out

    with pytest.raises(ValueError, match="non-finite"):
        interpolate(space, "velocity", bad)


def test_discrete_field_length_validation():
    mesh = generate_box(2, (1, 1))
    space = TaylorHoodSpace(mesh)
    with pytest.raises(ValueError):
        DiscreteField(space, "velocity", np.zeros(3))
    with pytest.raises(ValueError):
        DiscreteField(space, "temperature")
