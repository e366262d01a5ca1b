"""File formats: Gmsh 2.2 ASCII input, legacy VTK output, diagnostics CSV
and binary state checkpoints.

VTK files are written at the deformed node positions, so viewers show the
physical domain at the output time.  Quadratic fields are written at the
vertices only; the binary checkpoint keeps the full coefficient vectors for
exact restarts.  All text output uses fixed number formatting, so repeated
runs produce byte-identical files.
"""

from __future__ import annotations

import logging
import struct
from pathlib import Path

import numpy as np

from . import sampling
from .meshing import BoundaryLabel, incident_cells
from .spaces import DiscreteField

__all__ = ["read_gmsh", "write_vtk", "write_checkpoint", "read_checkpoint",
           "write_diagnostics_csv", "GmshError", "CheckpointError"]

log = logging.getLogger(__name__)

_GMSH_TRIANGLE = 2
_GMSH_TET = 4
_GMSH_LINE = 1
_GMSH_POINT = 15

_CHECKPOINT_MAGIC = b"MVFLCKPT"
_CHECKPOINT_VERSION = 1


class GmshError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


def read_gmsh(path, tag_labels):
    """Read a Gmsh MSH 2.2 ASCII file into raw mesh arrays.

    ``tag_labels`` maps physical tags (int or str) of boundary elements to
    label strings ('noslip', 'dirichlet:<id>', 'neumann:<id>').  Returns a
    dict with vertices, cells, boundary_facets and boundary_labels ready for
    mesh assembly.  Lines in 2D meshes and triangles in 3D meshes are the
    boundary elements; stray points/lines are skipped with a warning.
    """
    path = Path(path)
    labels_by_tag = {int(k): BoundaryLabel.parse(v)
                     for k, v in tag_labels.items()}
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]

    def find_section(name):
        for i, ln in enumerate(lines):
            if ln == name:
                return i
        raise GmshError(f"{path}: missing section {name}")

    i = find_section("$MeshFormat")
    fmt = lines[i + 1].split()
    if len(fmt) < 3 or fmt[0] != "2.2":
        raise GmshError(f"{path}: unsupported MSH version {fmt[:1] or '?'}"
                        f" (only 2.2 ASCII is supported)")
    if fmt[1] != "0":
        raise GmshError(f"{path}: binary MSH files are not supported")

    i = find_section("$Nodes")
    n_nodes = int(lines[i + 1])
    ids = np.empty(n_nodes, dtype=np.int64)
    coords = np.empty((n_nodes, 3))
    for k in range(n_nodes):
        parts = lines[i + 2 + k].split()
        ids[k] = int(parts[0])
        coords[k] = [float(v) for v in parts[1:4]]
    id_map = {int(g): k for k, g in enumerate(ids)}

    i = find_section("$Elements")
    n_elem = int(lines[i + 1])
    tris, tri_tags, tets, tet_tags, segs, seg_tags = [], [], [], [], [], []
    skipped = 0
    for k in range(n_elem):
        parts = [int(v) for v in lines[i + 2 + k].split()]
        etype, ntags = parts[1], parts[2]
        tags = parts[3:3 + ntags]
        conn = [id_map[g] for g in parts[3 + ntags:]]
        phys = tags[0] if tags else None
        if etype == _GMSH_TRIANGLE:
            tris.append(conn)
            tri_tags.append(phys)
        elif etype == _GMSH_TET:
            tets.append(conn)
            tet_tags.append(phys)
        elif etype == _GMSH_LINE:
            segs.append(conn)
            seg_tags.append(phys)
        elif etype == _GMSH_POINT:
            skipped += 1
        else:
            raise GmshError(f"{path}: unsupported element type {etype}")
    if skipped:
        log.warning("%s: skipped %d point elements", path, skipped)

    if tets:
        dimension = 3
        cells = np.asarray(tets, dtype=np.int64)
        facets, facet_tags = tris, tri_tags
        if segs:
            log.warning("%s: skipped %d line elements in a 3D mesh",
                        path, len(segs))
        vertices = coords
    else:
        if not tris:
            raise GmshError(f"{path}: no triangle or tetrahedron elements")
        dimension = 2
        cells = np.asarray(tris, dtype=np.int64)
        facets, facet_tags = segs, seg_tags
        vertices = coords[:, :2]

    boundary_facets, boundary_labels = [], []
    for conn, phys in zip(facets, facet_tags):
        if phys is None or phys not in labels_by_tag:
            raise GmshError(f"{path}: boundary element {conn} has no mapped "
                            f"physical tag (tag {phys!r})")
        boundary_facets.append(conn)
        boundary_labels.append(labels_by_tag[phys])
    return {
        "dimension": dimension,
        "vertices": vertices,
        "cells": cells,
        "boundary_facets": np.asarray(boundary_facets, dtype=np.int64),
        "boundary_labels": boundary_labels,
    }


# ---------------------------------------------------------------------------
# legacy VTK writer
# ---------------------------------------------------------------------------


def _fmt(x):
    return f"{x:.16g}"


def _rows(values, spec="%.16g"):
    """The rows of a 2D array as one block of text lines, each value in
    ``spec`` and joined by a space, made by one % operation."""
    line = " ".join([spec] * values.shape[1])
    return "\n".join([line] * len(values)) % tuple(values.ravel().tolist())


def write_vtk(path, mesh, map_, t, u=None, p=None, q_criterion=False):
    """Write a legacy ASCII VTK unstructured grid at the deformed positions.

    Velocity (vertex values of the quadratic field) and pressure are point
    data; the optional vortex-identification scalar q = (||W||^2-||S||^2)/2
    comes from cell-averaged physical velocity gradients.
    """
    d = mesh.dimension
    pos = map_.position(mesh.vertices, t,
                        cells=incident_cells(mesh.cells, mesh.n_vertices))
    pad = np.zeros((mesh.n_vertices, 3 - d))
    lines = ["# vtk DataFile Version 3.0",
             f"movingflow t={_fmt(t)}",
             "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_vertices} double"]
    lines.append(_rows(np.hstack([pos, pad])))
    nc = mesh.n_cells
    lines.append(f"CELLS {nc} {nc * (d + 2)}")
    lines.append(_rows(np.hstack([np.full((nc, 1), d + 1), mesh.cells]),
                       "%d"))
    lines.append(f"CELL_TYPES {nc}")
    ctype = "5" if d == 2 else "10"
    lines.extend([ctype] * nc)

    if u is not None or p is not None:
        lines.append(f"POINT_DATA {mesh.n_vertices}")
    if u is not None:
        lines.append("VECTORS velocity double")
        lines.append(_rows(np.hstack([u.nodal()[:mesh.n_vertices], pad])))
        if q_criterion:
            q = _vertex_q_criterion(u, map_, t)
            lines.append("SCALARS q_criterion double 1")
            lines.append("LOOKUP_TABLE default")
            lines.append(_rows(q[:, None]))
    if p is not None:
        lines.append("SCALARS pressure double 1")
        lines.append("LOOKUP_TABLE default")
        lines.append(_rows(p.coefficients[:, None]))
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)


def _vertex_q_criterion(u, map_, t):
    """Q at the vertices from volume-averaged cell gradients: the level's
    grad u F^{-1} at the cell quadrature points, which a run has already
    evaluated for its energy diagnostics."""
    space = u.space
    mesh = space.mesh
    d = mesh.dimension
    grads = sampling.map_samples(space, map_).field(t, u).gradients
    wts = sampling.cell_data(space).weights
    Gcell = np.einsum("cq,adcq->cad", wts / wts.sum(axis=1, keepdims=True),
                      grads)
    S = 0.5 * (Gcell + np.swapaxes(Gcell, 1, 2))
    W = 0.5 * (Gcell - np.swapaxes(Gcell, 1, 2))
    qcell = 0.5 * (np.einsum("cab,cab->c", W, W) -
                   np.einsum("cab,cab->c", S, S))
    vols = np.abs(mesh.cell_volumes())
    qv = np.zeros(mesh.n_vertices)
    wv = np.zeros(mesh.n_vertices)
    for local in range(d + 1):
        np.add.at(qv, mesh.cells[:, local], qcell * vols)
        np.add.at(wv, mesh.cells[:, local], vols)
    return qv / np.maximum(wv, 1e-300)


# ---------------------------------------------------------------------------
# binary checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(path, state):
    """Raw coefficient vectors with a versioned header, for exact restart."""
    u, p = state.u, state.p
    header = struct.pack("<8sIIqdQQ", _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION,
                         u.space.dimension, state.k, state.t,
                         len(u.coefficients), len(p.coefficients))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(u.coefficients, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(p.coefficients, dtype="<f8").tobytes())
    return Path(path)


def read_checkpoint(path, space):
    from .solver import FlowState

    with open(path, "rb") as fh:
        raw = fh.read(struct.calcsize("<8sIIqdQQ"))
        magic, version, dim, k, t, n_u, n_p = struct.unpack("<8sIIqdQQ", raw)
        if magic != _CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        if version != _CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version "
                                  f"{version}")
        if dim != space.dimension or n_u != space.n_velocity_dofs or \
                n_p != space.n_pressure_dofs:
            raise CheckpointError(f"{path}: checkpoint does not match the "
                                  f"space ({n_u} velocity / {n_p} pressure dofs)")
        u = np.frombuffer(fh.read(8 * n_u), dtype="<f8").copy()
        p = np.frombuffer(fh.read(8 * n_p), dtype="<f8").copy()
    return FlowState(k=k, t=t, u=DiscreteField(space, "velocity", u),
                     p=DiscreteField(space, "pressure", p))


# ---------------------------------------------------------------------------
# diagnostics CSV
# ---------------------------------------------------------------------------

DIAGNOSTIC_COLUMNS = ("step", "time", "kinetic_energy", "divergence_residual",
                      "min_J", "linear_iterations", "linear_residual",
                      "solver_event", "kinetic_rate", "dissipation", "numerical_dissipation",
                      "forcing_power", "reaction_power", "outflow_power",
                      "energy_defect")


def write_diagnostics_csv(path, records):
    with open(path, "w") as fh:
        fh.write(",".join(DIAGNOSTIC_COLUMNS) + "\n")
        for rec in records:
            row = []
            for col in DIAGNOSTIC_COLUMNS:
                v = rec[col]
                row.append("" if v is None else
                           str(v) if isinstance(v, (int, str)) else
                           _fmt(float(v)))
            fh.write(",".join(row) + "\n")
    return Path(path)
