import numpy as np
import pytest

from movingflow.fileio import (CheckpointError, GmshError, read_checkpoint,
                               read_gmsh, write_checkpoint,
                               write_diagnostics_csv, write_vtk)
from movingflow.maps import AxisScalingMap, IdentityMap, TubeShrinkMap
from movingflow.meshing import build_connectivity, generate_box, generate_tube
from movingflow.solver import FlowState
from movingflow.spaces import DiscreteField, TaylorHoodSpace, interpolate

GMSH_TWO_TETS = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
5
1 0 0 0
2 1 0 0
3 0 1 0
4 0 0 1
5 1 1 1
$EndNodes
$Elements
10
1 4 2 10 1 1 2 3 4
2 4 2 10 1 2 3 4 5
3 2 2 7 1 1 2 3
4 2 2 7 1 1 2 4
5 2 2 7 1 1 3 4
6 2 2 8 2 2 3 5
7 2 2 8 2 2 4 5
8 2 2 8 2 3 4 5
9 15 2 0 0 1
10 15 2 0 0 2
$EndElements
"""


def test_read_gmsh_two_tets(tmp_path):
    path = tmp_path / "two.msh"
    path.write_text(GMSH_TWO_TETS)
    raw = read_gmsh(path, {"7": "noslip", "8": "neumann:0"})
    assert raw["dimension"] == 3
    assert raw["cells"].shape == (2, 4)
    assert len(raw["boundary_facets"]) == 6
    kinds = [str(l) for l in raw["boundary_labels"]]
    assert kinds.count("noslip") == 3
    assert kinds.count("neumann:0") == 3
    mesh = build_connectivity(raw["vertices"], raw["cells"],
                              raw["boundary_facets"], raw["boundary_labels"])
    assert mesh.n_cells == 2
    assert np.all(mesh.cell_volumes() > 0)


def test_read_gmsh_rejects_new_version(tmp_path):
    path = tmp_path / "v41.msh"
    path.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
    with pytest.raises(GmshError, match="unsupported MSH version"):
        read_gmsh(path, {})


def test_read_gmsh_rejects_binary(tmp_path):
    path = tmp_path / "bin.msh"
    path.write_text("$MeshFormat\n2.2 1 8\n$EndMeshFormat\n")
    with pytest.raises(GmshError, match="binary"):
        read_gmsh(path, {})


def test_read_gmsh_missing_tag(tmp_path):
    path = tmp_path / "two.msh"
    path.write_text(GMSH_TWO_TETS)
    with pytest.raises(GmshError, match="physical tag"):
        read_gmsh(path, {"7": "noslip"})


def _parse_vtk_counts(path):
    points = cells = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("POINTS"):
                points = int(line.split()[1])
            elif line.startswith("CELLS"):
                cells = int(line.split()[1])
    return points, cells


def _parse_vtk_points(path):
    rows = []
    with open(path) as fh:
        it = iter(fh)
        for line in it:
            if line.startswith("POINTS"):
                n = int(line.split()[1])
                for _ in range(n):
                    rows.append([float(v) for v in next(it).split()])
                break
    return np.asarray(rows)


def test_vtk_roundtrip_counts(tmp_path):
    mesh = generate_box(2, (3, 2))
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh, IdentityMap(2), 0.0)
    points, cells = _parse_vtk_counts(path)
    assert points == mesh.n_vertices
    assert cells == mesh.n_cells


def test_vtk_identity_map_coordinates(tmp_path):
    mesh = generate_box(2, (2, 2))
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh, IdentityMap(2), 0.7)
    pts = _parse_vtk_points(path)
    assert np.allclose(pts[:, :2], mesh.vertices)
    assert np.allclose(pts[:, 2], 0.0)


def test_vtk_deformed_coordinates_tube(tmp_path):
    mesh = generate_tube(3, 2, lambda y: np.exp((y + 4) / 8), (-4.0, 4.0))
    path = tmp_path / "tube.vtk"
    write_vtk(path, mesh, TubeShrinkMap(), 0.2)
    pts = _parse_vtk_points(path)
    scale = np.sqrt(0.95)
    assert np.allclose(pts[:, 0], mesh.vertices[:, 0] * scale, atol=1e-12)
    assert np.allclose(pts[:, 1], mesh.vertices[:, 1], atol=1e-12)
    assert np.allclose(pts[:, 2], mesh.vertices[:, 2] * scale, atol=1e-12)


def test_vtk_byte_stable(tmp_path):
    mesh = generate_box(2, (2, 2))
    space = TaylorHoodSpace(mesh)
    u = interpolate(space, "velocity",
                    lambda X: np.stack([X[:, 1], -X[:, 0]], axis=1))
    p = interpolate(space, "pressure", lambda X: X[:, 0])
    a = write_vtk(tmp_path / "a.vtk", mesh, IdentityMap(2), 0.3, u=u, p=p,
                  q_criterion=True)
    b = write_vtk(tmp_path / "b.vtk", mesh, IdentityMap(2), 0.3, u=u, p=p,
                  q_criterion=True)
    assert a.read_bytes() == b.read_bytes()


def _wide_values(rng, n):
    """Values spanning 1e-300 to 1e300 in magnitude and the special ones."""
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.8e308,
               1.0, 0.1, 123456789.0]
    wide = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    return np.concatenate([special, wide])[rng.permutation(n + len(special))]


def _per_value_vtk(mesh, map_, t, u, p, q):
    """The legacy VTK text with every value formatted on its own."""
    fmt = lambda x: f"{x:.16g}"
    d, nc = mesh.dimension, mesh.n_cells
    lines = ["# vtk DataFile Version 3.0", f"movingflow t={fmt(t)}", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.n_vertices} double"]
    pad = [0.0] * (3 - d)
    for x in map_.position(mesh.vertices, t):
        lines.append(" ".join(fmt(v) for v in list(x) + pad))
    lines.append(f"CELLS {nc} {nc * (d + 2)}")
    for conn in mesh.cells:
        lines.append(" ".join([str(d + 1)] + [str(v) for v in conn]))
    lines += [f"CELL_TYPES {nc}"] + ["5" if d == 2 else "10"] * nc
    lines += [f"POINT_DATA {mesh.n_vertices}", "VECTORS velocity double"]
    for x in u.nodal()[:mesh.n_vertices]:
        lines.append(" ".join(fmt(v) for v in list(x) + pad))
    lines += ["SCALARS q_criterion double 1", "LOOKUP_TABLE default"]
    lines += [fmt(v) for v in q]
    lines += ["SCALARS pressure double 1", "LOOKUP_TABLE default"]
    lines += [fmt(v) for v in p.coefficients]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dimension", [2, 3])
def test_vtk_blocks_match_per_value_formatting(tmp_path, monkeypatch,
                                               dimension):
    from movingflow import fileio
    rng = np.random.default_rng(dimension)
    if dimension == 2:
        mesh, map_ = generate_box(2, (5, 4)), IdentityMap(2)
    else:           # 3D: no padding column
        mesh = generate_tube(3, 2, lambda y: np.exp((y + 4) / 8), (-4.0, 4.0))
        map_ = TubeShrinkMap()
    space = TaylorHoodSpace(mesh)
    u = DiscreteField(space, "velocity",
                      _wide_values(rng, space.n_velocity_dofs - 11))
    p = DiscreteField(space, "pressure",
                      _wide_values(rng, space.n_pressure_dofs - 11))
    q = _wide_values(rng, mesh.n_vertices - 11)
    monkeypatch.setattr(fileio, "_vertex_q_criterion", lambda u, m, t: q)
    path = write_vtk(tmp_path / "wide.vtk", mesh, map_, 0.3, u=u, p=p,
                     q_criterion=True)
    assert path.read_text() == _per_value_vtk(mesh, map_, 0.3, u, p, q)
    rows = _wide_values(rng, 20000)[:19998].reshape(-1, 3)
    assert fileio._rows(rows).split("\n") == \
        [" ".join(f"{v:.16g}" for v in row) for row in rows]


def test_vtk_points_of_a_frame_map_are_its_node_positions(tmp_path):
    from movingflow.maps import MeshSequenceMap
    mesh = generate_box(2, (4, 3))
    X = mesh.vertices
    bump = np.stack([np.sin(3 * X[:, 1]), X[:, 0] * X[:, 1]], axis=1)
    times = np.array([0.0, 0.1, 0.25])
    m = MeshSequenceMap(mesh, times, [X + t * (1 + 5 * t) * bump
                                      for t in times])
    for t in (0.1, 0.17):                  # a frame time, between frames
        text = write_vtk(tmp_path / "f.vtk", mesh, m, t).read_text()
        block = text.split("double\n")[1].split("CELLS")[0]
        points = np.array(block.split(), dtype=float).reshape(-1, 3)
        expected = m.node_positions(t)
        assert np.all(points[:, 2] == 0.0)
        assert np.abs(points[:, :2] - expected).max() <= \
            1e-15 * np.abs(expected).max()


def test_vtk_q_criterion_rigid_rotation(tmp_path):
    mesh = generate_box(2, (3, 3))
    space = TaylorHoodSpace(mesh)
    u = interpolate(space, "velocity",
                    lambda X: np.stack([-(X[:, 1] - 0.5), X[:, 0] - 0.5],
                                       axis=1))
    path = tmp_path / "rot.vtk"

    def q_written(map_, t, u):
        write_vtk(path, mesh, map_, t, u=u, q_criterion=True)
        text = path.read_text().split("q_criterion double 1")[1]
        values = text.split("LOOKUP_TABLE default")[1].split()
        values = [float(v) for v in values if v not in ("SCALARS", "pressure")]
        return np.asarray(values[:mesh.n_vertices])

    q = q_written(IdentityMap(2), 0.0, u)
    assert np.all(q > 0.9)      # pure rotation: Q = 0.5 ||W||^2 = 1
    # the same rotation in the physical domain of a moving map: the
    # reference gradient is pulled back through F^{-1} = diag(1/s_i)
    map_ = AxisScalingMap([lambda t: 1.0 + t, lambda t: 1.0 + 0.5 * t],
                          [lambda t: 1.0, lambda t: 0.5])
    t = 0.4

    def rotation(X):
        x = map_.position(X, t)
        return np.stack([-(x[:, 1] - 0.6), x[:, 0] - 0.7], axis=1)

    q = q_written(map_, t, interpolate(space, "velocity", rotation))
    assert np.abs(q - 1.0).max() < 1e-12


def test_vtk_q_criterion_in_a_run_samples_no_map(tmp_path, monkeypatch):
    # in a run callback, Q reads the level's grad u F^{-1} and the cell
    # weights that the step and its diagnostics already hold
    from movingflow.benchmarks import manufactured_2d
    from movingflow.maps import SpaceTimeMap
    from movingflow.solver import FlowProblem, SolverConfig, run
    case = manufactured_2d()
    mesh = case.mesh_for_level(1)
    space = TaylorHoodSpace(mesh)
    problem = FlowProblem(space=space, map=case.map, nu=case.nu,
                          bcs=case.boundary_conditions(),
                          forcing=case.forcing)
    calls = []
    original = SpaceTimeMap.sample_fields

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SpaceTimeMap, "sample_fields", counted)
    per_write = []

    def write_frame(state, record):
        before = len(calls)
        write_vtk(tmp_path / f"state_{state.k}.vtk", mesh, case.map, state.t,
                  u=state.u, p=state.p, q_criterion=True)
        per_write.append(len(calls) - before)

    initial = FlowState(0, 0.0, DiscreteField(space, "velocity"),
                        DiscreteField(space, "pressure"))
    run(initial, problem, SolverConfig(stress=case.stress), 0.03, 0.01,
        callbacks=[write_frame])
    assert calls and per_write == [0, 0, 0]


def test_checkpoint_roundtrip(tmp_path):
    mesh = generate_box(2, (2, 2))
    space = TaylorHoodSpace(mesh)
    rng = np.random.default_rng(0)
    state = FlowState(
        7, 0.35,
        DiscreteField(space, "velocity",
                      rng.standard_normal(space.n_velocity_dofs)),
        DiscreteField(space, "pressure",
                      rng.standard_normal(space.n_pressure_dofs)))
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, state)
    loaded = read_checkpoint(path, space)
    assert loaded.k == 7 and loaded.t == 0.35
    assert np.array_equal(loaded.u.coefficients, state.u.coefficients)
    assert np.array_equal(loaded.p.coefficients, state.p.coefficients)


def test_checkpoint_rejects_mismatched_space(tmp_path):
    mesh = generate_box(2, (2, 2))
    space = TaylorHoodSpace(mesh)
    state = FlowState(0, 0.0, DiscreteField(space, "velocity"),
                      DiscreteField(space, "pressure"))
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, state)
    other = TaylorHoodSpace(generate_box(2, (3, 3)))
    with pytest.raises(CheckpointError, match="does not match"):
        read_checkpoint(path, other)
    path.write_bytes(b"garbage!" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        read_checkpoint(path, space)


def test_diagnostics_csv(tmp_path):
    records = [{"step": 1, "time": 0.1, "kinetic_energy": 2.0,
                "divergence_residual": 1e-13, "min_J": 0.75,
                "linear_iterations": 2,
                "linear_residual": 1e-15, "solver_event": "refactor",
                "kinetic_rate": -0.5, "dissipation": 0.4,
                "numerical_dissipation": None, "forcing_power": 0.1,
                "reaction_power": 0.25, "outflow_power": 0.0,
                "energy_defect": None}]
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(path, records)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("step,time,kinetic_energy,divergence_residual,"
                        "min_J,linear_iterations,linear_residual,solver_event,"
                        "kinetic_rate,dissipation,numerical_dissipation,"
                        "forcing_power,reaction_power,outflow_power,"
                        "energy_defect")
    assert lines[1] == ("1,0.1,2,1e-13,0.75,2,1e-15,refactor,-0.5,0.4,,0.1,"
                        "0.25,0,")
    # a column the record lacks raises instead of writing an empty cell
    del records[0]["outflow_power"]
    with pytest.raises(KeyError, match="outflow_power"):
        write_diagnostics_csv(path, records)


@pytest.mark.parametrize("scheme", ["backward-euler", "bdf2"])
def test_every_record_of_run_has_every_csv_column(scheme):
    from movingflow.fileio import DIAGNOSTIC_COLUMNS
    from movingflow.meshing import NOSLIP
    from movingflow.solver import (BoundaryConditionSet, FlowProblem,
                                   NoslipBC, SolverConfig, run)
    space = TaylorHoodSpace(generate_box(2, (3, 3)))
    prob = FlowProblem(space=space, map=AxisScalingMap(
        [lambda t: 1 + 0.1 * t, lambda t: 1.0], [lambda t: 0.1, lambda t: 0.0]),
        nu=0.1, bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))
    initial = FlowState(0, 0.0, DiscreteField(space, "velocity"),
                        DiscreteField(space, "pressure"))
    result = run(initial, prob, SolverConfig(scheme=scheme), 0.3, 0.1)
    assert len(result.diagnostics) == 3
    for record in result.diagnostics:
        assert set(DIAGNOSTIC_COLUMNS) <= set(record)
    # bdf2 steps after the first have no energy identity: empty cells
    later = [r["energy_defect"] for r in result.diagnostics[1:]]
    assert result.diagnostics[0]["energy_defect"] is not None
    if scheme == "bdf2":
        assert later == [None, None]
        assert [r["numerical_dissipation"] for r in result.diagnostics[1:]] \
            == [None, None]
    else:
        assert None not in later
