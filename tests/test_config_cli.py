import argparse
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from movingflow import config
from movingflow.cli import _build_parser, cli
from movingflow.config import (ConfigError, build_boundary_conditions,
                               build_map, build_mesh, load_config,
                               validate_config)

ROOT = Path(__file__).parents[1]


def minimal_config(tmp_path, **overrides):
    data = {
        "mesh": {"generator": {"kind": "box", "dimension": 2,
                               "divisions": [2, 2]}},
        "map": {"kind": "identity"},
        "physics": {"nu": 1.0},
        "time": {"dt": 0.1, "T": 0.1},
        "bcs": {"noslip": {"type": "noslip"}},
        "output": {"directory": str(tmp_path / "out")},
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_minimal_config_loads(tmp_path):
    cfg = load_config(minimal_config(tmp_path))
    assert cfg.n_steps == 1
    assert cfg.physics["nu"] == 1.0
    assert cfg.time["scheme"] == "backward-euler"


def test_zero_dt_reports_field(tmp_path):
    path = minimal_config(tmp_path, time={"dt": 0.0, "T": 1.0})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "time.dt" in str(err.value)


def test_benchmark_block_rejected(tmp_path):
    # a plain time-stepping run would ignore the block silently
    path = minimal_config(tmp_path,
                          benchmark={"case": "tube", "levels": 3})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field_path == "benchmark"
    assert "movingflow converge --case" in str(err.value)
    assert "--levels" in str(err.value)
    assert cli(["run", "--config", str(path)]) == 2


def test_bad_expression_reports_path(tmp_path):
    path = minimal_config(
        tmp_path, physics={"nu": 1.0, "forcing": ["x1 +", "x2"]})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "physics.forcing[0]" in str(err.value)


def test_dangling_gmsh_path(tmp_path):
    path = minimal_config(
        tmp_path, mesh={"gmsh": {"path": "missing.msh", "tag_labels": {}}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "mesh.gmsh.path" in str(err.value)


def test_bc_type_label_mismatch(tmp_path):
    path = minimal_config(tmp_path,
                          bcs={"noslip": {"type": "dirichlet",
                                          "data": ["0", "0"]}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "bcs.noslip" in str(err.value)


def test_solver_block(tmp_path, capsys):
    path = minimal_config(tmp_path, solver={"tolerance": 1e-8})
    assert load_config(path).solver == {"tolerance": 1e-8}
    path = minimal_config(tmp_path)
    assert load_config(path).solver == {"tolerance": 1e-10}
    assert cli(["info", "--config", str(path)]) == 0
    assert ("solver   : tolerance 1e-10, linear solve: float32 SuperLU "
            "factor in a nested-dissection order of the reference cells, "
            "float64 FGMRES") in capsys.readouterr().out
    # configs of earlier versions named the one solve path and the one
    # (skew-symmetric) convection form here; both fields are gone
    for key, value in (("type", "direct"), ("temam", True)):
        path = minimal_config(tmp_path, solver={key: value})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field_path == f"solver.{key}"
        assert "removed" in str(err.value)
    # a key the solver block does not read fails instead of being ignored
    path = minimal_config(tmp_path, solver={"quadrature_degree": 8})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field_path == "solver.quadrature_degree"


BOX = {"kind": "box", "dimension": 2, "divisions": [2, 2]}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("overrides, field_path", [
    # misspelt keys, which would otherwise run with the defaults
    ({"ouptut": {"directory": "elsewhere"}}, "ouptut"),
    ({"physics": {"nu": 1.0, "stres": "full-gradient"}}, "physics.stres"),
    ({"time": {"dt": 0.1, "T": 0.1, "shceme": "bdf2"}}, "time.shceme"),
    ({"mesh": {"generator": {**BOX, "labls": {"xmin": "neumann:0"}}}},
     "mesh.generator.labls"),
    # keys that mean nothing where they stand
    ({"bcs": {"noslip": {"type": "noslip", "data": ["1", "0"]}}},
     "bcs.noslip.data"),
    ({"mesh": {"generator": BOX,
               "gmsh": {"path": "m.msh", "dimension": 2,
                        "tag_labels": {}}}}, "mesh"),
    # JSON booleans are not numbers
    ({"physics": {"nu": True}}, "physics.nu"),
    ({"output": {"vtk_every": True}}, "output.vtk_every"),
    # malformed mesh arrays, which would fail only in the generator
    ({"mesh": {"generator": {**BOX, "divisions": ["a", 2]}}},
     "mesh.generator.divisions[0]"),
    ({"mesh": {"generator": {**BOX, "extents": [1.0]}}},
     "mesh.generator.extents"),
    # non-finite numbers, which json reads as NaN and Infinity
    ({"solver": {"tolerance": NAN}}, "solver.tolerance"),
    ({"physics": {"nu": NAN}}, "physics.nu"),
    ({"time": {"dt": INF, "T": INF}}, "time.dt"),
    ({"time": {"dt": 5e-324, "T": 1.0}}, "time.dt"),     # T / dt overflows
])
def test_rejected_inputs_name_their_field(tmp_path, overrides, field_path):
    path = minimal_config(tmp_path, **overrides)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field_path == field_path


def test_bc_entry_for_a_label_the_mesh_lacks(tmp_path, capsys):
    path = minimal_config(tmp_path, bcs={"noslip": {"type": "noslip"},
                                         "neumann:7": {"type": "neumann"}})
    assert cli(["run", "--config", str(path)]) == 2
    assert "neumann:7" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gmsh_dimension_must_match_the_file(tmp_path, capsys):
    from test_fileio import GMSH_TWO_TETS
    (tmp_path / "two.msh").write_text(GMSH_TWO_TETS)
    gmsh = {"path": "two.msh", "dimension": 2,
            "tag_labels": {"7": "noslip", "8": "neumann:0"}}
    path = minimal_config(tmp_path, mesh={"gmsh": gmsh},
                          bcs={"noslip": {"type": "noslip"},
                               "neumann:0": {"type": "neumann"}})
    cfg = load_config(path)         # the file is read when the mesh is built
    with pytest.raises(ConfigError) as err:
        build_mesh(cfg)
    assert err.value.field_path == "mesh.gmsh.dimension"
    assert cli(["run", "--config", str(path)]) == 2
    assert "mesh.gmsh.dimension" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    path = minimal_config(tmp_path, mesh={"gmsh": {**gmsh, "dimension": 3}},
                          bcs={"noslip": {"type": "noslip"},
                               "neumann:0": {"type": "neumann"}})
    assert build_mesh(load_config(path)).dimension == 3


def readme_configuration():
    readme = (ROOT / "README.md").read_text()
    return readme.split("\n### Configuration\n", 1)[1].split("\n## ", 1)[0]


def shipped_configs():
    """The README example and the benchmark's generated run configs."""
    section = readme_configuration()
    yield json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import CliCase
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for seed in range(1, 11):
        yield CliCase("expression-cli", seed, ROOT).config()


def test_shipped_configs_load():
    for data in shipped_configs():
        cfg = validate_config(data)
        assert validate_config(cfg.to_dict()).raw == cfg.raw


def schema_paths(spec, path):
    """Every field path that a schema table, _Kinds or check names."""
    if spec is config._mesh:
        spec = config._MESH
    elif spec is config._bcs:
        entry = {k: f for table in config._BCS.values()
                 for k, f in table.items()}
        spec = {"<label>": config._Field((dict,), check=entry)}
    if isinstance(spec, config._Kinds):
        yield f"{path}.kind"
        for table in spec.tables.values():
            yield from schema_paths(table, path)
    elif isinstance(spec, dict):
        for key, field_ in spec.items():
            field_path = f"{path}.{key}" if path else key
            yield field_path
            yield from schema_paths(field_.check, field_path)


def test_readme_lists_every_config_field():
    section = readme_configuration()
    paths = set(schema_paths(config._SCHEMA, ""))
    assert {"mesh.generator.radius", "bcs.<label>.data",
            "solver.tolerance"} <= paths
    assert {p for p in paths if "." not in p} == {
        "mesh", "map", "physics", "time", "bcs", "output", "solver"}
    for path in sorted(paths):
        assert f"`{path}`" in section, f"README lacks {path}"


def test_config_round_trip(tmp_path):
    path = minimal_config(
        tmp_path,
        map={"kind": "expression", "expressions": "x1*(1+t); x2"},
        physics={"nu": 0.5, "stress": "full-gradient",
                 "smagorinsky": {"cs": 0.2}, "forcing": ["x1", "x2"]})
    cfg = load_config(path)
    again = validate_config(cfg.to_dict(), base_dir=cfg.base_dir)
    assert again.raw == cfg.raw


def test_build_objects(tmp_path):
    path = minimal_config(
        tmp_path,
        mesh={"generator": {"kind": "box", "dimension": 2,
                            "divisions": [3, 3],
                            "labels": {"xmin": "dirichlet:0",
                                       "xmax": "neumann:0"}}},
        map={"kind": "axis-scaling", "scales": ["1+t", "1/(1+t)"]},
        bcs={"noslip": {"type": "noslip"},
             "dirichlet:0": {"type": "dirichlet", "data": ["x2*(1-x2)", "0"]},
             "neumann:0": {"type": "neumann"}})
    cfg = load_config(path)
    mesh = build_mesh(cfg)
    assert mesh.n_cells == 18
    map_ = build_map(cfg, mesh)
    X = np.array([[1.0, 1.0]])
    assert np.allclose(map_.position(X, 1.0), [[2.0, 0.5]])
    assert np.allclose(map_.velocity(X, 1.0), [[1.0, -0.25]])
    bcs = build_boundary_conditions(cfg, mesh)
    bcs.validate(mesh)


def test_tube_generator_config(tmp_path):
    path = minimal_config(
        tmp_path,
        mesh={"generator": {"kind": "tube", "axial_divisions": 3,
                            "radial_divisions": 2,
                            "radius": "exp((y+4)/8)", "y_range": [-4, 4],
                            "labels": {"inlet": "dirichlet:1"}}},
        bcs={"noslip": {"type": "noslip"},
             "dirichlet:1": {"type": "dirichlet", "data": ["0", "0", "0"]},
             "neumann:0": {"type": "neumann"}},
        map={"kind": "tube-shrink"})
    cfg = load_config(path)
    mesh = build_mesh(cfg)
    assert mesh.dimension == 3
    map_ = build_map(cfg, mesh)
    assert abs(map_.jacobian(np.zeros((1, 3)), 0.2)[0] - 0.95) < 1e-14


# --- CLI ---------------------------------------------------------------------


def test_cli_no_arguments_usage():
    assert cli([]) == 1


def test_cli_unknown_subcommand():
    assert cli(["transmogrify"]) == 1


@pytest.mark.parametrize("argv", [
    ["converge"],
    ["converge", "--case", "manufactured-2d", "--levels", "0"],
    ["converge", "--case", "manufactured-2d", "--levels", "1"],
    ["converge", "--case", "manufactured-2d", "--pairing", "dt-h2"],
])
def test_cli_converge_usage_errors(argv, tmp_path, capsys):
    assert cli(argv + ["--output", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_readme_command_lines_match_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln.split() for ln in block.splitlines()
             if ln.startswith("movingflow ")]
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(words[1] for words in lines) == sorted(commands)
    for words in lines:
        options = commands[words[1]]._option_string_actions
        for flag in re.findall(r"--[a-z-]+", " ".join(words[2:])):
            assert flag in options, f"{words[1]} has no option {flag}"


def test_cli_info_and_validate(tmp_path, capsys):
    path = minimal_config(tmp_path)
    assert cli(["info", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "box (2D)" in out
    assert ("quadrature: cell 7 points (degree 5), "
            "facet 4 points (degree 7)") in out
    assert cli(["validate-map", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "passed" in out


@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in sqrt:RuntimeWarning")
def test_cli_run_names_the_step_of_non_finite_data(tmp_path, capsys):
    # the forcing sqrt(0.15 - t) is NaN from step 2 (t = 0.2) on
    path = minimal_config(
        tmp_path, physics={"nu": 1.0, "forcing": ["0", "sqrt(0.15 - t)"]},
        time={"dt": 0.1, "T": 0.3})
    assert cli(["run", "--config", str(path)]) == 2
    assert ("error: step 2: the forcing load is not finite"
            in capsys.readouterr().err)


def test_cli_validate_map_tube(tmp_path, capsys):
    path = minimal_config(
        tmp_path,
        mesh={"generator": {"kind": "tube", "axial_divisions": 3,
                            "radial_divisions": 2,
                            "radius": "exp((y+4)/8)", "y_range": [-4, 4]}},
        map={"kind": "tube-shrink"},
        time={"dt": 0.04, "T": 0.2},
        bcs={"noslip": {"type": "noslip"}, "neumann:0": {"type": "neumann"}})
    assert cli(["info", "--config", str(path)]) == 0
    assert ("quadrature: cell 14 points (degree 5), "
            "facet 12 points (degree 7)") in capsys.readouterr().out
    assert cli(["validate-map", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "min J              : 0.95" in out


def test_cli_run_writes_outputs(tmp_path):
    path = minimal_config(
        tmp_path,
        output={"directory": str(tmp_path / "out"), "vtk_every": 1,
                "csv": True, "checkpoint": True})
    assert cli(["run", "--config", str(path)]) == 0
    produced = sorted(os.listdir(tmp_path / "out"))
    assert "diagnostics.csv" in produced
    assert "final.ckpt" in produced
    assert any(name.startswith("state_") for name in produced)


def test_cli_run_missing_config_is_runtime_error(tmp_path):
    assert cli(["run", "--config", str(tmp_path / "absent.json")]) == 2


def test_cli_mesh_gen(tmp_path):
    path = minimal_config(tmp_path)
    out = tmp_path / "mesh.vtk"
    assert cli(["mesh-gen", "--config", str(path), "--output", str(out)]) == 0
    assert out.exists()


def _frames_config(tmp_path, T, **output):
    """A run of T in steps of 0.1 on a 2x2 box whose map is four frames of
    a linear-in-time axis scaling, at 0, 0.1, 0.2 and 0.3; ``output``
    adds to the output block."""
    from movingflow.meshing import generate_box
    base = generate_box(2, (2, 2))
    frames = tmp_path / "frames"
    frames.mkdir()
    for k, t in enumerate((0.0, 0.1, 0.2, 0.3)):
        coords = base.vertices * [1.0 + 0.5 * t, 1.0 - 0.25 * t]
        lines = [f"{t}"] + [f"{x:.17g} {y:.17g}" for x, y in coords]
        (frames / f"f{k}.txt").write_text("\n".join(lines))
    return minimal_config(
        tmp_path, map={"kind": "mesh-sequence", "directory": "frames"},
        time={"dt": 0.1, "T": T},
        output={"directory": str(tmp_path / "out"), **output})


def test_mesh_sequence_config_runs(tmp_path):
    # to T at the last frame: three steps of 0.1 end at
    # 0.30000000000000004, past it by roundoff only
    assert 0.1 + 0.1 + 0.1 > 0.3
    assert cli(["run", "--config", str(_frames_config(tmp_path, 0.3))]) == 0
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().split()
    assert len(lines) == 4


def test_mesh_sequence_run_past_the_last_frame_fails(tmp_path, capsys):
    # the map is evaluated at T before the first step: no VTK, CSV or
    # checkpoint file is written
    path = _frames_config(tmp_path, 0.4, vtk_every=1, checkpoint=True)
    assert cli(["run", "--config", str(path)]) == 2
    assert ("error: mesh-sequence map evaluated at t=0.4, outside its "
            "frames' span [0, 0.3]") in capsys.readouterr().err
    assert list((tmp_path / "out").glob("*")) == []


def test_cli_converge_manufactured_two_levels(tmp_path, capsys):
    outdir = tmp_path / "conv"
    rc = cli(["converge", "--case", "manufactured-2d", "--levels", "2",
              "--output", str(outdir)])
    assert rc == 0
    csv = outdir / "convergence_manufactured-2d.csv"
    lines = csv.read_text().strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header == ["mesh_step_size", "element_count", "time_step", "N",
                      "error", "ratio", "observed_order"]
    assert lines[1].split(",")[5] == ""
    assert float(lines[2].split(",")[5]) > 1.0      # ratio populated
