import argparse
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from movingflow.cli import _build_parser, cli
from movingflow.config import (ConfigError, build_boundary_conditions,
                               build_map, build_mesh, load_config,
                               validate_config)


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
    path = minimal_config(tmp_path, solver={"type": "direct", "temam": True})
    assert load_config(path).solver == {"tolerance": 1e-10}
    assert cli(["info", "--config", str(path)]) == 0
    assert ("solver   : tolerance 1e-10, linear solve: float32 SuperLU "
            "factor in a nested-dissection order of the reference cells, "
            "float64 FGMRES") in capsys.readouterr().out
    path = minimal_config(tmp_path, solver={"type": "gmres"})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field_path == "solver.type"
    # the skew-symmetric convection form is the only one
    path = minimal_config(tmp_path, solver={"temam": False})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field_path == "solver.temam"
    # a key the solver block does not read fails instead of being ignored
    path = minimal_config(tmp_path, solver={"quadrature_degree": 8})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field_path == "solver.quadrature_degree"


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
    assert ("quadrature: cell 12 points (degree 6), "
            "facet 5 points (degree 8)") in out
    assert cli(["validate-map", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "passed" in out


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


def test_mesh_sequence_config_runs(tmp_path):
    # frames of a linear-in-time axis scaling over a 2x2 box
    mesh_div = [2, 2]
    from movingflow.meshing import generate_box
    base = generate_box(2, tuple(mesh_div))
    frames = tmp_path / "frames"
    frames.mkdir()
    for k, t in enumerate((0.0, 0.05, 0.1)):
        coords = base.vertices * [1.0 + 0.5 * t, 1.0 - 0.25 * t]
        lines = [f"{t}"] + [f"{x:.17g} {y:.17g}" for x, y in coords]
        (frames / f"f{k}.txt").write_text("\n".join(lines))
    path = minimal_config(
        tmp_path,
        mesh={"generator": {"kind": "box", "dimension": 2,
                            "divisions": mesh_div}},
        map={"kind": "mesh-sequence", "directory": "frames"},
        time={"dt": 0.05, "T": 0.1})
    assert cli(["run", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "diagnostics.csv").exists()


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
