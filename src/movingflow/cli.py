"""Command-line surface.

Subcommands:
  run           time-step a configured problem, writing VTK series,
                diagnostics CSV and an optional final checkpoint
  converge      run a built-in benchmark convergence study and write the
                error table as CSV
  validate-map  sample the domain map over the configured time grid and
                print the regularity report
  mesh-gen      write the configured mesh as a VTK file
  info          print a summary of a configuration

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np



class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="movingflow",
                     description="finite element flow solver for "
                                 "time-dependent domains")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="time-step a configured problem")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", help="override the output directory")

    p_conv = sub.add_parser("converge", help="benchmark convergence study")
    p_conv.add_argument("--case", required=True,
                        choices=["tube", "manufactured-2d"])
    p_conv.add_argument("--levels", type=int, default=3,
                        help="mesh levels, at least 2 (default 3)")
    p_conv.add_argument("--output", default="output",
                        help="output directory for the CSV")

    p_val = sub.add_parser("validate-map", help="map regularity report")
    p_val.add_argument("--config", required=True)

    p_mesh = sub.add_parser("mesh-gen", help="write the configured mesh")
    p_mesh.add_argument("--config", required=True)
    p_mesh.add_argument("--output", help="output VTK path")

    p_info = sub.add_parser("info", help="print a configuration summary")
    p_info.add_argument("--config", required=True)
    return parser


def cli(argv=None):
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("missing subcommand")
        if args.command == "converge" and args.levels < 2:
            raise _UsageError("converge needs --levels of at least 2")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli())


def _dispatch(args):
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "converge":
        return _cmd_converge(args)
    if args.command == "validate-map":
        return _cmd_validate_map(args)
    if args.command == "mesh-gen":
        return _cmd_mesh_gen(args)
    if args.command == "info":
        return _cmd_info(args)
    raise AssertionError(args.command)


def _load(args):
    from .config import load_config
    return load_config(args.config)


def _setup(cfg):
    from .config import (build_boundary_conditions, build_forcing, build_map,
                         build_mesh, build_solver_config)
    from .solver import FlowProblem
    from .spaces import TaylorHoodSpace

    mesh = build_mesh(cfg)
    map_ = build_map(cfg, mesh)
    space = TaylorHoodSpace(mesh)
    problem = FlowProblem(space=space, map=map_, nu=cfg.physics["nu"],
                          bcs=build_boundary_conditions(cfg, mesh),
                          forcing=build_forcing(cfg, mesh))
    return mesh, map_, space, problem, build_solver_config(cfg)


def _cmd_run(args):
    from .fileio import write_checkpoint, write_diagnostics_csv, write_vtk
    from .solver import FlowState, run
    from .spaces import DiscreteField

    cfg = _load(args)
    mesh, map_, space, problem, solver_cfg = _setup(cfg)
    outdir = Path(args.output or cfg.output["directory"])
    outdir.mkdir(parents=True, exist_ok=True)

    initial = FlowState(k=0, t=0.0, u=DiscreteField(space, "velocity"),
                        p=DiscreteField(space, "pressure"))
    vtk_every = cfg.output["vtk_every"]
    callbacks = []
    if vtk_every:
        def write_frame(state, record):
            if state.k % vtk_every == 0:
                write_vtk(outdir / f"state_{state.k:06d}.vtk", mesh, map_,
                          state.t, u=state.u, p=state.p,
                          q_criterion=cfg.output["q_criterion"])
        write_frame(initial, None)
        callbacks.append(write_frame)

    result = run(initial, problem, solver_cfg, cfg.time["T"], cfg.time["dt"],
                 callbacks=callbacks)
    if cfg.output["csv"]:
        write_diagnostics_csv(outdir / "diagnostics.csv", result.diagnostics)
    if cfg.output["checkpoint"]:
        write_checkpoint(outdir / "final.ckpt", result.final)
    last = result.diagnostics[-1]
    print(f"completed {last['step']} steps to t={last['time']:g}; "
          f"kinetic energy {last['kinetic_energy']:.6g}")
    return 0


def _cmd_converge(args):
    from .analysis import convergence_study
    from .benchmarks import benchmark_case

    table = convergence_study(
        benchmark_case(args.case), args.levels,
        progress=lambda lvl, tab: print(f"level {lvl}/{args.levels}: "
                                        f"error {tab.errors()[-1]:.6g}",
                                        flush=True))
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"convergence_{args.case}.csv"
    table.to_csv(csv_path)
    print(table)
    print(f"wrote {csv_path}")
    return 0


def _cmd_validate_map(args):
    from .config import build_map, build_mesh
    from .maps import validate_assumptions

    cfg = _load(args)
    mesh = build_mesh(cfg)
    map_ = build_map(cfg, mesh)
    times = np.linspace(0.0, cfg.time["T"], cfg.n_steps + 1)
    report = validate_assumptions(map_, mesh, times)
    print(report)
    return 0


def _cmd_mesh_gen(args):
    from .config import build_mesh
    from .fileio import write_vtk
    from .maps import IdentityMap
    from .meshing import mesh_quality

    cfg = _load(args)
    mesh = build_mesh(cfg)
    out = Path(args.output or Path(cfg.output["directory"]) / "mesh.vtk")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_vtk(out, mesh, IdentityMap(mesh.dimension), 0.0)
    q = mesh_quality(mesh)
    print(f"wrote {out}: {q.cell_count} cells, {q.vertex_count} vertices, "
          f"h in [{q.h_min:.4g}, {q.h_max:.4g}]")
    return 0


def _cmd_info(args):
    from .sampling import rules
    cfg = _load(args)
    print(f"mesh     : {cfg.mesh['kind']} ({cfg.mesh['dimension']}D)")
    print(f"map      : {cfg.map['kind']}")
    print(f"physics  : nu={cfg.physics['nu']}, stress={cfg.physics['stress']}"
          + (", eddy viscosity on" if cfg.physics.get("smagorinsky") else ""))
    print(f"time     : dt={cfg.time['dt']}, T={cfg.time['T']} "
          f"({cfg.n_steps} steps, {cfg.time['scheme']})")
    print(f"bcs      : {', '.join(sorted(cfg.bcs))}")
    print(f"solver   : tolerance {cfg.solver['tolerance']:g}, linear solve: "
          "float32 SuperLU factor in a nested-dissection order of the "
          "reference cells, float64 FGMRES")
    cell, facet = rules(cfg.mesh["dimension"])
    print(f"quadrature: cell {cell.n_points} points (degree {cell.exactness}), "
          f"facet {facet.n_points} points (degree {facet.exactness})")
    return 0


if __name__ == "__main__":
    main()
