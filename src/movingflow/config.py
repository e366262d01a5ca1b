"""JSON run configuration: schema validation and construction of the
runtime objects (mesh, map, boundary conditions, solver settings).

Boundary-condition and domain-map expressions are written in reference
coordinates ``x1..xd`` plus ``t``; forcing expressions are written in
physical coordinates.  All expressions are parsed at load time so malformed
input fails with the offending field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .expressions import ExpressionError, evaluate, parse_expression
from .maps import (AxisScalingMap, IdentityMap, TubeShrinkMap,
                   load_mesh_sequence, parse_map_expressions)
from .meshing import BoundaryLabel, build_connectivity, generate_box, generate_tube
from .solver import (BoundaryConditionSet, DirichletBC, NeumannBC, NoslipBC,
                     SolverConfig)

__all__ = ["RunConfig", "ConfigError", "load_config", "build_mesh",
           "build_map", "build_boundary_conditions", "build_forcing",
           "build_solver_config"]


class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"config field '{path}': {message}")
        self.field_path = path


def _need(data, key, path, types=None):
    if key not in data:
        raise ConfigError(f"{path}.{key}", "missing required field")
    value = data[key]
    if types is not None and not isinstance(value, types):
        raise ConfigError(f"{path}.{key}",
                          f"expected {types}, got {type(value).__name__}")
    return value


def _optional(data, key, default=None, types=None, path=""):
    if key not in data or data[key] is None:
        return default
    value = data[key]
    if types is not None and not isinstance(value, types):
        raise ConfigError(f"{path}.{key}",
                          f"expected {types}, got {type(value).__name__}")
    return value


@dataclass
class RunConfig:
    """Validated run configuration; ``raw`` keeps the normalized dict."""

    raw: dict
    base_dir: Path

    @property
    def mesh(self):
        wrapper = self.raw["mesh"]
        return wrapper.get("generator") or wrapper["gmsh"]

    @property
    def map(self):
        return self.raw["map"]

    @property
    def physics(self):
        return self.raw["physics"]

    @property
    def time(self):
        return self.raw["time"]

    @property
    def bcs(self):
        return self.raw["bcs"]

    @property
    def output(self):
        return self.raw["output"]

    @property
    def solver(self):
        return self.raw["solver"]

    def to_dict(self):
        return json.loads(json.dumps(self.raw))

    @property
    def n_steps(self):
        return int(round(self.time["T"] / self.time["dt"]))


_MAP_KINDS = ("identity", "axis-scaling", "tube-shrink", "expression",
              "mesh-sequence")
_DIM_BY_MESH = {"box": None, "tube": 3}


def load_config(path):
    """Load and validate a JSON run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError("(file)", f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("(file)", f"invalid JSON: {exc}") from exc
    return validate_config(data, base_dir=path.parent)


def validate_config(data, base_dir="."):
    base_dir = Path(base_dir)
    if not isinstance(data, dict):
        raise ConfigError("(root)", "config must be a JSON object")
    if "benchmark" in data:
        # configs of earlier versions ran a convergence study from here;
        # running this one as a time-stepping run would ignore the block
        raise ConfigError("benchmark", "convergence studies are no longer "
                          "configured here; run `movingflow converge --case "
                          "CASE --levels N` instead")
    out = {}

    mesh = _need(data, "mesh", "(root)", dict)
    inner = _validate_mesh(mesh, base_dir)
    out["mesh"] = {"gmsh" if inner["kind"] == "gmsh" else "generator": inner}
    dim = inner["dimension"]

    map_cfg = _optional(data, "map", {"kind": "identity"}, dict, "(root)")
    out["map"] = _validate_map(map_cfg, dim, base_dir)

    physics = _need(data, "physics", "(root)", dict)
    out["physics"] = _validate_physics(physics, dim)

    time_cfg = _need(data, "time", "(root)", dict)
    dt = _need(time_cfg, "dt", "time", (int, float))
    T = _need(time_cfg, "T", "time", (int, float))
    if dt <= 0:
        raise ConfigError("time.dt", "must be positive")
    if T < dt:
        raise ConfigError("time.T", "must be at least one step long")
    if abs(round(T / dt) * dt - T) > 1e-9 * max(T, 1.0):
        raise ConfigError("time.dt", f"dt={dt} does not divide T={T}")
    scheme = _optional(time_cfg, "scheme", "backward-euler", str, "time")
    if scheme not in ("backward-euler", "bdf2"):
        raise ConfigError("time.scheme", f"unknown scheme {scheme!r}")
    out["time"] = {"dt": float(dt), "T": float(T), "scheme": scheme}

    bcs = _need(data, "bcs", "(root)", dict)
    out["bcs"] = _validate_bcs(bcs, dim)

    output = _optional(data, "output", {}, dict, "(root)")
    vtk_every = _optional(output, "vtk_every", 0, int, "output")
    if vtk_every < 0:
        raise ConfigError("output.vtk_every", "must be >= 0 (0 disables)")
    out["output"] = {
        "directory": _optional(output, "directory", "output", str, "output"),
        "vtk_every": vtk_every,
        "csv": _optional(output, "csv", True, bool, "output"),
        "q_criterion": _optional(output, "q_criterion", False, bool, "output"),
        "checkpoint": _optional(output, "checkpoint", False, bool, "output"),
    }

    solver = _optional(data, "solver", {}, dict, "(root)")
    unknown = sorted(set(solver) - {"type", "tolerance", "temam"})
    if unknown:
        raise ConfigError(f"solver.{unknown[0]}", "unknown field")
    # configs of earlier versions may still name the one solver there is
    # and the one (skew-symmetric) convection form
    stype = _optional(solver, "type", "direct", str, "solver")
    if stype != "direct":
        raise ConfigError("solver.type", f"unknown solver type {stype!r} "
                          "(the only one is 'direct')")
    if not _optional(solver, "temam", True, bool, "solver"):
        raise ConfigError("solver.temam", "the skew-symmetric convection "
                          "form is the only one")
    tol = _optional(solver, "tolerance", SolverConfig.tolerance, (int, float),
                    "solver")
    if tol <= 0:
        raise ConfigError("solver.tolerance", "must be positive")
    out["solver"] = {"tolerance": tol}

    return RunConfig(raw=out, base_dir=base_dir)


def _validate_mesh(mesh, base_dir):
    if "generator" in mesh:
        gen = _need(mesh, "generator", "mesh", dict)
        kind = _need(gen, "kind", "mesh.generator", str)
        if kind == "box":
            dim = _need(gen, "dimension", "mesh.generator", int)
            if dim not in (2, 3):
                raise ConfigError("mesh.generator.dimension", "must be 2 or 3")
            divisions = _need(gen, "divisions", "mesh.generator", (list, int))
            extents = _optional(gen, "extents", None, list, "mesh.generator")
            labels = _optional(gen, "labels", {}, dict, "mesh.generator")
            for k, v in labels.items():
                _parse_label(v, f"mesh.generator.labels.{k}")
            return {"kind": "box", "dimension": dim, "divisions": divisions,
                    "extents": extents, "labels": labels}
        if kind == "tube":
            radius = _need(gen, "radius", "mesh.generator", (str, int, float))
            if isinstance(radius, str):
                try:
                    parse_expression(radius, ("y",))
                except ExpressionError as exc:
                    raise ConfigError("mesh.generator.radius", str(exc))
            labels = _optional(gen, "labels", {}, dict, "mesh.generator")
            for k, v in labels.items():
                _parse_label(v, f"mesh.generator.labels.{k}")
            return {"kind": "tube", "dimension": 3,
                    "axial_divisions": _need(gen, "axial_divisions",
                                             "mesh.generator", int),
                    "radial_divisions": _need(gen, "radial_divisions",
                                              "mesh.generator", int),
                    "radius": radius,
                    "y_range": _need(gen, "y_range", "mesh.generator", list),
                    "labels": labels}
        raise ConfigError("mesh.generator.kind", f"unknown generator {kind!r}")
    if "gmsh" in mesh:
        gm = _need(mesh, "gmsh", "mesh", dict)
        rel = _need(gm, "path", "mesh.gmsh", str)
        full = base_dir / rel
        if not full.exists():
            raise ConfigError("mesh.gmsh.path", f"file {full} does not exist")
        tag_labels = _need(gm, "tag_labels", "mesh.gmsh", dict)
        for k, v in tag_labels.items():
            _parse_label(v, f"mesh.gmsh.tag_labels.{k}")
        # expression arities are checked at load time, so the dimension
        # must be declared alongside external mesh files
        dim = _need(gm, "dimension", "mesh.gmsh", int)
        if dim not in (2, 3):
            raise ConfigError("mesh.gmsh.dimension", "must be 2 or 3")
        return {"kind": "gmsh", "dimension": dim, "path": rel,
                "tag_labels": tag_labels}
    raise ConfigError("mesh", "needs either 'generator' or 'gmsh'")


def _parse_label(text, path):
    try:
        return BoundaryLabel.parse(text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, f"bad boundary label {text!r}: {exc}")


def _validate_map(map_cfg, dim, base_dir):
    kind = _optional(map_cfg, "kind", "identity", str, "map")
    if kind not in _MAP_KINDS:
        raise ConfigError("map.kind", f"unknown map kind {kind!r}")
    out = {"kind": kind}
    if kind == "expression":
        source = _need(map_cfg, "expressions", "map", str)
        try:
            parse_map_expressions(source, dim)
        except ExpressionError as exc:
            raise ConfigError("map.expressions", str(exc))
        out["expressions"] = source
    elif kind == "axis-scaling":
        scales = _need(map_cfg, "scales", "map", list)
        if len(scales) != dim:
            raise ConfigError("map.scales", f"need {dim} scale expressions")
        for i, s in enumerate(scales):
            try:
                parse_expression(str(s), ("t",))
            except ExpressionError as exc:
                raise ConfigError(f"map.scales[{i}]", str(exc))
        out["scales"] = [str(s) for s in scales]
    elif kind == "mesh-sequence":
        rel = _need(map_cfg, "directory", "map", str)
        full = base_dir / rel
        if not full.is_dir():
            raise ConfigError("map.directory", f"{full} is not a directory")
        out["directory"] = rel
    elif kind == "tube-shrink" and dim != 3:
        raise ConfigError("map.kind", "tube-shrink is a 3D map")
    return out


def _validate_physics(physics, dim):
    nu = _need(physics, "nu", "physics", (int, float))
    if nu <= 0:
        raise ConfigError("physics.nu", "must be positive")
    stress = _optional(physics, "stress", "symmetric", str, "physics")
    if stress not in ("symmetric", "full-gradient"):
        raise ConfigError("physics.stress", f"unknown stress form {stress!r}")
    out = {"nu": float(nu), "stress": stress}
    smag = _optional(physics, "smagorinsky", None, dict, "physics")
    if smag is not None:
        cs = _need(smag, "cs", "physics.smagorinsky", (int, float))
        if cs <= 0:
            raise ConfigError("physics.smagorinsky.cs", "must be positive")
        out["smagorinsky"] = {"cs": float(cs)}
    forcing = _optional(physics, "forcing", None, list, "physics")
    if forcing is not None:
        if len(forcing) != dim:
            raise ConfigError("physics.forcing",
                              f"need {dim} component expressions")
        names = tuple(f"x{i + 1}" for i in range(dim)) + ("t",)
        for i, expr in enumerate(forcing):
            try:
                parse_expression(expr, names)
            except ExpressionError as exc:
                raise ConfigError(f"physics.forcing[{i}]", str(exc))
        out["forcing"] = list(forcing)
    return out


def _validate_bcs(bcs, dim):
    out = {}
    names = tuple(f"x{i + 1}" for i in range(dim)) + ("t",)
    for key, entry in bcs.items():
        label = _parse_label(key, f"bcs.{key}")
        if not isinstance(entry, dict):
            raise ConfigError(f"bcs.{key}", "entry must be an object")
        btype = _need(entry, "type", f"bcs.{key}", str)
        if btype != label.kind:
            raise ConfigError(f"bcs.{key}.type",
                              f"type {btype!r} does not match label kind "
                              f"{label.kind!r}")
        data = _optional(entry, "data", None, list, f"bcs.{key}")
        if btype == "dirichlet" and data is None:
            raise ConfigError(f"bcs.{key}.data",
                              "dirichlet conditions need data expressions")
        if data is not None:
            if len(data) != dim:
                raise ConfigError(f"bcs.{key}.data",
                                  f"need {dim} component expressions")
            for i, expr in enumerate(data):
                try:
                    parse_expression(expr, names)
                except ExpressionError as exc:
                    raise ConfigError(f"bcs.{key}.data[{i}]", str(exc))
        out[key] = {"type": btype, "data": data}
    return out


# ---------------------------------------------------------------------------
# runtime object construction
# ---------------------------------------------------------------------------


def build_mesh(cfg):
    mesh = cfg.mesh
    if mesh["kind"] == "box":
        labels = {k: BoundaryLabel.parse(v) for k, v in mesh["labels"].items()}
        extents = mesh["extents"]
        return generate_box(mesh["dimension"], tuple(mesh["divisions"])
                            if isinstance(mesh["divisions"], list)
                            else mesh["divisions"],
                            extents=extents, labels=labels)
    if mesh["kind"] == "tube":
        labels = {k: BoundaryLabel.parse(v) for k, v in mesh["labels"].items()}
        radius = mesh["radius"]
        if isinstance(radius, str):
            expr = parse_expression(radius, ("y",))
            radius_fn = lambda y: float(expr(y=y))
        else:
            radius_fn = lambda y: float(radius)
        return generate_tube(mesh["axial_divisions"], mesh["radial_divisions"],
                             radius_fn, tuple(mesh["y_range"]), labels=labels)
    from .fileio import read_gmsh
    raw = read_gmsh(cfg.base_dir / mesh["path"], mesh["tag_labels"])
    return build_connectivity(raw["vertices"], raw["cells"],
                              raw["boundary_facets"], raw["boundary_labels"])


def build_map(cfg, mesh):
    map_cfg = cfg.map
    kind = map_cfg["kind"]
    d = mesh.dimension
    if kind == "identity":
        return IdentityMap(d)
    if kind == "tube-shrink":
        return TubeShrinkMap()
    if kind == "expression":
        return parse_map_expressions(map_cfg["expressions"], d)
    if kind == "axis-scaling":
        exprs = [parse_expression(s, ("t",)) for s in map_cfg["scales"]]
        rates = [e.derivative("t") for e in exprs]
        scales = [(lambda ee: (lambda t: float(ee(t=t))))(e) for e in exprs]
        rate_fns = [(lambda ee: (lambda t: float(ee(t=t))))(e) for e in rates]
        return AxisScalingMap(scales, rate_fns)
    return load_mesh_sequence(cfg.base_dir / map_cfg["directory"], mesh)


def _vector_expression_fn(exprs, dim):
    names = tuple(f"x{i + 1}" for i in range(dim)) + ("t",)
    parsed = [parse_expression(e, names) for e in exprs]
    return lambda X, t: evaluate(parsed, X, t)


def build_boundary_conditions(cfg, mesh):
    entries = {}
    d = mesh.dimension
    for key, entry in cfg.bcs.items():
        label = BoundaryLabel.parse(key)
        if entry["type"] == "noslip":
            entries[label] = NoslipBC()
        elif entry["type"] == "dirichlet":
            entries[label] = DirichletBC(_vector_expression_fn(entry["data"], d))
        else:
            if entry["data"] is None:
                entries[label] = NeumannBC(None)
            else:
                base = _vector_expression_fn(entry["data"], d)
                entries[label] = NeumannBC(lambda X, t, n, _f=base: _f(X, t))
    bcs = BoundaryConditionSet(entries)
    bcs.validate(mesh)
    return bcs


def build_forcing(cfg, mesh):
    forcing = cfg.physics.get("forcing")
    if forcing is None:
        return None
    return _vector_expression_fn(forcing, mesh.dimension)


def build_solver_config(cfg):
    smag = cfg.physics.get("smagorinsky")
    return SolverConfig(
        tolerance=cfg.solver["tolerance"],
        scheme=cfg.time["scheme"],
        smagorinsky=None if smag is None else smag["cs"],
        stress=cfg.physics["stress"])
