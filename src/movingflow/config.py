"""JSON run configuration: schema validation and construction of the
runtime objects (mesh, map, boundary conditions, solver settings).

The schema is one table per block (``_SCHEMA``), with one sub-table per
mesh generator, map and boundary-label kind.  ``validate_config`` walks it:
an unknown key, a boolean for a number and a non-finite number are errors.

Boundary-condition and domain-map expressions are written in reference
coordinates ``x1..xd`` plus ``t``; forcing expressions are written in
physical coordinates.  All expressions are parsed at load time so malformed
input fails with the offending field path.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

from .expressions import (ExpressionError, coordinate_names, evaluate,
                          parse_expression)
from .maps import (AxisScalingMap, IdentityMap, TubeShrinkMap,
                   load_mesh_sequence, parse_map_expressions)
from .meshing import BoundaryLabel, build_connectivity, generate_box, generate_tube
from .solver import (BoundaryConditionSet, DirichletBC, NeumannBC, NoslipBC,
                     SolverConfig)

__all__ = ["RunConfig", "ConfigError", "load_config", "validate_config",
           "build_mesh", "build_map", "build_boundary_conditions",
           "build_forcing", "build_solver_config"]


class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"config field '{path}': {message}")
        self.field_path = path


def _block(key):
    return property(lambda self: self.raw[key])


@dataclass
class RunConfig:
    """Validated run configuration; ``raw`` keeps the normalized dict."""

    raw: dict
    base_dir: Path

    @property
    def mesh(self):
        wrapper = self.raw["mesh"]
        return wrapper.get("generator") or wrapper["gmsh"]

    map = _block("map")
    physics = _block("physics")
    time = _block("time")
    bcs = _block("bcs")
    output = _block("output")
    solver = _block("solver")

    def to_dict(self):
        return json.loads(json.dumps(self.raw))

    @property
    def n_steps(self):
        return int(round(self.time["T"] / self.time["dt"]))


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
    """The RunConfig of a config dict with its defaults filled in."""
    ctx = {"base_dir": Path(base_dir)}
    raw = _walk(data, _SCHEMA, "", ctx)
    dt, T = raw["time"]["dt"], raw["time"]["T"]
    if T < dt:
        raise ConfigError("time.T", "must be at least one step long")
    if not math.isfinite(T / dt) or \
            abs(round(T / dt) * dt - T) > 1e-9 * max(T, 1.0):
        raise ConfigError("time.dt", f"dt={dt} does not divide T={T}")
    return RunConfig(raw=raw, base_dir=ctx["base_dir"])


_REQUIRED = object()    # default of a field that must be given
_ABSENT = object()      # default of a field left out of ``raw`` when not given


# one field: its Python types, its default and its check, which is None,
# a tuple of choices, a function (value, path, ctx) -> stored value that
# raises ConfigError, or the table of a nested block; null means not given
_Field = namedtuple("_Field", "types default check",
                    defaults=(_REQUIRED, None))


# a block with one table per value of its "kind" field
_Kinds = namedtuple("_Kinds", "tables default", defaults=(_REQUIRED,))


# keys of earlier versions, rejected with what replaced them
_REMOVED = {
    "benchmark": "studies moved to `movingflow converge --case C --levels N`",
    "solver.type": "removed: there is one linear solve path",
    "solver.temam": "removed: the skew-symmetric form is the only one",
}


def _walk(data, spec, path, ctx):
    """The normalized copy of the object ``data`` under ``spec``: a table
    (key -> _Field) or _Kinds."""
    _expect(data, (dict,), path or "(root)")
    if isinstance(spec, _Kinds):
        field_ = _Field((str,), spec.default, tuple(spec.tables))
        kind = _value(data, "kind", field_, f"{path}.kind", ctx)
        spec = {"kind": field_} | spec.tables[kind]
    unknown = sorted(set(data) - set(spec))
    if unknown:
        key = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigError(key, _REMOVED.get(key, "unknown field"))
    out = {}
    for key, field_ in spec.items():
        value = _value(data, key, field_, f"{path}.{key}" if path else key,
                       ctx)
        if value is not _ABSENT:
            out[key] = value
        if key == "dimension":      # read by the checks that follow
            ctx["dim"] = value
    return out


def _value(data, key, field_, path, ctx):
    """The stored value of ``data[key]`` under ``field_``."""
    value = data.get(key)
    if value is None:
        if field_.default is _REQUIRED:
            raise ConfigError(path, "missing required field")
        if field_.default is None or field_.default is _ABSENT:
            return field_.default
        value = field_.default
    return _check(value, field_, path, ctx)


def _check(value, field_, path, ctx):
    _expect(value, field_.types, path)
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, "must be finite")
    if isinstance(field_.check, (dict, _Kinds)):
        return _walk(value, field_.check, path, ctx)
    if isinstance(field_.check, tuple) and value not in field_.check:
        raise ConfigError(path, f"{value!r} is not one of {field_.check}")
    if callable(field_.check):
        return field_.check(value, path, ctx)
    return value


def _expect(value, types, path):
    # a JSON boolean is a Python int, but not a number here
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and bool not in types):
        want = "/".join(t.__name__ for t in types)
        raise ConfigError(path, f"expected {want}, got {type(value).__name__}")


def _positive(value, path, ctx):
    if not value > 0:
        raise ConfigError(path, "must be positive")
    return float(value)


def _nonnegative(value, path, ctx):
    if value < 0:
        raise ConfigError(path, "must be >= 0 (0 disables)")
    return value


def _array(length, item):
    """A check of a list of ``length`` entries ("dim": the mesh dimension),
    each checked as the _Field ``item``; a bare entry stands for all."""
    def check(value, path, ctx):
        if not isinstance(value, list):
            return value
        n = ctx["dim"] if length == "dim" else length
        if len(value) != n:
            raise ConfigError(path, f"need {n} entries, got {len(value)}")
        return [_check(v, item, f"{path}[{i}]", ctx)
                for i, v in enumerate(value)]
    return check


def _expression(variables=None):
    """A check of an expression in ``variables`` (default ``x1..xd, t``;
    "map": the ';'-separated expressions of a map), stored as a string."""
    def check(value, path, ctx):
        try:
            if variables == "map":
                parse_map_expressions(value, ctx["dim"])
            else:
                parse_expression(str(value),
                                 variables or coordinate_names(ctx["dim"]))
        except ExpressionError as exc:
            raise ConfigError(path, str(exc)) from None
        return str(value)
    return check


def _mesh(value, path, ctx):
    if sum(value.get(key) is not None for key in _MESH) != 1:
        raise ConfigError(path, "needs exactly one of 'generator' or 'gmsh'")
    return _walk(value, _MESH, path, ctx)


def _three_d(value, path, ctx):
    if ctx["dim"] != 3:
        raise ConfigError(path, f"{value} is a 3D map")
    return value


def _labels(value, path, ctx):
    """A check of an object whose values are boundary labels."""
    for key, text in value.items():
        try:
            BoundaryLabel.parse(text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}.{key}",
                              f"bad boundary label {text!r}: {exc}")
    return value


def _bcs(value, path, ctx):
    # the kind of each label selects the table of its entry
    _labels({key: key for key in value}, path, ctx)
    return {key: _walk(entry, _BCS[BoundaryLabel.parse(key).kind],
                       f"{path}.{key}", ctx)
            for key, entry in value.items()}


def _existing(test):
    """A check of a path, relative to the config file, passing ``test``."""
    def check(value, path, ctx):
        if not test(ctx["base_dir"] / value):
            raise ConfigError(path, f"{ctx['base_dir'] / value} is not a "
                              f"{test.__name__[3:]}")
        return value
    return check


_INT, _NUMBER = (int,), (int, float)
_PAIR = _Field((list,), check=_array(2, _Field(_NUMBER)))
_VECTOR = _array("dim", _Field((str,), check=_expression()))
_FACE_LABELS = _Field((dict,), {}, _labels)

_MESH = {
    "generator": _Field((dict,), _ABSENT, _Kinds({
        "box": {
            "dimension": _Field(_INT, check=(2, 3)),
            "divisions": _Field((int, list),
                                check=_array("dim", _Field(_INT))),
            "extents": _Field((list,), None, _array("dim", _PAIR)),
            "labels": _FACE_LABELS,
        },
        "tube": {
            "dimension": _Field(_INT, 3, (3,)),
            "axial_divisions": _Field(_INT),
            "radial_divisions": _Field(_INT),
            "radius": _Field((str, int, float), check=_expression(("y",))),
            "y_range": _PAIR,
            "labels": _FACE_LABELS,
        },
    })),
    # expression arities are checked at load time, so the dimension must
    # be declared alongside external mesh files
    "gmsh": _Field((dict,), _ABSENT, _Kinds({"gmsh": {
        "path": _Field((str,), check=_existing(Path.is_file)),
        "tag_labels": _Field((dict,), check=_labels),
        "dimension": _Field(_INT, check=(2, 3)),
    }}, "gmsh")),
}

_BCS = {
    "noslip": {"type": _Field((str,), check=("noslip",)),
               "data": _Field((type(None),), None)},
    "dirichlet": {"type": _Field((str,), check=("dirichlet",)),
                  "data": _Field((list,), check=_VECTOR)},
    "neumann": {"type": _Field((str,), check=("neumann",)),
                "data": _Field((list,), None, _VECTOR)},
}

_SCHEMA = {
    "mesh": _Field((dict,), check=_mesh),
    "map": _Field((dict,), {}, _Kinds({
        "identity": {},
        "axis-scaling": {"scales": _Field((list,), check=_array(
            "dim", _Field((str, int, float), check=_expression(("t",)))))},
        "tube-shrink": {"kind": _Field((str,), check=_three_d)},
        "expression": {"expressions": _Field(
            (str,), check=_expression("map"))},
        "mesh-sequence": {"directory": _Field((str,),
                                              check=_existing(Path.is_dir))},
    }, "identity")),
    "physics": _Field((dict,), check={
        "nu": _Field(_NUMBER, check=_positive),
        "stress": _Field((str,), "symmetric",
                         ("symmetric", "full-gradient")),
        "smagorinsky": _Field((dict,), _ABSENT, {
            "cs": _Field(_NUMBER, check=_positive)}),
        "forcing": _Field((list,), _ABSENT, _VECTOR),
    }),
    "time": _Field((dict,), check={
        "dt": _Field(_NUMBER, check=_positive),
        "T": _Field(_NUMBER, check=_positive),
        "scheme": _Field((str,), "backward-euler",
                         ("backward-euler", "bdf2")),
    }),
    "bcs": _Field((dict,), check=_bcs),
    "output": _Field((dict,), {}, {
        "directory": _Field((str,), "output"),
        "vtk_every": _Field(_INT, 0, _nonnegative),
        "csv": _Field((bool,), True),
        "q_criterion": _Field((bool,), False),
        "checkpoint": _Field((bool,), False),
    }),
    "solver": _Field((dict,), {}, {
        "tolerance": _Field(_NUMBER, SolverConfig.tolerance, _positive),
    }),
}


# ---------------------------------------------------------------------------
# runtime object construction
# ---------------------------------------------------------------------------


def build_mesh(cfg):
    mesh = cfg.mesh
    labels = {k: BoundaryLabel.parse(v)
              for k, v in mesh.get("labels", {}).items()}
    if mesh["kind"] == "box":
        return generate_box(mesh["dimension"], mesh["divisions"],
                            extents=mesh["extents"], labels=labels)
    if mesh["kind"] == "tube":
        radius = parse_expression(mesh["radius"], ("y",))
        return generate_tube(mesh["axial_divisions"], mesh["radial_divisions"],
                             lambda y: float(radius(y=y)),
                             tuple(mesh["y_range"]), labels=labels)
    from .fileio import read_gmsh
    raw = read_gmsh(cfg.base_dir / mesh["path"], mesh["tag_labels"])
    if raw["dimension"] != mesh["dimension"]:
        raise ConfigError("mesh.gmsh.dimension", (
            f"declared {mesh['dimension']}, but {mesh['path']} holds a "
            f"{raw['dimension']}D mesh"))
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
    if exprs is None:
        return None
    parsed = [parse_expression(e, coordinate_names(dim)) for e in exprs]
    return lambda X, t: evaluate(parsed, X, t)


def build_boundary_conditions(cfg, mesh):
    entries = {}
    for key, entry in cfg.bcs.items():
        label = BoundaryLabel.parse(key)
        data = _vector_expression_fn(entry["data"], mesh.dimension)
        if entry["type"] == "noslip":
            entries[label] = NoslipBC()
        elif entry["type"] == "dirichlet":
            entries[label] = DirichletBC(data)
        elif data is None:
            entries[label] = NeumannBC(None)
        else:
            entries[label] = NeumannBC(lambda X, t, n, _f=data: _f(X, t))
    return BoundaryConditionSet(entries)


def build_forcing(cfg, mesh):
    return _vector_expression_fn(cfg.physics.get("forcing"), mesh.dimension)


def build_solver_config(cfg):
    smag = cfg.physics.get("smagorinsky")
    return SolverConfig(
        tolerance=cfg.solver["tolerance"],
        scheme=cfg.time["scheme"],
        smagorinsky=None if smag is None else smag["cs"],
        stress=cfg.physics["stress"])
