"""Space-time mappings from the fixed reference domain to the moving domain.

A map ``xi(x, t)`` carries the reference domain onto the physical domain at
time ``t``.  All solver-facing quantities derive from it: the spatial
gradient matrix ``F = grad_x xi``, its determinant ``J = det F``, the inverse
``F^{-1}`` and the domain velocity ``xi_t``.  Maps are immutable after
construction and every evaluation method is pure, so instances are safe to
share across threads.

Evaluation methods are vectorized: ``points`` is an ``(n, d)`` array and the
results have leading dimension ``n``.  ``sample_fields`` computes ``J`` and
``F^{-1}`` from closed-form 2x2 and cofactor 3x3 formulas and checks
``J > 0`` at every point before it divides by ``J``.  The solver does not
call it point set by point set: ``sampling.map_samples`` samples each time
level once per point set of a space and shares the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expressions import ExpressionError, evaluate, parse_expression

__all__ = [
    "SpaceTimeMap", "MappingSample", "MapValidationReport", "SingularMappingError",
    "IdentityMap", "AxisScalingMap", "TubeShrinkMap", "ExpressionMap",
    "MeshSequenceMap", "parse_map_expressions", "evaluate_map",
    "piola_residual", "validate_assumptions", "load_mesh_sequence",
    "DEFAULT_THRESHOLDS", "det_adjugate",
]

# (c_J, C_F, eps): lower bound on J, upper bound on the Frobenius norms of
# F and F^{-1}, upper bound on ||I - F||_F.  Permissive engineering defaults;
# the report exposes the measured extrema so callers can assert tighter ones.
DEFAULT_THRESHOLDS = (0.1, 100.0, 0.9)


class SingularMappingError(RuntimeError):
    """The mapping gradient is singular (J <= 0) at some point and time."""


@dataclass(frozen=True)
class MappingSample:
    """Pointwise map data: position gradient, inverse, determinant, velocity."""

    point: np.ndarray
    time: float
    F: np.ndarray
    F_inv: np.ndarray
    J: float
    xi_t: np.ndarray


@dataclass(frozen=True)
class MapValidationReport:
    min_J: float
    max_F_norm: float
    max_Finv_norm: float
    max_I_minus_F: float
    sample_count: int
    thresholds: tuple
    passed: bool

    def __str__(self):
        c_J, C_F, eps = self.thresholds
        lines = [
            f"samples            : {self.sample_count}",
            f"min J              : {self.min_J:.6g}   (required >= {c_J:g})",
            f"max ||F||_F        : {self.max_F_norm:.6g}   (required <= {C_F:g})",
            f"max ||F^-1||_F     : {self.max_Finv_norm:.6g}   (required <= {C_F:g})",
            f"max ||I - F||_F    : {self.max_I_minus_F:.6g}   (required <= {eps:g})",
            f"passed             : {self.passed}",
        ]
        return "\n".join(lines)


def _as_points(x, dimension):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != dimension:
        raise ValueError(f"expected points of dimension {dimension}, "
                         f"got shape {pts.shape}")
    return pts


class SpaceTimeMap:
    """Base class: subclasses provide position / gradient / velocity."""

    kind = "abstract"
    dimension = None

    def position(self, points, t, cells=None):
        """xi at each point, shape (n, d).  ``cells`` (cell index per
        point) is required only by mesh-backed maps, here and in
        ``gradient`` and ``velocity``."""
        raise NotImplementedError

    def gradient(self, points, t, cells=None):
        """F at each point, shape (n, d, d)."""
        raise NotImplementedError

    def velocity(self, points, t, cells=None):
        raise NotImplementedError

    # -- derived quantities -------------------------------------------------

    def sample_fields(self, points, t, cells=None):
        """Return (F, F_inv, J, xi_t) arrays at the given points."""
        points = _as_points(points, self.dimension)
        F = self.gradient(points, t, cells=cells)
        J, adj = det_adjugate(F)
        if not np.all(J > 0.0):
            i = int(np.flatnonzero(~(J > 0.0))[0])
            raise SingularMappingError(
                f"mapping gradient singular (J={J[i]:.3g} <= 0) at point "
                f"{points[i].tolist()} and time {t:g}")
        F_inv = adj / J[:, None, None]
        xi_t = self.velocity(points, t, cells=cells)
        return F, F_inv, J, xi_t

    def jacobian(self, points, t, cells=None):
        points = _as_points(points, self.dimension)
        return det_adjugate(self.gradient(points, t, cells=cells))[0]


def det_adjugate(F):
    """Determinants and adjugates of a stack of 2x2 or 3x3 matrices, from
    closed-form cofactor formulas; F^{-1} = adj / det where det != 0."""
    F = np.asarray(F, dtype=float)
    d = F.shape[-1]
    if d == 2:
        a, b = F[..., 0, 0], F[..., 0, 1]
        c, e = F[..., 1, 0], F[..., 1, 1]
        adj = np.stack([np.stack([e, -b], -1), np.stack([-c, a], -1)], -2)
        return a * e - b * c, adj
    if d == 3:
        # the rows of the cofactor matrix are cross products of the other
        # two rows of F; the adjugate is its transpose
        r0, r1, r2 = F[..., 0, :], F[..., 1, :], F[..., 2, :]
        cof = np.stack([np.cross(r1, r2), np.cross(r2, r0),
                        np.cross(r0, r1)], -2)
        det = np.einsum("...j,...j->...", r0, cof[..., 0, :])
        return det, np.swapaxes(cof, -1, -2)
    raise ValueError(f"closed-form inverse needs 2x2 or 3x3 matrices, got "
                     f"{d}x{d}")


class IdentityMap(SpaceTimeMap):
    """The static map: the physical domain equals the reference domain."""

    kind = "identity"

    def __init__(self, dimension):
        self.dimension = int(dimension)

    def position(self, points, t, cells=None):
        return _as_points(points, self.dimension).copy()

    def gradient(self, points, t, cells=None):
        n = _as_points(points, self.dimension).shape[0]
        eye = np.eye(self.dimension)
        return np.broadcast_to(eye, (n, self.dimension, self.dimension)).copy()

    def velocity(self, points, t, cells=None):
        return np.zeros_like(_as_points(points, self.dimension))


class AxisScalingMap(SpaceTimeMap):
    """Per-axis scaling xi_i = s_i(t) x_i with user scale functions.

    ``scales`` and ``rates`` are sequences of callables s_i(t) and s_i'(t).
    """

    kind = "axis-scaling"

    def __init__(self, scales, rates):
        if len(scales) != len(rates):
            raise ValueError("need one rate function per scale function")
        self.scales = tuple(scales)
        self.rates = tuple(rates)
        self.dimension = len(scales)

    def _s(self, t):
        return np.array([s(t) for s in self.scales], dtype=float)

    def position(self, points, t, cells=None):
        return _as_points(points, self.dimension) * self._s(t)

    def gradient(self, points, t, cells=None):
        n = _as_points(points, self.dimension).shape[0]
        F = np.zeros((n, self.dimension, self.dimension))
        F[:] = np.diag(self._s(t))
        return F

    def velocity(self, points, t, cells=None):
        rates = np.array([r(t) for r in self.rates], dtype=float)
        return _as_points(points, self.dimension) * rates


class TubeShrinkMap(SpaceTimeMap):
    """Radial shrink of a tube around the x2 axis.

    xi = (x1 s(t), x2, x3 s(t)) with s(t) = sqrt(1 - t/4), so the
    cross-sectional area decays linearly in time: J = s^2 = 1 - t/4.
    """

    kind = "tube-shrink"
    dimension = 3

    @staticmethod
    def scale(t):
        return np.sqrt(1.0 - t / 4.0)

    @staticmethod
    def scale_rate(t):
        return -1.0 / (8.0 * TubeShrinkMap.scale(t))

    def position(self, points, t, cells=None):
        pts = _as_points(points, 3)
        s = self.scale(t)
        return pts * np.array([s, 1.0, s])

    def gradient(self, points, t, cells=None):
        n = _as_points(points, 3).shape[0]
        s = self.scale(t)
        F = np.zeros((n, 3, 3))
        F[:] = np.diag([s, 1.0, s])
        return F

    def velocity(self, points, t, cells=None):
        pts = _as_points(points, 3)
        ds = self.scale_rate(t)
        return pts * np.array([ds, 0.0, ds])


class ExpressionMap(SpaceTimeMap):
    """Map defined by one arithmetic expression per coordinate.

    F and xi_t come from exact forward-mode differentiation of the parsed
    expression trees, not from numerical differencing.
    """

    kind = "expression"

    def __init__(self, expressions):
        self.expressions = tuple(expressions)
        self.dimension = len(self.expressions)
        d = self.dimension
        # row-major dxi_i/dx_j, reshaped to F after evaluation
        self._grad = [e.derivative(f"x{j + 1}") for e in self.expressions
                      for j in range(d)]
        self._rate = [e.derivative("t") for e in self.expressions]

    def position(self, points, t, cells=None):
        return evaluate(self.expressions, _as_points(points, self.dimension), t)

    def gradient(self, points, t, cells=None):
        d = self.dimension
        return evaluate(self._grad, _as_points(points, d), t).reshape(-1, d, d)

    def velocity(self, points, t, cells=None):
        return evaluate(self._rate, _as_points(points, self.dimension), t)


def parse_map_expressions(source, dimension):
    """Build an ExpressionMap from ``dimension`` ';'-separated expressions."""
    parts = [p.strip() for p in source.split(";")]
    parts = [p for p in parts if p]
    if len(parts) != dimension:
        raise ExpressionError(
            f"expected {dimension} ';'-separated expressions, got {len(parts)}")
    names = tuple(f"x{i + 1}" for i in range(dimension)) + ("t",)
    return ExpressionMap([parse_expression(p, names) for p in parts])


class MeshSequenceMap(SpaceTimeMap):
    """Map given by stored nodal positions of a fixed-connectivity mesh.

    Between stored frames, nodal positions are interpolated linearly in time.
    The gradient F is the piecewise-constant gradient of the piecewise-linear
    nodal displacement per cell; the velocity is the slope of the current
    frame interval (equivalently, the backward difference quotient of the
    frame positions).  Points are evaluated in the cell given for each
    (``cells``); the map does no point location.
    """

    kind = "mesh-sequence"

    def __init__(self, mesh, times, frames):
        times = np.asarray(times, dtype=float)
        frames = np.asarray(frames, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("need at least two frames")
        if np.any(np.diff(times) <= 0):
            raise ValueError("frame times must be strictly increasing")
        if frames.shape != (len(times), len(mesh.vertices), mesh.dimension):
            raise ValueError(f"frame array has shape {frames.shape}, expected "
                             f"{(len(times), len(mesh.vertices), mesh.dimension)}")
        if not np.allclose(frames[0], mesh.vertices, atol=1e-12, rtol=0.0):
            raise ValueError("first frame must coincide with the reference mesh")
        self.mesh = mesh
        self.times = times
        self.frames = frames
        self.dimension = mesh.dimension
        # gradients of the P1 vertex basis per cell, for the cellwise F
        self._lambda_grads = _p1_vertex_gradients(mesh)

    # -- nodal accessors (exact, no point location needed) -------------------

    def node_positions(self, t):
        times = self.times
        if t <= times[0]:
            return self.frames[0].copy()
        if t >= times[-1]:
            return self.frames[-1].copy()
        j = int(np.searchsorted(times, t, side="right"))
        w = (t - times[j - 1]) / (times[j] - times[j - 1])
        return (1.0 - w) * self.frames[j - 1] + w * self.frames[j]

    def _interval(self, t):
        """Index j of the frame interval [t_{j-1}, t_j] containing t."""
        j = int(np.searchsorted(self.times, t, side="left"))
        return min(max(j, 1), len(self.times) - 1)

    def node_velocities(self, t):
        j = self._interval(t)
        dt = self.times[j] - self.times[j - 1]
        return (self.frames[j] - self.frames[j - 1]) / dt

    # -- field evaluation -----------------------------------------------------

    @staticmethod
    def _cells(cells):
        if cells is None:
            raise ValueError("a mesh-sequence map is evaluated per cell: "
                             "pass the cell index of each point")
        return np.asarray(cells, dtype=int)

    def _nodal_field_at(self, nodal, points, cells):
        pts = _as_points(points, self.dimension)
        cells = self._cells(cells)
        verts = self.mesh.vertices
        conn = self.mesh.cells[cells]
        rel = pts - verts[conn[:, 0]]
        edge = verts[conn[:, 1:]] - verts[conn[:, 0]][:, None, :]
        lam = np.linalg.solve(np.swapaxes(edge, 1, 2), rel[..., None])[..., 0]
        bary = np.concatenate([(1.0 - lam.sum(axis=1))[:, None], lam], axis=1)
        return np.einsum("pv,pvd->pd", bary, nodal[conn])

    def position(self, points, t, cells=None):
        return self._nodal_field_at(self.node_positions(t), points, cells)

    def velocity(self, points, t, cells=None):
        return self._nodal_field_at(self.node_velocities(t), points, cells)

    def gradient(self, points, t, cells=None):
        cells = self._cells(cells)
        pos = self.node_positions(t)
        conn = self.mesh.cells[cells]
        # F = sum_v pos_v (grad lambda_v)^T, constant per cell
        return np.einsum("pvi,pvj->pij", pos[conn], self._lambda_grads[cells])


def _p1_vertex_gradients(mesh):
    """Gradients of the P1 vertex basis functions, shape (ncells, d+1, d)."""
    verts = mesh.vertices[mesh.cells]
    edge = verts[:, 1:, :] - verts[:, :1, :]        # (nc, d, d)
    inv = np.linalg.inv(edge)                        # rows: d/d(local coords)
    grads = np.empty((len(mesh.cells), mesh.dimension + 1, mesh.dimension))
    grads[:, 1:, :] = np.swapaxes(inv, 1, 2)
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads


def load_mesh_sequence(directory, mesh):
    """Load a mesh-sequence map from a directory of per-frame files.

    Each file holds the frame time on line 1 and then one whitespace
    separated coordinate line per node; node count and ordering must be
    identical across frames.  Frames are ordered by their stored times.
    """
    directory = Path(directory)
    files = sorted(p for p in directory.iterdir() if p.is_file())
    if len(files) < 2:
        raise ValueError(f"mesh-sequence directory {directory} needs >= 2 frames")
    times, frames = [], []
    for path in files:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        times.append(float(lines[0]))
        coords = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
        frames.append(coords)
    shapes = {f.shape for f in frames}
    if len(shapes) != 1:
        raise ValueError("inconsistent node counts across frames")
    order = np.argsort(times)
    times = np.asarray(times)[order]
    frames = np.asarray(frames)[order]
    return MeshSequenceMap(mesh, times, frames)


# ---------------------------------------------------------------------------
# Module operations
# ---------------------------------------------------------------------------


def evaluate_map(map_, x, t):
    """Evaluate the map at one reference point and time."""
    pts = _as_points(x, map_.dimension)
    F, F_inv, J, xi_t = map_.sample_fields(pts, t)
    return MappingSample(point=pts[0], time=float(t), F=F[0],
                         F_inv=F_inv[0], J=float(J[0]), xi_t=xi_t[0])


def piola_residual(map_, x, t, delta=1e-3):
    """Central-difference estimate of |div(J F^{-1})| at a point.

    The exact columnwise divergence of J F^{-1} vanishes for smooth maps, so
    for twice-differentiable entries the returned value is O(delta^2).
    """
    x = np.asarray(x, dtype=float)
    d = map_.dimension

    def jfinv(p):
        F, F_inv, J, _ = map_.sample_fields(p[None, :], t)
        return J[0] * F_inv[0]

    div = np.zeros(d)
    for i in range(d):
        step = np.zeros(d)
        step[i] = delta
        div += (jfinv(x + step)[i, :] - jfinv(x - step)[i, :]) / (2.0 * delta)
    return float(np.linalg.norm(div))


def validate_assumptions(map_, mesh, times, thresholds=DEFAULT_THRESHOLDS):
    """Sample F, J at mesh vertices and cell barycenters over the given times
    and check the regularity bounds (c_J, C_F, eps)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("need at least one sample time")
    bary = mesh.vertices[mesh.cells].mean(axis=1)
    pts = np.vstack([mesh.vertices, bary])
    # vertices get an incident cell (a mesh-backed F is constant per cell
    # and every cell is sampled at its barycenter, so any one gives the
    # same report); barycenters their own cell
    vcell = np.zeros(len(mesh.vertices), dtype=int)
    vcell[mesh.cells] = np.arange(len(mesh.cells))[:, None]
    cells = np.concatenate([vcell, np.arange(len(mesh.cells))])

    eye = np.eye(map_.dimension)
    min_J = np.inf
    max_F = max_Finv = max_dev = 0.0
    for t in times:
        F, F_inv, J, _ = map_.sample_fields(pts, float(t), cells=cells)
        min_J = min(min_J, float(J.min()))
        max_F = max(max_F, float(np.linalg.norm(F, axis=(1, 2)).max()))
        max_Finv = max(max_Finv, float(np.linalg.norm(F_inv, axis=(1, 2)).max()))
        max_dev = max(max_dev, float(np.linalg.norm(F - eye, axis=(1, 2)).max()))

    c_J, C_F, eps = thresholds
    passed = (min_J >= c_J) and (max(max_F, max_Finv) <= C_F) and (max_dev <= eps)
    return MapValidationReport(
        min_J=min_J, max_F_norm=max_F, max_Finv_norm=max_Finv,
        max_I_minus_F=max_dev, sample_count=pts.shape[0] * times.size,
        thresholds=tuple(thresholds), passed=passed)
