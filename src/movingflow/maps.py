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

Memory order is part of the contract: ``sample_fields`` returns ``F^{-1}``
as an (n, d, d) view over d x d contiguous component planes, each an
array of n values.  Its readers in ``sampling`` work on whole planes (the
cell map factor inv F^{-1} by written-out sums, the facet conormal J
F^{-T} n): elementwise work on contiguous rows, where a stacked ``matmul``
over the points makes one tiny BLAS call per point.  Indexing the view
point by point works as on any (n, d, d) array.  ``det_adjugate_planes``
returns the adjugate in such planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expressions import (ExpressionError, coordinate_names, evaluate,
                          parse_expression)
from .meshing import incident_cells

__all__ = [
    "SpaceTimeMap", "MappingSample", "MapValidationReport", "SingularMappingError",
    "IdentityMap", "AxisScalingMap", "TubeShrinkMap", "ExpressionMap",
    "MeshSequenceMap", "parse_map_expressions", "evaluate_map",
    "piola_residual", "validate_assumptions", "load_mesh_sequence",
    "DEFAULT_THRESHOLDS", "det_adjugate_planes",
]

# (c_J, C_F, eps): lower bound on J, upper bound on the Frobenius norms of
# F and F^{-1}, upper bound on ||I - F||_F.  Permissive engineering defaults;
# the report exposes the measured extrema so callers can assert tighter ones.
DEFAULT_THRESHOLDS = (0.1, 100.0, 0.9)


class SingularMappingError(RuntimeError):
    """The mapping gradient is singular (J <= 0) or has a non-finite
    inverse at some point and time."""


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
        """Return (F, F_inv, J) arrays at the given points; F_inv is an
        (n, d, d) view over contiguous component planes (see above)."""
        points = _as_points(points, self.dimension)
        F = self.gradient(points, t, cells=cells)
        J, adj = det_adjugate_planes(F)
        valid = (J > 0.0) & (J < np.inf)
        if valid.all():
            with np.errstate(over="ignore"):    # a tiny J: checked next
                adj /= J
            valid = np.isfinite(adj).all(axis=(0, 1))
        if not valid.all():
            i = int(np.flatnonzero(~valid)[0])
            raise SingularMappingError(
                f"mapping gradient singular or not finite (J={J[i]:.3g}) at "
                f"point {points[i].tolist()} and time {t:g}")
        return F, np.moveaxis(adj, -1, 0), J

    def jacobian(self, points, t, cells=None):
        points = _as_points(points, self.dimension)
        return det_adjugate_planes(self.gradient(points, t, cells=cells))[0]


def det_adjugate_planes(F):
    """Determinants of a stack of 2x2 or 3x3 matrices F (n, d, d), and
    their adjugates as contiguous planes adj[j, k], (d, d, n), from
    closed-form cofactor formulas; F^{-1} = adj / det where det != 0."""
    F = np.asarray(F, dtype=float)
    d = F.shape[-1]
    if d not in (2, 3):
        raise ValueError(f"closed-form inverse needs 2x2 or 3x3 matrices, "
                         f"got {d}x{d}")
    f = np.moveaxis(F, (-2, -1), (0, 1)).copy()      # planes f[i, j] of F
    adj = np.empty(f.shape)
    if d == 2:
        adj[0, 0], adj[1, 1] = f[1, 1], f[0, 0]
        np.negative(f[0, 1], out=adj[0, 1])
        np.negative(f[1, 0], out=adj[1, 0])
        return f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0], adj
    # row k of the cofactor matrix is the cross product of rows k+1 and
    # k+2 of F; the adjugate, its transpose, is written as adj[j, k]
    for k in range(3):
        p, q = (k + 1) % 3, (k + 2) % 3
        for j in range(3):
            s, r = (j + 1) % 3, (j + 2) % 3
            np.multiply(f[p, s], f[q, r], out=adj[j, k, ...])
            adj[j, k, ...] -= f[p, r] * f[q, s]
    # det by an einsum with a contiguous copy of cofactor row 0: over
    # the strided row the einsum rounds differently, 1 ulp apart
    det = np.einsum("...j,...j->...", F[..., 0, :],
                    np.moveaxis(adj[:, 0], 0, -1).copy())
    return det, adj


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
    return ExpressionMap([parse_expression(p, coordinate_names(dimension))
                          for p in parts])


class MeshSequenceMap(SpaceTimeMap):
    """Map given by stored nodal positions of a fixed-connectivity mesh.

    A time t lies in one frame interval [t_{j-1}, t_j] (a frame time t_j
    in the one that ends at it): the nodal positions are linear in time on
    it and the nodal velocities are its slope.  F is the cellwise-constant
    gradient of the P1 nodal positions; position and velocity xi_t are the
    P1 interpolants of the nodal values, so a run's wall velocity is the P1
    interpolant of the slope.  Points are evaluated in the cell given for
    each (``cells``); the map does no point location.  A time outside the
    frames' span by more than 1e-9 of it raises a ValueError.
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

    def _interval(self, t):
        """Index j of the frame interval [t_{j-1}, t_j] of t, and its
        length."""
        times = self.times
        slack = 1e-9 * (times[-1] - times[0])
        if not times[0] - slack <= t <= times[-1] + slack:
            raise ValueError(f"mesh-sequence map evaluated at t={t:g}, "
                             f"outside its frames' span [{times[0]:g}, "
                             f"{times[-1]:g}]")
        j = int(np.searchsorted(times, t, side="left"))
        j = min(max(j, 1), len(times) - 1)
        return j, times[j] - times[j - 1]

    def node_positions(self, t):
        j, length = self._interval(t)
        w = (t - self.times[j - 1]) / length
        return (1.0 - w) * self.frames[j - 1] + w * self.frames[j]

    def node_velocities(self, t):
        j, length = self._interval(t)
        return (self.frames[j] - self.frames[j - 1]) / length

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
    F, F_inv, J = map_.sample_fields(pts, t)
    return MappingSample(point=pts[0], time=float(t), F=F[0],
                         F_inv=F_inv[0], J=float(J[0]),
                         xi_t=map_.velocity(pts, t)[0])


def piola_residual(map_, x, t, delta=1e-3):
    """Central-difference estimate of |div(J F^{-1})| at a point.

    The exact columnwise divergence of J F^{-1} vanishes for smooth maps, so
    for twice-differentiable entries the returned value is O(delta^2).
    """
    x = np.asarray(x, dtype=float)
    d = map_.dimension

    def jfinv(p):
        _, F_inv, J = map_.sample_fields(p[None, :], t)
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
    cells = np.concatenate([incident_cells(mesh.cells, mesh.n_vertices),
                            np.arange(mesh.n_cells)])

    eye = np.eye(map_.dimension)
    min_J = np.inf
    max_F = max_Finv = max_dev = 0.0
    for t in times:
        F, F_inv, J = map_.sample_fields(pts, float(t), cells=cells)
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
