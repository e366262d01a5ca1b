"""Lagrange bases on the reference simplex and simplex quadrature.

The triangle and tetrahedron rules are the three the spaces use, symmetric
tables in ``SYMMETRIC_RULES``, derived and checked by
``tools/derive_quadrature.py``: cells to degree 5 in 2D (7 points, the rule
of Radon 1948) and in 3D (14 points), boundary triangles of 3D meshes to
degree 7 (12 points); any other degree raises.  Segments use
Gauss-Legendre, exact for any requested total degree.  Every rule has
positive weights and interior points.  Points are stored in barycentric
coordinates; weights sum to the reference simplex measure 1/d!.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["ShapeFunctions", "QuadratureRule", "shape_functions", "quadrature",
           "default_degree", "LOCAL_EDGES"]

# local cell edges by local vertex pairs; fixes the midedge node order
LOCAL_EDGES = {
    1: ((0, 1),),
    2: ((0, 1), (0, 2), (1, 2)),
    3: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}


def default_degree(dimension):
    """Cell quadrature exactness, 5 in every dimension: exact on affine
    cells for the forms of ``assembly``, whose integrands are at most two
    quadratic basis functions times a cellwise-constant gradient of a third
    (mass 4, convection and the Temam term 5, viscous and divergence 2)."""
    return 5


class ShapeFunctions:
    """Nodal Lagrange basis (degree 1 or 2) on the reference simplex.

    ``values``/``gradients`` take barycentric points of shape (n, d+1);
    gradients are with respect to the local cartesian coordinates
    (lambda_0 = 1 - sum x_i, lambda_i = x_i).
    """

    def __init__(self, degree, dimension):
        if degree not in (1, 2):
            raise ValueError(f"unsupported basis degree {degree}")
        if dimension not in (1, 2, 3):
            raise ValueError(f"unsupported dimension {dimension}")
        self.degree = degree
        self.dimension = dimension
        self.n_basis = dimension + 1 if degree == 1 else \
            dimension + 1 + len(LOCAL_EDGES[dimension])

    def _lambda_grads(self):
        d = self.dimension
        g = np.zeros((d + 1, d))
        g[0] = -1.0
        g[1:] = np.eye(d)
        return g

    def values(self, bary):
        bary = np.atleast_2d(np.asarray(bary, dtype=float))
        d = self.dimension
        if self.degree == 1:
            return bary.copy()
        out = np.empty((bary.shape[0], self.n_basis))
        out[:, :d + 1] = bary * (2.0 * bary - 1.0)
        for k, (a, b) in enumerate(LOCAL_EDGES[d]):
            out[:, d + 1 + k] = 4.0 * bary[:, a] * bary[:, b]
        return out

    def gradients(self, bary):
        bary = np.atleast_2d(np.asarray(bary, dtype=float))
        d = self.dimension
        lg = self._lambda_grads()
        if self.degree == 1:
            return np.broadcast_to(lg, (bary.shape[0],) + lg.shape).copy()
        out = np.empty((bary.shape[0], self.n_basis, d))
        out[:, :d + 1, :] = (4.0 * bary - 1.0)[:, :, None] * lg[None, :, :]
        for k, (a, b) in enumerate(LOCAL_EDGES[d]):
            out[:, d + 1 + k, :] = 4.0 * (bary[:, a, None] * lg[b] +
                                          bary[:, b, None] * lg[a])
        return out

    def node_barycentric(self):
        """Barycentric coordinates of the nodal points (vertices, then
        midedge points for degree 2)."""
        d = self.dimension
        nodes = [np.eye(d + 1)[i] for i in range(d + 1)]
        if self.degree == 2:
            for a, b in LOCAL_EDGES[d]:
                nodes.append(0.5 * (np.eye(d + 1)[a] + np.eye(d + 1)[b]))
        return np.array(nodes)


@lru_cache(maxsize=None)
def shape_functions(degree, dimension):
    return ShapeFunctions(degree, dimension)


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray    # (nq, d+1) barycentric
    weights: np.ndarray   # (nq,), sum = 1/d!
    exactness: int

    @property
    def n_points(self):
        return len(self.weights)


def _gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# (dimension, exactness) -> orbits of (kind, free coordinates, weight of
# each point); written by tools/derive_quadrature.py, see ``orbit``
SYMMETRIC_RULES = {
    (2, 5): (
        ("s3", (), 0.11250000000000003),
        ("s21", (0.10128650732345634,), 0.06296959027241357),
        ("s21", (0.4701420641051151,), 0.0661970763942531),
    ),
    (2, 7): (
        ("c111", (0.03432430294509715, 0.3047265008681672), 0.028775042784981587),
        ("c111", (0.05522545665692661, 0.6232720494910916), 0.043881408714446055),
        ("c111", (0.06238226509440212, 0.8700998678316818), 0.026517028157436253),
        ("c111", (0.20644149867001643, 0.2777161669763918), 0.06749318700980278),
    ),
    (3, 5): (
        ("s31", (0.09273525031089122,), 0.012248840519393659),
        ("s31", (0.3108859192633006,), 0.018781320953002643),
        ("s22", (0.04550370412564965,), 0.007091003462846911),
    ),
}

# generator of each orbit kind from its free coordinates; the digits give
# the multiplicities of its barycentric coordinates
_GENERATORS = {
    "s3": lambda: (1.0 / 3.0,) * 3,
    "s21": lambda a: (a, a, 1.0 - 2.0 * a),
    "c111": lambda a, b: (a, b, 1.0 - a - b),
    "s31": lambda a: (a, a, a, 1.0 - 3.0 * a),
    "s22": lambda a: (a, a, 0.5 - a, 0.5 - a),
}


def orbit(kind, coords):
    """Barycentric points of one orbit: the distinct permutations of the
    kind's generator (``s`` kinds) or its cyclic shifts (``c`` kinds)."""
    g = _GENERATORS[kind](*coords)
    if kind[0] == "c":
        return [g[i:] + g[:i] for i in range(len(g))]
    return list(dict.fromkeys(itertools.permutations(g)))


def orbit_rule(orbits):
    """Points and weights of a rule given by its orbits ``(kind, coords,
    weight)``, in the precision of the coordinates."""
    pts, w = [], []
    for kind, coords, weight in orbits:
        points = orbit(kind, coords)
        pts += points
        w += [weight] * len(points)
    return np.array(pts), np.array(w)


@lru_cache(maxsize=None)
def quadrature(dimension, exactness):
    """Positive-weight rule on the reference simplex, exact for all
    polynomials of total degree <= ``exactness``: Gauss-Legendre on the
    segment at any exactness, a table of ``SYMMETRIC_RULES`` otherwise."""
    if dimension not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {dimension}")
    exactness = int(exactness)
    if dimension == 1 and exactness >= 1:
        x, w = _gauss01((exactness + 2) // 2)
        pts = np.stack([1.0 - x, x], axis=1)
    elif (dimension, exactness) in SYMMETRIC_RULES:
        pts, w = orbit_rule(SYMMETRIC_RULES[dimension, exactness])
    else:
        raise ValueError(f"no quadrature rule of degree {exactness} in "
                         f"dimension {dimension}")
    return QuadratureRule(points=pts, weights=w, exactness=exactness)
