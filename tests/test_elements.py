import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from movingflow.elements import SYMMETRIC_RULES, quadrature, shape_functions

DERIVE = Path(__file__).resolve().parents[1] / "tools" / "derive_quadrature.py"


def exact_monomial(powers, d):
    """Integral of prod x_i^a_i over the unit simplex in R^d."""
    num = 1
    for a in powers:
        num *= math.factorial(a)
    return num / math.factorial(sum(powers) + d)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7, 8])
def test_quadrature_exactness(d, degree):
    """Segments have a rule of every degree, triangles and tetrahedra only
    the tabled ones; each rule that exists is exact to its degree."""
    if d > 1 and (d, degree) not in SYMMETRIC_RULES:
        with pytest.raises(ValueError, match="no quadrature rule"):
            quadrature(d, degree)
        return
    rule = quadrature(d, degree)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0 / math.factorial(d)) < 1e-14
    for powers in itertools.product(range(degree + 1), repeat=d):
        if sum(powers) > degree:
            continue
        vals = np.ones(rule.n_points)
        for i, a in enumerate(powers):
            vals *= rule.points[:, 1 + i] ** a
        assert abs(rule.weights @ vals - exact_monomial(powers, d)) < 1e-13


def test_quadrature_examples():
    tet = quadrature(3, 5)
    assert abs(tet.weights.sum() - 1.0 / 6.0) < 1e-15          # volume
    x = tet.points[:, 1:]
    assert abs(tet.weights @ (x[:, 0] * x[:, 1] * x[:, 2]) - 1.0 / 720.0) \
        < 1e-15                                                 # int x1 x2 x3
    tri = quadrature(2, 6)
    vals = tri.points[:, 1] ** 2 * tri.points[:, 2] ** 2
    assert abs(tri.weights @ vals - 1.0 / 180.0) < 1e-15       # int x1^2 x2^2
    tri7 = quadrature(2, 7)
    vals = tri7.points[:, 1] ** 3 * tri7.points[:, 2] ** 4
    assert abs(tri7.weights @ vals - 1.0 / 2520.0) < 1e-15     # int x1^3 x2^4
    seg = quadrature(1, 8)
    assert abs(seg.weights @ seg.points[:, 1] ** 8 - 1.0 / 9.0) < 1e-15


def _derive_tool():
    spec = importlib.util.spec_from_file_location("derive_quadrature", DERIVE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("d, exactness, n_points, group", [
    (2, 6, 12, list(itertools.permutations(range(3)))),            # S3
    (2, 7, 12, [(0, 1, 2), (1, 2, 0), (2, 0, 1)]),                 # C3
    (3, 5, 14, list(itertools.permutations(range(4)))),            # S4
])
def test_symmetric_rules(d, exactness, n_points, group):
    assert (d, exactness) in SYMMETRIC_RULES
    rule = quadrature(d, exactness)
    assert rule.n_points == n_points
    assert np.all((rule.points > 0) & (rule.points < 1))
    assert np.all(rule.weights > 0)
    assert np.allclose(rule.points.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    # each symmetry maps every point to a point of equal weight
    for perm in group:
        moved = rule.points[:, perm]
        dist = np.abs(moved[:, None, :] - rule.points[None, :, :]).max(axis=2)
        match = dist.argmin(axis=1)
        assert np.all(dist.min(axis=1) < 1e-15)
        assert sorted(match) == list(range(n_points))
        assert np.array_equal(rule.weights[match], rule.weights)


def test_symmetric_rules_agree_with_their_derivation():
    tool = _derive_tool()
    assert tool.check() == []


def test_derivation_check_sees_a_changed_constant(monkeypatch):
    tool = _derive_tool()
    (kind, coords, weight), *rest = SYMMETRIC_RULES[3, 5]
    changed = dict(SYMMETRIC_RULES)
    changed[3, 5] = ((kind, (coords[0] + 1e-13,), weight), *rest)
    monkeypatch.setattr(tool, "SYMMETRIC_RULES", changed)
    failures = tool.check()
    assert failures and all(f.startswith("(3, 5): ") for f in failures)
    assert any("under polishing" in f for f in failures)


def test_quadrature_unsupported_degree():
    with pytest.raises(ValueError):
        quadrature(2, 0)
    with pytest.raises(ValueError):
        quadrature(3, 99)
    with pytest.raises(ValueError):
        quadrature(4, 3)


def test_p1_values_at_barycenter():
    sf = shape_functions(1, 2)
    vals = sf.values(np.full((1, 3), 1.0 / 3.0))
    assert np.allclose(vals, 1.0 / 3.0)


def test_p2_nodal_basis():
    for d in (2, 3):
        sf = shape_functions(2, d)
        nodes = sf.node_barycentric()
        vals = sf.values(nodes)
        assert np.allclose(vals, np.eye(sf.n_basis), atol=1e-14)


def test_partition_of_unity():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        for degree in (1, 2):
            sf = shape_functions(degree, d)
            lam = rng.dirichlet(np.ones(d + 1), size=50)
            assert np.allclose(sf.values(lam).sum(axis=1), 1.0, atol=1e-13)
            assert np.allclose(sf.gradients(lam).sum(axis=1), 0.0, atol=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        sf = shape_functions(2, d)
        lam = rng.dirichlet(np.ones(d + 1), size=20)
        x = lam[:, 1:]
        g = sf.gradients(lam)
        h = 1e-6
        for k in range(d):
            xp = x.copy(); xp[:, k] += h
            xm = x.copy(); xm[:, k] -= h
            lp = np.concatenate([(1 - xp.sum(1))[:, None], xp], axis=1)
            lm = np.concatenate([(1 - xm.sum(1))[:, None], xm], axis=1)
            fd = (sf.values(lp) - sf.values(lm)) / (2 * h)
            assert np.abs(fd - g[:, :, k]).max() < 1e-8


def test_unsupported_basis_degree():
    with pytest.raises(ValueError):
        shape_functions(3, 2)
