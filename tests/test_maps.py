import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingflow.expressions import ExpressionError
from movingflow.maps import (AxisScalingMap, IdentityMap, MeshSequenceMap,
                             SingularMappingError, TubeShrinkMap,
                             det_adjugate_planes, evaluate_map, load_mesh_sequence,
                             parse_map_expressions, piola_residual,
                             validate_assumptions)
from movingflow.meshing import generate_box

# non-separable expression maps: their transformed-volume fields have
# genuinely nonzero finite-difference commutators, unlike axis scalings
CURVED_2D = "x1 + 0.1*sin(x1*x2); x2 + 0.1*exp(x1*x2/4)"
CURVED_3D = ("x1 + 0.05*sin(x1*x2); x2 + 0.05*exp(x1*x3/4); "
             "x3 + 0.05*cos(x2*x3)")


def catalog(dim):
    maps = [IdentityMap(dim)]
    if dim == 2:
        maps.append(AxisScalingMap([lambda t: 1 + t, lambda t: 1 / (1 + t)],
                                   [lambda t: 1.0,
                                    lambda t: -1 / (1 + t) ** 2]))
        maps.append(parse_map_expressions(CURVED_2D, 2))
    else:
        maps.append(TubeShrinkMap())
        maps.append(parse_map_expressions(CURVED_3D, 3))
    return maps


def test_identity_map_fields():
    sample = evaluate_map(IdentityMap(3), (0.3, 0.4, 0.5), 1.7)
    assert np.allclose(sample.F, np.eye(3))
    assert sample.J == 1.0
    assert np.allclose(sample.xi_t, 0.0)


def test_tube_shrink_closed_form():
    sample = evaluate_map(TubeShrinkMap(), (0.2, 0.1, 0.3), 0.2)
    s = np.sqrt(0.95)
    assert abs(sample.J - 0.95) < 1e-14
    assert np.allclose(np.diag(sample.F), [s, 1.0, s])
    assert np.allclose(sample.F, np.diag([s, 1.0, s]))


def test_axis_scaling_volume_preserving():
    m = AxisScalingMap([lambda t: 1 + t, lambda t: 1 / (1 + t)],
                       [lambda t: 1.0, lambda t: -1 / (1 + t) ** 2])
    for t in (0.0, 0.4, 1.3):
        J = m.jacobian(np.random.default_rng(0).uniform(0, 1, (10, 2)), t)
        assert np.allclose(J, 1.0, atol=1e-14)


def test_expression_map_example():
    m = parse_map_expressions("x1*(1+t); x2/(1+t)", 2)
    s = evaluate_map(m, (1.0, 1.0), 1.0)
    assert np.allclose(m.position([[1.0, 1.0]], 1.0), [[2.0, 0.5]])
    assert np.allclose(np.diag(s.F), [2.0, 0.5])
    assert np.allclose(s.xi_t, [1.0, -0.25])
    assert abs(s.J - 1.0) < 1e-14


def test_expression_map_tube_form():
    m = parse_map_expressions(
        "x1*sqrt(1 - t/4); x2; x3*sqrt(1 - t/4)", 3)
    assert abs(evaluate_map(m, (0.5, 1.0, 0.5), 0.0).J - 1.0) < 1e-14
    ref = TubeShrinkMap()
    X = np.random.default_rng(1).uniform(-1, 1, (20, 3))
    for t in (0.05, 0.2):
        assert np.allclose(m.position(X, t), ref.position(X, t), atol=1e-14)
        assert np.allclose(m.gradient(X, t), ref.gradient(X, t), atol=1e-14)
        assert np.allclose(m.velocity(X, t), ref.velocity(X, t), atol=1e-13)


def test_identity_expressions():
    m = parse_map_expressions("x1; x2", 2)
    X = np.random.default_rng(2).uniform(0, 1, (7, 2))
    assert np.allclose(m.position(X, 0.3), X)
    assert np.allclose(m.gradient(X, 0.3), np.eye(2))


def test_parse_map_expression_errors():
    with pytest.raises(ExpressionError):
        parse_map_expressions("x1; x2; x3", 2)          # arity mismatch
    with pytest.raises(ExpressionError):
        parse_map_expressions("x1 + ; x2", 2)           # syntax
    with pytest.raises(ExpressionError):
        parse_map_expressions("x1 + q; x2", 2)          # unknown identifier


@pytest.mark.parametrize("dim", [2, 3])
def test_gradient_determinant_inverse_consistency(dim):
    rng = np.random.default_rng(10 + dim)
    for m in catalog(dim):
        X = rng.uniform(0.1, 0.9, (50, dim))
        for t in (0.0, 0.1):
            F, Finv, J = m.sample_fields(X, t)
            assert np.allclose(np.linalg.det(F), J, atol=1e-12)
            eye = np.einsum("nij,njk->nik", F, Finv)
            assert np.max(np.abs(eye - np.eye(dim))) < 1e-12


def test_expression_ad_matches_finite_differences():
    rng = np.random.default_rng(42)
    m = parse_map_expressions(CURVED_2D, 2)
    X = rng.uniform(0.1, 0.9, (100, 2))
    ts = rng.uniform(0.0, 1.0, 100)
    h = 1e-5
    for i in range(100):
        x = X[i:i + 1]
        t = ts[i]
        F = m.gradient(x, t)[0]
        V = m.velocity(x, t)[0]
        for j in range(2):
            dx = np.zeros((1, 2)); dx[0, j] = h
            fd = (m.position(x + dx, t) - m.position(x - dx, t))[0] / (2 * h)
            rel = np.abs(fd - F[:, j]) / np.maximum(np.abs(F[:, j]), 1e-10)
            assert rel.max() < 1e-6
        fdt = (m.position(x, t + h) - m.position(x, t - h))[0] / (2 * h)
        assert np.abs(fdt - V).max() / max(np.abs(V).max(), 1e-10) < 1e-6


def test_piola_residual_trivial_and_constant_cofactor():
    assert piola_residual(IdentityMap(2), (0.4, 0.5), 0.1) == 0.0
    # spatially constant J F^{-1}: exact divergence is zero
    assert piola_residual(TubeShrinkMap(), (0.2, 0.1, 0.3), 0.1, 1e-3) < 1e-6
    m = parse_map_expressions("x1*(1+t); x2/(1+t)", 2)
    assert piola_residual(m, (0.4, 0.5), 0.5, 1e-3) < 1e-6


@pytest.mark.parametrize("dim", [2, 3])
def test_piola_residual_second_order_decay(dim):
    m = parse_map_expressions(CURVED_2D if dim == 2 else CURVED_3D, dim)
    x = (0.4, 0.5) if dim == 2 else (0.4, 0.5, 0.3)
    deltas = [1e-2, 5e-3, 2.5e-3]
    res = [piola_residual(m, x, 0.2, d) for d in deltas]
    for r0, r1 in zip(res, res[1:]):
        assert np.log2(r0 / r1) >= 1.9


def test_validate_assumptions_identity():
    mesh = generate_box(2, (2, 2))
    report = validate_assumptions(IdentityMap(2), mesh, [0.0, 0.5, 1.0],
                                  thresholds=(0.5, 10.0, 0.5))
    assert report.passed
    assert report.min_J == 1.0
    assert report.max_I_minus_F == 0.0


def test_validate_assumptions_tube_extrema():
    mesh = generate_box(3, (2, 2, 2))
    times = np.linspace(0.0, 0.2, 11)
    report = validate_assumptions(TubeShrinkMap(), mesh, times)
    assert abs(report.min_J - 0.95) < 1e-12
    expected = np.sqrt(2.0) * (1.0 - np.sqrt(0.95))
    assert abs(report.max_I_minus_F - expected) < 1e-12
    assert report.passed


def test_degenerate_map_raises():
    m = parse_map_expressions("x1*t; x2", 2)
    mesh = generate_box(2, (1, 1))
    with pytest.raises(SingularMappingError):
        validate_assumptions(m, mesh, [0.0])
    with pytest.raises(SingularMappingError):
        evaluate_map(m, (0.5, 0.5), 0.0)


@pytest.mark.parametrize("f00", [np.inf, 1e-310])
def test_non_finite_inverse_is_singular(f00):
    # J = inf, or J > 0 so small that F^{-1} overflows: both raise as J <= 0
    class Degenerate(IdentityMap):
        def gradient(self, points, t, cells=None):
            F = super().gradient(points, t, cells)
            F[-1, 0, 0] = f00
            return F

    with pytest.raises(SingularMappingError, match="not finite"):
        Degenerate(2).sample_fields(np.zeros((3, 2)), 0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_closed_form_inverse_matches_linalg(dim):
    # U diag(s) V^T with singular values in [0.5, 2]: condition <= 4
    rng = np.random.default_rng(20 + dim)
    U, _ = np.linalg.qr(rng.standard_normal((500, dim, dim)))
    V, _ = np.linalg.qr(rng.standard_normal((500, dim, dim)))
    s = rng.uniform(0.5, 2.0, (500, 1, dim))
    F = (U * s) @ np.swapaxes(V, 1, 2)
    J, adj = det_adjugate_planes(F)
    assert np.max(np.abs(J - np.linalg.det(F)) / np.abs(J)) < 1e-13
    inv = np.moveaxis(np.linalg.inv(F), 0, -1)          # as planes
    err = np.linalg.norm(adj / J - inv, axis=(0, 1))
    assert np.max(err / np.linalg.norm(inv, axis=(0, 1))) < 1e-13


def _cross_det_adjugate(F):
    """det and adjugate of 3x3 stacks by np.cross: rows of the cofactor
    matrix are cross products of the other two rows of F."""
    r0, r1, r2 = F[..., 0, :], F[..., 1, :], F[..., 2, :]
    cof = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], -2)
    return (np.einsum("...j,...j->...", r0, cof[..., 0, :]),
            np.swapaxes(cof, -1, -2))


@pytest.mark.parametrize("shape", [(4000, 3, 3), (97, 7, 3, 3), (3, 3)])
def test_det_adjugate_equals_the_cross_product_formula_bitwise(shape):
    F = np.random.default_rng(sum(shape)).standard_normal(shape)
    J, adj = det_adjugate_planes(F)
    J_cross, adj_cross = _cross_det_adjugate(F)
    assert adj.shape == (3, 3) + shape[:-2] and adj.flags.c_contiguous
    assert np.array_equal(J, J_cross)
    assert np.array_equal(np.moveaxis(adj, (0, 1), (-2, -1)), adj_cross)


@pytest.mark.parametrize("dim", [2, 3])
def test_sampled_inverse_is_a_view_over_contiguous_planes(dim):
    """sample_fields returns F^{-1} as an (n, d, d) view over contiguous
    component planes, which sampling combines plane by plane; it equals
    the adjugate planes of det_adjugate_planes over J to the bit."""
    X = np.random.default_rng(dim).uniform(0.1, 0.9, (50, dim))
    for m in catalog(dim):
        result = m.sample_fields(X, 0.3)
        assert len(result) == 3, m.kind
        F, F_inv, J = result
        assert F_inv.shape == (50, dim, dim), m.kind
        assert np.moveaxis(F_inv, 0, -1).flags.c_contiguous, m.kind
        J_c, adj = det_adjugate_planes(F)
        assert np.array_equal(J, J_c), m.kind
        assert np.array_equal(np.moveaxis(F_inv, 0, -1), adj / J), m.kind


@pytest.mark.parametrize("t", [1.0, 1.5])
def test_nonpositive_J_raises_without_warnings(t):
    m = parse_map_expressions("x1*(1-t); x2", 2)            # J = 1 - t
    X = np.random.default_rng(5).uniform(0.1, 0.9, (20, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMappingError):
            m.sample_fields(X, t)


# --- mesh-sequence maps -----------------------------------------------------


def _affine_sequence(mesh, times):
    frames = []
    for t in times:
        s = np.array([1.0 + 0.5 * t, 1.0 - 0.25 * t])
        frames.append(mesh.vertices * s)
    return MeshSequenceMap(mesh, times, np.array(frames))


def test_mesh_sequence_reproduces_frames_exactly():
    mesh = generate_box(2, (3, 3))
    times = np.array([0.0, 0.05, 0.1])
    m = _affine_sequence(mesh, times)
    for k, t in enumerate(times):
        assert np.array_equal(m.node_positions(t), m.frames[k])
    # linear-in-time frames interpolate exactly between stored times
    mid = m.node_positions(0.025)
    assert np.allclose(mid, mesh.vertices * [1.0125, 0.99375], atol=1e-15)


def test_mesh_sequence_positions_and_velocities_share_the_frame_interval():
    # frames with a different slope per interval: the interval of t is
    # [t_{j-1}, t_j] with t_{j-1} < t <= t_j, a frame time t_j included
    mesh = generate_box(2, (3, 3))
    times = np.array([0.0, 0.05, 0.1, 0.2])
    frames = np.array([mesh.vertices * [1.0 + t * t, 1.0 - t ** 3]
                       for t in times])
    m = MeshSequenceMap(mesh, times, frames)
    for t, j in ((0.0, 1), (0.05, 1), (0.1, 2), (0.07, 2), (0.15, 3)):
        slope = (frames[j] - frames[j - 1]) / (times[j] - times[j - 1])
        assert np.array_equal(m.node_velocities(t), slope)
        # positions are linear in time with that slope on that interval
        assert np.allclose(m.node_positions(t),
                           frames[j - 1] + (t - times[j - 1]) * slope,
                           rtol=0.0, atol=1e-15)


def test_mesh_sequence_outside_its_span_raises():
    mesh = generate_box(2, (3, 3))
    m = _affine_sequence(mesh, np.array([0.0, 0.05, 0.1]))
    # roundoff past either end is inside: a run's accumulated step times
    for t in (-1e-12, 0.1 + 1e-12):
        m.node_positions(t), m.node_velocities(t)
    for t in (-1e-6, 0.1 + 1e-6, 0.3):
        for evaluate in (m.node_positions, m.node_velocities):
            with pytest.raises(ValueError, match=r"span \[0, 0.1\]"):
                evaluate(t)


def test_mesh_sequence_gradient_and_velocity():
    mesh = generate_box(2, (3, 3))
    times = np.array([0.0, 0.05, 0.1])
    m = _affine_sequence(mesh, times)
    bary = mesh.vertices[mesh.cells].mean(axis=1)
    cells = np.arange(mesh.n_cells)
    t = 0.07
    F = m.gradient(bary, t, cells=cells)
    assert np.allclose(F, np.diag([1.0 + 0.5 * t, 1.0 - 0.25 * t]), atol=1e-13)
    # nodal velocities are the frame-interval slope, here 0.5 x / -0.25 y
    V = m.velocity(bary, t, cells=cells)
    assert np.allclose(V, bary * np.array([0.5, -0.25]), atol=1e-13)
    # the map does no point location: every evaluation names its cells
    for evaluate in (m.position, m.velocity, m.gradient):
        with pytest.raises(ValueError, match="per cell"):
            evaluate(bary, t)


def test_mesh_sequence_run_output_and_validation_name_their_cells(tmp_path):
    # a bdf2 run with energy diagnostics, the q-criterion VTK and the
    # regularity check all pass cells or read the frames' nodal values
    from movingflow.fileio import write_vtk
    from movingflow.solver import (BoundaryConditionSet, FlowProblem,
                                   FlowState, NoslipBC, SolverConfig, run)
    from movingflow.meshing import NOSLIP
    from movingflow.spaces import DiscreteField, TaylorHoodSpace, interpolate

    mesh = generate_box(2, (4, 4))
    m = _affine_sequence(mesh, np.array([0.0, 0.05, 0.1]))
    space = TaylorHoodSpace(mesh)
    prob = FlowProblem(space=space, map=m, nu=0.5,
                       bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))
    u0 = interpolate(space, "velocity", lambda X: np.stack(
        [np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1])] * 2, axis=1))
    u0.coefficients[space.constrained_dof_mask()] = 0.0
    result = run(FlowState(0, 0.0, u0, DiscreteField(space, "pressure")),
                 prob, SolverConfig(scheme="bdf2"), T=0.1, dt=0.025)
    assert len(result.diagnostics) == 4
    assert all(np.isfinite(r["dissipation"]) for r in result.diagnostics)
    path = write_vtk(tmp_path / "s.vtk", mesh, m, 0.1, u=result.final.u,
                     p=result.final.p, q_criterion=True)
    assert "SCALARS q_criterion" in path.read_text()
    report = validate_assumptions(m, mesh, [0.0, 0.07, 0.1])
    assert report.passed and report.min_J == 1.0
    assert abs(report.max_I_minus_F - np.hypot(0.05, 0.025)) < 1e-12


def test_load_mesh_sequence_roundtrip(tmp_path):
    mesh = generate_box(2, (2, 2))
    times = [0.0, 0.1, 0.2]
    for k, t in enumerate(times):
        s = np.array([1.0 + t, 1.0 / (1.0 + t)])
        coords = mesh.vertices * s
        lines = [f"{t}"]
        lines += [f"{x:.17g} {y:.17g}" for x, y in coords]
        (tmp_path / f"frame_{k:03d}.txt").write_text("\n".join(lines))
    m = load_mesh_sequence(tmp_path, mesh)
    assert len(m.times) == 3
    assert np.allclose(m.node_positions(0.1),
                       mesh.vertices * [1.1, 1 / 1.1], atol=1e-15)


def test_mesh_sequence_rejects_mismatched_reference(tmp_path):
    mesh = generate_box(2, (2, 2))
    frames = np.stack([mesh.vertices + 0.5, mesh.vertices + 0.6])
    with pytest.raises(ValueError, match="first frame"):
        MeshSequenceMap(mesh, [0.0, 0.1], frames)


# --- maps whose F is constant on each cell ------------------------------------

# an expression map affine in x (its gradient trees use t alone), and the
# benchmark's command-line map, whose gradient depends on x
AFFINE_2D = "x1*(1 + 0.5*t) + 0.2*t*x2; x2*(1 - 0.2*sin(t)) + 0.1*t*t*x1"
AFFINE_3D = ("x1*(1 + 0.3*t) + 0.1*t*x3; x2 - 0.2*sin(t)*x1 + t; "
             "x3*exp(-t/4) + 0.1*t*x2")
CLI_MAP = "x1 + 0.05*t*sin(x1*x2); x2 + 0.05*t*exp(x1*x2/4)"


def _cellwise_catalog(dim, rng):
    mesh = generate_box(dim, (3,) * dim)
    frames = mesh.vertices + 0.02 * rng.standard_normal(
        (3,) + mesh.vertices.shape)
    frames[0] = mesh.vertices
    scales = [lambda t, a=a: 1.0 + 0.2 * a * t for a in range(1, dim + 1)]
    rates = [lambda t, a=a: 0.2 * a for a in range(1, dim + 1)]
    maps = [IdentityMap(dim), AxisScalingMap(scales, rates),
            parse_map_expressions(AFFINE_2D if dim == 2 else AFFINE_3D, dim),
            MeshSequenceMap(mesh, [0.0, 0.5, 1.0], frames)]
    if dim == 3:
        maps.append(TubeShrinkMap())
    return mesh, maps


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3]),
       t=st.floats(0.0, 1.0))
def test_cellwise_constant_maps_are_constant_on_each_cell_bitwise(seed, dim,
                                                                  t):
    """Every map that claims F constant on cells gives the same F, F^{-1}
    and J, to the bit, at random points of a cell, sampled alone or among
    the points of other cells: the map sample keeps one point per cell."""
    rng = np.random.default_rng(seed)
    mesh, maps = _cellwise_catalog(dim, rng)
    k = 5                                    # random points per cell
    cells = rng.choice(mesh.n_cells, size=4, replace=False)
    bary = rng.dirichlet(np.ones(dim + 1), size=(len(cells), k))
    points = np.einsum("ckv,cvd->ckd", bary,
                       mesh.vertices[mesh.cells[cells]]).reshape(-1, dim)
    for map_ in maps:
        assert map_.cellwise_constant_gradient, map_.kind
        fields = map_.sample_fields(points, t, cells=np.repeat(cells, k))
        alone = map_.sample_fields(points[::k], t, cells=cells)
        for got, one in zip(fields, alone):
            got = np.asarray(got).reshape((len(cells), k) + one.shape[1:])
            assert np.array_equal(got, np.broadcast_to(
                one[:, None], got.shape)), map_.kind


def test_maps_with_a_varying_gradient_say_so():
    assert not parse_map_expressions(CLI_MAP, 2).cellwise_constant_gradient
    assert not parse_map_expressions(CURVED_3D, 3).cellwise_constant_gradient
    # a gradient tree that reads x is not affine, whatever its value
    assert not parse_map_expressions("x1*x1; x2", 2).cellwise_constant_gradient
    with pytest.raises(AttributeError):
        IdentityMap(2).cellwise_constant_gradient = False


def test_mesh_sequence_barycentrics_match_a_solve():
    """Positions and velocities of a frame map at random points of their
    cells equal the barycentric interpolants by a per-point solve."""
    rng = np.random.default_rng(11)
    mesh, maps = _cellwise_catalog(3, rng)
    map_ = maps[3]
    cells = rng.integers(0, mesh.n_cells, 200)
    bary = rng.dirichlet(np.ones(4), size=200)
    verts = mesh.vertices[mesh.cells[cells]]
    points = np.einsum("pv,pvd->pd", bary, verts)
    edge = np.swapaxes(verts[:, 1:] - verts[:, :1], 1, 2)
    lam = np.linalg.solve(edge, (points - verts[:, 0])[..., None])[..., 0]
    solved = np.concatenate([1.0 - lam.sum(axis=1, keepdims=True), lam], 1)
    for t in (0.2, 0.7):
        for nodal, got in ((map_.node_positions(t),
                            map_.position(points, t, cells=cells)),
                           (map_.node_velocities(t),
                            map_.velocity(points, t, cells=cells))):
            want = np.einsum("pv,pvd->pd", solved, nodal[mesh.cells[cells]])
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
