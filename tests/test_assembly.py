import numpy as np
import pytest

import naive_fem
from movingflow import assembly, sampling
from movingflow.elements import default_degree
from movingflow.maps import (AxisScalingMap, IdentityMap, TubeShrinkMap,
                             parse_map_expressions)
from movingflow.meshing import (build_connectivity, dirichlet, generate_box,
                                generate_tube,
                                neumann, reference_simplex_mesh)
from movingflow.spaces import DiscreteField, TaylorHoodSpace, interpolate


@pytest.fixture(scope="module")
def two_triangles():
    mesh = generate_box(2, (1, 1))
    return TaylorHoodSpace(mesh)


@pytest.fixture(scope="module")
def box2d():
    return TaylorHoodSpace(generate_box(2, (3, 3)))


@pytest.fixture(scope="module")
def box3d():
    return TaylorHoodSpace(generate_box(3, (2, 2, 2)))


# --- identity-map reduction against the naive dense assembler ---------------

# the naive forms integrate by a conical-product rule of this degree, above
# every cell rule of the program, so a cell rule not exact for a form fails
# its comparison
EXACT = 8


def test_mass_matches_naive(two_triangles):
    space = two_triangles
    M = assembly.mass_matrix(space, IdentityMap(2), 0.0).toarray()
    assert np.abs(M - naive_fem.mass(space, EXACT)).max() < 1e-12


@pytest.mark.parametrize("stress", ["symmetric", "full-gradient"])
def test_viscous_matches_naive(two_triangles, stress):
    space = two_triangles
    V = assembly.viscous_matrix(space, IdentityMap(2), 0.0, 1.3,
                                stress).toarray()
    V_ref = naive_fem.viscous(space, 1.3, stress, EXACT)
    assert np.abs(V - V_ref).max() < 1e-12


def test_divergence_matches_naive(two_triangles):
    space = two_triangles
    B = assembly.divergence_matrix(space, IdentityMap(2), 0.0).toarray()
    assert np.abs(B - naive_fem.divergence(space, EXACT)).max() < 1e-12


def test_convection_matches_naive(two_triangles):
    space = two_triangles
    rng = np.random.default_rng(3)
    wn = rng.standard_normal((space.n_nodes, 2))
    C_ref, T_ref = naive_fem.convection(space, wn, EXACT)
    C, T = assembly.convection_matrices(
        space, IdentityMap(2), 0.0,
        DiscreteField(space, "velocity", wn.ravel()))
    assert np.abs(C.toarray() - C_ref).max() < 1e-12
    assert np.abs(T.toarray() - T_ref).max() < 1e-12


def test_step_composition_identity_map(two_triangles):
    space = two_triangles
    zero = DiscreteField(space, "velocity")
    step = assembly.assemble_step(space, IdentityMap(2), 0.1, 0.0, 0.1,
                                  zero, zero, 1.3, stress="symmetric")
    expected = naive_fem.mass(space, EXACT) / 0.1 + \
        naive_fem.viscous(space, 1.3, "symmetric", EXACT)
    assert np.abs(step.A.toarray() - expected).max() < 1e-10
    B_ref = naive_fem.divergence(space, EXACT)
    assert np.abs(step.B.toarray() - B_ref).max() < 1e-12


def test_step_interior_block_is_spd(two_triangles):
    space = two_triangles
    zero = DiscreteField(space, "velocity")
    step = assembly.assemble_step(space, IdentityMap(2), 0.1, 0.0, 0.1,
                                  zero, zero, 1.0, stress="symmetric")
    interior = ~space.constrained_dof_mask()
    A = step.A.toarray()[np.ix_(interior, interior)]
    assert np.abs(A - A.T).max() < 1e-12
    assert np.linalg.eigvalsh(0.5 * (A + A.T)).min() > 0


def test_block_dimensions(box2d):
    space = box2d
    zero = DiscreteField(space, "velocity")
    step = assembly.assemble_step(space, IdentityMap(2), 0.1, 0.0, 0.1,
                                  zero, zero, 1.0)
    assert step.A.shape == (space.n_velocity_dofs, space.n_velocity_dofs)
    assert step.B.shape == (space.n_pressure_dofs, space.n_velocity_dofs)
    assert step.rhs_u.shape == (space.n_velocity_dofs,)


# --- divergence block properties ---------------------------------------------


def test_divergence_example_reference_tet():
    space = TaylorHoodSpace(reference_simplex_mesh(3))
    B = assembly.divergence_matrix(space, IdentityMap(3), 0.0)
    psi = interpolate(space, "velocity",
                      lambda X: np.stack([X[:, 0] ** 2, 0 * X[:, 0],
                                          0 * X[:, 0]], axis=1))
    q_one = np.ones(space.n_pressure_dofs)
    assert abs(q_one @ (B @ psi.coefficients) - 1.0 / 12.0) < 1e-14


def test_divergence_constant_field_rows():
    space = TaylorHoodSpace(reference_simplex_mesh(3))
    B = assembly.divergence_matrix(space, IdentityMap(3), 0.0)
    const = interpolate(space, "velocity", lambda X: np.ones_like(X))
    assert np.abs(B @ const.coefficients).max() < 1e-13


# --- algebraic identities of the scheme --------------------------------------


def test_mass_term_identity_tube_map(box3d):
    space = box3d
    tube = TubeShrinkMap()
    rng = np.random.default_rng(7)
    t_k, t_prev = 0.15, 0.1
    dt = t_k - t_prev
    Mk = assembly.mass_matrix(space, tube, t_k)
    Mp = assembly.mass_matrix(space, tube, t_prev)
    Md = assembly.rate_mass_matrix(space, tube, t_k, t_prev, dt)
    for _ in range(10):
        v = rng.standard_normal(space.n_velocity_dofs)
        vp = rng.standard_normal(space.n_velocity_dofs)
        lhs = v @ (Mp @ (v - vp)) / dt
        dv = (v - vp) / dt
        rhs = ((v @ (Mk @ v) - vp @ (Mp @ vp)) / (2 * dt)
               - 0.5 * (v @ (Md @ v)) + 0.5 * dt * (dv @ (Mp @ dv)))
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + abs(rhs) + 1.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_skew_symmetry_boundary_vanishing(dim):
    mesh = generate_box(dim, (3, 3) if dim == 2 else (2, 2, 2))
    space = TaylorHoodSpace(mesh)
    map_ = TubeShrinkMap() if dim == 3 else \
        AxisScalingMap([lambda t: 1 + 0.3 * t, lambda t: 1 - 0.2 * t],
                       [lambda t: 0.3, lambda t: -0.2])
    rng = np.random.default_rng(11)
    mask = space.constrained_dof_mask()
    for _ in range(5):
        w = DiscreteField(space, "velocity",
                          rng.standard_normal(space.n_velocity_dofs))
        C, T = assembly.convection_matrices(space, map_, 0.12, w)
        CT = C + T
        v = rng.standard_normal(space.n_velocity_dofs)
        v[mask] = 0.0
        scale = np.abs(v) @ (abs(CT) @ np.abs(v)) + 1e-30
        assert abs(v @ (CT @ v)) <= 1e-12 * scale


def test_temam_boundary_term_on_outflow_facets():
    # with an outflow boundary, v^T (C+T) v equals the retained surface term;
    # the same box with xmax labelled dirichlet has the same cells and dofs
    # and no neumann facets, so its T lacks exactly that term
    rng = np.random.default_rng(4)
    blocks = []
    for label in (neumann(0), dirichlet(1)):
        space = TaylorHoodSpace(generate_box(2, (2, 2),
                                             labels={"xmax": label}))
        if not blocks:
            w = rng.standard_normal(space.n_velocity_dofs)
            v = rng.standard_normal(space.n_velocity_dofs)
        blocks.append(assembly.convection_matrices(
            space, IdentityMap(2), 0.0, DiscreteField(space, "velocity", w)))
    (C, T), (_, T0) = blocks
    quad_form = v @ ((C + T) @ v)
    surface = v @ ((T - T0) @ v)
    assert abs(surface) > 1e-3
    assert abs(quad_form - surface) < 1e-11 * (1 + abs(quad_form))


def test_a_traction_is_given_the_pulled_back_normal():
    """On a moving box, a traction that returns its third argument, the
    pulled-back normal m = F^{-T} n, loads int J m . psi, the integral of
    the facet sample's conormal against the trace basis."""
    space = TaylorHoodSpace(generate_box(2, (3, 3),
                                         labels={"xmax": neumann(0)}))
    map_ = parse_map_expressions(
        "x1 + 0.2*t*x1*x2; x2*(1 + 0.3*t) + 0.1*t*x1*x1", 2)
    zero = DiscreteField(space, "velocity")
    step = assembly.assemble_step(space, map_, 0.1, 0.05, 0.05, zero, zero,
                                  0.3, neumann_data={0: lambda X, t, m: m})
    fd = sampling.facet_data(space)
    sel = np.flatnonzero([lbl.kind == "neumann"
                          for lbl in space.mesh.boundary_labels])
    conormal = sampling.map_samples(space, map_).facets(0.1).conormal[sel]
    want = np.zeros((space.n_nodes, 2))
    np.add.at(want, fd.nodes[sel], np.einsum("qi,fq,fqd->fid", fd.vals,
                                             fd.weights[sel], conormal))
    assert np.abs(step.neumann - want.ravel()).max() <= \
        1e-14 * np.abs(want).max()
    sampling.release(space)


def test_space_rules_are_the_symmetric_tables():
    # cell / boundary-facet points: 7 / 4 in 2D, 14 / 12 in 3D
    for d, counts in ((2, (7, 4)), (3, (14, 12))):
        space = TaylorHoodSpace(generate_box(d, (1,) * d))
        assert (sampling.cell_data(space).rule.n_points,
                sampling.facet_data(space).rule.n_points) == counts
        assert [rule.n_points for rule in sampling.rules(d)] == list(counts)


def test_quadrature_over_integration_stable(monkeypatch):
    # raising the degree by 2 leaves entries unchanged for maps whose
    # gradient data is polynomial (here constant in space)
    for space, map_ in (
            (TaylorHoodSpace(generate_box(2, (2, 2))),
             AxisScalingMap([lambda t: 1 + 0.1 * t,
                             lambda t: 1 / (1 + 0.1 * t)],
                            [lambda t: 0.1,
                             lambda t: -0.1 / (1 + 0.1 * t) ** 2])),
            (TaylorHoodSpace(generate_box(3, (1, 1, 1))), TubeShrinkMap())):
        rng = np.random.default_rng(2)
        w = DiscreteField(space, "velocity",
                          rng.standard_normal(space.n_velocity_dofs))
        u_prev = DiscreteField(space, "velocity",
                               rng.standard_normal(space.n_velocity_dofs))
        base = default_degree(space.dimension)
        steps, rules = [], []
        # the raised degrees have no tabled rule: a conical product serves
        monkeypatch.setattr(sampling, "quadrature", naive_fem.quadrature)
        for deg in (base, base + 2):       # the one rule choice, raised
            sampling.release(space)
            monkeypatch.setattr(sampling, "default_degree", lambda d: deg)
            steps.append(assembly.assemble_step(space, map_, 0.1, 0.05, 0.05,
                                                w, u_prev, 0.7,
                                                stress="symmetric"))
            rules.append(sampling.cell_data(space).rule.exactness)
        assert rules == [base, base + 2]
        a0, a1 = steps[0].A.toarray(), steps[1].A.toarray()
        scale = np.abs(a0).max()
        assert np.abs(a1 - a0).max() <= 1e-10 * scale
        b0, b1 = steps[0].B.toarray(), steps[1].B.toarray()
        assert np.abs(b1 - b0).max() <= 1e-10 * np.abs(b0).max()


# --- boundary flux machinery --------------------------------------------------


def test_flux_of_constant_field_closed_boundary():
    space = TaylorHoodSpace(generate_box(3, (2, 2, 2)))
    const = interpolate(space, "velocity",
                        lambda X: np.tile([0.3, -0.7, 1.1], (len(X), 1)))
    flux = assembly.piola_boundary_flux(space, IdentityMap(3), 0.0, const)
    assert abs(flux) < 1e-12


def test_flux_of_position_field_unit_cube():
    space = TaylorHoodSpace(generate_box(3, (2, 2, 2)))
    position = interpolate(space, "velocity", lambda X: X)
    flux = assembly.piola_boundary_flux(space, IdentityMap(3), 0.0, position)
    assert abs(flux - 3.0) < 1e-12          # divergence theorem: div x = 3


def test_wall_velocity_flux_equals_volume_rate():
    # the transformed flux of the wall velocity is the volume rate of the
    # deformed polyhedron: d/dt (s(t)^2 V_ref) = -V_ref / 4, exactly, since
    # the wall field is linear and the facet integrands are polynomial
    radius = lambda y: np.exp((y + 4.0) / 8.0)
    tube = TubeShrinkMap()
    mesh = generate_tube(3, 2, radius, (-4.0, 4.0))
    space = TaylorHoodSpace(mesh)
    wall = interpolate(space, "velocity", lambda X: tube.velocity(X, 0.1))
    flux = assembly.piola_boundary_flux(space, tube, 0.1, wall)
    v_ref = mesh.cell_volumes().sum()
    assert abs(flux + v_ref / 4.0) < 1e-10 * v_ref


def test_compatible_data_correction_decays_under_refinement():
    # for data with vanishing continuous flux, the measured flux is pure
    # interpolation defect and decays at order m+2 = 3 under refinement
    from movingflow.benchmarks import manufactured_2d
    from movingflow.meshing import mesh_quality, refine_uniform

    case = manufactured_2d()
    t = 0.2
    faces = ("xmin", "xmax", "ymin", "ymax")
    mesh = generate_box(2, (4, 4), labels={f: dirichlet(0) for f in faces})
    values, hs = [], []
    for _ in range(3):
        space = TaylorHoodSpace(mesh)
        data = interpolate(space, "velocity",
                           lambda X: case.velocity(case.map.position(X, t), t))
        values.append(abs(assembly.piola_boundary_flux(
            space, case.map, t, data)))
        hs.append(mesh_quality(mesh).h_max)
        mesh = refine_uniform(mesh)
    order = np.log(values[0] / values[2]) / np.log(hs[0] / hs[2])
    assert order > 2.5


def test_boundary_normal_field_unit_cube():
    space = TaylorHoodSpace(generate_box(3, (2, 2, 2)))
    n = assembly.boundary_normal_field(space)
    X = space.velocity_nodes
    face = np.flatnonzero((np.abs(X[:, 0]) < 1e-14) &
                          (X[:, 1] > 0.2) & (X[:, 1] < 0.8) &
                          (X[:, 2] > 0.2) & (X[:, 2] < 0.8))
    assert face.size > 0
    assert np.allclose(n[face], [-1.0, 0.0, 0.0], atol=1e-12)
    interior = np.flatnonzero(space.node_kind == 0)
    assert np.allclose(n[interior], 0.0)


# --- moving maps against the naive loops over cells and points ----------------


def _oracle_case(name):
    """A curved 2D expression map over a jittered box, or the shrinking
    tube map on a small tube; a random advection field and velocity."""
    rng = np.random.default_rng(19)
    if name == "curved-2d":
        mesh = generate_box(2, (3, 3))
        verts = mesh.vertices.copy()
        inner = np.setdiff1d(np.arange(len(verts)), mesh.boundary_facets)
        verts[inner] += rng.uniform(-0.08, 0.08, (len(inner), 2))
        mesh = build_connectivity(verts, mesh.cells, mesh.boundary_facets,
                                  mesh.boundary_labels)
        map_ = parse_map_expressions(
            "x1 + 0.2*t*sin(x1*x2); x2 + 0.1*t*exp(x1*x2/4) + 0.1*t*x1*x1",
            2)
    else:
        mesh = generate_tube(2, 1, lambda y: np.exp((y + 4.0) / 8.0),
                             (-4.0, 4.0))
        map_ = TubeShrinkMap()
    space = TaylorHoodSpace(mesh)
    w = DiscreteField(space, "velocity",
                      rng.standard_normal(space.n_velocity_dofs))
    return space, map_, w


def _close(got, want):
    return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.fixture(scope="module", params=["curved-2d", "tube-3d"])
def oracle_case(request):
    space, map_, w = _oracle_case(request.param)
    yield space, map_, w
    sampling.release(space)


def test_convection_matches_the_moving_oracle(oracle_case):
    space, map_, w = oracle_case
    C, T = assembly.convection_matrices(space, map_, 0.3, w)
    want = naive_fem.moving_convection(space, map_, 0.3, w.nodal())
    assert _close(C.toarray(), want)
    if not space.mesh.has_neumann_boundary():
        assert _close(T.toarray(), -0.5 * (want + want.T))


@pytest.mark.parametrize("stress", ["symmetric", "full-gradient"])
@pytest.mark.parametrize("smagorinsky", [None, 0.2])
def test_viscous_matches_the_moving_oracle(oracle_case, stress, smagorinsky):
    space, map_, w = oracle_case
    got = assembly.viscous_matrix(space, map_, 0.3, 0.7, stress,
                                  smagorinsky=smagorinsky, w=w)
    want = naive_fem.moving_viscous(space, map_, 0.3, 0.7, stress,
                                    smagorinsky, w.nodal())
    assert _close(got.toarray(), want)


def test_divergence_matches_the_moving_oracle(oracle_case):
    space, map_, _ = oracle_case
    got = assembly.divergence_matrix(space, map_, 0.3)
    assert _close(got.toarray(), naive_fem.moving_divergence(space, map_, 0.3))


def test_velocity_gradients_match_the_moving_oracle(oracle_case):
    space, map_, w = oracle_case
    sample = sampling.map_samples(space, map_).field(0.3, w)
    got = np.moveaxis(sample.gradients, (0, 1), (2, 3))
    assert _close(got, naive_fem.moving_gradients(space, map_, 0.3,
                                                  w.nodal()))
    values = np.moveaxis(sample.values, 0, -1)
    data = sampling.cell_data(space)
    want = np.einsum("qi,cid->cqd", data.vals, w.nodal()[space.cell_nodes])
    assert _close(values, want)


# --- the fixed-pattern scatter ------------------------------------------------


def _scattered_blocks(space, map_, t, dt, w, nu, stress, smagorinsky):
    """A and B of a backward-Euler step, as dense arrays: the step's local
    blocks, made here over the whole cell stack and summed by np.add.at."""
    data, geo = sampling.cell_data(space), sampling.geometry(space)
    samples = sampling.map_samples(space, map_)
    cells, Jprev = samples.cells(t), samples.jacobian(t - dt)
    J, W, G, conn = cells.J, data.weights, cells.G, space.cell_nodes
    wc = sampling.cell_components(space, w.nodal())
    C = assembly._convection_local(data, G, W * J, wc)
    kappa = W * J * assembly._eddy_viscosity(data, G, wc, geo.cell_diam, nu,
                                             smagorinsky)
    visc, coupling = assembly._viscous_local(data, G, kappa, stress)
    scalar = assembly._mass_local(data, W * (Jprev / dt + 0.5 * (
        J - Jprev) / dt)) + visc + 0.5 * (C - np.swapaxes(C, 1, 2))
    d, n = space.dimension, space.n_velocity_dofs
    comps = np.arange(d)
    A = np.zeros((n, n))
    for a in comps:
        np.add.at(A, ((conn * d + a)[:, :, None], (conn * d + a)[:, None, :]),
                  scalar)
    if coupling is not None:               # [c, i, b, j, a]
        np.add.at(A, (conn[:, :, None, None, None] * d + comps,
                      conn[:, None, None, :, None] * d +
                      comps[:, None, None]), coupling)
    fd = sampling.facet_data(space)
    sel = np.flatnonzero([lbl.kind == "neumann"
                          for lbl in space.mesh.boundary_labels])
    nodes, facets = fd.nodes[sel], samples.facets(t)
    zn = np.sum((fd.vals @ w.nodal()[nodes]) * facets.conormal[sel], axis=2)
    surface = np.einsum("fq,qi,qj->fij", 0.5 * fd.weights[sel] * zn,
                        fd.vals, fd.vals)
    for a in comps:
        np.add.at(A, ((nodes * d + a)[:, :, None],
                      (nodes * d + a)[:, None, :]), surface)
    B = np.zeros((space.n_pressure_dofs, n))           # local [e, c, p, j]
    np.add.at(B, (space.mesh.cells[None, :, :, None],
                  conn[None, :, None, :] * d + comps[:, None, None, None]),
              assembly._divergence_local(data, G, W * J))
    return A, B


def _scatter_cases():
    box = TaylorHoodSpace(generate_box(2, (3, 3),
                                       labels={"xmax": neumann(0)}))
    curved = parse_map_expressions(
        "x1 + 0.2*t*x1*x2; x2*(1 + 0.3*t) + 0.1*t*x1*x1", 2)
    tube = TaylorHoodSpace(generate_tube(
        3, 2, lambda y: np.exp((y + 4.0) / 8.0), (-4.0, 4.0),
        labels={"inlet": dirichlet(1), "outlet": neumann(0)}))
    return {"box-symmetric-smagorinsky": (box, curved, "symmetric", 0.2),
            "tube-full-gradient": (tube, TubeShrinkMap(), "full-gradient",
                                   None)}


@pytest.mark.parametrize("case", ["box-symmetric-smagorinsky",
                                  "tube-full-gradient"])
def test_step_blocks_equal_a_dense_scatter_on_fixed_patterns(case):
    space, map_, stress, smagorinsky = _scatter_cases()[case]
    rng = np.random.default_rng(8)
    dt, nu, d = 0.05, 0.3, space.dimension
    steps = []
    for t in (0.1, 0.15):
        w = DiscreteField(space, "velocity",
                          rng.standard_normal(space.n_velocity_dofs))
        step = assembly.assemble_step(space, map_, t, t - dt, dt, w, w, nu,
                                      stress=stress, smagorinsky=smagorinsky)
        A, B = _scattered_blocks(space, map_, t, dt, w, nu, stress,
                                 smagorinsky)
        for got, want in ((step.A, A), (step.B, B)):
            assert np.abs(got.toarray() - want).max() <= \
                1e-13 * np.abs(want).max()
        steps.append(step)
    for block in ("A", "B"):
        first, second = (getattr(s, block) for s in steps)
        assert np.array_equal(first.indptr, second.indptr)
        assert np.array_equal(first.indices, second.indices)
    # A holds d entries per node pair, or d * d with the symmetric stress
    conn = space.cell_nodes
    pairs = len(np.unique(conn[:, :, None] * space.n_nodes +
                          conn[:, None, :]))
    assert steps[0].A.nnz == pairs * d * (d if stress == "symmetric" else 1)
    sampling.release(space)


@pytest.mark.parametrize("map_", [TubeShrinkMap(), parse_map_expressions(
    "x1 + 0.1*t*sin(x2*x3); x2 + 0.05*t*x1*x3; x3 + 0.1*t*cos(x1)", 3)])
def test_map_factor_is_inv_times_the_sampled_inverse_on_planes(map_):
    """The cell sample's G on tube level 1 is inv F^{-1} at every point, as
    read-only planes G[k, e], (d, d, nc, nq): contiguous, or for a map
    whose F is constant on each cell (the tube's), contiguous per-cell
    planes (d, d, nc) broadcast over the cell's points."""
    from movingflow.benchmarks import tube_benchmark
    space = TaylorHoodSpace(tube_benchmark().mesh_for_level(1))
    data, geo = sampling.cell_data(space), sampling.geometry(space)
    (nc, nq), d, t = data.points.shape[:2], space.dimension, 0.1
    _, Finv, _ = map_.sample_fields(data.points.reshape(-1, d), t,
                                    cells=np.repeat(np.arange(nc), nq))
    want = geo.inv[:, None] @ np.asarray(Finv).reshape(nc, nq, d, d)
    G = sampling.map_samples(space, map_).cells(t).G
    cellwise = map_.cellwise_constant_gradient
    assert cellwise == (map_.kind == "tube-shrink")
    assert G.shape == (d, d, nc, nq)
    assert (G[..., 0] if cellwise else G).flags.c_contiguous
    assert (G.strides[-1] == 0) == cellwise
    assert not G.flags.writeable
    got = np.moveaxis(G, (0, 1), (2, 3))
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    sampling.release(space)


def _csr_positions(M, rows, cols):
    """The place in M.data of each (rows, cols) entry, which must be in M's
    pattern."""
    keys = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)) * M.shape[1] \
        + M.indices
    want = (rows * M.shape[1] + cols).ravel()
    pos = np.searchsorted(keys, want)
    assert np.array_equal(keys[pos], want)
    return pos


@pytest.mark.parametrize("stress", ["symmetric", "full-gradient"])
@pytest.mark.parametrize("case", ["box-symmetric-smagorinsky",
                                  "tube-full-gradient"], ids=["2d", "3d"])
def test_step_blocks_are_bitwise_a_bincount_at_csr_positions(
        monkeypatch, case, stress):
    """A.data and B.data equal, to the bit, each local value summed at its
    CSR position in local order by np.bincount: the cell scalars, which
    hold the neumann facets' Temam blocks, per diagonal entry, their sum
    added to the symmetric coupling's sum, and B's blocks [e, c, p, j].
    The Temam term alone equals its facet blocks summed in facet order to
    roundoff: a vertex pair on three or more facets sums in cell order.
    Both meshes have neumann facets; each case's own stress is not used."""
    space, map_, _, smagorinsky = _scatter_cases()[case]
    original = assembly._velocity_matrix
    seen = {}               # the local blocks each scatter is given
    for name in ("_velocity_matrix", "_pressure_matrix"):
        def recording(space_, *args, _name=name,
                      _scatter=getattr(assembly, name)):
            seen[_name] = args
            return _scatter(space_, *args)
        monkeypatch.setattr(assembly, name, recording)
    rng = np.random.default_rng(5)
    w = DiscreteField(space, "velocity",
                      rng.standard_normal(space.n_velocity_dofs))
    step = assembly.assemble_step(space, map_, 0.1, 0.05, 0.05, w, w, 0.3,
                                  stress=stress, smagorinsky=smagorinsky)
    scalar, coupling = seen["_velocity_matrix"]
    (divergence,) = seen["_pressure_matrix"]
    d, conn = space.dimension, space.cell_nodes
    comps = np.arange(d)[:, None, None, None]
    A, B = step.A, step.B

    def diagonal_sum(M, nodes, local):      # local (n, nb, nb), every a
        pos = _csr_positions(M, (nodes * d + comps)[..., :, None],
                             (nodes * d + comps)[..., None, :])
        return np.bincount(pos, np.broadcast_to(local, (d,) + local.shape)
                           .ravel(), minlength=M.nnz)

    fd = sampling.facet_data(space)
    sel = np.flatnonzero([lbl.kind == "neumann"
                          for lbl in space.mesh.boundary_labels])
    assert sel.size > 0
    facet = step.outflow @ np.einsum("qi,qj->qij", fd.vals, fd.vals).reshape(
        len(fd.vals), -1)
    nbf = fd.nodes.shape[1]
    facet = facet.reshape(len(sel), nbf, nbf)
    # the Temam term alone, where no larger sum absorbs its rounding
    blocks = np.zeros_like(scalar)
    assert np.array_equal(assembly._add_temam(space, map_, 0.1, w, blocks),
                          step.outflow)
    temam = original(space, blocks)
    want = diagonal_sum(temam, fd.nodes[sel], facet)
    assert np.abs(temam.data - want).max() <= 1e-15 * np.abs(want).max()
    want = diagonal_sum(A, conn, scalar)
    if stress == "symmetric":              # [c, i, b, j, a]
        e = np.arange(d)
        pos = _csr_positions(
            A, np.broadcast_to(conn[:, :, None, None, None] * d + e,
                               coupling.shape),
            np.broadcast_to(conn[:, None, None, :, None] * d +
                            e[:, None, None], coupling.shape))
        want = np.bincount(pos, coupling.ravel(), minlength=A.nnz) + want
    else:
        assert coupling is None
    assert np.array_equal(A.data, want)
    pos = _csr_positions(                   # [e, c, p, j]
        B, np.broadcast_to(space.mesh.cells[None, :, :, None],
                           divergence.shape),
        conn[None, :, None, :] * d + comps)
    assert np.array_equal(B.data, np.bincount(pos, divergence.ravel(),
                                              minlength=B.nnz))
    sampling.release(space)


def test_pattern_rows_no_block_lists_hold_no_pairs():
    """Row nodes that no cell block lists, the last ones among them, get
    empty runs of pairs; the others their sorted distinct columns."""
    rows = np.array([[0, 2], [2, 1]])
    cols = np.array([[0, 1, 3], [1, 4, 3]])
    pattern = assembly._Pattern(rows, cols, 5, 5, 2)
    keys = np.unique(rows[:, :, None] * 5 + cols[:, None, :])
    assert np.array_equal(pattern.pair_cols, keys % 5)
    assert np.array_equal(pattern.pair_ptr,
                          np.searchsorted(keys // 5, np.arange(6)))
    assert list(np.diff(pattern.pair_ptr)) == [3, 3, 4, 0, 0]


# --- eddy viscosity -----------------------------------------------------------


def test_smagorinsky_changes_viscous_block_only_with_rate(box2d):
    space = box2d
    zero = DiscreteField(space, "velocity")
    base = assembly.assemble_step(space, IdentityMap(2), 0.1, 0.0, 0.1,
                                  zero, zero, 0.5, stress="symmetric")
    smag = assembly.assemble_step(space, IdentityMap(2), 0.1, 0.0, 0.1,
                                  zero, zero, 0.5, stress="symmetric",
                                  smagorinsky=0.2)
    # zero advection field -> zero rate tensor -> identical matrices
    assert np.abs((smag.A - base.A).toarray()).max() < 1e-13

    shear = interpolate(space, "velocity",
                        lambda X: np.stack([X[:, 1], np.zeros(len(X))], axis=1))
    plain = assembly.assemble_step(space, IdentityMap(2), 0.1, 0.0, 0.1,
                                   shear, zero, 0.5, stress="symmetric")
    smag2 = assembly.assemble_step(space, IdentityMap(2), 0.1, 0.0, 0.1,
                                   shear, zero, 0.5, stress="symmetric",
                                   smagorinsky=0.2)
    # same advection, eddy term on/off: the difference is the added
    # viscosity; the shear rate tensor has sqrt(2 D:D) = 1 here
    diff = (smag2.A - plain.A).toarray()
    interior = ~space.constrained_dof_mask()
    assert np.abs(diff[np.ix_(interior, interior)]).max() > 1e-4
    visc_plain = assembly.viscous_matrix(space, IdentityMap(2), 0.1, 0.5,
                                         "symmetric")
    h_T = np.sqrt(2.0) / 3.0
    added_over_base = (0.2 * h_T) ** 2 * 1.0 / 0.5
    visc_expect = added_over_base * visc_plain.toarray()
    assert np.abs(diff - visc_expect).max() < 1e-12


def test_dimension_mismatch_rejected(box2d):
    space = box2d
    zero = DiscreteField(space, "velocity")
    with pytest.raises(ValueError, match="dimension"):
        assembly.assemble_step(space, TubeShrinkMap(), 0.1, 0.0, 0.1,
                               zero, zero, 1.0)


# --- maps whose F is constant on each cell -------------------------------------


def _per_point(map_):
    """The same map, claiming that F varies within cells: sampled and
    assembled point by point."""
    kind = type(map_)
    per_point = type(f"PerPoint{kind.__name__}", (kind,), {
        "cellwise_constant_gradient": property(lambda self: False)})
    twin = object.__new__(per_point)
    twin.__dict__.update(map_.__dict__)
    return twin


def _cellwise_cases():
    from movingflow.benchmarks import tube_benchmark
    from movingflow.maps import MeshSequenceMap
    box = generate_box(2, (4, 3), labels={"xmax": neumann(0)})
    rng = np.random.default_rng(4)
    frames = box.vertices + 0.03 * rng.standard_normal(
        (3,) + box.vertices.shape)
    frames[0] = box.vertices
    return {"tube": (tube_benchmark().mesh_for_level(1), TubeShrinkMap()),
            "frames": (box, MeshSequenceMap(box, [0.0, 0.1, 0.2], frames)),
            "affine": (box, parse_map_expressions(
                "x1*(1 + t) + 0.3*t*x2; x2 - 0.2*t*x1", 2))}


@pytest.mark.parametrize("case", ["tube", "frames", "affine"])
def test_cellwise_sample_is_the_per_point_sample_bitwise(case):
    """Sampled once per cell and facet, a map whose F is constant on each
    cell gives the per-point sample's J, G and facet data to the bit, as
    read-only views broadcast over each cell's or facet's points."""
    mesh, map_ = _cellwise_cases()[case]
    cellwise, per_point = TaylorHoodSpace(mesh), TaylorHoodSpace(mesh)
    for t in (0.05, 0.15):
        a = sampling.map_samples(cellwise, map_)
        b = sampling.map_samples(per_point, _per_point(map_))
        pairs = [(a.cells(t).J, b.cells(t).J), (a.cells(t).G, b.cells(t).G),
                 (a.jacobian(t - 0.05), b.jacobian(t - 0.05))]
        pairs += [(getattr(a.facets(t), name), getattr(b.facets(t), name))
                  for name in ("J", "normal", "conormal")]
        for got, want in pairs:
            assert np.array_equal(got, want)
            # the points' axis: last of J and G, middle of the normals
            assert got.strides[-1 if got.ndim != 3 else 1] == 0
            assert not got.flags.writeable


@pytest.mark.parametrize("case", ["tube", "frames", "affine"])
@pytest.mark.parametrize("stress", ["symmetric", "full-gradient"])
def test_cellwise_kernels_match_the_per_point_kernels(case, stress):
    """A and B from per-cell factors and rule-integrated tables agree
    with the per-point kernels to 1e-14 of their largest entry; with an
    eddy viscosity the viscous block stays per point, bitwise."""
    mesh, map_ = _cellwise_cases()[case]
    cellwise, per_point = TaylorHoodSpace(mesh), TaylorHoodSpace(mesh)
    rng = np.random.default_rng(6)
    w = rng.standard_normal(cellwise.n_velocity_dofs)
    for smagorinsky in (None, 0.2):
        steps = [assembly.assemble_step(
            space, m, 0.15, 0.1, 0.05, DiscreteField(space, "velocity", w),
            DiscreteField(space, "velocity", w), 0.3, stress=stress,
            smagorinsky=smagorinsky)
            for space, m in ((cellwise, map_), (per_point, _per_point(map_)))]
        for block in ("A", "B"):
            got, want = (getattr(s, block) for s in steps)
            assert np.array_equal(got.indices, want.indices)
            assert np.abs(got.data - want.data).max() <= \
                1e-14 * np.abs(want.data).max()
        A, A_points = (s.A for s in steps)
        assert np.array_equal(A.data, A_points.data) == (
            smagorinsky is not None)
