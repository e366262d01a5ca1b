import numpy as np
import pytest

import naive_fem
from movingflow import assembly, sampling
from movingflow.elements import default_degree
from movingflow.maps import (AxisScalingMap, IdentityMap, TubeShrinkMap,
                             parse_map_expressions)
from movingflow.meshing import (dirichlet, generate_box, generate_tube,
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


def test_mass_matches_naive(two_triangles):
    space = two_triangles
    M = assembly.mass_matrix(space, IdentityMap(2), 0.0).toarray()
    assert np.abs(M - naive_fem.mass(space, 6)).max() < 1e-12


@pytest.mark.parametrize("stress", ["symmetric", "full-gradient"])
def test_viscous_matches_naive(two_triangles, stress):
    space = two_triangles
    V = assembly.viscous_matrix(space, IdentityMap(2), 0.0, 1.3,
                                stress).toarray()
    assert np.abs(V - naive_fem.viscous(space, 1.3, stress, 6)).max() < 1e-12


def test_divergence_matches_naive(two_triangles):
    space = two_triangles
    B = assembly.divergence_matrix(space, IdentityMap(2), 0.0).toarray()
    assert np.abs(B - naive_fem.divergence(space, 6)).max() < 1e-12


def test_convection_matches_naive(two_triangles):
    space = two_triangles
    rng = np.random.default_rng(3)
    wn = rng.standard_normal((space.n_nodes, 2))
    C_ref, T_ref = naive_fem.convection(space, wn, 6)
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
    expected = naive_fem.mass(space, 6) / 0.1 + \
        naive_fem.viscous(space, 1.3, "symmetric", 6)
    assert np.abs(step.A.toarray() - expected).max() < 1e-10
    assert np.abs(step.B.toarray() - naive_fem.divergence(space, 6)).max() < 1e-12


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


def test_triplets_canonical(box2d):
    space = box2d
    zero = DiscreteField(space, "velocity")
    step = assembly.assemble_step(space, IdentityMap(2), 0.1, 0.0, 0.1,
                                  zero, zero, 1.0)
    rows, cols, vals = step.triplets("A")
    order = np.lexsort((cols, rows))
    assert np.array_equal(order, np.arange(len(rows)))  # already sorted
    pairs = rows.astype(np.int64) * step.A.shape[1] + cols
    assert len(np.unique(pairs)) == len(pairs)          # duplicates summed
    dense = np.zeros(step.A.shape)
    dense[rows, cols] = vals
    assert np.abs(dense - step.A.toarray()).max() == 0.0


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


def test_space_rules_are_the_symmetric_tables():
    # cell / boundary-facet points: 12 / 5 in 2D, 14 / 12 in 3D
    for d, counts in ((2, (12, 5)), (3, (14, 12))):
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


# --- the fixed-pattern scatter ------------------------------------------------


def _scattered_blocks(space, map_, t, dt, w, nu, stress, smagorinsky):
    """A and B of a backward-Euler step, as dense arrays: the step's local
    blocks, made here over the whole cell stack and summed by np.add.at."""
    data, geo = sampling.cell_data(space), sampling.geometry(space)
    samples = sampling.map_samples(space, map_)
    cells, Jprev = samples.cells(t), samples.jacobian(t - dt)
    J, W, ghat, conn = cells.J, data.weights, cells.ghat, space.cell_nodes
    wc = w.nodal()[conn]
    C = assembly._convection_local(data, ghat, J, W, wc)
    kappa = W * J * assembly._eddy_viscosity(ghat, wc, geo.cell_diam, nu,
                                             smagorinsky)
    visc, coupling = assembly._viscous_local(ghat, kappa, stress)
    scalar = assembly._mass_local(data, W * (Jprev / dt + 0.5 * (
        J - Jprev) / dt)) + visc + 0.5 * (C - np.swapaxes(C, 1, 2))
    d, n = space.dimension, space.n_velocity_dofs
    comps = np.arange(d)
    A = np.zeros((n, n))
    for a in comps:
        np.add.at(A, ((conn * d + a)[:, :, None], (conn * d + a)[:, None, :]),
                  scalar)
    if coupling is not None:               # [c, i, j, a, b]
        np.add.at(A, ((conn[:, :, None, None, None] * d +
                       comps[:, None]),
                      (conn[:, None, :, None, None] * d + comps)), coupling)
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
    B = np.zeros((space.n_pressure_dofs, n))
    np.add.at(B, (space.mesh.cells[:, :, None, None],
                  conn[:, None, :, None] * d + comps),
              assembly._divergence_local(data, ghat, W * J))
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
