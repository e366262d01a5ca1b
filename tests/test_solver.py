import hashlib

import numpy as np
import pytest

from movingflow import assembly, sampling
from movingflow.analysis import k_norm
from movingflow.assembly import smagorinsky_viscosity
from movingflow.maps import (AxisScalingMap, IdentityMap, MeshSequenceMap,
                            TubeShrinkMap, parse_map_expressions)
from movingflow.meshing import NOSLIP, dirichlet, generate_box, generate_tube, neumann
from movingflow.solver import (BoundaryConditionSet, DirichletBC, FlowProblem,
                               FlowState, NeumannBC, NoslipBC, SolverConfig,
                               advance, apply_boundary_conditions, run)
from movingflow.spaces import DiscreteField, TaylorHoodSpace, interpolate


def make_state(space, u=None, p=None):
    return FlowState(0, 0.0,
                     u or DiscreteField(space, "velocity"),
                     p or DiscreteField(space, "pressure"))


def all_noslip_problem(mesh, nu=1.0, map_=None):
    space = TaylorHoodSpace(mesh)
    return FlowProblem(space=space,
                       map=map_ or IdentityMap(mesh.dimension), nu=nu,
                       bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))


# --- rest state and Poiseuille fixed points ----------------------------------


def test_rest_state_fixed_point():
    prob = all_noslip_problem(generate_box(2, (4, 4)))
    state, info = advance(make_state(prob.space), prob, SolverConfig(), 0.1)
    assert np.abs(state.u.coefficients).max() < 1e-12
    assert np.abs(state.p.coefficients).max() < 1e-10
    assert info["divergence_residual"] < 1e-12


def poiseuille_setup(nx=8, ny=4, L=2.0, U=1.0, nu=0.1):
    mesh = generate_box(2, (nx, ny), extents=[(0, L), (0, 1)],
                        labels={"xmin": dirichlet(0), "xmax": neumann(0)})
    space = TaylorHoodSpace(mesh)

    def exact_u(X, t=None):
        return np.stack([4 * U * X[:, 1] * (1 - X[:, 1]),
                         np.zeros(len(X))], axis=1)

    def exact_p(X, t=None):
        return 8 * nu * U * (L - X[:, 0])

    bcs = BoundaryConditionSet({
        NOSLIP: NoslipBC(),
        dirichlet(0): DirichletBC(lambda X, t: exact_u(X)),
        neumann(0): NeumannBC(None),
    })
    prob = FlowProblem(space=space, map=IdentityMap(2), nu=nu, bcs=bcs)
    u0 = interpolate(space, "velocity", exact_u)
    p0 = interpolate(space, "pressure", exact_p)
    return prob, u0, p0


def test_poiseuille_residual_and_fixed_point():
    prob, u0, p0 = poiseuille_setup()
    space = prob.space
    cfg = SolverConfig(stress="full-gradient")
    dt = 0.1
    wall = sampling.map_samples(space, prob.map).wall(dt)
    w = DiscreteField(space, "velocity", (u0.nodal() - wall).ravel())
    step = assembly.assemble_step(space, prob.map, dt, 0.0, dt, w, u0,
                                  prob.nu, neumann_data={0: None},
                                  stress="full-gradient")
    system = apply_boundary_conditions(step, prob.bcs, space, prob.map, dt)
    x = np.concatenate([u0.coefficients, p0.coefficients])
    # the interpolated exact solution satisfies the discrete step exactly
    residual = system.rhs - system.matrix @ x[system.layout.unknowns]
    assert np.abs(residual).max() < 1e-10 * np.abs(system.rhs).max()
    # and split puts the exact boundary values beside its unknowns
    u, p = system.split(x[system.layout.unknowns])
    assert np.array_equal(p, p0.coefficients)
    assert np.abs(u - u0.coefficients).max() <= \
        1e-14 * np.abs(u0.coefficients).max()

    state = FlowState(0, 0.0, u0, p0)
    new, info = advance(state, prob, cfg, dt)
    tol = cfg.tolerance
    assert np.abs(new.u.coefficients - u0.coefficients).max() <= \
        10 * tol * np.abs(u0.coefficients).max()
    assert info["divergence_residual"] <= \
        10 * tol * np.linalg.norm(new.u.coefficients)


# --- boundary conditions -------------------------------------------------------


def test_all_boundary_dofs_constrained_to_zero_static():
    mesh = generate_box(2, (3, 3))
    prob = all_noslip_problem(mesh)
    state, _ = advance(make_state(prob.space), prob, SolverConfig(), 0.05)
    mask = prob.space.constrained_dof_mask()
    assert np.all(state.u.coefficients[mask] == 0.0)


def test_moving_wall_values_exact_tube():
    radius = lambda y: np.exp((y + 4.0) / 8.0)
    mesh = generate_tube(3, 2, radius, (-4.0, 4.0),
                         labels={"inlet": dirichlet(1), "outlet": neumann(0)})
    space = TaylorHoodSpace(mesh)
    tube = TubeShrinkMap()
    bcs = BoundaryConditionSet({
        NOSLIP: NoslipBC(),
        dirichlet(1): DirichletBC(lambda X, t: tube.velocity(X, t)),
        neumann(0): NeumannBC(None),
    })
    prob = FlowProblem(space=space, map=tube, nu=0.04, bcs=bcs)
    dt = 0.04
    state, _ = advance(make_state(space), prob, SolverConfig(), dt)
    t1 = dt
    s = np.sqrt(1 - t1 / 4)
    from movingflow.spaces import NOSLIP_NODE
    nodes = np.flatnonzero(space.node_kind == NOSLIP_NODE)
    X = space.velocity_nodes[nodes]
    expected = np.stack([-X[:, 0] / (8 * s), np.zeros(len(X)),
                         -X[:, 2] / (8 * s)], axis=1)
    got = state.u.nodal()[nodes]
    # boundary dofs hold the applied values bit for bit
    applied = tube.velocity(X, t1)
    assert np.array_equal(got, applied)
    assert np.abs(applied - expected).max() < 1e-14


def test_symmetric_elimination_preserves_symmetry():
    mesh = generate_box(3, (2, 2, 2))
    space = TaylorHoodSpace(mesh)
    tube = TubeShrinkMap()
    zero = DiscreteField(space, "velocity")
    step = assembly.assemble_step(space, tube, 0.1, 0.05, 0.05, zero, zero,
                                  1.0, stress="symmetric")
    bcs = BoundaryConditionSet({NOSLIP: NoslipBC()})
    system = apply_boundary_conditions(step, bcs, space, tube, 0.1)
    # the velocity unknowns, in the dissection order, do not lead
    v = system.layout.unknowns < space.n_velocity_dofs
    assert v.sum() == len(system.layout.free) and not v[:v.sum()].all()
    K = system.matrix.toarray()
    assert np.abs(K[v][:, v] - K[v][:, v].T).max() <= 1e-12
    assert np.array_equal(K[v][:, ~v], -K[~v][:, v].T)
    assert np.all(K[~v][:, ~v] == 0.0)


def test_conflicting_labels_noslip_wins(caplog):
    import logging
    with caplog.at_level(logging.INFO, logger="movingflow.spaces"):
        mesh = generate_box(2, (2, 2), labels={"xmin": dirichlet(0)})
        space = TaylorHoodSpace(mesh)
    from movingflow.spaces import NOSLIP_NODE
    corners = np.flatnonzero(
        (np.abs(space.velocity_nodes[:, 0]) < 1e-14) &
        (np.minimum(np.abs(space.velocity_nodes[:, 1]),
                    np.abs(space.velocity_nodes[:, 1] - 1)) < 1e-14))
    assert all(space.node_kind[c] == NOSLIP_NODE for c in corners)
    assert any("overrides" in rec.message for rec in caplog.records)


def test_missing_bc_entry_rejected():
    mesh = generate_box(2, (2, 2), labels={"xmin": dirichlet(0)})
    space = TaylorHoodSpace(mesh)
    with pytest.raises(ValueError, match="no boundary condition"):
        FlowProblem(space=space, map=IdentityMap(2), nu=1.0,
                    bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))


def test_bc_entry_for_a_label_the_mesh_lacks_rejected():
    # a condition for a label no facet carries would be dropped silently
    space = TaylorHoodSpace(generate_box(2, (2, 2)))
    bcs = BoundaryConditionSet({NOSLIP: NoslipBC(), neumann(7): NeumannBC()})
    with pytest.raises(ValueError, match=r"\['neumann:7'\]"):
        FlowProblem(space=space, map=IdentityMap(2), nu=1.0, bcs=bcs)


# --- energy behavior -----------------------------------------------------------


def test_energy_monotonic_decay_static_domain():
    mesh = generate_box(2, (4, 4))
    prob = all_noslip_problem(mesh, nu=0.05)
    space = prob.space
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal(space.n_velocity_dofs)
    coeffs[space.constrained_dof_mask()] = 0.0
    u0 = DiscreteField(space, "velocity", coeffs)
    result = run(make_state(space, u=u0), prob, SolverConfig(), T=1.0, dt=0.02)
    norms = [k_norm(u0, prob.map, 0.0)]
    norms += [r["velocity_norm_k"] for r in result.diagnostics]
    diffs = np.diff(norms)
    assert np.all(diffs <= 1e-12)
    assert norms[-1] < 0.5 * norms[0]    # viscosity actually dissipates


def test_energy_monotonic_3d_spot_check():
    mesh = generate_box(3, (2, 2, 2))
    prob = all_noslip_problem(mesh, nu=0.1)
    space = prob.space
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(space.n_velocity_dofs)
    coeffs[space.constrained_dof_mask()] = 0.0
    result = run(make_state(space, u=DiscreteField(space, "velocity", coeffs)),
                 prob, SolverConfig(), T=0.1, dt=0.02)
    norms = [k_norm(DiscreteField(space, "velocity", coeffs), prob.map, 0.0)]
    norms += [r["velocity_norm_k"] for r in result.diagnostics]
    assert np.all(np.diff(norms) <= 1e-12)


# --- BDF2 -----------------------------------------------------------------------


def test_bdf2_exact_on_linear_in_time_data():
    L, U, nu = 2.0, 1.0, 0.1
    mesh = generate_box(2, (4, 3), extents=[(0, L), (0, 1)],
                        labels={"xmin": dirichlet(0), "xmax": neumann(0)})
    space = TaylorHoodSpace(mesh)

    def profile(X):
        return np.stack([4 * U * X[:, 1] * (1 - X[:, 1]),
                         np.zeros(len(X))], axis=1)

    def exact_u(X, t):
        return (1.0 + t) * profile(X)

    def exact_p(X, t):
        return (1.0 + t) * 8 * nu * U * (L - X[:, 0])

    def forcing(X, t):
        return profile(X)       # d/dt of the exact velocity

    bcs = BoundaryConditionSet({
        NOSLIP: NoslipBC(),
        dirichlet(0): DirichletBC(exact_u),
        neumann(0): NeumannBC(None),
    })
    prob = FlowProblem(space=space, map=IdentityMap(2), nu=nu, bcs=bcs,
                       forcing=lambda X, t: forcing(X, t))
    cfg = SolverConfig(stress="full-gradient", scheme="bdf2")
    u0 = interpolate(space, "velocity", lambda X: exact_u(X, 0.0))
    p0 = interpolate(space, "pressure", lambda X: exact_p(X, 0.0))
    result = run(FlowState(0, 0.0, u0, p0), prob, cfg, T=0.5, dt=0.1)
    expect = interpolate(space, "velocity", lambda X: exact_u(X, 0.5))
    err = np.abs(result.final.u.coefficients - expect.coefficients).max()
    assert err <= 10 * cfg.tolerance * np.abs(expect.coefficients).max()


# --- eddy viscosity formula ------------------------------------------------------


def test_smagorinsky_viscosity_values():
    assert smagorinsky_viscosity(np.zeros((3, 3)), 1.0, 4.0) == 4.0
    D = np.diag([1.0, -1.0, 0.0])
    assert abs(smagorinsky_viscosity(D, 1.0, 4.0, 0.2) - 4.08) < 1e-14
    for lam in (0.5, 2.0, 7.0):
        base = smagorinsky_viscosity(D, 0.7, 1.0, 0.2) - 1.0
        scaled = smagorinsky_viscosity(lam * D, 0.7, 1.0, 0.2) - 1.0
        assert abs(scaled - lam * base) < 1e-13


def test_smagorinsky_run_dissipates_faster():
    mesh = generate_box(2, (3, 3))
    space = TaylorHoodSpace(mesh)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(space.n_velocity_dofs)
    coeffs[space.constrained_dof_mask()] = 0.0
    u0 = DiscreteField(space, "velocity", coeffs)
    finals = []
    for cs in (None, 0.5):
        prob = all_noslip_problem(mesh, nu=0.01)
        cfg = SolverConfig(smagorinsky=cs)
        result = run(make_state(space, u=u0.copy()), prob, cfg, T=0.2, dt=0.05)
        finals.append(result.diagnostics[-1]["velocity_norm_k"])
    assert finals[1] < finals[0]


# --- run/driver mechanics ---------------------------------------------------------


def test_run_rejects_a_span_without_a_step():
    mesh = generate_box(2, (2, 2))
    prob = all_noslip_problem(mesh)
    for T in (0.0, -0.5, 1e-10):       # N = 0, -5 and 0 steps of dt
        with pytest.raises(ValueError, match="holds no step"):
            run(make_state(prob.space), prob, SolverConfig(), T=T, dt=0.1)


def test_run_rejects_a_step_that_is_not_positive():
    mesh = generate_box(2, (2, 2))
    prob = all_noslip_problem(mesh)
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError, match="dt must be positive"):
            run(make_state(prob.space), prob, SolverConfig(), T=1.0, dt=dt)


def test_run_rejects_non_divisible_dt():
    mesh = generate_box(2, (2, 2))
    prob = all_noslip_problem(mesh)
    with pytest.raises(ValueError, match="divide"):
        run(make_state(prob.space), prob, SolverConfig(), T=1.0, dt=0.3)


def test_run_past_the_last_frame_fails_before_its_first_step():
    mesh = generate_box(2, (2, 2))
    frames = [mesh.vertices * (1.0 + t) for t in (0.0, 0.1, 0.2)]
    prob = all_noslip_problem(
        mesh, map_=MeshSequenceMap(mesh, [0.0, 0.1, 0.2], frames))
    steps = []
    with pytest.raises(ValueError, match=r"t=0\.3, outside its frames' "
                                         r"span \[0, 0\.2\]"):
        run(make_state(prob.space), prob, SolverConfig(), T=0.3, dt=0.1,
            callbacks=[lambda state, _: steps.append(state.k)])
    assert steps == []


def test_callback_failure_reports_step():
    mesh = generate_box(2, (2, 2))
    prob = all_noslip_problem(mesh)

    def boom(state, record):
        if state.k == 2:
            raise RuntimeError("broken writer")

    from movingflow.solver import CallbackError
    with pytest.raises(CallbackError, match="step 2"):
        run(make_state(prob.space), prob, SolverConfig(), T=0.3, dt=0.1,
            callbacks=[boom])


def test_map_validation_failure_raises():
    from movingflow.maps import parse_map_expressions
    from movingflow.solver import SolverError
    mesh = generate_box(2, (2, 2))
    space = TaylorHoodSpace(mesh)
    shrink = parse_map_expressions("x1*(1-t); x2", 2)   # J=0 at t=1
    prob = FlowProblem(space=space, map=shrink, nu=1.0,
                       bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))
    state = FlowState(0, 0.9, DiscreteField(space, "velocity"),
                      DiscreteField(space, "pressure"))
    with pytest.raises(SolverError):
        advance(state, prob, SolverConfig(), dt=0.1)


def test_singular_map_away_from_first_vertex_raises_with_step():
    # J = 1 - 2 t x1 stays 1 at the origin, the first vertex, but turns
    # negative near x1 = 1 once t > 0.5: every quadrature point is checked
    from movingflow.maps import parse_map_expressions
    from movingflow.solver import SolverError
    space = TaylorHoodSpace(generate_box(2, (2, 2)))
    fold = parse_map_expressions("x1*(1-t*x1); x2", 2)
    prob = FlowProblem(space=space, map=fold, nu=1.0,
                       bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))
    with pytest.raises(SolverError) as info:
        run(make_state(space), prob, SolverConfig(), 0.6, 0.2)
    assert info.value.step == 3


def test_degenerate_boundary_normal_field_raises_with_step(monkeypatch):
    from movingflow.solver import SolverError
    prob = all_noslip_problem(generate_box(2, (2, 2)))
    monkeypatch.setattr(assembly, "boundary_normal_field",
                        lambda space: np.zeros((space.n_nodes, 2)))
    with pytest.raises(SolverError, match="degenerate boundary normal") as info:
        run(make_state(prob.space), prob, SolverConfig(), 0.2, 0.1)
    assert info.value.step == 1


def _nan_from(t):
    return np.nan if t > 0.15 else 0.0     # dt 0.1: from step 2 on


class _NaNWallMap(IdentityMap):
    """The identity map with a NaN wall velocity from t = 0.2 on."""

    def velocity(self, points, t, cells=None):
        return super().velocity(points, t, cells) + _nan_from(t)


@pytest.mark.parametrize("part", ["forcing load", "traction load",
                                  "Dirichlet data", "wall data"])
def test_non_finite_data_raise_with_step(part):
    # a NaN that enters a step's data ends the run with a typed error
    # naming the step and the part, before the solve sees it
    from movingflow.solver import SolverError
    mesh = generate_box(2, (4, 2), extents=[(0, 2), (0, 1)],
                        labels={"xmin": dirichlet(0), "xmax": neumann(0)})
    space = TaylorHoodSpace(mesh)

    def data(name, value):
        def f(X, t, *normal):
            return np.tile(value, (len(X), 1)) + \
                (_nan_from(t) if part == name else 0.0)
        return f

    bcs = BoundaryConditionSet({
        NOSLIP: NoslipBC(),
        dirichlet(0): DirichletBC(data("Dirichlet data", [1.0, 0.0])),
        neumann(0): NeumannBC(data("traction load", [-0.5, 0.0]))})
    prob = FlowProblem(space=space, nu=1.0, bcs=bcs,
                       map=_NaNWallMap(2) if part == "wall data"
                       else IdentityMap(2),
                       forcing=data("forcing load", [0.0, 1.0]))
    with pytest.raises(SolverError,
                       match=f"step 2: the {part} is not finite") as info:
        run(make_state(space), prob, SolverConfig(), 0.3, 0.1)
    assert info.value.step == 2


def test_non_finite_starting_velocity_raises_with_step():
    # the state enters rhs_u too: it is named before the forcing load
    from movingflow.solver import SolverError
    prob = all_noslip_problem(generate_box(2, (2, 2)))
    u = np.zeros(prob.space.n_velocity_dofs)
    u[::7] = np.nan
    initial = make_state(prob.space, DiscreteField(prob.space, "velocity", u))
    with pytest.raises(SolverError, match="step 1: the starting velocity "
                                          "is not finite") as info:
        run(initial, prob, SolverConfig(), 0.2, 0.1)
    assert info.value.step == 1


# --- mesh-sequence equivalence -----------------------------------------------------


def test_mesh_sequence_run_matches_analytic_map():
    """A stored-frame map whose nodes follow an affine, linear-in-time
    scaling must reproduce the analytic-map run to roundoff."""
    mesh = generate_box(2, (4, 4))
    space = TaylorHoodSpace(mesh)
    scales = [lambda t: 1.0 + 0.5 * t, lambda t: 1.0 - 0.25 * t]
    rates = [lambda t: 0.5, lambda t: -0.25]
    analytic = AxisScalingMap(scales, rates)
    frame_times = np.array([0.0, 0.05, 0.1])
    frames = np.array([mesh.vertices * [s(t) for s in scales]
                       for t in frame_times])
    sequence = MeshSequenceMap(mesh, frame_times, frames)

    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(space.n_velocity_dofs)
    coeffs[space.constrained_dof_mask()] = 0.0

    runs = []
    for map_ in (analytic, sequence):
        prob = FlowProblem(space=space, map=map_, nu=0.5,
                           bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))
        u0 = DiscreteField(space, "velocity", coeffs.copy())
        states = [make_state(space, u=u0)]
        run(states[0], prob, SolverConfig(), T=0.1, dt=0.025,
            callbacks=[lambda state, _: states.append(state)])
        runs.append(states)
    for s_a, s_m in zip(*runs):
        assert np.abs(s_a.u.coefficients - s_m.u.coefficients).max() < 1e-8
        assert np.abs(s_a.p.coefficients - s_m.p.coefficients).max() < 1e-8


def test_frame_map_wall_velocity_is_the_p1_interpolant_of_the_slope():
    mesh = generate_box(2, (4, 3))
    space = TaylorHoodSpace(mesh)
    X = mesh.vertices
    bump = np.stack([np.sin(3 * X[:, 1]), X[:, 0] * X[:, 1]], axis=1)
    times = np.array([0.0, 0.1, 0.25])
    m = MeshSequenceMap(mesh, times, [X + t * (1 + 5 * t) * bump
                                      for t in times])
    edges = mesh.edges
    for t in (0.1, 0.17):                  # a frame time, between frames
        v = m.node_velocities(t)
        p1 = np.vstack([v, 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])])
        wall = sampling.map_samples(space, m).wall(t)
        assert np.abs(wall - p1).max() <= 1e-15 * np.abs(p1).max()


def test_frame_run_converges_to_the_analytic_run_with_the_frame_spacing():
    """Tube level 1, 5 steps, against frames of its ``TubeShrinkMap`` at
    the vertices.  The map is linear in space and the frames hold every
    step time, so positions, F and J at each level are the analytic map's;
    only the wall velocity differs, the frame-interval slope of s(t) =
    sqrt(1 - t/4) against s'(t), by about s'' Delta / 2.  The error gap is
    first order in the frame spacing Delta: 4 times the frames, about a
    quarter of the gap."""
    from movingflow.analysis import ErrorAccumulator
    from movingflow.benchmarks import tube_benchmark
    case = tube_benchmark()
    mesh = case.mesh_for_level(1)
    space = TaylorHoodSpace(mesh)
    dt = case.base_dt

    def combined_error(map_):
        prob = FlowProblem(space=space, map=map_, nu=case.nu,
                           bcs=case.boundary_conditions(),
                           forcing=case.forcing)
        exact = lambda fn: lambda X: fn(case.map.position(X, 0.0), 0.0)
        initial = FlowState(0, 0.0,
                            interpolate(space, "velocity",
                                        exact(case.velocity)),
                            interpolate(space, "pressure",
                                        exact(case.pressure)))
        acc = ErrorAccumulator(space, map_, case.velocity,
                               case.velocity_gradient, dt, case.nu)
        result = run(initial, prob, SolverConfig(stress=case.stress),
                     case.T, dt, callbacks=[acc.update])
        for r in result.diagnostics:      # the energy identity still closes
            scale = max(abs(r[key]) for key in (
                "kinetic_rate", "dissipation", "numerical_dissipation",
                "forcing_power", "reaction_power", "outflow_power"))
            assert abs(r["energy_defect"]) <= 1e-10 * scale
        return acc.report().combined

    analytic = combined_error(case.map)
    gaps = []
    for n in (11, 41, 161):
        times = np.linspace(0.0, case.T, n)
        frames = [case.map.position(mesh.vertices, t) for t in times]
        gaps.append(combined_error(MeshSequenceMap(mesh, times, frames)) /
                    analytic - 1.0)
    assert 0.0 < gaps[2] < 1e-3
    assert gaps[0] > 3.0 * gaps[1] > 9.0 * gaps[2]


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(smagorinsky=0.0)
    # NaN fails every comparison, so each check must fail on it too
    with pytest.raises(ValueError, match="tolerance"):
        SolverConfig(tolerance=float("nan"))
    with pytest.raises(ValueError, match="eddy-viscosity"):
        SolverConfig(smagorinsky=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(scheme="leapfrog")
    assert SolverConfig().tolerance == 1e-10


def test_solver_config_rejects_an_unknown_stress_form():
    with pytest.raises(ValueError, match="unknown stress form 'symetric'"):
        SolverConfig(stress="symetric")
    for stress in ("symmetric", "full-gradient"):
        assert SolverConfig(stress=stress).stress == stress


# --- per-time-level map samples -------------------------------------------------


def _count_sample_fields(monkeypatch):
    from movingflow.maps import SpaceTimeMap
    calls = []
    original = SpaceTimeMap.sample_fields

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SpaceTimeMap, "sample_fields", counted)
    return calls


def _steady_step_calls(monkeypatch, case, mesh, dt):
    """sample_fields calls in each step after the first of a 3-step run,
    with the error accumulator as a callback."""
    from movingflow.analysis import ErrorAccumulator
    space = TaylorHoodSpace(mesh)
    prob = FlowProblem(space=space, map=case.map, nu=case.nu,
                       bcs=case.boundary_conditions(), forcing=case.forcing)
    errors = ErrorAccumulator(space, case.map, case.velocity,
                              case.velocity_gradient, dt, case.nu)
    calls = _count_sample_fields(monkeypatch)
    seen = []
    run(make_state(space), prob, SolverConfig(stress=case.stress), 3 * dt,
        dt, callbacks=[errors.update, lambda s, r: seen.append(len(calls))])
    assert "_cache" not in vars(space)
    return np.diff(seen)


def test_steady_steps_sample_the_map_twice_2d(monkeypatch):
    # once on the cell points, once on the facet points
    from movingflow.benchmarks import manufactured_2d
    case = manufactured_2d()
    per_step = _steady_step_calls(monkeypatch, case, case.mesh_for_level(1),
                                  0.01)
    assert per_step.tolist() == [2, 2]


def test_steady_steps_sample_the_map_twice_3d(monkeypatch):
    # the tube's outlet traction reads the level's facet sample
    from movingflow.benchmarks import tube_benchmark
    radius = lambda y: np.exp((y + 4.0) / 8.0)
    mesh = generate_tube(3, 2, radius, (-4.0, 4.0),
                         labels={"inlet": dirichlet(1)})
    assert mesh.has_neumann_boundary()
    per_step = _steady_step_calls(monkeypatch, tube_benchmark(), mesh, 0.02)
    assert per_step.tolist() == [2, 2]


def test_map_samples_are_read_only_and_dropped_by_run():
    mesh = generate_box(2, (2, 2))
    prob = all_noslip_problem(mesh, map_=AxisScalingMap(
        [lambda t: 1 + 0.1 * t, lambda t: 1.0],
        [lambda t: 0.1, lambda t: 0.0]))
    samples = sampling.map_samples(prob.space, prob.map)
    cells, facets = samples.cells(0.1), samples.facets(0.1)
    for array in (cells.J, cells.G, cells.position, facets.J,
                  facets.normal, facets.conormal,
                  samples.wall(0.1), samples.jacobian(0.0)):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
    run(make_state(prob.space), prob, SolverConfig(), 0.2, 0.1)
    assert "_cache" not in vars(prob.space)


def test_run_records_min_J_and_warns_below_c_J(caplog, monkeypatch):
    """min_J is the minimum of the level's kept cell-point J, read with no
    further map sample; a step whose min_J is below c_J = 0.1 logs one
    warning.  Here J = 1 - 0.9 t: 0.685, 0.37 and 0.055 at the three
    steps."""
    import logging
    map_ = AxisScalingMap([lambda t: 1 - 0.9 * t, lambda t: 1.0],
                          [lambda t: -0.9, lambda t: 0.0])
    prob = all_noslip_problem(generate_box(2, (2, 2)), map_=map_)
    calls = _count_sample_fields(monkeypatch)
    seen = []

    def check(state, record):
        before = len(calls)
        J = sampling.map_samples(prob.space, map_).jacobian(state.t)
        assert len(calls) == before          # the level's own sample
        seen.append((record["min_J"], float(J.min())))

    with caplog.at_level(logging.WARNING, logger="movingflow.solver"):
        result = run(make_state(prob.space), prob, SolverConfig(), 1.05,
                     0.35, callbacks=[check])
    assert [got for got, _ in seen] == [want for _, want in seen]
    fresh = sampling.map_samples(prob.space, map_)
    for record in result.diagnostics:
        assert record["min_J"] == fresh.jacobian(record["time"]).min()
    assert [r["min_J"] < 0.1 for r in result.diagnostics] == \
        [False, False, True]
    warned = [rec.message for rec in caplog.records if "min J" in rec.message]
    assert len(warned) == 1 and warned[0].startswith("step 3:")
    sampling.release(prob.space)


def test_a_first_step_samples_positions_only_at_its_own_level(monkeypatch):
    # J at t = 0 comes from a sample of J alone: the map's positions at the
    # cell points (and the gradient stack) are built for t_1 only
    prob = all_noslip_problem(generate_box(2, (2, 2)), map_=AxisScalingMap(
        [lambda t: 1 + 0.1 * t, lambda t: 1.0],
        [lambda t: 0.1, lambda t: 0.0]))
    n_points = sampling.cell_data(prob.space).points[..., 0].size
    times, position = [], prob.map.position

    def counted_position(X, t, cells=None):
        if len(X) == n_points:
            times.append(t)
        return position(X, t, cells=cells)

    monkeypatch.setattr(prob.map, "position", counted_position)
    run(make_state(prob.space), prob, SolverConfig(), 0.1, 0.1)
    assert times == [0.1]


# --- pressure gauge and the fixed saddle pattern ---------------------------------


def _capture_systems(monkeypatch):
    """(step, system) of every apply_boundary_conditions call in advance."""
    from movingflow import solver
    seen = []
    original = solver.apply_boundary_conditions

    def capture(step, *args, **kwargs):
        system = original(step, *args, **kwargs)
        seen.append((step, system))
        return system

    monkeypatch.setattr(solver, "apply_boundary_conditions", capture)
    return seen


def _eliminated_system(step, mask, pin=None):
    """The dense matrix of every dof, with the constrained velocity dofs
    (``mask``) eliminated symmetrically, a unit row and column each, and
    the ``pin``, if any, likewise."""
    n_p, n_u = step.B.shape
    free = (~mask).astype(float)
    rows = np.ones(n_p)
    if pin is not None:
        rows[pin] = 0.0
    B = step.B.toarray() * free * rows[:, None]
    K = np.zeros((n_u + n_p,) * 2)
    K[:n_u, :n_u] = step.A.toarray() * np.outer(free, free) + \
        np.diag(1.0 - free)
    K[:n_u, n_u:] = -B.T
    K[n_u:, :n_u] = B
    K[n_u:, n_u:] = np.diag(1.0 - rows)
    return K


def _eliminated_rhs(step, mask, ub, pin=None):
    """Its right-hand side: the boundary values ``ub`` at the constrained
    dofs, zero at the pin, the lifted step data elsewhere."""
    rhs_u = np.where(mask, ub, step.rhs_u - step.A @ ub)
    h = -(step.B @ ub)
    if pin is not None:
        h[pin] = 0.0
    return np.concatenate([rhs_u, h])


def _bordered_solution(step, system):
    """Dense solve of the bordered gauge system [[A, -B^T, 0], [B, 0, e],
    [0, e^T, 0]], with the constrained velocity dofs eliminated."""
    n_p, n_u = step.B.shape
    mask = np.ones(n_u, dtype=bool)
    mask[system.layout.free] = False
    K = np.zeros((n_u + n_p + 1,) * 2)
    K[:-1, :-1] = _eliminated_system(step, mask)
    K[n_u:-1, -1] = K[-1, n_u:-1] = system.gauge_vector
    rhs = np.concatenate([_eliminated_rhs(step, mask, system.bc_values),
                          [0.0]])
    x = np.linalg.solve(K, rhs)
    return x[:n_u], x[n_u:-1]


def _moving_box_problem(expressions, nu=0.2):
    map_ = parse_map_expressions(expressions, 2)
    prob = all_noslip_problem(generate_box(2, (3, 3)), nu=nu, map_=map_)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(prob.space.n_velocity_dofs)
    coeffs[prob.space.constrained_dof_mask()] = 0.0
    return prob, make_state(prob.space, u=DiscreteField(prob.space,
                                                        "velocity", coeffs))


def test_pin_and_shift_matches_bordered_gauge_system(monkeypatch):
    # a quadratic map: the quadrature keeps B^T 1 = 0 on the free dofs
    prob, state = _moving_box_problem(
        "x1 + 0.2*t*x1*x2; x2*(1 + 0.3*t) + 0.1*t*x1*x1")
    seen = _capture_systems(monkeypatch)
    cfg = SolverConfig(tolerance=1e-12)
    new, info = advance(state, prob, cfg, 0.05)
    step, system = seen[0]
    assert system.layout.pin is not None
    u_ref, p_ref = _bordered_solution(step, system)
    u, p = new.u.coefficients, new.p.coefficients
    assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)
    e = system.gauge_vector
    assert abs(e @ p) <= 1e-12 * np.linalg.norm(e) * np.linalg.norm(p)
    # every continuity row holds, the pinned one included
    bound = 10 * cfg.tolerance * abs(step.B).max() * np.abs(u).max()
    assert np.abs(step.B @ u).max() <= bound
    assert abs((step.B @ u)[system.layout.pin]) <= bound
    assert info["residual"] <= cfg.tolerance


@pytest.mark.parametrize("case", ["moving-gauge-box", "tube"])
def test_scattered_solution_equals_a_dense_solve_of_the_eliminated_system(
        case, monkeypatch):
    """The system of the unknowns, solved densely and scattered beside the
    boundary values, and the step's own solve both give the solution of the
    system of every dof with unit rows at the constrained dofs and the
    pin, whose right-hand side has the norm the solve is relative to."""
    if case == "tube":
        prob = _tube_problem()
        state = make_state(prob.space)
    else:
        prob, state = _moving_box_problem(
            "x1 + 0.2*t*x1*x2; x2*(1 + 0.3*t) + 0.1*t*x1*x1")
    seen = _capture_systems(monkeypatch)
    new, _ = advance(state, prob, SolverConfig(tolerance=1e-12), 0.05)
    step, system = seen[0]
    mask, pin = prob.space.constrained_dof_mask(), system.layout.pin
    assert (pin is None) == (case == "tube")
    rhs = _eliminated_rhs(step, mask, system.bc_values, pin)
    assert abs(system.rhs_norm - np.linalg.norm(rhs)) <= \
        1e-14 * system.rhs_norm
    x = np.linalg.solve(_eliminated_system(step, mask, pin), rhs)
    u_ref, p_ref = np.split(x, [len(mask)])
    if pin is not None:
        e = system.gauge_vector
        p_ref = p_ref - (e @ p_ref) / e.sum()
    u, p = system.split(np.linalg.solve(system.matrix.toarray(), system.rhs))
    assert np.array_equal(u[mask], system.bc_values[mask])
    for got in ((u, p), (new.u.coefficients, new.p.coefficients)):
        for v, ref in zip(got, (u_ref, p_ref)):
            assert np.linalg.norm(v - ref) <= 1e-10 * np.linalg.norm(ref)
    sampling.release(prob.space)


def test_the_solve_is_relative_to_the_right_hand_side_of_every_dof():
    """From rest the moving walls carry most of the right-hand side of
    the system of every dof.  A cold solve starts at |rhs| / rhs_norm, a
    third here, not at 1, and its last residual is the true one over
    rhs_norm."""
    from movingflow.solver import SaddleSolver
    prob, _ = _moving_box_problem(
        "x1 + 0.2*t*x1*x2; x2*(1 + 0.3*t) + 0.1*t*x1*x1")
    _, system = _first_system(prob, dt=0.05)
    b, scale = system.rhs, system.rhs_norm
    assert np.linalg.norm(b) < 0.5 * scale
    x, info = SaddleSolver().solve(system, 1e-10)
    residuals = info["residual_history"]
    assert residuals[0] == np.linalg.norm(b) / scale
    assert residuals[-1] == np.linalg.norm(b - system.matrix @ x) / scale
    sampling.release(prob.space)


@pytest.mark.parametrize("case", ["moving-gauge-box", "tube"])
def test_residual_is_relative_to_the_lifted_data_at_the_free_velocity_rows(
        case):
    """The linear residual of a split solution is relative to the lifted
    rhs_u at the free velocity rows, the boundary values and B of them,
    wherever the dissection puts the velocity rows among the unknowns."""
    if case == "tube":
        prob = _tube_problem()
    else:
        prob, _ = _moving_box_problem(
            "x1 + 0.2*t*x1*x2; x2*(1 + 0.3*t) + 0.1*t*x1*x1")
    step, system = _first_system(prob, dt=0.05)
    A, B, free, ub = step.A, step.B, system.layout.free, system.bc_values
    x = np.random.default_rng(7).standard_normal(len(system.rhs))
    u, p = system.split(x)
    r = np.concatenate([(step.rhs_u - A @ u + B.T @ p)[free], B @ u])
    scale = np.concatenate([(step.rhs_u - A @ ub)[free], ub, B @ ub])
    want = np.linalg.norm(r) / np.linalg.norm(scale)
    assert abs(system.residual(p, A @ u, B @ u) - want) <= 1e-12 * want
    sampling.release(prob.space)


def test_gauge_defect_shows_in_the_linear_residual(caplog):
    # with sin in the map the quadrature leaves B^T 1 != 0 on this coarse
    # mesh; the unpinned residual reports it instead of hiding it
    import logging
    prob, state = _moving_box_problem(
        "x1 + 0.1*t*sin(3*x1*x2); x2*(1 + 0.3*t) + 0.05*t*x1*x1")
    with caplog.at_level(logging.WARNING, logger="movingflow.solver"):
        _, info = advance(state, prob, SolverConfig(), 0.05)
    assert info["residual_history"][-1] <= SolverConfig().tolerance
    assert info["residual"] > SolverConfig().tolerance
    assert any("gauge" in rec.message for rec in caplog.records)


def test_saddle_pattern_fixed_over_steps(monkeypatch):
    from movingflow.benchmarks import manufactured_2d
    case = manufactured_2d()
    space = TaylorHoodSpace(case.mesh_for_level(1))
    prob = FlowProblem(space=space, map=case.map, nu=case.nu,
                       bcs=case.boundary_conditions(), forcing=case.forcing)
    seen = _capture_systems(monkeypatch)
    result = run(make_state(space), prob, SolverConfig(stress=case.stress),
                 0.03, 0.01)
    matrices = [system.matrix for _, system in seen]
    assert len(matrices) == 3
    for K in matrices[1:]:
        assert np.array_equal(K.indptr, matrices[0].indptr)
        assert np.array_equal(K.indices, matrices[0].indices)
    events = [rec["solver_event"] for rec in result.diagnostics]
    assert events[0] == "fresh"
    assert set(events[1:]) <= {"reuse", "refactor"}


def test_saddle_matrix_keeps_every_structural_entry_of_B():
    radius = lambda y: np.exp((y + 4.0) / 8.0)
    mesh = generate_tube(3, 2, radius, (-4.0, 4.0),
                         labels={"inlet": dirichlet(1), "outlet": neumann(0)})
    space = TaylorHoodSpace(mesh)
    tube = TubeShrinkMap()
    bcs = BoundaryConditionSet({
        NOSLIP: NoslipBC(),
        dirichlet(1): DirichletBC(lambda X, t: tube.velocity(X, t)),
        neumann(0): NeumannBC(None),
    })
    zero = DiscreteField(space, "velocity")
    step = assembly.assemble_step(space, tube, 0.1, 0.05, 0.05, zero, zero,
                                  1.0)
    system = apply_boundary_conditions(step, bcs, space, tube, 0.1)
    assert system.layout.pin is None
    n_p, n_u = step.B.shape
    index = np.full(n_u + n_p, -1)             # of each dof's unknown
    index[system.layout.unknowns] = np.arange(len(system.layout.unknowns))
    B = step.B.tocoo()
    at_free = index[B.col] >= 0
    q, j, values = B.row[at_free], B.col[at_free], B.data[at_free]
    assert np.any(values == 0.0)          # the entries scipy would drop
    q, j = index[n_u + q], index[j]
    K = system.matrix.tocoo()
    n = K.shape[0]
    keys = K.row.astype(np.int64) * n + K.col
    order = np.argsort(keys)
    for rows, cols, sign in ((q, j, 1.0), (j, q, -1.0)):
        want = rows.astype(np.int64) * n + cols
        pos = np.searchsorted(keys, want, sorter=order)
        assert np.array_equal(keys[order[pos]], want)
        assert np.array_equal(K.data[order[pos]], sign * values)


# --- the reuse solve: flexible GMRES with a warm start ------------------------


class _CountingLU:
    """Stands in for a kept factor and counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


class _CountingMatrix:
    def __init__(self, M):
        self.M = M
        self.shape = M.shape
        self.products = 0

    def __matmul__(self, x):
        self.products += 1
        return self.M @ x


def _drifted_pair(n=60, drift=0.05, seed=3):
    """A sparse nonsymmetric matrix, the factor of a drifted copy of it and
    a right-hand side."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    rng = np.random.default_rng(seed)
    M = (sp.random(n, n, density=0.1, random_state=rng) +
         sp.diags(4.0 + rng.random(n))).tocsc()
    stale = (M + drift * sp.random(n, n, density=0.1, random_state=rng)
             ).tocsc()
    return M, spla.splu(stale), rng.standard_normal(n)


def _kept(M, lu, b):
    """A SaddleSolver that keeps ``lu`` as made for the coefficient 1, and a
    system of M and b with that coefficient."""
    from types import SimpleNamespace
    from movingflow.solver import SaddleSolver
    saddle = SaddleSolver()
    saddle.shape, saddle.preconditioner, saddle.coefficient = M.shape, lu, 1.0
    return saddle, SimpleNamespace(
        matrix=M, rhs=b, rhs_norm=np.linalg.norm(b),
        step=SimpleNamespace(time_coefficient=1.0))


@pytest.mark.parametrize("drift", [0.05, 2.0])
def test_reuse_cycle_solves_once_per_krylov_vector(drift, monkeypatch):
    """Four Krylov vectors a cycle.  The factor of the far drifted copy
    stalls, and a float64 factor of M itself then takes over."""
    import scipy.sparse.linalg as spla
    from movingflow import solver
    M, lu, b = _drifted_pair(drift=drift)
    M, lu = _CountingMatrix(M), _CountingLU(lu)
    monkeypatch.setattr(solver, "_KRYLOV", 4)
    monkeypatch.setattr(solver, "_SinglePrecisionFactor",
                        lambda system: _CountingLU(spla.splu(system.matrix.M)))
    saddle, system = _kept(M, lu, b)
    x, info = saddle.solve(system, 1e-10)
    solves = lu.solves + (saddle.preconditioner.solves
                          if saddle.preconditioner is not lu else 0)
    cycles = info["iterations"]
    assert info["solver_event"] == ("reuse" if drift < 1 else "refactor")
    assert cycles >= 1 and solves >= cycles
    assert info["lu_solves"] == saddle.lu_solves == solves
    # a product per Krylov vector plus one true residual per cycle
    assert solves == M.products - cycles
    assert np.linalg.norm(b - M.M @ x) <= 1e-10 * np.linalg.norm(b)


def test_reuse_from_an_exact_start_makes_no_solve():
    import scipy.sparse.linalg as spla
    M, lu, b = _drifted_pair()
    lu = _CountingLU(lu)
    exact = spla.spsolve(M, b)
    saddle, system = _kept(M, lu, b)
    saddle.history = [exact]
    x, info = saddle.solve(system, 1e-10)
    assert lu.solves == 0 and info["lu_solves"] == 0 and x is exact
    assert info["solver_event"] == "reuse" and info["iterations"] == 0
    assert len(info["residual_history"]) == 1
    assert info["residual_history"][0] <= 1e-12


def test_a_kept_factor_that_stalls_on_its_own_coefficient_is_remade(
        monkeypatch):
    """The factor kept from the same mesh and alpha/dt at a thousandth of
    the viscosity stalls: exactly one new factor is made, the tolerance is
    met and ``iterations`` counts the cycles of both GMRES runs."""
    from dataclasses import replace
    from movingflow import solver
    from movingflow.solver import SaddleSolver
    prob = _manufactured_problem()
    _, low_nu = _first_system(replace(prob, nu=1e-3 * prob.nu))
    _, system = _first_system(prob)
    assert low_nu.step.time_coefficient == system.step.time_coefficient
    saddle = SaddleSolver()
    saddle.solve(low_nu, 1e-10)
    factors, runs = [], []
    original_splu, original_fgmres = solver.spla.splu, saddle._fgmres

    def counted_splu(K, **options):
        factors.append(K.shape)
        return original_splu(K, **options)

    def recorded_fgmres(*args):
        runs.append(original_fgmres(*args))
        return runs[-1]

    monkeypatch.setattr(solver.spla, "splu", counted_splu)
    monkeypatch.setattr(saddle, "_fgmres", recorded_fgmres)
    x, info = saddle.solve(system, 1e-10)
    assert info["solver_event"] == "refactor" and len(factors) == 1
    assert [res[-1] <= 1e-10 for *_, res in runs] == [False, True]
    assert info["iterations"] == sum(len(res) - 1 for *_, res in runs)
    assert info["iterations"] > len(info["residual_history"]) - 1
    assert info["residual_history"][-1] <= 1e-10
    u, p = system.split(x)
    assert system.residual(p, system.step.A @ u, system.step.B @ u) <= 1e-10
    sampling.release(prob.space)


def test_a_stalled_run_hands_its_iterate_to_the_refactor(monkeypatch):
    """With eddy viscosity on the 3 x 3 box the kept factor's run on step
    2 stops at about 2e-10, short of the tolerance 1e-10: the refactor goes
    on from that run's last iterate, not from the extrapolated start, and
    so needs fewer LU solves than the new factor needs from the start."""
    from movingflow.solver import SaddleSolver
    mesh = generate_box(2, (3, 3))
    prob = all_noslip_problem(mesh, nu=0.01)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(prob.space.n_velocity_dofs)
    coeffs[prob.space.constrained_dof_mask()] = 0.0
    state = make_state(prob.space, u=DiscreteField(prob.space, "velocity",
                                                   coeffs))
    saddle, runs = SaddleSolver(), []
    original = saddle._fgmres

    def recorded(*args):            # the arguments, residuals and solves
        before = saddle.lu_solves
        out = original(*args)
        runs.append((args, out[-1], saddle.lu_solves - before))
        return out

    monkeypatch.setattr(saddle, "_fgmres", recorded)
    config = SolverConfig(smagorinsky=0.5)
    for _ in range(2):
        state, info = advance(state, prob, config, 0.05, saddle_solver=saddle)
    assert info["solver_event"] == "refactor"
    (start, stalled, _), (_, remade, solves) = runs[-2:]
    assert 1e-10 < stalled[-1] < stalled[0]
    assert remade[0] == stalled[-1] and remade[-1] <= 1e-12
    before = saddle.lu_solves
    original(*start)            # the new factor from the extrapolated start
    assert 0 < solves < saddle.lu_solves - before
    sampling.release(prob.space)


def _counted_steps(monkeypatch, cold, scheme="backward-euler", stale=False,
                   factors=None):
    """Four steps of manufactured_2d L1 from its exact initial state through
    one SaddleSolver, with the solution history dropped before every step
    when ``cold``; the final state and each step's event and LU solves,
    which the step's ``lu_solves`` must equal.  With ``stale`` the kept
    factor is marked as made for the BDF2 coefficient 1.5/dt, so that BDF2
    steps reuse it.  ``factors`` collects the factors made."""
    from movingflow import solver
    from movingflow.benchmarks import manufactured_2d
    case = manufactured_2d()
    space = TaylorHoodSpace(case.mesh_for_level(1))
    prob = FlowProblem(space=space, map=case.map, nu=case.nu,
                       bcs=case.boundary_conditions(), forcing=case.forcing)
    factors = [] if factors is None else factors
    original = solver.spla.splu

    def counted_splu(K, **options):
        factors.append(_CountingLU(original(K, **options)))
        return factors[-1]

    monkeypatch.setattr(solver.spla, "splu", counted_splu)
    def at_start(fn):
        return lambda X: fn(case.map.position(X, 0.0), 0.0)

    state = make_state(space, interpolate(space, "velocity",
                                          at_start(case.velocity)),
                       interpolate(space, "pressure", at_start(case.pressure)))
    cfg = SolverConfig(stress=case.stress, scheme=scheme)
    saddle, steps, prev = solver.SaddleSolver(), [], None
    for _ in range(4):
        if cold:
            saddle.history = []
        if stale and saddle.preconditioner is not None:
            saddle.coefficient = 1.5 / 0.01
        before = sum(f.solves for f in factors)
        new, info = advance(state, prob, cfg, 0.01, state_prev2=prev,
                            saddle_solver=saddle)
        state, prev = new, state
        steps.append((info["solver_event"],
                      sum(f.solves for f in factors) - before))
        assert info["lu_solves"] == steps[-1][1]
    sampling.release(space)
    return state, steps


def test_warm_start_matches_cold_start_with_fewer_solves(monkeypatch):
    warm, warm_steps = _counted_steps(monkeypatch, cold=False)
    cold, cold_steps = _counted_steps(monkeypatch, cold=True)
    for a, b in ((warm.u, cold.u), (warm.p, cold.p)):
        assert np.linalg.norm(a.coefficients - b.coefficients) <= \
            1e-10 * np.linalg.norm(b.coefficients)
    assert [e for e, _ in warm_steps] == [e for e, _ in cold_steps] == \
        ["fresh"] + ["reuse"] * 3
    for (_, w), (_, c) in zip(warm_steps[1:], cold_steps[1:]):
        assert w < c


def test_solution_history_dropped_when_the_shape_changes(monkeypatch):
    from dataclasses import replace
    from movingflow import solver
    from movingflow.solver import SaddleSolver

    def system(divisions):
        prob = all_noslip_problem(generate_box(2, divisions))
        zero = DiscreteField(prob.space, "velocity")
        step = assembly.assemble_step(prob.space, prob.map, 0.1, 0.0, 0.1,
                                      zero, zero, 1.0, forcing=lambda X, t:
                                      np.stack([X[:, 1], -X[:, 0]], axis=1))
        return apply_boundary_conditions(step, prob.bcs, prob.space,
                                         prob.map, 0.1)

    small, large = system((2, 2)), system((3, 3))
    factors = []
    original = solver.spla.splu

    def counted_splu(K, **options):
        factors.append(K.shape)
        return original(K, **options)

    monkeypatch.setattr(solver.spla, "splu", counted_splu)
    saddle = SaddleSolver()
    for _ in range(2):
        saddle.solve(small, 1e-10)
    assert [len(x) for x in saddle.history] == [small.matrix.shape[0]] * 2
    assert len(factors) == 1
    # another time coefficient: the start already meets the target, so no
    # factor is made and the kept one keeps its coefficient
    coefficient = saddle.coefficient
    x, info = saddle.solve(
        replace(small, step=replace(small.step, time_coefficient=15.0)),
        1e-10)
    assert info["solver_event"] == "reuse" and info["iterations"] == 0
    assert info["lu_solves"] == 0
    assert len(factors) == 1 and saddle.coefficient == coefficient != 15.0
    assert len(saddle.history) == 2 and saddle.history[1] is x
    assert info["residual_history"] == [info["residual_history"][0]] and \
        info["residual_history"][0] <= 1e-12
    x, info = saddle.solve(large, 1e-10)
    assert len(factors) == 2
    assert info["solver_event"] == "fresh"
    assert len(saddle.history) == 1 and saddle.history[0] is x
    assert info["residual_history"][-1] <= 1e-10


def test_bdf2_steps_refactor_for_their_own_time_coefficient(monkeypatch):
    # step 1 of a bdf2 run is backward Euler (alpha/dt = 1/dt), the later
    # steps have 1.5/dt: step 2 makes their factor and steps 3-4 reuse it
    factors = []
    own, own_steps = _counted_steps(monkeypatch, cold=False, scheme="bdf2",
                                    factors=factors)
    assert [e for e, _ in own_steps] == \
        ["fresh", "refactor", "reuse", "reuse"]
    assert len(factors) == 2
    stale, stale_steps = _counted_steps(monkeypatch, cold=False,
                                        scheme="bdf2", stale=True)
    assert [e for e, _ in stale_steps] == ["fresh"] + ["reuse"] * 3
    for (_, o), (_, s) in zip(own_steps[2:], stale_steps[2:]):
        assert o < s
    for a, b in ((own.u, stale.u), (own.p, stale.p)):
        assert np.linalg.norm(a.coefficients - b.coefficients) <= \
            1e-10 * np.linalg.norm(b.coefficients)


# --- the single-precision factor ------------------------------------------------


def _tube_problem():
    radius = lambda y: np.exp((y + 4.0) / 8.0)
    mesh = generate_tube(3, 2, radius, (-4.0, 4.0),
                         labels={"inlet": dirichlet(1), "outlet": neumann(0)})
    tube = TubeShrinkMap()
    return FlowProblem(space=TaylorHoodSpace(mesh), map=tube, nu=0.04,
                       bcs=BoundaryConditionSet({
                           NOSLIP: NoslipBC(),
                           dirichlet(1): DirichletBC(tube.velocity),
                           neumann(0): NeumannBC(None)}))


def _manufactured_problem():
    from movingflow.benchmarks import manufactured_2d
    case = manufactured_2d()
    space = TaylorHoodSpace(case.mesh_for_level(1))
    return FlowProblem(space=space, map=case.map, nu=case.nu,
                       bcs=case.boundary_conditions(), forcing=case.forcing)


def _renumbered_problem():
    """The manufactured case on its level-1 mesh, vertices renumbered."""
    from movingflow.benchmarks import manufactured_2d
    from test_meshing import renumbered
    case = manufactured_2d()
    space = TaylorHoodSpace(renumbered(case.mesh_for_level(1)))
    return FlowProblem(space=space, map=case.map, nu=case.nu,
                       bcs=case.boundary_conditions(), forcing=case.forcing)


def _box_3d_problem():
    """A 3D box with noslip walls, two dirichlet and two neumann patches."""
    mesh = generate_box(3, (2, 3, 2), labels={
        "xmin": dirichlet(3), "ymin": dirichlet(1), "ymax": neumann(2),
        "zmax": neumann(1)})
    inflow = DirichletBC(lambda X, t: np.outer(X[:, 2] * (1.0 - X[:, 2]),
                                               [1.0, 0.5, 0.0]))
    return FlowProblem(
        space=TaylorHoodSpace(mesh), nu=0.1,
        map=parse_map_expressions("x1 + 0.1*t*x2; x2; x3 + 0.05*t*x1", 3),
        bcs=BoundaryConditionSet({
            NOSLIP: NoslipBC(), dirichlet(3): inflow, dirichlet(1): inflow,
            neumann(2): NeumannBC(None), neumann(1): NeumannBC(None)}))


def _first_system(prob, stress="full-gradient", dt=0.02):
    """The first step's blocks and constrained system from rest."""
    zero = DiscreteField(prob.space, "velocity")
    step = assembly.assemble_step(
        prob.space, prob.map, dt, 0.0, dt, zero, zero, prob.nu,
        forcing=prob.forcing, neumann_data=prob.bcs.neumann_tractions(),
        stress=stress)
    return step, apply_boundary_conditions(step, prob.bcs, prob.space,
                                           prob.map, dt)


def _unknown_dofs(space, pin):
    """The positions of a step's unknowns among all velocity and pressure
    dofs, ascending: the free velocity dofs and every pressure dof but the
    pin."""
    n_p = space.n_pressure_dofs
    return np.flatnonzero(np.concatenate([~space.constrained_dof_mask(),
                                          np.arange(n_p) != pin]))


@pytest.mark.parametrize("problem", [_manufactured_problem, _tube_problem])
def test_dissection_order_is_one_permutation_of_the_saddle_dofs(problem):
    """The layout numbers the unknowns alone, each once: every dof but the
    constrained velocity dofs and the pin, the same on every build."""
    from movingflow.solver import _SaddleLayout
    prob = problem()
    step, system = _first_system(prob)
    layout = system.layout
    pinned = layout.pin is not None
    assert pinned != prob.space.mesh.has_neumann_boundary()
    dofs = _unknown_dofs(prob.space, layout.pin)
    n = len(dofs)
    assert system.matrix.shape == (n, n) and len(system.rhs) == n
    assert np.array_equal(np.sort(layout.unknowns), dofs)
    again = _SaddleLayout(prob.space, step.A, step.B)
    assert np.array_equal(again.unknowns, layout.unknowns)
    sampling.release(prob.space)


def test_dissection_order_cuts_the_tube_factor_fill():
    """Against SuperLU's default column order on the same float32 matrix,
    on the 3D tube and on the 2D box (32 x 32, all Dirichlet)."""
    import scipy.sparse.linalg as spla
    from movingflow.benchmarks import manufactured_2d, tube_benchmark
    from movingflow.solver import _SinglePrecisionFactor
    for case, level in ((tube_benchmark(), 1), (manufactured_2d(), 3)):
        prob = FlowProblem(space=TaylorHoodSpace(case.mesh_for_level(level)),
                           map=case.map, nu=case.nu,
                           bcs=case.boundary_conditions(),
                           forcing=case.forcing)
        _, system = _first_system(prob, stress=case.stress)
        K = system.matrix
        default_nnz = spla.splu(K.astype(np.float32)).nnz
        assert _SinglePrecisionFactor(system).lu.nnz <= \
            0.75 * default_nnz
        sampling.release(prob.space)


@pytest.mark.parametrize("problem", [_manufactured_problem, _tube_problem])
def test_factor_pattern_equals_the_permuted_matrix(problem):
    """The oracle of the factor made on a matrix in dof order: that
    matrix of the unknowns, its rows and columns permuted by the nested
    dissection and its rows sorted, as SuperLU sorts its input, equals the
    layout's matrix, and the float32 factor of that matrix with its
    pressure rows and columns times s, the power of two nearest
    max|A| / (4 max|B|) over the unknowns, equals ours bit for bit."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from movingflow.solver import _nested_dissection, _SinglePrecisionFactor
    prob = problem()
    step, system = _first_system(prob)
    A, B = step.A, step.B
    dofs = _unknown_dofs(prob.space, system.layout.pin)
    # bmat and the slices keep B's exact zeros as structural entries
    K = sp.bmat([[A, -B.T], [B, None]], format="csr")[dofs][:, dofs]
    dissection = _nested_dissection(prob.space)
    order = np.searchsorted(dofs, dissection[np.isin(dissection, dofs)])
    expected = K[order][:, order].tocsc()
    expected.sum_duplicates()       # what splu does to its input
    ours = system.matrix
    for got, want in ((ours.indptr, expected.indptr),
                      (ours.indices, expected.indices),
                      (ours.data, expected.data)):
        assert np.array_equal(got, want)
    factor = _SinglePrecisionFactor(system)
    free = dofs[dofs < A.shape[0]]
    ratio = abs(A[free][:, free]).max() / abs(B[dofs[len(free):] - A.shape[0]]
                                            [:, free]).max()
    s = 2.0 ** round(np.log2(ratio / 4.0))
    d = np.where(dofs[order] < A.shape[0], 1.0, s)
    scaled = expected.astype(np.float32)    # exact zeros stay structural
    scaled.data = (expected.data * d[expected.indices] * np.repeat(
        d, np.diff(expected.indptr))).astype(np.float32)
    lu = spla.splu(scaled, permc_spec="NATURAL",
                   diag_pivot_thresh=0.01, options={"SymmetricMode": True})
    for mine, theirs in ((factor.lu.L, lu.L), (factor.lu.U, lu.U)):
        assert np.array_equal(mine.indptr, theirs.indptr)
        assert np.array_equal(mine.indices, theirs.indices)
        assert np.array_equal(mine.data, theirs.data)
    assert np.array_equal(factor.lu.perm_r, lu.perm_r)
    sampling.release(prob.space)


def _first_factor(name, nu_scale=1.0):
    """A first step's matrix from rest and its factor: a built-in case at a
    level, at the convergence study's time step, or a 32 x 32 box with
    no-slip walls and a moving expression map, as in ``perfbench``'s CLI
    workload; the viscosity times ``nu_scale``."""
    from movingflow.benchmarks import manufactured_2d, tube_benchmark
    from movingflow.solver import _SinglePrecisionFactor
    kind, level = name.rsplit("-", 1)
    if kind == "box":
        map_ = parse_map_expressions(
            "x1 + 0.2*t*sin(x1*x2); x2 + 0.2*t*exp(x1*x2/4)", 2)
        prob = all_noslip_problem(generate_box(2, (32, 32)),
                                  nu=0.01 * nu_scale, map_=map_)
        stress, dt = "full-gradient", 0.05
    else:
        case = {"manufactured": manufactured_2d,
                "tube": tube_benchmark}[kind]()
        level = int(level)
        prob = FlowProblem(space=TaylorHoodSpace(case.mesh_for_level(level)),
                           map=case.map, nu=case.nu * nu_scale,
                           bcs=case.boundary_conditions(),
                           forcing=case.forcing)
        h = case.nominal_h(level) / case.nominal_h(1)
        stress, dt = case.stress, case.base_dt * h * h
    _, system = _first_system(prob, stress=stress, dt=dt)
    sampling.release(prob.space)
    return system.matrix, _SinglePrecisionFactor(system)


@pytest.mark.parametrize("name, nu_scale", [
    ("manufactured-2", 1), ("manufactured-3", 1), ("manufactured-4", 1),
    ("box-32", 1), ("tube-1", 1), ("manufactured-3", 100),
    ("manufactured-3", 0.01), ("box-32", 100), ("tube-1", 100)])
def test_first_step_factor_pivots_on_its_diagonal(name, nu_scale):
    """With the pressure unknowns scaled, SuperLU pivots on the diagonal
    of every first-step factor.  Unscaled, the 8-node 2D leaf pivots off
    the diagonal 517 times on manufactured L3, and a 32-node leaf 874
    times on L4, whose fill then doubles: L4 is held to 7e6 (1.46e7 so),
    and L3 to 1.25e6 (1.54e6 with the 32-node leaf).  At 100 times the
    viscosity, manufactured L3 needs s of about 1024 or more (8 at its own
    viscosity), where s = sqrt(max|A| / max|B|) = 256 made 93 such
    pivots."""
    K, factor = _first_factor(name, nu_scale)
    lu = factor.lu
    assert np.array_equal(lu.perm_r, np.arange(K.shape[0]))
    bound = {"manufactured-3": 1.25e6, "manufactured-4": 7e6}.get(name)
    if bound and nu_scale == 1:
        assert lu.L.nnz + lu.U.nnz <= bound


def test_scaled_factor_solves_bitwise_as_the_unscaled_one():
    """On tube L1 K factors on its diagonal unscaled too, so with any
    power of two at the pressure unknowns D (D K D)^{-1} D v is K^{-1} v
    bit for bit."""
    import scipy.sparse.linalg as spla
    K, factor = _first_factor("tube-1")
    plain = spla.splu(K.astype(np.float32), permc_spec="NATURAL",
                      diag_pivot_thresh=0.01, options={"SymmetricMode": True})
    identity = np.arange(K.shape[0])
    assert np.array_equal(plain.perm_r, identity)
    assert np.array_equal(factor.lu.perm_r, identity)
    assert factor.scale.max() > 1.0
    v = np.random.default_rng(34).standard_normal(K.shape[0])
    assert np.array_equal(factor.solve(v),
                          plain.solve(v.astype(np.float32)).astype(np.float64))


@pytest.mark.parametrize("problem", [_manufactured_problem, _tube_problem],
                         ids=["manufactured", "tube"])
def test_factor_order_is_the_dissection_of_the_unknowns(problem):
    """The layout numbers the unknowns in the order the nested dissection
    of all dofs gives them: the others are dropped, nothing moves ahead."""
    from movingflow.solver import _nested_dissection
    prob = problem()
    _, system = _first_system(prob)
    layout = system.layout
    dissection = _nested_dissection(prob.space)
    kept = np.isin(dissection, _unknown_dofs(prob.space, layout.pin))
    assert 0 < len(layout.unknowns) < len(dissection)
    assert np.array_equal(layout.unknowns, dissection[kept])
    sampling.release(prob.space)


def _lexsort_layout(space, A, B):
    """The saddle CSC arrays over the unknowns, numbered in the nested
    dissection, the pin and the unknowns, built by sorting every entry's
    (column, row): the oracle of the layout's conversion."""
    from movingflow.solver import _nested_dissection
    n_p, n_u = B.shape
    mask, pin = space.constrained_dof_mask(), None
    if not space.mesh.has_neumann_boundary():
        cells = space.mesh.cells
        volume = np.repeat(sampling.geometry(space).det, cells.shape[1])
        pin = int(np.argmax(np.bincount(cells.ravel(), volume, n_p)))
    at_pin = np.arange(n_p) == pin
    free = ~mask
    dissection = _nested_dissection(space)
    unknowns = dissection[np.concatenate([free, ~at_pin])[dissection]]
    index = np.full(n_u + n_p, -1)
    index[unknowns] = np.arange(len(unknowns))
    a_row = np.repeat(np.arange(n_u), np.diff(A.indptr))
    a = np.flatnonzero(free[a_row] & free[A.indices])
    b_row = np.repeat(np.arange(n_p), np.diff(B.indptr))
    b = np.flatnonzero(free[B.indices] & ~at_pin[b_row])
    q, j = index[n_u + b_row[b]], index[B.indices[b]]
    rows = np.concatenate([index[a_row[a]], q, j])
    cols = np.concatenate([index[A.indices[a]], j, q])
    source = np.concatenate([a, A.nnz + b, A.nnz + B.nnz + b])
    order = np.lexsort((rows, cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(
        cols, minlength=len(unknowns)))])
    return indptr, rows[order], source[order], pin, unknowns


@pytest.mark.parametrize("stress", ["symmetric", "full-gradient"])
@pytest.mark.parametrize("problem", [_manufactured_problem, _tube_problem,
                                     _renumbered_problem, _box_3d_problem])
def test_saddle_layout_counting_pass_equals_a_lexsort(problem, stress):
    from movingflow.solver import _SaddleLayout
    prob = problem()
    step, _ = _first_system(prob, stress=stress)
    layout = _SaddleLayout(prob.space, step.A, step.B)
    indptr, indices, gather, pin, unknowns = _lexsort_layout(
        prob.space, step.A, step.B)
    assert (layout.pin is None) == prob.space.mesh.has_neumann_boundary()
    assert layout.pin == pin and np.array_equal(layout.unknowns, unknowns)
    for got, want in ((layout.indptr, indptr), (layout.indices, indices),
                      (layout.gather, gather),
                      (layout.in_b, gather >= step.A.nnz),
                      (layout.pressure, unknowns >= step.B.shape[1])):
        assert np.array_equal(got, want)
    assert 0 < layout.pressure.sum() < len(unknowns)
    assert layout.indptr.dtype == layout.indices.dtype == np.int32
    assert layout.gather.dtype == np.intp
    sampling.release(prob.space)


def _structure_digest(space, step):
    """sha256 of A's and B's indptr and indices and of the scatter
    operators, the velocity and pressure patterns' pair sums."""
    h = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())

    add(step.A.indptr, step.A.indices, step.B.indptr, step.B.indices)
    for op in (pattern.scatter for pattern in assembly._patterns(space)):
        assert op.dtype == bool and op.data.all()
        add(op.shape, op.indptr, op.indices)
    return h.hexdigest()


# recorded with the construction that kept a scatter operator per CSR
# pattern besides the pair sums; the box-3D digests were re-recorded
# without the neumann facets' own operator, with the construction that
# still had it
_STRUCTURE_DIGESTS = {
    ("_renumbered_problem", "symmetric"):
        "587d65bfce14d145b1d6bfdb4d06dd9ef942c238e84d6b08ab9280f85bde505e",
    ("_renumbered_problem", "full-gradient"):
        "b99828ed5d58e8d2ecbe926211e3b480f0466a342bc39b8a701864f4c8b4dfc3",
    ("_box_3d_problem", "symmetric"):
        "d2c2af60ad664c82395c0168ae6fe40eb1022448789f0c8c3f8cbaeed5155412",
    ("_box_3d_problem", "full-gradient"):
        "17ae5f3cabbefd8afcf3b9737e62d4c9a1acbbaf5f9e2ecc596a51b8a81ee587",
}


@pytest.mark.parametrize("stress", ["symmetric", "full-gradient"])
@pytest.mark.parametrize("problem", [_renumbered_problem, _box_3d_problem])
def test_patterns_and_scatter_operators_match_recorded_digests(problem,
                                                              stress):
    prob = problem()
    step, _ = _first_system(prob, stress=stress)
    assert _structure_digest(prob.space, step) == \
        _STRUCTURE_DIGESTS[problem.__name__, stress]
    sampling.release(prob.space)


def test_sparse_structure_is_built_by_the_first_step_and_released_by_run():
    """Set-up (mesh, space, problem and the interpolated initial state)
    builds none of the sparse structure: the patterns and the saddle
    layout come with the first step, and run releases them."""
    from movingflow.benchmarks import manufactured_2d
    case, prob = manufactured_2d(), _manufactured_problem()
    space = prob.space

    def at_start(field):
        return lambda X: field(case.map.position(X, 0.0), 0.0)

    initial = FlowState(
        0, 0.0, interpolate(space, "velocity", at_start(case.velocity)),
        interpolate(space, "pressure", at_start(case.pressure)))

    def built():
        cache = space.__dict__.get("_cache", {})
        return ("patterns" in cache,
                any(isinstance(key, tuple) and key[0] == "saddle"
                    for key in cache))

    config, dt = SolverConfig(stress=case.stress), 0.01
    assert built() == (False, False)
    advance(initial, prob, config, dt)
    assert built() == (True, True)
    run(initial, prob, config, 2 * dt, dt)
    assert built() == (False, False)


@pytest.mark.parametrize("problem", [_manufactured_problem, _tube_problem])
def test_fresh_float32_factor_meets_the_tolerance_in_one_cycle(problem):
    prob = problem()
    cfg = SolverConfig(stress="full-gradient")
    state, info = advance(make_state(prob.space), prob, cfg, 0.02)
    assert info["solver_event"] == "fresh" and info["iterations"] == 1
    assert len(info["residual_history"]) == 2
    assert info["residual_history"][-1] <= cfg.tolerance
    assert info["residual"] <= cfg.tolerance
    sampling.release(prob.space)


def test_a_fresh_factor_that_cannot_precondition_raises_with_the_step(
        monkeypatch):
    import scipy.sparse as sp
    from movingflow import solver
    from movingflow.solver import SolverError
    original = solver.spla.splu
    monkeypatch.setattr(solver.spla, "splu", lambda K, **options: original(
        sp.identity(K.shape[0], dtype=K.dtype, format="csc"), **options))
    prob = _manufactured_problem()
    state = FlowState(4, 0.04, DiscreteField(prob.space, "velocity"),
                      DiscreteField(prob.space, "pressure"))
    with pytest.raises(SolverError, match="fresh solve at step 5") as err:
        advance(state, prob, SolverConfig(), 0.01)
    assert err.value.step == 5
    assert err.value.residuals[-1] > SolverConfig().tolerance


@pytest.mark.parametrize("nu", [1e39, np.nan])
def test_entries_float32_cannot_hold_raise_instead_of_casting(nu):
    from movingflow.solver import SolverError
    prob = all_noslip_problem(generate_box(2, (2, 2)), nu=nu)
    state = FlowState(2, 0.2, DiscreteField(prob.space, "velocity"),
                      DiscreteField(prob.space, "pressure"))
    with pytest.raises(SolverError, match="float32 range") as err:
        advance(state, prob, SolverConfig(), 0.1)
    assert err.value.step == 3
