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
                               advance, apply_boundary_conditions,
                               map_velocity_at_nodes, run)
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
    wall = map_velocity_at_nodes(space, prob.map, dt, dt)
    w = DiscreteField(space, "velocity", (u0.nodal() - wall).ravel())
    step = assembly.assemble_step(space, prob.map, dt, 0.0, dt, w, u0,
                                  prob.nu, neumann_data={0: None},
                                  stress="full-gradient")
    system = apply_boundary_conditions(step, prob.bcs, space, prob.map, dt, dt)
    x = np.concatenate([u0.coefficients, p0.coefficients])
    # the interpolated exact solution satisfies the discrete step exactly
    residual = system.rhs - system.matrix @ x
    assert np.abs(residual).max() < 1e-10 * np.abs(system.rhs).max()

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
    mesh = generate_box(3, (1, 1, 1))
    space = TaylorHoodSpace(mesh)
    tube = TubeShrinkMap()
    zero = DiscreteField(space, "velocity")
    step = assembly.assemble_step(space, tube, 0.1, 0.05, 0.05, zero, zero,
                                  1.0, stress="symmetric")
    bcs = BoundaryConditionSet({NOSLIP: NoslipBC()})
    system = apply_boundary_conditions(step, bcs, space, tube, 0.1, 0.05)
    A = system.matrix[:system.n_u, :system.n_u]
    assert np.abs((A - A.T).toarray()).max() <= 1e-12


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


# --- energy behavior -----------------------------------------------------------


def test_energy_monotonic_decay_static_domain():
    mesh = generate_box(2, (4, 4))
    prob = all_noslip_problem(mesh, nu=0.05)
    space = prob.space
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal(space.n_velocity_dofs)
    coeffs[space.constrained_dof_mask()] = 0.0
    u0 = DiscreteField(space, "velocity", coeffs)
    result = run(make_state(space, u=u0), prob, SolverConfig(), T=1.0, dt=0.02,
                 record_energy=False)
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
                 prob, SolverConfig(), T=0.1, dt=0.02, record_energy=False)
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
    result = run(FlowState(0, 0.0, u0, p0), prob, cfg, T=0.5, dt=0.1,
                 record_energy=False)
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
        result = run(make_state(space, u=u0.copy()), prob, cfg, T=0.2, dt=0.05,
                     record_energy=False)
        finals.append(result.diagnostics[-1]["velocity_norm_k"])
    assert finals[1] < finals[0]


# --- run/driver mechanics ---------------------------------------------------------


def test_run_zero_steps_returns_initial():
    mesh = generate_box(2, (2, 2))
    prob = all_noslip_problem(mesh)
    state = make_state(prob.space)
    result = run(state, prob, SolverConfig(), T=0.0, dt=0.1)
    assert result.final is state
    assert result.diagnostics == []


def test_run_rejects_non_divisible_dt():
    mesh = generate_box(2, (2, 2))
    prob = all_noslip_problem(mesh)
    with pytest.raises(ValueError, match="divide"):
        run(make_state(prob.space), prob, SolverConfig(), T=1.0, dt=0.3)


def test_callback_failure_reports_step():
    mesh = generate_box(2, (2, 2))
    prob = all_noslip_problem(mesh)

    def boom(state, record):
        if state.k == 2:
            raise RuntimeError("broken writer")

    from movingflow.solver import CallbackError
    with pytest.raises(CallbackError, match="step 2"):
        run(make_state(prob.space), prob, SolverConfig(), T=0.3, dt=0.1,
            callbacks=[boom], record_energy=False)


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

    finals = []
    for map_ in (analytic, sequence):
        prob = FlowProblem(space=space, map=map_, nu=0.5,
                           bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))
        u0 = DiscreteField(space, "velocity", coeffs.copy())
        result = run(make_state(space, u=u0), prob, SolverConfig(), T=0.1,
                     dt=0.025, store_states=True, record_energy=False)
        finals.append(result)
    for s_a, s_m in zip(finals[0].states, finals[1].states):
        assert np.abs(s_a.u.coefficients - s_m.u.coefficients).max() < 1e-8
        assert np.abs(s_a.p.coefficients - s_m.p.coefficients).max() < 1e-8


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(smagorinsky=0.0)
    with pytest.raises(ValueError):
        SolverConfig(scheme="leapfrog")
    assert SolverConfig().tolerance == 1e-10


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


def test_steady_steps_sample_the_map_at_most_three_times_2d(monkeypatch):
    from movingflow.benchmarks import manufactured_2d
    case = manufactured_2d()
    per_step = _steady_step_calls(monkeypatch, case, case.mesh_for_level(1),
                                  0.01)
    assert len(per_step) == 2 and per_step.max() <= 3


def test_steady_steps_sample_the_map_at_most_three_times_3d(monkeypatch):
    # the tube's outlet traction callback samples the map itself
    from movingflow.benchmarks import tube_benchmark
    radius = lambda y: np.exp((y + 4.0) / 8.0)
    mesh = generate_tube(3, 2, radius, (-4.0, 4.0),
                         labels={"inlet": dirichlet(1)})
    assert mesh.has_neumann_boundary()
    per_step = _steady_step_calls(monkeypatch, tube_benchmark(), mesh, 0.02)
    assert len(per_step) == 2 and per_step.max() <= 3


def test_map_samples_are_read_only_and_dropped_by_run():
    mesh = generate_box(2, (2, 2))
    prob = all_noslip_problem(mesh, map_=AxisScalingMap(
        [lambda t: 1 + 0.1 * t, lambda t: 1.0],
        [lambda t: 0.1, lambda t: 0.0]))
    samples = sampling.map_samples(prob.space, prob.map)
    cells, facets = samples.cells(0.1), samples.facets(0.1)
    for array in (cells.J, cells.ghat, cells.position, facets.J,
                  facets.Finv, facets.conormal, facets.xi_t,
                  samples.wall(0.1), samples.jacobian(0.0)):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
    run(make_state(prob.space), prob, SolverConfig(), 0.2, 0.1)
    assert "_cache" not in vars(prob.space)


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


def _bordered_solution(step, system):
    """Dense solve of the bordered gauge system [[A, -B^T, 0], [B, 0, e],
    [0, e^T, 0]], with the constrained velocity dofs eliminated."""
    n_u, n_p = system.n_u, system.n_p
    free = (~system.mask).astype(float)
    B = step.B.toarray() * free
    K = np.zeros((n_u + n_p + 1,) * 2)
    K[:n_u, :n_u] = step.A.toarray() * np.outer(free, free) + \
        np.diag(1.0 - free)
    K[:n_u, n_u:-1] = -B.T
    K[n_u:-1, :n_u] = B
    K[n_u:-1, -1] = K[-1, n_u:-1] = system.gauge_vector
    rhs = np.concatenate([system.rhs[:n_u], -(step.B @ system.bc_values),
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
    assert system.pin is not None
    u_ref, p_ref = _bordered_solution(step, system)
    u, p = new.u.coefficients, new.p.coefficients
    assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)
    e = system.gauge_vector
    assert abs(e @ p) <= 1e-12 * np.linalg.norm(e) * np.linalg.norm(p)
    # every continuity row holds, the pinned one included
    bound = 10 * cfg.tolerance * abs(step.B).max() * np.abs(u).max()
    assert np.abs(step.B @ u).max() <= bound
    assert abs((step.B @ u)[system.pin]) <= bound
    assert info["residual"] <= cfg.tolerance


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
                 0.03, 0.01, record_energy=False)
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
    system = apply_boundary_conditions(step, bcs, space, tube, 0.1, 0.05)
    assert system.pin is None
    B = step.B.tocoo()
    at_free = ~system.mask[B.col]
    q, j, values = B.row[at_free], B.col[at_free], B.data[at_free]
    assert np.any(values == 0.0)          # the entries scipy would drop
    K = system.matrix.tocoo()
    n, n_u = K.shape[0], system.n_u
    keys = K.row.astype(np.int64) * n + K.col
    order = np.argsort(keys)
    for rows, cols, sign in ((n_u + q, j, 1.0), (j, n_u + q, -1.0)):
        want = rows.astype(np.int64) * n + cols
        pos = np.searchsorted(keys, want, sorter=order)
        assert np.array_equal(keys[order[pos]], want)
        assert np.array_equal(K.data[order[pos]], sign * values)


# --- the reuse solve: flexible GMRES with a warm start ------------------------


class _CountingLU:
    """Stands in for a cached factor and counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


class _CountingMatrix:
    def __init__(self, M):
        self.M = M
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


@pytest.mark.parametrize("drift", [0.05, 2.0])
def test_reuse_cycle_solves_once_per_krylov_vector(drift):
    from movingflow.solver import _solve_with_stale_factor
    M, lu, b = _drifted_pair(drift=drift)
    M, lu = _CountingMatrix(M), _CountingLU(lu)
    x, residuals = _solve_with_stale_factor(M, lu, b, 1e-10, 1e-12,
                                            max_krylov=4)
    cycles = len(residuals) - 1
    assert cycles >= 1 and lu.solves >= cycles
    # a product per Krylov vector plus one true residual per cycle
    assert lu.solves == M.products - cycles
    if x is not None:
        assert np.linalg.norm(b - M.M @ x) <= 1e-10 * np.linalg.norm(b)


def test_reuse_from_an_exact_start_makes_no_solve():
    import scipy.sparse.linalg as spla
    from movingflow.solver import _solve_with_stale_factor
    M, lu, b = _drifted_pair()
    lu = _CountingLU(lu)
    exact = spla.spsolve(M, b)
    x, residuals = _solve_with_stale_factor(M, lu, b, 1e-10, 1e-12,
                                            x0=exact)
    assert lu.solves == 0 and x is exact
    assert len(residuals) == 1 and residuals[0] <= 1e-12


def _counted_steps(monkeypatch, cold, scheme="backward-euler", stale=False,
                   factors=None):
    """Four steps of manufactured_2d L1 from its exact initial state through
    one linear cache, with the solution history dropped before every step
    when ``cold``; the final state and each step's event and LU solves.
    With ``stale`` the cached factor is marked as made for the BDF2
    coefficient 1.5/dt, so that BDF2 steps reuse it.  ``factors`` collects
    the factors made."""
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
    cache, steps, prev = {}, [], None
    for _ in range(4):
        if cold:
            cache.pop("history", None)
        if stale and "lu" in cache:
            cache["coefficient"] = 1.5 / 0.01
        before = sum(f.solves for f in factors)
        new, info = advance(state, prob, cfg, 0.01, state_prev2=prev,
                            linear_cache=cache)
        state, prev = new, state
        steps.append((info["solver_event"],
                      sum(f.solves for f in factors) - before))
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


def test_solution_history_dropped_when_the_shape_changes():
    from dataclasses import replace
    from movingflow.solver import _solve_direct

    def system(divisions):
        prob = all_noslip_problem(generate_box(2, divisions))
        zero = DiscreteField(prob.space, "velocity")
        step = assembly.assemble_step(prob.space, prob.map, 0.1, 0.0, 0.1,
                                      zero, zero, 1.0, forcing=lambda X, t:
                                      np.stack([X[:, 1], -X[:, 0]], axis=1))
        return apply_boundary_conditions(step, prob.bcs, prob.space,
                                         prob.map, 0.1, 0.1)

    small, large = system((2, 2)), system((3, 3))
    cache = {}
    for _ in range(2):
        _solve_direct(small, 1e-10, cache)
    assert [len(x) for x in cache["history"]] == [small.matrix.shape[0]] * 2
    # another time coefficient makes a new factor and keeps the history
    _, info = _solve_direct(replace(small, time_coefficient=15.0), 1e-10,
                            cache)
    assert info["solver_event"] == "refactor"
    assert len(cache["history"]) == 2 and cache["coefficient"] == 15.0
    assert info["residual_history"][0] <= 1e-10
    x, info = _solve_direct(large, 1e-10, cache)
    assert info["solver_event"] == "fresh"
    assert len(cache["history"]) == 1 and cache["history"][0] is x
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


def _first_system(prob, stress="full-gradient", dt=0.02):
    """The first step's blocks and constrained system from rest."""
    zero = DiscreteField(prob.space, "velocity")
    step = assembly.assemble_step(
        prob.space, prob.map, dt, 0.0, dt, zero, zero, prob.nu,
        forcing=prob.forcing, neumann_data=prob.bcs.neumann_tractions(),
        stress=stress)
    return step, apply_boundary_conditions(step, prob.bcs, prob.space,
                                           prob.map, dt, dt)


@pytest.mark.parametrize("problem", [_manufactured_problem, _tube_problem])
def test_dissection_order_is_one_permutation_of_the_saddle_dofs(problem):
    from movingflow.solver import _SaddleLayout
    prob = problem()
    step, system = _first_system(prob)
    assert np.array_equal(np.sort(system.order),
                          np.arange(system.n_u + system.n_p))
    again = _SaddleLayout(prob.space, step.A, step.B)
    assert np.array_equal(again.order, system.order)
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
        assert _SinglePrecisionFactor(K, system.order).lu.nnz <= \
            0.75 * default_nnz
        sampling.release(prob.space)


def _lexsort_layout(space, A, B):
    """The saddle CSC arrays, pin and at_pin built by sorting every entry's
    (column, row): the oracle of the layout's counting pass."""
    n_p, n_u = B.shape
    mask, pin = space.constrained_dof_mask(), None
    if not space.mesh.has_neumann_boundary():
        cells = space.mesh.cells
        volume = np.repeat(sampling.geometry(space).det, cells.shape[1])
        pin = int(np.argmax(np.bincount(cells.ravel(), volume, n_p)))
    at_pin = np.arange(n_p) == pin
    free = ~mask
    a_row = np.repeat(np.arange(n_u), np.diff(A.indptr))
    a = np.flatnonzero(free[a_row] & free[A.indices])
    b_row = np.repeat(np.arange(n_p), np.diff(B.indptr))
    b = np.flatnonzero(free[B.indices] & ~at_pin[b_row])
    units = np.flatnonzero(np.concatenate([mask, at_pin]))
    rows = np.concatenate([a_row[a], n_u + b_row[b], B.indices[b], units])
    cols = np.concatenate([A.indices[a], B.indices[b], n_u + b_row[b],
                           units])
    source = np.concatenate([a, A.nnz + b, A.nnz + B.nnz + b,
                             np.full(len(units), A.nnz + 2 * B.nnz)])
    order = np.lexsort((rows, cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(
        cols, minlength=n_u + n_p))])
    return indptr, rows[order], source[order], pin, at_pin


@pytest.mark.parametrize("stress", ["symmetric", "full-gradient"])
@pytest.mark.parametrize("problem", [_manufactured_problem, _tube_problem])
def test_saddle_layout_counting_pass_equals_a_lexsort(problem, stress):
    from movingflow.solver import _SaddleLayout
    prob = problem()
    step, _ = _first_system(prob, stress=stress)
    layout = _SaddleLayout(prob.space, step.A, step.B)
    indptr, indices, gather, pin, at_pin = _lexsort_layout(
        prob.space, step.A, step.B)
    assert (layout.pin is None) == prob.space.mesh.has_neumann_boundary()
    assert layout.pin == pin and np.array_equal(layout.at_pin, at_pin)
    for got, want in ((layout.indptr, indptr), (layout.indices, indices),
                      (layout.gather, gather)):
        assert got.dtype == np.int32 and np.array_equal(got, want)
    sampling.release(prob.space)


@pytest.mark.parametrize("problem", [_manufactured_problem, _tube_problem])
def test_fresh_float32_factor_meets_the_tolerance_in_one_cycle(problem):
    prob = problem()
    cfg = SolverConfig(stress="full-gradient")
    state, info = advance(make_state(prob.space), prob, cfg, 0.02,
                          linear_cache={})
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
