import numpy as np
import pytest

from movingflow import assembly, sampling
from movingflow.analysis import k_norm
from movingflow.maps import AxisScalingMap, IdentityMap, MeshSequenceMap, TubeShrinkMap
from movingflow.meshing import NOSLIP, dirichlet, generate_box, generate_tube, neumann
from movingflow.solver import (BoundaryConditionSet, DirichletBC, FlowProblem,
                               FlowState, NeumannBC, NoslipBC, SolverConfig,
                               advance, apply_boundary_conditions,
                               map_velocity_at_nodes, run,
                               smagorinsky_viscosity)
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


def test_poiseuille_iterative_solver():
    prob, u0, p0 = poiseuille_setup()
    cfg = SolverConfig(stress="full-gradient", linear_solver="iterative")
    state = FlowState(0, 0.0, u0, p0)
    new, info = advance(state, prob, cfg, 0.1)
    assert np.abs(new.u.coefficients - u0.coefficients).max() <= \
        10 * cfg.tolerance * np.abs(u0.coefficients).max()
    assert info["iterations"] >= 1


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
                                  1.0, stress="symmetric", temam=False)
    bcs = BoundaryConditionSet({NOSLIP: NoslipBC()})
    system = apply_boundary_conditions(step, bcs, space, tube, 0.1, 0.05)
    A = system.A
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


# --- temam consistency ----------------------------------------------------------


@pytest.mark.parametrize("advection", ["constant", "rotation", "quadratic"])
def test_temam_on_off_agree_for_solenoidal_advection(advection):
    mesh = generate_box(2, (3, 3))
    space = TaylorHoodSpace(mesh)
    prob = all_noslip_problem(mesh, nu=0.3)
    if advection == "constant":
        fn = lambda X: np.tile([0.7, -0.4], (len(X), 1))
    elif advection == "rotation":
        fn = lambda X: np.stack([-(X[:, 1] - 0.5), X[:, 0] - 0.5], axis=1)
    else:   # quadratic stream function -> pointwise divergence free
        fn = lambda X: np.stack([X[:, 0] ** 2 - 2 * X[:, 0] * X[:, 1],
                                 X[:, 1] ** 2 - 2 * X[:, 0] * X[:, 1]], axis=1)
    w = interpolate(space, "velocity", fn)
    state = make_state(space, u=w)
    outs = []
    for temam in (True, False):
        cfg = SolverConfig(temam=temam)
        new, _ = advance(state, prob, cfg, 0.05)
        outs.append(new.u.coefficients)
    # a constant advection projects to zero velocity, so scale by the data
    scale = max(np.abs(outs[0]).max(), np.abs(w.coefficients).max())
    assert np.abs(outs[0] - outs[1]).max() <= 10 * SolverConfig().tolerance * scale


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
        SolverConfig(linear_solver="magic")
    with pytest.raises(ValueError):
        SolverConfig(scheme="leapfrog")
    assert SolverConfig().tolerance == 1e-10
    assert SolverConfig(linear_solver="iterative").tolerance == 1e-8


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
    for array in (cells.J, cells.Finv, cells.position, facets.J,
                  facets.Finv, facets.conormal, facets.xi_t,
                  samples.wall(0.1), samples.jacobian(0.0)):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
    run(make_state(prob.space), prob, SolverConfig(), 0.2, 0.1)
    assert "_cache" not in vars(prob.space)
