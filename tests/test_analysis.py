import numpy as np
import pytest

from movingflow import sampling
from movingflow.analysis import (ConvergenceTable, ErrorAccumulator,
                                 energy_balance_terms, k_norm)
from movingflow.maps import IdentityMap, TubeShrinkMap
from movingflow.meshing import dirichlet, generate_box, neumann
from movingflow.solver import FlowProblem, FlowState, SolverConfig, run
from movingflow.spaces import DiscreteField, TaylorHoodSpace, interpolate


def test_k_norm_identity_equals_l2():
    mesh = generate_box(2, (3, 3))
    space = TaylorHoodSpace(mesh)
    rng = np.random.default_rng(0)
    u = DiscreteField(space, "velocity",
                      rng.standard_normal(space.n_velocity_dofs))
    from movingflow import assembly
    M = assembly.mass_matrix(space, IdentityMap(2), 0.0)
    l2 = np.sqrt(u.coefficients @ (M @ u.coefficients))
    assert abs(k_norm(u, IdentityMap(2), 0.0) - l2) < 1e-12 * max(l2, 1)


def test_k_norm_constant_field_tube_map():
    # unit-volume reference domain, constant field, J = 0.95 at t = 0.2
    mesh = generate_box(3, (2, 2, 2))
    space = TaylorHoodSpace(mesh)
    c = np.array([0.3, -1.2, 0.4])
    u = interpolate(space, "velocity", lambda X: np.tile(c, (len(X), 1)))
    expected = np.linalg.norm(c) * np.sqrt(0.95)
    assert abs(k_norm(u, TubeShrinkMap(), 0.2) - expected) < 1e-12


def test_k_norm_zero_field():
    mesh = generate_box(2, (2, 2))
    space = TaylorHoodSpace(mesh)
    assert k_norm(DiscreteField(space, "velocity"), IdentityMap(2), 0.0) == 0.0


# --- energy error report -------------------------------------------------------


def quadratic_case_fields():
    def velocity(X, t):
        # divergence-free quadratic field (stream function x^2 y - ... )
        return np.stack([X[:, 0] ** 2, -2 * X[:, 0] * X[:, 1]], axis=1)

    def gradient(X, t):
        G = np.zeros((len(X), 2, 2))
        G[:, 0, 0] = 2 * X[:, 0]
        G[:, 1, 0] = -2 * X[:, 1]
        G[:, 1, 1] = -2 * X[:, 0]
        return G

    return velocity, gradient


def test_energy_error_zero_for_reproduced_quadratic():
    mesh = generate_box(2, (3, 3))
    space = TaylorHoodSpace(mesh)
    velocity, gradient = quadratic_case_fields()
    ident = IdentityMap(2)
    states = []
    for k, t in enumerate([0.1, 0.2], start=1):
        u = interpolate(space, "velocity", lambda X: velocity(X, t))
        states.append(FlowState(k, t, u, DiscreteField(space, "pressure")))
    acc = ErrorAccumulator(space, ident, velocity, gradient, dt=0.1, nu=1.0)
    for s in states:
        acc.update(s)
    report = acc.report()
    assert report.max_l2 < 1e-12
    assert report.dissipation_sum < 1e-11
    assert report.combined < 1e-11


def test_energy_error_homogeneous_degree_one():
    mesh = generate_box(2, (3, 3))
    space = TaylorHoodSpace(mesh)
    rng = np.random.default_rng(4)
    ident = IdentityMap(2)
    zero_vel = lambda X, t: np.zeros((len(X), 2))
    zero_grad = lambda X, t: np.zeros((len(X), 2, 2))
    coeffs = rng.standard_normal(space.n_velocity_dofs)
    reports = []
    for factor in (1.0, 2.0):
        u = DiscreteField(space, "velocity", factor * coeffs)
        state = FlowState(1, 0.1, u, DiscreteField(space, "pressure"))
        acc = ErrorAccumulator(space, ident, zero_vel, zero_grad, dt=0.1,
                               nu=1.0)
        acc.update(state)
        reports.append(acc.report())
    assert abs(reports[1].max_l2 - 2 * reports[0].max_l2) < 1e-12
    assert abs(reports[1].dissipation_sum -
               2 * reports[0].dissipation_sum) < 1e-12
    assert abs(reports[1].combined - 2 * reports[0].combined) < 1e-12
    assert reports[0].combined >= reports[0].max_l2


def test_combined_norm_definition():
    report_times = np.array([0.1, 0.2])
    from movingflow.analysis import EnergyErrorReport
    rep = EnergyErrorReport(times=report_times,
                            l2_errors=np.array([0.5, 0.2]),
                            rate_errors=np.array([3.0, 4.0]),
                            dt=0.1, nu=0.25)
    assert abs(rep.combined - (0.5 + np.sqrt(0.1 * 25.0))) < 1e-15


# --- energy balance diagnostics --------------------------------------------------


def test_energy_balance_rest_state():
    mesh = generate_box(2, (2, 2))
    space = TaylorHoodSpace(mesh)
    zero = DiscreteField(space, "velocity")
    s0 = FlowState(0, 0.0, zero, DiscreteField(space, "pressure"))
    s1 = FlowState(1, 0.1, zero.copy(), DiscreteField(space, "pressure"))
    bal = energy_balance_terms(s0, s1, IdentityMap(2), nu=1.0)
    assert bal.kinetic_rate == 0.0
    assert bal.dissipation == 0.0
    assert bal.forcing_power == 0.0


def test_energy_balance_static_domain_dissipates():
    mesh = generate_box(2, (3, 3))
    space = TaylorHoodSpace(mesh)
    rng = np.random.default_rng(8)
    u = DiscreteField(space, "velocity",
                      rng.standard_normal(space.n_velocity_dofs))
    p = DiscreteField(space, "pressure",
                      rng.standard_normal(space.n_pressure_dofs))
    s0 = FlowState(0, 0.0, u, p)
    s1 = FlowState(1, 0.1, u.copy(), p)
    bal = energy_balance_terms(s0, s1, IdentityMap(2), nu=0.7)
    assert bal.dissipation > 0.0


def test_poiseuille_dissipation_balances_power():
    # steady channel flow: dissipation equals forcing-plus-boundary power
    L, U, nu = 2.0, 1.0, 0.1
    mesh = generate_box(2, (16, 8), extents=[(0, L), (0, 1)],
                        labels={"xmin": dirichlet(0), "xmax": neumann(0)})
    space = TaylorHoodSpace(mesh)
    u = interpolate(space, "velocity",
                    lambda X: np.stack([4 * U * X[:, 1] * (1 - X[:, 1]),
                                        np.zeros(len(X))], axis=1))
    p = interpolate(space, "pressure", lambda X: 8 * nu * U * (L - X[:, 0]))
    s0 = FlowState(0, 0.0, u, p)
    s1 = FlowState(1, 0.1, u.copy(), p)
    bal = energy_balance_terms(s0, s1, IdentityMap(2), nu=nu,
                               stress="full-gradient")
    # exact dissipation of the parabolic profile: nu * L * int (du/dy)^2
    exact = nu * L * (16.0 / 3.0) * U ** 2
    assert abs(bal.kinetic_rate) < 1e-12
    assert abs(bal.dissipation - exact) / exact < 0.05
    assert bal.forcing_power == 0.0


# --- the backward-Euler energy identity ----------------------------------------

BALANCE_TERMS = ("kinetic_rate", "dissipation", "numerical_dissipation",
                 "forcing_power", "reaction_power", "outflow_power")


def _moving_box_run(dt, T, smagorinsky=None):
    """The 16 x 16 all-no-slip box under a non-affine moving map, driven
    from rest by a body force of amplitude 20, nu = 1e-3, backward Euler;
    returns the run and its largest CFL number max |u| dt / h."""
    from movingflow.maps import parse_map_expressions
    from movingflow.meshing import NOSLIP
    from movingflow.solver import BoundaryConditionSet, NoslipBC
    map_ = parse_map_expressions(
        "x1 + 0.2*t*sin(x1*x2); x2 + 0.2*t*exp(x1*x2/4)", 2)
    space = TaylorHoodSpace(generate_box(2, (16, 16)))
    prob = FlowProblem(space=space, map=map_, nu=1e-3,
                       bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}),
                       forcing=lambda X, t: 20.0 * np.stack(
                           [np.sin(np.pi * X[:, 1]), np.cos(np.pi * X[:, 0])],
                           axis=1))
    initial = FlowState(0, 0.0, DiscreteField(space, "velocity"),
                        DiscreteField(space, "pressure"))
    states = [initial]
    result = run(initial, prob, SolverConfig(smagorinsky=smagorinsky), T, dt,
                 callbacks=[lambda state, _: states.append(state)])
    cfl = max(np.abs(s.u.nodal()).max() * dt * 16 for s in states)
    return prob, result, states, cfl


def _relative_defects(result):
    return [r["energy_defect"] / max(abs(r[key]) for key in BALANCE_TERMS)
            for r in result.diagnostics]


@pytest.mark.parametrize("dt, steps", [(0.005, 6), (0.1, 8)])
def test_energy_identity_closes_on_the_moving_box_at_any_cfl(dt, steps):
    _, result, _, cfl = _moving_box_run(dt, dt * steps)
    assert cfl > 10 if dt == 0.1 else cfl < 1
    assert max(abs(d) for d in _relative_defects(result)) <= 1e-10
    assert all(r["outflow_power"] == 0.0 for r in result.diagnostics)
    # the walls move: their reactions work on the fluid
    assert all(abs(r["reaction_power"]) > 0 for r in result.diagnostics)


def test_energy_identity_closes_on_the_tube_with_its_outflow():
    from movingflow.benchmarks import tube_benchmark
    case = tube_benchmark()
    space = TaylorHoodSpace(case.mesh_for_level(1))
    prob = FlowProblem(space=space, map=case.map, nu=case.nu,
                       bcs=case.boundary_conditions(), forcing=case.forcing)
    u0 = interpolate(space, "velocity",
                     lambda X: case.velocity(case.map.position(X, 0.0), 0.0))
    p0 = interpolate(space, "pressure",
                     lambda X: case.pressure(case.map.position(X, 0.0), 0.0))
    result = run(FlowState(0, 0.0, u0, p0), prob,
                 SolverConfig(stress=case.stress), 0.08, 0.02)
    assert max(abs(d) for d in _relative_defects(result)) <= 1e-10
    # the outlet's traction and Temam term carry a share of the balance
    for r in result.diagnostics:
        assert abs(r["outflow_power"]) > 0.1 * max(
            abs(r[key]) for key in BALANCE_TERMS)


def test_energy_defect_with_eddy_viscosity_is_the_eddy_dissipation():
    from movingflow import assembly
    cs = 0.2
    prob, result, states, _ = _moving_box_run(0.1, 0.4, smagorinsky=cs)
    space, map_ = prob.space, prob.map
    defects = _relative_defects(result)
    assert max(defects) <= 1e-10
    for prev, state, record in zip(states, states[1:], result.diagnostics):
        # the step's molecular minus its eddy dissipation
        w = prev.u.nodal() - sampling.map_samples(space, map_).wall(state.t)
        u = state.u.coefficients
        extra = u @ ((assembly.viscous_matrix(space, map_, state.t, prob.nu) -
                      assembly.viscous_matrix(space, map_, state.t, prob.nu,
                                              smagorinsky=cs, w=w)) @ u)
        scale = max(abs(record[key]) for key in BALANCE_TERMS)
        assert abs(record["energy_defect"] - extra) <= 1e-10 * scale
        assert extra < 0.0


# --- convergence table ------------------------------------------------------------


def test_convergence_table_ratios_and_orders():
    table = ConvergenceTable()
    table.add_row(h=1.0, cells=10, dt=0.1, steps=10, error=0.8)
    table.add_row(h=0.5, cells=40, dt=0.025, steps=40, error=0.2)
    assert table.ratios() == [4.0]
    assert abs(table.orders()[0] - 2.0) < 1e-14


def test_convergence_table_rejects_invalid_rows():
    table = ConvergenceTable()
    with pytest.raises(ValueError):
        table.add_row(h=1.0, cells=10, dt=0.1, steps=10, error=float("nan"))
    with pytest.raises(ValueError):
        table.add_row(h=1.0, cells=10, dt=0.1, steps=10, error=0.0)


def test_convergence_table_scale_invariant_orders():
    rows = [(1.0, 0.8), (0.5, 0.21), (0.25, 0.052)]
    orders = []
    for scale in (1.0, 17.0):
        table = ConvergenceTable()
        for h, err in rows:
            table.add_row(h=h, cells=1, dt=h, steps=1, error=scale * err)
        orders.append(table.orders())
    assert np.allclose(orders[0], orders[1])


def test_convergence_table_csv(tmp_path):
    table = ConvergenceTable()
    table.add_row(h=1.0, cells=10, dt=0.1, steps=10, error=0.8)
    table.add_row(h=0.5, cells=40, dt=0.025, steps=40, error=0.2)
    path = tmp_path / "table.csv"
    table.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("mesh_step_size,element_count,time_step,N,"
                        "error,ratio,observed_order")
    assert len(lines) == 3
    assert lines[1].split(",")[5] == ""      # first row has no ratio
    assert float(lines[2].split(",")[5]) == 4.0


# --- one evaluation of each solved state for every diagnostic -------------------


def _shared_evaluation_run(monkeypatch):
    """Three steps of manufactured_2d L1 with the error accumulator and the
    energy terms, counting gradient evaluations per step and forcing calls
    per level."""
    from movingflow.benchmarks import manufactured_2d
    case = manufactured_2d()
    space = TaylorHoodSpace(case.mesh_for_level(1))
    forcing_points = []

    def forcing(X, t):
        forcing_points.append((t, len(X)))
        return case.forcing(X, t)

    problem = FlowProblem(space=space, map=case.map, nu=case.nu,
                          bcs=case.boundary_conditions(), forcing=forcing)
    dt = 0.01
    acc = ErrorAccumulator(space, case.map, case.velocity,
                           case.velocity_gradient, dt, case.nu)
    gradients = []
    original = sampling.FieldSample.gradients.fget

    def counted_gradients(sample):
        if sample._gradients is None:      # this read evaluates them
            gradients.append(1)
        return original(sample)

    monkeypatch.setattr(sampling.FieldSample, "gradients",
                        property(counted_gradients))
    per_step = []
    u0 = interpolate(space, "velocity",
                     lambda X: case.velocity(case.map.position(X, 0.0), 0.0))
    states = [FlowState(0, 0.0, u0, DiscreteField(space, "pressure"))]
    result = run(states[0], problem, SolverConfig(stress=case.stress), 3 * dt,
                 dt, callbacks=[lambda s, r: states.append(s), acc.update,
                                lambda s, r: per_step.append(len(gradients))])
    return (case, space, result, states, acc, np.diff([0] + per_step),
            forcing_points)


def test_each_solved_state_is_evaluated_once_per_step(monkeypatch):
    case, space, _, states, _, gradients, forcing = _shared_evaluation_run(
        monkeypatch)
    assert list(gradients) == [1, 1, 1]
    n_points = sampling.cell_data(space).points[..., 0].size
    assert forcing == [(dt, n_points) for dt in (0.01, 0.02, 0.03)]
    for state in states[1:]:
        for field_ in (state.u, state.p):
            assert not field_.coefficients.flags.writeable


def test_shared_evaluations_match_each_reader_evaluating_itself(monkeypatch):
    case, space, result, states, acc, _, _ = _shared_evaluation_run(
        monkeypatch)
    # writeable copies are never kept: each reader evaluates them afresh
    states = [FlowState(s.k, s.t, s.u.copy(), s.p.copy()) for s in states]
    fresh = ErrorAccumulator(space, case.map, case.velocity,
                             case.velocity_gradient, 0.01, case.nu)
    for prev, state, record in zip(states, states[1:], result.diagnostics):
        assert record["velocity_norm_k"] == k_norm(state.u, case.map,
                                                   state.t)
        terms = energy_balance_terms(prev, state, case.map, case.nu,
                                     case.forcing, stress=case.stress)
        assert terms.as_dict() == {key: record[key]
                                   for key in terms.as_dict()}
        fresh.update(state)
    assert (fresh.l2, fresh.rate) == (acc.l2, acc.rate)


def test_state_evaluation_is_dropped_with_its_level():
    import weakref
    from movingflow.benchmarks import manufactured_2d
    case = manufactured_2d()
    space = TaylorHoodSpace(case.mesh_for_level(1))
    samples = sampling.map_samples(space, case.map)
    u = interpolate(space, "velocity", lambda X: np.sin(X))
    u.coefficients.flags.writeable = False
    samples.cells(0.1)
    kept = samples.field(0.1, u)
    assert samples.field(0.1, u) is kept
    refs = [weakref.ref(kept.values), weakref.ref(kept.gradients)]
    del kept
    samples.cells(0.2)                     # the next level is sampled
    assert all(ref() is None for ref in refs)
    # a writeable field, or an older level, is evaluated afresh every time
    assert samples.field(0.1, u) is not samples.field(0.1, u)
    v = u.copy()
    assert samples.field(0.2, v) is not samples.field(0.2, v)
    assert samples.field(0.2, u) is samples.field(0.2, u)
