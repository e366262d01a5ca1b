"""Acceptance suite: one test per criterion, each printing a PASS line.

The per-criterion lines print in every run; run as
pytest tests/test_acceptance.py -v -s  to see the convergence tables too.
The two convergence studies are computed once per session and shared by the
criteria that consume them.
"""

import numpy as np
import pytest

from movingflow import assembly
from movingflow.analysis import convergence_study, k_norm
from movingflow.benchmarks import (manufactured_2d, tube_benchmark,
                                   verify_benchmark_fields)
from movingflow.maps import (AxisScalingMap, IdentityMap, MeshSequenceMap,
                             TubeShrinkMap, parse_map_expressions,
                             piola_residual)
from movingflow.meshing import (NOSLIP, build_connectivity, dirichlet,
                                generate_box, neumann)
from movingflow.solver import (BoundaryConditionSet, DirichletBC, FlowProblem,
                               FlowState, NeumannBC, NoslipBC, SolverConfig,
                               advance, run)
from movingflow.spaces import DiscreteField, TaylorHoodSpace, interpolate

REFERENCE_ERROR = 0.2652      # coarsest combined error of the reference data
REFERENCE_DTS = (0.04, 0.02, 0.01)
REFERENCE_NS = (5, 10, 20)


@pytest.fixture
def ok(capsys):
    """``ok(criterion, text)`` prints a criterion's PASS line past pytest's
    output capture, so that every run's log shows the criterion values."""
    def report(criterion, text):
        with capsys.disabled():
            print(f"\nACCEPTANCE {criterion}: PASS ({text})")
    return report


@pytest.fixture(scope="session")
def manufactured_study():
    return convergence_study(manufactured_2d(), levels=3)


@pytest.fixture(scope="session")
def tube_study():
    return convergence_study(tube_benchmark(), levels=3)


def random_perturbed_box(rng, dim):
    """Random structured mesh with interior vertices jittered."""
    divisions = tuple(int(rng.integers(2, 5)) for _ in range(dim))
    mesh = generate_box(dim, divisions)
    h = 1.0 / max(divisions)
    verts = mesh.vertices.copy()
    interior = np.ones(len(verts), dtype=bool)
    for f in np.unique(mesh.boundary_facets):
        interior[f] = False
    verts[interior] += rng.uniform(-0.2 * h, 0.2 * h,
                                   (interior.sum(), dim))
    return build_connectivity(verts, mesh.cells, mesh.boundary_facets,
                              mesh.boundary_labels)


# --- criterion 1: manufactured convergence ------------------------------------


@pytest.mark.slow
def test_criterion_1_manufactured_convergence(manufactured_study, ok):
    table = manufactured_study
    print("\n" + str(table))
    assert table.rows[0]["element_count"] == 128          # 8x8 box, 2 per quad
    for order in table.orders():
        assert 1.8 <= order <= 2.5
    ok(1, f"observed orders {['%.2f' % o for o in table.orders()]} "
          f"within [1.8, 2.5]")


# --- criterion 2: tube benchmark rates -----------------------------------------


@pytest.mark.slow
def test_criterion_2_tube_rates(tube_study, ok):
    table = tube_study
    print("\n" + str(table))
    dts = [row["time_step"] for row in table.rows]
    Ns = [row["N"] for row in table.rows]
    assert np.allclose(dts, REFERENCE_DTS)
    assert Ns == list(REFERENCE_NS)
    for ratio in table.ratios():
        assert 1.4 <= ratio <= 2.7
    coarse = table.errors()[0]
    assert REFERENCE_ERROR / 3.0 <= coarse <= REFERENCE_ERROR * 3.0
    ok(2, f"ratios {['%.3f' % r for r in table.ratios()]} in [1.4, 2.7]; "
          f"coarsest error {coarse:.4f} within 3x of {REFERENCE_ERROR}")


# --- criterion 3: skew-symmetry cancellation -------------------------------------


def test_criterion_3_skew_symmetry(ok):
    rng = np.random.default_rng(2024)
    checked = 0
    for dim in (2, 3):
        for _ in range(5):
            mesh = random_perturbed_box(rng, dim)
            space = TaylorHoodSpace(mesh)
            map_ = TubeShrinkMap() if dim == 3 else AxisScalingMap(
                [lambda t: 1 + 0.2 * t, lambda t: 1 - 0.1 * t],
                [lambda t: 0.2, lambda t: -0.1])
            mask = space.constrained_dof_mask()
            fields = 2 if dim == 3 else 3
            for _ in range(fields):
                w = DiscreteField(space, "velocity",
                                  rng.standard_normal(space.n_velocity_dofs))
                C, T = assembly.convection_matrices(space, map_, 0.08, w)
                CT = C + T
                v = rng.standard_normal(space.n_velocity_dofs)
                v[mask] = 0.0
                scale = np.abs(v) @ (abs(CT) @ np.abs(v)) + 1e-300
                assert abs(v @ (CT @ v)) <= 1e-10 * scale
                checked += 1
    assert checked >= 20
    ok(3, f"v^T (C+T) v = 0 within 1e-10 relative on {checked} "
          f"random advection fields (2D and 3D)")


# --- criterion 4: discrete time-derivative identity -------------------------------


def test_criterion_4_mass_term_identity(ok):
    rng = np.random.default_rng(7)
    mesh = generate_box(3, (2, 2, 2))
    space = TaylorHoodSpace(mesh)
    tube = TubeShrinkMap()
    t_k, dt = 0.16, 0.04
    Mk = assembly.mass_matrix(space, tube, t_k)
    Mp = assembly.mass_matrix(space, tube, t_k - dt)
    Md = assembly.rate_mass_matrix(space, tube, t_k, t_k - dt, dt)
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(space.n_velocity_dofs)
        vp = rng.standard_normal(space.n_velocity_dofs)
        lhs = v @ (Mp @ (v - vp)) / dt
        dv = (v - vp) / dt
        rhs = ((v @ (Mk @ v) - vp @ (Mp @ vp)) / (2 * dt)
               - 0.5 * (v @ (Md @ v)) + 0.5 * dt * (dv @ (Mp @ dv)))
        rel = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-10
    ok(4, f"time-derivative identity holds to {worst:.2e} relative "
          f"(20 random state pairs, shrinking-tube map)")


# --- criterion 5: energy monotonicity ---------------------------------------------


def test_criterion_5_energy_monotonic(ok):
    mesh = generate_box(2, (4, 4))
    space = TaylorHoodSpace(mesh)
    prob = FlowProblem(space=space, map=IdentityMap(2), nu=0.02,
                       bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))
    rng = np.random.default_rng(99)
    coeffs = rng.standard_normal(space.n_velocity_dofs)
    coeffs[space.constrained_dof_mask()] = 0.0
    u0 = DiscreteField(space, "velocity", coeffs)
    state = FlowState(0, 0.0, u0, DiscreteField(space, "pressure"))
    result = run(state, prob, SolverConfig(), T=1.0, dt=0.02,
                 record_energy=False)
    norms = [k_norm(u0, prob.map, 0.0)]
    norms += [r["velocity_norm_k"] for r in result.diagnostics]
    assert len(norms) == 51
    diffs = np.diff(norms)
    assert np.all(diffs <= 0.0)
    ok(5, f"kinetic norm non-increasing over 50 steps "
          f"({norms[0]:.3f} -> {norms[-1]:.3e})")


# --- criterion 6: transformed-volume divergence identity ----------------------------


def test_criterion_6_piola_identity(ok):
    rng = np.random.default_rng(31)
    catalog = {
        "identity-2d": (IdentityMap(2), lambda: rng.uniform(0.1, 0.9, 2)),
        "axis-scaling": (AxisScalingMap([lambda t: 1 + t,
                                         lambda t: 1 / (1 + t)],
                                        [lambda t: 1.0,
                                         lambda t: -1 / (1 + t) ** 2]),
                         lambda: rng.uniform(0.1, 0.9, 2)),
        "tube-shrink": (TubeShrinkMap(), lambda: rng.uniform(-0.5, 0.5, 3)),
        "expression-2d": (parse_map_expressions(
            "x1 + 0.1*sin(x1*x2); x2 + 0.1*exp(x1*x2/4)", 2),
            lambda: rng.uniform(0.1, 0.9, 2)),
        "expression-3d": (parse_map_expressions(
            "x1 + 0.05*sin(x1*x2); x2 + 0.05*exp(x1*x3/4); "
            "x3 + 0.05*cos(x2*x3)", 3),
            lambda: rng.uniform(0.1, 0.9, 3)),
    }
    orders_checked = 0
    for name, (map_, sample) in catalog.items():
        residuals = np.array([piola_residual(map_, sample(), 0.15, 1e-3)
                              for _ in range(100)])
        assert residuals.max() <= 1e-6, name
        # decay order on the points where the residual is genuinely nonzero
        x = sample()
        seq = [piola_residual(map_, x, 0.15, d) for d in (1e-2, 5e-3, 2.5e-3)]
        if seq[0] > 1e-10:
            for r0, r1 in zip(seq, seq[1:]):
                assert np.log2(r0 / r1) >= 1.9, name
            orders_checked += 1
    assert orders_checked >= 2
    ok(6, f"divergence of the transformed volume field <= 1e-6 at 100 points "
          f"per catalog map; decay order >= 1.9 on {orders_checked} "
          f"curved maps")


# --- criterion 7: fixed points -------------------------------------------------------


def test_criterion_7_fixed_points(ok):
    # rest state
    mesh = generate_box(2, (4, 4))
    space = TaylorHoodSpace(mesh)
    prob = FlowProblem(space=space, map=IdentityMap(2), nu=1.0,
                       bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))
    cfg = SolverConfig()
    state = FlowState(0, 0.0, DiscreteField(space, "velocity"),
                      DiscreteField(space, "pressure"))
    new, _ = advance(state, prob, cfg, 0.1)
    assert np.abs(new.u.coefficients).max() <= 10 * cfg.tolerance
    assert np.abs(new.p.coefficients).max() <= 10 * cfg.tolerance

    # steady channel flow with matching inflow and natural outflow
    L, U, nu = 2.0, 1.0, 0.1
    mesh = generate_box(2, (8, 4), extents=[(0, L), (0, 1)],
                        labels={"xmin": dirichlet(0), "xmax": neumann(0)})
    space = TaylorHoodSpace(mesh)

    def exact_u(X, t=None):
        return np.stack([4 * U * X[:, 1] * (1 - X[:, 1]),
                         np.zeros(len(X))], axis=1)

    bcs = BoundaryConditionSet({
        NOSLIP: NoslipBC(),
        dirichlet(0): DirichletBC(lambda X, t: exact_u(X)),
        neumann(0): NeumannBC(None)})
    prob = FlowProblem(space=space, map=IdentityMap(2), nu=nu, bcs=bcs)
    cfg = SolverConfig(stress="full-gradient")
    u0 = interpolate(space, "velocity", exact_u)
    p0 = interpolate(space, "pressure", lambda X: 8 * nu * U * (L - X[:, 0]))
    new, _ = advance(FlowState(0, 0.0, u0, p0), prob, cfg, 0.1)
    drift = np.abs(new.u.coefficients - u0.coefficients).max()
    assert drift <= 10 * cfg.tolerance * np.abs(u0.coefficients).max()
    ok(7, f"rest state exact; steady channel profile drift "
          f"{drift:.2e} <= 10x solver tolerance")


# --- criterion 8: exact-solution transcription ----------------------------------------


def test_criterion_8_tube_transcription(ok):
    out = verify_benchmark_fields(tube_benchmark(), n_samples=100, seed=512)
    assert out["max_momentum_residual"] <= 1e-8
    assert out["max_divergence"] <= 1e-10
    ok(8, f"tube fields: momentum residual {out['max_momentum_residual']:.2e}"
          f" <= 1e-8 at 100 random samples")


# --- criterion 9: divergence residuals during the benchmark runs -----------------------


@pytest.mark.slow
def test_criterion_9_divergence_residuals(manufactured_study, tube_study,
                                          ok):
    tol = SolverConfig().tolerance
    worst = 0.0
    for table in (manufactured_study, tube_study):
        for diags in table.level_diagnostics:
            for rec in diags:
                bound = 10 * tol * max(rec["velocity_norm_k"], 1e-300)
                assert rec["divergence_residual"] <= bound
                worst = max(worst, rec["divergence_residual"] /
                            max(rec["velocity_norm_k"], 1e-300))
    ok(9, f"divergence residual <= 10*tol*|u| at every accepted step of "
          f"both studies (worst {worst:.2e} relative)")


# --- stored-frame pathway ----------------------------------------------------------------


def test_mesh_sequence_pathway_matches_analytic(ok):
    mesh = generate_box(2, (4, 4))
    space = TaylorHoodSpace(mesh)
    scales = [lambda t: 1.0 + 0.5 * t, lambda t: 1.0 - 0.25 * t]
    rates = [lambda t: 0.5, lambda t: -0.25]
    analytic = AxisScalingMap(scales, rates)
    frame_times = np.array([0.0, 0.05, 0.1])
    frames = np.array([mesh.vertices * [s(t) for s in scales]
                       for t in frame_times])
    sequence = MeshSequenceMap(mesh, frame_times, frames)

    rng = np.random.default_rng(77)
    coeffs = rng.standard_normal(space.n_velocity_dofs)
    coeffs[space.constrained_dof_mask()] = 0.0

    runs = []
    for map_ in (analytic, sequence):
        prob = FlowProblem(space=space, map=map_, nu=0.5,
                           bcs=BoundaryConditionSet({NOSLIP: NoslipBC()}))
        u0 = DiscreteField(space, "velocity", coeffs.copy())
        state = FlowState(0, 0.0, u0, DiscreteField(space, "pressure"))
        runs.append(run(state, prob, SolverConfig(), T=0.1, dt=0.025,
                        store_states=True, record_energy=False))
    worst = 0.0
    for s_a, s_m in zip(runs[0].states, runs[1].states):
        worst = max(worst,
                    np.abs(s_a.u.coefficients - s_m.u.coefficients).max(),
                    np.abs(s_a.p.coefficients - s_m.p.coefficients).max())
    assert worst <= 1e-8
    ok("mesh-sequence", f"stored-frame run matches the analytic-map run "
                        f"to {worst:.2e} in all dofs at matching steps")
