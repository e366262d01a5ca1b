import dataclasses

import numpy as np
import pytest

from movingflow.benchmarks import (benchmark_case, manufactured_2d,
                                   tube_benchmark, verify_benchmark_fields)


@pytest.fixture(scope="module")
def tube():
    return tube_benchmark()


@pytest.fixture(scope="module")
def manufactured():
    return manufactured_2d()


def test_tube_axis_velocity_value(tube):
    X = np.array([[0.0, -1.3, 0.0], [0.0, 3.7, 0.0]])
    u = tube.velocity(X, 0.0)
    assert np.allclose(u[:, 1], 2.0)           # 8 / (4 - 0)
    assert np.allclose(u[:, 0], 0.0)
    assert np.allclose(u[:, 2], 0.0)


def test_tube_velocity_is_axisymmetric_no_swirl(tube):
    rng = np.random.default_rng(2)
    y = rng.uniform(-4, 4, 50)
    r = rng.uniform(0, 1.5, 50)
    theta = rng.uniform(0, 2 * np.pi, 50)
    X = np.stack([r * np.cos(theta), y, r * np.sin(theta)], axis=1)
    u = tube.velocity(X, 0.1)
    # azimuthal component vanishes: u is radial in the (x1, x3) plane
    swirl = u[:, 0] * X[:, 2] - u[:, 2] * X[:, 0]
    assert np.abs(swirl).max() < 1e-13


def test_tube_divergence_free_sampled(tube):
    out = verify_benchmark_fields(tube, n_samples=100, seed=7)
    assert out["max_divergence"] <= 1e-10


def test_tube_momentum_residual(tube):
    out = verify_benchmark_fields(tube, n_samples=100, seed=11)
    assert out["max_momentum_residual"] <= 1e-8
    assert out["max_field_mismatch"] <= 1e-10


def test_oracle_catches_perturbed_fields(tube):
    # a transcription error of relative size 1e-6 to 1e-4 in one closure
    # reads at least ten times the bounds of test_tube_momentum_residual
    def gradient(X, t):
        G = tube.velocity_gradient(X, t)
        G[:, 0, 1] *= 1.0 + 1e-4
        return G

    for fields, key, bound in (
            ({"forcing": lambda X, t: tube.forcing(X, t) + 1e-6},
             "max_momentum_residual", 1e-8),
            ({"velocity_gradient": gradient}, "max_momentum_residual", 1e-8),
            ({"velocity_gradient": gradient}, "max_field_mismatch", 1e-10),
            ({"pressure": lambda X, t: tube.pressure(X, t) + 1e-6 * X[:, 1]},
             "max_momentum_residual", 1e-8)):
        out = verify_benchmark_fields(dataclasses.replace(tube, **fields),
                                      n_samples=100, seed=11)
        assert out[key] > 10.0 * bound, (sorted(fields), key, out[key])


def test_tube_pressure_vanishes_at_outlet(tube):
    X = np.array([[0.3, 4.0, -0.2], [0.0, 4.0, 0.0]])
    for t in (0.0, 0.1, 0.2):
        assert np.abs(tube.pressure(X, t)).max() < 1e-12


def test_tube_wall_trace_matches_domain_velocity(tube):
    # on the lateral wall the exact velocity is the material wall velocity
    rng = np.random.default_rng(5)
    y = rng.uniform(-4, 4, 40)
    theta = rng.uniform(0, 2 * np.pi, 40)
    t = 0.12
    s = np.sqrt(1 - t / 4)
    r_ref = np.exp((y + 4) / 8)
    X_ref = np.stack([r_ref * np.cos(theta), y, r_ref * np.sin(theta)], axis=1)
    X_phys = tube.map.position(X_ref, t)
    u = tube.velocity(X_phys, t)
    wall = tube.map.velocity(X_ref, t)
    assert np.abs(u - wall).max() < 1e-12


def test_manufactured_divergence_and_momentum(manufactured):
    out = verify_benchmark_fields(manufactured, n_samples=100, seed=3)
    assert out["max_divergence"] <= 1e-12
    assert out["max_momentum_residual"] <= 1e-10
    assert out["max_field_mismatch"] <= 1e-10


def test_manufactured_velocity_vanishes_at_half_pi(manufactured):
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, (30, 2))
    u = manufactured.velocity(X, np.pi / 2)
    assert np.abs(u).max() < 1e-13


def test_manufactured_map_volume_preserving(manufactured):
    rng = np.random.default_rng(6)
    X = rng.uniform(0, 1, (40, 2))
    for t in (0.0, 0.25, 0.5):
        assert np.allclose(manufactured.map.jacobian(X, t), 1.0, atol=1e-14)


def test_mesh_levels(manufactured, tube):
    m1 = manufactured.mesh_for_level(1)
    m2 = manufactured.mesh_for_level(2)
    assert m1.n_cells == 2 * 8 * 8
    assert m2.n_cells == 4 * m1.n_cells      # uniform refinement
    assert manufactured.nominal_h(2) == 0.5 * manufactured.nominal_h(1)
    t1 = tube.mesh_for_level(1)
    assert t1.dimension == 3
    labels = {str(l) for l in t1.boundary_labels}
    assert labels == {"noslip", "dirichlet:1", "neumann:0"}
    assert abs(tube.nominal_h(3) / tube.nominal_h(1) - 0.5) < 1e-14


def test_benchmark_case_lookup():
    assert benchmark_case("tube").name == "tube"
    assert benchmark_case("manufactured-2d").name == "manufactured-2d"
    with pytest.raises(ValueError, match="unknown benchmark"):
        benchmark_case("cavity")


def test_boundary_conditions_cover_mesh(tube, manufactured):
    for case in (tube, manufactured):
        bcs = case.boundary_conditions()
        bcs.validate(case.mesh_for_level(1))
