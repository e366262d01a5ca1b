"""Built-in verification cases with closed-form exact solutions.

Each case carries the exact velocity, velocity gradient, pressure and
forcing in physical coordinates once, as vectorized numpy closures.  The
runs, error norms and boundary data call them, and the strong-form residual
check :func:`verify_benchmark_fields` differentiates the same closures by
complex step, so it checks the code the runs execute.  The closures accept
complex points and per-point time arrays for that purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .maps import AxisScalingMap, TubeShrinkMap
from .meshing import dirichlet, generate_box, generate_tube, refine_uniform
from .solver import BoundaryConditionSet, DirichletBC, NeumannBC, NoslipBC

__all__ = ["BenchmarkCase", "tube_benchmark", "manufactured_2d",
           "verify_benchmark_fields", "benchmark_case"]


@dataclass
class BenchmarkCase:
    name: str
    dimension: int
    T: float
    nu: float
    stress: str
    base_dt: float
    map: object
    velocity: object              # (X_phys, t) -> (n, d)
    velocity_gradient: object     # (X_phys, t) -> (n, d, d), du_a/dx_b
    pressure: object              # (X_phys, t) -> (n,)
    forcing: object               # (X_phys, t) -> (n, d)
    nominal_h: object             # level -> nominal mesh width
    boundary_conditions: object   # () -> BoundaryConditionSet
    sample_reference_points: object   # (rng, n) -> (n, d) reference points
    _mesh_factory: object
    _mesh_cache: dict = field(default_factory=dict)

    def mesh_for_level(self, level):
        if level not in self._mesh_cache:
            self._mesh_cache[level] = self._mesh_factory(self, level)
        return self._mesh_cache[level]


# ---------------------------------------------------------------------------
# shrinking-tube case (3D, full-gradient stress, outflow at max y)
# ---------------------------------------------------------------------------

_TUBE_NU = 0.04
_TUBE_LEVELS = {1: (8, 3), 2: (12, 4), 3: (16, 6), 4: (24, 8), 5: (32, 12)}


def _tube_radius(y):
    return math.exp((y + 4.0) / 8.0)


def _tube_fields(nu):
    def parts(X, t):
        x1, y, x3 = X[:, 0], X[:, 1], X[:, 2]
        E = np.exp(-(y + 4.0) / 4.0)
        q = 1.0 / (4.0 - t) ** 2
        r2 = x1 ** 2 + x3 ** 2
        return x1, y, x3, E, q, r2

    def velocity(X, t):
        x1, y, x3, E, q, r2 = parts(X, t)
        u = np.empty_like(X)
        u[:, 0] = -2.0 * E * r2 * q * x1
        u[:, 1] = 8.0 / (4.0 - t) - 32.0 * E * r2 * q
        u[:, 2] = -2.0 * E * r2 * q * x3
        return u

    def velocity_gradient(X, t):
        x1, y, x3, E, q, r2 = parts(X, t)
        G = np.empty((len(X), 3, 3), dtype=X.dtype)
        G[:, 0, 0] = -2.0 * E * q * (3.0 * x1 ** 2 + x3 ** 2)
        G[:, 0, 1] = 0.5 * E * q * x1 * r2
        G[:, 0, 2] = -4.0 * E * q * x1 * x3
        G[:, 1, 0] = -64.0 * E * q * x1
        G[:, 1, 1] = 8.0 * E * q * r2
        G[:, 1, 2] = -64.0 * E * q * x3
        G[:, 2, 0] = -4.0 * E * q * x1 * x3
        G[:, 2, 1] = 0.5 * E * q * x3 * r2
        G[:, 2, 2] = -2.0 * E * q * (x1 ** 2 + 3.0 * x3 ** 2)
        return G

    def pressure(X, t):
        x1, y, x3, E, q, r2 = parts(X, t)
        return (512.0 * nu * E - 8.0 * y + 32.0 - 512.0 * nu * math.exp(-2.0)) * q

    def forcing(X, t):
        x1, y, x3, E, q, r2 = parts(X, t)
        radial = nu * E * q * (16.0 + r2 / 8.0) - 4.0 * E ** 2 * q ** 2 * r2 ** 2
        f = np.empty_like(X)
        f[:, 0] = radial * x1
        f[:, 1] = 2.0 * nu * E * q * r2 - 128.0 * E ** 2 * q ** 2 * r2 ** 2
        f[:, 2] = radial * x3
        return f

    return velocity, velocity_gradient, pressure, forcing


def tube_benchmark():
    """Shrinking axisymmetric tube with a known analytic solution.

    Reference domain: tube of radius exp((y+4)/8) around the x2 axis,
    y in [-4, 4]; the cross-section shrinks by sqrt(1 - t/4) over T = 0.2.
    Lateral wall: moving no-slip (the exact velocity coincides with the wall
    velocity there); inlet disk: velocity prescribed from the exact solution;
    outlet disk: natural condition with the exact traction of the
    full-gradient stress, whose pressure gauge makes p vanish at the outlet.
    """
    nu = _TUBE_NU
    map_ = TubeShrinkMap()
    velocity, velocity_gradient, pressure, forcing = _tube_fields(nu)

    def mesh_factory(case, level):
        if level not in _TUBE_LEVELS:
            raise ValueError(f"tube case defines levels {sorted(_TUBE_LEVELS)}")
        na, nr = _TUBE_LEVELS[level]
        return generate_tube(na, nr, _tube_radius, (-4.0, 4.0),
                             labels={"inlet": dirichlet(1)})

    def bc_factory():
        def inlet_data(X_ref, t):
            return velocity(map_.position(X_ref, t), t)

        def outlet_traction(X_ref, t, m):
            # (nu grad u - p I) m for the pulled-back normal m = F^{-T} n
            phys = map_.position(X_ref, t)
            G = velocity_gradient(phys, t)
            p = pressure(phys, t)
            return nu * np.einsum("nad,nd->na", G, m) - p[:, None] * m

        from .meshing import NOSLIP, neumann
        return BoundaryConditionSet({
            NOSLIP: NoslipBC(),
            dirichlet(1): DirichletBC(inlet_data),
            neumann(0): NeumannBC(outlet_traction),
        })

    def sampler(rng, n):
        y = rng.uniform(-4.0, 4.0, n)
        rho = np.sqrt(rng.uniform(0.0, 1.0, n)) * 0.95
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        r = rho * np.exp((y + 4.0) / 8.0)
        return np.stack([r * np.cos(theta), y, r * np.sin(theta)], axis=1)

    return BenchmarkCase(
        name="tube", dimension=3, T=0.2, nu=nu, stress="full-gradient",
        base_dt=0.04, map=map_, velocity=velocity,
        velocity_gradient=velocity_gradient, pressure=pressure,
        forcing=forcing,
        nominal_h=lambda level: 2.0 ** (-(level - 1) / 2.0),
        boundary_conditions=bc_factory, sample_reference_points=sampler,
        _mesh_factory=mesh_factory)


# ---------------------------------------------------------------------------
# manufactured 2D case (area-preserving stretch, all-Dirichlet boundary)
# ---------------------------------------------------------------------------

_ALPHA = 0.1


def _manufactured_fields(nu):
    pi = np.pi

    def velocity(X, t):
        x, y = X[:, 0], X[:, 1]
        c = np.cos(t)
        u = np.empty_like(X)
        u[:, 0] = pi * np.sin(pi * x) * np.cos(pi * y) * c
        u[:, 1] = -pi * np.cos(pi * x) * np.sin(pi * y) * c
        return u

    def velocity_gradient(X, t):
        x, y = X[:, 0], X[:, 1]
        c = np.cos(t)
        G = np.empty((len(X), 2, 2), dtype=X.dtype)
        G[:, 0, 0] = pi ** 2 * np.cos(pi * x) * np.cos(pi * y) * c
        G[:, 1, 0] = pi ** 2 * np.sin(pi * x) * np.sin(pi * y) * c
        # negation is exact: the same values as the products with -pi**2
        G[:, 1, 1] = -G[:, 0, 0]
        G[:, 0, 1] = -G[:, 1, 0]
        return G

    def pressure(X, t):
        x, y = X[:, 0], X[:, 1]
        s1 = 1.0 + _ALPHA * t
        mean = np.sin(pi * s1) * np.sin(pi / s1) * np.cos(t) / pi ** 2
        return np.cos(pi * x) * np.cos(pi * y) * np.cos(t) - mean

    def forcing(X, t):
        x, y = X[:, 0], X[:, 1]
        c, s = np.cos(t), np.sin(t)
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        f = np.empty_like(X)
        f[:, 0] = (-pi * sx * cy * s + 0.5 * pi ** 3 * c ** 2 * np.sin(2 * pi * x)
                   + 2.0 * nu * pi ** 3 * sx * cy * c - pi * sx * cy * c)
        f[:, 1] = (pi * cx * sy * s + 0.5 * pi ** 3 * c ** 2 * np.sin(2 * pi * y)
                   - 2.0 * nu * pi ** 3 * cx * sy * c - pi * cx * sy * c)
        return f

    return velocity, velocity_gradient, pressure, forcing


def manufactured_2d():
    """Stream-function solution on an area-preserving stretching square.

    The reference unit square stretches to [0, 1+at] x [0, 1/(1+at)] with
    a = 0.1 (J = 1 identically); the exact velocity is the curl of
    sin(pi x) sin(pi y) cos(t) in physical coordinates, so it is pointwise
    divergence free and vanishes at t = pi/2.  The whole boundary carries
    velocity data from the exact solution, exercising the flux-compatibility
    correction and the pressure gauge.
    """
    nu = 1.0
    map_ = AxisScalingMap(
        scales=[lambda t: 1.0 + _ALPHA * t, lambda t: 1.0 / (1.0 + _ALPHA * t)],
        rates=[lambda t: _ALPHA, lambda t: -_ALPHA / (1.0 + _ALPHA * t) ** 2])
    velocity, velocity_gradient, pressure, forcing = _manufactured_fields(nu)

    def mesh_factory(case, level):
        if level == 1:
            faces = ("xmin", "xmax", "ymin", "ymax")
            return generate_box(2, (8, 8),
                                labels={f: dirichlet(0) for f in faces})
        return refine_uniform(case.mesh_for_level(level - 1))

    def bc_factory():
        def data(X_ref, t):
            return velocity(map_.position(X_ref, t), t)

        return BoundaryConditionSet({dirichlet(0): DirichletBC(data)})

    def sampler(rng, n):
        return rng.uniform(0.0, 1.0, (n, 2))

    return BenchmarkCase(
        name="manufactured-2d", dimension=2, T=0.5, nu=nu, stress="symmetric",
        base_dt=0.05, map=map_, velocity=velocity,
        velocity_gradient=velocity_gradient, pressure=pressure,
        forcing=forcing, nominal_h=lambda level: 2.0 ** (-(level - 1)),
        boundary_conditions=bc_factory, sample_reference_points=sampler,
        _mesh_factory=mesh_factory)


_CASES = {"tube": tube_benchmark, "manufactured-2d": manufactured_2d}


def benchmark_case(name):
    try:
        return _CASES[name]()
    except KeyError:
        raise ValueError(f"unknown benchmark case {name!r}; "
                         f"available: {sorted(_CASES)}") from None


# ---------------------------------------------------------------------------
# strong-form residual oracle
# ---------------------------------------------------------------------------


def verify_benchmark_fields(case, n_samples=100, seed=20240, times=None):
    """Check the case's exact fields against the strong equations.

    The derivatives come from the case's own closures by complex step:
    ``u_t`` from ``velocity``, the Laplacian (and ``grad div u`` for the
    symmetric stress) from ``velocity_gradient`` and ``grad p`` from
    ``pressure``.  Returned are the pointwise momentum residual against
    ``forcing``, the divergence (the trace of ``velocity_gradient``) and the
    mismatch between ``velocity_gradient`` and the complex-step derivative
    of ``velocity``; all sit at roundoff level for a correct transcription.
    """
    rng = np.random.default_rng(seed)
    d = case.dimension
    ref = case.sample_reference_points(rng, n_samples)
    ts = rng.uniform(0.0, case.T, n_samples) if times is None \
        else np.resize(np.asarray(times, dtype=float), n_samples)
    phys = np.vstack([case.map.position(ref[i:i + 1], ts[i])
                      for i in range(n_samples)])

    u = case.velocity(phys, ts)
    G = case.velocity_gradient(phys, ts)           # (n, d, d): du_a/dx_b
    ut = _complex_step(case.velocity, phys, ts)
    dG = [_complex_step(case.velocity_gradient, phys, ts, j) for j in range(d)]
    gradp = np.stack([_complex_step(case.pressure, phys, ts, j)
                      for j in range(d)], axis=1)
    visc = np.stack([sum(dG[j][:, a, j] for j in range(d))
                     for a in range(d)], axis=1)
    if case.stress == "symmetric":
        # add grad(div u): d/dx_a sum_j du_j/dx_j
        visc += np.stack([np.einsum("njj->n", dG[a]) for a in range(d)],
                         axis=1)
    conv = np.einsum("nab,nb->na", G, u)
    residual = ut + conv + gradp - case.nu * visc - case.forcing(phys, ts)
    mism = max(float(np.max(np.abs(
        G[:, :, j] - _complex_step(case.velocity, phys, ts, j))))
        for j in range(d))
    return {
        "max_momentum_residual": float(np.max(np.abs(residual))),
        "max_divergence": float(np.max(np.abs(np.einsum("nii->n", G)))),
        "max_field_mismatch": mism,
    }


_STEP = 1e-30


def _complex_step(fn, X, t, j=None):
    """Derivative of ``fn(X, t)`` along x_j, or along t when ``j`` is None,
    from one complex-step evaluation Im fn(x + ih e_j) / h: no difference is
    taken, so it is exact to roundoff (Squire & Trapp 1998)."""
    # complex points for the t step too: the closures allocate like X
    Z = X.astype(complex)
    if j is None:
        t = t + 1j * _STEP
    else:
        Z[:, j] += 1j * _STEP
    return fn(Z, t).imag / _STEP
