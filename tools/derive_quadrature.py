"""Derive the symmetric simplex quadrature rules of ``movingflow.elements``,
or check the committed ones against their derivation.

Each rule has a fixed orbit structure (``STRUCTURE``; the orbit kinds are
spelled out in ``elements.orbit``).  Its free coordinates and weights solve
the moment equations

    sum_q w_q B(lambda_q) = integral of B over the reference simplex

for every Bernstein polynomial B of degree p, which together span the
polynomials of degree <= p.  Deriving starts
``scipy.optimize.least_squares`` from random coordinates and weights,
polishes each result by Newton iteration and keeps those with every moment
residual below 1e-15, positive weights and every point strictly inside the
simplex.  Of the distinct solutions it prints the one with the largest
smallest weight, as the ``SYMMETRIC_RULES`` table to paste into
``elements.py``.  ``--check`` polishes each committed rule by Newton
iteration from its committed values and fails unless the two agree to 1e-15.

    python tools/derive_quadrature.py
    python tools/derive_quadrature.py --check
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from movingflow.elements import SYMMETRIC_RULES, orbit, orbit_rule  # noqa: E402

# (dimension, exactness) -> orbit kinds: S3 orbits of 1 + 3 + 3 points
# (the centroid and two orbits on the medians, Radon 1948), C3 orbits of 3
# points (a rule without mirror symmetry, Gatermann 1988), S4 orbits of
# 4 + 4 + 6 points
STRUCTURE = {
    (2, 5): ("s3", "s21", "s21"),
    (2, 7): ("c111", "c111", "c111", "c111"),
    (3, 5): ("s31", "s31", "s22"),
}
TOLERANCE = 1e-15
STARTS = 20  # random starts per rule
SEED = 0


def _n_coords(kind):
    # free coordinates: one fewer than the kind's distinct coordinate values
    return len(kind) - 2


def unpack(kinds, x):
    """The orbits ``(kind, coords, weight)`` of a parameter vector."""
    orbits, i = [], 0
    for kind in kinds:
        n = _n_coords(kind)
        orbits.append((kind, tuple(x[i:i + n]), x[i + n]))
        i += n + 1
    return orbits


def pack(orbits):
    return np.array([v for _, coords, weight in orbits
                     for v in (*coords, weight)])


@lru_cache(maxsize=None)
def bernstein(d, p):
    """Exponents of the Bernstein polynomials of degree p on the d-simplex,
    in the d+1 barycentric coordinates, and their multinomial factors."""
    alphas = np.array([a for a in itertools.product(range(p + 1), repeat=d + 1)
                       if sum(a) == p])
    factors = np.array([math.factorial(p) /
                        math.prod(math.factorial(k) for k in a) for a in alphas])
    return alphas, factors


def residual(key, kinds, x):
    """Moment defects, in the precision of ``x``: every Bernstein
    polynomial of degree p integrates to 1 / (d! C(p+d, d))."""
    d, p = key
    alphas, factors = bernstein(d, p)
    pts, w = orbit_rule(unpack(kinds, x))
    integral = x.dtype.type(1) / (math.factorial(d) * math.comb(p + d, d))
    return factors * (np.prod(pts[:, None, :] ** alphas[None], axis=2).T @ w) \
        - integral


def jacobian(key, kinds, x):
    # complex step: exact to roundoff, the moments are polynomials in x
    h = 1e-30
    return np.stack([residual(key, kinds, x + 1j * h * e).imag / h
                     for e in np.eye(len(x))], axis=1)


def polish(key, kinds, x, iterations=8):
    """Newton iteration (least-squares steps) on the moment equations, with
    the residual in extended precision; returns the nearest doubles."""
    x = np.asarray(x, dtype=np.longdouble)
    for _ in range(iterations):
        step = np.linalg.lstsq(jacobian(key, kinds, x.astype(float)),
                               residual(key, kinds, x).astype(float),
                               rcond=None)[0]
        x = x - step
        if np.abs(step).max() <= 1e-17:
            break
    return x.astype(float)


def defects(key, kinds, x):
    """What keeps ``x`` from being a valid rule; empty when it is one."""
    pts, w = orbit_rule(unpack(kinds, x))
    found = []
    res = np.abs(residual(key, kinds, x)).max()
    if not res <= TOLERANCE:
        found.append(f"moment residual {res:.3g}")
    if not w.min() > 0:
        found.append(f"weight {w.min():.3g}")
    if not (pts.min() > 0 and pts.max() < 1):
        found.append("point outside the open simplex")
    return found


def canonical(kinds, x):
    """One parameter vector per rule: each orbit by its smallest generator,
    equal kinds in order; a rule with cyclic orbits also by the smaller of
    itself and its mirror image."""
    def one(orbits):
        out = []
        for kind, coords, weight in orbits:
            if kind == "s22":
                coords = (min(coords[0], 0.5 - coords[0]),)
            elif kind == "c111":
                coords = min(orbit(kind, coords))[:2]
            out.append((kind, coords, weight))
        return sorted(out, key=lambda o: (kinds.index(o[0]), o[1]))

    orbits = unpack(kinds, x)
    variants = [one(orbits)]
    if any(kind[0] == "c" for kind in kinds):
        variants.append(one([(k, (c[0], 1.0 - c[0] - c[1]), w)
                             for k, c, w in orbits]))
    return pack(min(variants, key=lambda o: tuple(np.round(pack(o), 9))))


# a random generator with every barycentric coordinate positive
_SAMPLERS = {
    "s3": lambda rng: [],
    "s21": lambda rng: [rng.uniform(0.0, 1.0 / 2.0)],
    "c111": lambda rng: list(rng.dirichlet(np.ones(3))[:2]),
    "s31": lambda rng: [rng.uniform(0.0, 1.0 / 3.0)],
    "s22": lambda rng: [rng.uniform(0.0, 1.0 / 4.0)],
}


def random_start(key, kinds, rng):
    coords = [_SAMPLERS[kind](rng) for kind in kinds]
    n_points = sum(len(orbit(kind, c)) for kind, c in zip(kinds, coords))
    x = []
    for c in coords:
        x += c + [rng.uniform(0.3, 1.7) / math.factorial(key[0]) / n_points]
    return np.array(x)


def derive(key, starts, rng):
    """Distinct valid rules of the structure, best first."""
    kinds = STRUCTURE[key]
    found = {}
    for _ in range(starts):
        fit = least_squares(lambda x: residual(key, kinds, x),
                            random_start(key, kinds, rng),
                            jac=lambda x: jacobian(key, kinds, x),
                            method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        x = polish(key, kinds, canonical(kinds, fit.x))
        if not defects(key, kinds, x):
            found.setdefault(tuple(np.round(x, 9)), x)
    return sorted(found.values(),
                  key=lambda x: -orbit_rule(unpack(kinds, x))[1].min())


def committed(key):
    orbits = SYMMETRIC_RULES.get(key, ())
    return tuple(kind for kind, _, _ in orbits), pack(orbits)


def check():
    """Committed rules: the structure, a valid rule, and a fixed point of
    Newton polishing to 1e-15.  Returns the failures."""
    failures = []
    for key, kinds in STRUCTURE.items():
        have, x = committed(key)
        if have != kinds:
            failures.append(f"{key}: orbits {have}, expected {kinds}")
            continue
        drift = np.abs(polish(key, kinds, x) - x).max()
        if not drift <= TOLERANCE:
            failures.append(f"{key}: moves by {drift:.3g} under polishing")
        failures += [f"{key}: {defect}" for defect in defects(key, kinds, x)]
    for key in set(SYMMETRIC_RULES) - set(STRUCTURE):
        failures.append(f"{key}: no derivation")
    return failures


def table(rules):
    lines = ["SYMMETRIC_RULES = {"]
    for key, x in rules.items():
        lines.append(f"    {key}: (")
        for kind, coords, weight in unpack(STRUCTURE[key], x):
            coords = tuple(float(c) for c in coords)
            lines.append(f'        ("{kind}", {coords!r}, {float(weight)!r}),')
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="check the committed rules instead of deriving")
    args = parser.parse_args(argv)
    if args.check:
        failures = check()
        for failure in failures:
            print(failure, file=sys.stderr)
        print("committed rules: " + ("FAILED" if failures else "ok"))
        return 1 if failures else 0
    rng = np.random.default_rng(SEED)
    rules = {}
    for key, kinds in STRUCTURE.items():
        solutions = derive(key, STARTS, rng)
        if not solutions:
            print(f"{key}: no valid rule from {STARTS} starts",
                  file=sys.stderr)
            return 1
        for x in solutions:
            w = orbit_rule(unpack(kinds, x))[1]
            print(f"# {key}: {len(w)} points, smallest weight {w.min():.6g}",
                  file=sys.stderr)
        rules[key] = solutions[0]
    print(table(rules))
    return 0


if __name__ == "__main__":
    sys.exit(main())
