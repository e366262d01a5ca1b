"""How fast the machine runs right now, from a fixed reference computation.

On a shared host the same code runs up to about 1.5 times slower, for
seconds to minutes at a time, and a fixed kernel slows with it.  The benchmark
times a fixed kernel before a run's first set-up, after its set-ups and
after every time step, outside the timed intervals, and scales the time of
each interval by ``REFERENCE_S`` over the mean of the kernel times on either
side of it.  The reported times are then what the work would take while
the kernel takes ``REFERENCE_S``: a change to movingflow moves them, a
slower host does not.  The kernel does the kinds of work movingflow's steps
do: a sparse LU factorization and solves, sparse products, elementwise
numpy arithmetic and an interpreted Python loop.  It does not call
movingflow, so no change to the program changes it.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# About the kernel's median time on the 2-core x86 machine the benchmark was
# defined on; it sets the scale of every reported time.
REFERENCE_S = 0.17


class Calibration:
    """A fixed kernel and the times it took, in the order they were taken."""

    def __init__(self):
        grid = 100              # a 5-point Laplacian on a 100 x 100 grid
        eye = sp.eye(grid, format="csc")
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid, grid),
                        format="csc")
        self.matrix = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        self.rhs = np.ones(self.matrix.shape[0])
        self.x = np.linspace(0.0, 1.0, 200_000)
        self.samples = []
        self.kernel()           # warm up caches and lazy imports, untimed

    def kernel(self):
        lu = spla.splu(self.matrix)
        for _ in range(20):
            y = lu.solve(self.rhs)
        for _ in range(60):
            w = self.matrix @ y
        z = 0.0
        for _ in range(20):
            z += float(np.sqrt(np.sin(self.x) ** 2 + self.x) @ self.x)
        counts = {}
        for i in range(250_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        return w, z, counts

    def measure(self):
        """Run the kernel once and record its wall time.  Return the factor
        for the work done since the previous sample: ``REFERENCE_S`` over
        the mean of the two samples (None for the first sample)."""
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)
        if len(self.samples) < 2:
            return None
        return REFERENCE_S / (sum(self.samples[-2:]) / 2)
