"""Hypothesis settings for the test suite.

Derandomized, so that every run draws the same examples; no deadline, as a
first example pays for the spaces it builds; no example database.  What
Hypothesis still stores (its cache of the constants in the test modules)
goes to a temporary directory removed at exit, so a run writes nothing
beside the tests.
"""

import os
import tempfile

from hypothesis import settings

_storage = tempfile.TemporaryDirectory(prefix="movingflow-hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)

settings.register_profile("movingflow", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("movingflow")
