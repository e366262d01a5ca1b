"""The metrics the benchmark reports, as ``BENCHMARK.json`` lists them.

``BENCHMARK.json`` at the root of the checkout holds every metric's name,
unit, direction and bound; this module only reads it.
"""

import json
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# Printed with the end-to-end metrics but kept out of the result object:
# error_energy exists only on the exact-solution workloads and is gated
# against its reference value instead; failure_ratio is 0 on every accepted
# run and travels as the result's ``attempted`` and ``failed``.
REPORTED_ONLY = {"error_energy": "1", "failure_ratio": "1"}

UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update(REPORTED_ONLY)

# Per-layer metrics that count work rather than time it.  Two traced runs of
# the same code and seed must give identical values for all of them.
COUNTS = [name for name in PER_LAYER if UNITS[name] in ("count", "bytes")]
