"""Run one workload twice and check that the runs agree exactly.

    python3 perfbench/repeat.py --workload expression-cli --seed 1

Each run is a fresh ``run.py --trace 1`` process with the same seed.  Every
count metric (calls, points, factorizations, fill, LU solves, iterations,
bytes written) and the digest of every output must be identical across the
two runs; the script prints the differences and exits 1 if there are any.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run failed with code {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    detail = json.loads(lines[-2])
    return {**detail["counts"], "digests": detail["digests"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    runs = [traced_run(args.workload, args.seed) for _ in range(2)]
    differ = [key for key in runs[0] if runs[1][key] != runs[0][key]]
    for key in runs[0]:
        mark = "DIFFERS" if key in differ else "same"
        print(f"{key:<40} {mark:>8}  {[r[key] for r in runs]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
