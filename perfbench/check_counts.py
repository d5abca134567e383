"""The benchmark's own test: two traced runs at one seed must give identical counts.

    python3 perfbench/check_counts.py [--seed 1] [--expect-reference] [WORKLOAD ...]

Exits 1 if any count differs between the two runs or a traced run fails.  On
``verify_all`` it also prints the counts beside the figures measured when the
benchmark was defined; a large miss there means a wrapper missed an import
site.  With ``--expect-reference`` such a miss (more than 2 %) also exits 1;
leave it off once a change legitimately cuts those calls.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import workloads as wl

RUN = Path(__file__).resolve().parent / "run.py"

# verify-all at the commit the benchmark was defined on.
VERIFY_ALL_REFERENCE = {
    "stability.hl_membership.calls": 314_928,
    "partitions.gl_tensor.calls": 30_518,
    "partitions.as_weight.calls": 635_634,
}
REFERENCE_TOLERANCE = 0.02


def traced_counts(workload: str, seed: int) -> dict[str, int]:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--trace", "1"], cwd=wl.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode or '"correct": true' not in proc.stdout.splitlines()[-1]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: traced run failed")
    counts = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload and fields[3] == "count":
            counts[fields[1]] = int(fields[2])
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--expect-reference", action="store_true",
                        help="exit 1 if a verify_all count is more than 2 %% off its reference")
    parser.add_argument("workloads", nargs="*", default=list(wl.WORKLOADS))
    args = parser.parse_args()
    status = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        print(f"{workload}: {len(first)} counts, {'identical' if not differ else 'DIFFERENT'}")
        for name in differ:
            print(f"  {name}: {first.get(name)} then {second.get(name)}")
        status |= bool(differ) or not first
        if workload == "verify_all":
            for name, ref in VERIFY_ALL_REFERENCE.items():
                off = abs(first.get(name, 0) - ref) / ref
                print(f"  {name}: {first.get(name)} (reference {ref}, off by {off:.1%})")
                if args.expect_reference and off > REFERENCE_TOLERANCE:
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
