"""Record the golden per-op output digests in golden.json.

    python3 perfbench/record_golden.py

Run this only on a commit whose outputs are trusted: the benchmark then fails
any later op whose output digest differs.  For each recorded seed it keeps the
first ops of the seeded op stream, run the untraced way; ops past those, and
seeds not recorded, are checked by the workloads' invariants alone.  The
``verify_all`` workload needs no table: its report md5 is fixed in
workloads.py.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from itertools import islice
from pathlib import Path

import workloads as wl

SEEDS = tuple(range(11)) + (97,)   # 1 is the default seed, 97 the holdout seed
OPS = {"cli_queries": 120}


def record(name: str, seed: int, count: int, scratch: Path) -> str:
    workload = wl.WORKLOADS[name]
    runner = wl.OpRunner(workload, seed, in_process=False, scratch=scratch)
    runner.golden = []
    packed = []
    for index, op in enumerate(islice(workload.inputs(random.Random(seed)), count)):
        ok, dig = runner.check(index, op, runner.execute(op))
        if not ok:
            raise SystemExit(f"{name} seed {seed} op {index} fails its invariants: {op!r}")
        packed.append(dig)
    return "".join(packed)


def main() -> int:
    wl.import_program()
    names = sys.argv[1:] or list(OPS)
    golden = json.loads(wl.GOLDEN_PATH.read_text()) if wl.GOLDEN_PATH.is_file() else {}
    with tempfile.TemporaryDirectory(dir=wl.ROOT, prefix=".perfbench-") as scratch:
        for name in names:
            golden[name] = {str(seed): record(name, seed, OPS[name], Path(scratch))
                            for seed in SEEDS}
            print(f"{name}: {OPS[name]} ops for seeds {list(SEEDS)}")
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
