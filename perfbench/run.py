"""Run one grflop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli_queries --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` the workload runs untraced for about ``--seconds``, in
passes over the same ops (see ``timed_run``), and the last line of output is a JSON object holding the end-to-end metrics named in
``BENCHMARK.json``.  With ``--trace 1`` a fixed list of ops runs once untraced
(in a fresh child process) and once traced (in this process), and the last line
holds the per-layer metrics; every other counter and span is printed above it.
``--workload all`` runs every workload one after another, each in its own
child process.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import islice
from pathlib import Path

import workloads as wl
from layers import Tracer

SETUP_REPEATS = 7    # setup_s and cli.import_s are medians over this many fresh interpreters
P90_MIN_OPS = 100    # op_p90_ms is reported only with at least ten samples beyond it

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "fail_ratio": "ratio", "peak_rss_mb": "MiB"}


def calibration_s() -> float:
    """A fixed pure-Python loop, timed; recorded beside a run to show host speed, never used to scale it."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        sum(i * i % 7 for i in range(200_000))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": model, "loadavg": list(os.getloadavg())}


def fresh_python_s(code: str) -> float:
    """Wall time of a fresh interpreter running `code` against this checkout's src/."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=wl.ROOT, env=wl.child_env(),
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode:
        raise wl.ProgramMissing(f"`python -c {code!r}` failed: {proc.stderr.strip()[-300:]}")
    return elapsed


def setup_sample(workload: wl.Workload, seed: int) -> float:
    """A fresh interpreter's `import grflop.cli`, plus building the first round of inputs."""
    imported = fresh_python_s("import grflop.cli")
    start = time.perf_counter()
    list(islice(workload.inputs(random.Random(seed)), workload.round_size))
    return imported + time.perf_counter() - start


def cli_import_s() -> float:
    """Fresh-interpreter `import grflop.cli` minus `python -c pass`, each a median."""
    imports, bare = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(fresh_python_s("import grflop.cli"))
        bare.append(fresh_python_s("pass"))
    return statistics.median(imports) - statistics.median(bare)


def run_ops(runner: wl.OpRunner, indexed_ops) -> tuple[list[tuple[list, list]], int]:
    """Closed loop over `(index, op)` pairs: each op starts when the previous one
    has finished.  Returns each op's latency as its shared and own pieces (see
    cuts.py; an op run in process is one own piece) and the number of failed ops."""
    timings: list[tuple[list, list]] = []
    failed = 0
    for index, op in indexed_ops:
        t0 = time.perf_counter()
        try:
            out = runner.execute(op)
        except Exception as exc:  # a crashing op is a failed op; the run goes on
            out = exc
        latency = time.perf_counter() - t0
        timings.append((out.shared, out.own) if isinstance(out, wl.Fresh) else ([], [latency]))
        try:
            ok = not isinstance(out, Exception) and runner.check(index, op, out)[0]
        except Exception as exc:  # so is an output the check cannot read
            ok, out = False, exc
        if not ok:
            failed += 1
            print(f"FAILED op {index}: {op!r}"
                  + (f" raised {out!r}" if isinstance(out, Exception) else ""), file=sys.stderr)
    return timings, failed


def busy_s(timings: list[tuple[list, list]]) -> float:
    return sum(sum(shared) + sum(own) for shared, own in timings)


def rounds(workload: wl.Workload, seed: int):
    """The seed's ops, numbered, in rounds of the generator's fixed composition."""
    ops = enumerate(workload.inputs(random.Random(seed)))
    while True:
        yield list(islice(ops, workload.round_size))


def keep_best(best: list[float] | None, pieces: list[float]) -> list[float]:
    """Piecewise minimum of two runs of the same work; their totals if they were cut differently."""
    if best is None:
        return pieces
    if len(best) == len(pieces):
        return list(map(min, best, pieces))
    return [min(sum(best), sum(pieces))]


def timed_run(runner: wl.OpRunner, seed: int, seconds: float, between) -> tuple[list[float], int, int]:
    """Closed loop in passes over the same rounds.  Each op keeps the best time
    of each of its own pieces, the run keeps the best of each shared piece over
    all ops (see cuts.py), and an op's best latency is the sum of both.

    The first pass runs whole rounds while the next would likely end within
    1/`repeats` of `seconds` (at least one round); the other `repeats` - 1
    passes run the same rounds again, in the same order.  So the repeats of
    each piece lie spread over the whole run, and its best time is likely one
    from a stretch when the host ran fast.
    `between(elapsed_s)` is called before each round.  Returns the best
    latency of each op, op runs attempted and op runs failed."""
    workload = runner.workload
    start = time.perf_counter()
    chosen: list[list] = []
    best: list = []
    shared = None
    attempted = failed = 0

    def run(index: int, rnd: list) -> None:
        nonlocal shared, attempted, failed
        between(time.perf_counter() - start)
        timings, round_failed = run_ops(runner, rnd)
        for i, (common, own) in enumerate(timings, index):
            if common:  # a process that failed before its first mark has none
                shared = keep_best(shared, common)
            best[i] = keep_best(best[i], own)
        attempted += len(timings)
        failed += round_failed

    first_pass = seconds / workload.repeats
    for rnd in rounds(workload, seed):
        best += [None] * len(rnd)
        run(len(best) - len(rnd), rnd)
        chosen.append(rnd)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(chosen) > first_pass:
            break
    for _ in range(workload.repeats - 1):
        index = 0
        for rnd in chosen:
            run(index, rnd)
            index += len(rnd)
    return [sum(shared or []) + sum(own) for own in best], attempted, failed


def declared_metrics(kind: str) -> list[dict]:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    return spec[kind]


def result_line(correct: bool, attempted: int, failed: int, values: dict, kind: str) -> str:
    """The final JSON line: exactly the metrics BENCHMARK.json declares for this kind of run."""
    metrics = {}
    for m in declared_metrics(kind):
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def print_table(workload: str, rows: dict, samples: dict) -> None:
    for name, (value, unit) in rows.items():
        n = samples.get(name)
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload:12} {name:42} {shown:>16} {unit:6}" + (f" n={n}" if n else ""))


def untraced_run(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    host = host_info()
    host["calibration_before_s"] = calibration_s()
    wl.import_program()
    setups: list[float] = []

    def sample_setup(elapsed: float) -> None:
        # Samples are spread over the run, so that setup_s sees the same host
        # speed as the ops do rather than that of its first second or two.
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(setup_sample(workload, args.seed))

    with tempfile.TemporaryDirectory(dir=wl.ROOT, prefix=".perfbench-") as scratch:
        runner = wl.OpRunner(workload, args.seed, in_process=False, scratch=Path(scratch))
        bests, attempted, failed = timed_run(runner, args.seed, args.seconds, sample_setup)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_sample(workload, args.seed))
    host["calibration_after_s"] = calibration_s()
    n = len(bests)
    rows = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(bests),
        "op_p50_ms": statistics.median(bests) * 1e3,
        "fail_ratio": failed / attempted,
        "peak_rss_mb": runner.peak_rss_kib / 1024,
    }
    if n >= P90_MIN_OPS:
        rows["op_p90_ms"] = statistics.quantiles(bests, n=10)[8] * 1e3
    rows = {k: (v, UNITS[k]) for k, v in rows.items()}
    samples = {k: n for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")}
    samples.update(setup_s=SETUP_REPEATS, fail_ratio=attempted)
    print(f"host {json.dumps(host)}")
    print(f"{args.workload}: {n} ops, best pieces of {workload.repeats} runs each; "
          f"{attempted} runs attempted, {failed} failed (fail_ratio base: runs attempted), "
          f"golden digests checked on {runner.golden_checked}")
    print_table(args.workload, rows, samples)
    print(result_line(failed == 0, attempted, failed, rows, "end_to_end"))
    return 0


def trace_phase(workload: wl.Workload, seed: int, tracer: Tracer | None) -> dict:
    """The fixed traced op list, in process; with `tracer` None it runs untraced."""
    with tempfile.TemporaryDirectory(dir=wl.ROOT, prefix=".perfbench-") as scratch:
        runner = wl.OpRunner(workload, seed, in_process=True, scratch=Path(scratch))
        ops = islice(enumerate(workload.inputs(random.Random(seed))), workload.trace_ops)
        if tracer is None:
            latencies, failed = run_ops(runner, ops)
        else:
            with tracer:
                latencies, failed = run_ops(runner, ops)
    return {"busy_s": busy_s(latencies), "attempted": len(latencies), "failed": failed}


def traced_run(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    host = host_info()
    host["calibration_before_s"] = calibration_s()
    import_s = cli_import_s()
    # The untraced pass runs first, in a fresh interpreter, so both passes start cold.
    proc = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                           "--seed", str(args.seed), "--phase", "untraced"],
                          cwd=wl.ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("untraced pass failed")
    untraced = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.workload == "verify_all":
        # One untraced op as the timed workload runs it, in a fresh process, for
        # the accounting line below.
        with tempfile.TemporaryDirectory(dir=wl.ROOT, prefix=".perfbench-") as scratch:
            runner = wl.OpRunner(workload, args.seed, in_process=False, scratch=Path(scratch))
            fresh, fresh_failed = run_ops(runner, islice(enumerate(workload.inputs(random.Random(args.seed))), 1))
        untraced["attempted"] += 1
        untraced["failed"] += fresh_failed
    wl.import_program()
    tracer = Tracer()
    traced = trace_phase(workload, args.seed, tracer)
    host["calibration_after_s"] = calibration_s()

    rows = tracer.metrics()
    rows["cli.import_s"] = (import_s, "s")
    rows["trace.untraced_s"] = (untraced["busy_s"], "s")
    rows["trace.traced_s"] = (traced["busy_s"], "s")
    rows["trace.overhead_s"] = (traced["busy_s"] - untraced["busy_s"], "s")
    print(f"host {json.dumps(host)}")
    print(f"{args.workload}: traced {traced['attempted']} ops ({traced['failed']} failed), "
          f"untraced {untraced['attempted']} ops ({untraced['failed']} failed)")
    if args.workload == "verify_all":
        steps = sum(v for k, (v, _) in rows.items()
                    if k.startswith("verify.") and k.endswith(".incl_s"))
        fresh_s = busy_s(fresh)
        gap = steps + import_s - fresh_s
        overhead = rows["trace.overhead_s"][0]
        print(f"accounting: verify.*.incl_s {steps:.3f} s + cli.import_s {import_s:.3f} s = "
              f"{steps + import_s:.3f} s traced; untraced fresh-process op {fresh_s:.3f} s; "
              f"gap {gap:.3f} s is {'within' if abs(gap) <= overhead else 'NOT within'} "
              f"the tracing overhead {overhead:.3f} s")
    print_table(args.workload, rows, {})
    attempted = traced["attempted"] + untraced["attempted"]
    failed = traced["failed"] + untraced["failed"]
    print(result_line(failed == 0, attempted, failed, rows, "per_layer"))
    return 0


def untraced_phase(args) -> int:
    wl.import_program()
    print(json.dumps(trace_phase(wl.WORKLOADS[args.workload], args.seed, None)))
    return 0


def all_workloads(args) -> int:
    """Each workload in its own child process, one after another; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=wl.ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("untraced",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally: subprocess.run kills and reaps its child, scratch dirs go.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload == "all":
            return all_workloads(args)
        if args.phase:
            return untraced_phase(args)
        return traced_run(args) if args.trace else untraced_run(args)
    except wl.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
