"""The benchmark workloads: seeded inputs, how one op runs, how its output is checked.

Every workload is a closed loop with one client: the next op starts when the
previous one has finished.  Inputs come only from ``random.Random(seed)`` and
are drawn in rounds whose composition is fixed (each command kind appears once
per round), so that runs with different seeds measure the same mix of work
and differ only in the concrete arguments.

The program is always the copy under ``src/`` of the checkout that holds this
file.  A timed op is a fresh ``python -m grflop.cli`` process, as a user pays
for it, run through ``cuts.py``; a traced op calls ``grflop.cli.main`` in the
benchmark's own process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from cuts import pieces

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# md5 of `grflop verify-all --json` at the commit this benchmark was defined on.
REPORT_MD5 = "fa9f08ecafeb9362091ad9db3fdd32c2"

CLI_TIMEOUT_S = 150


class ProgramMissing(RuntimeError):
    """The checkout has no importable ``src/grflop``."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program():
    """Import ``grflop`` from this checkout's ``src/`` and no other copy."""
    if not (SRC / "grflop" / "cli.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'grflop'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import grflop.cli  # noqa: F401  (loads every module of the package)
    where = Path(sys.modules["grflop"].__file__).resolve().parent
    if where != (SRC / "grflop").resolve():
        raise ProgramMissing(f"grflop was imported from {where}, not from {SRC}")
    return sys.modules["grflop"]


def digest(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()[:8]


# ---------------------------------------------------------------- generators

def _decreasing(rng, n: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True))


@lru_cache(maxsize=None)
def _partitions(n: int, m: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with at most m parts, zero-padded to length m."""
    largest = n if largest is None else largest
    if m == 0:
        return ((),) if n == 0 else ()
    return tuple((first,) + rest
                 for first in range(min(n, largest), -1, -1)
                 for rest in _partitions(n - first, m - 1, first))


_KN_NAMES = ("q1", "q2", "q3", "u1", "u2", "u3")
_COLLECTIONS = ("prop31-1", "prop31-2", "kapranov-gr35", "lef-gr25")
_WINDOWS = ("spade", "heart", "club", "diamond", "kapranov")


def _csv(w) -> str:
    return ",".join(map(str, w))


def _cli_command(rng, kind: str) -> tuple[str, ...]:
    if kind == "weyl":
        m = rng.randint(2, 6)
        lam = _decreasing(rng, rng.randint(1, m), -3, 6)
        lam = tuple(x - min(lam[0], 0) for x in lam)  # leading entry >= 0 parses as a value
        return ("weyl", "dim", _csv(lam), str(m))
    if kind == "lr":
        lam = rng.choice(_partitions(rng.randint(2, 6), 3))
        mu = rng.choice(_partitions(rng.randint(2, 6), 3))
        nu = rng.choice(_partitions(sum(lam) + sum(mu), 4))
        return ("lr", "coeff", _csv(nu), _csv(lam), _csv(mu))
    if kind == "bwb":
        k = rng.choice((2, 3))
        u = _decreasing(rng, k, -3, 3)
        q = _decreasing(rng, 5 - k, -3, 3)
        return ("bwb", "cohom", f"gr({k},5)", f"u=[{_csv(u)}]", f"q=[{_csv(q)}]", "--json", "-")
    if kind == "member":
        w = tuple(rng.randint(-8, 2) for _ in range(3))
        chi = _decreasing(rng, 3, -3, 3)
        return ("windows", "member", f"--chi={_csv(chi)}", "--side", rng.choice(("plus", "minus")),
                f"--w={_csv(w)}", "--json", "-")
    if kind == "enumerate":
        w = tuple(rng.randint(-8, 2) for _ in range(3))
        return ("windows", "enumerate", "--side", rng.choice(("plus", "minus")),
                f"--w={_csv(w)}", "--json", "-")
    if kind == "kn":
        support = rng.sample(_KN_NAMES, rng.randint(0, 3))
        return ("kn", "solve", "--character", rng.choice(("plus", "minus")),
                f"--support={','.join(support)}", "--json", "-")
    if kind == "collections":
        return ("collections", "check", "--name", rng.choice(_COLLECTIONS), "--json", "-")
    if kind == "tilting":
        return ("tilting", "check", "--window", rng.choice(_WINDOWS), "--json", "-")
    if kind == "ext":
        return ("ext-total", "--model", "xminus", "--left", "o", "--right", "o", "--json", "-")
    raise ValueError(kind)


CLI_KINDS = ("weyl", "lr", "bwb", "member", "enumerate", "kn", "collections", "tilting", "ext")


def cli_queries_inputs(rng) -> Iterator[tuple[str, ...]]:
    """Rounds of nine short commands, one of each kind, in shuffled order."""
    kinds = list(CLI_KINDS)
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            yield _cli_command(rng, kind)


def verify_all_inputs(rng) -> Iterator[tuple[str, ...]]:
    """The one headline command; the seed has nothing to vary."""
    while True:
        yield ("verify-all",)


# ---------------------------------------------------------------- running ops

class Fresh(NamedTuple):
    """What a fresh CLI process run through cuts.py leaves: its output, its peak
    RSS, and its latency cut into shared and own pieces (see cuts.py)."""
    code: int
    stdout: str
    peak_rss_kib: float
    shared: list
    own: list


def run_cli_process(argv, marks: Path) -> Fresh:
    """A fresh `python -m grflop.cli ARGV` process, run through cuts.py."""
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("cuts.py")), *argv],
                          cwd=ROOT, env={**child_env(), "PERFBENCH_MARKS": str(marks)},
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    ended = time.perf_counter()
    done = array("d", [0.0, 0.0])
    if marks.is_file():
        with open(marks, "rb") as fh:
            done = array("d", fh.read())
        marks.unlink()
    shared, own = pieces(done[2:].tolist(), int(done[1]), spawned, ended)
    return Fresh(proc.returncode, proc.stdout, done[0], shared, own)


def run_cli_in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = sys.modules["grflop.cli"].main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


# ---------------------------------------------------------------- checks

def weyl_oracle(w, m: int) -> int:
    """GL(m) Weyl dimension, written independently of the program."""
    lam = list(w) + [0] * (m - len(w))
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    dim, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"Weyl product of {w} not integral")
    return dim


def check_cli(argv, out) -> tuple[bool, str]:
    """Exit code 0; `weyl dim` also against the oracle."""
    code, stdout = out[:2]
    ok = code == 0
    if ok and argv[:2] == ("weyl", "dim"):
        lam = tuple(int(x) for x in argv[2].split(","))
        ok = stdout.strip() == str(weyl_oracle(lam, int(argv[3])))
    return ok, digest(f"{code}\n{stdout}")


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable                  # rng -> endless iterator of CLI argvs
    round_size: int                   # ops per round of the generator
    repeats: int                      # timed passes over the rounds of a run
    trace_ops: int                    # fixed op count of a traced run, so counts repeat
    check: Callable | None = None     # (op, output) -> (ok, digest); verify_all checks its report


WORKLOADS = {w.name: w for w in (
    Workload("verify_all", verify_all_inputs, 1, 6, 1),
    Workload("cli_queries", cli_queries_inputs, len(CLI_KINDS), 8, 27, check_cli),
)}


class OpRunner:
    """Runs and checks the ops of one workload, the untraced way or the traced (in-process) way."""

    def __init__(self, workload: Workload, seed: int, in_process: bool, scratch: Path):
        self.workload = workload
        self.in_process = in_process
        self.scratch = scratch
        golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}
        packed = golden.get(workload.name, {}).get(str(seed), "")
        self.golden = [packed[i:i + 8] for i in range(0, len(packed), 8)]
        self.golden_checked = 0
        self.peak_rss_kib = 0.0   # largest of the fresh op processes

    def execute(self, op):
        """Run one op and return its raw output; this is the timed part."""
        if self.workload.name == "verify_all":
            op = op + ("--json", str(self.scratch / "verify-all.json"))
        if self.in_process:
            return run_cli_in_process(op)
        out = run_cli_process(op, self.scratch / "marks.bin")
        self.peak_rss_kib = max(self.peak_rss_kib, out.peak_rss_kib)
        return out

    def check(self, index: int, op, out) -> tuple[bool, str]:
        """Invariants, then the golden digest recorded for this seed where there is one."""
        if self.workload.name == "verify_all":
            code = out[0]
            report = self.scratch / "verify-all.json"
            text = report.read_bytes() if report.is_file() else b""
            report.unlink(missing_ok=True)
            md5 = hashlib.md5(text).hexdigest()
            return code == 0 and md5 == REPORT_MD5, md5[:8]
        ok, dig = self.workload.check(op, out)
        if index < len(self.golden):
            self.golden_checked += 1
            ok = ok and dig == self.golden[index]
        return ok, dig
