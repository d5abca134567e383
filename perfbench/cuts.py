"""Cut a run of the program into short pieces, each timed on its own.

    python3 perfbench/cuts.py ARGV...      # as `python -m grflop.cli ARGV...`

A `Cutter` marks the clock at entry and exit of every outermost call of the
entry points in CUT_POINTS.  The program is deterministic, so every run of one
op makes the same calls in the same order and its marks cut the same work into
the same pieces: piece i of one run and piece i of another did the same work.
The benchmark keeps each piece's best time over repeats of the op.  The host
it was defined on runs up to 1.6x slower for stretches of a fraction of a
second to minutes; a piece of under a millisecond often falls in a fast
stretch, a whole op of seconds rarely does, so the sum of the best pieces is
a far steadier latency than the best whole op.  The marks cost two clock
reads per outermost call, inside every timed op.

Run as a script, this file runs the CLI with a cutter installed after
`import grflop.cli` and writes doubles to the file named by PERFBENCH_MARKS:
the process's peak resident set in KiB, the index of the import's end among
the marks, then the marks: the start of this script, the start of each module
import, the end of the import, every cut, and the end of the command.  The
clock is CLOCK_MONOTONIC, shared by all processes, so the parent times the
interpreter's start up to the first mark and its exit after the last.

Start-up and import do the same work in every process, whatever the command,
so their pieces are shared by every op of a run and keep their best over all
of them; the other pieces belong to one op.
"""

import time

START = time.perf_counter()

import functools  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

CUT_POINTS = ("partitions.gl_tensor", "homog.bott", "stability.hl_enumerate")


class Cutter:
    """Clock marks around the outermost calls of the CUT_POINTS."""

    def __init__(self):
        self.marks = array("d")
        self._inside = False

    def mark(self) -> None:
        self.marks.append(time.perf_counter())

    def install(self) -> None:
        """Replace each cut point at every import site in the loaded grflop modules."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "grflop" or name.startswith("grflop.")]
        for entry in CUT_POINTS:
            module, name = entry.split(".")
            original = getattr(sys.modules[f"grflop.{module}"], name)
            wrapper = self._wrap(original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, fn):
        marks, clock = self.marks, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._inside:
                return fn(*args, **kwargs)
            self._inside = True
            marks.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(clock())
                self._inside = False
        return wrapper


def pieces(marks, import_end: int, spawned: float, ended: float) -> tuple[list, list]:
    """A process run from `spawned` to `ended` (parent's clock), cut at its marks:
    the shared pieces (start-up, each module import) and the op's own pieces
    (every cut, and the exit after the last mark)."""
    if len(marks) < 2:
        return [], [ended - spawned]
    steps = [b - a for a, b in zip(marks, marks[1:])]
    return [marks[0] - spawned] + steps[:import_end], steps[import_end:] + [ended - marks[-1]]


def peak_rss_kib() -> float:
    """This process's own peak resident set (VmHWM).  ru_maxrss would also count
    the parent's memory that a forked child holds until it execs."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    import resource
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class ImportMarks:
    """A meta path finder that finds nothing: it marks the clock as each module's import starts."""

    def __init__(self, cutter: Cutter):
        self.cutter = cutter

    def find_spec(self, *args):
        self.cutter.mark()


def main() -> int:
    cutter = Cutter()
    cutter.marks.append(START)
    code = 1
    import_end = 0
    try:
        finder = ImportMarks(cutter)
        sys.meta_path.insert(0, finder)
        import grflop.cli
        sys.meta_path.remove(finder)
        cutter.mark()
        import_end = len(cutter.marks) - 1
        cutter.install()
        code = grflop.cli.main(sys.argv[1:])
    finally:
        cutter.mark()
        with open(os.environ["PERFBENCH_MARKS"], "wb") as fh:
            array("d", [peak_rss_kib(), import_end]).tofile(fh)
            cutter.marks.tofile(fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
