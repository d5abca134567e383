"""Per-layer tracing from outside the program.

Each traced entry point is replaced, for the length of a traced run, by a
wrapper that counts calls and records its span.  A module-level function is
replaced at every import site: every ``grflop`` module that bound the same
function object under any name gets the wrapper, so ``grflop.homog.gl_tensor``
is traced as well as ``grflop.partitions.gl_tensor``.  Methods are replaced on
their class.  Nothing under ``src/`` is edited.

Times: ``incl_s`` is the outermost span of an entry point (recursive calls are
not counted twice); ``self_s`` is a span minus the traced spans it contains.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# The layers are the package's modules.  Each entry names a traced callable,
# "module.function" or "module.Class.method"; NOTES below adds counters taken
# from its arguments or result.
ENTRY_POINTS = (
    "partitions.gl_tensor", "partitions.as_weight", "partitions.weyl_dim",
    "partitions.lr_mult",
    "homog.bott", "homog.HomogeneousBundle.tensor", "homog.HomogeneousBundle.__init__",
    "homog.BundleSum.of", "homog.BundleSum.tensor",
    "total_space.ext_table", "total_space.stable_cutoff", "total_space.is_pretilting",
    "filtered.graded_euler", "filtered.schur_filtered", "filtered.euler_cross_check",
    "filtered.vanishing_suite",
    "stability.hl_membership", "stability.hl_enumerate", "stability.kn_adapted",
    "exceptional.check_collection", "exceptional.check_resolution",
    "verify._check_tilting", "verify._check_vanishing", "verify._check_collections",
    "verify._check_resolutions", "verify._check_windows", "verify._check_kempf_ness",
    "verify._check_euler", "verify._check_determinism",
    "report.Report.to_json_text", "bundleset.parse_bundle", "cli.main",
)


def span_name(entry: str) -> str:
    """Metric prefix, e.g. ``verify._check_euler`` -> ``verify.euler``."""
    return (entry.replace("._check_", ".").replace(".__init__", ".init")
            .replace("report.Report.", "report."))


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    depth: int = 0
    counts: dict = field(default_factory=dict)
    seen: set = field(default_factory=set)

    def add(self, metric: str, n: int) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + n


def _note_gl_tensor(span, args, result):
    lam, mu, m = args
    span.seen.add((tuple(lam), tuple(mu), m))
    span.add("partitions.gl_tensor.terms", len(result))


def _note_bott(span, args, result):
    span.seen.add((args[0], tuple(args[1])))
    span.add("homog.bott.acyclic", int(result.is_acyclic))


# Extra counters: entry -> callback(span, args, result).  A span's `distinct`
# count is the number of distinct inputs in `span.seen`.
NOTES = {
    "partitions.gl_tensor": _note_gl_tensor,
    "homog.bott": _note_bott,
    "total_space.ext_table":
        lambda span, args, result: span.add("total_space.ext_table.rows", len(result.rows)),
    "stability.hl_membership":
        lambda span, args, result: span.add("stability.hl_membership.members", int(result.member)),
    "report.Report.to_json_text":
        lambda span, args, result: span.add("report.to_json_text.bytes", len(result.encode())),
    "cli.main": lambda span, args, result: span.add("cli.exit_nonzero", int(result != 0)),
}
COUNTS = ("partitions.gl_tensor.terms", "homog.bott.acyclic", "homog.BundleSum.of.terms_in",
          "total_space.ext_table.rows", "stability.hl_membership.members",
          "report.to_json_text.bytes", "cli.exit_nonzero")
DISTINCT = ("partitions.gl_tensor", "homog.bott")


class Tracer:
    """Installs the wrappers on enter and restores every original on exit."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, entry: str, fn):
        span = self.spans.setdefault(span_name(entry), Span())
        note = NOTES.get(entry)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            span.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_s += elapsed - frame[0]
                if not span.depth:
                    span.incl_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if note is not None:
                note(span, args, result)
            return result
        return wrapper

    def _wrap_of(self, fn):
        """BundleSum.of is a classmethod whose `terms` may be any iterable."""
        span = self.spans.setdefault("homog.BundleSum.of", Span())
        timed = self._wrap("homog.BundleSum.of", fn)

        def of(cls, space, terms):
            terms = list(terms)
            span.add("homog.BundleSum.of.terms_in", len(terms))
            return timed(cls, space, terms)
        return classmethod(functools.wraps(fn)(of))

    def _wrap_init(self, fn):
        """Construction is only counted: a timed span per bundle would swamp the rest."""
        span = self.spans.setdefault("homog.HomogeneousBundle.init", Span())

        @functools.wraps(fn)
        def init(*args, **kwargs):
            span.calls += 1
            return fn(*args, **kwargs)
        return init

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "grflop" or name.startswith("grflop.")}
        for entry in ENTRY_POINTS:
            module, *path = entry.split(".")
            owner = modules[f"grflop.{module}"]
            if len(path) == 2:  # a method: replace it on its class
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if path[1] == "of":
                    self._set(cls, "of", self._wrap_of(raw.__func__))
                elif path[1] == "__init__":
                    self._set(cls, "__init__", self._wrap_init(raw))
                else:
                    self._set(cls, path[1], self._wrap(entry, raw))
                continue
            original = getattr(owner, path[0])
            wrapper = self._wrap(entry, original)
            sites = [(mod, attr) for mod in modules.values()
                     for attr, value in list(vars(mod).items()) if value is original]
            for mod, attr in sites:
                self._set(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every counter and time, as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {name: (0, "count") for name in COUNTS}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = (span.calls, "count")
            if name != "homog.HomogeneousBundle.init":
                out[f"{name}.self_s"] = (span.self_s, "s")
                out[f"{name}.incl_s"] = (span.incl_s, "s")
            if name in DISTINCT:
                out[f"{name}.distinct"] = (len(span.seen), "count")
            out.update((metric, (n, "count")) for metric, n in span.counts.items())
        return dict(sorted(out.items()))
