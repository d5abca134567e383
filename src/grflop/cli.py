"""Command-line frontend.

Every leaf command is one row of ``COMMANDS``.  Its handler, in ``commands``,
prints a table and returns a Report (None for a pure query); ``_dispatch``
streams the report to ``--json PATH`` (stdout for ``-``) and picks the exit
code.  Exit codes: 0 for success (or a pure query), 1 exactly when the report
has a failed check, 2 for usage errors, 3 for an internal error (a bug; one
line on stderr, no traceback, and the report may stop short), and 141
(128 + SIGPIPE, as a shell reports for ``yes | head``) when the reader of
stdout closed it early, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import __version__, data
from .commands import (LEVEL_MAX, WEYL_MAX_M, _cmd_bwb, _cmd_collections_check,
                       _cmd_collections_resolve, _cmd_euler, _cmd_ext_total, _cmd_kn_solve,
                       _cmd_kn_strata, _cmd_lr_coeff, _cmd_lr_mult, _cmd_suite, _cmd_tilting,
                       _cmd_verify_all, _cmd_weyl, _cmd_windows_enumerate,
                       _cmd_windows_member)
from .kempf_ness import CHARACTERS, TORUS_WEIGHTS
from .total_space import MODELS

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141

# `lr mult` and `lr coeff` expand the whole LR product, whose cost grows
# steeply with the number of boxes: the worst shapes found take about a second
# at 36 boxes and two at 40.
LR_MAX_BOXES = 36
# `collections resolve` checks each twist of `--twists` separately, about
# 0.15 ms apiece: 1,000 twists take about half a second as a whole process.
TWISTS_MAX = 1000


def _weight_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _window_w_arg(text: str) -> tuple[int, int, int]:
    w = _weight_arg(text)
    if len(w) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated integers w0,w1,w2, got {text!r}")
    return w


def _at_most(limit: int):
    """An argument type: a nonnegative integer of at most `limit`."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected a nonnegative integer, got {text!r}") from exc
        if v < 0:
            raise argparse.ArgumentTypeError(f"must be nonnegative, got {v}")
        if v > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}, got {v}")
        return v
    return parse


class _LRBoxes(argparse.Action):
    """Stores `mu` when |lam| + |mu| is at most LR_MAX_BOXES (lam is parsed first)."""

    def __call__(self, parser, namespace, values, option_string=None):
        boxes = sum(abs(x) for x in namespace.lam + values)
        if boxes > LR_MAX_BOXES:
            raise argparse.ArgumentError(
                self, f"|lam| + |mu| must be at most {LR_MAX_BOXES}, got {boxes}")
        setattr(namespace, self.dest, values)


def _twists_arg(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected lo..hi or one integer, got {text!r}") from exc
    if lo > hi:
        raise argparse.ArgumentTypeError(
            f"empty twist range {text!r}; expected lo..hi with lo <= hi")
    if hi - lo >= TWISTS_MAX:
        raise argparse.ArgumentTypeError(
            f"at most {TWISTS_MAX} twists, got {hi - lo + 1}")
    return range(lo, hi + 1)


def _cutoff_arg(text: str):
    return "auto" if text == "auto" else _at_most(LEVEL_MAX)(text)


def _arg(*flags, **kwargs):
    """One argument spec: the positional and keyword arguments of add_argument."""
    return flags, kwargs


_JSON = _arg("--json")
_SIDE = _arg("--side", choices=("plus", "minus"), required=True)
_W = _arg("--w", type=_window_w_arg, required=True, help="w0,w1,w2")
_LAM = _arg("lam", type=_weight_arg)
_MU = _arg("mu", type=_weight_arg, action=_LRBoxes,
           help=f"a partition; |lam| + |mu| is at most {LR_MAX_BOXES}")

_GROUP_HELP = {
    "lr": "Littlewood-Richardson products",
    "weyl": "Weyl dimension formula",
    "bwb": "Bott cohomology of one bundle",
    "tilting": "pretilting checks",
    "suite": "fixed verification suites",
    "euler": "graded Euler characteristics",
    "windows": "graded-restriction windows",
    "kn": "Kempf-Ness solver and strata",
    "collections": "exceptional collections and resolutions",
}

# One row per leaf command, in help order: (command words, help, argument
# specs, handler).  A command word before the last names a group in _GROUP_HELP.
COMMANDS = (
    (("lr", "mult"), "expand a product of two partitions", (_LAM, _MU), _cmd_lr_mult),
    (("lr", "coeff"), "one LR coefficient",
     (_arg("nu", type=_weight_arg), _LAM, _MU), _cmd_lr_coeff),
    (("weyl", "dim"), "dimension of a GL(m) irreducible",
     (_LAM,
      _arg("m", type=_at_most(WEYL_MAX_M), help=f"the rank of GL(m), at most {WEYL_MAX_M}")),
     _cmd_weyl),
    (("bwb", "cohom"), "cohomology of a bundle literal",
     (_arg("bundle", nargs="+", help="bundle literal, e.g. gr(2,5) u=[0,0] q=[3,3,3]"),
      _JSON), _cmd_bwb),
    (("ext-total",), "Ext table on a total space",
     (_arg("--model", choices=sorted(MODELS), required=True),
      _arg("--left", required=True),
      _arg("--right", required=True),
      _arg("--cutoff", type=_cutoff_arg, default="auto",
           help=f"'auto' or the last fiber level, at most {LEVEL_MAX}"),
      _arg("--sets", help="bundle-set file defining named sums"),
      _JSON), _cmd_ext_total),
    (("tilting", "check"), "self-Ext vanishing of a window bundle",
     (_arg("--model", choices=("xplus",), default="xplus"),
      _arg("--window", choices=data.PLUS_SETS, required=True),
      _JSON), _cmd_tilting),
    (("suite", "minus-vanishing"), "minus-side vanishing battery", (_JSON,), _cmd_suite),
    (("euler", "compare"), "cross-side graded comparison",
     (_arg("--star", choices=data.WINDOW_NAMES, required=True),
      _arg("--max-l", type=_at_most(LEVEL_MAX), default=8,
           help=f"the last fiber level, at most {LEVEL_MAX}"),
      _JSON), _cmd_euler),
    (("windows", "enumerate"), "all weights of a window", (_SIDE, _W, _JSON),
     _cmd_windows_enumerate),
    (("windows", "member"), "membership of one weight",
     (_arg("--chi", type=_weight_arg, required=True), _SIDE, _W, _JSON),
     _cmd_windows_member),
    (("kn", "solve"), "destabilizing value over a cone",
     (_arg("--character", choices=sorted(CHARACTERS), required=True),
      _arg("--support", default="",
           help=f"comma-separated among {','.join(sorted(TORUS_WEIGHTS))}"),
      _JSON), _cmd_kn_solve),
    (("kn", "strata"), "curated group-level strata", (_SIDE, _JSON), _cmd_kn_strata),
    (("collections", "check"), "exceptional/semiorthogonal/strong checks",
     (_arg("--name", choices=data.COLLECTION_NAMES, required=True), _JSON),
     _cmd_collections_check),
    (("collections", "resolve"), "K-theory witness of a resolution",
     (_arg("--name", choices=data.RESOLUTION_NAMES, required=True),
      _arg("--twists", type=_twists_arg, default=range(-3, 4),
           help="twist range lo..hi (default -3..3)"),
      _JSON), _cmd_collections_resolve),
    (("verify-all",), "run the full verification battery", (_JSON,), _cmd_verify_all),
)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of every command or, when argv[0] is a command word, of
    that word's commands alone.  A partial tree names every command word in
    its metavar, so that its usage lines read as the whole tree's."""
    parser = argparse.ArgumentParser(
        prog="grflop",
        description="Exact cohomology of homogeneous bundles on Grassmannians, "
                    "with tilting/window verification suites.")
    parser.add_argument("--version", action="version", version=f"grflop {__version__}")
    rows = [row for row in COMMANDS if argv and row[0][0] == argv[0]]
    metavar = "{" + ",".join(dict.fromkeys(row[0][0] for row in COMMANDS)) + "}"
    subparsers = {(): parser.add_subparsers(dest="command", required=True,
                                            metavar=metavar if rows else None)}
    for words, help_text, specs, handler in rows or COMMANDS:
        group = words[:-1]
        if group not in subparsers:
            subparsers[group] = subparsers[()].add_parser(
                group[0], help=_GROUP_HELP[group[0]]).add_subparsers(
                dest="action", required=True)
        p = subparsers[group].add_parser(words[-1], help=help_text)
        for flags, kwargs in specs:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=handler)
    return parser


def _dispatch(args) -> int:
    """Run the command; write its report for --json; exit 1 exactly when a
    check failed.  The OK/FAIL line appears when the report has a pass or
    fail check."""
    report = args.func(args)
    if report is None:
        return EXIT_OK
    if args.json == "-":
        report.write(sys.stdout)
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            report.write(fh)
    if report.failed:
        print(f"FAIL ({len(report.failed)} of {len(report.checks)} checks)")
        return EXIT_FAIL
    if any(c["status"] != "info" for c in report.checks):
        print(f"OK ({len(report.checks)} checks)")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # Whatever is still buffered goes to devnull, so the flush at exit
        # cannot raise again.
        sys.stdout = open(os.devnull, "w")
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, not bad input: one line and its own exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


# What the import built (modules, classes, functions, tables) lives until
# exit: frozen, it is left out of every later collection, the one at exit
# included.  Not in main(), which a test process calls many times, freezing
# each call's garbage for good; not in the package init, which would freeze
# the heap of every program that imports the library.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
