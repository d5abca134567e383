"""Command-line frontend.

Every leaf command is one row of ``COMMANDS``.  Its handler prints a table and
returns a Report (None for a pure query); ``_dispatch`` writes the report for
``--json PATH`` and picks the exit code.  Exit codes: 0 for success (or a pure
query), 1 exactly when the report has a failed check, 2 for usage errors, 3
for an internal error (a bug; one line on stderr, no traceback), and 141
(128 + SIGPIPE, as a shell reports for ``yes | head``) when the reader of
stdout closed it early, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from math import prod

from . import __version__, data
from .bundleset import parse_bundle, parse_set_file
from .exceptional import (builtin_collection, builtin_resolution,
                          check_collection, check_resolution)
from .filtered import euler_cross_check, vanishing_suite
from .homog import BundleSum, _block_bound, structure_sheaf
from .partitions import lr_coefficient, lr_mult, weyl_dim
from .report import Report
from .stability import (CHARACTERS, TORUS_WEIGHTS, ConeProblem, hl_enumerate,
                        hl_membership, kn_adapted, kn_stratification)
from .total_space import MODELS, _product, ext_table, is_pretilting, stable_cutoff
from .verify import verify_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141

# `weyl dim` takes O(m^2) big-integer products, so a larger m is refused as a
# usage error instead of running for minutes; so is a `bwb cohom` space of
# ambient dimension n past it, since Bott takes a Weyl dimension for GL(n).
WEYL_MAX_M = 100
# `ext-total --cutoff` and `euler compare --max-l` compute one tensor product
# per fiber level up to this bound, each costlier than the last: levels
# 0..100 of kapranov against itself take 0.2 s in process, levels 0..400
# about a second.  It bounds the certified l0 of `ext-total --cutoff auto` too.
LEVEL_MAX = 100
# `ext-total` builds dual(left) (x) right first, refused past this
# _summand_bound before any tensor.  Products are cheap next to rows: on a
# 2-vCPU VM, in process, u=[30,15,0] against itself, at the limit, builds
# and bounds in 0.03 s.  The built-in sets reach 183.
SUMMANDS_MAX = 4096
# Rows 0..N are the product against term(0..N), refused past this
# _summand_bound of the two, so `--cutoff N` and `auto` at l0 = N decide
# alike.  Whole processes, text (`--json -`): heart against kapranov at 100,
# the built-in top, 14,397, 0.6 s (0.9 s); o against u=[50,0,-50] at auto
# 23,426, 1.4 s (2.2 s); o against u=[8,0,-38] at 100, the slowest found,
# 29,601, 1.5 s (2.5 s).  A limit admitting u=[16,8,0] against itself
# (96,609; 0.44 s in process) admits o against u=[90,70,0] at 100 (97,797;
# 2.2 s), near the refused o against u=[100,50,0] at 100 (140,226; 3.1 s).
TABLE_SUMMANDS_MAX = 30000
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


def _resolve_set(name: str, sets: dict | None, sets_path: str | None, base) -> BundleSum:
    """A named bundle sum: a section of the set file parsed as `sets` (None
    without one), a name in data.PLUS_SETS, or 'o' for the structure sheaf of
    the model's base."""
    if sets is not None:
        if name in sets:
            return sets[name]
        raise ValueError(f"set {name!r} not found in {sets_path}")
    if name == "o":
        return BundleSum.of(base, [structure_sheaf(base)])
    if name in data.PLUS_SETS:
        return data.window_sum_plus(name)
    raise ValueError(f"unknown set {name!r}; pass --sets FILE or use one of "
                     f"o, {', '.join(data.PLUS_SETS)}")


def _cmd_lr_mult(args) -> None:
    for w, c in lr_mult(args.lam, args.mu):
        print(f"{c}  {list(w)}")


def _cmd_lr_coeff(args) -> None:
    print(lr_coefficient(args.nu, args.lam, args.mu))


def _cmd_weyl(args) -> None:
    print(weyl_dim(args.lam, args.m))


def _cmd_bwb(args) -> Report:
    bundle = parse_bundle(" ".join(args.bundle))
    if bundle.space.n > WEYL_MAX_M:
        raise ValueError(f"{bundle.space}: ambient n must be at most {WEYL_MAX_M}, "
                         f"got {bundle.space.n}")
    c = bundle.cohomology()
    print(bundle.literal())
    if c.is_acyclic:
        print("acyclic")
    else:
        print(f"degree {c.degree}, weight {list(c.weight)}, dim {c.dim}")
    report = Report("bwb cohom", {"bundle": bundle.literal()})
    report.add("cohomology", "info", c)
    return report


def _summand_bound(left, right, limit: int = SUMMANDS_MAX) -> int:
    """At least the block-product pairs that BundleSum.tensor walks for
    dual(left) (x) right or left (x) right: over pairs of distinct terms, the
    product of _block_bound over blocks.  Stops once past `limit`."""
    total = 0
    for s in left:
        for t in right:
            total += prod(map(_block_bound, s.blocks, t.blocks))
            if total > limit:
                return total
    return total


def _cmd_ext_total(args) -> Report:
    model = MODELS[args.model]
    sets = None
    if args.sets:
        # Read once for both sides: the file may be a pipe.
        with open(args.sets, encoding="utf-8") as fh:
            sets = parse_set_file(fh.read())
    left, right = (_resolve_set(name, sets, args.sets, model.base)
                   for name in (args.left, args.right))
    if _summand_bound(left, right) > SUMMANDS_MAX:
        raise ValueError(f"--left {args.left} --right {args.right}: dual(left) (x) right "
                         f"may have more than {SUMMANDS_MAX} summands, the limit")
    row = args.cutoff
    if row == "auto":
        row = stable_cutoff(model, left, right).l0
        if row > LEVEL_MAX:
            raise ValueError(f"--cutoff auto: the certified l0 = {row} is past "
                             f"the limit of {LEVEL_MAX} fiber levels")
    terms = [model.term(l) for l in range(row + 1)]
    bound = _summand_bound(_product(model, left, right), terms, TABLE_SUMMANDS_MAX)
    if bound > TABLE_SUMMANDS_MAX:
        raise ValueError(f"--cutoff {args.cutoff}: rows 0..{row} may have more than "
                         f"{TABLE_SUMMANDS_MAX} summands in all, the limit")
    table = ext_table(model, left, right, args.cutoff)
    print(f"model {model.name}, cutoff {table.cutoff}"
          + (f" (auto, l0={table.certificate.l0})" if table.certificate else ""))
    for level, degree, dim in table.level_degree_dims():
        print(f"  level {level}  degree {degree}  dim {dim}")
    print(f"any higher cohomology: {table.any_higher_cohomology}")
    report = Report("ext-total", {"model": args.model, "left": args.left,
                                  "right": args.right, "cutoff": str(args.cutoff)})
    report.add("ext-table", "info", table)
    return report


def _cmd_tilting(args) -> Report:
    result = is_pretilting(MODELS[args.model], data.window_sum_plus(args.window))
    status = "pretilting" if result.ok else "NOT pretilting"
    print(f"window {args.window} on {args.model}: {status} "
          f"(certified cutoff {result.table.cutoff})")
    for level, bundle, degree, dim in result.witnesses:
        print(f"  witness: level {level}, {bundle.literal()}, degree {degree}, dim {dim}")
    report = Report("tilting check", {"model": args.model, "window": args.window})
    report.add_bool(f"tilting-{args.model}-{args.window}", result.ok, result)
    return report


def _cmd_suite(args) -> Report:
    report = Report("suite minus-vanishing")
    for item in vanishing_suite():
        report.add_bool(item.check_id, item.passed, item.details)
        print(f"{'PASS' if item.passed else 'FAIL'}  {item.check_id}: {item.description}")
    return report


def _cmd_euler(args) -> Report:
    result = euler_cross_check(args.star, args.max_l)
    print(f"window {args.star}, levels 0..{args.max_l}")
    print(f"  minus side: {result['minus']}")
    print(f"  plus side:  {result['plus']}")
    report = Report("euler compare", {"star": args.star, "max_l": args.max_l})
    report.add_bool(f"euler-cross-{args.star}",
                    result["equal"] and not result["plus_has_higher"], result)
    return report


def _cmd_windows_enumerate(args) -> Report:
    weights = hl_enumerate(args.w, args.side)
    for chi in weights:
        print(list(chi))
    print(f"{len(weights)} weights")
    report = Report("windows enumerate", {"side": args.side, "w": list(args.w)})
    report.add("weights", "info", weights)
    return report


def _cmd_windows_member(args) -> Report:
    membership = hl_membership(args.chi, args.w, args.side)
    print("member" if membership.member else "not a member")
    for reason in membership.failed:
        print(f"  fails {reason}")
    report = Report("windows member", {"side": args.side, "w": list(args.w),
                                       "chi": list(args.chi)})
    report.add("membership", "info", {"member": membership.member,
                                      "failed": membership.failed})
    return report


def _cmd_kn_solve(args) -> Report:
    supports = tuple(s for s in args.support.split(",") if s)
    solution = kn_adapted(ConeProblem(supports, args.character))
    if solution.destabilizing:
        print(f"value_sq = {solution.value_sq} "
              f"(M = -sqrt({solution.value_sq})), minimizer {list(solution.minimizer)}")
    else:
        print("nonnegative (no destabilizing direction)")
    report = Report("kn solve", {"character": args.character, "support": list(supports)})
    report.add("solution", "info", solution)
    return report


def _cmd_kn_strata(args) -> Report:
    report = Report("kn strata", {"side": args.side})
    try:
        strata = kn_stratification(args.side)
    except AssertionError as exc:
        report.add("strata", "fail", {"error": str(exc)})
        print(f"FAIL: {exc}")
        return report
    for s in strata:
        print(f"M^2 = {s.value_sq}, weight {list(s.weight)}  ({s.description})")
    report.add("strata", "info", strata)
    return report


def _cmd_collections_check(args) -> Report:
    rep = check_collection(builtin_collection(args.name))
    print(f"collection {args.name}: {'passes' if rep.passed else 'FAILS'} "
          f"({len(rep.collection.objects)} objects)")
    for v in rep.violations:
        print(f"  {v.kind}: objects ({v.source} -> {v.target}), "
              f"degree {v.degree}, dim {v.dim}")
    report = Report("collections check", {"name": args.name})
    report.add_bool(f"collection-{args.name}", rep.passed, rep)
    return report


def _cmd_collections_resolve(args) -> Report:
    rep = check_resolution(builtin_resolution(args.name), args.twists)
    print(f"resolution {args.name}: rank sum {rep.rank_sum}, "
          f"euler sums {[s for _, s in rep.euler_sums]}")
    report = Report("collections resolve", {"name": args.name,
                                            "twists": [args.twists[0], args.twists[-1]]})
    report.add_bool(f"resolution-{args.name}", rep.passed, rep)
    return report


def _cmd_verify_all(args) -> Report:
    report = verify_all()
    for check in report.checks:
        print(f"{check['status'].upper():4}  {check['id']}")
    return report


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grflop",
        description="Exact cohomology of homogeneous bundles on Grassmannians, "
                    "with tilting/window verification suites.")
    parser.add_argument("--version", action="version", version=f"grflop {__version__}")
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for words, help_text, specs, handler in COMMANDS:
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
    if args.json:
        text = report.to_json_text()
        if args.json == "-":
            sys.stdout.write(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)
    if report.failed:
        print(f"FAIL ({len(report.failed)} of {len(report.checks)} checks)")
        return EXIT_FAIL
    if any(c["status"] != "info" for c in report.checks):
        print(f"OK ({len(report.checks)} checks)")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
