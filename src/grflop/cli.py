"""Command-line frontend.

Exit codes: 0 for success (or a pure query), 1 when a verification check
fails, 2 for usage errors, 3 for an internal error (a bug; one line on stderr,
no traceback).  ``--json PATH`` writes the machine-readable report; tables go
to stdout either way.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, data
from .bundleset import parse_bundle, parse_set_file
from .exceptional import (builtin_collection, builtin_resolution,
                          check_collection, check_resolution)
from .filtered import euler_cross_check, vanishing_suite
from .homog import BundleSum
from .partitions import as_partition, as_weight, lr_coefficient, lr_mult, weyl_dim
from .report import Report
from .stability import (CHARACTERS, TORUS_WEIGHTS, ConeProblem, hl_enumerate,
                        hl_membership, kn_adapted, kn_stratification)
from .total_space import MODELS, ext_table, is_pretilting
from .verify import verify_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# `weyl dim` takes O(m^2) big-integer products, so a larger m is refused as a
# usage error instead of running for minutes.
WEYL_MAX_M = 100
# `ext-total --cutoff` and `euler compare --max-l` compute one tensor product
# per fiber level up to this bound, each costlier than the last: level 100
# takes about a second, level 400 several.
LEVEL_MAX = 100
# `lr mult` and `lr coeff` expand the whole LR product, whose cost grows
# steeply with the number of boxes: the worst shapes found take about a second
# at 36 boxes and two at 40.
LR_MAX_BOXES = 36


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


def _nonneg_int_arg(text: str) -> int:
    try:
        v = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}") from exc
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {v}")
    return v


def _level_arg(text: str) -> int:
    v = _nonneg_int_arg(text)
    if v > LEVEL_MAX:
        raise argparse.ArgumentTypeError(f"must be at most {LEVEL_MAX}, got {v}")
    return v


def _weyl_m_arg(text: str) -> int:
    m = _nonneg_int_arg(text)
    if m > WEYL_MAX_M:
        raise argparse.ArgumentTypeError(f"must be at most {WEYL_MAX_M}, got {m}")
    return m


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
        twists = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected lo..hi or one integer, got {text!r}") from exc
    if not twists:
        raise argparse.ArgumentTypeError(
            f"empty twist range {text!r}; expected lo..hi with lo <= hi")
    return twists


def _cutoff_arg(text: str):
    if text == "auto":
        return "auto"
    try:
        v = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("cutoff must be 'auto' or an integer") from exc
    if v < 0:
        raise argparse.ArgumentTypeError("cutoff must be nonnegative")
    if v > LEVEL_MAX:
        raise argparse.ArgumentTypeError(f"cutoff must be at most {LEVEL_MAX}, got {v}")
    return v


def _resolve_set(name: str, sets_path: str | None, base) -> BundleSum:
    """A named bundle sum: a section of a set file, a built-in window name,
    or 'o' for the structure sheaf of the model's base."""
    if sets_path:
        with open(sets_path, encoding="utf-8") as fh:
            sets = parse_set_file(fh.read())
        if name in sets:
            return sets[name]
        raise ValueError(f"set {name!r} not found in {sets_path}")
    if name == "o":
        from .homog import structure_sheaf
        return BundleSum.of(base, [structure_sheaf(base)])
    if name in data.WINDOW_WEIGHTS or name == "kapranov":
        return data.window_sum_plus(name)
    raise ValueError(f"unknown set {name!r}; pass --sets FILE or use one of "
                     f"o, {', '.join(data.WINDOW_NAMES)}, kapranov")


def _emit(report: Report, json_path: str | None) -> None:
    if json_path:
        text = report.to_json_text()
        if json_path == "-":
            sys.stdout.write(text)
        else:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _finish(report: Report, json_path: str | None) -> int:
    _emit(report, json_path)
    if report.failed:
        print(f"FAIL ({len(report.failed)} of {len(report.checks)} checks)")
        return EXIT_FAIL
    print(f"OK ({len(report.checks)} checks)")
    return EXIT_OK


def _fmt_cohomology(c) -> str:
    if c.is_acyclic:
        return "acyclic"
    return f"degree {c.degree}, weight {list(c.weight)}, dim {c.dim}"


def _cmd_lr(args) -> int:
    if args.action == "mult":
        result = lr_mult(as_partition(args.lam), as_partition(args.mu))
        for w, c in result:
            print(f"{c}  {list(w)}")
    else:
        print(lr_coefficient(as_partition(args.nu), as_partition(args.lam),
                             as_partition(args.mu)))
    return EXIT_OK


def _cmd_weyl(args) -> int:
    print(weyl_dim(as_weight(args.lam), args.m))
    return EXIT_OK


def _cmd_bwb(args) -> int:
    bundle = parse_bundle(" ".join(args.bundle))
    c = bundle.cohomology()
    print(f"{bundle.literal()}")
    print(_fmt_cohomology(c))
    if args.json:
        report = Report("bwb cohom", {"bundle": bundle.literal()})
        payload = {"acyclic": True} if c.is_acyclic else \
            {"acyclic": False, "degree": c.degree, "weight": list(c.weight), "dim": c.dim}
        report.add("cohomology", "info", payload)
        _emit(report, args.json)
    return EXIT_OK


def _cmd_ext_total(args) -> int:
    model = MODELS[args.model]
    left = _resolve_set(args.left, args.sets, model.base)
    right = _resolve_set(args.right, args.sets, model.base)
    table = ext_table(model, left, right, args.cutoff)
    print(f"model {model.name}, cutoff {table.cutoff}"
          + (f" (auto, l0={table.certificate.l0})" if table.certificate else ""))
    for level, degree, dim in table.level_degree_dims():
        print(f"  level {level}  degree {degree}  dim {dim}")
    print(f"any higher cohomology: {table.any_higher_cohomology}")
    report = Report("ext-total", {"model": args.model, "left": args.left,
                                  "right": args.right, "cutoff": str(args.cutoff)})
    report.add("ext-table", "info", table)
    _emit(report, args.json)
    return EXIT_OK


def _cmd_tilting(args) -> int:
    bundle = data.window_sum_plus(args.window)
    result = is_pretilting(MODELS[args.model], bundle)
    report = Report("tilting check", {"model": args.model, "window": args.window})
    report.add_bool(f"tilting-{args.model}-{args.window}", result.ok, result)
    status = "pretilting" if result.ok else "NOT pretilting"
    print(f"window {args.window} on {args.model}: {status} "
          f"(certified cutoff {result.table.cutoff})")
    for level, bundle_, degree, dim in result.witnesses:
        print(f"  witness: level {level}, {bundle_.literal()}, degree {degree}, dim {dim}")
    return _finish(report, args.json)


def _cmd_suite(args) -> int:
    report = Report("suite minus-vanishing")
    for item in vanishing_suite():
        report.add_bool(item.check_id, item.passed, item.details)
        print(f"{'PASS' if item.passed else 'FAIL'}  {item.check_id}: {item.description}")
    return _finish(report, args.json)


def _cmd_euler(args) -> int:
    result = euler_cross_check(args.star, args.max_l)
    report = Report("euler compare", {"star": args.star, "max_l": args.max_l})
    report.add_bool(f"euler-cross-{args.star}",
                    result["equal"] and not result["plus_has_higher"], result)
    print(f"window {args.star}, levels 0..{args.max_l}")
    print(f"  minus side: {result['minus']}")
    print(f"  plus side:  {result['plus']}")
    return _finish(report, args.json)


def _cmd_windows(args) -> int:
    if args.action == "enumerate":
        weights = hl_enumerate(args.w, args.side)
        for chi in weights:
            print(list(chi))
        print(f"{len(weights)} weights")
        report = Report("windows enumerate", {"side": args.side, "w": list(args.w)})
        report.add("weights", "info", [list(x) for x in weights])
        _emit(report, args.json)
        return EXIT_OK
    membership = hl_membership(args.chi, args.w, args.side)
    print("member" if membership.member else "not a member")
    for reason in membership.failed:
        print(f"  fails {reason}")
    report = Report("windows member", {"side": args.side, "w": list(args.w),
                                       "chi": list(args.chi)})
    report.add("membership", "info", {"member": membership.member,
                                      "failed": list(membership.failed)})
    _emit(report, args.json)
    return EXIT_OK


def _cmd_kn(args) -> int:
    if args.action == "solve":
        supports = tuple(s for s in args.support.split(",") if s) if args.support else ()
        problem = ConeProblem(supports, args.character)
        solution = kn_adapted(problem)
        if solution.destabilizing:
            print(f"value_sq = {solution.value_sq} "
                  f"(M = -sqrt({solution.value_sq})), minimizer {list(solution.minimizer)}")
        else:
            print("nonnegative (no destabilizing direction)")
        report = Report("kn solve", {"character": args.character,
                                     "support": list(supports)})
        report.add("solution", "info", solution)
        _emit(report, args.json)
        return EXIT_OK
    report = Report("kn strata", {"side": args.side})
    try:
        strata = kn_stratification(args.side)
    except AssertionError as exc:
        report.add("strata", "fail", {"error": str(exc)})
        print(f"FAIL: {exc}")
        _emit(report, args.json)
        return EXIT_FAIL
    for s in strata:
        print(f"M^2 = {s.value_sq}, weight {list(s.weight)}  ({s.description})")
    report.add("strata", "info", [s for s in strata])
    _emit(report, args.json)
    return EXIT_OK


def _cmd_collections(args) -> int:
    if args.action == "check":
        rep = check_collection(builtin_collection(args.name))
        report = Report("collections check", {"name": args.name})
        report.add_bool(f"collection-{args.name}", rep.passed, rep)
        print(f"collection {args.name}: {'passes' if rep.passed else 'FAILS'} "
              f"({len(rep.collection.objects)} objects)")
        for v in rep.violations:
            print(f"  {v.kind}: objects ({v.source} -> {v.target}), "
                  f"degree {v.degree}, dim {v.dim}")
        return _finish(report, args.json)
    rep = check_resolution(builtin_resolution(args.name), args.twists)
    report = Report("collections resolve", {"name": args.name,
                                            "twists": [args.twists[0], args.twists[-1]]})
    report.add_bool(f"resolution-{args.name}", rep.passed, rep)
    print(f"resolution {args.name}: rank sum {rep.rank_sum}, "
          f"euler sums {[s for _, s in rep.euler_sums]}")
    return _finish(report, args.json)


def _cmd_verify_all(args) -> int:
    report = verify_all()
    for check in report.checks:
        print(f"{check['status'].upper():4}  {check['id']}")
    return _finish(report, args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grflop",
        description="Exact cohomology of homogeneous bundles on Grassmannians, "
                    "with tilting/window verification suites.")
    parser.add_argument("--version", action="version", version=f"grflop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lr", help="Littlewood-Richardson products")
    lr_sub = p.add_subparsers(dest="action", required=True)
    mu_help = f"a partition; |lam| + |mu| is at most {LR_MAX_BOXES}"
    q = lr_sub.add_parser("mult", help="expand a product of two partitions")
    q.add_argument("lam", type=_weight_arg)
    q.add_argument("mu", type=_weight_arg, action=_LRBoxes, help=mu_help)
    q.set_defaults(func=_cmd_lr)
    q = lr_sub.add_parser("coeff", help="one LR coefficient")
    q.add_argument("nu", type=_weight_arg)
    q.add_argument("lam", type=_weight_arg)
    q.add_argument("mu", type=_weight_arg, action=_LRBoxes, help=mu_help)
    q.set_defaults(func=_cmd_lr)

    p = sub.add_parser("weyl", help="Weyl dimension formula")
    weyl_sub = p.add_subparsers(dest="action", required=True)
    q = weyl_sub.add_parser("dim", help="dimension of a GL(m) irreducible")
    q.add_argument("lam", type=_weight_arg)
    q.add_argument("m", type=_weyl_m_arg, help=f"the rank of GL(m), at most {WEYL_MAX_M}")
    q.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("bwb", help="Bott cohomology of one bundle")
    bwb_sub = p.add_subparsers(dest="action", required=True)
    q = bwb_sub.add_parser("cohom", help="cohomology of a bundle literal")
    q.add_argument("bundle", nargs="+",
                   help="bundle literal, e.g. gr(2,5) u=[0,0] q=[3,3,3]")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_bwb)

    p = sub.add_parser("ext-total", help="Ext table on a total space")
    p.add_argument("--model", choices=sorted(MODELS), required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--cutoff", type=_cutoff_arg, default="auto",
                   help=f"'auto' or the last fiber level, at most {LEVEL_MAX}")
    p.add_argument("--sets", help="bundle-set file defining named sums")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_ext_total)

    p = sub.add_parser("tilting", help="pretilting checks")
    tilting_sub = p.add_subparsers(dest="action", required=True)
    q = tilting_sub.add_parser("check", help="self-Ext vanishing of a window bundle")
    q.add_argument("--model", choices=("xplus",), default="xplus")
    q.add_argument("--window", choices=data.WINDOW_NAMES + ("kapranov",), required=True)
    q.add_argument("--json")
    q.set_defaults(func=_cmd_tilting)

    p = sub.add_parser("suite", help="fixed verification suites")
    suite_sub = p.add_subparsers(dest="action", required=True)
    q = suite_sub.add_parser("minus-vanishing", help="minus-side vanishing battery")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_suite)

    p = sub.add_parser("euler", help="graded Euler characteristics")
    euler_sub = p.add_subparsers(dest="action", required=True)
    q = euler_sub.add_parser("compare", help="cross-side graded comparison")
    q.add_argument("--star", choices=data.WINDOW_NAMES, required=True)
    q.add_argument("--max-l", type=_level_arg, default=8,
                   help=f"the last fiber level, at most {LEVEL_MAX}")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_euler)

    p = sub.add_parser("windows", help="graded-restriction windows")
    win_sub = p.add_subparsers(dest="action", required=True)
    q = win_sub.add_parser("enumerate", help="all weights of a window")
    q.add_argument("--side", choices=("plus", "minus"), required=True)
    q.add_argument("--w", type=_window_w_arg, required=True, help="w0,w1,w2")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_windows)
    q = win_sub.add_parser("member", help="membership of one weight")
    q.add_argument("--chi", type=_weight_arg, required=True)
    q.add_argument("--side", choices=("plus", "minus"), required=True)
    q.add_argument("--w", type=_window_w_arg, required=True, help="w0,w1,w2")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_windows)

    p = sub.add_parser("kn", help="Kempf-Ness solver and strata")
    kn_sub = p.add_subparsers(dest="action", required=True)
    q = kn_sub.add_parser("solve", help="destabilizing value over a cone")
    q.add_argument("--character", choices=sorted(CHARACTERS), required=True)
    q.add_argument("--support", default="",
                   help=f"comma-separated among {','.join(sorted(TORUS_WEIGHTS))}")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_kn)
    q = kn_sub.add_parser("strata", help="curated group-level strata")
    q.add_argument("--side", choices=("plus", "minus"), required=True)
    q.add_argument("--json")
    q.set_defaults(func=_cmd_kn)

    p = sub.add_parser("collections", help="exceptional collections and resolutions")
    coll_sub = p.add_subparsers(dest="action", required=True)
    q = coll_sub.add_parser("check", help="exceptional/semiorthogonal/strong checks")
    q.add_argument("--name", choices=data.COLLECTION_NAMES, required=True)
    q.add_argument("--json")
    q.set_defaults(func=_cmd_collections)
    q = coll_sub.add_parser("resolve", help="K-theory witness of a resolution")
    q.add_argument("--name", choices=data.RESOLUTION_NAMES, required=True)
    q.add_argument("--twists", type=_twists_arg, default=range(-3, 4),
                   help="twist range lo..hi (default -3..3)")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_collections)

    p = sub.add_parser("verify-all", help="run the full verification battery")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, not bad input: one line and its own exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
