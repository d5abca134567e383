"""The handlers of the command-line frontend: each one runs one leaf command
of ``cli.COMMANDS``, prints its table and returns a Report (None for a pure
query).

They live apart from ``cli`` for memory.  A process without cached bytecode
parses every module; the parser needs about 3 KiB per source line, and its
pages stay resident after it is done, so the longest parses set the process's
peak.  No module is over 300 lines: ``cli`` and this module split the
frontend, ``flags`` and ``homog`` the bundles, ``kempf_ness`` and
``stability`` the GIT data.
"""

from __future__ import annotations

from math import prod

from . import data
from .bundleset import parse_bundle, parse_set_file
from .exceptional import (builtin_collection, builtin_resolution,
                          check_collection, check_resolution)
from .filtered import euler_cross_check, vanishing_suite
from .homog import BundleSum, _block_bound, structure_sheaf
from .kempf_ness import ConeProblem, kn_adapted, kn_stratification
from .partitions import lr_coefficient, lr_mult, weyl_dim
from .report import Report
from .stability import hl_enumerate, hl_membership
from .total_space import MODELS, _product, ext_table, is_pretilting, stable_cutoff
from .verify import verify_all

# `weyl dim` takes O(m^2) big-integer products, so a larger m is refused as a
# usage error instead of running for minutes; so is a `bwb cohom` space of
# ambient dimension n past it, since Bott takes a Weyl dimension for GL(n).
WEYL_MAX_M = 100
# `ext-total --cutoff` builds one row and `euler compare --max-l` one Euler
# number per fiber level up to this bound, each costlier than the last: on a
# 2-vCPU VM, in process, kapranov's self-Ext rows 0..100 take 0.12 s (0..400
# 0.45 s), heart's Euler numbers 0..100 0.03 s.  It bounds `--cutoff auto` too.
LEVEL_MAX = 100
# `ext-total` builds dual(left) (x) right first, refused past this
# _summand_bound before any tensor.  Products are cheap next to rows: on a
# 2-vCPU VM, in process, u=[30,15,0] against itself, at the limit, builds
# and bounds in 0.03 s.  The built-in sets reach 183.
SUMMANDS_MAX = 4096
# Rows 0..N are the product against term(0..N), refused past this
# _summand_bound of the two, so `--cutoff N` and `auto` at l0 = N decide
# alike.  Whole processes, text (`--json -`), best of 5 on a 2-vCPU VM:
# heart against kapranov at 100, the built-in top, 14,397, 0.2 s (0.3 s);
# o against u=[50,0,-50] at auto 23,426, 0.3 s (0.7 s); o against
# u=[8,0,-38] at 100, the slowest found, 29,601, 0.4 s (0.8 s).  A limit
# admitting u=[16,8,0] against itself (96,609; 0.44 s in process) admits o
# against u=[90,70,0] at 100 (97,797; 2.2 s), near the refused o against
# u=[100,50,0] at 100 (140,226; 3.1 s).
TABLE_SUMMANDS_MAX = 30000


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
          f"(certified cutoff {result.certificate.l0})")
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
    strata = kn_stratification(args.side)
    error = next((s.error for s in strata if s.error), None)
    if error:
        report.add("strata", "fail", {"error": error})
        print(f"FAIL: {error}")
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
