"""Acceptance suite: the program's exit criteria, one test per criterion.

Every check is exact (integer or rational equality, zero tolerance).  A
pass/fail line per criterion is printed, so `pytest -s tests/test_acceptance.py`
doubles as a human-readable report.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import grflop
from grflop import data
from grflop.exceptional import (ExceptionalCollection, builtin_collection,
                                builtin_resolution, check_collection,
                                check_resolution, ext_groups)
from grflop.filtered import euler_cross_check, vanishing_suite
from grflop.homog import (GR25, GR35, HomogeneousBundle, line_bundle,
                          structure_sheaf)
from grflop.partitions import lr_mult
from grflop.report import Report
from grflop.stability import ConeProblem, hl_enumerate, kn_adapted
from grflop.total_space import XPLUS, is_pretilting, stable_cutoff
from helpers import exact


def _line(number: int, title: str, ok: bool) -> None:
    print(f"criterion {number} [{'PASS' if ok else 'FAIL'}] {title}")


def test_criterion_1_plus_side_tilting():
    """Four window bundles pretilting on the plus side; certified cutoff 4."""
    ok = True
    for star in data.WINDOW_NAMES:
        result = is_pretilting(XPLUS, data.window_sum_plus(star))
        ok = ok and result.ok and result.witnesses == ()
    spade = data.window_sum_plus("spade")
    cutoff = stable_cutoff(XPLUS, spade, spade).l0
    ok = ok and cutoff == 4
    _line(1, "plus-side window bundles pretilting, spade cutoff = 4", ok)
    assert ok
    assert cutoff == 4


def test_criterion_2_box_collection_pullback():
    """The pullback of the box collection's sum is pretilting on the plus side."""
    result = is_pretilting(XPLUS, data.window_sum_plus("kapranov"))
    _line(2, "box-collection pullback pretilting", result.ok)
    assert result.ok


def test_criterion_3_minus_side_vanishing():
    """Every block of the minus-side vanishing suite passes."""
    items = vanishing_suite()
    ok = all(item.passed for item in items) and len(items) == 19
    _line(3, f"minus-side vanishing suite ({len(items)} checks)", ok)
    assert ok, [item.check_id for item in items if not item.passed]


def test_criterion_4_exceptional_collections():
    """Four built-in collections pass all 100 ordered-pair checks each; the
    negative control fails with a one-dimensional degree-6 group."""
    ok = True
    for name in data.COLLECTION_NAMES:
        coll = builtin_collection(name)
        assert len(coll.objects) == 10
        report = check_collection(coll)
        ok = ok and report.passed
    control = ExceptionalCollection(
        "control", GR25, (line_bundle(GR25, 5), structure_sheaf(GR25)))
    control_report = check_collection(control)
    control_ok = (not control_report.passed
                  and ext_groups(line_bundle(GR25, 5), structure_sheaf(GR25)) == {6: 1})
    ok = ok and control_ok
    _line(4, "exceptional collections pass; negative control fails in degree 6", ok)
    assert ok


def test_criterion_5_resolution_witnesses():
    """Alternating rank sums vanish and the degree-signed cohomology sums
    cancel for every twist in [-3, 3]."""
    ok = True
    for name in data.RESOLUTION_NAMES:
        report = check_resolution(builtin_resolution(name), range(-3, 4))
        ok = ok and report.rank_sum == 0
        ok = ok and all(total == 0 for _, total in report.euler_sums)
    _line(5, "resolution K-theory witnesses over twists [-3,3]", ok)
    assert ok


def test_criterion_6_window_enumeration():
    """Reference windows reproduced element for element; minus-side windows
    never exceed six weights over the whole scan box."""
    plus = hl_enumerate((-7, -4, -1), "plus")
    minus = hl_enumerate((-7, -5, -2), "minus")
    ok = plus == tuple(sorted(data.HL_EXPECTED[("plus", (-7, -4, -1))]))
    ok = ok and minus == tuple(sorted(data.HL_EXPECTED[("minus", (-7, -5, -2))]))
    worst = 0
    for w0 in range(-10, 11):
        for w1 in range(-10, 11):
            for w2 in range(-10, 11):
                worst = max(worst, len(hl_enumerate((w0, w1, w2), "minus")))
    ok = ok and worst <= 6
    _line(6, f"window enumeration (sizes {len(plus)}/{len(minus)}, box max {worst})", ok)
    assert ok


def test_criterion_7_kempf_ness_values():
    """The solver reproduces every reference (M^2, ray) pair exactly."""
    cases = [
        (("q1", "q2", "q3"), "plus", Fraction(3), (1, 1, 1)),
        (("u3",), "plus", Fraction(2), (1, 1, 0)),
        (("u2", "u3"), "plus", Fraction(1), (1, 0, 0)),
        (("u1", "u2", "u3"), "minus", Fraction(3), (-1, -1, -1)),
        (("q3", "u2"), "minus", Fraction(1, 5), (1, 0, -2)),
        (("q2", "q3"), "minus", Fraction(1, 17), (3, -2, -2)),
        # the rescaled-slice stratum, validated against the curated record
        (("q3",), "minus", Fraction(2, 9), (1, 1, -4)),
    ]
    ok = True
    for supports, character, value_sq, ray in cases:
        solution = kn_adapted(ConeProblem(supports, character))
        ok = ok and exact(solution.value_sq) == exact(value_sq) and solution.minimizer == ray
    _line(7, "Kempf-Ness reference values (exact rationals)", ok)
    assert ok


def test_criterion_8_cross_side_graded_euler():
    """Minus-side graded Euler characteristics equal plus-side graded Hom
    dimensions: four windows, levels 0..8, 36 exact integers."""
    ok = True
    for star in data.WINDOW_NAMES:
        result = euler_cross_check(star, 8)
        ok = ok and result["equal"] and not result["plus_has_higher"]
        assert len(result["minus"]) == 9
    _line(8, "cross-side graded Euler agreement (4 windows x 9 levels)", ok)
    assert ok


class TestCriterion9PropertySuites:
    """Deterministic sweeps, each with at least a thousand cases."""

    def test_lr_properties(self):
        smalls = [p for n in range(7) for p in _partitions_of(n)]
        pairs = [(lam, mu) for lam in smalls for mu in smalls]
        assert len(pairs) >= 900
        cases = 0
        for lam, mu in pairs:
            left = lr_mult(lam, mu)
            assert left == lr_mult(mu, lam)
            for nu, c in left:
                assert sum(nu) == sum(lam) + sum(mu)
                assert c > 0
            cases += 1 + len(left)
        assert cases >= 1000
        _line(9, f"LR property sweep ({cases} cases)", True)

    @pytest.mark.parametrize("space,k", [(GR25, 2), (GR35, 3)])
    def test_serre_duality_and_shift_sweep(self, space, k):
        n = space.n
        top = k * (n - k)
        bundles = _all_bundles_pm4(space)
        assert len(bundles) >= 1000
        for e in bundles:
            c = e.cohomology()
            c_dual = e.dual().twist(-n).cohomology()
            if c.is_acyclic:
                assert c_dual.is_acyclic
            else:
                assert (c_dual.degree, c_dual.dim) == (top - c.degree, c.dim)
            shifted = HomogeneousBundle(
                space, tuple(tuple(x + 1 for x in b) for b in e.blocks))
            cs = shifted.cohomology()
            assert cs.is_acyclic == c.is_acyclic
            if not c.is_acyclic:
                assert (cs.degree, cs.dim) == (c.degree, c.dim)
        _line(9, f"Serre duality + shift sweep on {space} ({len(bundles)} bundles)",
              True)

    def test_dual_pretilting_pairing(self):
        for star, partner in (("spade", "club"), ("heart", "diamond")):
            t = data.window_sum_plus(star)
            assert data.window_sum_plus(partner) == t.dual()
            assert is_pretilting(XPLUS, t).ok
            assert is_pretilting(XPLUS, t.dual()).ok
        _line(9, "dual pretilting pairing", True)

    def test_report_determinism_sweep(self):
        cases = 0
        for w0 in range(-10, 11, 2):
            for w1 in range(-10, 11, 2):
                for w2 in range(-10, 11, 2):
                    report_a = _window_report((w0, w1, w2))
                    report_b = _window_report((w0, w1, w2))
                    assert report_a == report_b
                    cases += 1
        assert cases >= 1000
        _line(9, f"report determinism sweep ({cases} cases)", True)


_WORK_COUNTS = """
import json
from grflop import exceptional, filtered, homog, partitions, stability, total_space, verify
calls = {}

def counted(owner, name):
    function = getattr(owner, name)
    def wrapper(*args, **kwargs):
        key = f"{owner.__name__}.{name}"
        calls[key] = calls.get(key, 0) + 1
        return function(*args, **kwargs)
    setattr(owner, name, wrapper)

counted(homog, "gl_tensor")
counted(homog, "pieri")
counted(homog, "bott")
counted(homog.HomogeneousBundle, "__init__")
counted(verify, "hl_enumerate")
counted(stability, "kn_adapted")
verify.verify_all()
memos = (partitions._gl_tensor,
         homog._bott, stability._slot2_members, partitions.pieri,
         total_space._weyl_sum, total_space._dual_tensor, total_space._higher_ext,
         exceptional._ext_groups, filtered._plus_euler)
counts = {f.__name__: [f.cache_info().hits, f.cache_info().misses] for f in memos}
counts["maxsize"] = [f.cache_info().maxsize for f in memos[-6:]]
print(json.dumps(dict(counts, **calls)))
"""


def test_verify_all_work_counts():
    """One verify_all() in a fresh process makes a pinned number of memo hits
    and misses, a work count the wall clock of a noisy machine cannot show.

    - _higher_ext: 15 products certified, the pretilting checks' 3 and the
      vanishing suite's 12; 6 hits, club and diamond (the products of spade
      and heart) and euler_cross_check's reads of the four windows'
      witnesses.
    - _dual_tensor: the same 15 products and 6 hits (17 products and 8 hits
      in _product before club and diamond shared the products of their
      duals).
    - _ext_groups: 146 distinct pairs up to a common twist among the 411
      ext_groups calls of the collections and the vanishing suite (411
      computed before).
    - _gl_tensor, _bott and the window ranges: 1, 97 and 22 distinct inputs
      (_bott 118 before the live rows skipped row g - 1 of a term of gap g;
      1, 251 and 22 before the live rows; 107 and 771 before one-row blocks
      took Pieri's rule and the Euler step stopped building rows).
    - pieri 94 distinct inputs, 670 hits (470 while the _term_euler memo
      of (term, level) values answered 1,252 of its 2,057 calls and so
      took no block products for them; 98 and 505 before row g - 1 was
      skipped; 102 and 863 before the live rows).
    - _weyl_sum: 146 Euler kernel calls, one per product and level on the
      plus side and per shift sum and level on the minus side, which
      compile its function for the 2 block shapes, (3 | 2) and (2 | 3),
      and keep nothing else (before, _term_euler kept its 805 (term, level)
      values, 1,252 hits, 1,963 before club and diamond took the plus
      values of spade and heart).
    - _plus_euler: 2 products, 2 hits, club and diamond (new).
    - Calls at two import sites: the block products of homog take 2
      through gl_tensor (1,147 before Pieri's rule, 9,102 before constant
      blocks were shifted instead) and 764 through pieri (564 behind the
      _term_euler memo, 603 before row g - 1 was skipped, 965 before the
      live rows, 1,039 before club and diamond took the shift sums of
      spade and heart), and verify makes 3
      hl_enumerate calls (9,264 before the box sweep read the window range
      table).
    - HomogeneousBundle.cohomology makes 84 bott calls, all from the
      resolutions (518 before ext_groups and the live rows ran _bott on
      weights; 1,420 before the live rows and the twist-invariant
      ext_groups memo; 3,513 when the Euler step went through Bott), and
      306 bundles pass the validating
      HomogeneousBundle.__init__ (338 before club and diamond took the shift
      sums of spade and heart; 555 before term(l) built through _trusted
      and euler_cross_check built each plus window once; 1,132 before dual()
      built through _trusted).
    - stability.kn_adapted is called 7 times, once per curated Kempf-Ness
      record: six strata and the absorbed one (13 if each stratum were
      solved again to judge it).
    """
    src = str(Path(grflop.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _WORK_COUNTS],
                         env=dict(os.environ, PYTHONPATH=pythonpath), check=True,
                         capture_output=True, text=True, timeout=300).stdout
    counts = json.loads(out)
    assert [counts[name] for name in ("_higher_ext", "_dual_tensor", "_ext_groups",
                                      "_plus_euler")] == [[6, 15], [6, 15], [265, 146], [2, 2]]
    assert [counts[name][1] for name in ("_gl_tensor", "_bott", "_slot2_members")] == \
        [1, 97, 22]
    assert [counts[name] for name in ("pieri", "_weyl_sum")] == [[670, 94], [144, 2]]
    assert counts["maxsize"] == [4096, 16, 256, 256, 1024, 16]
    assert [counts["grflop.homog.gl_tensor"], counts["grflop.homog.pieri"],
            counts["grflop.verify.hl_enumerate"]] == [2, 764, 3]
    assert counts["grflop.stability.kn_adapted"] == 7
    assert [counts["grflop.homog.bott"], counts["HomogeneousBundle.__init__"]] == [84, 306]


def _window_report(w) -> str:
    report = Report("windows enumerate", {"side": "minus", "w": list(w)})
    report.add("weights", "info", [list(x) for x in hl_enumerate(w, "minus")])
    return report.to_json_text()


def _partitions_of(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for head in range(min(n, max_part), 0, -1):
        for tail in _partitions_of(n - head, head):
            out.append((head,) + tail)
    return out


def _all_bundles_pm4(space):
    def tuples(length):
        out = []

        def rec(prefix, lo):
            if len(prefix) == length:
                out.append(tuple(prefix))
                return
            for v in range(min(lo, 4), -5, -1):
                rec(prefix + [v], v)

        rec([], 4)
        return out

    options = [tuples(s) for s in space.block_sizes()]
    bundles = []

    def build(i, acc):
        if i == len(options):
            bundles.append(HomogeneousBundle(space, tuple(acc)))
            return
        for b in options[i]:
            build(i + 1, acc + [b])

    build(0, [])
    return bundles
