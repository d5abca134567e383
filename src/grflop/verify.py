"""The full verification battery behind ``grflop verify-all``.

Every check is exact; a record is ``pass`` only if an integer identity holds
on the nose.  The battery covers: plus-side window pretilting with certified
cutoffs, the classical box collection's pullback, the minus-side vanishing
suite, exceptional-collection checks with a negative control, resolution
K-theory witnesses, graded-restriction window enumeration with the size-six
bound, the Kempf-Ness solver against its curated strata, the cross-side
graded Euler comparison, and report determinism.
"""

from __future__ import annotations

from . import data
from .exceptional import (ExceptionalCollection, builtin_collection,
                          builtin_resolution, check_collection, check_resolution)
from .filtered import euler_cross_check, vanishing_suite
from .flags import GR25
from .homog import line_bundle, structure_sheaf
from .kempf_ness import _stratum, kn_stratification
from .report import Report
from .stability import hl_enumerate, hl_max_size
from .total_space import XPLUS, is_pretilting


def _check_tilting(report: Report) -> None:
    results = {name: is_pretilting(XPLUS, data.window_sum_plus(name))
               for name in data.PLUS_SETS}
    for star in data.WINDOW_NAMES:
        report.add_bool(f"tilting-xplus-{star}", results[star].ok, results[star])
    cert = results["spade"].certificate
    report.add_bool("cutoff-spade-equals-4", cert.l0 == 4, cert)
    report.add_bool("tilting-xplus-kapranov", results["kapranov"].ok, results["kapranov"])


def _check_vanishing(report: Report) -> None:
    for item in vanishing_suite():
        report.add_bool(item.check_id, item.passed, item.details)


def _check_collections(report: Report) -> None:
    for name in data.COLLECTION_NAMES:
        rep = check_collection(builtin_collection(name))
        report.add_bool(f"collection-{name}", rep.passed, rep)
    control = ExceptionalCollection(
        "negative-control", GR25,
        (line_bundle(GR25, 5), structure_sheaf(GR25)))
    rep = check_collection(control)
    expected_witness = any(v.degree == 6 and v.dim == 1 for v in rep.violations)
    report.add_bool("collection-negative-control-fails",
                    (not rep.passed) and expected_witness, rep)


def _check_resolutions(report: Report) -> None:
    for name in data.RESOLUTION_NAMES:
        rep = check_resolution(builtin_resolution(name))
        report.add_bool(f"resolution-{name}", rep.passed, rep)


def _check_windows(report: Report) -> None:
    for (side, w), expected in data.HL_EXPECTED.items():
        got = hl_enumerate(w, side)
        report.add_bool(
            f"hl-{side}-{'_'.join(str(x) for x in w)}",
            got == tuple(sorted(expected)),
            {"expected": sorted(expected), "got": got})
    worst, worst_w = hl_max_size("minus", -10, 10)
    report.add_bool("hl-minus-size-bound", worst <= 6,
                    {"max_size": worst, "attained_at": worst_w, "box": "[-10,10]^3"})


def _check_kempf_ness(report: Report) -> None:
    strata = {side: kn_stratification(side) for side in ("plus", "minus")}
    absorbed = _stratum("minus", data.KN_ABSORBED_MINUS)
    for s in (*strata["plus"], *strata["minus"], absorbed):
        report.add_bool(
            f"kn-{s.problem.character}-{'_'.join(s.problem.supports)}", s.error is None,
            {"expected_value_sq": s.value_sq, "expected_ray": s.weight, "got": s.solution})
    for side, found in strata.items():
        error = next((s.error for s in found if s.error), None)
        if error is None:
            report.add(f"kn-strata-{side}", "pass", {"strata": found})
        else:
            report.add(f"kn-strata-{side}", "fail", {"error": error})


def _check_euler(report: Report) -> None:
    for star in data.WINDOW_NAMES:
        result = euler_cross_check(star, 8)
        report.add_bool(f"euler-cross-{result['star']}",
                        result["equal"] and not result["plus_has_higher"], result)


def _check_determinism(report: Report) -> None:
    probe = Report("determinism-probe", {"w": [-7, -4, -1]})
    probe.add("hl-sample", "info",
              {"weights": hl_enumerate((-7, -4, -1), "plus")})
    report.add_bool("report-determinism",
                    probe.to_json_text() == probe.to_json_text(), {})


def verify_all() -> Report:
    """Run the whole battery and return the aggregate report."""
    report = Report("verify-all")
    for step in (_check_tilting, _check_vanishing, _check_collections,
                 _check_resolutions, _check_windows, _check_kempf_ness,
                 _check_euler, _check_determinism):
        step(report)
    return report
