"""Window enumeration and the exact Kempf-Ness solver."""

import json
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from grflop import data, stability
from grflop.report import _write
from grflop.stability import (CHARACTERS, TORUS_WEIGHTS, ConeProblem,
                              KNSolution, Ratio, hl_enumerate, hl_max_size,
                              hl_membership, kn_adapted, kn_stratification)
from grflop.stability import _candidates, _in_window, _kn_solve, _slot2_members, _window
from helpers import exact, kn_exact, kn_reference


class TestMembership:
    def test_positive_example_plus(self):
        assert hl_membership((0, 0, 0), (-7, -4, -1), "plus").member

    def test_negative_example_plus(self):
        result = hl_membership((2, 2, 2), (-7, -4, -1), "plus")
        assert not result.member
        assert any(reason.startswith("b:") for reason in result.failed)

    def test_positive_example_minus(self):
        assert hl_membership((1, 1, 1), (-7, -5, -2), "minus").member

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            hl_membership((0, 0, 0), (0, 0, 0), "north")

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            hl_membership((0, 1, 0), (0, 0, 0), "plus")

    @pytest.mark.parametrize("w", [(0, 0), (0, 0, 0, 0)])
    def test_rejects_w_of_wrong_length(self, w):
        with pytest.raises(ValueError, match="w must have length 3"):
            hl_membership((0, 0, 0), w, "plus")

    def test_failure_texts(self):
        """Each failed inequality is named with its value and its range, in
        table order."""
        assert hl_membership((2, 2, 2), (-7, -4, -1), "plus").failed == (
            "b: pair(1,2) 4 not in [-4,4)", "b: pair(1,3) 4 not in [-4,4)",
            "b: pair(2,3) 4 not in [-4,4)", "c: entry(1) 2 not in [-1,2)",
            "c: entry(2) 2 not in [-1,2)", "c: entry(3) 2 not in [-1,2)")
        assert hl_membership((3, 0, -1), (-7, -5, -2), "minus").failed == (
            "b': pair(1,2) 7 not in [-5,5)", "b': pair(2,3) -13 not in [-5,5)",
            "c': (1,2) 3 not in [-2,2)", "c': (1,3) 5 not in [-2,2)",
            "c': (2,1) -6 not in [-2,2)", "c': (2,3) 2 not in [-2,2)",
            "c': (3,1) -7 not in [-2,2)")


class TestEnumerate:
    def test_plus_example_window(self):
        got = hl_enumerate((-7, -4, -1), "plus")
        assert got == tuple(sorted(data.HL_EXPECTED[("plus", (-7, -4, -1))]))
        assert len(got) == 10

    def test_minus_example_window(self):
        got = hl_enumerate((-7, -5, -2), "minus")
        assert got == tuple(sorted(data.HL_EXPECTED[("minus", (-7, -5, -2))]))
        assert len(got) == 6

    def test_minus_origin_small(self):
        assert len(hl_enumerate((0, 0, 0), "minus")) <= 6

    @pytest.mark.parametrize("w", [(0, 0), (0, 0, 0, 0)])
    def test_rejects_w_of_wrong_length(self, w):
        with pytest.raises(ValueError, match="w must have length 3"):
            hl_enumerate(w, "minus")

    def test_memo_is_bounded(self):
        assert _slot2_members.cache_info().maxsize == 4096

    @given(st.tuples(st.integers(-10, 10), st.integers(-10, 10),
                     st.integers(-10, 10)))
    @settings(max_examples=400, deadline=None)
    def test_round_trip(self, w):
        """Enumeration and membership agree on the minus search box."""
        members = set(hl_enumerate(w, "minus"))
        assert len(members) <= 6
        w0, w1, w2 = w
        for s in range(-2 * w2 - 6, -2 * w2 + 1):
            for d in range(0, 4):
                if (s + d) % 2:
                    continue
                a, c = (s + d) // 2, (s - d) // 2
                for b in range(c, a + 1):
                    chi = (a, b, c)
                    assert (chi in members) == hl_membership(chi, w, "minus").member

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_predicate_matches_membership(self, side):
        """The boolean predicate hl_enumerate filters with agrees with
        hl_membership on every weight it scans, and hl_enumerate, memoized
        per w[2], equals the box filtered through the whole window, for every
        w in [-10,10]^3."""
        for w in product(range(-10, 11), repeat=3):
            window = _window(w, side)
            for chi in _candidates(w, side):
                assert _in_window(chi, window) == hl_membership(chi, w, side).member
            assert hl_enumerate(w, side) == tuple(sorted(
                {chi for chi in _candidates(w, side) if _in_window(chi, window)}))

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_ranges_match_full_window(self, side):
        """hl_enumerate's two range tests per member equal filtering the box
        through every inequality of the window, for every w in
        [-25,25]^2 x [-12,12]."""
        for w2 in range(-12, 13):
            box = sorted(set(_candidates((0, 0, w2), side)))
            for w0, w1 in product(range(-25, 26), repeat=2):
                w = (w0, w1, w2)
                window = _window(w, side)
                assert hl_enumerate(w, side) == tuple(chi for chi in box
                                                      if _in_window(chi, window))

    def test_rejects_bad_input_cold_and_warm(self):
        """A bad side and a w of the wrong length raise the same errors
        before and after the memo holds entries for that w[2]."""
        _slot2_members.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^side must be 'plus' or 'minus'$"):
                hl_enumerate((0, 0, 0), "north")
            for w in [(0, 0), (0, 0, 0, 0)]:
                with pytest.raises(ValueError, match=r"^w must have length 3$"):
                    hl_enumerate(w, "minus")
            hl_enumerate((0, 0, 0), "plus")
            hl_enumerate((0, 0, 0), "minus")
        assert _slot2_members.cache_info().currsize == 2

    def test_minus_slot2_members(self):
        """On the minus side exactly six weights of the box pass the slot-2
        inequalities for every w[2], each with chi_1 - chi_3 <= 1."""
        for w2 in range(-30, 31):
            members = [chi for chi, *_ in _slot2_members("minus", w2)]
            assert len(members) == 6
            assert max(chi[0] - chi[2] for chi in members) <= 1

    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("lo, hi", [(-10, 10), (-3, 17), (4, 4), (-30, -25)])
    def test_max_size_matches_loop(self, side, lo, hi):
        """hl_max_size equals the loop over the box [lo, hi]^3: the size and
        the first w attaining it (None on a box whose windows are all empty,
        as [-30,-25]^3 on the plus side)."""
        assert hl_max_size(side, lo, hi) == max_size_by_loop(side, lo, hi)

    def test_max_size_ties_and_clipping(self, monkeypatch):
        """On a made-up range table whose largest windows lie at two w[2],
        hl_max_size picks the first w in (w0, w1, w2) order, not the first
        w[2]; a member whose w[1] range lies below the box adds nothing."""
        table = {0: (((0, 0, 0), 5, 5, 5, 5), ((1, 0, 0), -9, 9, -9, -5)),
                 1: (((0, 0, 0), 0, 0, 0, 0),)}
        monkeypatch.setattr(stability, "_slot2_members", lambda side, w2: table.get(w2, ()))
        assert hl_max_size("plus", 0, 5) == max_size_by_loop("plus", 0, 5) == (1, (0, 0, 1))

    def test_size_bound_over_box(self):
        worst = 0
        for w0 in range(-10, 11):
            for w1 in range(-10, 11):
                for w2 in range(-10, 11):
                    worst = max(worst, len(hl_enumerate((w0, w1, w2), "minus")))
        assert worst <= 6


def max_size_by_loop(side, lo, hi):
    """Reference: the largest window over [lo, hi]^3 by a strict-> loop over
    hl_enumerate in (w0, w1, w2) order, and the first w attaining it."""
    worst, worst_w = 0, None
    for w in product(range(lo, hi + 1), repeat=3):
        n = len(hl_enumerate(w, side))
        if n > worst:
            worst, worst_w = n, w
    return worst, worst_w


KN_CASES = [
    (("q1", "q2", "q3"), "plus", Fraction(3), (1, 1, 1)),
    (("u3",), "plus", Fraction(2), (1, 1, 0)),
    (("u2", "u3"), "plus", Fraction(1), (1, 0, 0)),
    (("u1", "u2", "u3"), "minus", Fraction(3), (-1, -1, -1)),
    (("q3",), "minus", Fraction(2, 9), (1, 1, -4)),
    (("q3", "u2"), "minus", Fraction(1, 5), (1, 0, -2)),
    (("q2", "q3"), "minus", Fraction(1, 17), (3, -2, -2)),
]


class TestKempfNess:
    @pytest.mark.parametrize("supports,character,value_sq,ray", KN_CASES)
    def test_reference_cases(self, supports, character, value_sq, ray):
        solution = kn_adapted(ConeProblem(supports, character))
        assert exact(solution.value_sq) == exact(value_sq)
        assert solution.minimizer == ray

    def test_full_cone_semistable(self):
        solution = kn_adapted(ConeProblem(tuple(TORUS_WEIGHTS), "minus"))
        assert not solution.destabilizing
        assert solution.minimizer is None

    def test_minimizer_feasible(self):
        for supports, character, _, _ in KN_CASES:
            problem = ConeProblem(supports, character)
            solution = kn_adapted(problem)
            for w in problem.constraint_vectors:
                assert sum(a * b for a, b in zip(w, solution.minimizer)) >= 0

    @pytest.mark.parametrize("scale", [2, 3, 7])
    def test_character_scaling(self, scale):
        """Scaling the character scales M^2 by the square and keeps the ray."""
        base = kn_adapted(ConeProblem(("q3",), "minus"))
        r = CHARACTERS["minus"]
        scaled = _kn_solve(tuple(scale * x for x in r), (TORUS_WEIGHTS["q3"],))
        assert exact(scaled.value_sq) == exact(Fraction(*exact(base.value_sq)) * scale ** 2)
        assert scaled.minimizer == base.minimizer

    def test_permutation_equivariance(self):
        """Permuting coordinates permutes the minimizer of the q-pair problems:
        the positive entry sits at the index missing from the constraint pair."""
        for missing in (1, 2, 3):
            supports = tuple(sorted(f"q{i}" for i in (1, 2, 3) if i != missing))
            solution = kn_adapted(ConeProblem(supports, "minus"))
            expected = tuple(3 if i == missing else -2 for i in (1, 2, 3))
            assert exact(solution.value_sq) == exact(Fraction(1, 17))
            assert solution.minimizer == expected

    def test_rejects_unknown_support(self):
        with pytest.raises(ValueError):
            ConeProblem(("q9",), "minus")

    def test_strata_validate(self):
        plus = kn_stratification("plus")
        assert [s.weight for s in plus] == [(1, 1, 1), (1, 1, 0), (1, 0, 0)]
        assert [exact(s.value_sq) for s in plus] == \
            [exact(f) for f in (Fraction(3), Fraction(2), Fraction(1))]
        minus = kn_stratification("minus")
        assert [s.weight for s in minus] == [(-1, -1, -1), (1, 1, -4), (1, 0, -2)]
        assert [exact(s.value_sq) for s in minus] == \
            [exact(f) for f in (Fraction(3), Fraction(2, 9), Fraction(1, 5))]

    def test_absorbed_ray_not_a_stratum(self):
        minus = kn_stratification("minus")
        assert (3, -2, -2) not in {s.weight for s in minus}

    def test_failed_record_is_returned_not_raised(self, monkeypatch):
        """A record the solver disagrees with comes back with the others,
        its error naming both answers; the rest keep error None."""
        corrupted = [dict(r) for r in data.KN_STRATA["minus"]]
        corrupted[1]["weight"] = (1, 1, -3)
        monkeypatch.setitem(data.KN_STRATA, "minus", corrupted)
        minus = kn_stratification("minus")
        assert len(minus) == 3
        assert [s.error for s in minus[::2]] == [None, None]
        assert minus[1].error == (
            "stratum 'common kernel of dimension two' failed validation: "
            "solver gave (2/9, (1, 1, -4)), expected (2/9, (1, 1, -3))")
        assert minus[1].solution == kn_adapted(minus[1].problem)

    def test_records_have_sorted_distinct_supports(self):
        """verify's kn-* check ids join ConeProblem.supports, which sorts and
        deduplicates; they read as the records' own tuples only while those
        are sorted and distinct."""
        for record in (*data.KN_STRATA["plus"], *data.KN_STRATA["minus"],
                       data.KN_ABSORBED_MINUS):
            assert list(record["supports"]) == sorted(set(record["supports"]))



_SUPPORT_SUBSETS = [s for size in range(len(TORUS_WEIGHTS) + 1)
                    for s in combinations(sorted(TORUS_WEIGHTS), size)]


class TestKempfNessReference:
    """kn_adapted's integer projections against the Fraction Gram-Schmidt
    reference of tests/helpers.py."""

    @pytest.mark.parametrize("side", sorted(CHARACTERS))
    def test_every_support_subset(self, side):
        """All 64 support subsets of a side: the same value_sq, a Ratio in
        the lowest terms of the reference's Fraction, and the same ray, the
        first best one on ties."""
        assert len(_SUPPORT_SUBSETS) == 64
        for supports in _SUPPORT_SUBSETS:
            problem = ConeProblem(supports, side)
            solution = kn_adapted(problem)
            assert kn_exact(solution) == kn_exact(kn_reference(
                problem.constraint_vectors, problem.character_vector)), supports
            assert solution.value_sq is None or type(solution.value_sq) is Ratio

    @pytest.mark.parametrize("scale", [2, 3, 7])
    @pytest.mark.parametrize("side", sorted(CHARACTERS))
    def test_scaled_characters(self, side, scale):
        """The same on every support subset with the character scaled."""
        r = tuple(scale * x for x in CHARACTERS[side])
        for supports in _SUPPORT_SUBSETS:
            constraints = tuple(TORUS_WEIGHTS[s] for s in supports)
            assert kn_exact(_kn_solve(r, constraints)) == \
                kn_exact(kn_reference(constraints, r)), supports

    @given(st.sampled_from(_SUPPORT_SUBSETS),
           st.tuples(*[st.integers(-6, 6)] * 3))
    @settings(max_examples=300, deadline=None)
    def test_any_character(self, supports, character):
        """Scaled and arbitrary integer characters on any support subset."""
        constraints = tuple(TORUS_WEIGHTS[s] for s in supports)
        assert kn_exact(_kn_solve(character, constraints)) == \
            kn_exact(kn_reference(constraints, character))


class TestRatio:
    """value_sq is a Ratio where it was a Fraction: on all 128 support
    subsets, with the characters scaled, it prints, compares and is written
    as the Fraction of kn_reference was."""

    @pytest.mark.parametrize("scale", [1, 2, 3, 7])
    def test_matches_fraction(self, scale):
        pairs = []
        for side in sorted(CHARACTERS):
            r = tuple(scale * x for x in CHARACTERS[side])
            for supports in _SUPPORT_SUBSETS:
                constraints = tuple(TORUS_WEIGHTS[s] for s in supports)
                got = _kn_solve(r, constraints).value_sq
                want = kn_reference(constraints, r).value_sq
                if want is None:
                    assert got is None
                    continue
                pairs.append((got, want))
                assert str(got) == str(want)
                assert exact(got) == exact(want)
                parts = []
                _write(got, parts.append, "")
                assert "".join(parts) == json.dumps(
                    {"num": want.numerator, "den": want.denominator}, indent=2, sort_keys=True)
        assert len(pairs) > 64
        for a, fa in pairs:
            for b, fb in pairs:
                assert (a == b) == (fa == fb)
                assert a != b or hash(a) == hash(b)

    def test_lowest_terms(self):
        assert exact(Ratio(4, 18)) == (2, 9)
        assert Ratio(6, 2) == Ratio(3, 1)
        assert str(Ratio(6, 2)) == "3"
        with pytest.raises(ValueError):
            Ratio(1, 0)
