"""Filtered Schur powers, graded Euler characteristics, and the vanishing suite."""

import pytest
from hypothesis import given, settings, strategies as st

from grflop import filtered
from grflop.filtered import (FilteredBundle, _shift_sums, euler_cross_check,
                             graded_euler, schur_filtered, vanishing_suite)
from grflop.homog import GR25, GR35, BundleSum, schur_sub_dual, structure_sheaf
from grflop.partitions import weyl_dim
from grflop.total_space import XMINUS, XPLUS, _product, euler_sum, ext_table, is_pretilting
from grflop.verify import verify_all
from grflop import data
from helpers import core_extension, dual, rank, refined, signed_dim, signed_euler, sums_on


def minus_window(star):
    """The minus window of a star: the core extension's Schur powers of its weights."""
    return [schur_filtered(chi) for chi in data.WINDOW_WEIGHTS[star]]


def pieces(bundles):
    """The (piece, offset) pairs of a list of filtered bundles."""
    return [(p, o) for fb in bundles for p, o in zip(fb.pieces, fb.offsets)]


def piece_blocks(fb):
    return [tuple(t.blocks[0] for t in p) for p in fb.pieces]


def _line_power(line, a):
    """line^(x)a as a one-term sum, by repeated tensor products."""
    out = BundleSum.of(GR25, [structure_sheaf(GR25)])
    for _ in range(abs(a)):
        out = out.tensor(line if a > 0 else line.dual())
    return out


def schur_filtered_by_tensors(chi):
    """Reference for schur_filtered: each graded piece is the tensor product
    L^a (x) S^beta B (x) det(E)^-t of the pieces L, B of core_extension(),
    with det(E) = L (x) S^(1,1) B and chi shifted by t = max(0, -chi3)."""
    line, rk2 = (p.terms[0] for p in core_extension().pieces)
    assert rk2 == schur_sub_dual(GR25, (1, 0))  # so S^beta B is schur_sub_dual(beta)
    det = line.tensor(schur_sub_dual(GR25, (1, 1))).terms[0]
    t = max(0, -chi[2])
    c = [x + t for x in chi]
    graded = [(sum(c) - b1 - b2, (b1, b2))
              for b1 in range(c[1], c[0] + 1) for b2 in range(c[2], c[1] + 1)]
    graded.sort(key=lambda ab: (-ab[0], tuple(-x for x in ab[1])))
    pieces = tuple(_line_power(line, a).tensor(schur_sub_dual(GR25, beta))
                   .tensor(_line_power(det, -t)) for a, beta in graded)
    return FilteredBundle(pieces, tuple(a - t for a, _ in graded), f"S^{list(chi)}[ext]")


class TestSchurFiltered:
    def test_defining_extension(self):
        fb = schur_filtered((1, 0, 0))
        assert piece_blocks(fb) == [((-2, -2),), ((1, 0),)]
        assert fb.offsets == (1, 0)

    def test_wedge_two(self):
        fb = schur_filtered((1, 1, 0))
        assert piece_blocks(fb) == [((-1, -2),), ((1, 1),)]

    def test_symmetric_square(self):
        fb = schur_filtered((2, 0, 0))
        assert piece_blocks(fb) == [((-4, -4),), ((-1, -2),), ((2, 0),)]
        assert fb.offsets == (2, 1, 0)

    def test_determinant(self):
        fb = schur_filtered((1, 1, 1))
        assert piece_blocks(fb) == [((-1, -1),)]

    def test_negative_weight_shifts_through_determinant(self):
        fb = schur_filtered((0, -1, -1))
        assert piece_blocks(fb) == [((-1, -1),), ((2, 1),)]
        assert fb.offsets == (0, -1)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            schur_filtered((1, 0))

    @pytest.mark.parametrize("chi", [
        (1, 0, 0), (2, 0, 0), (2, 1, 0), (3, 1, 1), (0, -1, -2), (3, 3, 3),
        (2, 2, -1), (4, 2, 1),
    ])
    def test_rank_additivity(self, chi):
        t = max(0, -chi[2])
        expected = weyl_dim(tuple(x + t for x in chi), 3)
        assert rank(schur_filtered(chi)) == expected

    def test_rank_additivity_box(self):
        for a in range(-3, 4):
            for b in range(-3, a + 1):
                for c in range(-3, b + 1):
                    chi = (a, b, c)
                    shift = max(0, -c)
                    assert rank(schur_filtered(chi)) == \
                        weyl_dim(tuple(x + shift for x in chi), 3)

    def test_defining_weight_is_core_extension(self):
        fb = schur_filtered((1, 0, 0))
        ext = core_extension()
        assert (fb.pieces, fb.offsets) == (ext.pieces, ext.offsets)

    def test_closed_form_matches_tensor_construction(self):
        count = 0
        for a in range(-6, 7):
            for b in range(-6, a + 1):
                for c in range(-6, b + 1):
                    assert schur_filtered((a, b, c)) == schur_filtered_by_tensors((a, b, c))
                    count += 1
        assert count == 455

    def test_dual_matches_shifted_weight_up_to_offsets(self):
        """Dualizing pieces and dualizing the weight give the same bundles;
        the two equivariant normalizations differ by a determinant character."""
        direct = schur_filtered((0, 0, -1))
        via_dual = dual(core_extension())
        assert [p for p in direct.pieces] == [p for p in via_dual.pieces]
        diffs = {a - b for a, b in zip(direct.offsets, via_dual.offsets)}
        assert len(diffs) == 1


class TestGradedEuler:
    def test_structure_sheaf(self):
        o = [schur_filtered((0, 0, 0))]
        assert o[0].pieces == (BundleSum.of(GR25, [structure_sheaf(GR25)]),)
        assert graded_euler(o, o, 0) == (1,)

    def test_core_extension_endomorphisms(self):
        chi = graded_euler([core_extension()], [core_extension()], 1)
        assert chi[0] == 1
        assert chi[1] == 451

    def test_hom_from_structure_sheaf(self):
        assert graded_euler([schur_filtered((0, 0, 0))], [core_extension()], 1) == (5, 330)

    def test_refinement_invariance(self):
        p = schur_filtered((2, 1, 0))
        q = schur_filtered((1, 1, 0))
        coarse = graded_euler([p], [q], 4)
        assert graded_euler([refined(p)], [refined(q)], 4) == coarse
        assert graded_euler([refined(p)], [q], 4) == coarse

    def test_offsets_matter(self):
        """Zeroing the offsets breaks the anchor value, so they are load-bearing."""
        p = core_extension()
        flat = FilteredBundle(p.pieces, (0, 0), "flat")
        assert graded_euler([flat], [flat], 0) != (1,)

    def test_base_mismatch(self):
        o = FilteredBundle((BundleSum.of(GR35, [structure_sheaf(GR35)]),), (0,))
        with pytest.raises(ValueError, match=r"pieces must live on gr\(2,5\)"):
            graded_euler([o], [o], 0)


def graded_euler_per_pair(left, right, max_l):
    """Reference for graded_euler: every source/target piece pair tensored
    with term(l - op + oq) on its own, with no merging by shift."""
    products = [(op, oq, p.dual().tensor(q))
                for p, op in pieces(left) for q, oq in pieces(right)]
    values = []
    for l in range(max_l + 1):
        total = 0
        for op, oq, prod in products:
            t = l - op + oq
            if t < 0:
                continue
            total += signed_euler(prod.tensor(XMINUS.term(t)))
        values.append(total)
    return tuple(values)


class TestGradedEulerOracle:
    """graded_euler, merged by shift, against the per-pair reference."""

    @pytest.mark.parametrize("star", data.WINDOW_NAMES)
    def test_minus_windows(self, star):
        minus = minus_window(star)
        assert graded_euler(minus, minus, 8) == \
            graded_euler_per_pair(minus, minus, 8)

    def test_refined_inputs(self):
        p = schur_filtered((2, 1, 0))
        q = schur_filtered((1, 0, -1))
        for left, right in [(refined(p), refined(q)), (refined(p), q),
                            (q, refined(p))]:
            assert graded_euler([left], [right], 5) == \
                graded_euler_per_pair([left], [right], 5)

    def test_mixed_inputs(self):
        """Lists of several filtered bundles, refined and not, whose pieces
        share offsets across bundles."""
        left = [schur_filtered((0, 0, 0)), core_extension(), refined(schur_filtered((1, 0, -1)))]
        right = [schur_filtered((2, 0, 0)), schur_filtered((-1, -1, -1))]
        for a, b in [(left, right), (right, left)]:
            assert graded_euler(a, b, 4) == graded_euler_per_pair(a, b, 4)

    @given(*[st.lists(st.tuples(*[st.integers(-3, 3)] * 3).map(
        lambda xs: tuple(sorted(xs, reverse=True))), min_size=1, max_size=3)] * 2,
           st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_random_lists(self, left, right, max_l):
        """Random lists of schur_filtered bundles against the shift sums as
        canonical BundleSums, their Euler numbers taken through Bott."""
        left = [schur_filtered(chi) for chi in left]
        right = [schur_filtered(chi) for chi in right]
        terms = {}
        for p, op in pieces(left):
            for q, oq in pieces(right):
                terms.setdefault(oq - op, []).extend(p.dual().tensor(q))
        sums = {d: BundleSum.of(GR25, ts) for d, ts in terms.items()}
        expected = tuple(sum(signed_euler(s.tensor(XMINUS.term(l + d)))
                             for d, s in sums.items() if l + d >= 0)
                         for l in range(max_l + 1))
        assert graded_euler(left, right, max_l) == expected


class TestLevelEulerMemo:
    """graded_euler sums chi(S_d (x) term(m)) over the shift sums S_d, and
    euler_cross_check memoizes its minus values per window and dual."""

    @pytest.mark.parametrize("star, partner", [("spade", "club"), ("heart", "diamond")])
    def test_dual_windows_share_shift_sums(self, star, partner):
        """club and diamond are the duals of spade and heart, so their minus
        shift sums S_d are equal; the values equal the per-pair reference."""
        t = minus_window(star)
        u = minus_window(partner)
        assert _shift_sums(u, u) == _shift_sums(t, t)
        assert graded_euler(t, t, 8) == graded_euler(u, u, 8) == graded_euler_per_pair(u, u, 8)

    def test_one_product_per_offset_pair(self, monkeypatch):
        """The pieces of each side are merged by offset before the products
        are taken: heart's 17 pieces carry the four offsets -1..2, so its
        self-Ext takes 16 products, not 289, each merged into the table of
        its shift."""
        minus = minus_window("heart")
        assert len(pieces(minus)) == 17
        assert {o for _, o in pieces(minus)} == {-1, 0, 1, 2}
        calls = []
        tensor_into = filtered._tensor_into
        monkeypatch.setattr(filtered, "_tensor_into",
                            lambda *args: calls.append(1) or tensor_into(*args))
        _shift_sums(minus, minus)
        assert len(calls) == 16

    def test_verify_all_builds_shift_sums_once_per_dual_pair(self, monkeypatch):
        """One verify_all() builds the minus shift sums twice, not four
        times: club and diamond share the _window_euler key of spade and
        heart, their duals."""
        key = {star: filtered._dual_key(data.WINDOW_WEIGHTS[star]) for star in data.WINDOW_NAMES}
        assert key["spade"] == key["club"] != key["heart"] == key["diamond"]
        calls = []
        shift_sums = filtered._shift_sums
        monkeypatch.setattr(filtered, "_shift_sums",
                            lambda left, right: calls.append(1) or shift_sums(left, right))
        filtered._window_euler.cache_clear()
        verify_all()
        assert len(calls) == 2
        info = filtered._window_euler.cache_info()
        assert (info.misses, info.hits) == (2, 2)


class TestWindowBundles:
    def test_plus_spade_terms(self):
        terms = {t.blocks[0] for t in data.window_sum_plus("spade")}
        assert terms == set(data.WINDOW_WEIGHTS["spade"])

    def test_minus_returns_filtered(self):
        bundles = minus_window("spade")
        assert len(bundles) == 10
        assert all(isinstance(b, FilteredBundle) for b in bundles)
        assert sum(rank(b) for b in bundles) == \
            data.window_sum_plus("spade").rank()

    def test_club_is_termwise_dual_of_spade(self):
        spade = data.window_sum_plus("spade")
        club = data.window_sum_plus("club")
        assert club == spade.dual()

    def test_unknown_window(self):
        with pytest.raises(ValueError, match="^unknown window 'joker'; valid: "
                                             "spade, heart, club, diamond$"):
            euler_cross_check("joker")


class TestCrossSide:
    @pytest.mark.parametrize("star", data.WINDOW_NAMES)
    def test_graded_euler_matches_plus_side(self, star):
        result = euler_cross_check(star, 4)
        assert result["equal"]
        assert not result["plus_has_higher"]

    def test_spade_club_agree(self):
        assert euler_cross_check("spade", 3)["minus"] == \
            euler_cross_check("club", 3)["minus"]

    @pytest.mark.parametrize("star", data.WINDOW_NAMES)
    def test_plus_values_are_the_ext_rows(self, star):
        """The plus values, summed from the Weyl polynomial with no row
        built, are the alternating sums of the Ext table's rows; the
        products dual(W) (x) W have terms of multiplicity above one."""
        w = data.window_sum_plus(star)
        assert any(t.mult > 1 for t in w.dual().tensor(w))
        table = ext_table(XPLUS, w, w, cutoff=12)
        assert euler_cross_check(star, 12)["plus"] == \
            [signed_dim(table, l) for l in range(13)]

    def test_plus_has_higher_reads_the_pretilting_witnesses(self, monkeypatch):
        """On a plus set with higher self-Ext at levels 2 and 3 only (l0 = 6),
        plus_has_higher is the any_higher_cohomology of the table cut at
        max_l, below l0 and past it."""
        bad = ((3, 3, 3), (-1, -1, -3))
        monkeypatch.setitem(data.PLUS_SETS, "spade", bad)
        w = data.window_sum_plus("spade")
        report = is_pretilting(XPLUS, w)
        assert report.certificate.l0 == 6
        assert {l for l, *_ in report.witnesses} == {2, 3}
        seen = []
        for max_l in range(9):
            expected = ext_table(XPLUS, w, w, cutoff=max_l).any_higher_cohomology
            assert euler_cross_check("spade", max_l)["plus_has_higher"] == expected
            seen.append(expected)
        assert seen == [False] * 2 + [True] * 7


def differences(values, k):
    """The k-th finite differences of a sequence."""
    for _ in range(k):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


def polynomial_from(left, right):
    """L = max(0, -d_min - 2) for the least shift d_min of the shift sums:
    chi(S_d (x) term(m)) is a polynomial in m that vanishes at m = -1 and
    -2 (term(m) is S^m of a rank-3 fiber), so graded_euler, which leaves
    out m = l + d < 0, is one polynomial in l from L on."""
    return max(0, -min(_shift_sums(left, right)) - 2)


weights_3 = st.tuples(*[st.integers(-3, 3)] * 3).map(lambda xs: tuple(sorted(xs, reverse=True)))


class TestLevelPolynomial:
    """chi(F (x) S^l N) is the Hilbert polynomial of a sheaf on the 8-fold
    projectivization of the rank-3 fiber N: of degree at most 8 in l, so
    its 9th differences vanish."""

    @pytest.mark.parametrize("star", data.WINDOW_NAMES)
    def test_windows(self, star):
        """Over levels 0..20, from l = 0 on the plus side and from L on the
        minus side (2 for spade and club, 1 for heart and diamond), with
        constant 8th differences; the sides agree at every level."""
        result = euler_cross_check(star, 20)
        low = polynomial_from(minus_window(star), minus_window(star))
        assert low == (2 if star in ("spade", "club") else 1)
        eighth = 896000 if star in ("spade", "club") else 1400000
        for values in (result["plus"], result["minus"][low:]):
            assert set(differences(values, 8)) == {eighth}
            assert set(differences(values, 9)) == {0}
        assert result["equal"]

    @given(sums_on(GR35), sums_on(GR35))
    @settings(max_examples=50, deadline=None)
    def test_random_plus_pairs(self, left, right):
        product = _product(XPLUS, left, right)
        values = [euler_sum(XPLUS, product, l) for l in range(21)]
        assert set(differences(values, 9)) == {0}

    @given(st.lists(weights_3, min_size=1, max_size=2), st.lists(weights_3, min_size=1, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_random_minus_pairs(self, left, right):
        left = [schur_filtered(chi) for chi in left]
        right = [schur_filtered(chi) for chi in right]
        values = graded_euler(left, right, 20)[polynomial_from(left, right):]
        assert set(differences(values, 9)) == {0}

    @pytest.mark.parametrize("dropped", [1, 5, 12, 20])
    def test_a_dropped_level_fails(self, dropped):
        """Negative control: the plus values of spade at levels 0..21 with
        one inner level left out are no polynomial of degree 8 in their
        index (leaving out an end only shifts the index)."""
        values = list(euler_cross_check("spade", 21)["plus"])
        del values[dropped]
        assert set(differences(values, 9)) != {0}


class TestVanishingSuite:
    def test_all_pass(self):
        items = vanishing_suite()
        assert len(items) == 19
        failed = [it.check_id for it in items if not it.passed]
        assert failed == []

    def test_ids_unique(self):
        items = vanishing_suite()
        assert len({it.check_id for it in items}) == len(items)
