"""Pushforward expansion, certified cutoffs and pretilting checks."""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from grflop import data, filtered, total_space
from grflop.homog import (GR25, GR35, BundleSum, FlagVariety, HomogeneousBundle,
                          line_bundle, schur_sub_dual, structure_sheaf)
from grflop.total_space import (MODELS, XMINUS, XPLUS, TotalSpaceModel, euler_sum,
                                ext_table, is_pretilting, stable_cutoff)
from grflop.verify import verify_all
from helpers import encode_value, hom_dim, signed_dim, signed_euler, sums_on


class TestPushforwardTerms:
    def test_level_zero_is_structure_sheaf(self):
        assert XPLUS.term(0) == structure_sheaf(GR35)
        assert XMINUS.term(0) == structure_sheaf(GR25)

    def test_plus_terms(self):
        assert XPLUS.term(1).blocks == ((2, 2, 1), (0, 0))
        assert XPLUS.term(3).blocks == ((6, 6, 3), (0, 0))

    def test_minus_terms(self):
        assert XMINUS.term(2).blocks == ((4, 4), (2, 0, 0))

    def test_negative_level(self):
        with pytest.raises(ValueError):
            XPLUS.term(-1)

    @pytest.mark.parametrize("model", [XPLUS, XMINUS], ids=["xplus", "xminus"])
    def test_terms_equal_validated_bundles(self, model):
        """term(l) skips the validating constructor; it builds the same bundle."""
        for l in range(10):
            t = model.term(l)
            assert t == HomogeneousBundle(model.base, t.blocks)
            assert all(type(x) is int for b in t.blocks for x in b)


class TestStableCutoff:
    def test_trivial(self):
        o = structure_sheaf(GR35)
        assert stable_cutoff(XPLUS, o, o).l0 == 0

    def test_spade_selfext(self):
        t = data.window_sum_plus("spade")
        cert = stable_cutoff(XPLUS, t, t)
        assert cert.l0 == 4
        assert cert.binding is not None

    def test_minus_dual_sub(self):
        u = schur_sub_dual(GR25, (1, 0))
        assert stable_cutoff(XMINUS, u, u).l0 == 1

    def test_soundness_beyond_cutoff(self, monkeypatch):
        """Rows at and above the certified bound carry only degree-0 entries:
        l0..l0+5 on two pairs, and l0..l0+2 (the spot check verify-all no
        longer builds) on the five plus sets and the vanishing suite's pairs."""
        pairs = [
            (XPLUS, schur_sub_dual(GR35, (1, 0, 0)), line_bundle(GR35, -2), 5),
            (XMINUS, schur_sub_dual(GR25, (2, 0)), schur_sub_dual(GR25, (1, 0), -1), 5),
        ]
        pairs += [(XPLUS, data.window_sum_plus(name), data.window_sum_plus(name), 2)
                  for name in data.PLUS_SETS]
        pairs += [(*pair, 2) for pair in suite_pairs(monkeypatch)[0]]
        assert len(pairs) == 19
        for model, e, f, past in pairs:
            l0 = stable_cutoff(model, e, f).l0
            table = ext_table(model, e, f, cutoff=l0 + past)
            for level, entries in table.rows:
                if level >= l0:
                    for _, c in entries:
                        assert c.is_acyclic or c.degree == 0

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            stable_cutoff(XPLUS, structure_sheaf(GR25), structure_sheaf(GR25))


class TestExtTable:
    def test_row_zero_is_base_cohomology(self):
        e = schur_sub_dual(GR35, (1, 0, 0))
        table = ext_table(XPLUS, e, e, cutoff=0)
        base = e.dual().tensor(e).cohomology()
        assert table.rows[0][1] == base

    def test_structure_sheaf_row(self):
        table = ext_table(XPLUS, structure_sheaf(GR35), structure_sheaf(GR35), 0)
        assert hom_dim(table, 0) == 1
        assert not table.any_higher_cohomology

    def test_duality_symmetry(self):
        e = schur_sub_dual(GR35, (2, 1, 0))
        f = line_bundle(GR35, 1)
        left = ext_table(XPLUS, e, f, cutoff=3)
        right = ext_table(XPLUS, f.dual(), e.dual(), cutoff=3)
        assert left.degree_totals() == right.degree_totals()
        assert left.level_degree_dims() == right.level_degree_dims()

    def test_json_shape(self):
        table = ext_table(XMINUS, structure_sheaf(GR25), line_bundle(GR25, -4), "auto")
        payload = encode_value(table)
        assert payload["any_higher_cohomology"] is False
        assert payload["certificate"]["l0"] == table.cutoff


def tally_per_entry(table) -> dict:
    """Reference for ExtTable's five views: one loop over the entries each."""
    rows = dict(table.rows)
    by_degree: dict[int, int] = {}
    acc: dict[tuple[int, int], int] = {}
    for l, entries in table.rows:
        for t, c in entries:
            if not c.is_acyclic:
                by_degree[c.degree] = by_degree.get(c.degree, 0) + t.mult * c.dim
                acc[l, c.degree] = acc.get((l, c.degree), 0) + t.mult * c.dim
    return {
        "any_higher_cohomology": any(not c.is_acyclic and c.degree > 0
                                     for _, entries in table.rows for _, c in entries),
        "degree_totals": dict(sorted(by_degree.items())),
        "level_degree_dims": [(l, d, n) for (l, d), n in sorted(acc.items())],
        "hom_dim": [sum(t.mult * c.dim for t, c in rows[l]
                        if not c.is_acyclic and c.degree == 0) for l in rows],
        "signed_dim": [sum(t.mult * c.signed_dim() for t, c in rows[l]) for l in rows],
    }


def tally_views(table) -> dict:
    levels = [l for l, _ in table.rows]
    return {
        "any_higher_cohomology": table.any_higher_cohomology,
        "degree_totals": table.degree_totals(),
        "level_degree_dims": table.level_degree_dims(),
        "hom_dim": [hom_dim(table, l) for l in levels],
        "signed_dim": [signed_dim(table, l) for l in levels],
    }


def suite_pairs(monkeypatch) -> tuple:
    """The (model, left, right) of the Ext tables vanishing_suite certifies,
    in order, and its items."""
    pairs = []
    product = filtered._product

    def record(*args):
        pairs.append(args)
        return product(*args)
    monkeypatch.setattr(filtered, "_product", record)
    return pairs, filtered.vanishing_suite()


def suite_tables(monkeypatch) -> list:
    """The full Ext tables of the pairs vanishing_suite certifies, in order."""
    return [ext_table(*pair, cutoff="auto") for pair in suite_pairs(monkeypatch)[0]]


class TestTally:
    """ExtTable's views against the per-entry reference loops."""

    def test_spade_auto(self):
        t = data.window_sum_plus("spade")
        table = ext_table(XPLUS, t, t, "auto")
        assert tally_views(table) == tally_per_entry(table)

    def test_minus_suite_tables(self, monkeypatch):
        tables = suite_tables(monkeypatch)
        assert len(tables) == 12
        for table in tables:
            assert table.model == XMINUS
            assert tally_views(table) == tally_per_entry(table)

    def test_higher_cohomology(self):
        """Higher cohomology in an odd and an even degree, so the signs of
        signed_dim are exercised."""
        table = ext_table(XMINUS, structure_sheaf(GR25),
                          schur_sub_dual(GR25, (1, 0), -6), "auto")
        views = tally_views(table)
        assert views["any_higher_cohomology"]
        assert set(views["degree_totals"]) == {0, 1, 6}
        assert views == tally_per_entry(table)

    def test_rows_not_computed(self):
        t = data.window_sum_plus("spade")
        table = ext_table(XPLUS, t, t, "auto")
        for l in (-1, table.cutoff + 1):
            for view in (hom_dim, signed_dim):
                with pytest.raises(KeyError, match=f"row {l} not computed"):
                    view(table, l)

    def test_verify_all_cutoff_certificate(self):
        """cutoff-spade-equals-4 reports the certificate of the spade
        self-Ext product, the same one stable_cutoff gives."""
        checks = {c["id"]: c for c in verify_all().checks}
        t = data.window_sum_plus("spade")
        assert checks["cutoff-spade-equals-4"]["payload"] == stable_cutoff(XPLUS, t, t)


class TestEulerSum:
    """euler_sum, the signed Weyl polynomial over the block products, against
    the Bott path that builds the row."""

    @pytest.mark.parametrize("model", [
        XPLUS, XMINUS, TotalSpaceModel("lr", GR35, ((3, 2, 1), (0, 0))),
        TotalSpaceModel("p2", FlagVariety.grassmannian(1, 3), ((1,), (0, 0))),
        TotalSpaceModel("gr24", FlagVariety.grassmannian(2, 4), ((2, 1), (0, -1)))],
        ids=["xplus", "xminus", "lr-fiber", "gr13", "gr24"])
    def test_matches_bott_path(self, model):
        """For every irreducible with blocks in [-2, 2] and every l in 0..12.
        The third fiber is no one-row block, so its products take the LR
        rule, with coefficients above one.  The Euler kernel compiles its
        sum per block shape: Gr(1,3) has a block of length 1, and both
        blocks of Gr(2,4)'s fiber give Pieri strips, not a twist."""
        blocks = [combinations_with_replacement(range(2, -3, -1), s)
                  for s in model.base.block_sizes()]
        for combo in product(*blocks):
            t = HomogeneousBundle(model.base, combo)
            for l in range(13):
                assert euler_sum(model, (t,), l) == \
                    signed_euler(t.tensor(model.term(l))), (t, l)

    def test_product_is_shared(self):
        """The pretilting table and the Euler sums take one product object."""
        w = data.window_sum_plus("spade")
        assert total_space._product(XPLUS, w, w) is total_space._product(XPLUS, w, w)

    def test_memos_are_bounded(self):
        """The Euler kernel keeps only its compiled sum per block shape."""
        assert total_space._weyl_sum.cache_info().maxsize == 16
        assert total_space._dual_tensor.cache_info().maxsize == 256
        assert total_space._higher_ext.cache_info().maxsize == 256

    @pytest.mark.parametrize("star, partner", [("spade", "club"), ("heart", "diamond")])
    def test_dual_windows_share_one_product(self, star, partner):
        """End(W^dual) = End(W): the dual window takes the product object of
        its partner, not an equal copy."""
        t, u = data.window_sum_plus(star), data.window_sum_plus(partner)
        assert total_space._product(XPLUS, u, u) is total_space._product(XPLUS, t, t)

    @given(st.sampled_from([XPLUS, XMINUS]).flatmap(
        lambda m: st.tuples(st.just(m), sums_on(m.base), sums_on(m.base))))
    @settings(max_examples=100, deadline=None)
    def test_product_is_dual_tensor(self, drawn):
        """_product(left, right) is dual(left) (x) right, whichever of the
        pair and its dual pair (dual right, dual left) keys the memo."""
        model, left, right = drawn
        expected = left.dual().tensor(right)
        assert total_space._product(model, left, right) == expected
        assert total_space._product(model, right.dual(), left.dual()) == expected


class TestPretilting:
    @pytest.mark.parametrize("star", data.WINDOW_NAMES)
    def test_windows_pretilting(self, star):
        result = is_pretilting(XPLUS, data.window_sum_plus(star))
        assert result.ok
        assert result.witnesses == ()

    def test_kapranov_pullback(self):
        assert is_pretilting(XPLUS, data.window_sum_plus("kapranov")).ok

    def test_negative_control(self):
        bad = BundleSum.of(GR35, [structure_sheaf(GR35), line_bundle(GR35, -5)])
        result = is_pretilting(XPLUS, bad)
        assert not result.ok
        assert any(level == 0 and degree == 6
                   for level, _, degree, _ in result.witnesses)

    @pytest.mark.parametrize("star,partner", [("spade", "club"), ("heart", "diamond")])
    def test_dual_pairing(self, star, partner):
        """A window bundle and its termwise dual are pretilting together."""
        t = data.window_sum_plus(star)
        assert data.window_sum_plus(partner) == t.dual()
        assert is_pretilting(XPLUS, t).ok == is_pretilting(XPLUS, t.dual()).ok

    def test_minus_side_line_bundles(self):
        for k in range(5):
            table = ext_table(XMINUS, structure_sheaf(GR25),
                              line_bundle(GR25, -k), "auto")
            assert not table.any_higher_cohomology

    @pytest.mark.parametrize("model, left, right", [
        (XPLUS, data.window_sum_plus("spade"), data.window_sum_plus("spade")),
        (XPLUS, data.window_sum_plus("heart"), data.window_sum_plus("club")),
        (XMINUS, schur_sub_dual(GR25, (2, 0)), schur_sub_dual(GR25, (1, 0), -1)),
    ])
    def test_auto_certifies_its_own_product(self, model, left, right, monkeypatch):
        """With cutoff="auto" the certificate comes from the product ext_table
        builds anyway, and equals stable_cutoff's."""
        expected = stable_cutoff(model, left, right)
        monkeypatch.setattr(total_space, "stable_cutoff",
                            lambda *args: pytest.fail("stable_cutoff was called"))
        table = ext_table(model, left, right, "auto")
        assert table.certificate == expected
        assert table.cutoff == expected.l0

    def test_models_registry(self):
        assert set(MODELS) == {"xplus", "xminus"}


class TestLiveRows:
    """is_pretilting and vanishing_suite tensor each row l only with the
    product terms of dominance gap above l; the full table of
    ext_table(..., "auto") is their oracle."""

    FAILING = ((3, 3, 3), (-1, -1, -3))

    @pytest.mark.parametrize("dual", [False, True], ids=["set", "dual"])
    @pytest.mark.parametrize("name", [*data.PLUS_SETS, "failing"])
    def test_pretilting_matches_full_table(self, name, dual, monkeypatch):
        """Every plus set and its dual, and a set with higher self-Ext at
        levels 2 and 3 only: the same witnesses, in order, and the same l0."""
        monkeypatch.setitem(data.PLUS_SETS, "failing", self.FAILING)
        w = data.window_sum_plus(name)
        w = w.dual() if dual else w
        total_space._higher_ext.cache_clear()
        report = is_pretilting(XPLUS, w)
        table = ext_table(XPLUS, w, w, "auto")
        assert report.witnesses == table.violations()
        assert report.certificate == table.certificate
        assert report.ok == (not table.any_higher_cohomology)
        if name == "failing":
            assert report.certificate.l0 == 6
            assert {l for l, *_ in report.witnesses} == {2, 3}

    def test_vanishing_suite_matches_full_tables(self, monkeypatch):
        """All 12 Ext pairs of the suite: the same verdict and l0."""
        total_space._higher_ext.cache_clear()
        pairs, items = suite_pairs(monkeypatch)
        assert len(pairs) == 12
        for (model, left, right), item in zip(pairs, items):
            table = ext_table(model, left, right, "auto")
            assert item.passed == (not table.any_higher_cohomology), item.check_id
            assert item.details == {"l0": table.cutoff}

    @given(st.sampled_from([XPLUS, XMINUS]).flatmap(
        lambda m: st.tuples(st.just(m), sums_on(m.base), sums_on(m.base))))
    @settings(max_examples=60, deadline=None)
    def test_random_pairs(self, drawn):
        """Random sums on both models, with witnesses merged from several
        terms: the same certificate and witnesses as the full table."""
        model, left, right = drawn
        table = ext_table(model, left, right, "auto")
        certificate, witnesses = total_space._higher_ext(
            model, total_space._product(model, left, right))
        assert (certificate, witnesses) == (table.certificate, table.violations())

    @given(st.sampled_from([XPLUS, XMINUS]).flatmap(
        lambda m: st.tuples(st.just(m), sums_on(m.base), sums_on(m.base))))
    @settings(max_examples=60, deadline=None)
    def test_no_witness_one_row_below_the_gap(self, drawn):
        """Why row l tensors only the terms of gap above l + 1: every summand
        that a term of gap g gives in row g - 1 has junction entries
        y <= x + 1; it is acyclic at y = x + 1 (an entry repeats after adding
        rho) and dominant, of degree 0, below. None can be a witness."""
        model, left, right = drawn
        for t in total_space._product(model, left, right):
            g = model.dominance_gap(t)
            if g < 1:
                continue
            for s in t.tensor(model.term(g - 1)):
                x, y = s.blocks[0][-1], s.blocks[1][0]
                c = s.cohomology()
                assert y <= x + 1, (t, s)
                assert c.is_acyclic if y == x + 1 else c.degree == 0, (t, s)


class TestCustomModel:
    @pytest.mark.parametrize("kwargs", [
        {"fiber": ((0, 0, 0), (1, 0))},
        {"fiber": ((2, 2, 1), (1, 0))},
        {"fiber": ((2, 2, 2), (0, 0))},
        {"fiber": ((1, 1, 0), (0, 0))},
    ])
    def test_refuses_uncertifiable_model(self, kwargs):
        """A fiber weight needs a[-1] - b[0] = 1, the condition the dominance
        gap rests on: refused when the difference is negative, when only the
        second block breaks it, and when it is too large or zero."""
        from grflop.total_space import TotalSpaceModel
        with pytest.raises(ValueError, match="model 'bad'"):
            TotalSpaceModel("bad", GR35, **kwargs)
