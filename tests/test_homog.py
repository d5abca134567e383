"""Bundle algebra and Bott cohomology tests."""

import pickle
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from grflop import data
import grflop.homog
from grflop.homog import (FL235, GR25, GR35, BundleSum, FlagVariety,
                          HomogeneousBundle, as_sum, bott, line_bundle,
                          schur_sub_dual, structure_sheaf)
from grflop.homog import _block_bound, _block_tensor, _bott
from grflop.partitions import _gl_tensor, gl_tensor, pieri, weyl_dim
from grflop.total_space import XMINUS, XPLUS
from grflop.value import Value
from helpers import dimension


def decreasing_tuple(length, lo=-4, hi=4):
    return st.builds(
        lambda xs: tuple(sorted(xs, reverse=True)),
        st.lists(st.integers(min_value=lo, max_value=hi),
                 min_size=length, max_size=length))


def bundles_on(space):
    sizes = space.block_sizes()
    return st.builds(
        lambda *blocks: HomogeneousBundle(space, tuple(blocks)),
        *[decreasing_tuple(s) for s in sizes])


def sums_with_determinants(space):
    """Sums of up to three terms, multiplicities 1..3, on `space`; about half
    the blocks are constant (det^c, c possibly negative)."""
    def block(length):
        return st.one_of(decreasing_tuple(length),
                         st.integers(-6, 6).map(lambda c: (c,) * length))
    term = st.builds(lambda mult, *blocks: HomogeneousBundle(space, blocks, mult),
                     st.integers(1, 3), *[block(s) for s in space.block_sizes()])
    return st.lists(term, min_size=1, max_size=3).map(lambda ts: BundleSum.of(space, ts))


class TestFlagVariety:
    def test_block_sizes(self):
        assert GR25.block_sizes() == (2, 3)
        assert GR35.block_sizes() == (3, 2)
        assert FL235.block_sizes() == (2, 1, 2)

    def test_dimension(self):
        assert dimension(GR25) == 6
        assert dimension(GR35) == 6
        assert dimension(FL235) == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            FlagVariety(5, (3, 2))
        with pytest.raises(ValueError):
            FlagVariety(5, (0,))
        with pytest.raises(ValueError):
            FlagVariety(5, (5,))


class TestBundleBasics:
    def test_rank(self):
        assert structure_sheaf(GR35).rank() == 1
        assert schur_sub_dual(GR35, (1, 0, 0)).rank() == 3
        assert schur_sub_dual(GR35, (2, 2, 1)).rank() == 3

    def test_dual_examples(self):
        u = schur_sub_dual(GR35, (1, 0, 0))
        assert u.dual().blocks == ((0, 0, -1), (0, 0))
        o1 = line_bundle(GR35, 1)
        assert o1.dual().blocks == ((-1, -1, -1), (0, 0))

    @given(bundles_on(GR25))
    @settings(max_examples=200, deadline=None)
    def test_dual_involution(self, e):
        assert e.dual().dual() == e

    def test_twist_examples(self):
        assert line_bundle(GR35, 1).blocks == ((1, 1, 1), (0, 0))
        u = schur_sub_dual(GR35, (1, 0, 0))
        assert u.twist(-1).blocks == ((0, -1, -1), (0, 0))
        t = structure_sheaf(FL235).twist(1, "H3").twist(1, "H2")
        assert t.blocks == ((2, 2), (1,), (0, 0))

    def test_twist_unknown_generator(self):
        with pytest.raises(ValueError):
            structure_sheaf(GR35).twist(1, "H2")
        with pytest.raises(ValueError):
            structure_sheaf(FL235).twist(1, "O")

    def test_tensor_examples(self):
        line = schur_sub_dual(GR35, (1, 1, 1))
        u = schur_sub_dual(GR35, (1, 0, 0))
        assert [t.blocks for t in u.tensor(line)] == [((2, 1, 1), (0, 0))]
        u2 = schur_sub_dual(GR25, (1, 0))
        got = {t.blocks[0] for t in u2.tensor(u2)}
        assert got == {(2, 0), (1, 1)}
        q = HomogeneousBundle(GR25, ((0, 0), (1, 0, 0)))
        assert [t.blocks for t in u2.tensor(q)] == [((1, 0), (1, 0, 0))]

    def test_tensor_space_mismatch(self):
        with pytest.raises(ValueError):
            structure_sheaf(GR25).tensor(structure_sheaf(GR35))

    def test_tensor_space_mismatch_messages(self):
        """A bundle against a bundle says "bundles"; every pairing with a sum
        says "sums"."""
        e, f = structure_sheaf(GR25), structure_sheaf(GR35)
        cases = [(e, f, "bundles"), (e, as_sum(f), "sums"),
                 (as_sum(e), f, "sums"), (as_sum(e), as_sum(f), "sums")]
        for x, y, word in cases:
            with pytest.raises(ValueError) as err:
                x.tensor(y)
            assert str(err.value) == f"cannot tensor {word} on different spaces"

    @given(bundles_on(GR25), bundles_on(GR25))
    @settings(max_examples=100, deadline=None)
    def test_rank_multiplicativity(self, e, f):
        assert e.tensor(f).rank() == e.rank() * f.rank()

    @given(bundles_on(GR35), bundles_on(GR35))
    @settings(max_examples=50, deadline=None)
    def test_tensor_commutes(self, e, f):
        assert e.tensor(f) == f.tensor(e)

    @given(bundles_on(FL235), bundles_on(FL235))
    @settings(max_examples=50, deadline=None)
    def test_tensor_terms_pass_validation(self, e, f):
        """Terms built without re-validation equal their validated rebuilds."""
        for t in e.tensor(f):
            rebuilt = HomogeneousBundle(t.space, t.blocks, t.mult)
            assert rebuilt == t and hash(rebuilt) == hash(t)


def tensor_per_pair(x, y) -> BundleSum:
    """Reference: the two-level tensor algorithm.  Each irreducible pair is
    expanded through the uncached GL product into validated bundles and
    canonicalized as its own sum; then all pair sums are merged and
    canonicalized again."""
    x, y = as_sum(x), as_sum(y)
    space = x.space
    sizes = space.block_sizes()
    out = []
    for a in x:
        for b in y:
            per_block = [_gl_tensor.__wrapped__(p, q, s)
                         for p, q, s in zip(a.blocks, b.blocks, sizes)]
            pair = []
            for combo in product(*per_block):
                mult = a.mult * b.mult * prod(c for _, c in combo)
                pair.append(HomogeneousBundle(space, tuple(w for w, _ in combo), mult))
            out.extend(BundleSum.of(space, pair).terms)
    return BundleSum.of(space, out)


def assert_same_sum(got: BundleSum, expected: BundleSum):
    assert got == expected
    assert [t.blocks for t in got] == sorted(t.blocks for t in got)
    for t in got:
        rebuilt = HomogeneousBundle(t.space, t.blocks, t.mult)
        assert rebuilt == t and hash(rebuilt) == hash(t)


class TestOnePassTensor:
    """BundleSum.tensor against the two-level reference."""

    @pytest.mark.parametrize("name", data.WINDOW_NAMES + ("kapranov",))
    def test_window_sums(self, name):
        """Every window sum against itself and its dual, and that product
        against the first four xplus fiber terms."""
        e = data.window_sum_plus(name)
        assert_same_sum(e.tensor(e), tensor_per_pair(e, e))
        product_ = e.dual().tensor(e)
        assert_same_sum(product_, tensor_per_pair(e.dual(), e))
        for l in range(4):
            term = XPLUS.term(l)
            assert_same_sum(product_.tensor(term), tensor_per_pair(product_, term))

    def test_collections_on_gr25(self):
        objects = data.collection_objects("lef-gr25")
        e = BundleSum.of(GR25, objects)
        product_ = e.dual().tensor(e)
        assert_same_sum(product_, tensor_per_pair(e.dual(), e))
        term = XMINUS.term(2)
        assert_same_sum(product_.tensor(term), tensor_per_pair(product_, term))

    def test_multiplicities(self):
        """Terms with multiplicity > 1, and pairs whose products overlap."""
        u = schur_sub_dual(GR35, (1, 0, 0))
        e = BundleSum.of(GR35, [u.with_mult(3), line_bundle(GR35, 1).with_mult(2),
                                schur_sub_dual(GR35, (1, 1, 0), -1).with_mult(5)])
        f = BundleSum.of(GR35, [u.dual().with_mult(4), structure_sheaf(GR35)])
        assert_same_sum(e.tensor(f), tensor_per_pair(e, f))
        assert_same_sum(u.with_mult(3).tensor(u.with_mult(2)),
                        tensor_per_pair(u.with_mult(3), u.with_mult(2)))
        assert all(t.mult >= 6 for t in u.with_mult(3).tensor(u.with_mult(2)))

    @given(st.sampled_from([GR25, GR35, FL235]).flatmap(
        lambda space: st.tuples(sums_with_determinants(space),
                                sums_with_determinants(space))))
    @example((BundleSum.of(GR35, [line_bundle(GR35, -3).with_mult(2)]),
              BundleSum.of(GR35, [line_bundle(GR35, 2), structure_sheaf(GR35)])))
    @settings(max_examples=150, deadline=None)
    def test_determinant_blocks(self, pair):
        """A constant block (det^c) only shifts the other block of its pair:
        the result equals the reference, which takes every block through the
        Littlewood-Richardson product, on all three spaces, with constant
        blocks on one or both sides."""
        x, y = pair
        assert_same_sum(x.tensor(y), tensor_per_pair(x, y))

    @given(st.lists(bundles_on(FL235), min_size=1, max_size=3),
           st.lists(bundles_on(FL235), min_size=1, max_size=3),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_flag_sums(self, xs, ys, k):
        x = BundleSum.of(FL235, [t.with_mult(k) for t in xs])
        y = BundleSum.of(FL235, ys)
        assert_same_sum(x.tensor(y), tensor_per_pair(x, y))
        assert_same_sum(xs[0].tensor(y), tensor_per_pair(xs[0], y))
        assert_same_sum(x.tensor(ys[0]), tensor_per_pair(x, ys[0]))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_block_bound_holds(self, m):
        """_block_bound(x, y) is at least the coefficient sum, hence the number
        of pairs, of _block_tensor(x, y, m) for every pair of blocks in
        [-4, 4]^m."""
        blocks = list(combinations_with_replacement(range(4, -5, -1), m))
        for x in blocks:
            for y in blocks:
                pairs = list(_block_tensor(x, y, m))
                assert len(pairs) <= sum(c for _, c in pairs) <= _block_bound(x, y), (x, y)

    def test_block_bound_branches(self):
        """One pair per branch, each reaching its bound: det^c; the Pieri
        strips of (2,1,0) against Sym^5 and (Sym^1)^dual; the smaller
        dimension, 8, against (4,0,-4), whose product has 7 weights."""
        assert _block_bound((3, 3, 3), (2, 1, 0)) == 1
        assert _block_bound((2, 1, 0), (5, 0, 0)) == len(pieri((2, 1, 0), 5)) == 4
        assert _block_bound((0, 0, -1), (2, 1, 0)) == len(pieri((2, 1, 0), -1)) == 3
        product_ = gl_tensor((4, 0, -4), (1, 0, -1), 3)
        assert _block_bound((4, 0, -4), (1, 0, -1)) == sum(c for _, c in product_) == 8
        assert len(product_) == 7


class TestBott:
    def test_structure_sheaf(self):
        c = structure_sheaf(GR35).cohomology()
        assert (c.degree, c.dim) == (0, 1)
        assert c.weight == (0, 0, 0, 0, 0)

    def test_negative_line_bundles_acyclic(self):
        for k in range(1, 5):
            encoded = HomogeneousBundle(GR25, ((0, 0), (k, k, k)))
            assert encoded.cohomology().is_acyclic
            assert line_bundle(GR25, -k).cohomology().is_acyclic

    def test_canonical_twist_top_degree(self):
        c = line_bundle(GR25, -5).cohomology()
        assert (c.degree, c.dim) == (6, 1)

    def test_positive_line_bundle(self):
        c = line_bundle(GR35, 1).cohomology()
        assert (c.degree, c.dim) == (0, 10)

    def test_dual_sub(self):
        c = schur_sub_dual(GR35, (1, 0, 0)).cohomology()
        assert (c.degree, c.dim) == (0, 5)

    def test_sum_cohomology(self):
        s = BundleSum.of(GR25, [structure_sheaf(GR25), line_bundle(GR25, -1)])
        results = {t.blocks[0]: c for t, c in s.cohomology()}
        assert results[(0, 0)].dim == 1
        assert results[(-1, -1)].is_acyclic

    def test_flag_vs_grassmannian_line_bundles(self):
        """O(a H3) on the flag variety and O(a) on Gr(3,5) agree under Bott."""
        for a in range(-5, 6):
            on_flag = structure_sheaf(FL235).twist(a, "H3").cohomology()
            on_gr = line_bundle(GR35, a).cohomology()
            assert on_flag == on_gr

    @pytest.mark.parametrize("space", [GR25, GR35, FL235], ids=str)
    def test_memo_matches_uncached(self, space):
        """Every concatenated weight with block entries in [-2, 2]: bott, called
        twice and with a list, equals the uncached algorithm."""
        blocks = [combinations_with_replacement(range(2, -3, -1), s)
                  for s in space.block_sizes()]
        for combo in product(*blocks):
            weight = sum(combo, ())
            expected = _bott.__wrapped__(space, weight)
            assert bott(space, weight) == expected
            assert bott(space, weight) == expected
            assert bott(space, list(weight)) == expected

    @pytest.mark.parametrize("space", [GR25, GR35, FL235], ids=str)
    def test_signed_dim_is_the_weyl_polynomial(self, space, monkeypatch):
        """For every bundle with dominant blocks and entries in [-3, 3], the
        signed dimension of cohomology() is the Weyl dimension polynomial
        prod_{i<j} (a_i - a_j) / (j - i) at a = weight + rho, an alternating
        polynomial that needs no sorting or inversion count.  The Bott memo
        is bypassed, so no other test sees these weights in it."""
        monkeypatch.setattr(grflop.homog, "_bott", _bott.__wrapped__)
        n = space.n
        pairs = list(combinations(range(n), 2))
        blocks = [combinations_with_replacement(range(3, -4, -1), s)
                  for s in space.block_sizes()]
        signs = set()
        for combo in product(*blocks):
            alpha = [x + n - 1 - i for i, x in enumerate(sum(combo, ()))]
            expected = Fraction(prod(alpha[i] - alpha[j] for i, j in pairs),
                                prod(j - i for i, j in pairs))
            got = HomogeneousBundle(space, combo).cohomology().signed_dim()
            assert got == expected
            signs.add((got > 0) - (got < 0))
        assert signs == {-1, 0, 1}

    def test_wrong_length_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="expected weight of length 5"):
                bott(GR25, (0, 0, 0, 0))

    def test_memo_is_bounded(self):
        assert _bott.cache_info().maxsize == 4096

    @given(bundles_on(GR25))
    @settings(max_examples=300, deadline=None)
    def test_degree_bounded_by_dimension(self, e):
        c = e.cohomology()
        if not c.is_acyclic:
            assert 0 <= c.degree <= dimension(GR25)
            assert c.dim == weyl_dim(c.weight, 5)


def _all_bundles(space):
    """Every bundle on the space with block entries in [-4, 4]."""
    def tuples(length):
        if length == 0:
            return [()]
        out = []
        def rec(prefix, lo):
            if len(prefix) == length:
                out.append(tuple(prefix))
                return
            for v in range(min(lo, 4), -5, -1):
                rec(prefix + [v], v)
        rec([], 4)
        return out

    sizes = space.block_sizes()
    blocks_options = [tuples(s) for s in sizes]
    result = []
    def build(i, acc):
        if i == len(blocks_options):
            result.append(HomogeneousBundle(space, tuple(acc)))
            return
        for b in blocks_options[i]:
            build(i + 1, acc + [b])
    build(0, [])
    return result


class TestSerreDualityExhaustive:
    """Serre duality and shift invariance, exhaustive over entries in [-4, 4]."""

    @pytest.mark.parametrize("space,k", [(GR25, 2), (GR35, 3)])
    def test_serre_duality(self, space, k):
        n = space.n
        top = k * (n - k)
        bundles = _all_bundles(space)
        assert len(bundles) > 1000
        for e in bundles:
            c = e.cohomology()
            c_dual = e.dual().twist(-n).cohomology()
            if c.is_acyclic:
                assert c_dual.is_acyclic
            else:
                assert c_dual.degree == top - c.degree
                assert c_dual.dim == c.dim

    @pytest.mark.parametrize("space", [GR25, GR35])
    def test_shift_invariance(self, space):
        for e in _all_bundles(space)[::7]:
            base = e.cohomology()
            for t in (-2, 1, 3):
                shifted = HomogeneousBundle(
                    space, tuple(tuple(x + t for x in b) for b in e.blocks))
                c = shifted.cohomology()
                if base.is_acyclic:
                    assert c.is_acyclic
                else:
                    assert (c.degree, c.dim) == (base.degree, base.dim)
                    assert c.weight == tuple(x + t for x in base.weight)


class TestBundleSumCanonical:
    def test_merges_multiplicities(self):
        u = schur_sub_dual(GR25, (1, 0))
        s = BundleSum.of(GR25, [u, u, u.with_mult(2)])
        assert len(s.terms) == 1
        assert s.terms[0].mult == 4

    def test_order_independent(self):
        a = structure_sheaf(GR25)
        b = line_bundle(GR25, 1)
        assert BundleSum.of(GR25, [a, b]) == BundleSum.of(GR25, [b, a])

    def test_empty_sum(self):
        empty = BundleSum.of(GR25, [])
        assert empty.cohomology() == ()
        assert empty.rank() == 0


def assert_agrees_with_value(a, b):
    """The spelled-out __eq__ returns what Value.__eq__ returns (NotImplemented
    for another class), and equal objects hash alike."""
    assert type(a).__eq__(a, b) is Value.__eq__(a, b)
    assert (a == b) is (Value.__eq__(a, b) is True)
    if a == b:
        assert hash(a) == hash(b)


class TestSpelledOutEquality:
    """HomogeneousBundle and BundleSum write __eq__ and __hash__ out instead of
    taking Value's; they must agree with Value's on every pair."""

    @pytest.mark.parametrize("space", [GR25, GR35, FL235], ids=str)
    @given(choices=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equal_however_built(self, space, choices):
        s = choices.draw(sums_with_determinants(space))
        other = choices.draw(sums_with_determinants(space))
        terms = choices.draw(st.permutations(s.terms))
        for a, b in [(s, other), (s, BundleSum.of(space, terms)), (s, s.dual().dual()),
                     (s, pickle.loads(pickle.dumps(s))), (s, BundleSum(space, s.terms))]:
            assert_agrees_with_value(a, b)
            assert_agrees_with_value(b, a)
        assert s == BundleSum.of(space, terms) == s.dual().dual()
        for t in s.terms:
            rebuilt = HomogeneousBundle(space, t.blocks, t.mult)
            for u in (t.dual().dual(), pickle.loads(pickle.dumps(t)), rebuilt):
                assert u == t
                assert_agrees_with_value(t, u)
            blocks = tuple(tuple(-x for x in reversed(b)) for b in t.blocks)
            assert t.dual() == HomogeneousBundle(space, blocks, t.mult)
            assert all(type(x) is int for b in t.dual().blocks for x in b)

    @pytest.mark.parametrize("space", [GR25, GR35, FL235], ids=str)
    def test_one_field_apart(self, space):
        """Pairs that differ in one field, the space included (built past the
        validation, since block shapes fix the space), and a sum against a
        bundle, are unequal as Value says."""
        t = HomogeneousBundle(space, tuple((1,) + (0,) * (k - 1) for k in space.block_sizes()), 2)
        elsewhere = GR35 if space != GR35 else GR25
        s = BundleSum.of(space, [t])
        pairs = [
            (t, t.with_mult(3)),
            (t, t.twist(1, space.twist_generators()[0])),
            (t, HomogeneousBundle._trusted(elsewhere, t.blocks, t.mult)),
            (s, BundleSum.of(space, [t.with_mult(3)])),
            (s, BundleSum(elsewhere, s.terms)),
            (s, t),
            (s, structure_sheaf(space)),
        ]
        for a, b in pairs:
            assert a != b and b != a
            assert_agrees_with_value(a, b)
            assert_agrees_with_value(b, a)
        assert BundleSum.__eq__(s, t) is NotImplemented
        assert HomogeneousBundle.__eq__(t, s) is NotImplemented
