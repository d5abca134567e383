"""The Euler kernel against the Brauer-Klimyk oracle of tests/oracles.py,
which sums the signed Weyl polynomial over Gelfand-Tsetlin weights and takes
no Pieri, Littlewood-Richardson or block product."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from grflop import data
from grflop.filtered import euler_cross_check, schur_filtered
from grflop.partitions import weyl_dim
from grflop.total_space import XMINUS, XPLUS, euler_sum
from helpers import sums_on
from oracles import euler_oracle, gt_weights


def entries(s):
    return [(t.blocks, t.mult) for t in s]


def dual_entries(s):
    return [(tuple(tuple(-x for x in reversed(b)) for b in t.blocks), t.mult) for t in s]


def term(model, l):
    return [(model.term(l).blocks, 1)]


class TestGelfandTsetlin:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_pattern_count_is_the_dimension(self, m):
        """One weight per pattern, dim V_top of them, each of total |top|."""
        for top in combinations_with_replacement(range(3, -3, -1), m):
            weights = gt_weights(top)
            assert len(weights) == weyl_dim(top, m), top
            assert {sum(w) for w in weights} == {sum(top)}, top
            assert max(weights) == top, top

    def test_sym2_of_gl3(self):
        assert sorted(gt_weights((2, 0, 0))) == sorted(
            [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)])


class TestEulerKernel:
    @given(st.sampled_from([XPLUS, XMINUS]).flatmap(
        lambda m: st.tuples(st.just(m), sums_on(m.base), st.integers(0, 10))))
    @settings(max_examples=150, deadline=None)
    def test_euler_sum_matches_oracle(self, drawn):
        """euler_sum of a random sum at a level l <= 10, on both models."""
        model, s, l = drawn
        assert euler_sum(model, s, l) == euler_oracle(entries(s), term(model, l))

    @pytest.mark.parametrize("star", data.WINDOW_NAMES)
    def test_cross_check_matches_oracle(self, star):
        """Both sides of euler_cross_check at levels 0..10.  The plus side is
        chi(dual(W) (x) W (x) term(l)); the minus side sums, over source
        pieces p (offset op) and target pieces q (offset oq) merged by
        offset, chi(dual(p) (x) q (x) term(l - op + oq)) where l - op + oq
        >= 0."""
        result = euler_cross_check(star, 10)
        w = data.window_sum_plus(star)
        plus = [euler_oracle(dual_entries(w), entries(w), term(XPLUS, l)) for l in range(11)]
        pieces = {}
        for fb in (schur_filtered(chi) for chi in data.WINDOW_WEIGHTS[star]):
            for p, o in zip(fb.pieces, fb.offsets):
                pieces.setdefault(o, []).extend(p)
        minus = [sum(euler_oracle(dual_entries(p), entries(q), term(XMINUS, l - op + oq))
                     for op, p in pieces.items() for oq, q in pieces.items() if l - op + oq >= 0)
                 for l in range(11)]
        assert result["plus"] == plus
        assert result["minus"] == minus
        assert plus[:2] == ([5245, 108455] if star in ("spade", "club") else [4035, 114255])
