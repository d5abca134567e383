"""Littlewood-Richardson and Weyl-dimension tests.

The LR production code grows fillings strip by strip; the oracle here fills
the skew shape box by box and checks the lattice word at the end, so the two
paths share nothing but the definition.  A second oracle evaluates Weyl
characters by the bialternant formula, with no LR at all.
"""

import re
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings, strategies as st

from grflop.partitions import (as_partition, gl_tensor, lr_coefficient, lr_mult,
                               pieri, weyl_dim)
from grflop.homog import _block_tensor
from grflop.partitions import _gl_tensor, _lr_products
from helpers import shift


def brute_lr_coefficient(nu, lam, mu):
    """Count column-strict lattice fillings of nu/lam with content mu, naively."""
    nu, lam, mu = list(nu), list(lam), list(mu)
    lam = lam + [0] * (len(nu) - len(lam))
    if len(lam) > len(nu) and any(lam[len(nu):]):
        return 0
    if any(l > n for l, n in zip(lam, nu)):
        return 0
    cells = [(r, c) for r in range(len(nu)) for c in range(lam[r], nu[r])]
    filling = {}
    content = [0] * len(mu)
    total = 0

    def lattice_ok(rows):
        """The reading word of the first `rows` rows, each read right to left,
        is a lattice word."""
        counts = [0] * (len(mu) + 1)
        for r in range(rows):
            for c in range(nu[r] - 1, lam[r] - 1, -1):
                e = filling[(r, c)]
                counts[e] += 1
                if e > 1 and counts[e] > counts[e - 1]:
                    return False
        return True

    def rec(i):
        nonlocal total
        if i == len(cells):
            if content == mu and lattice_ok(len(nu)):
                total += 1
            return
        r, c = cells[i]
        # The rows above are complete, and a prefix of a lattice word is one.
        if c == lam[r] and not lattice_ok(r):
            return
        left = filling.get((r, c - 1))
        up = filling.get((r - 1, c))
        for e in range(1, len(mu) + 1):
            if content[e - 1] >= mu[e - 1]:
                continue
            if left is not None and e < left:
                continue
            if up is not None and e <= up:
                continue
            filling[(r, c)] = e
            content[e - 1] += 1
            rec(i + 1)
            content[e - 1] -= 1
            del filling[(r, c)]

    rec(0)
    return total


def expand(ws):
    return {w: c for w, c in ws}


partitions_small = st.builds(
    lambda parts: as_partition(sorted(parts, reverse=True)),
    st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=4),
)


class TestLRProducts:
    def test_pieri_single_boxes(self):
        assert lr_mult((1,), (1,)) == (((1, 1), 1), ((2, 0), 1))

    def test_pieri_hook(self):
        assert lr_mult((2, 1), (1,)) == (
            ((2, 1, 1), 1), ((2, 2, 0), 1), ((3, 1, 0), 1))

    def test_coefficient_two(self):
        assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
        assert brute_lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2

    def test_square_of_hook(self):
        result = expand(lr_mult((2, 1), (2, 1)))
        assert result == {
            (4, 2, 0, 0): 1, (4, 1, 1, 0): 1, (3, 3, 0, 0): 1,
            (3, 2, 1, 0): 2, (3, 1, 1, 1): 1, (2, 2, 2, 0): 1, (2, 2, 1, 1): 1,
        }

    def test_pieri_coefficients(self):
        assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
        assert lr_coefficient((2, 2), (1,), (1,)) == 0

    @pytest.mark.parametrize("nu, lam, mu, expected", [
        # longer than the len(lam) + len(mu) rows (3, 4), zero tail: padding
        ((3, 1, 0, 0), (2, 1, 0), (1, 0, 0), 1),
        ((2, 2, 1, 0, 0), (2, 1, 0), (1, 1, 0), 1),
        # longer, with a nonzero part past the rows: 0
        ((1, 1, 1, 1), (2, 0, 0), (1, 1, 0), 0),
        ((1, 1, 1), (2,), (1,), 0),
        # shorter: zero-padded
        ((2, 1), (1, 1), (1,), 1),
        ((3,), (2, 0, 0), (1, 0, 0), 1),
    ])
    def test_coefficient_padding(self, nu, lam, mu, expected):
        """Trailing zeros of nu are padding, as `lr coeff` reads a 4-part nu
        against 3-part lam and mu."""
        assert lr_coefficient(nu, lam, mu) == expected
        assert brute_lr_coefficient(nu, lam, mu) == expected

    def test_empty_partitions(self):
        assert lr_mult((), ()) == (((), 1),)
        assert expand(lr_mult((2, 1), ())) == {(2, 1): 1}

    @pytest.mark.parametrize("lam, mu", [
        ((), ()), ((2, 1), ()), ((), (1, 1)), ((0, 0), (0,)),
        ((1, 0, 0, 0), (1,)), ((2, 1, 0), (1, 1, 0, 0)),
    ])
    def test_matches_lr_products(self, lam, mu):
        """lr_mult, which goes through gl_tensor, is the LR rule on the
        partitions without their trailing zeros, on len(lam) + len(mu) rows."""
        lam_s, mu_s = (tuple(x for x in p if x) for p in (lam, mu))
        rows = len(lam_s) + len(mu_s)
        got = lr_mult(lam, mu)
        assert {len(nu) for nu, _ in got} == {rows}
        assert expand(got) == _lr_products(lam_s, mu_s, rows)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lr_mult((1, 2), (1,))
        with pytest.raises(ValueError):
            lr_mult((1, -1), (1,))

    @given(partitions_small, partitions_small)
    @settings(max_examples=300, deadline=None)
    def test_against_bruteforce(self, lam, mu):
        product = lr_mult(lam, mu)
        for nu, c in product:
            assert brute_lr_coefficient(nu, lam, mu) == c

    def test_exhaustive_commutativity_and_degree(self):
        """All partition pairs with |lam|, |mu| <= 6."""
        smalls = [p for n in range(7) for p in _partitions_of(n)]
        assert len(smalls) == 30
        for lam in smalls:
            for mu in smalls:
                left = lr_mult(lam, mu)
                assert left == lr_mult(mu, lam)
                for nu, _ in left:
                    assert sum(nu) == sum(lam) + sum(mu)


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


class TestWeylDim:
    def test_standard(self):
        assert weyl_dim((1, 0, 0), 3) == 3

    def test_determinant_powers(self):
        for k in (-3, -1, 0, 2, 5):
            assert weyl_dim((k, k, k), 3) == 1

    def test_adjoint_like(self):
        assert weyl_dim((2, 1, 0), 3) == 8
        assert weyl_dim((2, 1), 3) == 8

    def test_wedge_two_of_five(self):
        assert weyl_dim((1, 1), 5) == 10

    def test_shift_invariance(self):
        assert weyl_dim((3, 1, 0), 3) == weyl_dim((5, 3, 2), 3)


# Invalid gl_tensor input -> its error message.
INVALID_GL_TENSOR = {
    ((1, 0, 0), (1, 0), 2): "weight (1, 0, 0) longer than 2",
    ((0, 1), (0, 0), 2): "not weakly decreasing: (0, 1)",
    ((0, -1), (0,), 3): "cannot zero-pad (0, -1): last entry negative",
    # Both of length m: the message quotes the caller's weight, not the one
    # shifted to end in 0.
    ((2, 1), (1, 2), 2): "not weakly decreasing: (1, 2)",
    ((3, 5, 4), (0, 0, 0), 3): "not weakly decreasing: (3, 5, 4)",
}


class TestGLTensor:
    def test_standard_square(self):
        assert expand(gl_tensor((1, 0, 0), (1, 0, 0), 3)) == \
            {(2, 0, 0): 1, (1, 1, 0): 1}

    def test_truncation(self):
        assert expand(gl_tensor((1, 1), (1, 0), 2)) == {(2, 1): 1}

    def test_negative_entries(self):
        assert expand(gl_tensor((0, 0, -1), (1, 0, 0), 3)) == \
            {(1, 0, -1): 1, (0, 0, 0): 1}

    def test_rejects_overlong(self):
        with pytest.raises(ValueError):
            gl_tensor((1, 0, 0), (1, 0), 2)

    def test_list_and_tuple_inputs_agree(self):
        assert gl_tensor([0, 0, -1], [1, 0, 0], 3) == gl_tensor((0, 0, -1), (1, 0, 0), 3)
        assert expand(gl_tensor([2, 1], (1, 1), 2)) == {(3, 2): 1}

    @pytest.mark.parametrize("lam, mu, m", list(INVALID_GL_TENSOR))
    def test_invalid_input_raises_on_every_call(self, lam, mu, m):
        """The memo caches results, not exceptions; the message is the one the
        validating path gives, for tuple and list input alike."""
        message = f"^{re.escape(INVALID_GL_TENSOR[lam, mu, m])}$"
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                gl_tensor(lam, mu, m)
            with pytest.raises(ValueError, match=message):
                gl_tensor(list(lam), list(mu), m)

    def test_one_memo_entry_for_padded_and_twisted_weights(self):
        """A shorter weight is padded and every weight normalized to end in
        0 before the memo, so these three products share one entry."""
        _gl_tensor.cache_clear()
        short = gl_tensor((1,), (1,), 3)
        full = gl_tensor((1, 0, 0), (1, 0, 0), 3)
        twisted = gl_tensor((2, 1, 1), (2, 1, 1), 3)
        assert _gl_tensor.cache_info().misses == 1
        assert short == full
        assert expand(twisted) == {shift(nu, 2): c for nu, c in full}

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_twist_identity(self, m):
        """gl_tensor(lam + a, mu + b, m) is the LR product of the partitions
        lam, mu shifted by a + b, for every pair of partitions in the m x 2 box
        and shifts that make entries negative."""
        box = [tuple(sorted(p, reverse=True))
               for p in combinations_with_replacement(range(3), m)]
        for lam in box:
            for mu in box:
                table = _lr_products(lam, mu, m)
                for a in (-3, 0, 2):
                    for b in (-2, 0, 1):
                        got = gl_tensor(shift(lam, a), shift(mu, b), m)
                        assert expand(got) == {shift(nu, a + b): c
                                               for nu, c in table.items()}
                        assert {len(nu) for nu, _ in got} == {m}
                        assert [nu for nu, _ in got] == sorted(expand(got))
                        assert got == tuple(sorted(expand(got).items()))

    def test_memo_is_bounded(self):
        assert _gl_tensor.cache_info().maxsize == 4096

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=1000, deadline=None)
    def test_dimension_consistency(self, m, data):
        entries = st.integers(min_value=-2, max_value=3)
        weight = st.builds(
            lambda xs: tuple(sorted(xs, reverse=True)),
            st.lists(entries, min_size=m, max_size=m))
        lam = data.draw(weight)
        mu = data.draw(weight)
        product = gl_tensor(lam, mu, m)
        total = sum(c * weyl_dim(nu, m) for nu, c in product)
        assert total == weyl_dim(lam, m) * weyl_dim(mu, m)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_shift_equivariance(self, data):
        m = data.draw(st.integers(min_value=1, max_value=4))
        entries = st.integers(min_value=-2, max_value=2)
        weight = st.builds(
            lambda xs: tuple(sorted(xs, reverse=True)),
            st.lists(entries, min_size=m, max_size=m))
        lam, mu = data.draw(weight), data.draw(weight)
        s, t = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
        plain = gl_tensor(lam, mu, m)
        shifted = gl_tensor(shift(lam, s), shift(mu, t), m)
        assert expand(shifted) == {shift(nu, s + t): c for nu, c in plain}

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_associativity(self, data):
        m = data.draw(st.integers(min_value=2, max_value=3))
        entries = st.integers(min_value=-1, max_value=2)
        weight = st.builds(
            lambda xs: tuple(sorted(xs, reverse=True)),
            st.lists(entries, min_size=m, max_size=m))
        a, b, c = data.draw(weight), data.draw(weight), data.draw(weight)

        def tensor_sum(ws, w):
            out = {}
            for nu, k in ws:
                for rho, j in gl_tensor(nu, w, m):
                    out[rho] = out.get(rho, 0) + k * j
            return sorted(out.items())

        left = tensor_sum(gl_tensor(a, b, m), c)
        right = tensor_sum(gl_tensor(b, c, m), a)
        assert left == right


def _det(rows):
    """Leibniz determinant of a small square matrix."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def character(lam, x):
    """The GL(m) character of highest weight lam at the point x, exactly: the
    bialternant det(x_i^(lam_j + m - j)) / det(x_i^(m - j)), j = 1..m."""
    m = len(lam)
    return (_det([[xi ** (lam[j] + m - 1 - j) for j in range(m)] for xi in x])
            / _det([[xi ** (m - 1 - j) for j in range(m)] for xi in x]))


# Two points with distinct nonzero rational coordinates; GL(m) takes the first m.
CHARACTER_POINTS = ((Fraction(2), Fraction(-1, 3), Fraction(5, 7)),
                    (Fraction(3, 2), Fraction(-2), Fraction(1, 5)))


class TestCharacterOracle:
    def test_oracle_sanity(self):
        """chi_(1,0) = x1 + x2, chi_(1,1) = x1 x2, chi_(0,-1) = 1/x1 + 1/x2; a
        product missing a summand does not pass."""
        x = CHARACTER_POINTS[0][:2]
        assert character((1, 0), x) == x[0] + x[1]
        assert character((1, 1), x) == x[0] * x[1]
        assert character((0, -1), x) == 1 / x[0] + 1 / x[1]
        assert character((1, 0), x) ** 2 != character((2, 0), x)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("rule", [gl_tensor, _block_tensor],
                             ids=["gl_tensor", "block_tensor"])
    def test_products_match_characters(self, rule, m):
        """chi_lam chi_mu = sum of c_nu chi_nu at both points, for every pair of
        dominant weights with entries in [-2, 2], constant ones included."""
        weights = list(combinations_with_replacement(range(2, -3, -1), m))
        points = [x[:m] for x in CHARACTER_POINTS]
        memo = {}

        def chi(w, k):
            if (w, k) not in memo:
                memo[w, k] = character(w, points[k])
            return memo[w, k]

        for lam in weights:
            for mu in weights:
                terms = list(rule(lam, mu, m))
                for k in range(len(points)):
                    assert chi(lam, k) * chi(mu, k) == \
                        sum(c * chi(nu, k) for nu, c in terms), (lam, mu)


class TestPieri:
    """pieri against the Littlewood-Richardson rule of gl_tensor."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_gl_tensor(self, m):
        """For every beta in [-4, 4]^m, 0 <= l <= 12 and c in {-2, 0, 3},
        pieri(beta, l) shifted by c is gl_tensor(beta, y, m) for the one-row
        block y = det^c (x) Sym^l, and pieri(beta, -l) for y = det^c (x)
        (Sym^l)^dual: the same weights in the same order, each of coefficient
        one.  _block_tensor gives the same pairs with beta on either side."""
        for beta in combinations_with_replacement(range(4, -5, -1), m):
            for l in range(13):
                for c in (-2, 0, 3):
                    for sign, y in ((1, (c + l,) + (c,) * (m - 1)),
                                    (-1, (c,) * (m - 1) + (c - l,))):
                        expected = list(gl_tensor(beta, y, m))
                        got = [(tuple(v + c for v in nu), 1) for nu in pieri(beta, sign * l)]
                        assert got == expected, (beta, y)
                        assert sorted(_block_tensor(beta, y, m)) == expected
                        assert sorted(_block_tensor(y, beta, m)) == expected

    def test_strips(self):
        """V_(2,1,0) (x) Sym^2 and V_(2,1,0) (x) (Sym^1)^dual for GL(3),
        written out: no two new boxes share a column, and no two removed
        boxes do."""
        assert pieri((2, 1, 0), 2) == ((2, 2, 1), (3, 1, 1), (3, 2, 0), (4, 1, 0))
        assert pieri((2, 1, 0), -1) == ((1, 1, 0), (2, 0, 0), (2, 1, -1))
        assert pieri((2, 1, 0), 0) == ((2, 1, 0),)

    def test_invalid_input_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="not weakly decreasing"):
                pieri((0, 1), 2)
            with pytest.raises(ValueError, match="not weakly decreasing"):
                pieri((0, 1), -2)
            with pytest.raises(ValueError, match="length at least 1"):
                pieri((), 0)

    def test_memo_is_bounded(self):
        assert pieri.cache_info().maxsize == 4096


class TestShift:
    def test_identity(self):
        assert shift((1, 0), 0) == (1, 0)

    def test_up(self):
        assert shift((0, 0, -1), 1) == (1, 1, 0)

    def test_down(self):
        assert shift((2, 2, 1), -2) == (0, 0, -1)
