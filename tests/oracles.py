"""Oracles that share no code path with the engine.

Euler characteristics by the Brauer-Klimyk rule: the character of V_a (x) V_b
is the sum over the weights mu of V_b of the virtual character at a + mu, and
the signed Weyl polynomial, Bott's signed dimension on a flag variety, is
antisymmetric under each block's Weyl group.  So chi(V_a (x) V_b (x) ...)
is the signed Weyl polynomial summed over a plus every weight of the other
factors, read off Gelfand-Tsetlin patterns, with no Pieri, Littlewood-
Richardson or block product.
"""

from collections import Counter
from itertools import combinations, product
from math import factorial, prod


def gt_weights(top):
    """The weights of the GL(len(top)) irreducible of highest weight top,
    one per Gelfand-Tsetlin pattern with top row top: the row below
    interlaces it, and the top row adds its sum less the row's."""
    if len(top) < 2:
        return [tuple(top)]
    return [w + (sum(top) - sum(row),)
            for row in product(*[range(b, a + 1) for a, b in zip(top, top[1:])])
            for w in gt_weights(row)]


def euler_oracle(first, *others):
    """chi of the tensor product of sums given as (blocks, mult) lists on
    one flag variety: the first taken at its highest weights, each other
    factor by its character (the weights of its blocks, concatenated)."""
    weights = Counter()
    for blocks, mult in first:
        weights[sum(blocks, ())] += mult
    for factor in others:
        character = Counter()
        for blocks, mult in factor:
            for mus in product(*map(gt_weights, blocks)):
                character[sum(mus, ())] += mult
        weights, before = Counter(), weights
        for w, c in before.items():
            for mu, d in character.items():
                weights[tuple([a + b for a, b in zip(w, mu)])] += c * d
    n = len(next(iter(weights)))
    numerator = sum(c * prod(w[i] - w[j] + j - i for i, j in combinations(range(n), 2))
                    for w, c in weights.items())
    quotient, remainder = divmod(numerator, prod(map(factorial, range(n))))
    assert not remainder
    return quotient
