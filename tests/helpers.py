"""Reference computations the tests share, built from the package's API:
values that no command of the package asks for, the report encoder that
Report.to_json_text must agree with, the Gram-Schmidt Kempf-Ness solver that
kn_adapted must agree with, one argv of every leaf command, and random sums."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from hypothesis import strategies as st

import grflop.cli
from grflop.filtered import FilteredBundle
from grflop.homog import (GR25, BundleSum, HomogeneousBundle, degree_totals,
                          line_bundle, schur_sub_dual)
from grflop.stability import KNSolution


def shift(w, t):
    """Add t to every entry of a weight; length is preserved."""
    return tuple(x + t for x in w)


def dimension(space):
    """The dimension of a flag variety, read as the Bott degree of a bundle
    whose blocks rise steeply from first to last: every pair of entries in
    different blocks is then an inversion."""
    blocks = tuple((10 * i,) * s for i, s in enumerate(space.block_sizes()))
    return HomogeneousBundle(space, blocks).cohomology().degree


def signed_euler(s):
    """Alternating sum of the cohomology dimensions of a sum, multiplicities
    included."""
    return sum(t.mult * c.signed_dim() for t, c in s.cohomology())


def row_totals(table, l):
    """Total dimension by degree in row l of an Ext table."""
    for level, entries in table.rows:
        if level == l:
            return degree_totals(entries)
    raise KeyError(f"row {l} not computed")


def hom_dim(table, l):
    """Total degree-0 dimension in row l of an Ext table."""
    return row_totals(table, l).get(0, 0)


def signed_dim(table, l):
    """Alternating sum of the dimensions in row l of an Ext table."""
    return sum(n if d % 2 == 0 else -n for d, n in row_totals(table, l).items())


def core_extension():
    """The rank-3 extension of the dual tautological subbundle by O(-2)."""
    sub = BundleSum.of(GR25, [line_bundle(GR25, -2)])
    quot = BundleSum.of(GR25, [schur_sub_dual(GR25, (1, 0))])
    return FilteredBundle((sub, quot), (1, 0), "ext")


def rank(fb):
    """The rank of a filtered bundle, the sum of its pieces' ranks."""
    return sum(p.rank() for p in fb.pieces)


def dual(fb):
    """Dualize each graded piece, negate the offsets, reverse the order."""
    return FilteredBundle(tuple(p.dual() for p in reversed(fb.pieces)),
                          tuple(-o for o in reversed(fb.offsets)),
                          f"dual({fb.label})" if fb.label else "")


def refined(fb):
    """Split every piece into its irreducible terms, offsets preserved."""
    pairs = [(BundleSum.of(p.space, [t]), o)
             for p, o in zip(fb.pieces, fb.offsets) for t in p]
    return FilteredBundle(tuple(p for p, _ in pairs), tuple(o for _, o in pairs), fb.label)


def serialize_set_file(sets):
    """Canonical text of named bundle sums: a [name] header, then the
    literals of its terms, one trailing newline."""
    lines = []
    for name, s in sets.items():
        lines.append(f"[{name}]")
        lines.extend(t.literal() for t in s.terms)
    return "\n".join(lines) + "\n"


def encode_value(x):
    """Reference encoder of report payloads: the JSON tree that
    Report.to_json_text writes, built by one recursive walk."""
    if isinstance(x, dict):
        return {str(k): encode_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [encode_value(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    as_json = getattr(x, "as_json", None)
    if callable(as_json):
        return encode_value(as_json())
    raise TypeError(f"cannot encode {type(x).__name__} into a report")


def _dot(a, b):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))


def _project_off(r, vectors):
    """Orthogonal projection of r onto the common kernel of the given
    functionals, by Gram-Schmidt in Fractions."""
    basis = []
    for v in vectors:
        u = [Fraction(x) for x in v]
        for b in basis:
            coef = _dot(u, b) / _dot(b, b)
            u = [x - coef * y for x, y in zip(u, b)]
        if any(u):
            basis.append(u)
    p = [Fraction(x) for x in r]
    for b in basis:
        coef = _dot(p, b) / _dot(b, b)
        p = [x - coef * y for x, y in zip(p, b)]
    return p


def _primitive(p):
    denom = lcm(*(x.denominator for x in p))
    ints = [int(x * denom) for x in p]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def exact(x):
    """(numerator, denominator) of a Ratio or a Fraction; None stays None."""
    if x is None:
        return None
    if isinstance(x, Fraction):
        return (x.numerator, x.denominator)
    return (x.num, x.den)


def kn_exact(solution):
    """A KNSolution as (value_sq as exact(...), minimizer), for comparing a
    solution of Ratios with one of Fractions."""
    return exact(solution.value_sq), solution.minimizer


def kn_reference(constraints, character):
    """Reference Kempf-Ness solver: every subset's projection of the
    character by Gram-Schmidt in Fractions, the feasible negated projection
    of largest length kept, the first among equals."""
    best_sq = best_ray = None
    for size in range(len(constraints) + 1):
        for subset in combinations(constraints, size):
            p = _project_off(character, subset)
            if not any(p):
                continue
            k = [-x for x in p]
            if any(_dot(w, k) < 0 for w in constraints):
                continue
            value_sq = _dot(p, p)
            if best_sq is None or value_sq > best_sq:
                best_sq, best_ray = value_sq, _primitive(k)
    return KNSolution(best_sq, best_ray)


def command_argvs(tmp):
    """verify-all and each leaf command once, in the order of cli.COMMANDS,
    with --twists, --sets and --json PATH among them; the set file is
    written under the directory `tmp`."""
    sets = tmp / "sets.txt"
    sets.write_text("[mine]\ngr(3,5) u=[1,0,0] q=[0,0]\ngr(3,5) u=[0,0,0] q=[0,0] mult=2\n")
    report = str(tmp / "report.json")
    argvs = [
        ["lr", "mult", "2,1", "2,1"],
        ["lr", "coeff", "3,2,1", "2,1", "2,1"],
        ["weyl", "dim", "2,1,0", "3"],
        ["bwb", "cohom", "gr(2,5)", "u=[0,0]", "q=[3,3,3]"],
        ["ext-total", "--model", "xplus", "--left", "mine", "--right", "mine",
         "--sets", str(sets), "--json", report],
        ["tilting", "check", "--window", "spade"],
        ["suite", "minus-vanishing"],
        ["euler", "compare", "--star", "heart", "--max-l", "2"],
        ["windows", "enumerate", "--side", "plus", "--w=-7,-4,-1"],
        ["windows", "member", "--chi", "1,1,0", "--side", "minus", "--w=-7,-5,-2"],
        ["kn", "solve", "--character", "minus", "--support", "q2,q3"],
        ["kn", "strata", "--side", "minus"],
        ["collections", "check", "--name", "prop31-1"],
        ["collections", "resolve", "--name", "lascoux-1", "--twists=-2..2"],
        ["verify-all", "--json", report],
    ]
    words = [row[0] for row in grflop.cli.COMMANDS]
    assert [tuple(a[:len(w)]) for a, w in zip(argvs, words)] == words
    assert len(argvs) == len(words)
    return argvs


def sums_on(space):
    """Sums of one to three terms, multiplicities 1..2, blocks in [-3, 3]."""
    block = lambda s: st.lists(st.integers(-3, 3), min_size=s, max_size=s).map(
        lambda xs: tuple(sorted(xs, reverse=True)))
    term = st.builds(lambda mult, *blocks: HomogeneousBundle(space, blocks, mult),
                     st.integers(1, 2), *[block(s) for s in space.block_sizes()])
    return st.lists(term, min_size=1, max_size=3).map(lambda ts: BundleSum.of(space, ts))
