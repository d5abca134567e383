"""Ext computations on the two total spaces of the flop, via pushforward expansion.

The plus model lives over Gr(3,5) and the minus model over Gr(2,5); pushing the
structure sheaf down to the base turns Ext groups upstairs into an infinite
direct sum of base cohomologies, one summand per fiber degree l.  The sum is
truncated with a certified bound: past the bound every irreducible summand has
a dominant concatenated weight, hence cohomology in degree 0 only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial, prod

from .flags import FlagVariety, GR25, GR35, bott
from .homog import (BundleSum, HomogeneousBundle, _block_product, _tensor_into, as_sum,
                    degree_totals)
from .value import Value


class TotalSpaceModel(Value):
    """A vector-bundle total space over a Grassmannian, given by its fiber weight.

    ``term(l)``, the l-th summand of the pushforward of the structure sheaf,
    is the bundle of blocks ``(l*a | l*b)`` for the fiber weight ``(a | b)``.
    The built-in models are ``xplus`` (over Gr(3,5), fiber dual-tautological
    twisted by -2) and ``xminus`` (over Gr(2,5), fiber quotient twisted by -2).
    """

    __slots__ = ("name", "base", "fiber")

    def __init__(self, name: str, base: FlagVariety,
                 fiber: tuple[tuple[int, ...], tuple[int, ...]]):
        fiber = HomogeneousBundle(base, fiber).blocks
        a, b = fiber
        if a[-1] - b[0] != 1:
            raise ValueError(f"model {name!r}: fiber weight {fiber} has "
                             f"a[-1] - b[0] = {a[-1] - b[0]}, not 1")
        super().__init__(name, base, fiber)

    def term(self, l: int) -> HomogeneousBundle:
        if l < 0:
            raise ValueError("fiber degree must be nonnegative")
        # Multiples of the fiber the constructor validated: no re-validation.
        return HomogeneousBundle._trusted(
            self.base, tuple(tuple([l * x for x in block]) for block in self.fiber), 1)

    def dominance_gap(self, bundle: HomogeneousBundle) -> int:
        """Least l making every summand of bundle (x) term(l') dominant for l' >= l.

        For blocks (lam | mu), every summand of bundle (x) term(l) has first
        block ending at least at lam[-1] + l*a[-1] and second block starting at
        most at mu[0] + l*b[0] (the Littlewood-Richardson bounds).  It is
        dominant once lam[-1] - mu[0] + l*(a[-1] - b[0]) >= 0, and the
        constructor's a[-1] - b[0] = 1 makes the gap mu[0] - lam[-1].
        """
        lam, mu = bundle.blocks
        return mu[0] - lam[-1]


XPLUS = TotalSpaceModel("xplus", GR35, ((2, 2, 1), (0, 0)))
XMINUS = TotalSpaceModel("xminus", GR25, ((2, 2), (1, 0, 0)))
MODELS = {"xplus": XPLUS, "xminus": XMINUS}


class CutoffCertificate(Value):
    """A certified truncation level with the summand that forces it."""

    __slots__ = ("l0", "binding")

    def as_json(self) -> dict:
        out = {"l0": self.l0}
        out["binding_summand"] = None if self.binding is None else self.binding.literal()
        return out


def stable_cutoff(model: TotalSpaceModel, left, right) -> CutoffCertificate:
    """Certified l0 such that rows l >= l0 of the Ext table carry no higher cohomology.

    Every irreducible summand of dual(left) (x) right (x) term(l) then has a
    dominant concatenated weight, hence a section and cohomology in degree 0
    only.
    """
    return _certify(model, _product(model, left, right))


def _product(model: TotalSpaceModel, left, right) -> BundleSum:
    """dual(left) (x) right, for bundles or sums on the model's base, memoized:
    a window's pretilting check and its Euler sums share one product.  It
    equals dual(dual right) (x) dual left, so the pair and its dual pair
    share one memo entry: End(W^dual) = End(W) gives the windows club and
    diamond the products of spade and heart."""
    left = as_sum(left)
    right = as_sum(right)
    if left.space != model.base or right.space != model.base:
        raise ValueError(f"bundles must live on {model.base}")
    dual_left = left.dual()
    dual_right = dual_left if right is left else right.dual()
    pair = min((left, right), (dual_right, dual_left), key=_pair_key)
    return _dual_tensor(*pair)


def _pair_key(pair) -> list:
    return [(t.blocks, t.mult) for s in pair for t in s.terms]


@lru_cache(maxsize=256)
def _dual_tensor(left: BundleSum, right: BundleSum) -> BundleSum:
    return left.dual().tensor(right)


def euler_sum(model: TotalSpaceModel, terms, l: int) -> int:
    """chi(s (x) term(l)) for the sum s of the irreducible terms: row l's
    signed Euler characteristic, with no row built."""
    return _euler(((t.blocks, t.mult) for t in terms), model.term(l).blocks)


def _euler(entries, term: tuple) -> int:
    """chi(s (x) u) for the sum s of the (blocks, mult) entries and the
    irreducible u of blocks term, on a Grassmannian, over the weights of the
    block products, straight from _block_product.  The twist of the first
    block's product is taken off the second's weight, not added to every
    weight of the first: the Weyl numerator is invariant under it."""
    x, y = term
    k, r = len(x), len(y)
    groups = []
    for (x2, y2), mult in entries:
        cx, us = _block_product(x2, x, k)
        cy, ys = _block_product(y2, y, r)
        for v, d in ys:
            groups.append((us, cy - cx, v, mult * d))
    return _weyl_sum(k, r)(groups)


@lru_cache(maxsize=16)
def _weyl_sum(k: int, r: int):
    """Bott's signed dimension of a weight w of length n is the signed Weyl
    polynomial prod_{i<j} (w_i - w_j + j - i) / (j - i), 0 on a singular w.
    This compiles, once per block shape, the sum over groups (pairs, s, v, m)
    and their (u, c) of m * c * chi(u ++ (v + s)): one call for all groups,
    each numerator unrolled, a quarter of the time of combinations() on it."""
    n = k + r
    factors = " * ".join(f"(w{i} - w{j} + {j - i})" for i, j in combinations(range(n), 2))
    u = "".join(f"w{i}, " for i in range(k))
    v = "".join(f"w{i}, " for i in range(k, n))
    return eval(f"lambda groups: sum([m * c * {factors} for pairs, s, ({v}), m in groups "
                f"for {v}in (({v.replace(',', ' + s,')}),) for ({u}), c in pairs]) "
                f"// {prod(map(factorial, range(n)))}")


def _certify(model: TotalSpaceModel, product) -> CutoffCertificate:
    """The certificate for the product dual(left) (x) right: the largest
    dominance gap of its summands, and the summand that has it."""
    l0 = 0
    binding = None
    for t in product:
        gap = model.dominance_gap(t)
        if gap > l0:
            l0 = gap
            binding = t
    return CutoffCertificate(l0, binding)


class ExtTable(Value):
    """Per-fiber-degree cohomology of dual(left) (x) right on a total space:
    ``rows`` holds ``(level, ((summand, Cohomology), ...))`` for each level
    0..cutoff, and ``certificate`` is None unless the cutoff was certified."""

    __slots__ = ("model", "rows", "cutoff", "certificate")

    @property
    def any_higher_cohomology(self) -> bool:
        return bool(self.violations())

    def degree_totals(self) -> dict[int, int]:
        return degree_totals(pair for _, entries in self.rows for pair in entries)

    def level_degree_dims(self) -> list[tuple[int, int, int]]:
        """(level, degree, total dim) triples, sorted."""
        return [(l, d, n) for l, entries in self.rows
                for d, n in degree_totals(entries).items()]

    def violations(self) -> tuple[tuple[int, HomogeneousBundle, int, int], ...]:
        """(level, summand, degree, dim) for every positive-degree entry."""
        return tuple([(l, t, c.degree, t.mult * c.dim) for l, entries in self.rows
                      for t, c in entries if not c.is_acyclic and c.degree > 0])

    def as_json(self) -> dict:
        rows = []
        for l, entries in self.rows:
            terms = [{"bundle": t.literal(), "cohomology": c} for t, c in entries]
            rows.append({"level": l, "terms": terms})
        return {
            "model": self.model.name,
            "cutoff": self.cutoff,
            "certificate": self.certificate,
            "rows": rows,
            "by_level_degree": self.level_degree_dims(),
            "by_degree": {str(d): n for d, n in self.degree_totals().items()},
            "any_higher_cohomology": self.any_higher_cohomology,
        }


def ext_table(model: TotalSpaceModel, left, right, cutoff="auto") -> ExtTable:
    """Ext of left against right on the total space, row by fiber degree.

    Row l holds the base cohomology of dual(left) (x) right (x) term(l).  With
    ``cutoff="auto"`` rows run to the certified bound (inclusive, as a spot
    check) and the certificate is attached.
    """
    product = _product(model, left, right)
    certificate = None
    if cutoff == "auto":
        certificate = _certify(model, product)
        top = certificate.l0
    else:
        top = int(cutoff)
        if top < 0:
            raise ValueError("cutoff must be nonnegative")
    rows = tuple((l, product.tensor(model.term(l)).cohomology()) for l in range(top + 1))
    return ExtTable(model, rows, top, certificate)


class PretiltingReport(Value):
    """Outcome of a higher-Ext vanishing check on dual(left) (x) right:
    ``witnesses`` holds a ``(level, summand, degree, dim)`` tuple for every
    positive-degree entry of its Ext table, ``ok`` says there is none, and
    ``certificate`` is the certified cutoff past which there can be none."""

    __slots__ = ("ok", "witnesses", "certificate")

    def as_json(self) -> dict:
        return {
            "ok": self.ok,
            "witnesses": [{"level": l, "bundle": t.literal(), "degree": d, "dim": n}
                          for l, t, d, n in self.witnesses],
            "cutoff": self.certificate,
        }


def is_pretilting(model: TotalSpaceModel, bundle) -> PretiltingReport:
    """True when Ext^i(bundle, bundle) vanishes upstairs for every i > 0.

    Rows beyond the certified cutoff cannot contribute, so the check is exact.
    """
    certificate, witnesses = _higher_ext(model, _product(model, bundle, bundle))
    return PretiltingReport(not witnesses, witnesses, certificate)


@lru_cache(maxsize=256)
def _higher_ext(model: TotalSpaceModel, product: BundleSum) -> tuple:
    """The certificate and the violations() of ext_table(..., "auto") for a
    product dual(left) (x) right, memoized, from the live terms of each row.

    A term of dominance gap g has only dominant summands, of degree 0, in the
    rows l >= g: the bound that certifies l0.  In row g - 1 the junction
    entries of its summands satisfy y <= x + 1, and y = x + 1 repeats an
    entry after adding rho: each summand is dominant or acyclic.  So row l
    tensors only the terms of gap above l + 1, the rows from l0 - 1 on none,
    and a witness, never dominant, has the multiplicity the full row gives
    it.  Bott runs on the merged table of a row; a bundle is built only for
    a witness, and a row's witnesses are sorted by blocks, as in the
    canonical row.
    """
    certificate = _certify(model, product)
    gaps = [(model.dominance_gap(t), t) for t in product]
    space = model.base
    witnesses = []
    for l in range(certificate.l0 - 1):
        live = [t for g, t in gaps if g > l + 1]
        found = []
        for blocks, mult in _tensor_into({}, live, (model.term(l),)).items():
            c = bott(space, sum(blocks, ()))
            if c.degree:  # neither acyclic (None) nor 0
                found.append((blocks, mult, c))
        witnesses += [(l, HomogeneousBundle._trusted(space, blocks, mult), c.degree, mult * c.dim)
                      for blocks, mult, c in sorted(found)]
    return certificate, tuple(witnesses)
