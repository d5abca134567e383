"""Filtered-bundle calculus on the minus side of the flop.

The minus model carries a rank-3 bundle that is not pulled back from the base:
it is an extension of the dual tautological subbundle by O(-2).  Schur powers
of it are handled through the induced filtration, whose graded pieces are
pulled back from Gr(2,5).  Euler characteristics are additive along
filtrations, so the graded Euler characteristic of Ext between such bundles is
computed exactly from the pieces.

Each piece carries a fiber-degree offset: the extension's sub-line-bundle sits
one fiber degree below its quotient (the inclusion is built from the fiber
coordinate), so a piece with a copies of the sub-line-bundle is offset by a.
A source piece with offset p paired against a target piece with offset q
contributes to graded level l through the pushforward term of degree l - p + q.
Dropping the offsets already breaks the cross-side comparison for the
endomorphisms of the extension itself.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from . import data
from .exceptional import ext_groups
from .homog import (BundleSum, GR25, GR35, HomogeneousBundle, _tensor_into,
                    line_bundle, schur_sub_dual, structure_sheaf)
from .partitions import as_weight
from .total_space import XMINUS, XPLUS, _euler, _higher_ext, _product, euler_sum
from .value import Value


class FilteredBundle(Value):
    """Ordered graded pieces (sub to quotient) of a filtered bundle on Gr(2,5).

    ``offsets[i]`` is the fiber degree of ``pieces[i]`` relative to the
    pullback normalization.
    """

    __slots__ = ("pieces", "offsets", "label")

    def __init__(self, pieces: tuple[BundleSum, ...], offsets: tuple[int, ...],
                 label: str = ""):
        if not pieces:
            raise ValueError("a filtered bundle needs at least one piece")
        if len(offsets) != len(pieces):
            raise ValueError("one offset per piece required")
        if len({p.space for p in pieces}) != 1:
            raise ValueError("all pieces must live on one space")
        super().__init__(pieces, offsets, label)


def schur_filtered(chi: Iterable[int]) -> FilteredBundle:
    """Graded pieces of the Schur power S^chi of the core extension E.

    The associated graded of S^chi of 0 -> L -> E -> B -> 0 is the sum of
    S^a L (x) S^beta B over pairs with chi/beta a horizontal strip of size a;
    B has rank 2, so beta = (b1, b2) interlaces chi.  A weight with negative
    entries is first shifted by t = max(0, -chi3) and the result tensored
    with det(E)^-t = O(t).  With L = O(-2) and B the dual subbundle, the
    piece is S^(b1 - 2a + t, b2 - 2a + t) of the dual subbundle, with fiber
    offset a - t.  Pieces are ordered by descending a (sub to quotient),
    then by descending beta.
    """
    chi = as_weight(chi)
    if len(chi) != 3:
        raise ValueError("chi must have length 3")
    t = max(0, -chi[2])
    c0, c1, c2 = (x + t for x in chi)
    graded = sorted(((c0 + c1 + c2 - b1 - b2, b1, b2)
                     for b1 in range(c1, c0 + 1) for b2 in range(c2, c1 + 1)), reverse=True)
    pieces = tuple(BundleSum.of(GR25, [schur_sub_dual(GR25, (b1 - 2 * a, b2 - 2 * a), t)])
                   for a, b1, b2 in graded)
    return FilteredBundle(pieces, tuple(a - t for a, _, _ in graded), f"S^{list(chi)}[ext]")


def graded_euler(left: Sequence[FilteredBundle], right: Sequence[FilteredBundle],
                 max_l: int = 8) -> tuple[int, ...]:
    """Filtration-additive graded Euler characteristics chi_l of Ext(left,
    right) on the minus total space, for lists of filtered bundles, exact
    integers, for l in [0, max_l].

    chi_l sums, over source pieces p (offset op) and target pieces q (offset
    oq), the signed Bott dimensions of dual(p) (x) q (x) term(l - op + oq).
    Since (x) distributes over direct sums and the signed sum is additive,
    this is chi_l = sum over d with l + d >= 0 of chi(S_d (x) term(l + d))
    for the shift sums S_d of _shift_sums.
    """
    tables = _shift_sums(left, right).items()
    return tuple(sum(_euler(table.items(), XMINUS.term(l + d).blocks)
                     for d, table in tables if l + d >= 0) for l in range(max_l + 1))


def _shift_sums(left, right) -> dict[int, dict]:
    """S_d, the sum of dual(p) (x) q over source pieces p (offset op) and
    target pieces q (offset oq) with oq - op = d, as a table mapping blocks
    to multiplicities.  The pieces of each side are merged by offset first,
    so one product is taken per offset pair, and the products of a shift
    merge into one table."""
    targets = _by_offset(right).items()
    by_shift: dict[int, dict] = {}
    for op, p in _by_offset(left).items():
        dual = p.dual().terms
        for oq, q in targets:
            _tensor_into(by_shift.setdefault(oq - op, {}), dual, q.terms)
    return by_shift


def _by_offset(bundles: Sequence[FilteredBundle]) -> dict[int, BundleSum]:
    """The pieces of filtered bundles on Gr(2,5) merged into one sum per offset."""
    terms: dict[int, list[HomogeneousBundle]] = {}
    for fb in bundles:
        for p, o in zip(fb.pieces, fb.offsets):
            if p.space != GR25:
                raise ValueError(f"pieces must live on {GR25}")
            terms.setdefault(o, []).extend(p.terms)
    return {o: BundleSum.of(GR25, ts) for o, ts in terms.items()}


@lru_cache(maxsize=16)
def _window_euler(weights: tuple, max_l: int) -> tuple[int, ...]:
    """graded_euler of End(W) for the minus window W of these weights,
    memoized.  S^(dual chi) E is the dual of S^chi E, pieces and offsets
    alike, so End(W^dual) = End(W): keyed by _dual_key, club and diamond
    take the values of spade and heart and build no shift sums."""
    minus = [schur_filtered(chi) for chi in weights]
    return graded_euler(minus, minus, max_l)


def _dual_key(weights) -> tuple:
    """The same key for a window's weights and for their duals."""
    dual = (tuple(-x for x in reversed(chi)) for chi in weights)
    return min(tuple(sorted(weights)), tuple(sorted(dual)))


@lru_cache(maxsize=16)
def _plus_euler(product: BundleSum, max_l: int) -> tuple[int, ...]:
    """The plus values of euler_cross_check for levels 0..max_l of a product
    dual(W) (x) W, memoized: club and diamond take the product objects of
    spade and heart (see _product), and with them their values."""
    return tuple(euler_sum(XPLUS, product, l) for l in range(max_l + 1))


class SuiteItem(Value):
    __slots__ = ("check_id", "description", "passed", "details")


def vanishing_suite() -> tuple[SuiteItem, ...]:
    """The fixed battery of minus-side vanishing checks.

    Four blocks of higher-cohomology vanishing on the minus total space, plus
    the complete-orthogonality endpoints on Gr(3,5) that the harder minus-side
    arguments reduce to.
    """
    O = structure_sheaf(GR25)
    sub_dual = schur_sub_dual(GR25, (1, 0))
    sym2 = schur_sub_dual(GR25, (2, 0))
    rows = [(f"xminus-line-bundle-minus-{k}",
             f"no higher cohomology of O(-{k}) on the minus total space",
             O, line_bundle(GR25, -k)) for k in range(5)]
    rows += [(f"xminus-dual-sub-minus-{k}",
              f"no higher cohomology of the dual subbundle twisted by -{k}",
              O, schur_sub_dual(GR25, (1, 0), -k)) for k in range(3)]
    rows += [(f"xminus-sub-vs-sym2-{a}",
              f"no higher Ext from the dual subbundle to its symmetric square twisted by {a}",
              sub_dual, schur_sub_dual(GR25, (2, 0), a)) for a in range(3)]
    rows.append(("xminus-sym2-endo",
                 "no higher self-Ext of the symmetric square of the dual subbundle",
                 sym2, sym2))
    items: list[SuiteItem] = []
    for check_id, description, left, right in rows:
        certificate, witnesses = _higher_ext(XMINUS, _product(XMINUS, left, right))
        items.append(SuiteItem(check_id, description, not witnesses,
                               {"l0": certificate.l0}))

    for i, (src, tgt, label) in enumerate(data.GR35_ORTHOGONAL_PAIRS, start=1):
        source = schur_sub_dual(GR35, src)
        target = schur_sub_dual(GR35, tgt)
        groups = ext_groups(source, target)
        items.append(SuiteItem(
            f"gr35-orthogonal-{i}",
            f"complete Ext vanishing on Gr(3,5): {label}",
            not groups,
            {"source": source.literal(), "target": target.literal(),
             "nonzero": {str(d): n for d, n in groups.items()}}))
    return tuple(items)


def euler_cross_check(star: str, max_l: int = 8) -> dict:
    """Compare minus-side graded Euler characteristics of a window bundle's
    endomorphisms against the plus side's graded Hom dimensions.

    The plus side has no higher self-Ext, so its alternating sums equal the
    graded Hom dimensions level by level; the minus-side filtration-additive
    Euler characteristics must match them exactly.  Whether it has higher
    self-Ext at levels 0..max_l is read from the pretilting witnesses, whose
    certificate covers every level past l0.
    """
    if star not in data.WINDOW_WEIGHTS:
        raise ValueError(f"unknown window {star!r}; valid: {', '.join(data.WINDOW_WEIGHTS)}")
    plus = data.window_sum_plus(star)
    chi = _window_euler(_dual_key(data.WINDOW_WEIGHTS[star]), max_l)
    product = _product(XPLUS, plus, plus)
    plus_values = _plus_euler(product, max_l)
    _, witnesses = _higher_ext(XPLUS, product)
    return {
        "star": star,
        "max_l": max_l,
        "minus": list(chi),
        "plus": list(plus_values),
        "equal": chi == plus_values,
        "plus_has_higher": any(l <= max_l for l, *_ in witnesses),
    }
