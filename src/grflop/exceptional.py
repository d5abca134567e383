"""Exceptional-collection checks and K-theory witnesses for resolution complexes."""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from . import data
from .flags import FlagVariety, GR35, bott
from .homog import (BundleSum, HomogeneousBundle, _block_tensor, _dual_blocks,
                    schur_sub_dual)
from .value import Value


class ExceptionalCollection(Value):
    __slots__ = ("name", "space", "objects")

    def __init__(self, name: str, space: FlagVariety,
                 objects: tuple[HomogeneousBundle, ...]):
        if not objects:
            raise ValueError("empty collection")
        if any(o.space != space for o in objects):
            raise ValueError("all objects must live on the collection's space")
        super().__init__(name, space, objects)


def builtin_collection(name: str) -> ExceptionalCollection:
    objects = data.collection_objects(name)
    return ExceptionalCollection(name, objects[0].space, objects)


class Violation(Value):
    """A nonzero Ext^degree of dimension dim from object source to object
    target of a collection; kind is "exceptional", "semiorthogonality" or
    "strongness"."""

    __slots__ = ("kind", "source", "target", "degree", "dim")

    def as_json(self) -> dict:
        return {"kind": self.kind, "source": self.source, "target": self.target,
                "degree": self.degree, "dim": self.dim}


class CollectionReport(Value):
    __slots__ = ("collection", "violations")

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_json(self) -> dict:
        return {
            "name": self.collection.name,
            "objects": [o.literal() for o in self.collection.objects],
            "passed": self.passed,
            "violations": self.violations,
        }


def ext_groups(source: HomogeneousBundle, target: HomogeneousBundle
               ) -> dict[int, int]:
    """Nonzero Ext dimensions between two bundles, by degree.

    Memoized up to a common twist: dual(E (x) L) (x) (F (x) L) = dual(E) (x) F
    for the determinant L of any block, so the pair is keyed with every block
    of both shifted by the last entry of the source's block.
    """
    if source.space != target.space:
        raise ValueError("cannot tensor bundles on different spaces")
    shifts = [b[-1] for b in source.blocks] * 2
    key = tuple([tuple([x - c for x in b])
                 for b, c in zip(source.blocks + target.blocks, shifts)])
    return dict(_ext_groups(source.space, key, source.mult, target.mult))


@lru_cache(maxsize=1024)
def _ext_groups(space: FlagVariety, blocks: tuple, source_mult: int,
                target_mult: int) -> dict[int, int]:
    """ext_groups of the bundles whose blocks are the halves of `blocks`:
    Bott dimensions summed by degree over the concatenated weights of the
    block products of the dual source and the target, with no bundle built.
    Each block's weights are distinct, so no weight repeats."""
    k = len(blocks) // 2
    weights = [((), 1)]
    for x, y in zip(_dual_blocks(blocks[:k]), blocks[k:]):
        weights = [(w + v, c * d) for w, c in weights for v, d in _block_tensor(x, y, len(x))]
    out: dict[int, int] = {}
    for w, c in weights:
        coh = bott(space, w)
        if not coh.is_acyclic:
            out[coh.degree] = out.get(coh.degree, 0) + c * coh.dim
    mult = source_mult * target_mult
    return {d: mult * n for d, n in sorted(out.items())}


def check_collection(coll: ExceptionalCollection) -> CollectionReport:
    """Exceptionality, semiorthogonality and strongness for all ordered pairs.

    Hom and Ext are computed through the cohomology of dual(source) (x) target.
    Every violated (source, target, degree) triple is reported.
    """
    violations: list[Violation] = []
    n = len(coll.objects)
    for b in range(n):
        for a in range(n):
            exts = ext_groups(coll.objects[b], coll.objects[a])
            if a == b and exts.get(0, 0) != 1:
                violations.append(Violation("exceptional", a, a, 0, exts.get(0, 0)))
            kind = "exceptional" if a == b else "semiorthogonality" if b > a else "strongness"
            violations += [Violation(kind, b, a, d, m) for d, m in exts.items()
                           if d > 0 or b > a]
    violations.sort(key=lambda v: (v.source, v.target, v.degree))
    return CollectionReport(coll, tuple(violations))


class ResolutionSequence(Value):
    """A four-term complex shape with alternating signs, first term positive."""

    __slots__ = ("name", "terms")

    def __init__(self, name: str, terms: tuple[BundleSum, ...]):
        if len(terms) < 2:
            raise ValueError("a resolution needs at least two terms")
        super().__init__(name, terms)

    def signs(self) -> tuple[int, ...]:
        return tuple(1 if i % 2 == 0 else -1 for i in range(len(self.terms)))


def builtin_resolution(name: str) -> ResolutionSequence:
    rows = data.RESOLUTIONS[name]
    seq = ResolutionSequence(name, tuple(
        BundleSum.of(GR35, [schur_sub_dual(GR35, weight).with_mult(mult)])
        for _, weight, mult in rows))
    if tuple(sign for sign, _, _ in rows) != seq.signs():
        raise ValueError("resolution data must alternate signs starting positive")
    return seq


class ResolutionReport(Value):
    """``euler_sums`` holds ``(twist, alternating signed-dim sum)`` pairs and
    ``degree_table`` ``(twist, term, degree, dim)`` rows."""

    __slots__ = ("sequence", "rank_sum", "twists", "euler_sums", "degree_table")

    @property
    def passed(self) -> bool:
        return self.rank_sum == 0 and all(s == 0 for _, s in self.euler_sums)

    def as_json(self) -> dict:
        return {
            "name": self.sequence.name,
            "rank_sum": self.rank_sum,
            "twists": self.twists,
            "euler_sums": self.euler_sums,
            "degree_table": self.degree_table,
            "passed": self.passed,
        }


def check_resolution(seq: ResolutionSequence,
                     twists: Sequence[int] = range(-3, 4)) -> ResolutionReport:
    """K-theoretic exactness witness for a resolution complex.

    Checks the alternating rank sum and, for every twist in the range, that
    the terms' degree-signed cohomology dimensions cancel under the complex's
    alternating signs.  A per-(twist, term, degree) table of the raw
    dimensions is reported alongside; exactness itself is not proved, only
    its K-theoretic shadow.  Note that raw dimensions need not cancel degree
    by degree: connecting maps legitimately shift cohomology between degrees,
    and only the signed sums are an invariant of the class of the complex.
    """
    signs = seq.signs()
    rank_sum = sum(s * t.rank() for s, t in zip(signs, seq.terms))
    euler: dict[int, int] = {}
    table: list[tuple[int, int, int, int]] = []
    for tw in twists:
        euler.setdefault(tw, 0)
        for i, (s, term) in enumerate(zip(signs, seq.terms)):
            for bundle, coh in term.twist(tw).cohomology():
                if not coh.is_acyclic:
                    euler[tw] += s * bundle.mult * coh.signed_dim()
                    table.append((tw, i, coh.degree, bundle.mult * coh.dim))
    euler_sums = tuple(sorted(euler.items()))
    return ResolutionReport(seq, rank_sum, tuple(twists), euler_sums, tuple(table))
