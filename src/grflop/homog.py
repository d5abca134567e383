"""Homogeneous irreducible vector bundles on Grassmannians and partial flag varieties.

A bundle is encoded by one weakly decreasing weight per Levi block.  On
Gr(k, n) with blocks (lam | mu) the bundle is S^lam(U_k^dual) (x) S^mu(Q^dual),
where U_k is the tautological subbundle and Q the quotient; on Fl(2,3;5) the
three blocks act on U_2^dual, (U_3/U_2)^dual and (V/U_3)^dual.  Under this
convention O(1) on Gr(k, n) has blocks ((1,...,1) | 0).

Cohomology is computed by the Bott recipe: concatenate the blocks, add
rho = (n-1, ..., 0), return acyclic on a repeat, otherwise sort and count
inversions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, prod

from .partitions import Weight, as_weight, gl_tensor, pad, pieri, weyl_dim
from .value import Value


class FlagVariety(Value):
    """A partial flag variety Fl(d_1, ..., d_r; n); a Grassmannian when r = 1."""

    __slots__ = ("n", "dims")

    def __init__(self, n: int, dims: tuple[int, ...]):
        if n <= 0:
            raise ValueError("ambient dimension must be positive")
        d = dims
        if not d or any(d[i] >= d[i + 1] for i in range(len(d) - 1)) \
                or d[0] <= 0 or d[-1] >= n:
            raise ValueError(f"invalid subspace dimensions {d} for n={n}")
        super().__init__(n, dims)

    def __hash__(self) -> int:
        # Keys the _bott memo thousands of times per verify-all: spelled out
        # rather than built through Value._fields.
        return hash((self.n, self.dims))

    @classmethod
    def grassmannian(cls, k: int, n: int) -> "FlagVariety":
        return cls(n, (k,))

    def block_sizes(self) -> tuple[int, ...]:
        d = (0,) + self.dims + (self.n,)
        return tuple(d[i + 1] - d[i] for i in range(len(d) - 1))

    @property
    def is_grassmannian(self) -> bool:
        return len(self.dims) == 1

    def twist_generators(self) -> tuple[str, ...]:
        if self.is_grassmannian:
            return ("O",)
        return tuple(f"H{d}" for d in self.dims)

    def block_names(self) -> tuple[str, ...]:
        """The field names of the blocks in a bundle literal, in block order."""
        if self.is_grassmannian:
            return ("u", "q")
        return tuple(f"b{i + 1}" for i in range(len(self.dims) + 1))

    def __str__(self) -> str:
        if self.is_grassmannian:
            return f"gr({self.dims[0]},{self.n})"
        return f"fl({','.join(map(str, self.dims))};{self.n})"


GR25 = FlagVariety.grassmannian(2, 5)
GR35 = FlagVariety.grassmannian(3, 5)
FL235 = FlagVariety(5, (2, 3))


class Cohomology(Value):
    """Bott cohomology of one irreducible bundle: acyclic, or one nonzero degree."""

    __slots__ = ("degree", "weight", "dim")

    @property
    def is_acyclic(self) -> bool:
        return self.degree is None

    def signed_dim(self) -> int:
        if self.is_acyclic:
            return 0
        return self.dim if self.degree % 2 == 0 else -self.dim

    def as_json(self) -> dict:
        if self.is_acyclic:
            return {"acyclic": True}
        return {"acyclic": False, "degree": self.degree, "weight": self.weight,
                "dim": self.dim}

    def __repr__(self) -> str:
        if self.is_acyclic:
            return "Cohomology(acyclic)"
        return f"Cohomology(degree={self.degree}, weight={self.weight}, dim={self.dim})"


Cohomology.ACYCLIC = Cohomology(None, None, 0)


def bott(space: FlagVariety, concatenated: Weight) -> Cohomology:
    """Apply the Bott algorithm to a length-n concatenated weight.

    Results are memoized on ``(space, tuple(concatenated))`` and shared
    between callers; a Cohomology is frozen.
    """
    if len(concatenated) != space.n:
        raise ValueError(f"expected weight of length {space.n}, got {concatenated}")
    return _bott(space, tuple(concatenated))


@lru_cache(maxsize=4096)
def _bott(space: FlagVariety, concatenated: Weight) -> Cohomology:
    """bott on a canonical tuple of the right length, memoized."""
    n = space.n
    alpha = [concatenated[i] + (n - 1 - i) for i in range(n)]
    if len(set(alpha)) != n:
        return Cohomology.ACYCLIC
    inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                     if alpha[i] < alpha[j])
    dominant = sorted(alpha, reverse=True)
    weight = tuple(dominant[i] - (n - 1 - i) for i in range(n))
    return Cohomology(inversions, weight, weyl_dim(weight, n))


class HomogeneousBundle(Value):
    """An irreducible homogeneous bundle with an integer multiplicity."""

    __slots__ = ("space", "blocks", "mult")

    def __init__(self, space: FlagVariety, blocks: tuple[Weight, ...], mult: int = 1):
        sizes = space.block_sizes()
        blocks = tuple(as_weight(b) for b in blocks)
        if len(blocks) != len(sizes):
            raise ValueError(f"expected {len(sizes)} blocks, got {len(blocks)}")
        for b, s in zip(blocks, sizes):
            if len(b) != s:
                raise ValueError(f"block {b} should have length {s}")
        if mult <= 0:
            raise ValueError("multiplicity must be positive")
        super().__init__(space, blocks, mult)

    @classmethod
    def _trusted(cls, space: FlagVariety, blocks: tuple[Weight, ...],
                 mult: int) -> "HomogeneousBundle":
        """Build from blocks and a multiplicity already known valid for `space`,
        skipping the validation in __init__."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "mult", mult)
        return self

    # The _dual_tensor, _higher_ext and _plus_euler memos hash and compare
    # sums of these hundreds of times per verify-all: spelled out rather than
    # built through Value._fields.  The block shapes fix the space, so the
    # hash leaves it out.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.blocks == other.blocks and self.mult == other.mult
                and self.space == other.space)

    def __hash__(self) -> int:
        return hash((self.blocks, self.mult))

    def rank(self) -> int:
        r = self.mult
        for b in self.blocks:
            r *= weyl_dim(b, len(b))
        return r

    def dual(self) -> "HomogeneousBundle":
        return HomogeneousBundle._trusted(self.space, _dual_blocks(self.blocks), self.mult)

    def with_mult(self, mult: int) -> "HomogeneousBundle":
        return HomogeneousBundle(self.space, self.blocks, mult)

    def twist(self, a: int, generator: str = "O") -> "HomogeneousBundle":
        """Tensor with the a-th power of a determinant line bundle.

        On Gr(k, n) the generator "O" (det of U_k^dual) raises block 1; on a
        flag variety "H<d>" (det of U_d^dual) raises every block inside U_d.
        """
        gens = self.space.twist_generators()
        if generator not in gens:
            raise ValueError(f"unknown generator {generator!r} for {self.space}; "
                             f"valid: {', '.join(gens)}")
        upto = gens.index(generator) + 1
        blocks = tuple(tuple(x + a for x in b) if i < upto else b
                       for i, b in enumerate(self.blocks))
        return HomogeneousBundle(self.space, blocks, self.mult)

    def tensor(self, other) -> "BundleSum":
        if isinstance(other, HomogeneousBundle) and self.space != other.space:
            raise ValueError("cannot tensor bundles on different spaces")
        return BundleSum(self.space, (self,)).tensor(other)

    def cohomology(self) -> Cohomology:
        """Bott cohomology of the underlying irreducible (multiplicity not folded in)."""
        return bott(self.space, sum(self.blocks, ()))

    def literal(self) -> str:
        """Canonical one-line text form, e.g. ``gr(3,5) u=[2,2,1] q=[0,0] mult=1``."""
        body = " ".join(f"{nm}=[{','.join(map(str, b))}]"
                        for nm, b in zip(self.space.block_names(), self.blocks))
        return f"{self.space} {body} mult={self.mult}"

    def __repr__(self) -> str:
        return f"<{self.literal()}>"


class BundleSum(Value):
    """Canonical finite direct sum of homogeneous bundles on one flag variety."""

    __slots__ = ("space", "terms")

    # Memo keys, as HomogeneousBundle's.
    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms and self.space == other.space

    def __hash__(self) -> int:
        return hash(self.terms)

    @classmethod
    def of(cls, space: FlagVariety, terms) -> "BundleSum":
        merged: dict[tuple[Weight, ...], int] = {}
        for t in terms:
            if t.space != space:
                raise ValueError("all terms must live on the same space")
            merged[t.blocks] = merged.get(t.blocks, 0) + t.mult
        return cls._canonical(space, merged)

    @classmethod
    def _canonical(cls, space: FlagVariety,
                   merged: dict[tuple[Weight, ...], int]) -> "BundleSum":
        """The sum of a table mapping blocks valid on `space` to positive
        multiplicities, in sorted order."""
        return cls(space, tuple(HomogeneousBundle._trusted(space, blocks, mult)
                                for blocks, mult in sorted(merged.items())))

    def __iter__(self):
        return iter(self.terms)

    def rank(self) -> int:
        return sum(t.rank() for t in self.terms)

    def dual(self) -> "BundleSum":
        # Distinct terms have distinct duals: nothing to merge.
        return BundleSum._canonical(self.space, {_dual_blocks(t.blocks): t.mult
                                                 for t in self.terms})

    def twist(self, a: int, generator: str = "O") -> "BundleSum":
        return BundleSum.of(self.space, [t.twist(a, generator) for t in self.terms])

    def tensor(self, other) -> "BundleSum":
        """One pass: every term pair's per-block GL products, multiplied out and
        merged into one table, canonicalized once."""
        if self.space != other.space:
            raise ValueError("cannot tensor sums on different spaces")
        others = (other,) if isinstance(other, HomogeneousBundle) else other.terms
        return BundleSum._canonical(self.space, _tensor_into({}, self.terms, others))

    def cohomology(self) -> tuple[tuple[HomogeneousBundle, Cohomology], ...]:
        """Bott cohomology per term, in canonical term order."""
        return tuple((t, t.cohomology()) for t in self.terms)


def _dual_blocks(blocks: tuple[Weight, ...]) -> tuple[Weight, ...]:
    return tuple([tuple([-x for x in reversed(b)]) for b in blocks])


def _tensor_into(merged: dict, terms, others) -> dict:
    """Add the summands of sum(terms) (x) sum(others), bundles of one space,
    to a table mapping blocks to multiplicities, and return it."""
    for a in terms:
        for b in others:
            per_block = [_block_tensor(x, y, len(x)) for x, y in zip(a.blocks, b.blocks)]
            for combo in product(*per_block):
                blocks, coeffs = zip(*combo)
                mult = a.mult * b.mult * prod(coeffs)
                merged[blocks] = merged.get(blocks, 0) + mult
    return merged


def _block_tensor(x: Weight, y: Weight, m: int):
    """The (weight, coefficient) pairs of V_x (x) V_y for GL(m), on weights of
    length m: those of _block_product, twisted (y itself if x is 0)."""
    c, pairs = _block_product(x, y, m)
    if not c:
        return pairs
    return [(tuple([v + c for v in w]), n) for w, n in pairs]


def _block_product(x: Weight, y: Weight, m: int) -> tuple:
    """V_x (x) V_y for GL(m) as (c, pairs): det^c tensored with the sum of the
    (weight, coefficient) pairs, so that a twist builds no weight.  A constant
    weight (c, ..., c) is det^c, whose product with V_y is V_y twisted by c,
    so it takes no Littlewood-Richardson product.  A weight (c+l, c, ..., c)
    is det^c (x) Sym^l and (c, ..., c, c-l) is det^c (x) (Sym^l)^dual, whose
    products are Pieri's horizontal strips, each of coefficient one."""
    if x[0] == x[-1]:
        return x[0], ((y, 1),)
    if y[0] == y[-1]:
        return y[0], ((x, 1),)
    for a, b in ((x, y), (y, x)):
        if b[1] == b[-1]:
            l, c = b[0] - b[-1], b[-1]
        elif b[0] == b[-2]:
            l, c = b[-1] - b[0], b[0]
        else:
            continue
        # Strips of a shifted to end in 0: its twists share one memo entry.
        return c + a[-1], [(nu, 1) for nu in pieri(tuple([v - a[-1] for v in a]), l)]
    return 0, gl_tensor(x, y, m)


def _block_bound(x: Weight, y: Weight) -> int:
    """At least the coefficient sum, hence the pairs, of _block_tensor(x, y,
    len(x)), on the branch it takes: 1 against det^c; against a one-row block
    b, the fewer of dim b = dim Sym^l and the Pieri strips prod_i (a_i -
    a_{i+1} + 1) of the other block a (at most dim a); otherwise, by the
    Littlewood-Richardson rule, the smaller dimension."""
    if x[0] == x[-1] or y[0] == y[-1]:
        return 1
    for a, b in ((x, y), (y, x)):
        if b[1] == b[-1] or b[0] == b[-2]:
            return min(comb(b[0] - b[-1] + len(b) - 1, len(b) - 1),
                       prod(a[i] - a[i + 1] + 1 for i in range(len(a) - 1)))
    return min(weyl_dim(x, len(x)), weyl_dim(y, len(y)))


def degree_totals(pairs) -> dict[int, int]:
    """Total nonzero cohomology by degree, multiplicities included, over
    (bundle, Cohomology) pairs such as BundleSum.cohomology() returns; sorted
    by degree."""
    out: dict[int, int] = {}
    for t, c in pairs:
        if not c.is_acyclic:
            out[c.degree] = out.get(c.degree, 0) + t.mult * c.dim
    return dict(sorted(out.items()))


def as_sum(x) -> BundleSum:
    if isinstance(x, BundleSum):
        return x
    if isinstance(x, HomogeneousBundle):
        return BundleSum.of(x.space, [x])
    raise TypeError(f"expected a bundle or sum, got {type(x).__name__}")


def structure_sheaf(space: FlagVariety) -> HomogeneousBundle:
    blocks = tuple((0,) * s for s in space.block_sizes())
    return HomogeneousBundle(space, blocks)


def line_bundle(space: FlagVariety, a: int) -> HomogeneousBundle:
    """O(a) on a Grassmannian."""
    if not space.is_grassmannian:
        raise ValueError("line_bundle(space, a) is for Grassmannians; use twist")
    return structure_sheaf(space).twist(a)


def schur_sub_dual(space: FlagVariety, lam, a: int = 0) -> HomogeneousBundle:
    """S^lam(U_k^dual)(a) on a Grassmannian."""
    if not space.is_grassmannian:
        raise ValueError("schur_sub_dual is for Grassmannians")
    k = space.dims[0]
    first = tuple(x + a for x in pad(lam, k))
    return HomogeneousBundle(space, (first, (0,) * (space.n - k)))
