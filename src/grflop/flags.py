"""Partial flag varieties and the Bott cohomology of one irreducible
homogeneous bundle on them.

A bundle is given by one weakly decreasing weight per Levi block (see
``homog`` for the bundle each block names); Bott reads the blocks
concatenated, a weight of length n.  Cohomology is computed by the Bott
recipe: concatenate the blocks, add rho = (n-1, ..., 0), return acyclic on a
repeat, otherwise sort and count inversions.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Weight, weyl_dim
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
