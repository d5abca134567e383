"""Exact integer-weight combinatorics: Littlewood-Richardson products and Weyl dimensions.

Weights are tuples of integers that must be weakly decreasing.  Trailing zeros
are significant: ``(1, 0)`` and ``(1,)`` are different weights of different
lengths.  All arithmetic is exact.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import lt
from typing import Iterable, Iterator

Weight = tuple[int, ...]
# A decomposed product: (weight, coefficient) pairs sorted by weight, each
# weight of one length and each coefficient positive.
Product = tuple[tuple[Weight, int], ...]


def as_weight(entries: Iterable[int]) -> Weight:
    """Coerce to a weakly decreasing tuple of ints, or raise ValueError."""
    w = tuple(map(int, entries))
    if any(map(lt, w, w[1:])):
        raise ValueError(f"not weakly decreasing: {w}")
    return w


def as_partition(entries: Iterable[int]) -> Weight:
    """Coerce to a partition (weakly decreasing, nonnegative)."""
    w = as_weight(entries)
    if w and w[-1] < 0:
        raise ValueError(f"negative entry in partition: {w}")
    return w


def pad(w: Iterable[int], m: int) -> Weight:
    """Zero-pad a weight to length m."""
    w = as_weight(w)
    if len(w) > m:
        raise ValueError(f"weight {w} longer than {m}")
    if w and w[-1] < 0 and len(w) < m:
        raise ValueError(f"cannot zero-pad {w}: last entry negative")
    return w + (0,) * (m - len(w))


def strip_zeros(w: Iterable[int]) -> Weight:
    """Drop trailing zeros."""
    w = tuple(w)
    n = len(w)
    while n > 0 and w[n - 1] == 0:
        n -= 1
    return w[:n]


def weyl_dim(w: Iterable[int], m: int) -> int:
    """Dimension of the GL(m) irreducible with highest weight w (zero-padded to m).

    Computed as prod over i<j of (w_i - w_j + j - i) / (j - i); the product
    is an exact integer for any weakly decreasing input.
    """
    lam = as_weight(w)
    lam = lam + (0,) * (m - len(lam))
    if len(lam) > m:
        raise ValueError(f"weight {lam} longer than m={m}")
    num = 1
    den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"Weyl product not integral for {lam}, m={m}")
    return q


def _strip_additions(shape: tuple[int, ...], count: int,
                     caps: tuple[int, ...] | None) -> Iterator[tuple[int, ...]]:
    """Yield per-row increment vectors adding `count` boxes as a horizontal strip.

    The incremented shape stays a partition and satisfies new[r] <= shape[r-1]
    (no two new boxes share a column).  When caps is given, the running total
    of boxes placed in rows 0..r may not exceed caps[r]; this is the ballot
    restriction against the previous letter's row distribution.
    """
    rows = len(shape)
    acc: list[int] = []

    def rec(r: int, placed: int) -> Iterator[tuple[int, ...]]:
        if r == rows:
            if placed == count:
                yield tuple(acc)
            return
        remaining = count - placed
        hi = remaining if r == 0 else min(remaining, shape[r - 1] - shape[r])
        if caps is not None:
            hi = min(hi, caps[r] - placed)
        for s in range(hi, -1, -1):
            acc.append(s)
            yield from rec(r + 1, placed + s)
            acc.pop()

    yield from rec(0, 0)


@lru_cache(maxsize=4096)
def pieri(beta: Weight, l: int) -> tuple[Weight, ...]:
    """The weights of V_beta (x) Sym^l for GL(len(beta)), each of multiplicity
    one, in lexicographic order: beta plus a horizontal strip of l boxes.  For
    l < 0, V_beta (x) (Sym^-l)^dual: beta minus a horizontal strip of -l boxes.
    Memoized on the tuple beta; invalid input raises on every call."""
    beta = as_weight(beta)
    if not beta:
        raise ValueError("pieri needs a weight of length at least 1")
    k = abs(l)
    out = []
    # Every row but the free one (row 0 gaining, the last row losing) moves by
    # at most its gap to the next row towards the free one.
    for rest in product(*[range(min(k, a - b) + 1) for a, b in zip(beta, beta[1:])]):
        free = k - sum(rest)
        if free >= 0:
            steps = (free,) + rest if l >= 0 else tuple([-s for s in rest + (free,)])
            out.append(tuple([b + s for b, s in zip(beta, steps)]))
    return tuple(sorted(out))


def _lr_products(lam: Weight, mu: Weight, max_rows: int) -> dict[Weight, int]:
    """LR expansion of s_lam * s_mu, keeping only shapes with <= max_rows rows.

    Shapes are returned zero-padded to max_rows.  Fillings are grown letter by
    letter; a state records the shape and the previous letter's row counts,
    which is all the ballot condition needs.
    """
    base = lam + (0,) * (max_rows - len(lam))
    letters = list(strip_zeros(mu))
    states: dict[tuple[Weight, tuple[int, ...] | None], int] = {(base, None): 1}
    for idx, m in enumerate(letters):
        nxt: dict[tuple[Weight, tuple[int, ...] | None], int] = {}
        for (shape, prev), c in states.items():
            if idx == 0:
                caps = None
            else:
                assert prev is not None
                caps = []
                run = 0
                for r in range(max_rows):
                    caps.append(run)
                    run += prev[r]
                caps = tuple(caps)
            for inc in _strip_additions(shape, m, caps):
                ns = tuple(shape[r] + inc[r] for r in range(max_rows))
                key = (ns, inc)
                nxt[key] = nxt.get(key, 0) + c
        states = nxt
    out: dict[Weight, int] = {}
    for (shape, _), c in states.items():
        out[shape] = out.get(shape, 0) + c
    return out


def lr_mult(lam: Iterable[int], mu: Iterable[int]) -> Product:
    """Littlewood-Richardson product of two partitions.

    Returns the pairs (nu, c^nu_{lam,mu}) over partitions nu with
    |nu| = |lam| + |mu|, zero-padded to len(lam) + len(mu) rows once trailing
    zeros are dropped; coefficients count lattice-word skew tableaux.
    """
    lam = strip_zeros(as_partition(lam))
    mu = strip_zeros(as_partition(mu))
    return gl_tensor(lam, mu, len(lam) + len(mu))


def lr_coefficient(nu: Iterable[int], lam: Iterable[int], mu: Iterable[int]) -> int:
    """The LR coefficient c^nu_{lam,mu}.  Trailing zeros of nu are padding: a
    shorter nu is zero-padded, and one with a nonzero part past the rows of
    lr_mult(lam, mu) has coefficient 0."""
    nu = as_partition(nu)
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    nu = strip_zeros(nu)
    return next((c for w, c in lr_mult(lam, mu) if strip_zeros(w) == nu), 0)


def gl_tensor(lam: Iterable[int], mu: Iterable[int], m: int) -> Product:
    """Decompose the GL(m) tensor product of irreducibles with highest weights lam, mu.

    Both weights are shifted to partitions, multiplied by the LR rule with
    shapes truncated to m rows, and shifted back.  Output weights have length m.
    Since V_{lam+a} (x) V_{mu+b} = (V_lam (x) V_mu) (x) det^(a+b), a weight
    shorter than m is zero-padded, both are shifted to end in 0, and the
    product of those is memoized and shifted back.
    """
    lam, mu = tuple(lam), tuple(mu)
    lam = lam if len(lam) == m else pad(lam, m)
    mu = mu if len(mu) == m else pad(mu, m)
    a, b = (lam[-1], mu[-1]) if m else (0, 0)
    try:
        table = _gl_tensor(tuple([x - a for x in lam]), tuple([x - b for x in mu]), m)
    except ValueError:
        as_weight(lam)  # quote the caller's weights, not the shifted ones
        as_weight(mu)
        raise
    t = a + b
    if not t:
        return table
    # A uniform shift keeps the order of the weights.
    return tuple([(tuple([x + t for x in nu]), c) for nu, c in table])


@lru_cache(maxsize=4096)
def _gl_tensor(lam: tuple, mu: tuple, m: int) -> Product:
    """gl_tensor on canonical tuples, memoized.  Exceptions are not cached, so
    invalid input raises on every call."""
    lam_p = pad(as_weight(lam), m)
    mu_p = pad(as_weight(mu), m)
    a = max(0, -lam_p[-1]) if m else 0
    b = max(0, -mu_p[-1]) if m else 0
    lam_sh = tuple(x + a for x in lam_p)
    mu_sh = tuple(x + b for x in mu_p)
    table = _lr_products(lam_sh, mu_sh, m)
    total = a + b
    return tuple(sorted((tuple(x - total for x in nu), c) for nu, c in table.items()))
