"""Graded-restriction windows: membership, enumeration and the largest
window over a box.

Each side's window is cut out by one family of inequalities per Kempf-Ness
stratum of that side; the strata and their solver live in ``kempf_ness``.
Weights are length-3 characters of the torus, as there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

# Bound here only for perfbench/layers.py, which traces it by the name
# stability.kn_adapted until its tracer maps names to code objects.
from .kempf_ness import kn_adapted  # noqa: F401
from .partitions import Weight, as_weight
from .value import Value


# The window inequalities of each side: (label, slot, form, width) reads
# w[slot] <= form . chi < w[slot] + width.  Each Kempf-Ness stratum contributes
# one family: the plus side constrains coordinate sums and entries, the minus
# side the skewed combinations matched to its destabilizing one-parameter
# subgroups.
WINDOW_FORMS: dict[str, tuple[tuple[str, int, tuple[int, int, int], int], ...]] = {
    "plus": (
        ("a: sum", 0, (1, 1, 1), 15),
        ("b: pair(1,2)", 1, (1, 1, 0), 8),
        ("b: pair(1,3)", 1, (1, 0, 1), 8),
        ("b: pair(2,3)", 1, (0, 1, 1), 8),
        ("c: entry(1)", 2, (1, 0, 0), 3),
        ("c: entry(2)", 2, (0, 1, 0), 3),
        ("c: entry(3)", 2, (0, 0, 1), 3),
    ),
    "minus": (
        ("a': -sum", 0, (-1, -1, -1), 15),
        ("b': pair(1,2)", 1, (1, 1, -4), 10),
        ("b': pair(1,3)", 1, (1, -4, 1), 10),
        ("b': pair(2,3)", 1, (-4, 1, 1), 10),
        ("c': (1,2)", 2, (1, -2, 0), 4),
        ("c': (1,3)", 2, (1, 0, -2), 4),
        ("c': (2,1)", 2, (-2, 1, 0), 4),
        ("c': (2,3)", 2, (0, 1, -2), 4),
        ("c': (3,1)", 2, (-2, 0, 1), 4),
        ("c': (3,2)", 2, (0, -2, 1), 4),
    ),
}


def _window(w: Sequence[int], side: str, slots: Sequence[int] = (0, 1, 2)
            ) -> tuple[tuple[str, tuple[int, int, int], int, int], ...]:
    """The inequalities of one window as (label, form, lo, hi): lo <= form . chi < hi,
    restricted to the forms whose slot is in `slots`.

    The single place a side is validated: hl_membership reads its
    inequalities from here, and hl_enumerate reaches it through _slot2_members.
    """
    forms = WINDOW_FORMS.get(side)
    if forms is None:
        raise ValueError("side must be 'plus' or 'minus'")
    return tuple((label, form, w[slot], w[slot] + width)
                 for label, slot, form, width in forms if slot in slots)


def _window_offsets(w: Iterable[int]) -> tuple[int, int, int]:
    """w as a tuple of three ints; the length is checked, not left to unpacking."""
    w = tuple(int(x) for x in w)
    if len(w) != 3:
        raise ValueError("w must have length 3")
    return w


def _in_window(chi: Weight, window) -> bool:
    """Whether a trusted length-3 weight satisfies every inequality of `window`."""
    a, b, c = chi
    for _, (x, y, z), lo, hi in window:
        if not lo <= x * a + y * b + z * c < hi:
            return False
    return True


class Membership(Value):
    __slots__ = ("member", "failed")


def hl_membership(chi: Iterable[int], w: Sequence[int], side: str) -> Membership:
    """Test the graded-restriction window conditions for a dominant weight.

    The conditions are the inequalities of WINDOW_FORMS[side]; each one that
    fails is reported with its label, its value and its range.
    """
    chi = as_weight(chi)
    if len(chi) != 3:
        raise ValueError("chi must have length 3")
    failed = []
    for label, (x, y, z), lo, hi in _window(_window_offsets(w), side):
        v = x * chi[0] + y * chi[1] + z * chi[2]
        if not lo <= v < hi:
            failed.append(f"{label} {v} not in [{lo},{hi})")
    return Membership(not failed, tuple(failed))


def _candidates(w: tuple[int, int, int], side: str) -> Iterator[Weight]:
    """The finite box of dominant weights hl_enumerate scans for one window of
    a side already validated.

    On the plus side each entry is pinned to three consecutive integers.  On
    the minus side the entry conditions force chi_1 + chi_3 into a window of
    width six, and the box takes chi_1 - chi_3 <= 3.  The weights of the box
    that pass the slot-2 inequalities all have chi_1 - chi_3 <= 1, and there
    are exactly six of them for every w[2].
    """
    w2 = w[2]
    if side == "plus":
        for a in range(w2, w2 + 3):
            for b in range(w2, a + 1):
                for c in range(w2, b + 1):
                    yield (a, b, c)
        return
    for s in range(-2 * w2 - 6, -2 * w2 + 1):
        for d in range(0, 4):
            if (s + d) % 2:
                continue
            a = (s + d) // 2
            c = (s - d) // 2
            for b in range(c, a + 1):
                yield (a, b, c)


@lru_cache(maxsize=4096)
def _slot2_members(side: str, w2: int) -> tuple[tuple[Weight, int, int, int, int], ...]:
    """The sorted weights chi of the _candidates box that satisfy the slot-2
    inequalities of a side, each as (chi, lo0, hi0, lo1, hi1).  Both depend on
    w[2] alone.

    chi satisfies the slot-0 and slot-1 inequalities exactly when
    lo0 <= w[0] <= hi0 and lo1 <= w[1] <= hi1: a form with value v and width
    holds on w[slot] <= v < w[slot] + width, that is on the closed range
    v - width + 1 <= w[slot] <= v, and the ranges of a slot's forms intersect.
    """
    w = (0, 0, w2)
    window = _window(w, side, (2,))
    out = []
    for chi in sorted({chi for chi in _candidates(w, side) if _in_window(chi, window)}):
        ranges = []
        for s in (0, 1):
            values = [(x * chi[0] + y * chi[1] + z * chi[2], width)
                      for _, slot, (x, y, z), width in WINDOW_FORMS[side] if slot == s]
            ranges.append(max(v - width + 1 for v, width in values))
            ranges.append(min(v for v, _ in values))
        out.append((chi, *ranges))
    return tuple(out)


def hl_enumerate(w: Sequence[int], side: str) -> tuple[Weight, ...]:
    """All dominant weights in the window, by brute force over a finite box.

    The box (see _candidates) is scanned and filtered through every window
    inequality, so the structural bound is checked rather than assumed.  The
    box, its slot-2 filter and each member's ranges of w[0] and w[1] are
    memoized per (side, w[2]) in _slot2_members; a call tests w[0] and w[1]
    against those ranges, which is the slot-0 and slot-1 inequalities exactly.
    """
    w0, w1, w2 = _window_offsets(w)
    return tuple(chi for chi, lo0, hi0, lo1, hi1 in _slot2_members(side, w2)
                 if lo0 <= w0 <= hi0 and lo1 <= w1 <= hi1)


def hl_max_size(side: str, lo: int, hi: int) -> tuple[int, tuple[int, int, int] | None]:
    """The largest len(hl_enumerate(w, side)) over the box [lo, hi]^3, and the
    first w attaining it in lexicographic order (None when every window is
    empty).

    For each w[2], every member of _slot2_members adds its rectangle of
    (w[0], w[1]) ranges, clipped to the box, to one grid of window sizes.
    """
    best, best_w = 0, None
    span = range(lo, hi + 1)
    for w2 in span:
        grid = [[0] * len(span) for _ in span]
        for _, lo0, hi0, lo1, hi1 in _slot2_members(side, w2):
            a, b = max(lo1, lo) - lo, min(hi1, hi) + 1 - lo
            if a < b:
                for i in range(max(lo0, lo) - lo, min(hi0, hi) + 1 - lo):
                    grid[i][a:b] = [n + 1 for n in grid[i][a:b]]
        for i, row in enumerate(grid):
            n = max(row)
            w = (lo + i, lo + row.index(n), w2)
            if n > best or (n and n == best and w < best_w):
                best, best_w = n, w
    return best, best_w
