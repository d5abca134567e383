"""Weight-level GIT machinery: graded-restriction windows and the Kempf-Ness solver.

The torus weights come from the 18-dimensional representation underlying the
flop: fifteen matrix coordinates carrying the weights -e_1, -e_2, -e_3 (five
each) and three covector coordinates carrying (1,2,2), (2,1,2), (2,2,1).  The
two GIT characters are (1,1,1) and (-1,-1,-1) up to scale.

The destabilizing value M = inf (r . k)/|k| over the cone of allowed
one-parameter subgroups is a quadratic irrational; it is carried exactly as
(sign, M^2), M^2 a Ratio in lowest terms, and the minimizer as a primitive
integer ray.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Iterable, Iterator, Sequence

from .partitions import Weight, as_weight
from .value import Value

TORUS_WEIGHTS: dict[str, tuple[int, int, int]] = {
    "u1": (-1, 0, 0),
    "u2": (0, -1, 0),
    "u3": (0, 0, -1),
    "q1": (1, 2, 2),
    "q2": (2, 1, 2),
    "q3": (2, 2, 1),
}

CHARACTERS: dict[str, tuple[int, int, int]] = {
    "plus": (-1, -1, -1),
    "minus": (1, 1, 1),
}


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


class ConeProblem(Value):
    """Constraint weights (by name) and a character, defining one strip of the
    unstable locus."""

    __slots__ = ("supports", "character")

    def __init__(self, supports: tuple[str, ...], character: str):
        bad = [s for s in supports if s not in TORUS_WEIGHTS]
        if bad:
            raise ValueError(f"unknown constraint weights: {bad}")
        if character not in CHARACTERS:
            raise ValueError(f"unknown character {character!r}")
        super().__init__(tuple(sorted(set(supports))), character)

    @property
    def constraint_vectors(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(TORUS_WEIGHTS[s] for s in self.supports)

    @property
    def character_vector(self) -> tuple[int, int, int]:
        return CHARACTERS[self.character]


class Ratio(Value):
    """An exact rational num/den in lowest terms with den > 0, printed as a
    Fraction prints (3, 1/17) and written into a report as {"num", "den"}."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        if den <= 0:
            raise ValueError("the denominator must be positive")
        g = gcd(num, den)
        super().__init__(num // g, den // g)

    def as_json(self) -> dict:
        return {"num": self.num, "den": self.den}

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"


class KNSolution(Value):
    """Exact destabilizing datum: M = -sqrt(value_sq) on the primitive ray, or
    no destabilizing direction at all (value_sq is None)."""

    __slots__ = ("value_sq", "minimizer")

    @property
    def destabilizing(self) -> bool:
        return self.value_sq is not None

    def as_json(self) -> dict:
        if not self.destabilizing:
            return {"status": "nonnegative", "value_sq": None, "minimizer": None}
        return {
            "status": "destabilizing",
            "value_sq": self.value_sq,
            "minimizer": self.minimizer,
        }


def _dot(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple[int, int, int]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _scaled_projection(r, vectors) -> tuple[tuple[int, int, int], int]:
    """(s * p, s) for the orthogonal projection p of r onto the common kernel
    of the given 3-vectors and some s > 0, in integers: r itself with no
    vector; (v . v) r - (r . v) v when they span the line of v; (r . n) n,
    for a nonzero cross product n of two of them, when they span a plane;
    and 0 when they span space."""
    if not vectors:
        return tuple(r), 1
    v = vectors[0]
    n = next((n for n in (_cross(v, u) for u in vectors[1:]) if any(n)), None)
    if n is None:
        vv, rv = _dot(v, v), _dot(r, v)
        return tuple([vv * x - rv * y for x, y in zip(r, v)]), vv
    if any(_dot(u, n) for u in vectors):
        return (0, 0, 0), 1
    rn = _dot(r, n)
    return tuple([rn * x for x in n]), _dot(n, n)


def kn_adapted(problem: ConeProblem) -> KNSolution:
    """Minimize (r . k)/|k| over the cone {k != 0 : w . k >= 0 for all constraints}.

    For every subset of constraints, project the character onto the subset's
    kernel; the negated projection is a candidate ray, kept if it satisfies
    every constraint.  The optimum over the cone is attained at one of these
    candidates, and the best candidate maximizes the squared projection
    length.  All arithmetic is exact.
    """
    return _kn_solve(problem.character_vector, problem.constraint_vectors)


def _kn_solve(r, constraints) -> KNSolution:
    """kn_adapted for a character vector r and constraint 3-vectors: the
    projections in integers (see _scaled_projection), value_sq = |s p|^2 / s^2
    compared by cross-multiplication, the first best candidate kept and
    reduced once."""
    best_num = best_den = best_ray = None
    for size in range(len(constraints) + 1):
        for subset in combinations(constraints, size):
            p, s = _scaled_projection(r, subset)
            if not any(p) or any(_dot(w, p) > 0 for w in constraints):
                continue
            num, den = _dot(p, p), s * s
            if best_ray is None or num * best_den > best_num * den:
                g = gcd(*p)
                best_num, best_den, best_ray = num, den, tuple([-x // g for x in p])
    if best_ray is None:
        return KNSolution(None, None)
    return KNSolution(Ratio(best_num, best_den), best_ray)


class Stratum(Value):
    """One curated Kempf-Ness stratum at the group level: its defining cone
    problem, the recorded value and ray, and kn_adapted's solution."""

    __slots__ = ("side", "description", "problem", "value_sq", "weight", "solution")

    @property
    def error(self) -> str | None:
        """None when the solution is the recorded value and ray, else the
        message naming both."""
        solved = self.solution
        if solved.value_sq == self.value_sq and solved.minimizer == self.weight:
            return None
        return (f"stratum {self.description!r} failed validation: "
                f"solver gave ({solved.value_sq}, {solved.minimizer}), "
                f"expected ({self.value_sq}, {self.weight})")

    def as_json(self) -> dict:
        return {
            "side": self.side,
            "description": self.description,
            "supports": self.problem.supports,
            "character": self.problem.character,
            "value_sq": self.value_sq,
            "weight": self.weight,
        }


def _stratum(side: str, record: dict) -> Stratum:
    """A curated record (of data.KN_STRATA, or data.KN_ABSORBED_MINUS) as a
    Stratum, solved once through kn_adapted."""
    problem = ConeProblem(record["supports"], record["character"])
    return Stratum(side, record["description"], problem, Ratio(*record["value_sq"]),
                   tuple(record["weight"]), kn_adapted(problem))


def kn_stratification(side: str) -> tuple[Stratum, ...]:
    """The curated group-level strata of a side, each solved once through
    kn_adapted.  A record the solver disagrees with is returned like the
    others, with its error set; nothing is raised.  The torus-level stratum
    with ray (3,-2,-2) on the minus side is absorbed into the (1,0,-2) group
    stratum and is deliberately not listed.
    """
    from . import data
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    return tuple(_stratum(side, record) for record in data.KN_STRATA[side])
