"""The exact Kempf-Ness solver and the curated strata it checks.

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

from itertools import combinations
from math import gcd

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
