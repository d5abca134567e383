"""Built-in verified data: window weight sets, exceptional collections,
resolution complexes, graded-restriction examples and Kempf-Ness strata.

Weights follow the conventions of the homog module: on a Grassmannian the
first block acts on the dual tautological subbundle, so for example (1,1,0)
is the middle exterior power and (1,-1,-1) the twisted symmetric square.
"""

from __future__ import annotations

from .flags import GR25, GR35
from .homog import BundleSum, HomogeneousBundle, schur_sub_dual

# Generating weight sets of the four windows.  Both sides of the flop realize
# each weight as a Schur functor: of the dual tautological subbundle on the
# plus side, of the core extension on the minus side.
WINDOW_WEIGHTS: dict[str, tuple[tuple[int, int, int], ...]] = {
    "spade": (
        (-1, -1, -1), (0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3),
        (0, -1, -1), (1, 0, 0), (2, 1, 1), (1, 1, 0), (2, 2, 1),
    ),
    "heart": (
        (-1, -1, -1), (0, 0, 0), (1, 1, 1), (2, 2, 2),
        (0, -1, -1), (1, 0, 0), (2, 1, 1), (1, 1, 0), (2, 2, 1), (1, -1, -1),
    ),
    "club": (
        (-3, -3, -3), (-2, -2, -2), (-1, -1, -1), (0, 0, 0), (1, 1, 1),
        (-1, -1, -2), (0, 0, -1), (1, 1, 0), (-1, -2, -2), (0, -1, -1),
    ),
    "diamond": (
        (-2, -2, -2), (-1, -1, -1), (0, 0, 0), (1, 1, 1),
        (-1, -1, -2), (0, 0, -1), (1, 1, 0), (-1, -2, -2), (0, -1, -1), (1, 1, -1),
    ),
}

WINDOW_NAMES = tuple(WINDOW_WEIGHTS)

# The ten partitions in the 3x2 box; their Schur powers of the dual subbundle
# pull back to a classical tilting bundle on the plus total space.
BOX_WEIGHTS_GR35: tuple[tuple[int, int, int], ...] = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0),
    (2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 1), (2, 2, 2),
)

# The named weight sets of plus-side bundles: the four windows, then the box.
PLUS_SETS = {**WINDOW_WEIGHTS, "kapranov": BOX_WEIGHTS_GR35}


def window_sum_plus(name: str) -> BundleSum:
    """The plus-side bundle of a PLUS_SETS name: sum of S^chi(dual subbundle)
    on Gr(3,5)."""
    return BundleSum.of(GR35, [HomogeneousBundle(GR35, (chi, (0, 0)))
                               for chi in PLUS_SETS[name]])


# Exceptional collections: the base space, then the first-block weights in order.
# Line bundles and subbundle twists on Gr(2,5) are encoded through the first
# block as well: O(a) = (a,a) and U_2(b) = (b, b-1).
_COLLECTION_WEIGHTS: dict[str, tuple[object, ...]] = {
    # mutated collection, five line bundles
    "prop31-1": (GR35, (-1, -1, -1), (0, -1, -1), (0, 0, 0), (1, 0, 0),
                 (1, 1, 0), (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 3, 3)),
    # mutated collection with the twisted symmetric square
    "prop31-2": (GR35, (-1, -1, -1), (0, -1, -1), (1, -1, -1), (0, 0, 0),
                 (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)),
    # box collection in lexicographic order (refines containment of shapes)
    "kapranov-gr35": (GR35,) + tuple(sorted(BOX_WEIGHTS_GR35)),
    # alternating line bundles and subbundle twists on Gr(2,5)
    "lef-gr25": (GR25, (-3, -3), (-2, -3), (-2, -2), (-1, -2), (-1, -1),
                 (0, -1), (0, 0), (1, 0), (1, 1), (2, 1)),
}

COLLECTION_NAMES = tuple(_COLLECTION_WEIGHTS)


def collection_objects(name: str) -> tuple[HomogeneousBundle, ...]:
    space, *weights = _COLLECTION_WEIGHTS[name]
    return tuple(schur_sub_dual(space, w) for w in weights)


# Four-term exact complexes on Gr(3,5): (sign, first-block weight, multiplicity).
# Multiplicities are dimensions of exterior powers of the ambient 5-space.
RESOLUTIONS: dict[str, tuple[tuple[int, tuple[int, int, int], int], ...]] = {
    "lascoux-1": (
        (+1, (-1, -1, -1), 1),   # O(-1)
        (-1, (0, 0, 0), 10),     # O (x) wedge^3
        (+1, (1, 0, 0), 5),      # dual subbundle (x) wedge^4
        (-1, (2, 0, 0), 1),      # Sym^2 of the dual subbundle
    ),
    "lascoux-2": (
        (+1, (0, -1, -1), 1),    # dual subbundle (-1)
        (-1, (0, 0, 0), 10),     # O (x) wedge^2
        (+1, (1, 1, 0), 5),      # wedge^2 of the dual subbundle (x) wedge^4
        (-1, (2, 1, 0), 1),      # S^{2,1} of the dual subbundle
    ),
    "lascoux-3": (
        (+1, (1, -1, -1), 1),    # Sym^2 of the dual subbundle (-1)
        (-1, (1, 0, 0), 10),     # dual subbundle (x) wedge^2
        (+1, (1, 1, 0), 10),     # wedge^2 of the dual subbundle (x) wedge^3
        (-1, (2, 2, 0), 1),      # S^{2,2} of the dual subbundle
    ),
}

RESOLUTION_NAMES = tuple(RESOLUTIONS)


# Graded-restriction windows with a known weight list.
HL_EXPECTED = {
    ("plus", (-7, -4, -1)): (
        (-1, -1, -1), (0, -1, -1), (0, 0, -1), (0, 0, 0), (1, -1, -1),
        (1, 0, -1), (1, 0, 0), (1, 1, -1), (1, 1, 0), (1, 1, 1),
    ),
    ("minus", (-7, -5, -2)): (
        (-1, -1, -1), (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 2, 2),
    ),
}


# Group-level Kempf-Ness strata.  Supports name the torus weights that stay
# active on the stratum; kempf_ness.kn_stratification checks every record
# against the exact solver.
KN_STRATA = {
    "plus": (
        {"description": "matrix block vanishes",
         "supports": ("q1", "q2", "q3"), "character": "plus",
         "value_sq": (3, 1), "weight": (1, 1, 1)},
        {"description": "one matrix row survives constraints",
         "supports": ("u3",), "character": "plus",
         "value_sq": (2, 1), "weight": (1, 1, 0)},
        {"description": "two matrix rows survive constraints",
         "supports": ("u2", "u3"), "character": "plus",
         "value_sq": (1, 1), "weight": (1, 0, 0)},
    ),
    "minus": (
        {"description": "covector vanishes",
         "supports": ("u1", "u2", "u3"), "character": "minus",
         "value_sq": (3, 1), "weight": (-1, -1, -1)},
        {"description": "common kernel of dimension two",
         "supports": ("q3",), "character": "minus",
         "value_sq": (2, 9), "weight": (1, 1, -4)},
        {"description": "common kernel of dimension one",
         "supports": ("q3", "u2"), "character": "minus",
         "value_sq": (1, 5), "weight": (1, 0, -2)},
    ),
}

# A torus-level stratum absorbed into a group stratum on the minus side: its
# ray does not appear in KN_STRATA["minus"].
KN_ABSORBED_MINUS = {
    "description": "torus stratum absorbed into the kernel of dimension one",
    "supports": ("q2", "q3"), "character": "minus",
    "value_sq": (1, 17), "weight": (3, -2, -2),
}


# Complete-orthogonality endpoints on Gr(3,5) used by the harder minus-side
# vanishing arguments: Ext between the two bundles must vanish in all degrees.
# Entries are (source first-block weight, target first-block weight).
GR35_ORTHOGONAL_PAIRS: tuple[tuple[tuple[int, int, int], tuple[int, int, int], str], ...] = (
    ((2, 1, 1), (-1, -1, -1), "dual-sub(1) vs O(-1)"),
    ((2, 1, 1), (0, 0, 0), "dual-sub(1) vs O"),
    ((3, 3, 3), (1, 0, 0), "O(3) vs dual-sub"),
    ((2, 1, 1), (0, -1, -1), "dual-sub(1) vs dual-sub(-1)"),
    ((2, 2, 2), (1, -1, -1), "O(2) vs sym2-dual-sub(-1)"),
    ((2, 1, 1), (1, -1, -1), "dual-sub(1) vs sym2-dual-sub(-1)"),
    ((2, 2, 1), (1, -1, -1), "wedge2-dual-sub(2) vs sym2-dual-sub(-1)"),
)
