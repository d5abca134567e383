"""Exact cohomology of homogeneous bundles on Grassmannians and flag varieties,
with verification suites for the tilting and window data of the 9-fold
Grassmannian flop."""

__version__ = "0.1.0"

from .homog import (BundleSum, Cohomology, FlagVariety, GR25, GR35, FL235,
                    HomogeneousBundle, line_bundle, schur_sub_dual,
                    structure_sheaf)
from .partitions import gl_tensor, lr_coefficient, lr_mult, weyl_dim
from .total_space import (XMINUS, XPLUS, TotalSpaceModel, ext_table,
                          is_pretilting, stable_cutoff)
from .filtered import FilteredBundle, graded_euler, schur_filtered, vanishing_suite
from .stability import (ConeProblem, KNSolution, hl_enumerate, hl_membership,
                        kn_adapted, kn_stratification)
from .exceptional import (ExceptionalCollection, ResolutionSequence,
                          builtin_collection, builtin_resolution,
                          check_collection, check_resolution)

__all__ = [
    "BundleSum", "Cohomology", "ConeProblem", "ExceptionalCollection",
    "FL235", "FilteredBundle", "FlagVariety", "GR25", "GR35",
    "HomogeneousBundle", "KNSolution", "ResolutionSequence", "TotalSpaceModel",
    "XMINUS", "XPLUS", "builtin_collection", "builtin_resolution",
    "check_collection", "check_resolution", "ext_table", "gl_tensor",
    "graded_euler", "hl_enumerate", "hl_membership", "is_pretilting",
    "kn_adapted", "kn_stratification", "line_bundle", "lr_coefficient",
    "lr_mult", "schur_filtered", "schur_sub_dual", "stable_cutoff",
    "structure_sheaf", "vanishing_suite", "weyl_dim",
]
