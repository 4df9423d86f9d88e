"""Skew-symmetric matrix pencils under congruence.

Canonical pairs, their sparsest deformation patterns, tangent-space
verification of miniversality, and iterative reduction of nearby pairs to
pattern form.
"""

from .core import (
    LAMBDA_TOL,
    CanonicalBlock,
    CanonicalStructure,
    SkewPair,
    congruence,
    direct_sum,
    make_F,
    make_G,
    make_block,
    make_jordan,
    make_structure_pair,
    matrix_from_json,
    matrix_to_json,
    pair_from_json,
    pair_to_json,
    skew_embed,
    structure_from_json,
    structure_to_json,
)
from .corpus import PALETTE, block_menu, enumerate_structures
from .pattern import (
    StarPattern,
    assemble,
    codimension,
    diag_block,
    offdiag_block,
    render_shape,
)
from .reduction import (
    IterationRecord,
    IterationSchedule,
    ReductionTrace,
    correction_step,
    pair_off_norm,
    reduce_pair,
    schedule_for,
)
from .tangent import (
    DecompositionReport,
    DirectSumError,
    PairwiseReport,
    TangentMap,
    float_rank,
    global_from_pairwise,
    project_to_pattern,
    tangent_map,
    verify_direct_sum,
    verify_pairwise,
)

__version__ = "0.1.0"

__all__ = [
    "LAMBDA_TOL",
    "CanonicalBlock",
    "CanonicalStructure",
    "SkewPair",
    "congruence",
    "direct_sum",
    "make_F",
    "make_G",
    "make_block",
    "make_jordan",
    "make_structure_pair",
    "matrix_from_json",
    "matrix_to_json",
    "pair_from_json",
    "pair_to_json",
    "skew_embed",
    "structure_from_json",
    "structure_to_json",
    "PALETTE",
    "block_menu",
    "enumerate_structures",
    "StarPattern",
    "assemble",
    "codimension",
    "diag_block",
    "offdiag_block",
    "render_shape",
    "IterationRecord",
    "IterationSchedule",
    "ReductionTrace",
    "correction_step",
    "pair_off_norm",
    "reduce_pair",
    "schedule_for",
    "DecompositionReport",
    "DirectSumError",
    "PairwiseReport",
    "TangentMap",
    "float_rank",
    "global_from_pairwise",
    "project_to_pattern",
    "tangent_map",
    "verify_direct_sum",
    "verify_pairwise",
]
