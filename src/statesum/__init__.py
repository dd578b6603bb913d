"""Exact state sums for two-dimensional open-closed topological field theories.

Build a strongly separable symmetric Frobenius algebra over Q or F_p, split
its canonical central idempotent into the open/closed pair, triangulate an
open-closed cobordism, and evaluate the dual tensor network -- all in exact
arithmetic, so triangulation independence is literal matrix equality.
"""

from .algebra import Algebra, Element
from .catalog import (
    BlockModel,
    FiniteGroupoid,
    GroupTable,
    colored_evaluate,
    genus_window_scalar,
    group_algebra,
    groupoid_algebra,
    matrix_direct_sum,
    surface_invariant_closed_form,
)
from .cobordisms import (
    BUILTIN_NAMES,
    annulus,
    builtin,
    closed_surface,
    disjoint_union,
    generator_suite,
    glue,
    reversed_cobordism,
    rotate_circle,
    strip,
    zipper,
)
from .complexes import (
    BoundaryComponent,
    OpenClosedComplex,
    pachner_13,
    pachner_22,
    pachner_31,
    random_moves,
)
from .evaluation import (
    build_dual_network,
    evaluate_closed,
    state_sum,
    state_sum_raw,
    state_sum_reduced,
)
from .fields import GF, QQ, Field
from .frobenius import (
    FrobeniusStructure,
    KnowledgeableFrobenius,
    canonical_frobenius,
    check_knowledgeable,
    frobenius_from_window,
    idempotent_property_report,
    knowledgeable_from_frobenius,
    split_idempotent,
)
from .linalg import Matrix
from .morphism import Morphism

__all__ = [name for name in dir() if not name.startswith("_")]
