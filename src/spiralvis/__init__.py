"""Spiral point sets and their visibility properties.

Build spirals from spherical sequences, then test, estimate, or refute the
orchard / uniform-orchard / visible-point / dense-forest properties and the
windowed-covering criteria equivalent to them.
"""

__version__ = "0.1.0"

from .covering import (
    BudgetExceededError,
    CoveringRadiusResult,
    CriterionTable,
    UniformCoveringEstimate,
    covering_radius,
    uniform_covering_parameter,
    uniform_orchard_criterion,
    visibility_from_covering,
)
from .delone import DeloneReport, badness, delone_report
from .geometry import ray_to_ray_distance, segment_distances
from .sequences import (
    GOLDEN_RATIO,
    SequenceSpec,
    TriangularDecomposition,
    direction_batch,
    triangular_decompose,
)
from .sphere import (
    DirectionNet,
    build_direction_net,
    unit_vector,
)
from .spirals import (
    PunctureSpec,
    PunctureUnresolvedError,
    annulus_index_range,
    count_in_ball,
    point_batch,
)
from .visibility import (
    CheckReport,
    HitWitness,
    LineParam,
    NetMeshError,
    RayVerdict,
    VisibilityCurve,
    check_dense_forest,
    check_orchard,
    check_uniform_orchard,
    estimate_min_visibility,
    visible_point_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]
