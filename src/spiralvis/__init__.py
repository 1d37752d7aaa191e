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
    WindowSet,
    covering_radius,
    direction_window,
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
    sequence_term,
    star_discrepancy,
    triangular_decompose,
)
from .sphere import (
    DirectionNet,
    SphericalCap,
    build_direction_net,
    geodesic_distance,
    polar_distance,
    unit_vector,
)
from .spirals import (
    PunctureSpec,
    PunctureUnresolvedError,
    SpiralPoint,
    annulus_index_range,
    count_in_ball,
    point_batch,
    puncture_transform,
    spiral_point,
)
from .visibility import (
    CheckReport,
    HitWitness,
    LineParam,
    NetMeshError,
    RayVerdict,
    VisibilityCurve,
    calibrate_proximity_sandwich,
    verify_proximity_sandwich,
    check_dense_forest,
    check_orchard,
    check_uniform_orchard,
    estimate_min_visibility,
    line_proximity_check,
    visible_point_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]
