"""Singularity analysis for planar 2-dof inverse-kinematic maps.

The toolkit locates and classifies cusps and corank-2 singularities of
parameterized maps from workspace to joint coordinates, traces singularity
and characteristic curves, counts direct-kinematics solutions over
joint-space regions, and verifies non-singular assembly-mode changes by
lifting closed joint-space loops.
"""

from types import ModuleType as _ModuleType

from .config import AnalysisConfig, emit_config, family_from_config, load_config, parse_config
from .dkp import CountMap, DkpSolutionSet, count_map, solve_dkp
from .errors import (
    BoxTooSmall,
    ConfigError,
    CuspforgeError,
    DivergedLift,
    PermutationInconsistent,
    PreconditionViolated,
    SingularEncounter,
)
from .maps import (
    DET_NORMALIZATION,
    FAMILY_KINDS,
    ComplexSquareUnfolded,
    JointPoint,
    MapFamily,
    QuartoUnfolded,
    Rpr2PrExact,
    Rpr2PrOffset,
    WorkspacePoint,
    canonical_phi,
    eval_map,
    make_family,
    reference_scales,
)
from .monodromy import (
    JointLoop,
    LoopLift,
    Permutation,
    circle_loop,
    lift_loop,
    loop_clearance,
    loop_permutation,
)
from .singular import (
    DetectionResidual,
    PointKind,
    QuadraticExpansion,
    SpecialPoint,
    classify_point,
    detection_system,
    discriminant,
    find_special_points,
    quadratic_expansion,
)
from .trace import (
    KIND_CHARACTERISTIC,
    KIND_SINGULARITY,
    CurveSet,
    Polyline,
    characteristic_curves,
    image_curves,
    trace_singularity_curves,
)

__version__ = "0.1.0"

# The submodules bound by the imports above are not part of the star import.
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
