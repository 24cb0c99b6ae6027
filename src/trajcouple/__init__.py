"""Coupled track / pointmap / camera-pose optimization toolkit."""

__version__ = "0.1.0"

from .errors import (
    ConfigInvalid,
    DegenerateConfiguration,
    Diverged,
    EmptyValidMask,
    FileFormatError,
    IndexOutOfRange,
    LogNearPi,
    MissingTargets,
    OutOfDomain,
    TrajCoupleError,
    UnknownBlock,
)
from .grad import (
    GRIDS,
    POSES,
    TRACKS,
    ParamLayout,
    ParamStore,
    RoutingMask,
    Tape,
    finite_diff_check,
)
from .losses import (
    CouplingProblem,
    LossBreakdown,
    LossConfig,
    TermStats,
    loss_cam,
    loss_cons,
    loss_selfsup,
    selfsup_static_mask,
    total_loss,
)
from .pointmap import (
    PointMapGrid,
    read_pointmap,
    write_pointmap,
)
from .pose import (
    Pose,
    PoseTangent,
    Similarity,
    compose,
    exp_map,
    icp_refine,
    inverse,
    log_map,
    relative_pose,
    umeyama,
)
from .synthetic import (
    SceneConfig,
    SyntheticScene,
    build_problem,
    generate,
    initial_store,
    load_scene,
    perturb,
    save_scene,
)
from .tracks import (
    TrackSet,
    WorldTrackSet,
    anchor_targets,
    camera_frame_position,
    static_mask,
)
