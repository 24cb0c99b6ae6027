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
    ParamStore,
    Tape,
    finite_diff_check,
)
from .losses import (
    CouplingProblem,
    LossBreakdown,
    LossConfig,
    TermStats,
)
from .pointmap import (
    PointMapGrid,
    read_pointmap,
    write_pointmap,
)
from .pose import (
    Pose,
    Similarity,
    compose,
    exp_map,
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
from .tracks import static_mask
