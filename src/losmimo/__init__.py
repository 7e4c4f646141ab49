"""Line-of-sight MIMO toolbox: array geometry, wavefront-model channels,
waterfilling capacity, and reconfigurable-array optimization."""

__version__ = "0.1.0"

from .errors import (
    LosMimoError,
    InvalidArgumentError,
    ConfigError,
    DegenerateGeometryError,
    IncompatibleModeError,
    UnsupportedArchetypeError,
    NumericalValidityError,
    NoSignalError,
    NyquistViolationError,
)
from .geometry import (
    Archetype,
    ArrayLayout,
    RigidPose,
    LinkScene,
    recompute_aperture,
    build_ula,
    build_ura,
    build_uca,
    build_aosa,
    custom_layout,
    scale_layout,
    rotate_in_link_plane,
    link_scene,
    transpose_scene,
    projected_aperture,
    channel_parameter,
)
from .channel import (
    SPEED_OF_LIGHT_M_S,
    WavefrontModel,
    Validity,
    DistanceMatrix,
    ChannelMatrix,
    PhaseProfile,
    distance_matrix,
    channel_matrix,
    validity_from_apertures,
    classify_validity,
    phase_profile,
)
from .capacity import (
    GainSpectrum,
    RateTable,
    gain_spectrum,
    waterfilling,
    uniform_rate,
    polarized_rate,
    capacity_upper_bound,
    capacity_upper_bound_integer,
    rate_report,
)
from .optimize import (
    SweepVariable,
    SweepSpec,
    SweepTable,
    snr_db_to_linear,
    optimize_rotation,
    fixed_angle_plan,
    select_fixed_angles,
    aosa_schedule,
    sweep,
)
from .config import SceneConfig, parse_scene_config, load_scene_config

# the public names bound above, submodules (errors, geometry, ...) left out
__all__ = ["__version__"] + [name for name, value in globals().items()
                             if not name.startswith("_") and not isinstance(value, type(errors))]
