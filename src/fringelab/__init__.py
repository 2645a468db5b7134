"""fringelab: event-level simulation of two-slit and interferometer
benches with which-way readout, decoherence, and eraser post-processing."""

from .analysis import (
    DualityResult,
    FringeHistogram,
    FringeMetrics,
    MetricValue,
    compute_metrics,
    distinguishability,
    duality_check,
    fringe_spacing,
    histogram,
    overlap_distinguishability,
    profile_visibility,
    visibility,
)
from .composite import (
    Branch,
    CompositeState,
    PhaseNoise,
    StateVector,
    TRIVIAL_STATE,
    inner,
    literal_pattern,
    noise_averaged_pattern,
    overlap_pair,
    two_slit_composite,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    PRESET_NAMES,
    build_preset,
    config_digest,
    parse_config,
    serialize_config,
)
from .experiments import composite_from_config, pattern_profile, run_experiment, slit_probabilities
from .measurement import (
    MeasurementOperator,
    WeakScreen,
    WhichWayRecord,
    coincidence_modulate,
    measured_signal,
)
from .montecarlo import DetectionEvent, EventLog, RngStream, sample_positions, sampling_grid
from .wavefield import (
    BeamSpec,
    CrossingRegion,
    MZGeometry,
    ScreenGrid,
    TwoSlitGeometry,
    crossing_intensity,
    mz_port_intensity,
    phase_difference,
    single_slit_intensity,
    slit_envelope,
    transport_phase,
    two_slit_field,
    two_slit_intensity,
)

__version__ = "0.7.0"
