"""Block-size policies and scheduling for coded broadcast under deadlines."""

from .channel import ChannelModel
from .config import (
    ChannelConfig,
    ExperimentConfig,
    FlowConfig,
    PolicyConfig,
    config_digest,
    load_config,
    parse_config,
    serialize_config,
)
from .decoding import (
    DecodingTable,
    completion_second_moment,
    decode_prob,
    expected_completion_time,
)
from .errors import ConfigError, DivergenceError, InvariantViolation
from .multiflow import (
    FlowSpec,
    MultiflowTrace,
    RegionMap,
    ServiceCurve,
    StaticDualTrace,
    allocate_slots,
    deficit_slope,
    rate_region_sweep,
    run_online,
    service_curve,
    static_dual_iteration,
    update_deficit,
)
from .policies import (
    BlockPolicy,
    ConservativePolicy,
    GreedyPolicy,
    LearningPolicy,
    OptimalPolicy,
    RetransmissionPolicy,
    VarianceConstrainedPolicy,
    make_policy,
)
from .rng import RngSpec, frame_bits
from .simulate import (
    FrameTrace,
    ThroughputSummary,
    learning_run,
    monte_carlo_throughput,
    simulate_frame,
)
from .solver import (
    PolicyTable,
    retransmission_threshold,
    solve_bruteforce,
    solve_monotone,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPolicy",
    "ChannelConfig",
    "ChannelModel",
    "ConfigError",
    "ConservativePolicy",
    "DecodingTable",
    "DivergenceError",
    "ExperimentConfig",
    "FlowConfig",
    "FlowSpec",
    "FrameTrace",
    "GreedyPolicy",
    "InvariantViolation",
    "LearningPolicy",
    "MultiflowTrace",
    "OptimalPolicy",
    "PolicyConfig",
    "PolicyTable",
    "RegionMap",
    "RetransmissionPolicy",
    "RngSpec",
    "ServiceCurve",
    "StaticDualTrace",
    "ThroughputSummary",
    "VarianceConstrainedPolicy",
    "allocate_slots",
    "completion_second_moment",
    "config_digest",
    "decode_prob",
    "deficit_slope",
    "expected_completion_time",
    "frame_bits",
    "learning_run",
    "load_config",
    "make_policy",
    "monte_carlo_throughput",
    "parse_config",
    "rate_region_sweep",
    "retransmission_threshold",
    "run_online",
    "serialize_config",
    "service_curve",
    "simulate_frame",
    "solve_bruteforce",
    "solve_monotone",
    "static_dual_iteration",
    "update_deficit",
    "__version__",
]
