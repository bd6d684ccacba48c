"""Experiment configuration: parsing, validation, round-trip serialization.

Configs are YAML mappings with nested sections. Every field is validated on
construction and errors name the offending field, so a bad file fails before
any computation starts. parse_config(serialize_config(c)) == c holds for all
valid configs, which keeps run manifests trustworthy.
"""

import hashlib
from dataclasses import asdict, dataclass, field, replace

import yaml

from .channel import ChannelModel
from .errors import ConfigError
from .multiflow import FlowSpec

EXPERIMENT_KINDS = ("solve", "simulate", "learn", "multiflow", "region", "threshold")
POLICY_KINDS = ("optimal", "greedy", "conservative", "retransmission", "variance", "learning")


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class ChannelConfig:
    """Channel section: homogeneous (erasure + receivers) or explicit list."""

    receivers: int | None = None
    erasure: float | None = None
    erasures: tuple | None = None

    def __post_init__(self):
        if self.erasures is not None:
            object.__setattr__(self, "erasures", tuple(float(e) for e in self.erasures))
            _require(len(self.erasures) >= 1, "channel.erasures must not be empty")
            _require(
                all(0.0 <= e <= 1.0 for e in self.erasures),
                "channel.erasures entries must lie in [0, 1]",
            )
            _require(
                self.erasure is None,
                "channel: give either erasure or erasures, not both",
            )
            _require(
                self.receivers is None or self.receivers == len(self.erasures),
                "channel.receivers contradicts the length of channel.erasures",
            )
        else:
            if self.erasure is not None:
                _require(0.0 <= self.erasure <= 1.0, "channel.erasure must lie in [0, 1]")
            _require(self.receivers is not None, "channel.receivers is required")
            _require(self.receivers >= 1, "channel.receivers must be >= 1")

    def to_model(self) -> ChannelModel:
        if self.erasures is not None:
            return ChannelModel(erasures=self.erasures)
        _require(self.erasure is not None, "channel.erasure is required")
        return ChannelModel.homogeneous(self.erasure, self.receivers)

    @property
    def n_receivers(self) -> int:
        return len(self.erasures) if self.erasures is not None else self.receivers


@dataclass(frozen=True)
class PolicyConfig:
    """Policy section: which decision rule and its parameters."""

    kind: str = "optimal"
    sigma2: float | None = None
    delta: float = 0.05
    eps_init: float = 0.5

    def __post_init__(self):
        _require(
            self.kind in POLICY_KINDS,
            f"policy.kind must be one of {', '.join(POLICY_KINDS)}",
        )
        if self.kind == "variance":
            _require(
                self.sigma2 is not None and self.sigma2 > 0,
                "policy.sigma2 must be > 0 for the variance policy",
            )
        _require(self.delta >= 0, "policy.delta must be >= 0")
        _require(0.0 <= self.eps_init <= 1.0, "policy.eps_init must lie in [0, 1]")


@dataclass(frozen=True)
class FlowConfig:
    """One flow of a multi-flow experiment."""

    flow_id: int
    channel: ChannelConfig
    arrival_rate: float
    delivery_ratio: float = 0.8
    weight: float = 1.0
    arrival_process: str = "bernoulli"
    arrival_batches: int | None = None

    def __post_init__(self):
        if isinstance(self.channel, dict):
            object.__setattr__(self, "channel", ChannelConfig(**self.channel))
        _require(self.arrival_rate >= 0, f"flows[{self.flow_id}].arrival_rate must be >= 0")
        _require(
            0.0 <= self.delivery_ratio <= 1.0,
            f"flows[{self.flow_id}].delivery_ratio must lie in [0, 1]",
        )
        _require(self.weight > 0, f"flows[{self.flow_id}].weight must be > 0")
        _require(
            self.arrival_process in ("bernoulli", "poisson"),
            f"flows[{self.flow_id}].arrival_process must be bernoulli or poisson",
        )

    def to_spec(self) -> FlowSpec:
        return FlowSpec(
            flow_id=self.flow_id,
            channel=self.channel.to_model(),
            arrival_rate=self.arrival_rate,
            delivery_ratio=self.delivery_ratio,
            weight=self.weight,
            arrival_process=self.arrival_process,
            arrival_batches=self.arrival_batches,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one reproducible run."""

    kind: str
    seed: int = 0
    out: str = "runs"
    horizon: int = 10
    channel: ChannelConfig | None = None
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    policies: tuple = ("optimal", "greedy", "conservative", "retransmission")
    epsilon_grid: tuple = ()
    replications: int = 10000
    frames: int = 100
    backlog: int | None = None
    rho: float = 0.1
    intra: str = "optimal"
    flows: tuple = ()
    grid: tuple = ()
    axis: str = "delivery_ratio"
    t_max: int = 30
    receivers_max: int = 10

    def __post_init__(self):
        _require(self.kind in EXPERIMENT_KINDS, f"kind must be one of {', '.join(EXPERIMENT_KINDS)}")
        if isinstance(self.channel, dict):
            object.__setattr__(self, "channel", ChannelConfig(**self.channel))
        if isinstance(self.policy, dict):
            object.__setattr__(self, "policy", PolicyConfig(**self.policy))
        object.__setattr__(
            self,
            "flows",
            tuple(FlowConfig(**f) if isinstance(f, dict) else f for f in self.flows),
        )
        object.__setattr__(self, "policies", tuple(self.policies))
        object.__setattr__(self, "epsilon_grid", tuple(float(e) for e in self.epsilon_grid))
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))

        _require(0 <= self.seed < 2**64, "seed must fit in 64 bits")
        _require(self.horizon >= 0, "horizon must be >= 0")
        _require(self.replications >= 1, "replications must be >= 1")
        _require(self.frames >= 1, "frames must be >= 1")
        _require(self.rho > 0, "rho must be > 0")
        _require(self.intra in ("optimal", "retransmission"),
                 "intra must be optimal or retransmission")
        _require(self.axis in ("delivery_ratio", "arrival_rate"),
                 "axis must be delivery_ratio or arrival_rate")
        _require(self.backlog is None or self.backlog >= 0, "backlog must be >= 0")

        if self.kind in ("solve", "simulate", "learn"):
            _require(self.channel is not None, f"{self.kind} requires a channel section")
        if self.kind in ("solve", "learn"):
            _require(
                self.channel.erasure is not None or self.channel.erasures is not None,
                f"{self.kind} requires channel.erasure (or channel.erasures)",
            )
        if self.kind == "simulate":
            _require(self.horizon >= 1, "simulate requires horizon >= 1")
            _require(len(self.epsilon_grid) >= 1, "simulate requires a non-empty epsilon_grid")
            _require(
                all(0.0 <= e <= 1.0 for e in self.epsilon_grid),
                "epsilon_grid entries must lie in [0, 1]",
            )
            for p in self.policies:
                _require(p in POLICY_KINDS, f"policies entry {p!r} is not a known policy kind")
            _require(
                self.channel.erasure is None and self.channel.erasures is None,
                "simulate takes its erasure rates from epsilon_grid: "
                "give channel.receivers only, not channel.erasure or channel.erasures",
            )
        if self.kind == "learn":
            _require(self.horizon >= 1, "learn requires horizon >= 1")
            _require(self.policy.kind == "learning", "learn requires policy.kind: learning")
        if self.kind in ("multiflow", "region"):
            _require(self.horizon >= 1, f"{self.kind} requires horizon >= 1")
            ids = [f.flow_id for f in self.flows]
            _require(len(set(ids)) == len(ids), "flows must have unique flow_id values")
            # the flows as they will run: a region sweep runs every grid value
            # on its axis in place of the template's own
            specs = [f.to_spec() for f in self.flows]
            if self.kind == "region":
                specs = [replace(s, **{self.axis: v}) for s in specs for v in self.grid]
            for spec in specs:
                spec.check_arrivals(self.horizon)
        if self.kind == "region":
            _require(len(self.flows) == 2, "region requires exactly two template flows")
            _require(len(self.grid) >= 1, "region requires a non-empty grid")
        if self.kind == "threshold":
            _require(self.t_max >= 2, "threshold requires t_max >= 2")
            _require(self.receivers_max >= 1, "threshold requires receivers_max >= 1")


def _clean(value):
    """Drop None-valued keys so serialized configs stay minimal and
    round-trip through dataclass defaults."""
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def serialize_config(config: ExperimentConfig) -> str:
    return yaml.safe_dump(_clean(asdict(config)), sort_keys=True)


def parse_config(text: str) -> ExperimentConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raise ConfigError("config file is empty")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(sorted(unknown))}")
    if "kind" not in raw:
        raise ConfigError("kind is required")
    try:
        return ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(f"malformed config section: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return parse_config(fp.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def config_digest(config: ExperimentConfig) -> str:
    """Stable content hash of the canonical serialization."""
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()
