"""Experiment configuration: parsing, validation, round-trip serialization.

Configs are YAML mappings with nested sections. Every field is validated on
construction and errors name the offending field, so a bad file fails before
any computation starts. Each rule has one owner, and this module calls it,
never a copy of it:
  channel.py    erasure ranges and receiver counts (ChannelModel, check_receivers)
  policies.py   policy kinds and parameters (POLICY_KINDS, check_sigma2, check_learning)
  multiflow.py  each flow's ranges (FlowSpec); for multiflow, the horizon, unique
                flow ids and arrivals against the horizon (check_flows); for
                region, the axis, the two template flows and every grid cell's
                flow pair (region_pairs); for both, the step size rho: > 0,
                and not so small that the allocator's weights overflow (check_rho)
This module checks only what the models cannot see: field types, the shape
of each section, and cross-field context such as which sections a kind
requires, which fields it reads (KIND_FIELDS) and that a region grid is not
empty, which the library accepts.
parse_config(serialize_config(c)) == c holds for all valid configs, which
keeps run manifests trustworthy.
"""

import hashlib
import math
import re
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from types import NoneType, UnionType
from typing import get_args, get_origin

import yaml

from .channel import ChannelModel, check_receivers
from .errors import ConfigError
from .multiflow import INTRA_POLICIES, FlowSpec, check_flows, check_rho, region_pairs
from .policies import POLICY_KINDS, check_learning, check_sigma2

# The fields each kind reads, besides kind, seed and out. Any other field
# must keep its default: a run never ignores a value it was given.
KIND_FIELDS = {
    "solve": ("horizon", "channel"),
    "simulate": ("horizon", "channel", "policy", "policies", "epsilon_grid",
                 "replications", "backlog"),
    "learn": ("horizon", "channel", "policy", "frames", "backlog"),
    "multiflow": ("horizon", "rho", "frames", "intra", "flows"),
    "region": ("horizon", "rho", "frames", "flows", "grid", "axis"),
    "threshold": ("t_max", "receivers_max"),
}
EXPERIMENT_KINDS = tuple(KIND_FIELDS)
_COMMON_FIELDS = ("kind", "seed", "out")  # fields every kind reads

# The policy sub-fields a run of each policy kind reads. simulate reads them
# for the kinds in its policies list, and never policy.kind; learn reads
# policy.kind and the learning fields. Other sub-fields keep their default.
POLICY_FIELDS = {"variance": ("sigma2",), "learning": ("delta", "eps_init")}


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _checked(where: str, check, *args):
    """Call a model constructor or check, naming the config field it checks."""
    try:
        return check(*args)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _is_number(value) -> bool:
    """An int or a finite float; a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


_TYPE_CHECKS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _typed(name: str, value, hint):
    """``value`` checked against the field annotation ``hint``.

    A section must be a mapping, built here into its dataclass, and a list a
    list, stored as a tuple with its numbers as floats. Scalars are stored as
    given: an int field takes no bool or float, and a float field any finite
    number, an int included. None passes only an optional field.
    """
    if get_origin(hint) is UnionType:  # X | None
        if value is None:
            return None
        (hint,) = (a for a in get_args(hint) if a is not NoneType)
    if is_dataclass(hint):
        if isinstance(value, dict):
            return hint(**value)
        _require(isinstance(value, hint), f"{name} must be a mapping, got {value!r}")
        return value
    if get_origin(hint) is tuple:
        _require(isinstance(value, (list, tuple)), f"{name} must be a list, got {value!r}")
        item = get_args(hint)[0]
        items = tuple(_typed(f"{name} entry", v, item) for v in value)
        return tuple(float(v) for v in items) if item is float else items
    noun, ok = _TYPE_CHECKS[hint]
    _require(ok(value), f"{name} must be {noun}, got {value!r}")
    return value


def _default(f):
    """The default value of a dataclass field."""
    return f.default_factory() if f.default is MISSING else f.default


def _unread(section, read, prefix: str) -> list:
    """The fields of a config dataclass outside ``read`` that differ from
    their default, each named with ``prefix``."""
    return [
        prefix + f.name for f in fields(section)
        if f.name not in read and getattr(section, f.name) != _default(f)
    ]


def _check_types(section, prefix: str):
    """Type-check every field of a config dataclass, in place."""
    for f in fields(section):
        value = _typed(prefix + f.name, getattr(section, f.name), f.type)
        object.__setattr__(section, f.name, value)


@dataclass(frozen=True)
class ChannelConfig:
    """Channel section: homogeneous (erasure + receivers) or explicit list.
    Only its shape is checked here; its ranges are ChannelModel's."""

    receivers: int | None = None
    erasure: float | None = None
    erasures: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_types(self, "channel.")
        if self.erasures is not None:
            _require(
                self.erasure is None,
                "channel: give either erasure or erasures, not both",
            )
            _require(
                self.receivers is None or self.receivers == len(self.erasures),
                "channel.receivers contradicts the length of channel.erasures",
            )
        else:
            _require(self.receivers is not None, "channel.receivers is required")

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
    """Policy section: which decision rule and its parameters, checked by
    the policies' own rules."""

    kind: str = "optimal"
    sigma2: float | None = None
    delta: float = 0.05
    eps_init: float = 0.5

    def __post_init__(self):
        _check_types(self, "policy.")
        if self.sigma2 is not None:
            _checked("policy", check_sigma2, self.sigma2)
        _checked("policy", check_learning, self.delta, self.eps_init)


@dataclass(frozen=True)
class FlowConfig:
    """One flow of a multi-flow experiment; its ranges are FlowSpec's,
    checked when the experiment builds it with to_spec()."""

    flow_id: int
    channel: ChannelConfig
    arrival_rate: float
    delivery_ratio: float = 0.8
    weight: float = 1.0
    arrival_process: str = "bernoulli"

    def __post_init__(self):
        _check_types(self, "flows.")

    def to_spec(self) -> FlowSpec:
        return FlowSpec(
            flow_id=self.flow_id,
            channel=_checked(f"flow {self.flow_id} channel", self.channel.to_model),
            arrival_rate=self.arrival_rate,
            delivery_ratio=self.delivery_ratio,
            weight=self.weight,
            arrival_process=self.arrival_process,
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
    policies: tuple[str, ...] = ("optimal", "greedy", "conservative", "retransmission")
    epsilon_grid: tuple[float, ...] = ()
    replications: int = 10000
    frames: int = 100
    backlog: int | None = None
    rho: float = 0.1
    intra: str = "optimal"
    flows: tuple[FlowConfig, ...] = ()
    grid: tuple[float, ...] = ()
    axis: str = "delivery_ratio"
    t_max: int = 30
    receivers_max: int = 10

    def __post_init__(self):
        _check_types(self, "")
        _require(self.kind in EXPERIMENT_KINDS, f"kind must be one of {', '.join(EXPERIMENT_KINDS)}")
        _require(0 <= self.seed < 2**64, "seed must fit in 64 bits")
        _require(self.horizon >= 0, "horizon must be >= 0")
        _require(self.replications >= 1, "replications must be >= 1")
        _require(self.frames >= 1, "frames must be >= 1")
        _require(self.intra in INTRA_POLICIES, f"intra must be one of {', '.join(INTRA_POLICIES)}")
        _require(self.backlog is None or self.backlog >= 0, "backlog must be >= 0")
        # every section, whatever the kind, must build valid model objects
        specs = [f.to_spec() for f in self.flows]
        channel = self.channel
        if channel is not None:
            if channel.erasure is None and channel.erasures is None:
                _checked("channel", check_receivers, channel.receivers)
            else:
                _checked("channel", channel.to_model)

        if self.kind in ("solve", "simulate", "learn"):
            _require(self.channel is not None, f"{self.kind} requires a channel section")
        if self.kind in ("solve", "learn"):
            _require(
                channel.erasure is not None or channel.erasures is not None,
                f"{self.kind} requires channel.erasure (or channel.erasures)",
            )
        if self.kind == "simulate":
            _require(self.horizon >= 1, "simulate requires horizon >= 1")
            _require(len(self.epsilon_grid) >= 1, "simulate requires a non-empty epsilon_grid")
            _require(len(self.policies) >= 1, "simulate requires a non-empty policies list")
            for eps in self.epsilon_grid:
                _checked("epsilon_grid", ChannelModel.homogeneous, eps, channel.n_receivers)
            for p in self.policies:
                _require(p in POLICY_KINDS, f"policies entry {p!r} is not a known policy kind")
            if "variance" in self.policies:
                _checked("policy", check_sigma2, self.policy.sigma2)
            _require(
                channel.erasure is None and channel.erasures is None,
                "simulate takes its erasure rates from epsilon_grid: "
                "give channel.receivers only, not channel.erasure or channel.erasures",
            )
        if self.kind == "learn":
            _require(self.horizon >= 1, "learn requires horizon >= 1")
            _require(self.policy.kind == "learning", "learn requires policy.kind: learning")
        if self.kind == "multiflow":
            check_flows(specs, self.horizon)
        if self.kind == "region":
            region_pairs(specs, self.grid, self.axis, self.horizon)
            _require(len(self.grid) >= 1, "region requires a non-empty grid")
        if self.kind in ("multiflow", "region"):
            check_rho(specs, self.rho, self.horizon)
        if self.kind == "threshold":
            _require(self.t_max >= 2, "threshold requires t_max >= 2")
            _require(self.receivers_max >= 1, "threshold requires receivers_max >= 1")
        unread = _unread(self, _COMMON_FIELDS + KIND_FIELDS[self.kind], "")
        if "policy" in KIND_FIELDS[self.kind]:
            unread += _unread(self.policy, _policy_read(self), "policy.")
        _require(not unread, f"{self.kind} does not read {', '.join(unread)}: leave them out")


def _policy_read(config: ExperimentConfig) -> tuple:
    """The policy sub-fields a run of ``config`` reads: for simulate those of
    the policy kinds it lists, for learn policy.kind and the learning fields."""
    if config.kind == "learn":
        return ("kind",) + POLICY_FIELDS["learning"]
    return tuple(name for p in config.policies for name in POLICY_FIELDS.get(p, ()))


def _clean(value):
    """Drop None-valued keys so serialized configs stay minimal and
    round-trip through dataclass defaults."""
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def serialize_config(config: ExperimentConfig) -> str:
    """The fields the run reads, as YAML: kind, seed, out, the kind's
    KIND_FIELDS and the policy sub-fields it reads. Every other field holds
    its default, so parsing the text gives back ``config``."""
    data = asdict(config)
    read = {name: data[name] for name in _COMMON_FIELDS + KIND_FIELDS[config.kind]}
    if "policy" in read:
        read["policy"] = {name: read["policy"][name] for name in _policy_read(config)}
    return yaml.safe_dump(_clean(read), sort_keys=True)


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that reads integers and exponents as YAML 1.2 and
    JSON do, and rejects a key repeated in one mapping, at any depth, where
    safe_load would keep the last value and drop the others."""

    def construct_yaml_int(self, node):
        """A YAML 1.2 core-schema integer: decimal (leading zeros allowed),
        or 0o octal, or 0x hexadecimal; an ``!!int`` tag on anything else is
        a YAML error."""
        text = self.construct_scalar(node)
        base = {"0o": 8, "0x": 16}.get(text[:2])
        try:
            return int(text[2:], base) if base else int(text, 10)
        except ValueError:
            raise yaml.constructor.ConstructorError(
                None, None, f"{text!r} is not an integer", node.start_mark
            ) from None

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # merge keys (<<) and non-scalar keys are left to SafeLoader
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise ConfigError(
                        f"config key {key!r} is repeated (line {key_node.start_mark.line + 1})"
                    )
                seen.add(key)
        return super().construct_mapping(node, deep)


# YAML 1.1 reads an exponent as a float only with a decimal point and a
# signed exponent; YAML 1.2 and JSON also read 1e6 and 1e-05 as floats.
_UniqueKeyLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)
# YAML 1.1 reads 010 as octal 8, 1:30 as base-60 90, 0b101 as 5 and 1_000 as
# 1000; YAML 1.2's core schema reads 010 as 10, the others as strings, and
# adds 0o17. Its resolver replaces SafeLoader's for the same first characters.
_INT_TAG = "tag:yaml.org,2002:int"
for _first in "-+0123456789":
    _UniqueKeyLoader.yaml_implicit_resolvers[_first] = [
        entry for entry in _UniqueKeyLoader.yaml_implicit_resolvers[_first] if entry[0] != _INT_TAG
    ]
_UniqueKeyLoader.add_implicit_resolver(
    _INT_TAG, re.compile(r"^(?:[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+)$"), list("-+0123456789")
)
_UniqueKeyLoader.add_constructor(_INT_TAG, _UniqueKeyLoader.construct_yaml_int)


def parse_config(text: str) -> ExperimentConfig:
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
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
