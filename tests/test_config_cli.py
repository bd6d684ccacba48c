"""Config parsing/round-trip tests and end-to-end CLI runs into temp dirs:
exit codes, CSV schemas, manifest contents, determinism across seeds and
worker counts."""

import hashlib
import inspect
import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptnc import (
    ChannelConfig,
    ChannelModel,
    ConfigError,
    ExperimentConfig,
    FlowConfig,
    FlowSpec,
    InvariantViolation,
    LearningPolicy,
    OptimalPolicy,
    PolicyConfig,
    RngSpec,
    config_digest,
    learning_run,
    load_config,
    make_policy,
    parse_config,
    rate_region_sweep,
    run_online,
    serialize_config,
    service_curve,
    simulate_frame,
    solve_monotone,
)
from adaptnc import cli
from adaptnc.config import KIND_FIELDS, _clean, _UniqueKeyLoader


def read_csv_lines(path):
    return path.read_text(encoding="utf-8").strip().splitlines()


def write_config(tmp_path, name="config.yaml", **fields):
    cfg = ExperimentConfig(**fields)
    path = tmp_path / name
    path.write_text(serialize_config(cfg), encoding="utf-8")
    return path, cfg


def full_form(cfg):
    """Every field of ``cfg`` as YAML, None-valued ones left out: a saved
    config.yaml that also lists the fields its run does not read."""
    return yaml.safe_dump(_clean(asdict(cfg)), sort_keys=True)


SOLVE_FIELDS = dict(
    kind="solve", seed=3, horizon=8, channel={"receivers": 5, "erasure": 0.2}
)


class TestConfigDefaults:
    def test_experiment_defaults(self):
        cfg = ExperimentConfig(kind="multiflow")
        assert cfg.rho == 0.1
        assert cfg.horizon == 10
        assert cfg.out == "runs"
        assert cfg.intra == "optimal"
        assert cfg.axis == "delivery_ratio"
        assert cfg.policies == ("optimal", "greedy", "conservative", "retransmission")

    def test_flow_defaults(self):
        fc = FlowConfig(flow_id=0, channel={"receivers": 2, "erasure": 0.3}, arrival_rate=2.0)
        assert fc.delivery_ratio == 0.8
        assert fc.weight == 1.0
        assert fc.arrival_process == "bernoulli"
        spec = fc.to_spec()
        assert spec.channel == ChannelModel.homogeneous(0.3, 2)
        assert spec.arrival_batches is None

    def test_policy_defaults(self):
        pc = PolicyConfig()
        assert pc.kind == "optimal"
        assert pc.delta == 0.05
        assert pc.eps_init == 0.5

    @pytest.mark.parametrize("config, library, names", [
        (PolicyConfig, LearningPolicy, ("delta", "eps_init")),
        (PolicyConfig, make_policy, ("delta", "eps_init")),
        (FlowConfig, FlowSpec, ("weight", "arrival_process", "arrival_batches")),
        (ExperimentConfig, run_online, ("intra",)),
        (ExperimentConfig, service_curve, ("intra",)),
        (ExperimentConfig, rate_region_sweep, ("axis",)),
        (ExperimentConfig, learning_run, ("backlog",)),
    ])
    def test_config_defaults_are_the_library_defaults(self, config, library, names):
        # a config that leaves a field out must run as the library call that
        # leaves the argument out, or the CLI and library drift apart
        for name in names:
            ours = inspect.signature(config).parameters[name].default
            theirs = inspect.signature(library).parameters[name].default
            assert ours is not inspect.Parameter.empty, name
            assert ours == theirs, (name, ours, theirs)


class TestChannelConfig:
    def test_homogeneous_form(self):
        cc = ChannelConfig(receivers=4, erasure=0.25)
        assert cc.to_model() == ChannelModel.homogeneous(0.25, 4)
        assert cc.n_receivers == 4

    def test_explicit_list_form(self):
        cc = ChannelConfig(erasures=[0.1, 0.35, 0.6])
        assert cc.to_model() == ChannelModel((0.1, 0.35, 0.6))
        assert cc.n_receivers == 3

    def test_validation(self):
        with pytest.raises(ConfigError, match="not both"):
            ChannelConfig(erasure=0.2, erasures=[0.2, 0.3])
        with pytest.raises(ConfigError, match="contradicts"):
            ChannelConfig(receivers=2, erasures=[0.2, 0.3, 0.4])
        with pytest.raises(ConfigError, match="receivers is required"):
            ChannelConfig(erasure=0.2)
        with pytest.raises(ConfigError, match="erasure is required"):
            ChannelConfig(receivers=3).to_model()


class TestConfigValidation:
    def test_kind_specific_requirements(self):
        cases = [
            (dict(kind="solve"), "requires a channel section"),
            (dict(kind="solve", channel={"receivers": 5}), "channel.erasure"),
            (
                dict(kind="simulate", channel={"receivers": 5, "erasure": 0.2}),
                "non-empty epsilon_grid",
            ),
            (
                dict(kind="simulate", channel={"receivers": 5, "erasure": 0.2},
                     epsilon_grid=[0.2], policies=["optimal", "oracle"]),
                "not a known policy kind",
            ),
            (
                dict(kind="simulate", channel={"receivers": 5}, epsilon_grid=[0.2], policies=[]),
                "simulate requires a non-empty policies list",
            ),
            (
                dict(kind="simulate", channel={"receivers": 5, "erasure": 0.2},
                     epsilon_grid=[0.2]),
                "rates from epsilon_grid",
            ),
            (
                dict(kind="simulate", channel={"erasures": [0.1, 0.9]}, epsilon_grid=[0.2]),
                "rates from epsilon_grid",
            ),
            (
                dict(kind="learn", channel={"receivers": 5, "erasure": 0.2}),
                "policy.kind: learning",
            ),
            (dict(kind="region", flows=[]), "exactly two template flows"),
            (dict(kind="threshold", t_max=1), "t_max >= 2"),
            (dict(kind="orbit"), "kind must be one of"),
        ]
        for fields, needle in cases:
            with pytest.raises(ConfigError, match=needle):
                ExperimentConfig(**fields)

    def test_region_needs_grid(self):
        flows = [
            {"flow_id": i, "channel": {"receivers": 2, "erasure": 0.3}, "arrival_rate": 1.0}
            for i in range(2)
        ]
        with pytest.raises(ConfigError, match="non-empty grid"):
            ExperimentConfig(kind="region", flows=flows, grid=[])

    def test_duplicate_flow_ids(self):
        flows = [
            {"flow_id": 7, "channel": {"receivers": 2, "erasure": 0.3}, "arrival_rate": 1.0}
            for _ in range(2)
        ]
        with pytest.raises(ConfigError, match="unique flow_id"):
            ExperimentConfig(kind="multiflow", flows=flows)

    def test_arrival_settings_checked_against_the_horizon(self):
        def flows(n=1, **kw):
            base = {"channel": {"receivers": 2, "erasure": 0.3}, "arrival_rate": 1.0}
            return [{**base, "flow_id": i, **kw} for i in range(n)]

        cases = [
            (dict(kind="multiflow", horizon=10, flows=flows(arrival_rate=12.0)),
             "exceeds 10 Bernoulli batches"),
            (dict(kind="multiflow", flows=flows(arrival_rate=4.0, arrival_batches=3)),
             "exceeds 3 Bernoulli batches"),
            (dict(kind="multiflow", flows=flows(arrival_process="poisson", arrival_batches=3)),
             "only to bernoulli"),
            (dict(kind="multiflow", flows=[{"flow_id": 0, "channel": {"receivers": 2},
                                            "arrival_rate": 1.0}]),
             "channel.erasure is required"),
            # a region sweep runs every grid value on its axis
            (dict(kind="region", horizon=6, axis="arrival_rate", grid=[1.0, 7.0], flows=flows(2)),
             "arrival rate 7.0 exceeds 6 Bernoulli batches"),
            (dict(kind="region", grid=[0.5, 1.5], flows=flows(2)), "delivery ratio"),
        ]
        for fields, needle in cases:
            with pytest.raises(ConfigError, match=needle):
                ExperimentConfig(**fields)
        # the template's own value on the swept axis never runs
        ExperimentConfig(kind="region", horizon=6, axis="arrival_rate", grid=[1.0, 6.0],
                         flows=flows(2, arrival_rate=9.0))
        ExperimentConfig(kind="multiflow", horizon=6,
                         flows=flows(arrival_rate=9.0, arrival_process="poisson"))

    def test_flow_ranges_apply_to_every_kind(self):
        def flows(**kw):
            return [{"flow_id": 0, "channel": {"receivers": 2, "erasure": 0.3},
                     "arrival_rate": 1.0, **kw}]

        cases = [
            (dict(kind="multiflow", flows=flows(weight=0)), "weight must be > 0"),
            (dict(kind="multiflow", flows=flows(arrival_rate=-1.0)), "arrival rate must be >= 0"),
            (dict(kind="multiflow", flows=flows(arrival_process="burst")),
             "unknown arrival process"),
            (dict(kind="multiflow", flows=flows(arrival_batches=0)),
             "arrival batches must be >= 1"),
            # flows a command never runs still have to be valid flows
            (dict(kind="solve", channel={"receivers": 5, "erasure": 0.2},
                  flows=flows(delivery_ratio=1.5)), "delivery ratio must be in"),
            (dict(kind="threshold", flows=flows(weight=-1.0)), "weight must be > 0"),
        ]
        for fields, needle in cases:
            with pytest.raises(ConfigError, match=needle):
                ExperimentConfig(**fields)

    def test_generic_field_ranges(self):
        base = dict(kind="multiflow")
        for bad in (
            dict(rho=0.0),
            dict(seed=-1),
            dict(frames=0),
            dict(replications=0),
            dict(backlog=-1),
            dict(intra="hybrid"),
            dict(axis="weight"),
            dict(policy={"kind": "mystery"}),
            dict(policy={"kind": "variance"}),  # missing sigma2
            dict(policy={"kind": "learning", "delta": -0.1}),
            dict(policy={"kind": "learning", "eps_init": 2.0}),
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig(**{**base, **bad})

    @pytest.mark.parametrize("fields, needle", [
        # ranges that come from ChannelModel, on the top-level channel
        (dict(kind="solve", channel={"receivers": 2, "erasure": 1.5}), "channel: erasure"),
        (dict(kind="solve", channel={"erasures": [0.1, 1.5]}), "channel: erasure"),
        (dict(kind="solve", channel={"erasures": []}), "channel: receivers must be >= 1"),
        (dict(kind="solve", channel={"receivers": 0, "erasure": 0.2}),
         "channel: receivers must be >= 1"),
        (dict(kind="simulate", channel={"receivers": 0}, epsilon_grid=[0.2]),
         "channel: receivers must be >= 1"),
        # a channel section the kind never uses is still a channel
        (dict(kind="threshold", channel={"receivers": 0}), "channel: receivers must be >= 1"),
        (dict(kind="multiflow", channel={"receivers": 2, "erasure": -0.1}), "channel: erasure"),
        # and on a flow's channel
        (dict(kind="multiflow", flows=[{"flow_id": 4, "arrival_rate": 1.0,
                                        "channel": {"erasures": [0.2, 2.0]}}]),
         "flow 4 channel: erasure"),
        # simulate's rates, each built into ChannelModel.homogeneous
        (dict(kind="simulate", channel={"receivers": 3}, epsilon_grid=[0.2, 1.5]),
         "epsilon_grid: erasure probability 1.5"),
        # the policy parameters, checked by policies.py
        (dict(kind="solve", channel={"receivers": 2, "erasure": 0.2},
              policy={"kind": "variance", "sigma2": -1.0}), "policy: sigma2 must be > 0"),
        # solve reads no policy section, whatever its kind
        (dict(kind="solve", channel={"receivers": 2, "erasure": 0.2},
              policy={"kind": "variance"}), "policy: leave them out"),
        (dict(kind="learn", channel={"receivers": 2, "erasure": 0.2},
              policy={"kind": "learning", "delta": -0.1}), "policy: delta must be >= 0"),
        (dict(kind="learn", channel={"receivers": 2, "erasure": 0.2},
              policy={"kind": "learning", "eps_init": 2.0}), "policy: eps_init must lie in"),
        # the value lists imported from multiflow.py and policies.py
        (dict(kind="multiflow", intra="hybrid"), "intra must be one of"),
        (dict(kind="region", axis="weight"), "axis must be one of"),
        # learn runs only the learning policy
        (dict(kind="learn", channel={"receivers": 2, "erasure": 0.2},
              policy={"kind": "mystery"}), "policy.kind: learning"),
    ])
    def test_section_ranges_come_from_the_models(self, fields, needle):
        with pytest.raises(ConfigError, match=needle):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("text, needle", [
        ("kind: solve\nhorizon: 10.5\nchannel: {receivers: 2, erasure: 0.2}\n",
         "horizon must be an integer"),
        ("kind: solve\nchannel: {receivers: 2.5, erasure: 0.2}\n",
         "channel.receivers must be an integer"),
        ("kind: simulate\nreplications: 10.5\nchannel: {receivers: 2}\nepsilon_grid: [0.2]\n",
         "replications must be an integer"),
        ("kind: threshold\nt_max: 3.5\n", "t_max must be an integer"),
        ("kind: solve\nchannel: [1, 2]\n", "channel must be a mapping"),
        ("kind: solve\nhorizon: true\nchannel: {receivers: 2, erasure: 0.2}\n",
         "horizon must be an integer"),
        ("kind: solve\npolicy: optimal\nchannel: {receivers: 2, erasure: 0.2}\n",
         "policy must be a mapping"),
        ("kind: simulate\npolicies: optimal\nchannel: {receivers: 2}\nepsilon_grid: [0.2]\n",
         "policies must be a list"),
        ("kind: multiflow\nflows: {flow_id: 0}\n", "flows must be a list"),
        ("kind: multiflow\nflows: [3]\n", "flows entry must be a mapping"),
        ("kind: simulate\nchannel: {receivers: 2}\nepsilon_grid: ['0.2']\n",
         "epsilon_grid entry must be a finite number"),
        ("kind: solve\nchannel: {erasures: [0.2, true]}\n",
         "channel.erasures entry must be a finite number"),
        ("kind: threshold\nout: 5\n", "out must be a string"),
    ])
    def test_wrong_types_are_rejected(self, text, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config(text)

    @pytest.mark.parametrize("flow, needle", [
        ({"arrival_rate": ".nan"}, "flows.arrival_rate must be a finite number"),
        ({"weight": ".nan"}, "flows.weight must be a finite number"),
        ({"weight": ".inf"}, "flows.weight must be a finite number"),
        ({"delivery_ratio": "-.inf"}, "flows.delivery_ratio must be a finite number"),
    ])
    def test_non_finite_flow_numbers_are_rejected(self, flow, needle):
        fields = {"flow_id": 0, "arrival_rate": 1.0, "channel": "{receivers: 2, erasure: 0.2}",
                  **flow}
        entry = ", ".join(f"{k}: {v}" for k, v in fields.items())
        with pytest.raises(ConfigError, match=needle):
            parse_config(f"kind: multiflow\nflows: [{{{entry}}}]\n")

    def test_non_finite_numbers_are_rejected(self):
        learn = "kind: learn\nchannel: {receivers: 2, erasure: 0.2}\n"
        for text, needle in (
            ("kind: multiflow\nrho: .inf\n", "rho must be a finite number"),
            (learn + "policy: {kind: learning, delta: .nan}\n", "policy.delta must be a finite"),
            (learn + "policy: {kind: learning, eps_init: .nan}\n", "policy.eps_init"),
            ("kind: solve\nchannel: {receivers: 2, erasure: .nan}\n", "channel.erasure must"),
            ("kind: simulate\nchannel: {receivers: 2}\nepsilon_grid: [.inf]\n",
             "epsilon_grid entry must be a finite number"),
        ):
            with pytest.raises(ConfigError, match=needle):
                parse_config(text)

    @pytest.mark.parametrize("written, number", [
        ("1e6", 1e6),
        ("2.5E3", 2500.0),
        ("-3e2", -300.0),
        (".5e-3", 0.0005),
        ("1.0e+6", 1e6),
        ("1e-05", 1e-05),
    ])
    def test_exponents_load_as_floats(self, written, number):
        # YAML 1.2 and JSON read every exponent form as a float, YAML 1.1
        # only one with a decimal point and a signed exponent
        loaded = yaml.load(f"x: {written}", Loader=_UniqueKeyLoader)["x"]
        assert type(loaded) is float and loaded == number
        text = f"kind: multiflow\nrho: {written}\n"
        if number > 0:
            assert parse_config(text).rho == number
        else:
            with pytest.raises(ConfigError, match="rho must be > 0"):
                parse_config(text)

    def test_exponent_resolver_leaves_strings_and_safe_load_alone(self):
        for text in ("'1e6'", "1e6x", "1e", "e6", "1_0e3"):
            assert type(yaml.load(f"x: {text}", Loader=_UniqueKeyLoader)["x"]) is str, text
        assert yaml.safe_load("x: 1e6") == {"x": "1e6"}
        with pytest.raises(ConfigError, match=re.escape("out must be a string, got 1000000.0")):
            parse_config("kind: threshold\nout: 1e6\n")

    @pytest.mark.parametrize("text, needle", [
        ("kind: solve\nchannel: {receivers: 2, erasure: 0.2}\nhorizon: 1e6\n",
         "horizon must be an integer, got 1000000.0"),
        ("kind: simulate\nchannel: {receivers: 2}\nepsilon_grid: [0.2]\nreplications: 1e6\n",
         "replications must be an integer, got 1000000.0"),
        ("kind: multiflow\nrho: '1e-3'\n", "rho must be a finite number, got '1e-3'"),
        ("kind: multiflow\nrho: fast\n", "rho must be a finite number, got 'fast'"),
    ], ids=["int", "int-with-default", "quoted", "word"])
    def test_exponents_in_int_fields_and_quoted_numbers_get_the_plain_message(
        self, text, needle
    ):
        with pytest.raises(ConfigError, match=re.escape(needle) + "$"):
            parse_config(text)

    @pytest.mark.parametrize("written, number", [
        ("010", 10), ("007", 7), ("-12", -12), ("+3", 3), ("0", 0), ("0o17", 15),
        ("0x1F", 31), ("!!int 010", 10),
    ])
    def test_integers_load_as_yaml_1_2_reads_them(self, written, number):
        # YAML 1.1 reads 010 as octal 8 and has no 0o form
        loaded = yaml.load(f"x: {written}", Loader=_UniqueKeyLoader)["x"]
        assert type(loaded) is int and loaded == number
        if number >= 2:  # threshold needs t_max >= 2
            assert parse_config(f"kind: threshold\nt_max: {written}\n").t_max == number

    @pytest.mark.parametrize("written", ["1:30", "0b101", "1_000", "-0x1F", "0o8", "1__0"])
    def test_yaml_1_1_integer_forms_are_strings(self, written):
        # base 60, binary and underscores are YAML 1.1 only: they load as
        # strings, and an int field rejects them with the plain message
        assert yaml.load(f"x: {written}", Loader=_UniqueKeyLoader)["x"] == written
        with pytest.raises(ConfigError, match=re.escape(f"horizon must be an integer, got '{written}'")):
            parse_config(f"kind: solve\nchannel: {{receivers: 2, erasure: 0.2}}\nhorizon: {written}\n")
        assert yaml.safe_load("x: 010") == {"x": 8}

    def test_a_bad_int_tag_is_a_yaml_error(self):
        with pytest.raises(ConfigError, match="'abc' is not an integer"):
            parse_config("kind: solve\nchannel: {receivers: 2, erasure: 0.2}\nhorizon: !!int abc\n")

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_json_floats_load_bit_for_bit(self, rho):
        # JSON is YAML 1.2, and writes 1e-05 and 1e+16 without a decimal point
        cfg = parse_config(json.dumps({"kind": "multiflow", "rho": rho}))
        assert type(cfg.rho) is float and cfg.rho.hex() == rho.hex()

    def test_ints_are_numbers_and_kept_as_given(self):
        text = ("kind: multiflow\nrho: 1\nflows:\n- {flow_id: 0, arrival_rate: 2, weight: 3, "
                "delivery_ratio: 1, channel: {receivers: 2, erasure: 0}}\n")
        cfg = parse_config(text)
        assert type(cfg.rho) is int and type(cfg.flows[0].weight) is int
        assert serialize_config(cfg) == serialize_config(parse_config(serialize_config(cfg)))
        assert "rho: 1\n" in serialize_config(cfg)

    def test_fields_the_kind_does_not_read_are_rejected(self):
        with pytest.raises(
            ConfigError, match="solve does not read policies, epsilon_grid, replications, rho, grid"
        ):
            parse_config("kind: solve\nchannel: {receivers: 2, erasure: 0.2}\n"
                         "epsilon_grid: [0.5]\nreplications: 7\nrho: 0.5\n"
                         "policies: [learning]\ngrid: [0.3]\n")
        flows = [{"flow_id": i, "channel": {"receivers": 2, "erasure": 0.3},
                  "arrival_rate": 1.0} for i in range(2)]
        region = dict(kind="region", grid=[0.2], flows=flows)
        with pytest.raises(ConfigError, match="region does not read intra"):
            ExperimentConfig(**region, intra="retransmission")
        # a field at its default is not a value the run ignores, so a saved
        # config.yaml that lists every field loads again
        cfg = ExperimentConfig(**region, intra="optimal", replications=10000)
        assert "replications: 10000" in full_form(cfg)
        assert parse_config(full_form(cfg)) == cfg

    @pytest.mark.parametrize("text, needle", [
        ("kind: learn\nchannel: {receivers: 2, erasure: 0.2}\n"
         "policy: {kind: learning, sigma2: 5.0}\n", "learn does not read policy.sigma2"),
        ("kind: simulate\nchannel: {receivers: 2}\nepsilon_grid: [0.2]\n"
         "policy: {kind: greedy}\n", "simulate does not read policy.kind"),
        ("kind: simulate\nchannel: {receivers: 2}\nepsilon_grid: [0.2]\npolicies: [optimal]\n"
         "policy: {delta: 0.3, sigma2: 4.0}\n", "simulate does not read policy.sigma2, policy.delta"),
    ])
    def test_policy_fields_the_run_does_not_read_are_rejected(self, text, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config(text)

    def test_policy_fields_a_run_reads_load(self):
        simulate = "kind: simulate\nchannel: {receivers: 2}\nepsilon_grid: [0.2]\n"
        cfg = parse_config(simulate + "policies: [variance, learning]\n"
                           "policy: {sigma2: 4.0, delta: 0.3, eps_init: 0.2}\n")
        assert (cfg.policy.sigma2, cfg.policy.delta, cfg.policy.eps_init) == (4.0, 0.3, 0.2)
        # sub-fields at their defaults are not values the run ignores, so a
        # saved config.yaml that lists them loads again
        cfg = parse_config(simulate + "policy: {kind: optimal, delta: 0.05, eps_init: 0.5}\n")
        assert "eps_init: 0.5" in full_form(cfg)
        assert parse_config(full_form(cfg)) == cfg

    def test_variance_in_policies_needs_sigma2_at_load(self, tmp_path):
        fields = dict(kind="simulate", channel={"receivers": 2}, epsilon_grid=[0.2],
                      policies=["optimal", "variance"], replications=10)
        with pytest.raises(ConfigError, match="policy: sigma2 must be > 0"):
            ExperimentConfig(**fields)
        with pytest.raises(ConfigError, match="policy: sigma2 must be > 0"):
            ExperimentConfig(**fields, policy={"sigma2": -2.0})
        ExperimentConfig(**fields, policy={"sigma2": 40.0})
        path = tmp_path / "variance.yaml"
        path.write_text(yaml.safe_dump({**fields, "out": str(tmp_path / "out")}), encoding="utf-8")
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _flow(i, **kw):
        return {"flow_id": i, "channel": {"receivers": 2, "erasure": 0.3},
                "arrival_rate": 1.0, **kw}

    RULE_CASES = {
        "multiflow horizon 0": dict(kind="multiflow", horizon=0, flows=[_flow(0)]),
        "region horizon 0": dict(kind="region", horizon=0, grid=[0.5], flows=[_flow(0), _flow(1)]),
        "duplicate flow ids": dict(kind="multiflow", flows=[_flow(7), _flow(7)]),
        "duplicate template ids": dict(kind="region", grid=[0.5], flows=[_flow(7), _flow(7)]),
        "rate above its batches": dict(kind="multiflow", horizon=10,
                                       flows=[_flow(0, arrival_rate=12.0)]),
        "batches on a poisson flow": dict(
            kind="multiflow", flows=[_flow(0, arrival_process="poisson", arrival_batches=3)]
        ),
        "bad axis": dict(kind="region", axis="weight", grid=[0.5], flows=[_flow(0), _flow(1)]),
        "one template": dict(kind="region", grid=[0.5], flows=[_flow(0)]),
        "grid value breaks a flow": dict(kind="region", horizon=6, axis="arrival_rate",
                                         grid=[1.0, 7.0], flows=[_flow(0), _flow(1)]),
    }

    @pytest.mark.parametrize("fields", RULE_CASES.values(), ids=RULE_CASES.keys())
    def test_multiflow_rules_match_the_library(self, fields):
        # one owner per rule: the config and the library give the same error
        run = {name: f.default for name, f in ExperimentConfig.__dataclass_fields__.items()}
        run.update(fields)
        specs = [FlowConfig(**f).to_spec() for f in run["flows"]]
        with pytest.raises(ConfigError) as at_load:
            ExperimentConfig(**fields)
        with pytest.raises(ConfigError) as in_library:
            if run["kind"] == "multiflow":
                run_online(specs, run["frames"], run["horizon"], run["rho"], RngSpec(0))
            else:
                rate_region_sweep(specs, run["grid"], run["horizon"], run["rho"], run["frames"],
                                  RngSpec(0), axis=run["axis"])
        assert str(at_load.value) == str(in_library.value)


class TestParseAndSerialize:
    @pytest.mark.parametrize("text, key, line", [
        ("kind: solve\nhorizon: 5\nhorizon: 30\nchannel: {receivers: 2, erasure: 0.2}\n",
         "horizon", 3),
        ("kind: solve\nchannel: {erasure: 0.2, erasure: 0.9, receivers: 2}\n", "erasure", 2),
        ("kind: multiflow\nflows:\n  - flow_id: 0\n    arrival_rate: 1.0\n"
         "    channel: {receivers: 2, erasure: 0.2}\n    arrival_rate: 2.0\n", "arrival_rate", 6),
    ], ids=["top level", "in a section", "in a list entry"])
    def test_repeated_keys_are_rejected(self, tmp_path, capsys, text, key, line):
        # plain YAML loading keeps the last value and silently drops the first
        with pytest.raises(ConfigError, match=f"config key '{key}' is repeated \\(line {line}\\)"):
            parse_config(text)
        path = tmp_path / "repeated.yaml"
        path.write_text(text + f"out: {tmp_path / 'run'}\n", encoding="utf-8")
        kind = yaml.safe_load(text)["kind"]
        assert cli.main([kind, "--config", str(path)]) == 2
        assert f"config key '{key}' is repeated" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_round_trip_of_shipped_configs(self):
        import pathlib

        shipped = sorted(pathlib.Path("configs").glob("*.yaml"))
        assert len(shipped) == 6
        for path in shipped:
            cfg = load_config(str(path))
            again = parse_config(serialize_config(cfg))
            assert again == cfg, path
            assert config_digest(again) == config_digest(cfg)

    def test_serialized_config_lists_only_what_the_run_reads(self):
        import pathlib

        for path in sorted(pathlib.Path("configs").glob("*.yaml")):
            cfg = load_config(str(path))
            listed = set(yaml.safe_load(serialize_config(cfg)))
            assert listed <= {"kind", "seed", "out", *KIND_FIELDS[cfg.kind]}, path
        solve = yaml.safe_load(serialize_config(ExperimentConfig(**SOLVE_FIELDS)))
        assert set(solve) == {"kind", "seed", "out", "horizon", "channel"}
        simulate = parse_config("kind: simulate\nchannel: {receivers: 2}\nepsilon_grid: [0.2]\n"
                                "policies: [optimal, variance]\npolicy: {sigma2: 4.0}\n")
        assert yaml.safe_load(serialize_config(simulate))["policy"] == {"sigma2": 4.0}
        learn = parse_config("kind: learn\nchannel: {receivers: 2, erasure: 0.2}\n"
                             "policy: {kind: learning}\n")
        assert yaml.safe_load(serialize_config(learn))["policy"] == {
            "kind": "learning", "delta": 0.05, "eps_init": 0.5,
        }

    def test_round_trip_with_flows_and_grid(self):
        cfg = ExperimentConfig(
            kind="region",
            seed=11,
            horizon=6,
            rho=0.05,
            grid=[0.1, 0.9],
            axis="arrival_rate",
            flows=[
                {"flow_id": 0, "channel": {"receivers": 3, "erasure": 0.4},
                 "arrival_rate": 2.0, "weight": 3.0},
                {"flow_id": 1, "channel": {"erasures": [0.2, 0.5]},
                 "arrival_rate": 1.0, "arrival_process": "poisson"},
            ],
        )
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert "null" not in text  # None-valued fields are dropped
        plain = yaml.safe_load(text)  # stays plain YAML types throughout
        assert isinstance(plain["flows"], list)

    def test_parse_rejects_malformed_documents(self):
        with pytest.raises(ConfigError, match="unknown config fields: bogus_field"):
            parse_config("kind: solve\nbogus_field: 1\n")
        with pytest.raises(ConfigError, match="kind is required"):
            parse_config("horizon: 5\n")
        with pytest.raises(ConfigError, match="empty"):
            parse_config("")
        with pytest.raises(ConfigError, match="must be a mapping"):
            parse_config("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config("kind: [unclosed\n")
        with pytest.raises(ConfigError, match="malformed config section"):
            parse_config("kind: solve\nchannel: {receivers: 5, erasure: 0.2, bogus: 1}\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "absent.yaml"))

    def test_digest_ignores_key_order(self):
        a = parse_config("kind: solve\nhorizon: 8\nseed: 3\nchannel: {receivers: 5, erasure: 0.2}\n")
        b = parse_config("channel: {erasure: 0.2, receivers: 5}\nseed: 3\nhorizon: 8\nkind: solve\n")
        assert a == b
        assert config_digest(a) == config_digest(b)
        c = parse_config("kind: solve\nhorizon: 9\nseed: 3\nchannel: {receivers: 5, erasure: 0.2}\n")
        assert config_digest(c) != config_digest(a)


# Inputs of the parse_config property test.
_JUNK = st.one_of(
    st.integers(-2, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text("abyz_", max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["receivers", "bogus"]), st.integers(0, 2), max_size=1),
)
_BAD_RATE = st.sampled_from([2.5, -0.5, math.nan, math.inf, -math.inf])
_KINDS = ["solve", "simulate", "learn", "multiflow", "region", "threshold"]


@st.composite
def _raw_config(draw):
    """A config mapping over the known fields. Half the examples are clean:
    in-range values, and the sections their kind requires. The rest also
    draw out-of-range values and unknown names, and in some sections one
    field is replaced by junk of any type. Ints stay small, because a loaded
    config builds its channels, one rate per receiver."""
    clean = draw(st.booleans())
    rate = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))
    if not clean:
        rate = st.one_of(rate, _BAD_RATE)

    def count(low, high):
        return st.integers(low if clean else low - 2, high)

    def pick(valid, invalid):
        return st.sampled_from(valid if clean else valid + invalid)

    def section(required, optional):
        optional = {k: v for k, v in optional.items() if k not in required}
        raw = draw(st.fixed_dictionaries(required, optional=optional))
        if raw and not clean and draw(st.integers(0, 2)) == 0:
            raw[draw(st.sampled_from(sorted(raw)))] = draw(_JUNK)
        return raw

    kind = draw(pick(_KINDS, ["orbit"]))

    def channel():
        fields = {"receivers": count(1, 6), "erasure": rate,
                  "erasures": st.lists(rate, min_size=1, max_size=3)}
        shapes = [("receivers", "erasure"), ("erasures",), ("receivers",)]
        if clean:  # the shape the kind needs: simulate gives receivers only
            shapes = shapes[2:] if kind == "simulate" else shapes[:2]
        shape = draw(st.sampled_from(shapes))
        return section({k: fields[k] for k in shape}, {} if clean else fields)

    def flow(flow_id):
        return section(
            {"flow_id": st.just(flow_id) if clean else st.integers(0, 2),
             "channel": st.just(channel()), "arrival_rate": rate},
            {"delivery_ratio": rate, "weight": st.floats(0.1, 5.0) if clean else rate,
             "arrival_process": pick(["bernoulli", "poisson"], ["burst"]),
             "arrival_batches": count(1, 12)},
        )

    policy = section({"kind": st.just("learning")} if kind == "learn" and clean else {}, {
        "kind": pick(["optimal", "variance", "learning"], ["mystery"]),
        "sigma2": st.floats(0.1, 100.0) if clean else rate,
        "delta": rate,
        "eps_init": rate,
    })
    n_flows = 2 if kind == "region" and clean else draw(st.integers(0, 2))
    optional = {
        "seed": st.integers(0 if clean else -1, 2**64),
        "out": st.just("runs/property"),
        "horizon": count(1, 12),
        "channel": st.just(channel()),
        "policy": st.just(policy),
        "policies": st.lists(pick(["optimal", "variance", "learning"], ["oracle"]), max_size=3),
        "epsilon_grid": st.lists(rate, min_size=1, max_size=3),
        "replications": count(1, 20),
        "frames": count(1, 20),
        "backlog": count(0, 12),
        "rho": st.floats(0.01, 2.0) if clean else rate,
        "intra": pick(["optimal", "retransmission"], ["hybrid"]),
        "flows": st.just([flow(i) for i in range(n_flows)]),
        "grid": st.lists(rate, min_size=1, max_size=3),
        "axis": pick(["delivery_ratio", "arrival_rate"], ["weight"]),
        "t_max": count(2, 40),
        "receivers_max": count(1, 20),
    }
    needs = {"solve": ["channel"], "learn": ["channel", "policy"],
             "simulate": ["channel", "epsilon_grid"], "region": ["flows", "grid"]}
    required = {"kind": st.just(kind)}
    if clean:  # only the fields the kind reads
        optional = {k: v for k, v in optional.items()
                    if k in ("seed", "out") + KIND_FIELDS[kind]}
        required.update({k: optional[k] for k in needs.get(kind, [])})
    return section(required, optional)


_INT_FIELDS = {"seed", "horizon", "replications", "frames", "backlog", "t_max",
               "receivers_max", "receivers", "flow_id", "arrival_batches"}
_NUMBER_FIELDS = {"rho", "erasure", "sigma2", "delta", "eps_init", "arrival_rate",
                  "delivery_ratio", "weight"}
_FLOAT_LIST_FIELDS = {"epsilon_grid", "grid", "erasures"}
_OPTIONAL_FIELDS = {"channel", "backlog", "receivers", "erasure", "erasures", "sigma2",
                    "arrival_batches"}


def _assert_typed(section):
    """Every field of a loaded section has its declared type and is finite."""
    for name, value in section.items():
        if value is None:
            assert name in _OPTIONAL_FIELDS, name
        elif name in ("channel", "policy"):
            _assert_typed(value)
        elif name in _INT_FIELDS:
            assert type(value) is int, (name, value)
        elif name in _NUMBER_FIELDS:
            assert type(value) in (int, float) and math.isfinite(value), (name, value)
        elif name in _FLOAT_LIST_FIELDS:
            assert all(type(v) is float and math.isfinite(v) for v in value), (name, value)
        elif name == "flows":
            for flow in value:
                _assert_typed(flow)
        elif name == "policies":
            assert all(type(v) is str for v in value), value
        else:
            assert type(value) is str, (name, value)


class TestParseConfigProperty:
    @settings(max_examples=150, deadline=None)
    @given(_raw_config())
    def test_rejects_or_round_trips(self, raw):
        try:
            cfg = parse_config(yaml.safe_dump(raw))
        except ConfigError:
            return
        assert parse_config(serialize_config(cfg)) == cfg
        assert isinstance(cfg.policies, tuple) and isinstance(cfg.flows, tuple)
        _assert_typed(asdict(cfg))


class TestCliSolve:
    def test_end_to_end(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path, out=str(tmp_path / "run"), **SOLVE_FIELDS)
        assert cli.main(["solve", "--config", str(path)]) == 0
        out = tmp_path / "run"

        lines = read_csv_lines(out / "solve.csv")
        assert lines[0] == "t,k_star,k_greedy,value"
        assert len(lines) == 1 + 9
        table = solve_monotone(8, ChannelModel.homogeneous(0.2, 5))
        got_k = [int(line.split(",")[1]) for line in lines[1:]]
        assert got_k == table.k_star.tolist()
        got_v = [float(line.split(",")[3]) for line in lines[1:]]
        assert got_v == table.value.tolist()  # repr round-trips exactly

        manifest = json.loads((out / "run_manifest.json").read_text())
        assert set(manifest) == {
            "command", "schema_version", "config_sha256", "seed",
            "package_version", "numpy_version", "python_version", "files",
        }
        assert manifest["command"] == "solve"
        assert manifest["schema_version"] == 1
        assert manifest["seed"] == 3
        assert manifest["files"] == ["solve.csv"]
        assert manifest["config_sha256"] == config_digest(cfg)
        assert parse_config((out / "config.yaml").read_text()) == cfg
        assert "ok" in capsys.readouterr().out

    def test_out_override_lands_in_manifest(self, tmp_path):
        path, cfg = write_config(tmp_path, out=str(tmp_path / "orig"), **SOLVE_FIELDS)
        override = tmp_path / "moved"
        assert cli.main(["solve", "--config", str(path), "--out", str(override)]) == 0
        assert not (tmp_path / "orig").exists()
        stored = parse_config((override / "config.yaml").read_text())
        assert stored.out == str(override)
        manifest = json.loads((override / "run_manifest.json").read_text())
        assert manifest["config_sha256"] == config_digest(stored)
        assert manifest["config_sha256"] != config_digest(cfg)

    def test_csv_cells_match_the_solved_table(self, tmp_path):
        path, _ = write_config(
            tmp_path, out=str(tmp_path / "run"), kind="solve", horizon=4,
            channel={"receivers": 1, "erasure": 0.5},
        )
        assert cli.main(["solve", "--config", str(path)]) == 0
        table = solve_monotone(4, ChannelModel.homogeneous(0.5, 1))
        lines = read_csv_lines(tmp_path / "run" / "solve.csv")
        assert lines[0] == "t,k_star,k_greedy,value"
        assert lines[1:] == [
            f"{t},{table.k_star[t]},{table.k_greedy[t]},{float(table.value[t])!r}"
            for t in range(5)
        ]

    def test_long_horizon_solve_passes_every_check(self, tmp_path, capsys):
        # (1 - e)**k falls below the smallest double long before k = 2000,
        # so this table is finite and under the ceiling only if the decode
        # terms never pass through that power
        path, _ = write_config(
            tmp_path, out=str(tmp_path / "run"), kind="solve", horizon=2000,
            channel={"receivers": 5, "erasure": 0.5},
        )
        assert cli.main(["solve", "--config", str(path)]) == 0
        checks = [line for line in capsys.readouterr().out.splitlines() if ": " in line]
        assert len(checks) == 5
        assert all(line.endswith(": ok") for line in checks)

    def test_violated_check_exits_3_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def above_the_ceiling(horizon, channel):
            table = solve_monotone(horizon, channel)
            value = table.value.copy()
            value[-1] = horizon  # a receiver hearing (1 - e) of the slots cannot get this
            return replace(table, value=value)

        monkeypatch.setattr(cli, "solve_monotone", above_the_ceiling)
        path, _ = write_config(tmp_path, out=str(tmp_path / "run"), **SOLVE_FIELDS)
        assert cli.main(["solve", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert "value <= (1 - max e) t: VIOLATED" in captured.out
        assert "invariant violation:" in captured.err
        assert not (tmp_path / "run" / "solve.csv").exists()
        assert not (tmp_path / "run").exists()

    def test_floating_point_fault_exits_3(self, tmp_path, monkeypatch, capsys):
        def overflowing(horizon, channel):
            with np.errstate(over="raise"):
                np.exp(np.array([1e3]))

        monkeypatch.setattr(cli, "solve_monotone", overflowing)
        path, _ = write_config(tmp_path, out=str(tmp_path / "run"), **SOLVE_FIELDS)
        assert cli.main(["solve", "--config", str(path)]) == 3
        assert "invariant violation: overflow" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestCliSimulate:
    FIELDS = dict(
        kind="simulate",
        seed=4242,
        horizon=5,
        channel={"receivers": 3},
        epsilon_grid=[0.3, 0.6],
        policies=["optimal", "retransmission", "variance"],
        policy={"sigma2": 30.0},
        replications=400,
    )

    def run(self, tmp_path, name, extra=()):
        path, cfg = write_config(
            tmp_path, name=f"{name}.yaml", out=str(tmp_path / name), **self.FIELDS
        )
        assert cli.main(["simulate", "--config", str(path), *extra]) == 0
        return (tmp_path / name / "simulate.csv").read_bytes()

    def test_schema_and_determinism(self, tmp_path):
        first = self.run(tmp_path, "a")
        lines = first.decode().strip().splitlines()
        assert lines[0] == "epsilon,policy,mean,stderr"
        assert len(lines) == 1 + 2 * 3
        kinds = [line.split(",")[1] for line in lines[1:]]
        assert kinds == ["optimal", "retransmission", "variance"] * 2
        means = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(0.0 <= m <= 5.0 for m in means)
        assert self.run(tmp_path, "b") == first

    def test_seed_override_changes_results(self, tmp_path):
        first = self.run(tmp_path, "a")
        shifted = self.run(tmp_path, "c", extra=["--seed", "999"])
        assert shifted != first
        manifest = json.loads((tmp_path / "c" / "run_manifest.json").read_text())
        assert manifest["seed"] == 999

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = self.run(tmp_path, "a")
        pooled = self.run(tmp_path, "d", extra=["--workers", "2"])
        assert pooled == serial

    # simulate.csv of two fixed runs, pinned by digest: a 10-slot frame takes
    # the pattern-table index and a 14-slot frame the general one, so a change
    # to the batch engine that moves one sample of either fails here
    @pytest.mark.parametrize(
        "horizon, digest",
        [
            (10, "657afaeafed4e36f503b154389c2a0d5942b2b6538e146904dd0c886f83faf8f"),
            (14, "c44a7c6f28ec3aba123213ef7e27642dbc4deb1a8a1ff2113d358cddf56bcdcd"),
        ],
    )
    def test_simulate_csv_is_pinned(self, tmp_path, horizon, digest):
        path, _ = write_config(
            tmp_path,
            kind="simulate",
            seed=2027,
            horizon=horizon,
            channel={"receivers": 5},
            epsilon_grid=[0.2, 0.5],
            policies=["optimal", "greedy", "conservative", "retransmission"],
            replications=2000,
            out=str(tmp_path / "run"),
        )
        assert cli.main(["simulate", "--config", str(path)]) == 0
        csv = (tmp_path / "run" / "simulate.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == digest


class TestCliLearn:
    def test_end_to_end(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            kind="learn",
            seed=7,
            horizon=6,
            frames=12,
            channel={"receivers": 4, "erasure": 0.3},
            policy={"kind": "learning", "delta": 0.05, "eps_init": 0.5},
            out=str(tmp_path / "run"),
        )
        assert cli.main(["learn", "--config", str(path)]) == 0
        out = tmp_path / "run"
        learn = read_csv_lines(out / "learn.csv")
        perfect = read_csv_lines(out / "learn_perfect.csv")
        assert learn[0] == perfect[0] == "frame,eps_hat,delivered"
        assert len(learn) == len(perfect) == 1 + 12
        assert [int(l.split(",")[0]) for l in learn[1:]] == list(range(12))
        assert all(0.0 <= float(l.split(",")[1]) <= 1.0 for l in learn[1:])
        # the perfect-information twin reports the true worst-case erasure
        assert {float(l.split(",")[1]) for l in perfect[1:]} == {0.3}
        stdout = capsys.readouterr().out
        assert "eps_hat final" in stdout and "perfect-info" in stdout

    def test_same_streams_for_both_runs(self, tmp_path):
        # lossless channel: learning and perfect-information deliver the same
        # packet count every frame because they ride identical channel draws
        path, _ = write_config(
            tmp_path,
            kind="learn",
            horizon=4,
            frames=6,
            channel={"receivers": 2, "erasure": 0.0},
            policy={"kind": "learning", "eps_init": 0.0, "delta": 0.05},
            out=str(tmp_path / "run"),
        )
        assert cli.main(["learn", "--config", str(path)]) == 0
        learn = read_csv_lines(tmp_path / "run" / "learn.csv")
        perfect = read_csv_lines(tmp_path / "run" / "learn_perfect.csv")
        deliv = lambda lines: [int(l.split(",")[2]) for l in lines[1:]]
        assert deliv(learn) == deliv(perfect) == [4] * 6

    def test_perfect_frames_replay_through_the_frame_engine(self, tmp_path):
        # frame k of the perfect-information run is the optimal plan on
        # stream k, the stream the learning run's frame k transmits on
        channel = {"erasures": [0.2, 0.4, 0.5]}
        path, cfg = write_config(
            tmp_path, kind="learn", seed=31, horizon=7, backlog=5, frames=40,
            channel=channel, policy={"kind": "learning"}, out=str(tmp_path / "run"),
        )
        assert cli.main(["learn", "--config", str(path)]) == 0
        perfect = read_csv_lines(tmp_path / "run" / "learn_perfect.csv")
        ch = cfg.channel.to_model()
        policy = OptimalPolicy(solve_monotone(7, ch))
        replayed = [
            simulate_frame(policy, 7, 5, ch, RngSpec(31, k)).delivered for k in range(40)
        ]
        assert [int(l.split(",")[2]) for l in perfect[1:]] == replayed


class TestCliMultiflow:
    FLOWS = [
        {"flow_id": i, "channel": {"receivers": 5, "erasure": 0.3},
         "arrival_rate": 2.0, "delivery_ratio": 0.4}
        for i in range(2)
    ]

    def test_end_to_end(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, kind="multiflow", seed=103, horizon=10, frames=50,
            flows=self.FLOWS, out=str(tmp_path / "run"),
        )
        assert cli.main(["multiflow", "--config", str(path)]) == 0
        lines = read_csv_lines(tmp_path / "run" / "multiflow.csv")
        assert lines[0] == "frame,flow,s_star,arrivals,delivered,nu_hat"
        assert len(lines) == 1 + 50 * 2
        stdout = capsys.readouterr().out
        assert "delivery ratio" in stdout and "weighted throughput" in stdout

    def test_csv_rows_match_the_online_trace(self, tmp_path):
        path, cfg = write_config(
            tmp_path, kind="multiflow", seed=50, horizon=10, frames=20,
            flows=self.FLOWS, out=str(tmp_path / "run"),
        )
        assert cli.main(["multiflow", "--config", str(path)]) == 0
        trace = run_online([f.to_spec() for f in cfg.flows], 20, 10, cfg.rho, RngSpec(50, 0))
        assert trace.nu_hat.any()
        lines = read_csv_lines(tmp_path / "run" / "multiflow.csv")
        assert lines[0] == "frame,flow,s_star,arrivals,delivered,nu_hat"
        assert lines[1:] == [
            f"{k},{fid},{trace.s_star[k, i]},{trace.arrivals[k, i]},"
            f"{trace.delivered[k, i]},{float(trace.nu_hat[k, i])!r}"
            for k in range(20)
            for i, fid in enumerate(trace.flow_ids)
        ]

    @pytest.mark.parametrize("kind", ["multiflow", "region"])
    def test_a_rho_at_which_weights_overflow_exits_2(self, tmp_path, capsys, kind):
        # rho > 0 holds, but weight / rho is inf and its product with a
        # curve's 0 NaN; the allocator's own check runs at load
        extra = {"grid": [0.3]} if kind == "region" else {}
        text = yaml.safe_dump({
            "kind": kind, "rho": 1.0e-310, "flows": self.FLOWS, "frames": 5,
            "out": str(tmp_path / "run"), **extra,
        })
        path = tmp_path / "tiny_rho.yaml"
        path.write_text(text, encoding="utf-8")
        assert cli.main([kind, "--config", str(path)]) == 2
        assert "rho 1e-310 is too small" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_zero_flows_writes_header_only(self, tmp_path):
        path, _ = write_config(
            tmp_path, kind="multiflow", flows=[], out=str(tmp_path / "run")
        )
        assert cli.main(["multiflow", "--config", str(path)]) == 0
        lines = read_csv_lines(tmp_path / "run" / "multiflow.csv")
        assert lines == ["frame,flow,s_star,arrivals,delivered,nu_hat"]


class TestCliRegion:
    FIELDS = dict(
        kind="region",
        seed=52,
        horizon=10,
        frames=120,
        grid=[0.01, 0.98],
        flows=[
            {"flow_id": i, "channel": {"receivers": 5, "erasure": 0.3},
             "arrival_rate": 3.0, "delivery_ratio": 0.8}
            for i in range(2)
        ],
    )

    def run(self, tmp_path, name, extra=()):
        path, _ = write_config(
            tmp_path, name=f"{name}.yaml", out=str(tmp_path / name), **self.FIELDS
        )
        assert cli.main(["region", "--config", str(path), *extra]) == 0
        return (tmp_path / name / "region.csv").read_bytes()

    def test_schema_and_worker_determinism(self, tmp_path, capsys):
        serial = self.run(tmp_path, "a")
        lines = serial.decode().strip().splitlines()
        assert lines[0] == "grid_x,grid_y,stable_nc,stable_retx"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            x, y, nc, rx = line.split(",")
            assert float(x) in (0.01, 0.98) and float(y) in (0.01, 0.98)
            assert nc in ("0", "1") and rx in ("0", "1")
        assert "stable cells" in capsys.readouterr().out
        assert self.run(tmp_path, "b", extra=["--workers", "2"]) == serial

    def test_csv_rows_match_the_sweep(self, tmp_path):
        path, cfg = write_config(
            tmp_path, out=str(tmp_path / "run"), **{**self.FIELDS, "frames": 50}
        )
        assert cli.main(["region", "--config", str(path)]) == 0
        m = rate_region_sweep(
            [f.to_spec() for f in cfg.flows], cfg.grid, 10, cfg.rho, 50, RngSpec(52, 0)
        )
        lines = read_csv_lines(tmp_path / "run" / "region.csv")
        assert lines[0] == "grid_x,grid_y,stable_nc,stable_retx"
        assert lines[1:] == [
            f"{x!r},{y!r},{int(m.stable_nc[ix, iy])},{int(m.stable_retx[ix, iy])}"
            for ix, x in enumerate(cfg.grid)
            for iy, y in enumerate(cfg.grid)
        ]


class TestCliThreshold:
    def test_end_to_end(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, kind="threshold", t_max=6, receivers_max=3, out=str(tmp_path / "run")
        )
        assert cli.main(["threshold", "--config", str(path)]) == 0
        lines = read_csv_lines(tmp_path / "run" / "threshold.csv")
        assert lines[0] == "t,receivers,eps_star"
        assert len(lines) == 1 + 5 * 3  # t in 2..6, receivers in 1..3
        for line in lines[1:]:
            t, n, eps = line.split(",")
            assert 2 <= int(t) <= 6 and 1 <= int(n) <= 3
            assert 0.0 < float(eps) < 1.0
        assert "t=1 rows skipped" in capsys.readouterr().out

    def test_broken_threshold_trips_invariant_exit(self, tmp_path, monkeypatch, capsys):
        # a constant threshold cannot be monotone in both arguments, so the
        # command must refuse to write results and exit 3
        monkeypatch.setattr(cli, "retransmission_threshold", lambda t, n: 0.5)
        path, _ = write_config(
            tmp_path, kind="threshold", t_max=6, receivers_max=3, out=str(tmp_path / "run")
        )
        assert cli.main(["threshold", "--config", str(path)]) == 3
        assert not (tmp_path / "run" / "threshold.csv").exists()
        assert "invariant violation" in capsys.readouterr().err


class TestCliErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["solve", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("kind: [unclosed\n", encoding="utf-8")
        assert cli.main(["solve", "--config", str(path)]) == 2
        assert "not valid YAML" in capsys.readouterr().err

    def test_unknown_field(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("kind: solve\nbogus_field: 1\n", encoding="utf-8")
        assert cli.main(["solve", "--config", str(path)]) == 2
        assert "unknown config fields: bogus_field" in capsys.readouterr().err

    def test_kind_subcommand_mismatch(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, out=str(tmp_path / "run"), **SOLVE_FIELDS)
        assert cli.main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "does not match subcommand" in err

    def test_missing_required_section(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("kind: solve\nchannel: {receivers: 5}\n", encoding="utf-8")
        assert cli.main(["solve", "--config", str(path)]) == 2
        assert "channel.erasure" in capsys.readouterr().err

    def test_bad_arrival_setting_fails_before_the_output_directory(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "kind: multiflow\nhorizon: 10\nframes: 5\n"
            f"out: {tmp_path / 'run'}\n"
            "flows:\n"
            "  - {flow_id: 0, arrival_rate: 12.0, channel: {erasure: 0.3, receivers: 2}}\n",
            encoding="utf-8",
        )
        assert cli.main(["multiflow", "--config", str(path)]) == 2
        assert "exceeds 10 Bernoulli batches" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n", encoding="utf-8")
        path, _ = write_config(tmp_path, out=str(tmp_path / "run"), **SOLVE_FIELDS)
        assert cli.main(["solve", "--config", str(path), "--out", str(blocker / "x")]) == 2
        assert "config error: cannot write output" in capsys.readouterr().err
        assert blocker.read_text(encoding="utf-8") == "kept\n"
        assert not (tmp_path / "run").exists()

    def test_nonpositive_workers(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, out=str(tmp_path / "run"), **SOLVE_FIELDS)
        assert cli.main(["solve", "--config", str(path), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_workers_on_a_command_without_a_pool(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, out=str(tmp_path / "run"), **SOLVE_FIELDS)
        assert cli.main(["solve", "--config", str(path), "--workers", "2"]) == 2
        assert "solve does not read --workers" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert cli.main(["solve", "--config", str(path), "--workers", "1"]) == 0

    def test_argparse_requires_subcommand_and_config(self):
        with pytest.raises(SystemExit):
            cli.main([])
        with pytest.raises(SystemExit):
            cli.main(["solve"])


class TestCliFailureWritesNothing:
    RUNS = [
        ("solve", "solve_monotone", SOLVE_FIELDS),
        ("simulate", "monte_carlo_throughput", TestCliSimulate.FIELDS),
        ("learn", "learning_run", dict(
            kind="learn", horizon=6, frames=12, channel={"receivers": 4, "erasure": 0.3},
            policy={"kind": "learning"},
        )),
        ("multiflow", "run_online", dict(kind="multiflow", frames=50, flows=TestCliMultiflow.FLOWS)),
        ("region", "rate_region_sweep", TestCliRegion.FIELDS),
        ("threshold", "retransmission_threshold", dict(kind="threshold", t_max=6, receivers_max=3)),
    ]

    @pytest.mark.parametrize("command, call, fields", RUNS, ids=[r[0] for r in RUNS])
    def test_exits_3_without_an_output_directory(
        self, tmp_path, monkeypatch, capsys, command, call, fields
    ):
        def broken(*args, **kwargs):
            raise InvariantViolation(f"{call} failed")

        monkeypatch.setattr(cli, call, broken)
        path, _ = write_config(tmp_path, out=str(tmp_path / "run"), **fields)
        assert cli.main([command, "--config", str(path)]) == 3
        assert f"invariant violation: {call} failed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, call, fields", RUNS[1:], ids=[r[0] for r in RUNS[1:]])
    def test_floating_point_fault_exits_3_without_an_output_directory(
        self, tmp_path, monkeypatch, capsys, command, call, fields
    ):
        # every command runs under np.errstate(..="raise"), not only the solver
        real = getattr(cli, call)

        def dividing_by_zero(*args, **kwargs):
            np.log(np.zeros(1))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, call, dividing_by_zero)
        path, _ = write_config(tmp_path, out=str(tmp_path / "run"), **fields)
        assert cli.main([command, "--config", str(path)]) == 3
        assert "invariant violation: divide by zero" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
