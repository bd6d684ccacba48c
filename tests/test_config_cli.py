"""Config parsing/round-trip tests and end-to-end CLI runs into temp dirs:
exit codes, CSV schemas, manifest contents, determinism across seeds and
worker counts."""

import json
from dataclasses import replace

import numpy as np
import pytest
import yaml

from adaptnc import (
    ChannelConfig,
    ChannelModel,
    ConfigError,
    ExperimentConfig,
    FlowConfig,
    PolicyConfig,
    config_digest,
    load_config,
    parse_config,
    serialize_config,
    solve_monotone,
)
from adaptnc import cli


def read_csv_lines(path):
    return path.read_text(encoding="utf-8").strip().splitlines()


def write_config(tmp_path, name="config.yaml", **fields):
    cfg = ExperimentConfig(**fields)
    path = tmp_path / name
    path.write_text(serialize_config(cfg), encoding="utf-8")
    return path, cfg


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
        with pytest.raises(ConfigError, match="lie in"):
            ChannelConfig(receivers=2, erasure=1.5)
        with pytest.raises(ConfigError, match="must not be empty"):
            ChannelConfig(erasures=[])
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


class TestParseAndSerialize:
    def test_round_trip_of_shipped_configs(self):
        import pathlib

        shipped = sorted(pathlib.Path("configs").glob("*.yaml"))
        assert len(shipped) == 6
        for path in shipped:
            cfg = load_config(str(path))
            again = parse_config(serialize_config(cfg))
            assert again == cfg, path
            assert config_digest(again) == config_digest(cfg)

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
        policy={"kind": "variance", "sigma2": 30.0},
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

    def test_nonpositive_workers(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, out=str(tmp_path / "run"), **SOLVE_FIELDS)
        assert cli.main(["solve", "--config", str(path), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_argparse_requires_subcommand_and_config(self):
        with pytest.raises(SystemExit):
            cli.main([])
        with pytest.raises(SystemExit):
            cli.main(["solve"])
