"""Command-line front-end for solving, simulating, and sweeping experiments.

Every command reads one YAML config (plus optional --seed/--out overrides),
writes plain CSV files and a run manifest into the output directory, and is
deterministic given (config, seed). Exit codes: 0 success, 2 bad
configuration or an output path that cannot be written, 3 a runtime
invariant check failed or the command hit a floating-point overflow,
division by zero or invalid value (a bug signal, never silenced): every
command runs under np.errstate(over, divide, invalid = "raise").
Each command computes and checks its whole result before anything is
written: a run that exits 3, or 2 on a bad config, writes nothing, and so
does one whose output directory cannot be made.

CSV schemas (schema version 1):
  solve.csv      t, k_star, k_greedy, value
  simulate.csv   epsilon, policy, mean, stderr
  learn.csv / learn_perfect.csv   frame, eps_hat, delivered
  multiflow.csv  frame, flow, s_star, arrivals, delivered, nu_hat
  region.csv     grid_x, grid_y, stable_nc, stable_retx
  threshold.csv  t, receivers, eps_star
"""

import argparse
import csv
import json
import sys
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelModel
from .config import ExperimentConfig, config_digest, load_config, serialize_config
from .errors import ConfigError, InvariantViolation
from .multiflow import rate_region_sweep, run_online
from .policies import LearningPolicy, OptimalPolicy, make_policy
from .rng import RngSpec
from .simulate import learning_run, map_cells, monte_carlo_throughput
from .solver import retransmission_threshold, solve_monotone

SCHEMA_VERSION = 1


def _write_outputs(config: ExperimentConfig, files: dict, lines: list):
    """Write a finished run: each CSV, the manifest and the resolved config
    into the output directory, then print the command's summary lines."""
    out = Path(config.out)
    manifest = {
        "command": config.kind,
        "schema_version": SCHEMA_VERSION,
        "config_sha256": config_digest(config),
        "seed": config.seed,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "files": sorted(files),
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in files.items():
            with open(out / name, "w", newline="", encoding="utf-8") as fp:
                writer = csv.writer(fp)
                writer.writerow(header)
                writer.writerows(rows)
        with open(out / "run_manifest.json", "w", encoding="utf-8") as fp:
            json.dump(manifest, fp, indent=2, sort_keys=True)
            fp.write("\n")
        with open(out / "config.yaml", "w", encoding="utf-8") as fp:
            fp.write(serialize_config(config))
    except OSError as exc:
        raise ConfigError(f"cannot write output to {out}: {exc}") from exc
    for line in lines:
        print(line)


# Each command computes and checks its whole result, then returns its files,
# {name: (header, rows)}, and the summary lines printed after they are
# written. Cells are Python scalars, so csv writes every float as its repr.
# Only the sweep commands in _POOLED take a worker count.


def cmd_solve(config: ExperimentConfig) -> tuple[dict, list]:
    channel = config.channel.to_model()
    table = solve_monotone(config.horizon, channel)
    k = table.k_star
    t = np.arange(config.horizon + 1)
    checks = {
        "k_star non-decreasing": bool((np.diff(k) >= 0).all()),
        "k_star <= k_greedy": bool((k[1:] <= table.k_greedy[1:]).all()),
        "value all finite": bool(np.isfinite(table.value).all()),
        "value within [0, t]": bool(
            (table.value >= -1e-12).all() and (table.value <= t + 1e-9).all()
        ),
        # every delivered packet must reach the worst receiver, which hears
        # (1 - max e) of the slots on average
        "value <= (1 - max e) t": bool(
            (table.value <= (1.0 - channel.worst_erasure()) * t + 1e-9).all()
        ),
    }
    for name, ok in checks.items():
        print(f"{name}: {'ok' if ok else 'VIOLATED'}")
    if not all(checks.values()):
        raise InvariantViolation("solved table violates a structural property")
    rows = zip(t.tolist(), k.tolist(), table.k_greedy.tolist(), table.value.tolist())
    path = Path(config.out) / "solve.csv"
    return (
        {"solve.csv": (("t", "k_star", "k_greedy", "value"), rows)},
        [f"solved horizon {config.horizon} for {channel.n_receivers} receivers -> {path}"],
    )


def _simulate_cell(config: ExperimentConfig, i: int, j: int) -> tuple:
    """Row of the simulate sweep for epsilon i and policy j of the config;
    module-level so worker pools can pickle it."""
    eps, kind = config.epsilon_grid[i], config.policies[j]
    channel = ChannelModel.homogeneous(eps, config.channel.n_receivers)
    policy = make_policy(
        kind, channel, config.horizon, sigma2=config.policy.sigma2,
        delta=config.policy.delta, eps_init=config.policy.eps_init,
    )
    backlog = config.backlog if config.backlog is not None else config.horizon
    stream = (i * len(config.policies) + j) << 32
    summary = monte_carlo_throughput(
        policy, config.horizon, backlog, channel, config.replications,
        RngSpec(config.seed, stream),
    )
    return eps, kind, summary.mean, summary.stderr


def cmd_simulate(config: ExperimentConfig, workers: int = 1) -> tuple[dict, list]:
    cells = product(range(len(config.epsilon_grid)), range(len(config.policies)))
    rows = map_cells(partial(_simulate_cell, config), cells, workers)
    return (
        {"simulate.csv": (("epsilon", "policy", "mean", "stderr"), rows)},
        [f"simulated {len(rows)} (epsilon, policy) cells x {config.replications} replications"],
    )


def cmd_learn(config: ExperimentConfig) -> tuple[dict, list]:
    channel = config.channel.to_model()
    backlog = config.backlog if config.backlog is not None else config.horizon
    policy = LearningPolicy(
        n_receivers=channel.n_receivers,
        horizon=config.horizon,
        delta=config.policy.delta,
        eps_init=config.policy.eps_init,
    )
    records = learning_run(
        policy, config.frames, config.horizon, channel, RngSpec(config.seed, 0), backlog
    )
    # the perfect-information companion: replication k rides frame k's stream
    perfect = monte_carlo_throughput(
        OptimalPolicy(solve_monotone(config.horizon, channel)), config.horizon, backlog,
        channel, config.frames, RngSpec(config.seed, 0), keep_samples=True,
    ).samples.tolist()

    half = config.frames // 2
    mean_learn = float(np.mean([r["delivered"] for r in records[half:]]))
    mean_perfect = float(np.mean(perfect[half:]))
    header = ("frame", "eps_hat", "delivered")
    # the perfect-information run reports the true worst-case erasure rate
    eps = channel.worst_erasure()
    return (
        {
            "learn.csv": (header, ((r["frame"], r["eps_hat"], r["delivered"]) for r in records)),
            "learn_perfect.csv": (
                header, ((k, eps, delivered) for k, delivered in enumerate(perfect))
            ),
        },
        [
            f"eps_hat final: {records[-1]['eps_hat']:.4f}",
            f"late-run throughput: learning {mean_learn:.4f}, perfect-info {mean_perfect:.4f}",
        ],
    )


def cmd_multiflow(config: ExperimentConfig) -> tuple[dict, list]:
    trace = run_online(
        [f.to_spec() for f in config.flows], config.frames, config.horizon, config.rho,
        RngSpec(config.seed, 0), intra=config.intra,
    )
    # one frame's cells at a time, so the trace is not held twice
    rows = (
        (k, *cells)
        for k, frame in enumerate(zip(trace.s_star, trace.arrivals, trace.delivered, trace.nu_hat))
        for cells in zip(trace.flow_ids, *(a.tolist() for a in frame))
    )
    ratios = trace.delivery_ratio()
    slopes = trace.deficit_slopes()
    lines = [
        f"flow {fid}: delivery ratio {ratios[i]:.4f}, deficit slope {slopes[i]:+.6f}/frame"
        for i, fid in enumerate(trace.flow_ids)
    ]
    lines.append(f"weighted throughput: {trace.weighted_throughput():.4f} "
                 f"(schedule value {trace.schedule_weighted_throughput():.4f})")
    header = ("frame", "flow", "s_star", "arrivals", "delivered", "nu_hat")
    return {"multiflow.csv": (header, rows)}, lines


def cmd_region(config: ExperimentConfig, workers: int = 1) -> tuple[dict, list]:
    region = rate_region_sweep(
        [f.to_spec() for f in config.flows], config.grid, config.horizon, config.rho,
        config.frames, RngSpec(config.seed, 0), axis=config.axis, workers=workers,
    )
    nc, rx = region.stable_nc.astype(int).tolist(), region.stable_retx.astype(int).tolist()
    grid = region.grid.tolist()
    rows = (
        (x, y, nc[ix][iy], rx[ix][iy]) for ix, x in enumerate(grid) for iy, y in enumerate(grid)
    )
    size = region.stable_nc.size
    return (
        {"region.csv": (("grid_x", "grid_y", "stable_nc", "stable_retx"), rows)},
        [f"stable cells: coded {region.stable_nc.sum()}/{size}, "
         f"retransmission {region.stable_retx.sum()}/{size}"],
    )


def cmd_threshold(config: ExperimentConfig) -> tuple[dict, list]:
    ts, ns = range(2, config.t_max + 1), range(1, config.receivers_max + 1)
    eps = np.array([[retransmission_threshold(t, n) for n in ns] for t in ts])  # [t, n]
    if not (np.diff(eps, axis=0) > 0).all():
        raise InvariantViolation("threshold failed to increase with the horizon")
    if not (np.diff(eps, axis=1) < 0).all():
        raise InvariantViolation("threshold failed to decrease with the receiver count")
    rows = [(t, n, e) for t, row in zip(ts, eps.tolist()) for n, e in zip(ns, row)]
    return (
        {"threshold.csv": (("t", "receivers", "eps_star"), rows)},
        [
            "t=1 rows skipped: a single slot fits only one packet, no threshold exists",
            f"tabulated {len(rows)} thresholds (t in 2..{config.t_max}, "
            f"receivers in 1..{config.receivers_max})",
        ],
    )


_COMMANDS = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "learn": cmd_learn,
    "multiflow": cmd_multiflow,
    "region": cmd_region,
    "threshold": cmd_threshold,
}
_POOLED = ("simulate", "region")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptnc",
        description="Deadline-aware network-coded broadcast: solver, simulator, schedulers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment from a config file")
        p.add_argument("--config", required=True, help="path to a YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--workers", type=int, default=1, help="parallel workers for sweeps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if config.kind != args.command:
            raise ConfigError(
                f"config kind {config.kind!r} does not match subcommand {args.command!r}"
            )
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["out"] = args.out
        if overrides:
            from dataclasses import replace
            config = replace(config, **overrides)
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        if args.command not in _POOLED and args.workers != 1:
            raise ConfigError(f"{args.command} does not read --workers: leave it out")
        pooled = {"workers": args.workers} if args.command in _POOLED else {}
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            files, lines = _COMMANDS[args.command](config, **pooled)
        _write_outputs(config, files, lines)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, FloatingPointError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
