"""The benchmark's workloads: seeded inputs, the operations run on them, and
the checks of each operation's output against the oracle.

A workload is a fixed list of operations split into three parts:
``short`` (small instances), ``long`` (large instances) and ``side`` (the
third kind of work the workload's users wait on). Every operation calls
adaptnc through ``pkg``, the package as imported for the current round, and
looks functions up at call time so that the tracer's wrappers are seen.
"""

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# Monte-Carlo means must lie within Z standard errors of the exact value.
Z = 5.0
PARTS = ("short", "long", "side")


@dataclass
class Op:
    name: str
    part: str
    units: float  # work done, in the part's unit (states, replications, frames, builds)
    run: Callable[[], object]
    check: Callable[[object], list]  # problems found; empty when the output is right
    digest: Callable[[object], bytes]  # compared across rounds of one run
    known_fault: bool = False


class Inputs:
    """Seeded draws for one workload; the same seed gives the same inputs."""

    def __init__(self, seed: int):
        self.rnd = random.Random(seed)

    def erasure(self, centre: float) -> float:
        """``centre`` moved by at most 0.01, so that every seed does about the
        same amount of work."""
        return round(centre + self.rnd.uniform(-0.01, 0.01), 6)

    def program_seed(self) -> int:
        return self.rnd.randrange(2**32)

    def sample(self, population, k: int) -> list:
        population = list(population)
        return sorted(self.rnd.sample(population, min(k, len(population))))


def _close(a, b, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def run_cli(pkg, argv: list):
    """adaptnc.cli.main with its console output captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


def write_config(path: Path, config: dict) -> str:
    """A config file adaptnc reads; JSON is a subset of YAML."""
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return str(path)


def read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fp:
        return list(csv.reader(fp))


def _file_digest(*paths) -> Callable:
    def digest(result):
        return repr(result[0]).encode() + b"".join(Path(p).read_bytes() for p in paths)
    return digest


# --------------------------------------------------------------------- plan

def check_table(pkg, table, horizon: int, erasures, bound, columns) -> list:
    """Oracle and physical checks of a solved plan table.

    ``bound(t)`` is the largest block size the solve may choose at state t.
    ``columns`` are the slot counts t at which every decode probability of
    the solve's DecodingTable is compared with the log-space oracle.
    """
    problems = []
    value, k_star, k_greedy = table.value, table.k_star, table.k_greedy
    if value.shape != (horizon + 1,) or k_star.shape != (horizon + 1,):
        return [f"table shape {value.shape} for horizon {horizon}"]
    if not np.isfinite(value).all():
        return ["value is not finite"]
    t = np.arange(horizon + 1)
    ceiling = (1.0 - max(erasures)) * t
    if (value < -1e-12).any() or (value > ceiling + 1e-9 * (1 + t)).any():
        worst = int(np.argmax(value - ceiling))
        problems.append(
            f"value[{worst}] = {value[worst]:.6g} outside [0, (1 - max e) t = {ceiling[worst]:.6g}]"
        )
    if (np.diff(value) < -1e-9).any():
        problems.append("value decreases with the slots left")
    if (np.diff(k_star) < 0).any():
        problems.append("k_star is not monotone")
    bounds = np.array([0] + [bound(s) for s in range(1, horizon + 1)])
    if (k_star[1:] > k_greedy[1:]).any():
        problems.append("k_star exceeds k_greedy")
    if (k_star[1:] < 1).any() or (k_star[1:] > bounds[1:]).any():
        problems.append("k_star outside [1, bound]")
    if problems:
        return problems

    evaluated = oracle.policy_value(k_star, horizon, erasures)
    gap = np.abs(evaluated - value)
    if (gap > 1e-9 * (1.0 + np.abs(evaluated))).any():
        problems.append(f"value differs from exact evaluation of k_star by {gap.max():.3g}")

    values = pkg.DecodingTable(pkg.ChannelModel(tuple(erasures)), horizon).values
    for s in columns:
        ref = oracle.decode_column(s, erasures)
        err = np.abs(values[: s + 1, s] - ref)
        if not (err <= 1e-9).all():
            problems.append(f"decode probability at t = {s} off by {np.nanmax(err):.3g}")
            break
        if s == 0:
            continue
        rewards = np.arange(s + 1) * ref
        top = rewards[1 : bound(s) + 1].max()
        if rewards[k_greedy[s]] < top - 1e-9 * (1.0 + top):
            problems.append(f"k_greedy[{s}] does not maximize the single-shot reward")
            break
    if horizon <= 300:
        shortfall = oracle.bellman_shortfall(value, horizon, erasures, bound)
        if shortfall > 1e-9 * (1.0 + value.max()):
            problems.append(f"a block size beats the plan by {shortfall:.3g}")
    return problems


def _table_digest(table) -> bytes:
    return table.k_star.tobytes() + table.k_greedy.tobytes() + table.value.tobytes()


def _columns(inputs: Inputs, horizon: int) -> list:
    if horizon <= 300:
        return list(range(horizon + 1))
    return inputs.sample(range(1, horizon), 15) + [horizon]


def _uncapped(t: int) -> int:
    return t


def solve_op(pkg, inputs, part, horizon, erasures, cap=None, known_fault=False, units=None) -> Op:
    erasures = tuple(erasures)
    columns = _columns(inputs, horizon)
    if cap is None:
        bound = _uncapped
    else:
        caps = np.broadcast_to(np.asarray(cap), (horizon + 1,))
        def bound(t):
            return max(1, min(t, int(caps[t])))
    label = "x".join(f"{e:g}" for e in sorted(set(erasures)))
    return Op(
        name=f"solve T={horizon} n={len(erasures)} e={label}" + ("" if cap is None else " capped"),
        part=part,
        units=horizon if units is None else units,
        run=lambda: pkg.solve_monotone(horizon, pkg.ChannelModel(erasures), k_cap=cap),
        check=lambda table: check_table(pkg, table, horizon, erasures, bound, columns),
        digest=_table_digest,
        known_fault=known_fault,
    )


def check_conservative(policy, horizon, erasures) -> list:
    vec = policy.decision_vector(horizon)
    means = [0.0] + [oracle.completion_moments(k, erasures)[0] for k in range(1, horizon + 2)]
    for t in range(1, horizon + 1):
        k = int(vec[t])
        if not 1 <= k <= t:
            return [f"conservative block {k} outside [1, {t}]"]
        if means[k] > t + 1e-6 and k > 1:
            return [f"conservative block {k} at t = {t} has mean completion {means[k]:.6g}"]
        if k < t and means[k + 1] <= t - 1e-6:
            return [f"conservative block at t = {t} could be {k + 1}"]
    return []


def check_variance(pkg, policy, horizon, erasures, sigma2, columns) -> list:
    cap = policy.k_cap
    if not 0 <= cap <= horizon:
        return [f"variance cap {cap} outside [0, {horizon}]"]
    if cap >= 1 and not oracle.completion_moments(cap, erasures)[1] < sigma2 * (1 + 1e-9):
        return [f"block {cap} breaks the second-moment budget {sigma2}"]
    if cap < horizon and oracle.completion_moments(cap + 1, erasures)[1] < sigma2 * (1 - 1e-9):
        return [f"variance cap could be {cap + 1}"]
    limit = max(1, cap)
    return check_table(pkg, policy.table, horizon, erasures,
                       lambda t: max(1, min(t, limit)), columns)


def check_thresholds(rows) -> list:
    eps = np.array(rows)  # [t - 2, n - 1]
    if not ((eps > 0) & (eps < 1)).all():
        return ["threshold outside (0, 1)"]
    if not (np.diff(eps, axis=0) > 0).all():
        return ["threshold does not increase with the horizon"]
    if not (np.diff(eps, axis=1) < 0).all():
        return ["threshold does not decrease with the receiver count"]
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            t, n = i + 2, j + 1
            below, above = oracle.threshold_gap(e - 1e-7, t, n), oracle.threshold_gap(e + 1e-7, t, n)
            if not below < 0 < above:
                return [f"threshold {e} at t = {t}, n = {n} is not where one packet starts to win"]
    return []


def plan(pkg, seed: int, workdir: Path) -> list:
    """solve_monotone over a horizon ladder, capped solves, policy builds and
    the retransmission threshold table; deterministic, no randomness."""
    inputs = Inputs(seed)
    e = inputs.erasure
    ops = []
    # (part, horizon, [(receivers, erasure centre)]): erasure rates 0.1 to 0.8
    # for 1, 5 and 20 receivers. Large single-receiver horizons are few, as one
    # T = 2000 single-receiver solve takes 5 to 10 s; at T = 2000 the seeded
    # rates stay below 0.35, under the ~0.42 where the decode table overflows.
    ladder = [
        ("short", 30, [(1, 0.1), (1, 0.5), (5, 0.3), (5, 0.7), (20, 0.2), (20, 0.8)]),
        ("short", 100, [(1, 0.2), (1, 0.6), (5, 0.4), (5, 0.8), (20, 0.1), (20, 0.5)]),
        ("short", 300, [(1, 0.3), (1, 0.7), (5, 0.1), (5, 0.5), (20, 0.4), (20, 0.8)]),
        ("long", 1000, [(1, 0.75), (5, 0.4), (20, 0.55)]),
        ("long", 2000, [(5, 0.12), (20, 0.3)]),
    ]
    for part, horizon, channels in ladder:
        for n, centre in channels:
            ops.append(solve_op(pkg, inputs, part, horizon, (e(centre),) * n))
    ops.append(solve_op(pkg, inputs, "short", 300, [e(c) for c in (0.1, 0.2, 0.3, 0.4, 0.5)]))
    # Known fault: at T = 2000 and e = 0.5 the decode table underflows and
    # overflows, and the plan's value exceeds the (1 - e) t ceiling. These
    # inputs do not depend on the seed, so every run fails them alike.
    for n in (5, 20):
        ops.append(solve_op(pkg, inputs, "long", 2000, (0.5,) * n, known_fault=True))

    ops.append(solve_op(pkg, inputs, "side", 300, (e(0.35),) * 5, cap=12, units=1))
    caps = 1 + np.arange(301) // 8
    ops.append(solve_op(pkg, inputs, "side", 300, (e(0.25),) * 20, cap=caps, units=1))

    for horizon, n, centre in ((30, 10, 0.3), (50, 5, 0.4)):
        erasures = (e(centre),) * n
        ops.append(Op(
            name=f"conservative T={horizon} n={n}", part="side", units=1,
            run=lambda h=horizon, er=erasures: pkg.ConservativePolicy(pkg.ChannelModel(er), h),
            check=lambda pol, h=horizon, er=erasures: check_conservative(pol, h, er),
            digest=lambda pol, h=horizon: pol.decision_vector(h).tobytes(),
        ))
    for horizon, n, centre, sigma2 in ((30, 10, 0.2, 150.0), (100, 5, 0.4, 1000.0)):
        erasures = (e(centre),) * n
        columns = _columns(inputs, horizon)
        ops.append(Op(
            name=f"variance T={horizon} n={n}", part="side", units=1,
            run=lambda h=horizon, er=erasures, s2=sigma2:
                pkg.VarianceConstrainedPolicy(pkg.ChannelModel(er), h, s2),
            check=lambda pol, h=horizon, er=erasures, s2=sigma2, c=columns:
                check_variance(pkg, pol, h, er, s2, c),
            digest=lambda pol: repr(pol.k_cap).encode() + _table_digest(pol.table),
        ))
    ops.append(Op(
        name="threshold t<=60 n<=20", part="side", units=1,
        run=lambda: [[pkg.retransmission_threshold(t, n) for n in range(1, 21)]
                     for t in range(2, 61)],
        check=check_thresholds,
        digest=lambda rows: np.array(rows).tobytes(),
    ))
    return ops


# --------------------------------------------------------------- montecarlo

SIM_POLICIES = ("optimal", "greedy", "conservative", "retransmission")


def check_simulate_csv(pkg, result, path, grid, receivers, horizon) -> list:
    code, _ = result
    if code != 0:
        return [f"simulate exited {code}"]
    rows = read_csv(path)
    if rows[0] != ["epsilon", "policy", "mean", "stderr"] or len(rows) != 1 + len(grid) * 4:
        return ["simulate.csv has the wrong header or row count"]
    rows = iter(rows[1:])
    for eps in grid:
        erasures = (eps,) * receivers
        channel = pkg.ChannelModel(erasures)
        best = oracle.optimal_value(horizon, erasures)[horizon]
        for kind in SIM_POLICIES:
            r_eps, r_kind, mean, stderr = next(rows)
            mean, stderr = float(mean), float(stderr)
            if float(r_eps) != eps or r_kind != kind:
                return [f"simulate.csv row ({r_eps}, {r_kind}) where ({eps}, {kind}) belongs"]
            vec = pkg.make_policy(kind, channel, horizon).decision_vector(horizon)
            exact = oracle.policy_value(vec, horizon, erasures)[horizon]
            if not abs(mean - exact) <= Z * stderr + 1e-12:
                return [f"{kind} at e = {eps}: mean {mean:.6g} is {abs(mean - exact) / max(stderr, 1e-300):.1f} "
                        f"standard errors from the exact {exact:.6g}"]
            if exact > best + 1e-9:
                return [f"{kind} at e = {eps} beats the optimum"]
            if kind == "optimal" and not _close(exact, best, 1e-9):
                return [f"optimal policy at e = {eps} is worth {exact:.9g}, optimum {best:.9g}"]
    return []


def check_batch(pkg, result, horizon, erasures, seed, stream, replays) -> list:
    table, summary = result
    samples = summary.samples
    if summary.replications != len(samples):
        return ["replication count differs from the samples kept"]
    if samples.min() < 0 or samples.max() > horizon:
        return ["delivered count outside [0, T]"]
    if not np.array_equal(summary.histogram[: horizon + 1], np.bincount(samples, minlength=horizon + 1)):
        return ["histogram does not count the samples"]
    exact = oracle.policy_value(table.k_star, horizon, erasures)[horizon]
    if not _close(exact, oracle.optimal_value(horizon, erasures)[horizon], 1e-9):
        return ["plan table is not optimal"]
    if not abs(summary.mean - exact) <= Z * summary.stderr:
        return [f"mean {summary.mean:.6g} is more than {Z} standard errors from {exact:.6g}"]
    channel = pkg.ChannelModel(erasures)
    for r in replays:
        bits = oracle.philox_bits(seed, stream + r, horizon, erasures)
        if oracle.replay_frame(bits, table.k_star, horizon) != samples[r]:
            return [f"replication {r} differs from an independent replay of its stream"]
        trace = pkg.simulate_frame(pkg.OptimalPolicy(table), horizon, horizon, channel,
                                   pkg.RngSpec(seed, stream).shifted(r))
        if trace.delivered != samples[r]:
            return [f"replication {r} differs from simulate_frame on the same stream"]
    return []


def check_learning_run(records, frames, horizon, erasure) -> list:
    if [r["frame"] for r in records] != list(range(frames)):
        return ["learning_run frames out of order"]
    for r in records:
        if not 0 <= r["delivered"] <= horizon or not 0.0 <= r["eps_hat"] <= 1.0:
            return [f"frame {r['frame']} out of range: {r}"]
        if r["mode"] not in ("ramp", "stable"):
            return [f"frame {r['frame']} has mode {r['mode']!r}"]
    if abs(records[-1]["eps_hat"] - erasure) > 0.05:
        return [f"estimate {records[-1]['eps_hat']:.4f} far from the erasure rate {erasure}"]
    return []


def check_fallback(pkg, summary, horizon, erasures, seed, replays) -> list:
    samples = summary.samples
    if samples.min() < 0 or samples.max() > horizon:
        return ["delivered count outside [0, T]"]
    best = oracle.optimal_value(horizon, erasures)[horizon]
    if summary.mean > best + Z * summary.stderr:
        return [f"learning mean {summary.mean:.6g} beats the known-channel optimum {best:.6g}"]
    channel = pkg.ChannelModel(erasures)
    for r in replays:
        policy = pkg.LearningPolicy(len(erasures), horizon)
        trace = pkg.simulate_frame(policy, horizon, horizon, channel, pkg.RngSpec(seed, 0).shifted(r))
        if trace.delivered != samples[r]:
            return [f"replication {r} differs from a fresh replay through simulate_frame"]
    return []


def montecarlo(pkg, seed: int, workdir: Path) -> list:
    """Monte-Carlo throughput: the simulate command on short frames, the batch
    engine on long frames, and frames driven by the learning policy."""
    inputs = Inputs(seed)
    e = inputs.erasure
    ops = []

    grid = [e(c) for c in (0.2, 0.4, 0.6, 0.8)]
    reps = 2500
    out = workdir / "simulate"
    config = write_config(workdir / "simulate.yaml", {
        "kind": "simulate", "horizon": 10, "channel": {"receivers": 10},
        "epsilon_grid": grid, "policies": list(SIM_POLICIES), "replications": reps,
        "seed": inputs.program_seed(), "out": str(out),
    })
    ops.append(Op(
        name="simulate T=10 n=10", part="short", units=reps * len(grid) * len(SIM_POLICIES),
        run=lambda: run_cli(pkg, ["simulate", "--config", config, "--workers", "1"]),
        check=lambda res: check_simulate_csv(pkg, res, out / "simulate.csv", grid, 10, 10),
        digest=_file_digest(out / "simulate.csv"),
    ))

    long_erasures, long_reps = (e(0.3),) * 20, 4000
    long_seed, long_stream = inputs.program_seed(), inputs.rnd.randrange(2**40)
    long_replays = inputs.sample(range(long_reps), 12)

    def long_cell():
        channel = pkg.ChannelModel(long_erasures)
        table = pkg.solve_monotone(100, channel)
        summary = pkg.monte_carlo_throughput(
            pkg.OptimalPolicy(table), 100, 100, channel, long_reps,
            pkg.RngSpec(long_seed, long_stream), keep_samples=True)
        return table, summary

    ops.append(Op(
        name="batch T=100 n=20", part="long", units=long_reps, run=long_cell,
        check=lambda res: check_batch(pkg, res, 100, long_erasures, long_seed, long_stream,
                                      long_replays),
        digest=lambda res: _table_digest(res[0]) + res[1].samples.tobytes(),
    ))

    learn_erasure, frames = e(0.35), 1500
    learn_seed = inputs.program_seed()
    ops.append(Op(
        name="learning_run T=10 n=10", part="side", units=frames,
        run=lambda: pkg.learning_run(pkg.LearningPolicy(10, 10), frames, 10,
                                     pkg.ChannelModel((learn_erasure,) * 10),
                                     pkg.RngSpec(learn_seed, 0)),
        check=lambda recs: check_learning_run(recs, frames, 10, learn_erasure),
        digest=lambda recs: repr(recs).encode(),
    ))

    fallback_erasures, fallback_reps = (e(0.35),) * 10, 1500
    fallback_seed = inputs.program_seed()
    fallback_replays = inputs.sample(range(fallback_reps), 12)
    ops.append(Op(
        name="per-frame fallback T=10 n=10", part="side", units=fallback_reps,
        run=lambda: pkg.monte_carlo_throughput(
            pkg.LearningPolicy(10, 10), 10, 10, pkg.ChannelModel(fallback_erasures),
            fallback_reps, pkg.RngSpec(fallback_seed, 0), keep_samples=True),
        check=lambda s: check_fallback(pkg, s, 10, fallback_erasures, fallback_seed,
                                       fallback_replays),
        digest=lambda s: s.samples.tobytes(),
    ))
    return ops


# ---------------------------------------------------------------- multiflow

@dataclass
class Flow:
    flow_id: int
    erasures: tuple
    arrival_rate: float
    delivery_ratio: float
    weight: float = 1.0
    arrival_process: str = "bernoulli"

    def config(self) -> dict:
        erasure, = set(self.erasures)
        return {"flow_id": self.flow_id, "arrival_rate": self.arrival_rate,
                "delivery_ratio": self.delivery_ratio, "weight": self.weight,
                "arrival_process": self.arrival_process,
                "channel": {"erasure": erasure, "receivers": len(self.erasures)}}

    def spec(self, pkg):
        return pkg.FlowSpec(self.flow_id, pkg.ChannelModel(self.erasures), self.arrival_rate,
                            self.delivery_ratio, self.weight, self.arrival_process)


def check_online(pkg, flows, horizon, rho, seed, s_star, arrivals, delivered, nu,
                 sample_frames) -> list:
    """Checks of one online scheduling run, frame by frame.

    Slot budgets fit the frame, deliveries fit both the arrivals and the
    budget, deficits stay non-negative and move only as arrivals and
    deliveries allow; on sampled frames the schedule is the best split found
    by trying every one, and every flow's delivery equals an independent
    replay of its transmission stream.
    """
    frames, n_flows = s_star.shape
    if (s_star < 0).any() or (s_star.sum(axis=1) > horizon).any():
        return ["a schedule exceeds the frame"]
    if (delivered < 0).any() or (delivered > np.minimum(arrivals, s_star)).any():
        return ["a flow delivered more than arrived or than its slots allow"]
    if (nu < 0).any():
        return ["a deficit is negative"]
    prev = np.vstack([np.zeros(n_flows), nu[:-1]])
    if (nu > np.maximum(0.0, prev + arrivals - delivered) + 1e-9).any() or \
            (nu < np.maximum(0.0, prev - delivered) - 1e-9).any():
        return ["a deficit moved more than arrivals and deliveries allow"]

    curves, tables = [], []
    for f in flows:
        ref = oracle.optimal_value(horizon, f.erasures)
        curve = pkg.service_curve(f.spec(pkg), horizon).values
        if not np.allclose(curve, ref, rtol=1e-9, atol=1e-12):
            return [f"service curve of flow {f.flow_id} is not the optimal value"]
        curves.append(ref)
        tables.append(pkg.solve_monotone(horizon, pkg.ChannelModel(f.erasures)))
    splits = oracle.all_splits(n_flows, horizon)
    for k in sample_frames:
        gains = [(f.weight / rho + prev[k, i]) * curves[i] for i, f in enumerate(flows)]
        best = oracle.best_split_value(splits, gains)
        got = sum(g[s] for g, s in zip(gains, s_star[k]))
        if got < best - 1e-9 * (1.0 + abs(best)):
            return [f"frame {k}: schedule {s_star[k].tolist()} worth {got:.9g}, best split {best:.9g}"]
        for i, f in enumerate(flows):
            if s_star[k, i] > 0 and arrivals[k, i] > 0:
                bits = oracle.philox_bits(seed, 3 + k * n_flows + i, int(s_star[k, i]), f.erasures)
                if oracle.replay_frame(bits, tables[i].k_star, int(arrivals[k, i])) != delivered[k, i]:
                    return [f"frame {k} flow {f.flow_id}: delivery differs from a replay"]
    return []


def check_multiflow_csv(pkg, result, path, flows, horizon, rho, seed, frames,
                        sample_frames) -> list:
    code, _ = result
    if code != 0:
        return [f"multiflow exited {code}"]
    rows = read_csv(path)
    if rows[0] != ["frame", "flow", "s_star", "arrivals", "delivered", "nu_hat"] or \
            len(rows) != 1 + frames * len(flows):
        return ["multiflow.csv has the wrong header or row count"]
    body = np.array([[float(x) for x in row] for row in rows[1:]]).reshape(frames, len(flows), 6)
    if not (body[:, :, 0] == np.arange(frames)[:, None]).all() or \
            not (body[:, :, 1] == [f.flow_id for f in flows]).all():
        return ["multiflow.csv rows out of order"]
    ints = body[:, :, 2:5].astype(np.int64)
    return check_online(pkg, flows, horizon, rho, seed, ints[:, :, 0], ints[:, :, 1],
                        ints[:, :, 2], body[:, :, 5], sample_frames)


def check_region_csv(result, path, grid) -> list:
    code, _ = result
    if code != 0:
        return [f"region exited {code}"]
    rows = read_csv(path)
    if rows[0] != ["grid_x", "grid_y", "stable_nc", "stable_retx"] or len(rows) != 1 + len(grid) ** 2:
        return ["region.csv has the wrong header or row count"]
    expected = [(x, y) for x in grid for y in grid]
    for (x, y), (gx, gy, nc, rx) in zip(expected, rows[1:]):
        if (float(gx), float(gy)) != (x, y) or nc not in ("0", "1") or rx not in ("0", "1"):
            return [f"region.csv row {gx}, {gy} malformed"]
    return []


def multiflow(pkg, seed: int, workdir: Path) -> list:
    """Deficit-driven scheduling: the multiflow command on the shipped
    two-flow shape, a four-flow heterogeneous run_online at T = 30, and a
    small region sweep."""
    inputs = Inputs(seed)
    e = inputs.erasure
    ops = []
    rho = 0.1

    flows = [Flow(i, (e(0.3),) * 5, 2.0, 0.4) for i in range(2)]
    frames, mf_seed = 3000, inputs.program_seed()
    out = workdir / "multiflow"
    config = write_config(workdir / "multiflow.yaml", {
        "kind": "multiflow", "horizon": 10, "rho": rho, "frames": frames, "seed": mf_seed,
        "flows": [f.config() for f in flows], "out": str(out),
    })
    sample_frames = inputs.sample(range(frames), 25)
    ops.append(Op(
        name="multiflow T=10 2 flows", part="short", units=frames,
        run=lambda: run_cli(pkg, ["multiflow", "--config", config, "--workers", "1"]),
        check=lambda res: check_multiflow_csv(pkg, res, out / "multiflow.csv", flows, 10, rho,
                                              mf_seed, frames, sample_frames),
        digest=_file_digest(out / "multiflow.csv"),
    ))

    wide = [
        Flow(0, (e(0.2),) * 3, 4.0, 0.5, 1.0),
        Flow(1, (e(0.3),) * 5, 3.0, 0.6, 2.0),
        Flow(2, (e(0.4),) * 8, 5.0, 0.4, 1.0, "poisson"),
        Flow(3, (e(0.5),) * 12, 2.0, 0.7, 1.5),
    ]
    wide_frames, wide_seed = 600, inputs.program_seed()
    wide_samples = inputs.sample(range(wide_frames), 20)
    ops.append(Op(
        name="run_online T=30 4 flows", part="long", units=wide_frames,
        run=lambda: pkg.run_online([f.spec(pkg) for f in wide], wide_frames, 30, rho,
                                   pkg.RngSpec(wide_seed, 0)),
        check=lambda tr: check_online(pkg, wide, 30, rho, wide_seed, tr.s_star, tr.arrivals,
                                      tr.delivered, tr.nu_hat, wide_samples),
        digest=lambda tr: b"".join(a.tobytes() for a in (tr.s_star, tr.arrivals, tr.delivered,
                                                         tr.nu_hat)),
    ))

    grid, sweep_frames = [0.1, 0.3, 0.7], 300
    pair = [Flow(i, (e(0.4),) * 20, 3.0, 0.5) for i in range(2)]
    out_region = workdir / "region"
    region_config = write_config(workdir / "region.yaml", {
        "kind": "region", "horizon": 10, "rho": rho, "frames": sweep_frames,
        "seed": inputs.program_seed(), "axis": "delivery_ratio", "grid": grid,
        "flows": [f.config() for f in pair], "out": str(out_region),
    })
    ops.append(Op(
        name="region 3x3 T=10", part="side", units=len(grid) ** 2 * 2 * sweep_frames,
        run=lambda: run_cli(pkg, ["region", "--config", region_config, "--workers", "1"]),
        check=lambda res: check_region_csv(res, out_region / "region.csv", grid),
        digest=_file_digest(out_region / "region.csv"),
    ))
    return ops


WORKLOADS = {"plan": plan, "montecarlo": montecarlo, "multiflow": multiflow}
