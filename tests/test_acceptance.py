"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises one promised behavior at its stated tolerance and prints
a single summary line with the measured values (visible with ``pytest -s``;
the -v listing gives the pass/fail verdict per criterion either way).
"""

import itertools
import time

import numpy as np
import pytest

from adaptnc import (
    ChannelModel,
    ConservativePolicy,
    FlowSpec,
    GreedyPolicy,
    LearningPolicy,
    OptimalPolicy,
    RngSpec,
    ServiceCurve,
    allocate_slots,
    decode_prob,
    learning_run,
    monte_carlo_throughput,
    rate_region_sweep,
    retransmission_threshold,
    run_online,
    solve_bruteforce,
    solve_monotone,
    static_dual_iteration,
)
from adaptnc.policies import RetransmissionPolicy, make_policy

EPS_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
N_GRID = [1, 2, 5, 10]


def report(criterion: int, detail: str):
    print(f"criterion {criterion:02d} PASS: {detail}")


def test_criterion_01_windowed_solver_matches_brute_force():
    # identical tables (values to 1e-10, argmins exactly) across the full
    # erasure x receiver grid at horizon 25, under the one-minute budget
    start = time.perf_counter()
    worst_dv = 0.0
    for eps, n in itertools.product(EPS_GRID, N_GRID):
        channel = ChannelModel.homogeneous(eps, n)
        brute = solve_bruteforce(25, channel)
        fast = solve_monotone(25, channel)
        dv = float(np.abs(brute.value - fast.value).max())
        worst_dv = max(worst_dv, dv)
        assert dv <= 1e-10, (eps, n, dv)
        assert np.array_equal(brute.k_star, fast.k_star), (eps, n)
        assert np.array_equal(brute.k_greedy, fast.k_greedy), (eps, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(1, f"36 instances at horizon 25, max |dV| {worst_dv:.2e}, {elapsed:.1f}s")


def test_criterion_02_hand_derived_instance_is_exact():
    table = solve_monotone(3, ChannelModel.homogeneous(0.5, 1))
    assert table.value.tolist() == [0.0, 0.5, 1.0, 1.5]
    assert table.k_star.tolist() == [0, 1, 1, 1]
    assert table.k_greedy[3] == 2
    report(2, "V=[0,0.5,1,1.5], K*=[0,1,1,1], greedy K at t=3 is 2 (exact)")


def test_criterion_03_structural_properties_hold_on_every_table():
    violations = []
    tables = 0
    for eps, n in itertools.product(EPS_GRID, N_GRID):
        channel = ChannelModel.homogeneous(eps, n)
        for k_cap in (None, 2):
            table = solve_monotone(30, channel, k_cap=k_cap)
            tables += 1
            k, g = table.k_star, table.k_greedy
            if not (np.diff(k) >= 0).all():
                violations.append(("k_star monotone", eps, n, k_cap))
            if not (k[1:] <= g[1:]).all():
                violations.append(("k_star <= k_greedy", eps, n, k_cap))
            if not (np.diff(g) >= 0).all():
                violations.append(("k_greedy monotone", eps, n, k_cap))
            if k[1] != 1 or k[2] != 1:
                violations.append(("first two states use one packet", eps, n, k_cap))
            if n == 1 and not (k[1:] == 1).all():
                violations.append(("single receiver always sends one", eps, n, k_cap))
            if k_cap is None:
                for t in (1, 7, 15, 30):
                    # single-block reward is unimodal: never rises again
                    # after it has fallen
                    r = [kk * decode_prob(kk, t, channel) for kk in range(1, t + 1)]
                    fallen = False
                    for a, b in zip(r, r[1:]):
                        if b < a - 1e-15:
                            fallen = True
                        elif fallen and b > a + 1e-15:
                            violations.append(("reward unimodal", eps, n, t))
                            break
                    # decode probability strictly falls as the block grows
                    # wherever the gap is representable in doubles; on the
                    # saturated plateaus (values within one ulp of 1.0, or
                    # underflowed to 0.0) only ulp-level wobble is tolerated
                    p = [decode_prob(kk, t, channel) for kk in range(1, t + 1)]
                    for a, b in zip(p, p[1:]):
                        if b >= 1.0 - 1e-9 or a <= 1e-300:
                            if b > a + 1e-12:
                                violations.append(("decode prob increases", eps, n, t))
                                break
                        elif b >= a:
                            violations.append(("decode prob plateau", eps, n, t))
                            break
    assert violations == [], violations[:10]
    report(3, f"{tables} tables at horizon 30 (with and without caps), 0 violations")


def test_criterion_04_retransmission_threshold():
    base = retransmission_threshold(2, 1)
    assert base == pytest.approx(1.0 / 3.0, abs=1e-9)

    thresholds = {
        (t, n): retransmission_threshold(t, n)
        for t in range(2, 31)
        for n in range(1, 11)
    }
    for (t, n), eps in thresholds.items():
        if (t + 1, n) in thresholds:
            assert thresholds[(t + 1, n)] > eps, (t, n)
        if (t, n + 1) in thresholds:
            assert thresholds[(t, n + 1)] < eps, (t, n)

    # above the threshold the whole plan collapses to single packets
    for t, n in itertools.product((2, 5, 10, 20, 30), (1, 3, 10)):
        eps = min(thresholds[(t, n)] + 0.03, 0.999)
        table = solve_monotone(t, ChannelModel.homogeneous(eps, n))
        assert (table.k_star[1:] == 1).all(), (t, n, eps)
    report(
        4,
        f"threshold(2,1)={base:.9f}, monotone over t=2..30 x n=1..10, "
        "plans above threshold all-ones",
    )


def test_criterion_05_windowed_search_cost_scales_subquadratically():
    channel = ChannelModel.homogeneous(0.2, 5)
    horizons = [50, 100, 200, 400]
    costs = []
    for horizon in horizons:
        table = solve_monotone(horizon, channel)
        costs.append(table.stats["bellman_evals"] + table.stats["reward_evals"])
    exponent = float(np.polyfit(np.log(horizons), np.log(costs), 1)[0])
    assert exponent <= 2.2, (costs, exponent)
    report(5, f"evaluation counts {costs} over horizons {horizons}, exponent {exponent:.3f}")


def test_criterion_06_monte_carlo_agrees_with_planner():
    start = time.perf_counter()
    worst_z = 0.0
    for eps, n in itertools.product((0.2, 0.5), (1, 5, 10)):
        channel = ChannelModel.homogeneous(eps, n)
        table = solve_monotone(10, channel)
        summary = monte_carlo_throughput(
            OptimalPolicy(table), 10, 10, channel, 1_000_000, RngSpec(606, 0)
        )
        z = abs(summary.mean - table.value[10]) / summary.stderr
        worst_z = max(worst_z, z)
        assert z <= 4.0, (eps, n, summary.mean, table.value[10], z)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(6, f"6 instances x 1e6 replications, worst |z| {worst_z:.2f}, {elapsed:.0f}s")


def test_criterion_07_policy_ordering_across_erasure_rates():
    channel_builders = {
        "optimal": lambda ch: OptimalPolicy(solve_monotone(10, ch)),
        "greedy": lambda ch: GreedyPolicy(solve_monotone(10, ch)),
        "conservative": lambda ch: ConservativePolicy(ch, 10),
        "retransmission": lambda ch: RetransmissionPolicy(10),
    }
    order = ["optimal", "greedy", "conservative", "retransmission"]
    reps = 100_000

    def cell(eps, i, j):
        ch = ChannelModel.homogeneous(eps, 10)
        policy = channel_builders[order[j]](ch)
        return monte_carlo_throughput(
            policy, 10, 10, ch, reps, RngSpec(9090, (i * 4 + j) << 32)
        )

    for i, eps in enumerate((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)):
        summaries = [cell(eps, i, j) for j in range(4)]
        for a, b in zip(summaries, summaries[1:]):
            slack = 2.0 * np.hypot(a.stderr, b.stderr)
            assert a.mean >= b.mean - slack, (eps, a.mean, b.mean)

    high = [cell(0.9, 7, j) for j in range(4)]
    for a, b in itertools.combinations(high, 2):
        assert abs(a.mean - b.mean) <= 2.0 * np.hypot(a.stderr, b.stderr)
    report(
        7,
        "optimal >= greedy >= conservative >= retransmission at eps 0.1..0.7 "
        "(2-stderr slack); all four coincide at eps 0.9",
    )


def test_criterion_08_learning_tracks_truth_and_ramps_gently():
    true_eps, n, horizon = 0.3, 10, 10
    channel = ChannelModel.homogeneous(true_eps, n)

    policy = LearningPolicy(n_receivers=n, horizon=horizon, delta=0.05, eps_init=0.5)
    records = learning_run(policy, 100, horizon, channel, RngSpec(2024, 0))
    eps_after_10 = records[9]["eps_hat"]
    assert abs(eps_after_10 - true_eps) <= 0.05

    # steady state (frames 11..100) across independent runs vs the
    # perfect-information plan on fresh streams
    late_means = []
    ramp_violations = 0
    for rep in range(40):
        fresh = LearningPolicy(n_receivers=n, horizon=horizon, delta=0.05, eps_init=0.5)
        recs = learning_run(fresh, 100, horizon, channel, RngSpec(555, rep * 100))
        late_means.append(np.mean([r["delivered"] for r in recs[10:]]))
        prev = None
        for _, k, moving in fresh.decision_log:
            if moving and prev is not None and k > prev + 1:
                ramp_violations += 1
            prev = k
    learn_mean = float(np.mean(late_means))
    perfect = monte_carlo_throughput(
        OptimalPolicy(solve_monotone(horizon, channel)), horizon, horizon,
        channel, 200_000, RngSpec(556, 0),
    ).mean
    gap = abs(learn_mean - perfect) / perfect
    assert gap <= 0.05, (learn_mean, perfect)
    assert ramp_violations == 0
    report(
        8,
        f"estimate {eps_after_10:.3f} after 10 frames, steady-state {learn_mean:.4f} "
        f"vs perfect {perfect:.4f} ({100 * gap:.2f}%), 0 ramp violations",
    )


def test_criterion_09_deficits_bounded_when_feasible_and_grow_past_the_knee():
    channel = ChannelModel.homogeneous(0.3, 5)

    # inside the achievable region: a requirement the shared frame can carry
    feasible = [
        FlowSpec(flow_id=i, channel=channel, arrival_rate=2.0, delivery_ratio=0.4)
        for i in range(2)
    ]
    trace = run_online(feasible, 100_000, 10, 0.1, RngSpec(103, 0))
    ratios = trace.delivery_ratio()
    assert trace.is_stable()
    assert trace.nu_hat.max() < 50
    assert (ratios >= 0.4 - 0.02).all(), ratios

    # past the knee: a symmetric 0.8 requirement cannot be split across one
    # frame (each flow would need more than half the frames to itself), so
    # both deficits grow without bound
    overloaded = [
        FlowSpec(flow_id=i, channel=channel, arrival_rate=3.0, delivery_ratio=0.8)
        for i in range(2)
    ]
    over = run_online(overloaded, 20_000, 10, 0.1, RngSpec(104, 0))
    slopes = over.deficit_slopes()
    assert (slopes > 0.01).all(), slopes

    # the online schedule value approaches the fluid-scale benchmark as the
    # step size shrinks (weights split the tie the symmetric instance hides)
    weighted = [
        FlowSpec(flow_id=0, channel=channel, arrival_rate=2.0, delivery_ratio=0.4, weight=3.0),
        FlowSpec(flow_id=1, channel=channel, arrival_rate=2.0, delivery_ratio=0.4, weight=1.0),
    ]
    bench = static_dual_iteration(weighted, 10, 0.01, 20_000).weighted_value([3.0, 1.0])
    gaps = []
    for rho in (1.0, 0.1, 0.01):
        online = run_online(weighted, 30_000, 10, rho, RngSpec(115, 0))
        gaps.append(bench - online.schedule_weighted_throughput())
    assert gaps[0] >= gaps[1] >= gaps[2] >= 0.0, gaps
    assert gaps[2] < gaps[0]
    report(
        9,
        f"feasible ratios {ratios.round(3).tolist()} with bounded deficits; "
        f"overloaded slopes {slopes.round(3).tolist()} per frame; "
        f"benchmark gap {'->'.join(f'{g:.4f}' for g in gaps)} as rho 1->0.1->0.01",
    )


def test_criterion_10_coding_strictly_enlarges_the_stable_region():
    channel = ChannelModel.homogeneous(0.4, 20)
    flows = [
        FlowSpec(flow_id=i, channel=channel, arrival_rate=3.0, delivery_ratio=0.8)
        for i in range(2)
    ]
    grid = [0.04, 0.10, 0.16, 0.22, 0.30, 0.70]
    region = rate_region_sweep(flows, grid, 10, 0.1, 10_000, RngSpec(777, 0))
    retx_only = region.stable_retx & ~region.stable_nc
    nc_only = region.stable_nc & ~region.stable_retx
    assert retx_only.sum() == 0  # retransmission never beats coding here
    assert nc_only.any()
    assert region.stable_nc[4, 4] and not region.stable_retx[4, 4]
    report(
        10,
        f"6x6 requirement grid: coded stable {int(region.stable_nc.sum())}, "
        f"retransmission stable {int(region.stable_retx.sum())}, "
        f"coding-only cells {np.argwhere(nc_only).tolist()}",
    )


def test_criterion_11_allocator_matches_exhaustive_search():
    gen = np.random.default_rng(1111)
    channel = ChannelModel.homogeneous(0.5, 1)
    for case in range(1000):
        n_flows = int(gen.integers(1, 4))
        horizon = int(gen.integers(1, 13))
        rho = float(gen.choice([0.01, 0.1, 1.0]))
        flows = [
            FlowSpec(
                flow_id=i, channel=channel, arrival_rate=1.0, delivery_ratio=0.5,
                weight=float(gen.choice([0.5, 1.0, 3.0])),
            )
            for i in range(n_flows)
        ]
        nu = np.where(gen.random(n_flows) < 0.4, 0.0, gen.random(n_flows) * 20)
        curves = []
        for i in range(n_flows):
            steps = (
                gen.choice([0.0, 0.5], size=horizon)
                if gen.random() < 0.3
                else gen.random(horizon)
            )
            curves.append(
                ServiceCurve(flow_id=i, values=np.concatenate([[0.0], np.cumsum(steps)]))
            )
        gains = [
            (flows[i].weight / rho + float(nu[i])) * curves[i].values[: horizon + 1]
            for i in range(n_flows)
        ]
        best_val, best_split = -np.inf, None
        for split in itertools.product(range(horizon + 1), repeat=n_flows):
            if sum(split) > horizon:
                continue
            total = 0.0
            for g, s in zip(reversed(gains), reversed(split)):
                total = g[s] + total
            if total > best_val:
                best_val, best_split = total, split
        got = allocate_slots(flows, nu, rho, horizon, curves)
        assert got.tolist() == list(best_split), (case, got, best_split)
    report(11, "1000 random allocation instances match exhaustive enumeration exactly")
