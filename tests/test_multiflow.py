"""Multi-flow scheduling tests: service curves, the slot-allocation program
against an exact enumeration oracle, deficit bookkeeping, the deterministic
multiplier iteration, the online loop, and the stability-region sweep."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from adaptnc import (
    ChannelModel,
    ConfigError,
    FlowSpec,
    RetransmissionPolicy,
    RngSpec,
    ServiceCurve,
    allocate_slots,
    deficit_slope,
    rate_region_sweep,
    run_online,
    service_curve,
    simulate_frame,
    solve_monotone,
    static_dual_iteration,
    update_deficit,
)
from adaptnc import multiflow

CH = ChannelModel.homogeneous(0.3, 5)


def flow(i, channel=CH, lam=2.0, q=0.4, **kw):
    return FlowSpec(flow_id=i, channel=channel, arrival_rate=lam, delivery_ratio=q, **kw)


def curve(values):
    return ServiceCurve(np.asarray(values, dtype=float))


def oracle_allocation(flows, nu, rho, horizon, curves):
    """Exhaustive lexicographic search with the same gain arrays and the same
    right-associated running sum as the dynamic program."""
    gains = [
        (flows[i].weight / rho + float(nu[i])) * curves[i].values[: horizon + 1]
        for i in range(len(flows))
    ]
    best_val = -np.inf
    best_split = None
    for split in itertools.product(range(horizon + 1), repeat=len(flows)):
        if sum(split) > horizon:
            continue
        total = 0.0
        for g, s in zip(reversed(gains), reversed(split)):
            total = g[s] + total
        if total > best_val:
            best_val = total
            best_split = split
    return np.array(best_split, dtype=int)


def _reference_allocate(flows, deficits, rho, horizon, curves=None):
    """The allocator's dynamic program as a plain triple loop over flows,
    slots available and slots granted: a strict > keeps the smallest slot
    count, so ties go to fewer slots for the lowest flow index first."""
    nu = np.asarray(deficits, dtype=float)
    if curves is None:
        curves = [service_curve(f, horizon) for f in flows]
    n_flows = len(flows)
    gains = [
        (flows[i].weight / rho + float(nu[i])) * curves[i].values[: horizon + 1]
        for i in range(n_flows)
    ]
    best = np.zeros(horizon + 1)
    choice = np.zeros((n_flows, horizon + 1), dtype=int)
    for i in range(n_flows - 1, -1, -1):
        g = gains[i]
        nxt = best
        best = np.empty(horizon + 1)
        for u in range(horizon + 1):
            top = g[0] + nxt[u]
            pick = 0
            for s in range(1, u + 1):
                v = g[s] + nxt[u - s]
                if v > top:
                    top = v
                    pick = s
            best[u] = top
            choice[i, u] = pick
    schedule = np.zeros(n_flows, dtype=int)
    u = horizon
    for i in range(n_flows):
        schedule[i] = choice[i, u]
        u -= schedule[i]
    return schedule


class TestServiceCurve:
    def test_single_receiver_curve(self):
        c = service_curve(flow(0, ChannelModel.homogeneous(0.5, 1)), 3)
        assert c.values.tolist() == [0.0, 0.5, 1.0, 1.5]

    def test_lossless_curve_is_identity(self):
        c = service_curve(flow(0, ChannelModel.homogeneous(0.0, 2)), 4)
        assert c.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_curve_bounds_and_monotonicity(self):
        c = service_curve(flow(0), 12)
        assert (np.diff(c.values) >= -1e-12).all()
        assert (c.values <= np.arange(13) + 1e-9).all()
        assert c.values[0] == 0.0

    def test_retransmission_never_beats_coding(self):
        nc = service_curve(flow(0), 12)
        retx = service_curve(flow(0), 12, intra="retransmission")
        assert (retx.values <= nc.values + 1e-12).all()
        assert retx.values[12] < nc.values[12]  # coding strictly helps here

    def test_retransmission_matches_capped_solver(self):
        retx = service_curve(flow(0), 10, intra="retransmission")
        capped = solve_monotone(10, CH, k_cap=1).value
        assert np.array_equal(retx.values, capped)

    def test_cache_shares_one_array_per_channel(self):
        a = service_curve(flow(0), 8)
        b = service_curve(flow(1), 8)  # different flow, same channel
        assert a.values is b.values
        retx = service_curve(flow(0), 8, intra="retransmission")
        assert retx.values is not a.values

    def test_values_are_frozen(self):
        c = service_curve(flow(0), 6)
        with pytest.raises(ValueError):
            c.values[1] = 99.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            service_curve(flow(0), 0)
        with pytest.raises(ConfigError):
            service_curve(flow(0), 5, intra="hybrid")


class TestIntraPlan:
    def test_run_online_solves_each_plan_once(self, monkeypatch):
        calls = []

        def counted(horizon, channel, k_cap=None):
            calls.append((channel.erasures, horizon, k_cap))
            return solve_monotone(horizon, channel, k_cap=k_cap)

        monkeypatch.setattr(multiflow, "solve_monotone", counted)
        monkeypatch.setattr(multiflow, "_CURVE_CACHE", {})
        other = ChannelModel((0.2, 0.5, 0.7))
        flows = [flow(0), flow(1), flow(2, channel=other)]
        for intra in multiflow.INTRA_POLICIES:
            for seed in (3, 4):
                run_online(flows, 20, 6, 0.1, RngSpec(seed, 0), intra=intra)
        # the optimal plan, and retransmission as the plan capped at one packet
        assert len(calls) == 4
        assert set(calls) == {(ch.erasures, 6, cap) for ch in (CH, other) for cap in (None, 1)}

    def test_retransmission_plan_delivers_like_retransmission_policy(self):
        flows = [flow(0), flow(1, channel=ChannelModel((0.2, 0.5, 0.7)))]
        rng = RngSpec(8, 0)
        trace = run_online(flows, 200, 8, 0.1, rng, intra="retransmission")
        for k in range(trace.frames):
            for i, f in enumerate(flows):
                s, a = int(trace.s_star[k, i]), int(trace.arrivals[k, i])
                expect = 0
                if s > 0 and a > 0:
                    # frame k, flow i transmits on stream 3 + k * flows + i
                    expect = simulate_frame(
                        RetransmissionPolicy(s), s, a, f.channel, rng.shifted(3 + 2 * k + i)
                    ).delivered
                assert trace.delivered[k, i] == expect, (k, i)
        assert trace.delivered.sum() > 0


class TestAllocateSlots:
    def test_matches_enumeration_oracle(self):
        gen = np.random.default_rng(20260814)
        for case in range(250):
            n_flows = int(gen.integers(1, 4))
            horizon = int(gen.integers(1, 11))
            rho = float(gen.choice([0.01, 0.1, 1.0]))
            flows = [
                flow(i, lam=1.0, q=0.5, weight=float(gen.choice([0.5, 1.0, 3.0])))
                for i in range(n_flows)
            ]
            nu = np.where(gen.random(n_flows) < 0.4, 0.0, gen.random(n_flows) * 20)
            curves = []
            for _ in range(n_flows):
                if gen.random() < 0.3:
                    # quantized increments force exact value ties
                    steps = gen.choice([0.0, 0.5], size=horizon)
                else:
                    steps = gen.random(horizon)
                curves.append(curve(np.concatenate([[0.0], np.cumsum(steps)])))
            got = allocate_slots(flows, nu, rho, horizon, curves)
            want = oracle_allocation(flows, nu, rho, horizon, curves)
            assert np.array_equal(got, want), (case, got, want)

    @pytest.mark.parametrize("horizon", [1, 2, 10, 30, 100])
    def test_matches_reference_loop(self, horizon):
        # random and integer-tied deficits, identical flows, dead channels
        # (e = 1, an all-zero gain) and 1..5 flows: the schedule must equal
        # the triple loop's exactly, ties included
        gen = np.random.default_rng(7000 + horizon)
        channels = [CH, ChannelModel.homogeneous(0.6, 2), ChannelModel.homogeneous(1.0, 3)]
        for case in range(60):
            n_flows = case % 5 + 1
            rho = float(gen.choice([0.01, 0.1, 1.0]))
            if case % 4 == 3:
                ch = channels[int(gen.integers(3))]
                flows = [flow(i, ch) for i in range(n_flows)]
                curves = [service_curve(f, horizon) for f in flows]
                nu = np.full(n_flows, float(gen.integers(0, 3)))
            else:
                flows = [
                    flow(i, channels[int(gen.integers(3))],
                         weight=float(gen.choice([0.5, 1.0, 3.0])))
                    for i in range(n_flows)
                ]
                curves = []
                for f in flows:
                    if gen.random() < 0.5:
                        curves.append(service_curve(f, horizon))
                    else:
                        steps = gen.choice([0.0, 0.5, 1.0], size=horizon)
                        curves.append(curve(np.concatenate([[0.0], np.cumsum(steps)])))
                if case % 2:
                    nu = gen.integers(0, 4, n_flows).astype(float)
                else:
                    nu = gen.random(n_flows) * 20
            got = allocate_slots(flows, nu, rho, horizon, curves)
            want = _reference_allocate(flows, nu, rho, horizon, curves)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (case, got, want)

    def test_online_and_static_dual_match_reference(self, monkeypatch):
        flows = [
            flow(0, ChannelModel.homogeneous(0.2, 3), lam=4.0, q=0.5),
            flow(1, CH, lam=3.0, q=0.6, weight=2.0),
            flow(2, ChannelModel.homogeneous(0.4, 8), lam=5.0, q=0.4, arrival_process="poisson"),
            flow(3, ChannelModel.homogeneous(0.5, 12), lam=2.0, q=0.7, weight=1.5),
        ]
        fast = run_online(flows, 150, 30, 0.1, RngSpec(71, 0))
        fast_dual = static_dual_iteration(flows, 30, 0.1, 150)

        calls = []

        def reference(*args):
            calls.append(1)
            return _reference_allocate(*args)

        monkeypatch.setattr(multiflow, "allocate_slots", reference)
        slow = run_online(flows, 150, 30, 0.1, RngSpec(71, 0))
        slow_dual = static_dual_iteration(flows, 30, 0.1, 150)
        assert len(calls) == 300
        for name in ("s_star", "arrivals", "delivered", "nu_hat", "schedule_value"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
        for name in ("s_star", "mu_star", "nu_hat"):
            assert np.array_equal(getattr(fast_dual, name), getattr(slow_dual, name)), name

    def test_plateau_ties_pick_fewest_slots(self):
        flows = [flow(0), flow(1)]
        curves = [curve([0.0, 1.0, 1.0, 1.0]), curve([0.0, 1.0, 1.0, 1.0])]
        got = allocate_slots(flows, np.zeros(2), 0.1, 3, curves)
        assert got.tolist() == [1, 1]

    def test_strictly_concave_curve_splits_evenly(self):
        vals = np.sqrt(np.arange(7, dtype=float))
        flows = [flow(0), flow(1)]
        got = allocate_slots(flows, np.zeros(2), 0.1, 6, [curve(vals), curve(vals)])
        assert got.tolist() == [3, 3]

    def test_deficit_tilts_the_split(self):
        vals = np.sqrt(np.arange(7, dtype=float))
        flows = [flow(0), flow(1)]
        got = allocate_slots(flows, np.array([100.0, 0.0]), 0.1, 6, [curve(vals), curve(vals)])
        assert got.tolist() == [6, 0]

    def test_superadditive_curve_grants_whole_frame(self):
        # the coded curve at this instance rewards concentration:
        # c(5)+c(5) < c(10), so the zero-deficit argmax is a corner, and the
        # lexicographically smaller corner leaves flow 0 empty-handed
        flows = [flow(0), flow(1)]
        curves = [service_curve(f, 10) for f in flows]
        vals = curves[0].values
        assert 2 * vals[5] < vals[10]
        assert allocate_slots(flows, np.zeros(2), 0.1, 10, curves).tolist() == [0, 10]
        assert allocate_slots(flows, np.array([5.0, 0.0]), 0.1, 10, curves).tolist() == [10, 0]

    def test_dead_channel_gets_nothing(self):
        flows = [flow(0, ChannelModel.homogeneous(0.0, 2)), flow(1, ChannelModel.homogeneous(1.0, 2))]
        got = allocate_slots(flows, np.zeros(2), 0.1, 6, [service_curve(f, 6) for f in flows])
        assert got.tolist() == [6, 0]
        both_dead = [flow(0, ChannelModel.homogeneous(1.0, 2)), flow(1, ChannelModel.homogeneous(1.0, 2))]
        curves = [service_curve(f, 6) for f in both_dead]
        assert allocate_slots(both_dead, np.zeros(2), 0.1, 6, curves).tolist() == [0, 0]

    def test_validation(self):
        flows = [flow(0), flow(1)]
        curves = [service_curve(f, 5) for f in flows]
        assert allocate_slots([], np.zeros(0), 0.1, 5, []).shape == (0,)
        with pytest.raises(ConfigError):
            allocate_slots(flows, np.zeros(2), 0.0, 5, curves)
        with pytest.raises(ConfigError):
            allocate_slots(flows, np.zeros(3), 0.1, 5, curves)

    def test_rejects_fewer_curves_than_flows(self):
        flows = [flow(0), flow(1)]
        with pytest.raises(ConfigError, match="one service curve per flow"):
            allocate_slots(flows, np.zeros(2), 0.1, 5, [service_curve(flows[0], 5)])

    def test_rejects_a_curve_shorter_than_the_horizon(self):
        flows = [flow(0), flow(1)]
        curves = [service_curve(flows[0], 5), service_curve(flows[1], 4)]
        with pytest.raises(ConfigError, match=r"cover budgets 0\.\.5"):
            allocate_slots(flows, np.zeros(2), 0.1, 5, curves)

    def test_rejects_a_negative_horizon(self):
        flows = [flow(0), flow(1)]
        curves = [service_curve(f, 5) for f in flows]
        with pytest.raises(ConfigError, match="horizon must be >= 0"):
            allocate_slots(flows, np.zeros(2), 0.1, -1, curves)

    def test_rejects_a_rho_at_which_weights_overflow(self):
        # weight / rho = inf times a curve's 0 at no slots is NaN, which
        # would turn the schedule into [0 0] with RuntimeWarnings
        flows = [flow(0), flow(1)]
        curves = [service_curve(f, 5) for f in flows]
        needle = "rho 1e-310 is too small"
        with pytest.raises(ConfigError, match=needle):
            allocate_slots(flows, np.zeros(2), 1e-310, 5, curves)
        with pytest.raises(ConfigError, match=needle):
            run_online(flows, 3, 5, 1e-310, RngSpec(1, 0))
        with pytest.raises(ConfigError, match=needle):
            static_dual_iteration(flows, 5, 1e-310, 3)
        # weight 1 over 1e-308 is finite, but not once summed over the
        # slots and flows
        assert np.isfinite(1.0 / 1e-308)
        with pytest.raises(ConfigError, match="rho 1e-308 is too small"):
            allocate_slots(flows, np.zeros(2), 1e-308, 5, curves)
        assert allocate_slots(flows, np.zeros(2), 1e-300, 5, curves).sum() <= 5

    @pytest.mark.parametrize("n_flows", [1, 2, 3, 4])
    def test_end_flows_match_reference_on_ties(self, n_flows):
        # the last flow's running maximum and the first flow's single row
        # must break ties as the full max-plus step does: flat and stepped
        # curves with integer deficits tie often
        gen = np.random.default_rng(900 + n_flows)
        for case in range(300):
            horizon = int(gen.integers(0, 13))
            flows = [flow(i, weight=float(gen.choice([0.5, 1.0]))) for i in range(n_flows)]
            curves = [
                curve(np.concatenate([[0.0], np.cumsum(gen.choice([0.0, 0.5, 1.0], horizon))]))
                for _ in range(n_flows)
            ]
            nu = gen.integers(0, 3, n_flows).astype(float)
            got = allocate_slots(flows, nu, 1.0, horizon, curves)
            want = _reference_allocate(flows, nu, 1.0, horizon, curves)
            assert np.array_equal(got, want), (case, got, want)


class TestDeficitPlumbing:
    def test_thinning_extremes(self):
        # ratio 1 keeps every arrival, ratio 0 none
        trace = run_online([flow(0, q=1.0), flow(1, q=0.0)], 200, 10, 0.1, RngSpec(5, 0))
        nu = np.zeros(2)
        for k in range(trace.frames):
            nu = update_deficit(nu, [trace.arrivals[k, 0], 0], trace.delivered[k])
            assert np.array_equal(trace.nu_hat[k], nu), k
        assert trace.arrivals[:, 0].sum() > 0
        assert (trace.nu_hat[:, 1] == 0).all()

    def test_thinning_is_binomial(self):
        # stream +2 of the run draws one binomial per flow and frame, in
        # flow order; replaying it reproduces every deficit
        flows = [flow(0, lam=4.0, q=0.3), flow(1, lam=3.0, q=0.6, arrival_process="poisson")]
        trace = run_online(flows, 3_000, 10, 0.1, RngSpec(6, 0))
        gen = RngSpec(6, 0).shifted(2).generator()
        nu = np.zeros(2)
        kept = np.zeros((trace.frames, 2), dtype=int)
        for k in range(trace.frames):
            kept[k] = [gen.binomial(trace.arrivals[k, i], f.delivery_ratio)
                       for i, f in enumerate(flows)]
            nu = update_deficit(nu, kept[k], trace.delivered[k])
            assert np.array_equal(trace.nu_hat[k], nu), k
        for i, q in enumerate((0.3, 0.6)):
            n = trace.arrivals[:, i].sum()
            assert abs(kept[:, i].sum() / n - q) < 3 * np.sqrt(q * (1 - q) / n)

    def test_update_deficit(self):
        out = update_deficit([2.0, 0.0, 5.0], [3, 1, 0], [4, 0, 9])
        assert out.tolist() == [1.0, 1.0, 0.0]
        gen = np.random.default_rng(7)
        nu, a, c = gen.random(6) * 5, gen.integers(0, 5, 6), gen.integers(0, 5, 6)
        got = update_deficit(nu, a, c)
        assert (got >= 0).all()
        assert np.allclose(got, np.maximum(0.0, nu + a - c))

    def test_deficit_slope(self):
        assert deficit_slope([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
        assert deficit_slope([3.0, 3.0, 3.0, 3.0]) == pytest.approx(0.0)
        assert deficit_slope([5.0]) == 0.0
        assert deficit_slope([1.0, 7.0]) == 0.0  # tail of one point has no trend

    def test_deficit_state(self):
        # two frames in a row, the second starting from the first's result
        history = [np.zeros(2)]
        for a, c in (([3, 0], [1, 2]), ([0, 5], [4, 1])):
            history.append(update_deficit(history[-1], a, c))
        assert [h.tolist() for h in history[1:]] == [[2.0, 0.0], [0.0, 4.0]]


class TestFlowSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            flow(0, lam=-1.0)
        with pytest.raises(ConfigError):
            flow(0, q=1.2)
        with pytest.raises(ConfigError):
            flow(0, weight=0.0)
        with pytest.raises(ConfigError):
            flow(0, arrival_process="uniform")
        # every rule accepts only in-range values, so NaN never passes
        for bad in (dict(lam=np.nan), dict(lam=np.inf), dict(q=np.nan),
                    dict(weight=np.nan), dict(weight=np.inf)):
            with pytest.raises(ConfigError):
                flow(0, **bad)

    def test_bernoulli_arrivals_take_one_trial_per_slot(self):
        gen = np.random.default_rng(8)
        draws = np.array([flow(0, lam=2.0).sample_arrivals(10, gen) for _ in range(20_000)])
        assert draws.max() <= 10
        se = np.sqrt(10 * 0.2 * 0.8 / len(draws))
        assert abs(draws.mean() - 2.0) < 3 * se

    def test_rate_above_horizon_rejected(self):
        with pytest.raises(ConfigError, match="exceeds 10 Bernoulli trials"):
            flow(0, lam=20.0).check_arrivals(10)
        flow(0, lam=10.0).check_arrivals(10)
        flow(0, lam=20.0, arrival_process="poisson").check_arrivals(10)
        # checked once, before the first frame draws anything
        with pytest.raises(ConfigError, match="exceeds"):
            run_online([flow(0), flow(1, lam=20.0)], 5, 10, 0.1, RngSpec(1, 0))

    def test_poisson_arrivals(self):
        gen = np.random.default_rng(11)
        spec = flow(0, lam=4.0, arrival_process="poisson")
        draws = np.array([spec.sample_arrivals(10, gen) for _ in range(20_000)])
        assert draws.max() > 10  # unbounded support, unlike the batch process
        assert abs(draws.mean() - 4.0) < 3 * np.sqrt(4.0 / len(draws))


class TestStaticDual:
    def test_feasible_pair_keeps_multipliers_bounded(self):
        flows = [flow(0), flow(1)]
        trace = static_dual_iteration(flows, 10, 0.1, 500)
        assert trace.nu_hat.max() <= 2.0
        assert (trace.nu_hat[-1] <= 1.0).all()
        assert (trace.s_star.sum(axis=1) <= 10).all()
        # the whole-frame corner is optimal every round, so the served value
        # equals the saturated ten-slot curve value
        c10 = service_curve(flow(0), 10).values[10]
        assert trace.weighted_value([1.0, 1.0]) == pytest.approx(c10, abs=1e-9)

    def test_mu_rows_read_off_the_curve(self):
        flows = [flow(0), flow(1)]
        trace = static_dual_iteration(flows, 10, 0.1, 40)
        values = service_curve(flow(0), 10).values
        for it in (0, 17, 39):
            assert trace.mu_star[it].tolist() == [values[s] for s in trace.s_star[it]]

    def test_overloaded_pair_diverges(self):
        ch = ChannelModel.homogeneous(0.4, 20)
        flows = [flow(i, ch, lam=3.0, q=0.8) for i in range(2)]
        trace = static_dual_iteration(flows, 10, 0.1, 500)
        assert (trace.nu_hat[-1] > 100.0).all()
        for i in range(2):
            assert deficit_slope(trace.nu_hat[:, i]) > 0.5

    def test_weighted_value_arithmetic(self):
        flows = [flow(0), flow(1)]
        trace = static_dual_iteration(flows, 10, 0.1, 20)
        w = np.array([3.0, 1.0])
        start = 10  # trailing half of 20 iterations
        want = float((trace.mu_star[start:] @ w).mean())
        assert trace.weighted_value(w) == want

    def test_rejects_nonpositive_iterations(self):
        with pytest.raises(ConfigError):
            static_dual_iteration([flow(0)], 10, 0.1, 0)

    def test_rejects_duplicate_flow_ids(self):
        # the same flow list run_online rejects
        with pytest.raises(ConfigError, match="flow ids must be unique"):
            static_dual_iteration([flow(0), flow(0)], 10, 0.1, 5)


class TestRunOnline:
    def test_determinism(self):
        flows = [flow(0), flow(1)]
        a = run_online(flows, 60, 10, 0.1, RngSpec(44, 0))
        b = run_online(flows, 60, 10, 0.1, RngSpec(44, 0))
        assert np.array_equal(a.delivered, b.delivered)
        assert np.array_equal(a.nu_hat, b.nu_hat)
        assert np.array_equal(a.s_star, b.s_star)

    def test_frame_bookkeeping_invariants(self):
        flows = [flow(0), flow(1, lam=3.0, q=0.6)]
        trace = run_online(flows, 200, 10, 0.1, RngSpec(45, 0))
        assert trace.frames == 200
        assert (trace.delivered <= trace.arrivals).all()
        assert (trace.delivered <= trace.s_star).all()
        assert (trace.nu_hat >= 0).all()
        assert (trace.s_star.sum(axis=1) <= 10).all()
        assert (trace.s_star >= 0).all()

    def test_zero_requirement_never_builds_deficit(self):
        flows = [flow(0, q=0.0), flow(1, q=0.0)]
        trace = run_online(flows, 50, 10, 0.1, RngSpec(46, 0))
        assert (trace.nu_hat == 0).all()
        fixed = allocate_slots(flows, np.zeros(2), 0.1, 10, [service_curve(f, 10) for f in flows])
        assert (trace.s_star == fixed).all()

    def test_silent_flow_stays_silent(self):
        flows = [flow(0, lam=0.0), flow(1, lam=3.0, q=0.6)]
        trace = run_online(flows, 50, 10, 0.1, RngSpec(47, 0))
        assert (trace.arrivals[:, 0] == 0).all()
        assert (trace.delivered[:, 0] == 0).all()

    def test_feasible_pair_is_stable(self):
        flows = [flow(0), flow(1)]
        trace = run_online(flows, 2_000, 10, 0.1, RngSpec(103, 0))
        assert trace.is_stable()
        assert trace.nu_hat.max() < 20
        assert (trace.delivery_ratio() > 0.4).all()

    def test_trace_statistics_match_manual_arithmetic(self, monkeypatch):
        flows = [flow(0, weight=3.0), flow(1, lam=3.0, q=0.6)]
        trace = run_online(flows, 80, 10, 0.1, RngSpec(48, 0))
        rates = np.array([2.0, 3.0])
        assert np.allclose(trace.delivery_ratio(), trace.delivered.mean(axis=0) / rates)
        w = np.array([3.0, 1.0])
        assert trace.weighted_throughput() == pytest.approx(
            float(trace.delivered[40:].mean(axis=0) @ w)
        )
        assert trace.schedule_weighted_throughput() == pytest.approx(
            float(trace.schedule_value[40:].mean(axis=0) @ w)
        )
        slopes = trace.deficit_slopes()
        assert slopes.shape == (2,)
        monkeypatch.setattr(multiflow, "STABILITY_SLOPE", float(slopes.max()) + 1e-12)
        assert trace.is_stable()
        monkeypatch.setattr(multiflow, "STABILITY_SLOPE", float(slopes.min()) - 1e-12)
        assert not trace.is_stable()

    def test_schedule_value_reads_curves(self):
        flows = [flow(0), flow(1)]
        trace = run_online(flows, 30, 10, 0.1, RngSpec(49, 0))
        values = service_curve(flow(0), 10).values
        assert np.allclose(trace.schedule_value, values[trace.s_star])

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_online([flow(0), flow(0)], 10, 10, 0.1, RngSpec(1, 0))
        with pytest.raises(ConfigError):
            run_online([flow(0)], 0, 10, 0.1, RngSpec(1, 0))

    def test_rejects_an_empty_horizon(self):
        # checked before the arrival rules, which divide by the horizon
        with pytest.raises(ConfigError, match="horizon of at least 1 slot"):
            run_online([flow(0), flow(1)], 3, 0, 0.1, RngSpec(1))


class TestRateRegionSweep:
    def test_requirement_axis_grid(self):
        flows = [flow(i, lam=3.0, q=0.8) for i in range(2)]
        m = rate_region_sweep(flows, [0.01, 0.98], 10, 0.1, 400, RngSpec(52, 0))
        assert m.axis == "delivery_ratio"
        assert m.grid.tolist() == [0.01, 0.98]
        # a tiny mutual requirement is met; pushing either flow's requirement
        # past the arrival-limited service of a shared frame breaks it
        want = np.array([[True, False], [False, False]])
        assert np.array_equal(m.stable_nc, want)
        assert np.array_equal(m.stable_retx, want)

    def test_arrival_axis_corners(self):
        ch1 = ChannelModel.homogeneous(0.3, 1)
        flows = [flow(i, ch1, lam=3.0, q=0.45) for i in range(2)]
        m = rate_region_sweep(
            flows, [1.0, 9.0], 10, 0.1, 600, RngSpec(61, 0), axis="arrival_rate"
        )
        assert m.axis == "arrival_rate"
        assert m.stable_nc[0, 0] and m.stable_retx[0, 0]  # light load
        assert not m.stable_nc[1, 1] and not m.stable_retx[1, 1]  # overload

    def test_worker_pool_is_reproducible(self):
        ch1 = ChannelModel.homogeneous(0.3, 1)
        flows = [flow(i, ch1, lam=3.0, q=0.45) for i in range(2)]
        serial = rate_region_sweep(
            flows, [1.0, 9.0], 10, 0.1, 150, RngSpec(61, 0), axis="arrival_rate"
        )
        pooled = rate_region_sweep(
            flows, [1.0, 9.0], 10, 0.1, 150, RngSpec(61, 0), axis="arrival_rate", workers=2
        )
        assert np.array_equal(serial.stable_nc, pooled.stable_nc)
        assert np.array_equal(serial.stable_retx, pooled.stable_retx)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            rate_region_sweep([flow(0), flow(1)], [0.5], 10, 0.1, 50, RngSpec(1), workers=0)

    def test_checks_every_cell_before_running_one(self, monkeypatch):
        real = multiflow.run_online
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(multiflow, "run_online", counting)
        # cells (0, 0) and (0, 1) can run; (0, 2) asks 50 arrivals of 10 trials
        with pytest.raises(ConfigError, match="exceeds 10 Bernoulli trials"):
            rate_region_sweep(
                [flow(0), flow(1)], [1.0, 2.0, 50.0], 10, 0.1, 200, RngSpec(1),
                axis="arrival_rate",
            )
        assert calls == []

    def test_region_pairs_checks_each_grid_value_once(self, monkeypatch):
        real = FlowSpec.check_arrivals
        calls = []

        def counting(self, horizon):
            calls.append(self)
            return real(self, horizon)

        monkeypatch.setattr(FlowSpec, "check_arrivals", counting)
        grid = np.linspace(0.5, 9.5, 30)
        pairs = multiflow.region_pairs([flow(0), flow(1)], grid, "arrival_rate", 10)
        assert [(x.arrival_rate, y.arrival_rate) for x, y in pairs] == [
            (x, y) for x in grid for y in grid
        ]
        assert len(calls) <= 2 * len(grid)
        assert multiflow.region_pairs([flow(0), flow(1)], [], "arrival_rate", 0) == []

    def test_region_pairs_reject_as_a_row_by_row_check_of_every_pair(self):
        # a Bernoulli flow takes up to 10 arrivals a frame, a Poisson flow any
        # number: with two Bernoulli templates a bad value fails both, so the
        # message shows which was checked first, and a Poisson template lets
        # the other's failures show alone. Every grid of up to three values
        # must fail on the same flow and value as checking each pair in turn
        poisson = dict(arrival_process="poisson")
        for templates, n in itertools.product(
            [[flow(0), flow(1)], [flow(0), flow(1, **poisson)], [flow(0, **poisson), flow(1)]],
            range(4),
        ):
            for grid in itertools.product([1.0, 20.0, 30.0, 40.0], repeat=n):
                xs, ys = ([replace(f, arrival_rate=v) for v in grid] for f in templates)
                expected = None
                try:
                    for x in xs:
                        for y in ys:
                            multiflow.check_flows([x, y], 10)
                except ConfigError as exc:
                    expected = str(exc)
                try:
                    multiflow.region_pairs(templates, grid, "arrival_rate", 10)
                    got = None
                except ConfigError as exc:
                    got = str(exc)
                assert got == expected, (templates, grid)

    def test_validation(self):
        with pytest.raises(ConfigError):
            rate_region_sweep([flow(0)], [0.1], 10, 0.1, 10, RngSpec(1, 0))
        with pytest.raises(ConfigError):
            rate_region_sweep(
                [flow(0), flow(1)], [0.1], 10, 0.1, 10, RngSpec(1, 0), axis="weight"
            )
