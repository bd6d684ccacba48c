"""Frame simulation tests: reproducible slot draws, exact behaviour on
deterministic channels, bit-level agreement between the per-slot engine and
the batched engine, and Monte Carlo consistency with the planner's value."""

import concurrent.futures
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptnc

from adaptnc import (
    ChannelModel,
    ConfigError,
    LearningPolicy,
    OptimalPolicy,
    PolicyTable,
    RetransmissionPolicy,
    RngSpec,
    VarianceConstrainedPolicy,
    frame_bits,
    learning_run,
    monte_carlo_throughput,
    simulate_frame,
    solve_monotone,
)
from adaptnc.simulate import map_cells


def fixed_table(k_star):
    k = np.asarray(k_star, dtype=int)
    return PolicyTable(k_star=k, k_greedy=k.copy(), value=np.zeros(len(k)))


def _pieces(total, size):
    """Sizes of the consecutive runs of at most ``size`` that cover ``total``."""
    return [min(size, total - lo) for lo in range(0, total, size)]


def _record_batches(monkeypatch):
    """Record the size of each chunk the batch engine runs and of each draw
    block it fills, in two lists that the engine appends to."""
    from adaptnc import simulate

    chunks, blocks = [], []
    index, fill = simulate._reception_index, simulate.fill_streams

    def record_chunk(horizon, erasures, rng, csum, slot_of):
        chunks.append(len(csum))
        index(horizon, erasures, rng, csum, slot_of)

    def record_block(seed, stream, frames):
        blocks.append(len(frames))
        fill(seed, stream, frames)

    monkeypatch.setattr(simulate, "_reception_index", record_chunk)
    monkeypatch.setattr(simulate, "fill_streams", record_block)
    return chunks, blocks


def _split_batches(monkeypatch, horizon, n_receivers, rows, block=None):
    """Set the chunk rule's budget so that frames of this shape run ``rows``
    replications a chunk and, when given, ``block`` a draw block; record the
    sizes as ``_record_batches`` does."""
    from adaptnc import simulate

    monkeypatch.setattr(simulate, "_MIN_CHUNK", 1)
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", rows * (horizon + 1) * n_receivers)
    if block is not None:
        monkeypatch.setattr(simulate, "_DRAW_CELLS", block * horizon * n_receivers)
    return _record_batches(monkeypatch)


def rescore_trace(trace, bits) -> int:
    """Recompute delivered packets from the frame's reception bits,
    independently of the engine's bookkeeping: block j holds the slots from
    its start (horizon - its slots_left) to the next block's start, or to the
    last used slot, and is credited only when every receiver reached its size
    within them."""
    starts = [trace.horizon - t for t, _ in trace.decisions] + [trace.slots_used]
    delivered = 0
    for j, (_, k) in enumerate(trace.decisions):
        rows = bits[starts[j] : starts[j + 1]]
        if rows.size and (rows.sum(axis=0) >= k).all():
            delivered += k
    return delivered


def variance_tradeoff_run(sigma2_grid, channel, horizon, replications, rng) -> list[dict]:
    """Throughput/jitter frontier across completion-variance budgets, each
    budget on the same replication streams: one dict per budget with the
    applied block cap and the empirical mean and variance delivered."""
    out = []
    for sigma2 in sigma2_grid:
        pol = VarianceConstrainedPolicy(channel, horizon, float(sigma2))
        summary = monte_carlo_throughput(
            pol, horizon, backlog=horizon, channel=channel,
            replications=replications, rng=rng,
        )
        out.append(
            {
                "sigma2": float(sigma2),
                "k_cap": pol.k_cap,
                "mean": summary.mean,
                "stderr": summary.stderr,
                "variance": summary.variance,
            }
        )
    return out


class TestRngSpec:
    def test_same_spec_same_stream(self):
        a = RngSpec(seed=7, stream=3).generator().random(8)
        b = RngSpec(seed=7, stream=3).generator().random(8)
        assert (a == b).all()

    def test_distinct_streams_differ(self):
        a = RngSpec(seed=7, stream=0).generator().random(8)
        b = RngSpec(seed=7, stream=1).generator().random(8)
        assert not (a == b).all()

    def test_shifted_wraps_modulo_64_bits(self):
        spec = RngSpec(seed=1, stream=2**64 - 1)
        assert spec.shifted(2).stream == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RngSpec(seed=-1, stream=0)
        with pytest.raises(ValueError):
            RngSpec(seed=0, stream=2**64)


class TestFrameBits:
    def test_shape_and_determinism(self):
        erasures = (0.2, 0.5, 0.8)
        bits = frame_bits(RngSpec(11, 4), 9, erasures)
        again = frame_bits(RngSpec(11, 4), 9, erasures)
        assert bits.shape == (9, 3)
        assert bits.dtype == bool
        assert (bits == again).all()

    def test_marginals_match_erasure_rates(self):
        erasures = (0.2, 0.5, 0.8)
        n = 40_000
        bits = frame_bits(RngSpec(99, 0), n, erasures)
        for j, eps in enumerate(erasures):
            rate = bits[:, j].mean()  # reception rate = 1 - erasure
            se = np.sqrt(eps * (1 - eps) / n)
            assert abs(rate - (1 - eps)) < 3 * se, (j, rate)


class TestDeterministicChannels:
    def test_lossless_single_packets_deliver_everything(self):
        ch = ChannelModel.homogeneous(0.0, 3)
        policy = OptimalPolicy(solve_monotone(5, ch))
        trace = simulate_frame(policy, 5, 10, ch, RngSpec(1, 0))
        assert trace.delivered == 5
        assert trace.slots_used == 5
        assert trace.blocks_completed == 5
        assert trace.blocks_abandoned_at_deadline == 0
        assert [k for _, k in trace.decisions] == [1, 1, 1, 1, 1]

    def test_lossless_two_packet_blocks_complete_in_exactly_k_slots(self):
        ch = ChannelModel.homogeneous(0.0, 2)
        table = fixed_table([0, 1, 2, 2, 2, 2, 2])
        trace = simulate_frame(OptimalPolicy(table), 6, 10, ch, RngSpec(1, 0))
        assert trace.delivered == 6
        assert trace.blocks_completed == 3
        assert trace.decisions == [(6, 2), (4, 2), (2, 2)]

    def test_fully_erased_channel_delivers_nothing(self):
        ch = ChannelModel.homogeneous(1.0, 2)
        policy = OptimalPolicy(solve_monotone(6, ch))
        trace = simulate_frame(policy, 6, 10, ch, RngSpec(1, 0))
        assert trace.delivered == 0
        assert trace.blocks_completed == 0
        assert trace.blocks_abandoned_at_deadline == 1  # one block rides out the frame
        assert trace.slots_used == 6

    def test_backlog_exhaustion_stops_the_frame(self):
        ch = ChannelModel.homogeneous(0.0, 2)
        trace = simulate_frame(OptimalPolicy(solve_monotone(8, ch)), 8, 3, ch, RngSpec(1, 0))
        assert trace.delivered == 3
        assert trace.slots_used == 3

    def test_rejects_negative_arguments(self):
        ch = ChannelModel.homogeneous(0.5, 2)
        policy = OptimalPolicy(solve_monotone(4, ch))
        with pytest.raises(ValueError):
            simulate_frame(policy, -1, 3, ch, RngSpec(1, 0))
        with pytest.raises(ValueError):
            simulate_frame(policy, 4, -1, ch, RngSpec(1, 0))


class TestTraceBookkeeping:
    def test_identical_specs_reproduce_the_trace(self):
        ch = ChannelModel.homogeneous(0.4, 3)
        policy = OptimalPolicy(solve_monotone(10, ch))
        a = simulate_frame(policy, 10, 50, ch, RngSpec(42, 5))
        b = simulate_frame(policy, 10, 50, ch, RngSpec(42, 5))
        assert a == b

    def test_rescore_recovers_delivered_count(self):
        ch = ChannelModel((0.2, 0.6))
        policy = OptimalPolicy(solve_monotone(12, ch))
        for rep in range(30):
            trace = simulate_frame(policy, 12, 50, ch, RngSpec(7, rep))
            bits = frame_bits(RngSpec(7, rep), 12, ch.erasures)
            assert rescore_trace(trace, bits) == trace.delivered

    def test_slot_state_counts_down_from_horizon(self):
        # each block starts where the previous one completed, the slot where
        # its last receiver reached the block size; a block that never
        # completes rides out the frame
        ch = ChannelModel.homogeneous(0.5, 2)
        rng = RngSpec(4, 1)
        trace = simulate_frame(OptimalPolicy(solve_monotone(9, ch)), 9, 30, ch, rng)
        bits = frame_bits(rng, 9, ch.erasures)
        assert len(trace.decisions) > 1
        start = 0
        for t, k in trace.decisions:
            assert t == 9 - start
            done = np.cumsum(bits[start:], axis=0).min(axis=1) >= k
            start = start + int(done.argmax()) + 1 if done.any() else 9
        assert trace.slots_used == start


class TestEngineAgreement:
    def test_batched_and_stepped_engines_agree_bit_for_bit(self):
        # the vectorised scorer must reproduce the per-slot loop exactly on
        # shared random streams, not merely in distribution
        ch = ChannelModel.homogeneous(0.5, 2)
        lossy = ChannelModel.homogeneous(0.3, 2)
        cases = [
            (OptimalPolicy(solve_monotone(8, ch)), 8, 1_000, ch, 500),
            # a plan that proposes more packets than slots left: both engines
            # must commit the block clipped to the slots
            (OptimalPolicy(fixed_table([0, 5, 1])), 2, 5, lossy, 200),
        ]
        for policy, horizon, backlog, channel, reps in cases:
            stepped = np.array(
                [
                    simulate_frame(policy, horizon, backlog, channel, RngSpec(17, r)).delivered
                    for r in range(reps)
                ]
            )
            summary = monte_carlo_throughput(
                policy, horizon, backlog, channel, reps, RngSpec(17, 0), keep_samples=True
            )
            assert (summary.samples == stepped).all(), policy.plan.tolist()

    @pytest.mark.parametrize(
        "horizon, plan, erasures, reps",
        [
            (300, "retransmission", (0.0, 0.3, 0.6), 100),
            (300, "retransmission", (0.0, 0.4, 1.0), 80),
            (1000, "retransmission", (0.3, 0.3, 0.3), 30),
            (1000, "optimal", (0.3, 0.3, 0.3), 30),
            # short frames on both sides of the pattern-table cap
            (1, "retransmission", (0.0, 0.4, 1.0), 21_846),
            (12, "retransmission", (0.0, 0.4, 1.0), 1_821),
            (13, "retransmission", (0.0, 0.4, 1.0), 1_681),
            (12, "optimal", (0.1, 0.3, 0.6), 1_821),
            (13, "optimal", (0.1, 0.3, 0.6), 1_681),
        ],
    )
    def test_engines_agree_on_long_horizons(self, monkeypatch, horizon, plan, erasures, reps):
        # the reception index must replay the per-slot loop exactly far past
        # the short frames above and on both sides of the pattern-table cap,
        # across draw blocks and chunks, with a receiver that gets everything
        # and one that gets nothing
        from adaptnc import simulate

        ch = ChannelModel(erasures)
        if plan == "optimal":
            policy = OptimalPolicy(solve_monotone(horizon, ch))
        else:
            policy = RetransmissionPolicy(horizon)
        assert reps > simulate._DRAW_CELLS // (horizon * ch.n_receivers)
        rows, block = 7, 3
        for backlog in (0, 1, horizon, horizon + 2):
            stepped = [
                simulate_frame(policy, horizon, backlog, ch, RngSpec(23, 5 + r)).delivered
                for r in range(reps)
            ]
            summary = monte_carlo_throughput(
                policy, horizon, backlog, ch, reps, RngSpec(23, 5), keep_samples=True
            )
            assert summary.samples.tolist() == stepped, backlog
            with monkeypatch.context() as patch:
                chunks, blocks = _split_batches(patch, horizon, ch.n_receivers, rows, block)
                for count in (reps, rows - 1, rows, rows + 1):
                    chunks.clear()
                    blocks.clear()
                    summary = monte_carlo_throughput(
                        policy, horizon, backlog, ch, count, RngSpec(23, 5), keep_samples=True
                    )
                    assert summary.samples.tolist() == stepped[:count], (backlog, count)
                    # with no backlog there is nothing to draw
                    assert chunks == (_pieces(count, rows) if backlog else [])
                    assert blocks == [b for c in chunks for b in _pieces(c, block)]

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        horizon=st.integers(1, 12),
        rates=st.lists(
            st.sampled_from([0.0, 0.1, 0.35, 0.5, 0.8, 1.0]), min_size=1, max_size=8
        ).map(tuple),
        reps=st.integers(1, 150),
        rows=st.integers(1, 150),
        block=st.integers(1, 40),
        stream=st.integers(0, 2**64 - 1),
    )
    def test_pattern_tables_match_the_general_index(
        self, horizon, rates, reps, rows, block, stream
    ):
        # a short frame's index, read from the pattern tables chunk by chunk
        # and draw block by draw block, is the general path's index of the
        # whole run built in one call, bit for bit
        from adaptnc import simulate

        n = len(rates)
        rng = RngSpec(13, stream)
        shape = (reps, n, horizon + 1)
        whole = np.zeros(shape, dtype=np.uint8), np.empty(shape, dtype=np.uint8)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_PATTERN_SLOTS", 0)
            simulate._reception_index(horizon, rates, rng, *whole)

        steps, pieces = simulate._block_steps, []

        def record(rule, horizon, backlog, csum, slot_of):
            pieces.append((csum.copy(), slot_of.copy()))
            return steps(rule, horizon, backlog, csum, slot_of)

        with pytest.MonkeyPatch.context() as patch:
            chunks, blocks = _split_batches(patch, horizon, n, rows, block)
            patch.setattr(simulate, "_block_steps", record)
            monte_carlo_throughput(
                RetransmissionPolicy(horizon), horizon, 1, ChannelModel(rates), reps, rng
            )
        assert chunks == _pieces(reps, rows)
        assert blocks == [b for c in chunks for b in _pieces(c, block)]
        for got, want in zip(zip(*pieces), whole):
            assert np.concatenate(got).tobytes() == want.tobytes()
        # slot_of's last column, past the last possible reception, holds 0
        assert not whole[1][:, :, horizon].any()

    def test_chunked_batches_match_one_big_batch(self, monkeypatch):
        ch = ChannelModel.homogeneous(0.3, 2)
        policy = OptimalPolicy(solve_monotone(6, ch))
        with monkeypatch.context() as patch:
            chunks, _ = _record_batches(patch)
            whole = monte_carlo_throughput(
                policy, 6, 6, ch, 65537, RngSpec(8, 0), keep_samples=True
            )
            assert chunks == [65537]
        for rows in (1, 7, 64, 65536):
            with monkeypatch.context() as patch:
                chunks, blocks = _split_batches(patch, 6, 2, rows)
                for count in sorted({300, rows - 1, rows, rows + 1} - {0}):
                    chunks.clear()
                    blocks.clear()
                    pieces = monte_carlo_throughput(
                        policy, 6, 6, ch, count, RngSpec(8, 0), keep_samples=True
                    )
                    assert (pieces.samples == whole.samples[:count]).all(), (rows, count)
                    assert chunks == _pieces(count, rows)
                    assert len(blocks) >= len(chunks)

    @pytest.mark.parametrize("replications", [4_000, 40_000])
    def test_batch_working_set_is_bounded(self, replications):
        # chunks take a fixed budget of (slot, receiver) cells, so the peak
        # stays put when the replication count grows tenfold; holding a whole
        # run's reception index would take 15 MiB per 4 000 replications
        ch = ChannelModel.homogeneous(0.3, 20)
        policy = OptimalPolicy(solve_monotone(100, ch))
        tracemalloc.start()
        try:
            monte_carlo_throughput(policy, 100, 100, ch, replications, RngSpec(9, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_mid_frame_zero_block_is_rejected(self):
        ch = ChannelModel.homogeneous(0.5, 1)
        table = fixed_table([0, 1, 0, 1])  # plans an empty block at t=2
        with pytest.raises(ValueError, match="empty block mid-frame"):
            monte_carlo_throughput(OptimalPolicy(table), 3, 10, ch, 64, RngSpec(5, 0))
        # the per-frame engine refuses the same plan: stream 4's first slot
        # is received, so its first block completes and leaves t=2
        with pytest.raises(ValueError, match="empty block mid-frame"):
            simulate_frame(OptimalPolicy(table), 3, 10, ch, RngSpec(5, 4))


class TestMonteCarloThroughput:
    def test_mean_matches_planner_value_small_horizon(self):
        ch = ChannelModel.homogeneous(0.5, 1)
        table = solve_monotone(3, ch)
        summary = monte_carlo_throughput(OptimalPolicy(table), 3, 3, ch, 100_000, RngSpec(23, 0))
        assert abs(summary.mean - table.value[3]) < 4 * summary.stderr
        assert summary.stderr < 0.01

    def test_summary_statistics_are_consistent(self):
        ch = ChannelModel.homogeneous(0.4, 2)
        policy = OptimalPolicy(solve_monotone(6, ch))
        summary = monte_carlo_throughput(
            policy, 6, 6, ch, 2_000, RngSpec(31, 0), keep_samples=True
        )
        assert summary.replications == 2_000
        assert summary.mean == pytest.approx(summary.samples.mean())
        assert summary.variance == pytest.approx(summary.samples.var(ddof=1))
        assert summary.stderr == pytest.approx(np.sqrt(summary.variance / 2_000))
        assert summary.histogram.sum() == 2_000
        assert len(summary.histogram) >= 7  # delivered can reach min(T, backlog) = 6
        counts = np.bincount(summary.samples, minlength=7)
        assert (summary.histogram[:7] == counts[:7]).all()

    def test_single_replication(self):
        ch = ChannelModel.homogeneous(0.4, 2)
        summary = monte_carlo_throughput(
            OptimalPolicy(solve_monotone(4, ch)), 4, 4, ch, 1, RngSpec(2, 0)
        )
        assert summary.replications == 1
        assert summary.stderr == 0.0
        assert summary.samples is None

    def test_rejects_nonpositive_replications(self):
        ch = ChannelModel.homogeneous(0.4, 2)
        with pytest.raises(ValueError):
            monte_carlo_throughput(
                OptimalPolicy(solve_monotone(4, ch)), 4, 4, ch, 0, RngSpec(2, 0)
            )

    def test_rejects_negative_horizon_and_backlog(self):
        ch = ChannelModel.homogeneous(0.4, 2)
        for policy in (OptimalPolicy(solve_monotone(4, ch)), RetransmissionPolicy(4)):
            for horizon, backlog in ((-1, 4), (4, -1)):
                with pytest.raises(ValueError, match="must be non-negative"):
                    monte_carlo_throughput(policy, horizon, backlog, ch, 8, RngSpec(2, 0))

    def test_retransmission_matches_single_packet_planner(self):
        # repeating one packet at a time is the k_cap=1 plan, so its Monte
        # Carlo mean must sit on that restricted planner's value
        ch = ChannelModel.homogeneous(0.6, 2)
        value = solve_monotone(5, ch, k_cap=1).value[5]
        summary = monte_carlo_throughput(RetransmissionPolicy(5), 5, 1_000, ch, 4_000, RngSpec(3, 0))
        assert abs(summary.mean - value) < 4 * summary.stderr

    def test_learning_policy_batch_matches_fresh_frames(self):
        # the learning policy runs through the batch engine on estimate
        # paths; every replication must be the per-frame run of a fresh
        # policy on its stream, and the call leaves the policy reset with
        # its solved plans cached
        ch = ChannelModel.homogeneous(0.2, 3)
        policy = LearningPolicy(n_receivers=3, horizon=5)
        policy.observe_slot(0, 3)
        summary = monte_carlo_throughput(policy, 5, 5, ch, 50, RngSpec(21, 0), keep_samples=True)
        by_hand = []
        for r in range(50):
            fresh = LearningPolicy(n_receivers=3, horizon=5)
            by_hand.append(simulate_frame(fresh, 5, 5, ch, RngSpec(21, r)).delivered)
        assert summary.samples.tolist() == by_hand
        assert summary.mean == pytest.approx(np.mean(by_hand))
        assert policy.slots_observed == 0 and policy.decision_log == []
        assert policy.eps_hat == policy.eps_hat_prev == policy.eps_init
        assert policy._tables

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        horizon=st.integers(0, 30),
        rates=st.one_of(
            st.tuples(st.sampled_from([0.0, 0.1, 0.35, 0.7, 1.0]), st.integers(1, 8)).map(
                lambda pair: (pair[0],) * pair[1]
            ),
            st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.55, 0.9, 1.0]), min_size=1, max_size=8).map(
                tuple
            ),
        ),
        backlog_share=st.floats(0.0, 1.0),
        delta=st.sampled_from([0.0, 0.05, 1.0]),
        eps_init=st.sampled_from([0.0, 0.5, 1.0]),
        reps=st.integers(1, 200),
        rows=st.integers(1, 200),
        stream=st.integers(0, 2**40),
    )
    def test_learning_batch_replays_fresh_frames(
        self, horizon, rates, backlog_share, delta, eps_init, reps, rows, stream
    ):
        # chunks of ``rows`` replications, so the counts cross chunk edges
        from adaptnc import simulate

        backlog = round(backlog_share * horizon)
        ch = ChannelModel(rates)
        n = len(rates)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_MIN_CHUNK", 1)
            patch.setattr(simulate, "_CHUNK_CELLS", rows * (horizon + 1) * n)
            summary = monte_carlo_throughput(
                LearningPolicy(n, horizon, delta, eps_init), horizon, backlog, ch, reps,
                RngSpec(5, stream), keep_samples=True,
            )
        for r in range(reps):
            fresh = LearningPolicy(n, horizon, delta, eps_init)
            trace = simulate_frame(fresh, horizon, backlog, ch, RngSpec(5, stream).shifted(r))
            assert summary.samples[r] == trace.delivered, r

    @pytest.mark.parametrize("backlog", [0, 4, 5])
    def test_learning_errors_match_the_per_frame_engine(self, backlog):
        # a frame longer than the policy's horizon fails alike in the three
        # engines, whatever the backlog; a channel with another receiver
        # count fails alike once a slot is played, and none fails at backlog
        # 0; a negative backlog fails with simulate_frame's message.
        # learning_run batches its frames at backlog 5 and runs them one by
        # one below it
        ch = ChannelModel.homogeneous(0.3, 2)
        engines = (
            lambda policy, horizon, m=backlog: simulate_frame(
                policy, horizon, m, ch, RngSpec(4, 0)
            ),
            lambda policy, horizon, m=backlog: monte_carlo_throughput(
                policy, horizon, m, ch, 3, RngSpec(4, 0)
            ),
            lambda policy, horizon, m=backlog: learning_run(
                policy, 3, horizon, ch, RngSpec(4, 0), m
            ),
        )
        for run in engines:
            with pytest.raises(ValueError, match="^horizon and backlog must be non-negative$"):
                run(LearningPolicy(2, 5), 5, -1)
            with pytest.raises(ConfigError, match="^learning plan built to horizon 5, frame needs 6$"):
                run(LearningPolicy(2, 5), 6)
            if backlog:
                with pytest.raises(
                    ValueError, match="^learning policy plans for 3 receivers, the channel has 2$"
                ):
                    run(LearningPolicy(3, 5), 5)
            else:
                run(LearningPolicy(3, 5), 5)


def _learning_run_frame_by_frame(policy, frames, horizon, channel, rng, backlog):
    """``learning_run`` as a loop of ``simulate_frame`` calls on one policy."""
    records = []
    for k in range(frames):
        mark = len(policy.decision_log)
        trace = simulate_frame(policy, horizon, backlog, channel, rng.shifted(k))
        ramp = any(row[2] for row in policy.decision_log[mark:])
        records.append({
            "frame": k, "eps_hat": float(policy.eps_hat), "delivered": trace.delivered,
            "mode": "ramp" if ramp else "stable",
        })
    return records


def _learning_state(policy):
    return (policy.eps_hat, policy.eps_hat_prev, policy.slots_observed, policy.last_block,
            policy.decision_log)


class TestLearningRun:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        horizon=st.integers(0, 20),
        rates=st.one_of(
            st.tuples(st.sampled_from([0.0, 0.1, 0.35, 0.7, 1.0]), st.integers(1, 6)).map(
                lambda pair: (pair[0],) * pair[1]
            ),
            st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.55, 0.9, 1.0]), min_size=1, max_size=6).map(
                tuple
            ),
        ),
        backlog_shift=st.integers(-4, 3),
        delta=st.sampled_from([0.0, 1e-3, 0.05, 1.0]),
        eps_init=st.sampled_from([0.0, 0.5, 1.0]),
        frames=st.lists(st.integers(1, 40), min_size=2, max_size=2),
        rows=st.integers(1, 30),
        stream=st.integers(0, 2**40),
    )
    def test_batched_run_replays_the_frame_by_frame_run(
        self, horizon, rates, backlog_shift, delta, eps_init, frames, rows, stream
    ):
        # two runs on one policy, the second carrying the first's state, in
        # chunks of ``rows`` frames so that chunk edges fall inside the runs;
        # records, their types and the policy's state must be those of the
        # frame-by-frame run, whether the backlog lets frames batch or not
        from adaptnc import simulate

        backlog = max(0, horizon + backlog_shift)
        ch = ChannelModel(rates)
        n = len(rates)
        batched = LearningPolicy(n, horizon, delta, eps_init)
        reference = LearningPolicy(n, horizon, delta, eps_init)
        for run, count in enumerate(frames):
            rng = RngSpec(9, stream).shifted(1000 * run)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(simulate, "_MIN_CHUNK", 1)
                patch.setattr(simulate, "_CHUNK_CELLS", rows * (horizon + 1) * n)
                records = learning_run(batched, count, horizon, ch, rng, backlog)
            expected = _learning_run_frame_by_frame(reference, count, horizon, ch, rng, backlog)
            assert repr(records) == repr(expected), run
            assert repr(_learning_state(batched)) == repr(_learning_state(reference)), run

    @pytest.mark.parametrize(
        "horizon, erasure, receivers, eps_init, one_by_one",
        [
            # no erasures and a guess of 1: the estimate after s slots is
            # 1/(s + 1), so the slot before frame 1 moves it by 1/12 and the
            # one before frame 2 by 1/42
            (3, 0.0, 1, 1.0, 2),
            # the benchmark's run: the estimate starts where the channel is
            (10, 0.35, 10, 0.5, 0),
        ],
    )
    def test_frames_after_the_warm_up_run_in_one_batch(
        self, monkeypatch, horizon, erasure, receivers, eps_init, one_by_one
    ):
        # with delta 0.05 only the first frames can see a moving estimate at
        # their first decision; they run one by one, the rest in one batch
        from adaptnc import simulate

        calls = {"frames": 0, "batches": []}
        block_steps, frame = simulate._block_steps, simulate.simulate_frame

        def count_batch(rule, horizon, backlog, csum, slot_of):
            calls["batches"].append(len(csum))
            return block_steps(rule, horizon, backlog, csum, slot_of)

        def count_frame(*args):
            calls["frames"] += 1
            return frame(*args)

        monkeypatch.setattr(simulate, "_block_steps", count_batch)
        monkeypatch.setattr(simulate, "simulate_frame", count_frame)
        ch = ChannelModel.homogeneous(erasure, receivers)
        policy = LearningPolicy(receivers, horizon, 0.05, eps_init)
        learning_run(policy, 300, horizon, ch, RngSpec(3, 0))
        assert calls == {"frames": one_by_one, "batches": [300 - one_by_one]}

    def test_records_and_modes(self):
        ch = ChannelModel.homogeneous(0.3, 4)
        policy = LearningPolicy(n_receivers=4, horizon=6, delta=0.05, eps_init=0.5)
        records = learning_run(policy, 20, 6, ch, RngSpec(88, 0))
        assert len(records) == 20
        assert [r["frame"] for r in records] == list(range(20))
        assert all(r["mode"] in ("ramp", "stable") for r in records)
        assert records[0]["mode"] == "ramp"  # the estimate moves immediately
        assert all(0.0 <= r["eps_hat"] <= 1.0 for r in records)
        assert all(0 <= r["delivered"] <= 6 for r in records)

    def test_estimate_drifts_toward_truth(self):
        ch = ChannelModel.homogeneous(0.3, 10)
        policy = LearningPolicy(n_receivers=10, horizon=10, delta=0.05, eps_init=0.5)
        records = learning_run(policy, 50, 10, ch, RngSpec(2024, 0))
        assert abs(records[-1]["eps_hat"] - 0.3) < abs(records[0]["eps_hat"] - 0.3)
        assert abs(records[-1]["eps_hat"] - 0.3) < 0.05

    def test_determinism(self):
        ch = ChannelModel.homogeneous(0.3, 4)

        def run():
            policy = LearningPolicy(n_receivers=4, horizon=6, delta=0.05, eps_init=0.5)
            records = learning_run(policy, 15, 6, ch, RngSpec(12, 0))
            return [(r["delivered"], r["eps_hat"]) for r in records]

        assert run() == run()

    def test_rejects_nonpositive_frames(self):
        ch = ChannelModel.homogeneous(0.3, 4)
        with pytest.raises(ValueError):
            learning_run(
                LearningPolicy(n_receivers=4, horizon=6), 0, 6, ch, RngSpec(1, 0)
            )


class TestVarianceTradeoff:
    def test_unbounded_budget_reproduces_unconstrained_run(self):
        ch = ChannelModel.homogeneous(0.5, 2)
        rows = variance_tradeoff_run([1e9], ch, 8, 2_000, RngSpec(6, 0))
        policy = OptimalPolicy(solve_monotone(8, ch))
        base = monte_carlo_throughput(policy, 8, 8, ch, 2_000, RngSpec(6, 0))
        assert rows[0]["mean"] == base.mean
        assert rows[0]["variance"] == base.variance

    def test_mean_near_planner_value(self):
        ch = ChannelModel.homogeneous(0.5, 2)
        rows = variance_tradeoff_run([1e9], ch, 8, 20_000, RngSpec(6, 0))
        value = solve_monotone(8, ch).value[8]
        assert abs(rows[0]["mean"] - value) < 3 * rows[0]["stderr"] + 1e-9

    def test_budgets_span_block_caps_and_trade_throughput(self):
        # budgets bracket the measured completion second moments at eps=0.1,
        # N=5 (2.51, 8.38, 17.24 for blocks 1..3) so each admits one more
        # block; looser budgets buy strictly more planner value, and every
        # empirical mean sits on its own restricted planner value
        ch = ChannelModel.homogeneous(0.1, 5)
        budgets = [2.6, 9.0, 18.0, 1e9]
        rows = variance_tradeoff_run(budgets, ch, 10, 20_000, RngSpec(14, 0))
        caps = [r["k_cap"] for r in rows]
        assert caps == [1, 2, 3, 10]
        values = [solve_monotone(10, ch, k_cap=c).value[10] for c in caps]
        assert values == sorted(values) and values[0] < values[-1]
        for row, value in zip(rows, values):
            assert abs(row["mean"] - value) < 4 * row["stderr"] + 1e-9, (row, value)

    def test_rows_echo_budgets(self):
        ch = ChannelModel.homogeneous(0.4, 3)
        rows = variance_tradeoff_run([0.5, 40.0], ch, 6, 200, RngSpec(9, 0))
        assert [r["sigma2"] for r in rows] == [0.5, 40.0]
        assert rows[0]["k_cap"] == 0  # hopeless budget falls back to single packets
        assert rows[0]["mean"] > 0.0


class TestMapCells:
    def test_never_more_processes_than_cells(self, monkeypatch):
        # a stand-in pool that records its size and maps in this process,
        # so no worker process starts whatever worker count is asked for
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, initializer=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cells = [(i, 10) for i in range(3)]
        assert map_cells(pow, cells, 64) == [0, 1, 1024]
        assert sizes == [3]
        assert map_cells(pow, iter(cells), 2) == [0, 1, 1024]
        assert sizes == [3, 2]
        # one cell, or none, runs in this process
        assert map_cells(pow, [(2, 3)], 64) == [8]
        assert map_cells(pow, [], 64) == []
        assert sizes == [3, 2]

    def test_workers_raise_on_float_faults_under_spawn(self):
        # a spawned worker starts with numpy's default error state; the pool
        # must hand it the caller's, as a forked worker inherits it
        script = (
            "import multiprocessing\n"
            "import numpy as np\n"
            "from adaptnc.simulate import map_cells\n"
            "multiprocessing.set_start_method('spawn')\n"
            "with np.errstate(divide='raise'):\n"
            "    try:\n"
            "        map_cells(np.log, [(np.zeros(1),)] * 2, 2)\n"
            "    except FloatingPointError:\n"
            "        print('FloatingPointError')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(adaptnc.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == "FloatingPointError\n", run.stderr
