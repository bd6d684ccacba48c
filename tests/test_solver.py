"""Planning-table tests: hand-derived instances, oracle equivalence of the
windowed solver against exhaustive search, structural monotonicity, the
greedy/conservative baselines, and the retransmission threshold."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptnc import (
    ChannelModel,
    ConservativePolicy,
    DecodingTable,
    expected_completion_time,
    retransmission_threshold,
    solve_bruteforce,
    solve_monotone,
)
from adaptnc.search import argmax_unimodal, bisect_root, golden_max


def linear_argmax(f, lo: int, hi: int) -> int:
    """Plain linear-scan smallest argmax, the oracle for the golden search."""
    best, fbest = lo, f(lo)
    for x in range(lo + 1, hi + 1):
        fx = f(x)
        if fx > fbest:
            best, fbest = x, fx
    return best


def greedy_block_size(t: int, channel, k_cap: int | None = None) -> int:
    """Block size maximizing the single-shot reward k * decode_prob(k, t)."""
    if t < 1:
        raise ValueError("t must be at least 1")
    bound = max(1, min(t, k_cap)) if k_cap is not None else t
    row = DecodingTable(channel, t).values[:, t]
    return argmax_unimodal(lambda k: k * row[k], 1, bound)


class TestHandDerivedTable:
    """Three slots, one receiver, half the packets erased: small enough to
    run the backward induction by hand, and exact in binary arithmetic."""

    def test_values_and_decisions(self):
        table = solve_bruteforce(3, ChannelModel.homogeneous(0.5, 1))
        assert list(table.value) == [0.0, 0.5, 1.0, 1.5]
        assert list(table.k_star) == [0, 1, 1, 1]
        assert table.k_greedy[3] == 2

    def test_windowed_solver_agrees(self):
        brute = solve_bruteforce(3, ChannelModel.homogeneous(0.5, 1))
        mono = solve_monotone(3, ChannelModel.homogeneous(0.5, 1))
        assert list(mono.value) == list(brute.value)
        assert list(mono.k_star) == list(brute.k_star)

    def test_horizon_zero(self):
        table = solve_bruteforce(0, ChannelModel.homogeneous(0.3, 2))
        assert list(table.k_star) == [0]
        assert list(table.value) == [0.0]
        assert list(table.k_greedy) == [0]

    def test_rejects_negative_horizon(self):
        ch = ChannelModel.homogeneous(0.3, 2)
        with pytest.raises(ValueError):
            solve_bruteforce(-1, ch)
        with pytest.raises(ValueError):
            solve_monotone(-1, ch)


class TestOracleEquivalence:
    def test_windowed_equals_bruteforce_on_grid(self):
        for eps in (0.1, 0.4, 0.7, 0.9):
            for n in (1, 2, 5):
                ch = ChannelModel.homogeneous(eps, n)
                brute = solve_bruteforce(12, ch)
                mono = solve_monotone(12, ch)
                assert np.max(np.abs(mono.value - brute.value)) < 1e-10, (eps, n)
                assert (mono.k_star == brute.k_star).all(), (eps, n)
                assert (mono.k_greedy == brute.k_greedy).all(), (eps, n)

    def test_heterogeneous_channel(self):
        ch = ChannelModel(erasures=(0.1, 0.35, 0.6))
        brute = solve_bruteforce(10, ch)
        mono = solve_monotone(10, ch)
        assert np.allclose(mono.value, brute.value, atol=1e-10)
        assert (mono.k_star == brute.k_star).all()

    def test_windowed_evaluation_count_matches_window_arithmetic(self):
        # the windowed solver must touch exactly the advertised action window
        # [max(1, K*_{t-1}), min(K_hat_t, t)] at every state
        table = solve_monotone(20, ChannelModel.homogeneous(0.2, 5))
        expected = 0
        for t in range(1, 21):
            lo = max(1, int(table.k_star[t - 1]))
            hi = min(t, int(table.k_greedy[t]))
            expected += max(hi, lo) - lo + 1
        assert table.stats["bellman_evals"] == expected

    def test_windowed_fewer_evaluations(self):
        ch = ChannelModel.homogeneous(0.3, 5)
        assert (
            solve_monotone(25, ch).stats["bellman_evals"]
            < solve_bruteforce(25, ch).stats["bellman_evals"]
        )


class TestStructuralProperties:
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_monotone_structure(self, eps, n):
        table = solve_monotone(15, ChannelModel.homogeneous(eps, n))
        k, g, v = table.k_star, table.k_greedy, table.value
        assert k[0] == 0 and v[0] == 0.0
        assert (np.diff(k) >= 0).all()  # optimum never shrinks with slack
        assert (k[1:] <= g[1:]).all()  # optimum never exceeds greedy
        assert (np.diff(g) >= 0).all()  # greedy non-decreasing
        assert (np.diff(v) >= -1e-12).all()  # value non-decreasing
        assert (v <= np.arange(16) + 1e-9).all()  # at most one packet per slot
        assert k[1] == 1 and k[2] == 1  # shortest horizons take one packet

    def test_single_receiver_always_one_packet(self):
        for eps in (0.1, 0.5, 0.9):
            table = solve_monotone(20, ChannelModel.homogeneous(eps, 1))
            assert (table.k_star[1:] == 1).all(), eps

    def test_better_channel_bigger_blocks(self):
        good = solve_monotone(10, ChannelModel.homogeneous(0.2, 5))
        bad = solve_monotone(10, ChannelModel.homogeneous(0.5, 5))
        assert (good.k_star >= bad.k_star).all()
        assert (good.value >= bad.value - 1e-12).all()

    def test_reward_curve_unimodal(self):
        # no interior local minimum in K -> K * P(K, t), for every state
        for eps in (0.1, 0.5, 0.9):
            for n in (1, 2, 5, 10):
                table = DecodingTable(ChannelModel.homogeneous(eps, n), 15)
                for t in range(1, 16):
                    r = np.arange(t + 1) * table.values[: t + 1, t]
                    d = np.diff(r)
                    falling = False
                    for step in d:
                        if step < -1e-15:
                            falling = True
                        elif step > 1e-15:
                            assert not falling, (eps, n, t)

    def test_greedy_bound_propagates(self):
        # once the single-shot reward decreases at K, no smaller state ever
        # prefers a greedy block larger than K
        ch = ChannelModel.homogeneous(0.4, 3)
        t = 12
        table = solve_monotone(t, ch)
        row = DecodingTable(ch, t).values[:, t]
        r = np.arange(t + 1) * row
        drops = np.nonzero(np.diff(r[1:]) < 0)[0]
        if drops.size:
            k_first_drop = int(drops[0]) + 1
            assert (table.k_greedy[1 : t + 1] <= k_first_drop).all()


class TestBlockCaps:
    def test_scalar_cap_honored(self):
        table = solve_monotone(10, ChannelModel.homogeneous(0.1, 5), k_cap=2)
        assert (table.k_star[1:] <= 2).all()
        assert (table.k_star[1:] >= 1).all()

    def test_capped_solvers_agree(self):
        ch = ChannelModel.homogeneous(0.2, 5)
        brute = solve_bruteforce(12, ch, k_cap=3)
        mono = solve_monotone(12, ch, k_cap=3)
        assert np.allclose(mono.value, brute.value, atol=1e-10)
        assert (mono.k_star == brute.k_star).all()

    def test_capped_table_stays_monotone(self):
        table = solve_monotone(12, ChannelModel.homogeneous(0.2, 5), k_cap=3)
        assert (np.diff(table.k_star) >= 0).all()
        assert (table.k_star[1:] <= table.k_greedy[1:]).all()

    def test_per_state_cap_vector(self):
        caps = np.array([0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3])
        table = solve_monotone(10, ChannelModel.homogeneous(0.1, 5), k_cap=caps)
        assert (table.k_star <= np.maximum(caps, 1)).all()

    def test_zero_cap_still_transmits(self):
        # a cap below one packet must not silence the frame
        table = solve_monotone(5, ChannelModel.homogeneous(0.3, 2), k_cap=0)
        assert (table.k_star[1:] == 1).all()

    def test_wrong_cap_length(self):
        with pytest.raises(ValueError):
            solve_monotone(5, ChannelModel.homogeneous(0.3, 2), k_cap=np.ones(3, dtype=int))


class TestGreedyBlockSize:
    def test_point_values(self):
        ch1 = ChannelModel.homogeneous(0.5, 1)
        assert greedy_block_size(3, ch1) == 2
        assert greedy_block_size(2, ch1) == 1
        assert greedy_block_size(1, ChannelModel.homogeneous(0.9, 7)) == 1

    def test_matches_linear_scan(self):
        for eps in (0.05, 0.2, 0.5, 0.8):
            for n in (1, 2, 5, 10):
                ch = ChannelModel.homogeneous(eps, n)
                for t in (1, 2, 3, 7, 15, 40):
                    row = DecodingTable(ch, t).values[:, t]
                    want = linear_argmax(lambda k: k * row[k], 1, t)
                    assert greedy_block_size(t, ch) == want, (eps, n, t)

    def test_cap_respected(self):
        ch = ChannelModel.homogeneous(0.05, 5)
        uncapped = greedy_block_size(20, ch)
        assert uncapped > 3
        assert greedy_block_size(20, ch, k_cap=3) == 3

    def test_rejects_empty_horizon(self):
        with pytest.raises(ValueError):
            greedy_block_size(0, ChannelModel.homogeneous(0.5, 1))


def block_at(t: int, channel: ChannelModel) -> int:
    """The conservative plan's block with t slots left, from a plan built to
    exactly that horizon."""
    return int(ConservativePolicy(channel, t).plan[t])


class TestConservativeBlockSize:
    def test_point_values(self):
        ch1 = ChannelModel.homogeneous(0.5, 1)
        # one packet takes 2 expected slots; two packets take 4 > 2
        assert expected_completion_time(1, ch1) == pytest.approx(2.0, abs=1e-6)
        assert expected_completion_time(2, ch1) > 2.0
        assert block_at(2, ch1) == 1
        assert block_at(1, ChannelModel.homogeneous(0.0, 1)) == 1

    def test_fallback_when_nothing_fits(self):
        # the mean completion of even one packet exceeds the horizon, but the
        # baseline still transmits something
        ch = ChannelModel.homogeneous(0.9, 10)
        assert expected_completion_time(1, ch) > 5
        assert block_at(5, ch) == 1

    def test_definition_on_grid(self):
        for eps in (0.1, 0.4):
            for n in (1, 3):
                ch = ChannelModel.homogeneous(eps, n)
                plan = ConservativePolicy(ch, 10).plan
                for t in (1, 3, 6, 10):
                    k = int(plan[t])
                    assert k == block_at(t, ch)
                    assert expected_completion_time(k, ch) <= t + 1e-6 or k == 1
                    if k < t:
                        assert expected_completion_time(k + 1, ch) > t

    def test_divergent_channel_falls_back(self):
        assert block_at(4, ChannelModel(erasures=(1.0,))) == 1

    def test_rejects_empty_horizon(self):
        # a plan to horizon 0 holds only the silent state; a negative
        # horizon is an error, as in solve_monotone
        assert ConservativePolicy(ChannelModel.homogeneous(0.5, 1), 0).plan.tolist() == [0]
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            ConservativePolicy(ChannelModel.homogeneous(0.5, 1), -1)


class TestRetransmissionThreshold:
    def test_closed_form_two_slots(self):
        # with t=2, N=1 the crossover solves 1 + eps = 2 (1 - eps)
        assert retransmission_threshold(2, 1) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_monotone_in_horizon_and_receivers(self):
        values = {
            (t, n): retransmission_threshold(t, n)
            for t in range(2, 31)
            for n in (1, 2, 5, 10)
        }
        for n in (1, 2, 5, 10):
            col = [values[(t, n)] for t in range(2, 31)]
            assert (np.diff(col) > 0).all(), n
        for t in (2, 10, 30):
            row = [values[(t, n)] for n in (1, 2, 5, 10)]
            assert (np.diff(row) < 0).all(), t

    def test_threshold_is_a_root(self):
        # above the threshold a single packet beats a pair, below it loses
        for t, n in [(2, 1), (5, 3), (10, 10)]:
            eps = retransmission_threshold(t, n)
            ch_hi = ChannelModel.homogeneous(min(eps + 1e-3, 1.0), n)
            ch_lo = ChannelModel.homogeneous(max(eps - 1e-3, 0.0), n)
            row_hi = DecodingTable(ch_hi, t).values[:, t]
            row_lo = DecodingTable(ch_lo, t).values[:, t]
            assert 1 * row_hi[1] > 2 * row_hi[2]
            assert 1 * row_lo[1] < 2 * row_lo[2]

    def test_tables_switch_to_single_packets_above_threshold(self):
        for t, n in [(5, 2), (10, 5)]:
            eps = min(retransmission_threshold(t, n) + 0.03, 0.999)
            table = solve_monotone(t, ChannelModel.homogeneous(eps, n))
            assert (table.k_star[1:] == 1).all(), (t, n)

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValueError):
            retransmission_threshold(1, 1)
        with pytest.raises(ValueError):
            retransmission_threshold(5, 0)


class TestPolicyTableCsv:
    def test_table_is_frozen(self):
        table = solve_monotone(4, ChannelModel.homogeneous(0.5, 1))
        with pytest.raises(ValueError):
            table.k_star[1] = 7
        with pytest.raises(ValueError):
            table.value[1] = 7.0


class TestSearchUtilities:
    def test_argmax_point_cases(self):
        seq = [1.0, 3.0, 9.0, 4.0, 2.0]
        assert argmax_unimodal(lambda x: seq[x], 0, 4) == 2
        # plateau resolves to the smallest index
        assert argmax_unimodal(lambda x: 1.0, 3, 20) == 3
        assert argmax_unimodal(lambda x: float(x), 0, 15) == 15
        assert argmax_unimodal(lambda x: -float(x), 0, 15) == 0
        with pytest.raises(ValueError):
            argmax_unimodal(lambda x: 0.0, 4, 3)

    @given(
        peak=st.integers(0, 60),
        hi=st.integers(0, 60),
        width=st.floats(2.5, 20.0, allow_nan=False),
    )
    @settings(deadline=None, derandomize=True)
    def test_argmax_matches_linear_scan(self, peak, hi, width):
        # log-concave bumps with arbitrary peaks; widths keep the tails away
        # from float underflow, which would void the value-ratio contract
        f = lambda x: math.exp(-(((x - peak) / width) ** 2))
        got = argmax_unimodal(f, 0, hi)
        assert got == linear_argmax(f, 0, hi)

    def test_golden_max_on_parabola(self):
        top = golden_max(lambda x: -(x - 0.37) ** 2, 0.0, 1.0)
        assert abs(top - 0.37) < 1e-6

    def test_bisect_root(self):
        assert bisect_root(lambda x: x - 0.25, 0.0, 1.0) == pytest.approx(0.25, abs=1e-9)
        with pytest.raises(ValueError):
            bisect_root(lambda x: x + 1.0, 0.0, 1.0)
