"""Planning-table tests: hand-derived instances, oracle equivalence of the
windowed solver against exhaustive search, structural monotonicity, the
greedy/conservative baselines, and the retransmission threshold."""

import hashlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptnc import decoding
from adaptnc import (
    ChannelModel,
    ConservativePolicy,
    DecodingTable,
    expected_completion_time,
    retransmission_threshold,
    solve_bruteforce,
    solve_monotone,
)


def linear_argmax(f, lo: int, hi: int) -> int:
    """Plain linear-scan smallest argmax, the oracle for the solver's greedy
    scan."""
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
    return linear_argmax(lambda k: k * row[k], 1, bound)


def _reference_solve(horizon: int, channel, k_cap=None):
    """The windowed solve without the ceiling stop: every block in the
    window [max(1, k_star[t-1]), min(bound, k_greedy[t])] is evaluated, on a
    dense table of completion probabilities, with the continuation read as
    the reversed view value[t-k::-1]."""
    values = DecodingTable(channel, horizon).values
    deltas = np.diff(values, axis=1, prepend=0.0)
    caps = None if k_cap is None else np.broadcast_to(np.asarray(k_cap, dtype=int), (horizon + 1,))
    value = np.zeros(horizon + 1)
    k_star = np.zeros(horizon + 1, dtype=int)
    k_greedy = np.zeros(horizon + 1, dtype=int)
    for t in range(1, horizon + 1):
        bound = max(1, t if caps is None else min(t, int(caps[t])))
        row = values[:, t]
        k_greedy[t] = linear_argmax(lambda k: k * row[k], 1, bound)
        hi = min(bound, int(k_greedy[t]))
        lo = min(max(1, int(k_star[t - 1])), hi)
        best_k, best_w = lo, None
        for k in range(lo, hi + 1):
            w = k * float(values[k, t]) + float(np.dot(deltas[k, k : t + 1], value[t - k :: -1]))
            if best_w is None or w > best_w + 1e-12 * (1.0 + abs(best_w)):
                best_w, best_k = w, k
        value[t] = best_w
        k_star[t] = best_k
    return k_star, k_greedy, value


def _oracle_cases(count: int, seed: int):
    """Seeded channels and caps: single receivers, lossless and deaf
    receivers, heterogeneous channels, channels just below the ceiling,
    scalar caps, non-decreasing per-state caps and random per-state caps
    (which can fall below the previous state's block), T <= 300."""
    rng = random.Random(seed)
    for i in range(count):
        horizon = rng.choice([1, 2, 3, 5, 8, 13, 30, 60, 120, 300])
        shape = i % 5
        if shape == 0:
            erasures = (rng.random(),)
        elif shape == 1:
            erasures = (rng.choice([0.0, 1.0]),) * rng.randint(1, 4)
        elif shape == 2:
            erasures = tuple(rng.random() for _ in range(rng.randint(2, 6))) + (1.0,)
        elif shape == 3:
            # a nearly lossless receiver beside a weak one: values come
            # within 1e-6 of the ceiling without reaching it
            erasures = (rng.uniform(0.3, 0.7), rng.random() * 1e-5)
        else:
            erasures = tuple(
                rng.choice([0.0, rng.random(), rng.random()]) for _ in range(rng.randint(1, 8))
            )
        cap = None
        if i % 7 == 3:
            cap = rng.randint(0, 12)
        elif i % 7 == 5:
            step = rng.randint(2, 9)
            cap = np.array([1 + t // step for t in range(horizon + 1)])
        elif i % 7 == 6:
            cap = np.array([rng.randint(0, 12) for _ in range(horizon + 1)])
        yield horizon, ChannelModel(erasures=erasures), cap


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
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_heterogeneous_optimum_whose_block_size_drops(self):
        # the exhaustive k* goes 62 -> 56 at t = 198, below the window's
        # lower bound k*(t - 1), so the windowed table differs from there
        ch = ChannelModel((0.274, 0.525))
        brute = solve_bruteforce(200, ch)
        mono = solve_monotone(200, ch)
        assert np.array_equal(mono.k_star, brute.k_star)
        assert np.array_equal(mono.value, brute.value)

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
        # [max(1, K*_{t-1}), min(K_hat_t, t)] at every state, up to the first
        # block whose value reaches the (1 - max e) t ceiling: the scan stops
        # there, and that block is the state's optimum
        for eps, n in ((0.2, 5), (0.3, 1), (0.0, 3)):
            table = solve_monotone(20, ChannelModel.homogeneous(eps, n))
            expected = 0
            for t in range(1, 21):
                lo = max(1, int(table.k_star[t - 1]))
                hi = min(t, int(table.k_greedy[t]))
                ceiling = (1.0 - eps) * t
                if table.value[t] >= ceiling - 5e-13 * (1.0 + ceiling):
                    hi = int(table.k_star[t])
                expected += max(hi, lo) - lo + 1
            assert table.stats["bellman_evals"] == expected, (eps, n)

    def test_matches_reference_solve_bitwise(self):
        # the ceiling stop, the contiguous continuation, the rows built on
        # demand and the greedy scan change no bit of any table
        for horizon, ch, cap in _oracle_cases(220, seed=11):
            table = solve_monotone(horizon, ch, k_cap=cap)
            k_star, k_greedy, value = _reference_solve(horizon, ch, k_cap=cap)
            where = (horizon, ch.erasures, cap)
            assert np.array_equal(table.k_star, k_star), where
            assert np.array_equal(table.k_greedy, k_greedy), where
            assert np.array_equal(table.value, value), where

    def test_uncapped_greedy_never_decreases(self):
        # the solver finds the greedy block by scanning up from where the
        # previous state's scan stopped, which needs the smallest maximizer
        # of k * P(k, t) to be non-decreasing in t
        for horizon, ch, _ in _oracle_cases(220, seed=11):
            _, k_greedy, _ = _reference_solve(horizon, ch)
            assert (np.diff(k_greedy) >= 0).all(), (horizon, ch.erasures)

    @pytest.mark.parametrize("k_cap", [None, 1])
    def test_solve_memory_is_banded(self, k_cap):
        # the dense decoding table alone is (T + 1)**2 floats, 32 MB here;
        # the solve keeps only the rows between the optimal and greedy
        # blocks, and a capped solve builds no row above its cap
        tracemalloc.start()
        try:
            solve_monotone(2000, ChannelModel.homogeneous(0.3, 5), k_cap=k_cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_single_receiver_solve_is_linear(self):
        # one receiver reaches the ceiling with one-packet blocks, so each
        # state takes one Bellman evaluation
        ch = ChannelModel.homogeneous(0.75, 1)
        table = solve_monotone(1000, ch)
        k_star, k_greedy, value = _reference_solve(1000, ch)
        assert table.stats["bellman_evals"] == 1000
        assert np.array_equal(table.k_star, k_star)
        assert np.array_equal(table.k_greedy, k_greedy)
        assert np.array_equal(table.value, value)
        assert solve_monotone(2000, ChannelModel.homogeneous(0.1, 1)).stats["bellman_evals"] == 2000

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3, 0.35, 0.4, 0.5, 0.6, 0.75, 0.9])
    def test_single_receiver_stops_at_the_ceiling(self, eps):
        # the computed values drift up to 2.3e-13 below (1 - e) t by
        # T = 2000, which the stop's half tie margin absorbs: one Bellman
        # evaluation per state, and the table of the one-packet plan
        ch = ChannelModel.homogeneous(eps, 1)
        for horizon in (1000, 2000):
            table = solve_monotone(horizon, ch)
            assert (table.k_star[1:] == 1).all()
            assert table.value.tobytes() == solve_monotone(horizon, ch, k_cap=1).value.tobytes()
        assert table.stats["bellman_evals"] == 2000

    def test_single_receiver_matches_exhaustive_at_long_horizon(self):
        ch = ChannelModel.homogeneous(0.3, 1)
        mono, brute = solve_monotone(1000, ch), solve_bruteforce(1000, ch)
        assert np.array_equal(mono.k_star, brute.k_star)
        assert mono.value.tobytes() == brute.value.tobytes()

    def test_single_receiver_solve_drops_skipped_rows(self):
        # rows between the one-packet optimum and the greedy block, which
        # the stop skips, are dropped: O(T) floats, not O(T**2)
        tracemalloc.start()
        try:
            solve_monotone(2000, ChannelModel.homogeneous(0.05, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak

    def test_windowed_fewer_evaluations(self):
        ch = ChannelModel.homogeneous(0.3, 5)
        assert (
            solve_monotone(25, ch).stats["bellman_evals"]
            < solve_bruteforce(25, ch).stats["bellman_evals"]
        )


class TestBandedRows:
    @given(
        horizon=st.integers(0, 120),
        erasures=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False)),
            min_size=1,
            max_size=5,
        ),
        cap=st.one_of(st.none(), st.integers(0, 15), st.lists(st.integers(0, 15), min_size=121, max_size=121)),
        band=st.integers(1, 5),
        windowed=st.booleans(),
    )
    @settings(deadline=None, derandomize=True, max_examples=80)
    def test_small_bands_change_no_bit(self, horizon, erasures, cap, band, windowed):
        # bands of 1-5 rows start, stop, drop and rebuild at other blocks
        # than the default bands; every table must stay the same bit for bit
        solve = solve_monotone if windowed else solve_bruteforce
        if isinstance(cap, list):
            cap = np.array(cap[: horizon + 1])
        ch = ChannelModel(erasures=tuple(erasures))
        default = solve(horizon, ch, k_cap=cap)
        values = DecodingTable(ch, horizon).values
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decoding, "_BAND_CELLS", band * (horizon + 1))
            small = solve(horizon, ch, k_cap=cap)
            small_values = DecodingTable(ch, horizon).values
        for column in ("k_star", "k_greedy", "value"):
            assert getattr(small, column).tobytes() == getattr(default, column).tobytes(), column
        for count in ("bellman_evals", "reward_evals"):
            assert small.stats[count] == default.stats[count], count
        assert small_values.tobytes() == values.tobytes()

    # rows_built at T = 2000 before rows were built in bands, one row per
    # read of a missing row
    ONE_ROW_BUILDS = {
        (1, 0.05): 1872, (1, 0.3): 1349, (1, 0.75): 460,
        (5, 0.05): 1867, (5, 0.3): 1337, (5, 0.75): 448,
    }

    @pytest.mark.parametrize("n, eps", sorted(ONE_ROW_BUILDS))
    def test_bands_overbuild_at_most_one_band(self, n, eps):
        # a band holds the rows after the one read, which the window and the
        # greedy scan read next; over the whole solve, bands and their
        # rebuilds add at most one band of rows to the one-row builds
        table = solve_monotone(2000, ChannelModel.homogeneous(eps, n))
        assert int(table.k_greedy.max()) <= table.stats["rows_built"]
        assert table.stats["rows_built"] <= self.ONE_ROW_BUILDS[n, eps] + decoding._band_rows(2000)


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
                k_greedy = solve_monotone(40, ch).k_greedy
                for t in (1, 2, 3, 7, 15, 40):
                    assert k_greedy[t] == greedy_block_size(t, ch), (eps, n, t)

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


def threshold_gap(e, t: int, n: int):
    """How far one packet's single-shot reward beats two packets', factored
    as t r e**(t-1) (1 - e) - (r - 1)(1 - e**t) with r = 2**(1/n), the
    double the solver uses; exact when ``e`` is a Fraction."""
    r = type(e)(2.0 ** (1.0 / n))
    return t * r * e ** (t - 1) * (1 - e) - (r - 1) * (1 - e**t)


def exact_threshold(t: int, n: int) -> float:
    """Sign change of the exact gap, bisected in rationals to 2**-80 and
    rounded to the nearest double."""
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(80):
        e = (lo + hi) / 2
        if threshold_gap(e, t, n) > 0:
            hi = e
        else:
            lo = e
    return float(hi)


def ulps_apart(a: float, b: float) -> int:
    """Doubles between two non-negative doubles, counting one end."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def _threshold_cases(count: int, seed: int):
    """The corners (2, 1), (60, 1), (60, 20) and seeded (t, n), t <= 60, n <= 20."""
    rng = random.Random(seed)
    return [(2, 1), (60, 1), (60, 20)] + [
        (rng.randint(2, 60), rng.randint(1, 20)) for _ in range(count)
    ]


class TestRetransmissionThreshold:
    def test_closed_form_two_slots(self):
        # with t=2, N=1 the crossover solves 1 + eps = 2 (1 - eps)
        assert retransmission_threshold(2, 1) == 1.0 / 3.0

    @pytest.mark.parametrize("t, n", _threshold_cases(40, 1203))
    def test_within_two_ulps_of_the_exact_crossing(self, t, n):
        eps = retransmission_threshold(t, n)
        assert ulps_apart(eps, exact_threshold(t, n)) <= 2
        # the smallest double at which one packet wins
        assert threshold_gap(eps, t, n) > 0
        assert not threshold_gap(float(np.nextafter(eps, 0.0)), t, n) > 0

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


def _table_digest(table) -> bytes:
    """sha256 of a plan's three columns and its Bellman and reward counts."""
    h = hashlib.sha256()
    for column in (table.k_star, table.k_greedy, table.value):
        h.update(column.tobytes())
    h.update(repr((table.stats["bellman_evals"], table.stats["reward_evals"])).encode())
    return h.digest()


def _golden_groups():
    """Each group's outputs, in order, as bytes to digest."""
    long = (1000, 2000)
    return {
        "oracle cases": lambda: [
            _table_digest(solve_monotone(horizon, ch, k_cap=cap))
            for horizon, ch, cap in _oracle_cases(220, seed=11)
        ],
        "homogeneous long": lambda: [
            _table_digest(solve_monotone(horizon, ChannelModel.homogeneous(eps, n)))
            for horizon in long
            for eps, n in ((0.12, 5), (0.3, 20))
        ],
        "heterogeneous long": lambda: [
            _table_digest(solve_monotone(horizon, ChannelModel(erasures)))
            for horizon in long
            for erasures in ((0.1, 0.3), (0.05, 0.2, 0.2, 0.35))
        ],
        "single receiver long": lambda: [
            _table_digest(solve_monotone(horizon, ChannelModel.homogeneous(eps, 1)))
            for horizon in long
            for eps in (0.05, 0.3, 0.75)
        ],
        "decoding tables": lambda: [
            DecodingTable(ChannelModel(erasures), horizon).values.tobytes()
            for horizon, erasures in (
                (7, (0.5,)),
                (50, (0.3, 0.3, 0.3)),
                (120, (0.0, 0.85, 1.0)),
                (300, (0.2, 0.2)),
                (300, (0.1, 0.2, 0.3, 0.4, 0.5)),
            )
        ],
    }


# sha256 over each group's outputs, taken before decode rows were built in
# bands: the planner and DecodingTable must reproduce them bit for bit
GOLDEN_DIGESTS = {
    "oracle cases": "d2f838d1e31555f921cdd2ea5964969544ffbbba1d35ff630f62b2086add169c",
    "homogeneous long": "6da082027488b3ddf65b6074de161d6923f5e47a3469bb44f7634785f26f57c9",
    "heterogeneous long": "56ff277030c7bd8832977d7192fd2c4895be2648b35211708a4006373d158d4a",
    "single receiver long": "dde23a7da6cf23a3a964349ad06173946e1c05e2d5dafd90dea670f97589972c",
    "decoding tables": "ba06f95faf80f5cf31cb2c6388003083117cb02936bd1126e8be67b21968e0b8",
}


@pytest.mark.parametrize("group", sorted(GOLDEN_DIGESTS))
def test_outputs_match_golden_digests(group):
    h = hashlib.sha256()
    for output in _golden_groups()[group]():
        h.update(output)
    assert h.hexdigest() == GOLDEN_DIGESTS[group], group
