"""Decoding-probability and completion-moment tests.

The reference oracles evaluate the single-receiver decode probability in
exact rational arithmetic (fractions + math.comb) and, for long horizons, as
a binomial upper tail summed from math.lgamma terms with math.fsum, so the
log-space negative-binomial kernel is checked against ground truth, not
against itself. Moment operations are checked against plain truncated sums
computed independently and against negative-binomial closed forms.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptnc import (
    ChannelModel,
    DecodingTable,
    DivergenceError,
    completion_second_moment,
    VarianceConstrainedPolicy,
    expected_completion_time,
    solve_monotone,
)
from adaptnc.decoding import _channel_tails, _log_factorials, _receiver_tails


def completion_pmf(table: DecodingTable) -> np.ndarray:
    """Entry [k, t]: the probability a block of k packets completes exactly
    at slot t, values[k, t] - values[k, t-1] (values[k, 0] at t = 0)."""
    return np.diff(table.values, axis=1, prepend=0.0)


def exact_single(block: int, slots: int, erasure: Fraction) -> Fraction:
    """Exact rational evaluation of the single-receiver completion sum."""
    if block == 0:
        return Fraction(1)
    if block > slots:
        return Fraction(0)
    total = Fraction(0)
    for tau in range(block, slots + 1):
        total += (
            math.comb(tau - 1, block - 1)
            * erasure ** (tau - block)
            * (1 - erasure) ** block
        )
    return total


def exact_binomial_tails(slots: int, erasure: Fraction) -> list[float]:
    """P(at least k of ``slots`` slots are heard) for k = 0 .. slots + 1.

    Decoding a k-packet block within ``slots`` slots is the event that a
    Binomial(slots, 1 - erasure) count reaches k. The suffix sums of its
    terms are exact integers over the common denominator b**slots, and
    integer true division rounds each quotient correctly.
    """
    a, b = erasure.numerator, erasure.denominator
    tails = [0] * (slots + 2)
    for j in range(slots, -1, -1):
        tails[j] = tails[j + 1] + math.comb(slots, j) * (b - a) ** j * a ** (slots - j)
    denominator = b**slots
    return [x / denominator for x in tails]


def lgamma_single(block: int, slots: int, erasure: float) -> float:
    """Binomial upper tail from math.lgamma terms, summed with math.fsum."""
    if block == 0:
        return 1.0
    if block > slots or erasure == 1.0:
        return 0.0
    if erasure == 0.0:
        return 1.0
    log_e, log_h = math.log(erasure), math.log1p(-erasure)
    log_n = math.lgamma(slots + 1)
    return math.fsum(
        math.exp(
            log_n - math.lgamma(j + 1) - math.lgamma(slots - j + 1)
            + j * log_h + (slots - j) * log_e
        )
        for j in range(block, slots + 1)
    )


def plain_decode_tail(block: int, slots: int, erasure: float) -> np.ndarray:
    """The log-space kernel written with fresh temporaries and no reused
    terms: one receiver's decode probabilities for t = 0 .. slots."""
    tail = np.zeros(slots + 1)
    if block == 0:
        tail[:] = 1.0
    elif block <= slots and erasure == 0.0:
        tail[block:] = 1.0
    elif block <= slots and erasure < 1.0:
        lf = _log_factorials(slots)
        lost = np.arange(slots - block + 1)
        log_terms = (
            lf[block - 1 : slots]
            - lf[block - 1]
            - lf[: slots - block + 1]
            + lost * math.log(erasure)
            + block * math.log1p(-erasure)
        )
        tail[block:] = np.minimum(np.cumsum(np.exp(log_terms)), 1.0)
    return tail


def decode_prob(block: int, slots: int, channel: ChannelModel) -> float:
    """P(block, slots), DecodingTable(channel, slots).values[block, slots],
    read from the package's kernel without building the whole table, so
    cases such as (1200, 3000) stay cheap."""
    return float(_channel_tails(slots, Counter(channel.erasures).items())(block)[slots])


def decode_prob_single(block: int, slots: int, erasure: float) -> float:
    return decode_prob(block, slots, ChannelModel((erasure,)))


def immediate_reward(block: int, slots: int, channel: ChannelModel) -> float:
    """Single-shot reward of one block decision: block * decode_prob."""
    if block < 0 or block > slots:
        raise ValueError(f"block {block} outside 0..{slots}")
    return block * decode_prob(block, slots, channel) if block else 0.0


def truncated_mean(block: int, channel: ChannelModel, upto: int) -> float:
    """Independent completion-time mean: K + sum of shortfall probabilities."""
    return block + sum(
        1.0 - decode_prob(block, t, channel) for t in range(block, upto)
    )


def truncated_second_moment(block: int, channel: ChannelModel, upto: int) -> float:
    """Independent second moment via sum_t (2t+1) * P(completion > t)."""
    total = float(block) ** 2
    for t in range(block, upto):
        total += (2 * t + 1) * (1.0 - decode_prob(block, t, channel))
    return total


class TestDecodeProbSingle:
    def test_matches_exact_enumeration(self):
        for eps in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
            for slots in range(0, 11):
                for block in range(0, slots + 3):
                    got = decode_prob_single(block, slots, float(eps))
                    want = float(exact_single(block, slots, eps))
                    assert got == pytest.approx(want, abs=1e-12), (block, slots, eps)

    def test_point_values(self):
        assert decode_prob_single(1, 1, 0.5) == pytest.approx(0.5)
        assert decode_prob_single(2, 3, 0.5) == pytest.approx(0.5)
        assert decode_prob_single(3, 2, 0.7) == 0.0
        assert decode_prob_single(2, 5, 0.0) == 1.0

    def test_difference_identity(self):
        # P(K,T) - P(K-1,T) = -C(T,K-1) eps^(T-K+1) (1-eps)^(K-1), the
        # closed-form step used to prove strict monotonicity in K.
        for eps in np.arange(0.1, 0.95, 0.1):
            for slots in range(1, 31):
                for block in range(1, slots + 1):
                    diff = decode_prob_single(block, slots, eps) - decode_prob_single(
                        block - 1, slots, eps
                    )
                    want = (
                        -math.comb(slots, block - 1)
                        * eps ** (slots - block + 1)
                        * (1 - eps) ** (block - 1)
                    )
                    assert diff == pytest.approx(want, abs=1e-10)

    def test_large_block_stability(self):
        # hundreds of packets: the log-space terms must not overflow or drift
        got = decode_prob_single(300, 700, 0.5)
        assert 0.0 <= got <= 1.0
        # mean successes is 350 >= 300, so the probability is substantial
        assert got > 0.99

    @given(
        block=st.integers(0, 40),
        slots=st.integers(0, 60),
        eps=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(deadline=None, derandomize=True)
    def test_always_a_probability(self, block, slots, eps):
        p = decode_prob_single(block, slots, eps)
        assert 0.0 <= p <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            decode_prob_single(1, 1, 1.5)
        with pytest.raises(ValueError):
            decode_prob_single(1, 1, -0.1)


class TestLongHorizons:
    """Horizons into the thousands, where (1 - e)**K underflows a double."""

    @pytest.mark.parametrize(
        "slots, erasure",
        [(1000, e) for e in (Fraction(0), Fraction(1, 8), Fraction(1, 2),
                             Fraction(27, 32), Fraction(15, 16), Fraction(1))]
        + [(3000, Fraction(1, 2)), (3000, Fraction(27, 32))],
    )
    def test_matches_exact_binomial_tail(self, slots, erasure):
        # dyadic rates are exact in binary, so float(erasure) is the same rate
        want = exact_binomial_tails(slots, erasure)
        for block in range(0, slots + 2, 7):
            got = decode_prob_single(block, slots, float(erasure))
            assert got == pytest.approx(want[block], rel=1e-10, abs=1e-300), block

    @given(
        slots=st.integers(0, 3000),
        share=st.floats(0.0, 1.0),
        eps=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(deadline=None, derandomize=True)
    def test_matches_lgamma_oracle(self, slots, share, eps):
        block = round(share * (slots + 1))
        want = lgamma_single(block, slots, eps)
        assert decode_prob_single(block, slots, eps) == pytest.approx(
            want, rel=1e-9, abs=1e-300
        )

    def test_regression_points(self):
        assert decode_prob_single(400, 3000, 0.85) == pytest.approx(0.995576, abs=1e-6)
        assert decode_prob_single(1200, 3000, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_table_at_rate_extremes(self):
        # a receiver that hears nothing zeroes every row but k = 0; one that
        # hears everything leaves the other receivers' probabilities as they are
        deaf = DecodingTable(ChannelModel(erasures=(0.0, 0.85, 1.0)), 1100)
        assert (deaf.values[0] == 1.0).all()
        assert (deaf.values[1:] == 0.0).all() and (completion_pmf(deaf)[1:] == 0.0).all()
        table = DecodingTable(ChannelModel(erasures=(0.0, 0.85)), 600)
        assert table.values[80, 600] == pytest.approx(
            lgamma_single(80, 600, 0.85), rel=1e-9
        )

    def test_long_completion_time_is_fast_and_exact(self):
        # negative binomial: mean K/(1-e), variance K e/(1-e)**2
        ch = ChannelModel.homogeneous(0.9, 1)
        start = time.perf_counter()
        mean = expected_completion_time(330, ch)
        second = completion_second_moment(330, ch)
        assert time.perf_counter() - start < 1.0
        assert mean == pytest.approx(3300.0, rel=1e-9)
        assert second == pytest.approx(29700.0 + 3300.0**2, rel=1e-9)

    def test_long_horizon_solve_respects_the_receiver_ceiling(self):
        eps = 0.5
        table = solve_monotone(2000, ChannelModel.homogeneous(eps, 5))
        t = np.arange(2001)
        assert np.isfinite(table.value).all()
        assert (table.value <= (1.0 - eps) * t + 1e-9).all()


class TestDecodeProb:
    def test_independent_receivers_multiply(self):
        ch = ChannelModel.homogeneous(0.5, 2)
        assert decode_prob(1, 1, ch) == pytest.approx(0.25)
        assert decode_prob(1, 2, ChannelModel.homogeneous(0.5, 1)) == pytest.approx(0.75)

    def test_heterogeneous_product(self):
        ch = ChannelModel(erasures=(0.2, 0.5, 0.9))
        want = (
            decode_prob_single(2, 6, 0.2)
            * decode_prob_single(2, 6, 0.5)
            * decode_prob_single(2, 6, 0.9)
        )
        assert decode_prob(2, 6, ch) == pytest.approx(want, rel=1e-12)

    def test_fully_erased_receiver(self):
        ch = ChannelModel(erasures=(0.2, 1.0))
        assert decode_prob(1, 5, ch) == 0.0
        assert decode_prob(3, 9, ch) == 0.0
        assert decode_prob(0, 5, ch) == 1.0

    def test_homogeneous_equals_general_form(self):
        a = ChannelModel.homogeneous(0.3, 4)
        b = ChannelModel(erasures=(0.3, 0.3, 0.3, 0.3))
        for block, slots in [(1, 1), (2, 5), (4, 9)]:
            assert decode_prob(block, slots, a) == decode_prob(block, slots, b)

    def test_monte_carlo_oracle(self):
        # decode within T slots == every receiver scores >= K successes in T
        # independent trials; estimated from one million seeded frames.
        block, slots, eps, n = 2, 6, 0.3, 3
        trials = 1_000_000
        gen = np.random.default_rng(20260814)
        bits = gen.random((trials, slots, n)) < (1.0 - eps)
        hit = (bits.sum(axis=1) >= block).all(axis=1)
        estimate = hit.mean()
        se = math.sqrt(estimate * (1 - estimate) / trials)
        want = decode_prob(block, slots, ChannelModel.homogeneous(eps, n))
        assert abs(estimate - want) < 3 * se


class TestDecodingTable:
    def test_matches_scalar_function(self):
        ch = ChannelModel(erasures=(0.3, 0.6))
        table = DecodingTable(ch, 12)
        for block in range(0, 13):
            for slots in range(0, 13):
                assert table.values[block, slots] == pytest.approx(
                    decode_prob(block, slots, ch), abs=1e-12
                )

    def test_boundary_rows(self):
        table = DecodingTable(ChannelModel.homogeneous(0.4, 3), 8)
        assert (table.values[0, :] == 1.0).all()
        for block in range(1, 9):
            assert (table.values[block, :block] == 0.0).all()

    def test_monotone_in_block_and_slots(self):
        for eps in (0.1, 0.5, 0.9):
            for n in (1, 2, 5, 10):
                table = DecodingTable(ChannelModel.homogeneous(eps, n), 15)
                v = table.values
                assert (v >= 0.0).all() and (v <= 1.0).all()
                assert (np.diff(v, axis=0) <= 1e-15).all()  # non-increasing in K
                assert (np.diff(v, axis=1) >= -1e-15).all()  # non-decreasing in t
                # strictly decreasing on the feasible triangle
                for t in range(1, 16):
                    col = v[1 : t + 1, t]
                    assert (np.diff(col) < 0).all(), (eps, n, t)

    def test_deltas_telescope(self):
        table = DecodingTable(ChannelModel.homogeneous(0.35, 2), 10)
        rebuilt = np.cumsum(completion_pmf(table), axis=1)
        assert np.allclose(rebuilt, table.values, atol=1e-12)

    def test_reward_and_immutability(self):
        table = DecodingTable(ChannelModel.homogeneous(0.5, 1), 5)
        assert 2 * table.values[2, 3] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            table.values[0, 0] = 0.5

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            DecodingTable(ChannelModel.homogeneous(0.5, 1), -1)

    @pytest.mark.parametrize("horizon, erasures", [
        (2000, (0.5,) * 20),
        (1100, (0.0, 0.85, 1.0)),
    ])
    def test_values_are_the_plain_product_bitwise(self, horizon, erasures):
        # the table skips pow where the power is certain to be 0; every
        # entry must still equal the product of plain powers, bit for bit
        plain = np.empty((horizon + 1, horizon + 1))
        for k in range(horizon + 1):
            tail = np.ones(horizon + 1)
            for eps, count in Counter(erasures).items():
                tail *= plain_decode_tail(k, horizon, eps) ** count
            plain[k] = tail
        table = DecodingTable(ChannelModel(erasures=erasures), horizon)
        assert np.array_equal(table.values, plain)
        assert not hasattr(table, "deltas")

    @pytest.mark.parametrize("slots", [300, 1000, 2000])
    def test_reused_kernel_terms_change_no_bit(self, slots):
        # the kernel forms the block-independent terms once per rate and each
        # row's log terms in one reused buffer; every row must still equal the
        # plain kernel's bytes
        for eps in (0.0, 1e-6, 0.3, 0.85, 1.0):
            tail = _receiver_tails(slots, eps)
            for k in range(slots + 2):
                assert tail(k).tobytes() == plain_decode_tail(k, slots, eps).tobytes(), (eps, k)


class TestCompletionPmf:
    """values[k, t] - values[k, t-1] is the probability that a block of k
    packets completes exactly at slot t."""

    def test_geometric_example(self):
        deltas = completion_pmf(DecodingTable(ChannelModel.homogeneous(0.5, 1), 2))
        assert deltas[1, 1] == pytest.approx(0.5)  # done at slot 1, one left
        assert deltas[1, 2] == pytest.approx(0.25)  # done at slot 2, none left
        assert 1.0 - deltas[1].sum() == pytest.approx(0.25)  # never done

    def test_mass_identity_on_grid(self):
        for eps in (0.1, 0.5, 0.9):
            for n in (1, 3):
                table = DecodingTable(ChannelModel.homogeneous(eps, n), 11)
                deltas = completion_pmf(table)
                assert (deltas >= 0.0).all()
                for slots in range(1, 12):
                    for block in range(1, slots + 1):
                        mass = deltas[block, block : slots + 1].sum()
                        assert mass == pytest.approx(table.values[block, slots], abs=1e-12)


class TestImmediateReward:
    def test_point_values(self):
        ch1 = ChannelModel.homogeneous(0.5, 1)
        assert immediate_reward(2, 3, ch1) == pytest.approx(1.0)
        assert immediate_reward(1, 2, ch1) == pytest.approx(0.75)
        assert immediate_reward(0, 7, ch1) == 0.0

    def test_rejects_block_outside_range(self):
        ch = ChannelModel.homogeneous(0.5, 1)
        with pytest.raises(ValueError):
            immediate_reward(4, 3, ch)
        with pytest.raises(ValueError):
            immediate_reward(-1, 3, ch)


class TestExpectedCompletionTime:
    def test_geometric_closed_form(self):
        for eps in (0.2, 0.5, 0.8):
            ch = ChannelModel.homogeneous(eps, 1)
            assert expected_completion_time(1, ch) == pytest.approx(
                1.0 / (1.0 - eps), abs=1e-6
            )

    def test_lossless_channel(self):
        ch = ChannelModel.homogeneous(0.0, 5)
        assert expected_completion_time(1, ch) == pytest.approx(1.0)
        assert expected_completion_time(4, ch) == pytest.approx(4.0)

    def test_lower_bound_and_truncated_sum(self):
        ch = ChannelModel.homogeneous(0.2, 2)
        got = expected_completion_time(3, ch)
        assert got >= 3.0
        assert got == pytest.approx(truncated_mean(3, ch, 400), abs=1e-6)

    def test_divergent_channel(self):
        with pytest.raises(DivergenceError):
            expected_completion_time(1, ChannelModel(erasures=(0.3, 1.0)))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            expected_completion_time(0, ChannelModel.homogeneous(0.5, 1))


class TestCompletionSecondMoment:
    def test_geometric_closed_form(self):
        # E[X^2] of a geometric completion: (1+eps)/(1-eps)^2
        ch = ChannelModel.homogeneous(0.5, 1)
        assert completion_second_moment(1, ch) == pytest.approx(6.0, abs=1e-6)
        assert completion_second_moment(
            1, ChannelModel.homogeneous(0.0, 1)
        ) == pytest.approx(1.0)

    def test_grows_with_block_size(self):
        ch = ChannelModel.homogeneous(0.3, 2)
        assert completion_second_moment(2, ch) > completion_second_moment(1, ch)

    def test_truncated_sum_oracle(self):
        ch = ChannelModel.homogeneous(0.3, 2)
        assert completion_second_moment(2, ch) == pytest.approx(
            truncated_second_moment(2, ch, 600), abs=1e-6
        )

    def test_divergent_channel(self):
        with pytest.raises(DivergenceError):
            completion_second_moment(2, ChannelModel(erasures=(1.0,)))


class TestMaxBlockForVariance:
    """The variance policy's block cap: the largest block, up to the
    horizon, whose completion second moment stays below sigma2."""

    def test_budget_between_first_two_moments(self):
        # v(1) = 6 < 6.5 while v(2) > 6.5, so exactly one packet fits
        ch = ChannelModel.homogeneous(0.5, 1)
        assert completion_second_moment(2, ch) > 6.5
        assert VarianceConstrainedPolicy(ch, 10, sigma2=6.5).k_cap == 1

    def test_budget_below_any_block(self):
        ch = ChannelModel.homogeneous(0.2, 3)
        assert VarianceConstrainedPolicy(ch, 8, sigma2=0.5).k_cap == 0

    def test_inactive_budget_hits_ceiling(self):
        ch = ChannelModel.homogeneous(0.1, 1)
        assert VarianceConstrainedPolicy(ch, 5, sigma2=1e9).k_cap == 5

    def test_divergent_channel_fits_nothing(self):
        ch = ChannelModel(erasures=(1.0,))
        assert VarianceConstrainedPolicy(ch, 5, sigma2=100.0).k_cap == 0

    def test_rejects_negative_ceiling(self):
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            VarianceConstrainedPolicy(ChannelModel.homogeneous(0.5, 1), -1, sigma2=5.0)


class TestChannelModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(erasures=())
        with pytest.raises(ValueError):
            ChannelModel(erasures=(0.5, 1.2))
        with pytest.raises(ValueError):
            ChannelModel.homogeneous(0.5, 0)
        with pytest.raises(ValueError):
            ChannelModel(erasures=(0.5, np.nan))

    def test_accessors(self):
        ch = ChannelModel(erasures=(0.1, 0.4))
        assert ch.n_receivers == 2
        assert ch.worst_erasure() == 0.4
