"""Decoding probabilities and completion-time statistics for coded blocks.

A block of K coded packets is broadcast one packet per slot until every
receiver has collected K of them (random linear coding makes every reception
useful, so a receiver only needs a count). The core quantity is the
probability that a block of size K finishes within a given number of slots;
everything else here (decode tables, completion distributions, moments)
derives from it.

One kernel, ``_receiver_tails``, computes that probability for one receiver
over every slot count up to a horizon, one block size at a time. It sums the
negative-binomial terms C(tau-1, K-1) * e**(tau-K) * (1-e)**K of the K-th
reception landing in slot tau, each built in log space from a cached
log-factorial table, so no term underflows before it is truly negligible and
blocks in the thousands stay exact to rounding. Receivers are independent,
so a channel's probability is the product of its receivers' probabilities,
one power per distinct rate.
"""

import math
from collections import Counter

import numpy as np

from .channel import ChannelModel
from .errors import DivergenceError

# Hard cap on series length for the moment sums. Generous for any channel a
# frame-level deadline makes sense on; hit only for erasure rates so close to
# one that the moments are astronomically large.
_MAX_SERIES_SLOTS = 5_000_000

# The moment sums stop once a shortfall term drops below this.
_SERIES_TOL = 1e-9

# log(m!) for m = 0 .. size-1, grown on demand by _log_factorials
_log_factorial = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """log(m!) for m = 0 .. at least n, from a cache that grows geometrically."""
    global _log_factorial
    table = _log_factorial
    if table.size <= n:
        more = [math.lgamma(m + 1.0) for m in range(table.size, max(n + 1, 2 * table.size))]
        table = _log_factorial = np.concatenate((table, more))
    return table


def _receiver_tails(slots: int, erasure: float):
    """One receiver's decode tails over slots 0 .. slots, as ``tail(block)``.

    ``tail(block)`` returns a new array whose entry t is P(the receiver holds
    ``block`` packets after t slots): the cumulative sum, over
    tau = block .. t, of C(tau-1, block-1) * erasure**(tau-block) *
    (1-erasure)**block. The terms that do not depend on the block, the
    log-factorials and tau * log(erasure), are formed once; each block's log
    terms are built in one reused buffer.
    """
    if 0.0 < erasure < 1.0:
        lf = _log_factorials(slots)
        lost = np.arange(slots + 1) * math.log(erasure)
        log_kept = math.log1p(-erasure)
        buf = np.empty(slots + 1)

    def tail(block: int) -> np.ndarray:
        out = np.zeros(slots + 1)
        if block == 0:
            out[:] = 1.0
        elif block <= slots and erasure == 0.0:
            out[block:] = 1.0
        elif block <= slots and erasure < 1.0:
            n = slots - block + 1
            terms = buf[:n]
            np.subtract(lf[block - 1 : slots], lf[block - 1], out=terms)
            np.subtract(terms, lf[:n], out=terms)
            np.add(terms, lost[:n], out=terms)
            np.add(terms, block * log_kept, out=terms)
            np.exp(terms, out=terms)
            np.cumsum(terms, out=terms)
            np.minimum(terms, 1.0, out=out[block:])
        return out

    return tail


def _channel_tails(slots: int, rates):
    """A channel's decode tails over slots 0 .. slots, as ``tail(block)``.

    ``tail(block)`` returns a new array whose entry t is P(every receiver
    holds ``block`` packets after t slots). ``rates`` holds the channel's
    (erasure, receiver count) pairs. A factor below 2**(-1100 / count) has a
    power below 2**-1100, which rounds to exactly 0 (the smallest subnormal
    is 2**-1074). Such factors also send libm's ``pow`` down its slow path,
    so they are zeroed without calling it; one receiver's tail never
    decreases in t, so they form a prefix.
    """
    parts = [(_receiver_tails(slots, eps), count) for eps, count in rates]

    def tail(block: int) -> np.ndarray:
        out = np.ones(slots + 1)
        for receiver, count in parts:
            part = receiver(block)
            cut = np.searchsorted(part, 2.0 ** (-1100 / count))
            part[:cut] = 0.0
            part[cut:] **= count
            out *= part
        return out

    return tail


def decode_prob(block: int, slots: int, channel: ChannelModel) -> float:
    """Probability every receiver decodes a ``block``-packet block in ``slots``."""
    if block < 0 or slots < 0:
        raise ValueError("block and slots must be non-negative")
    return float(_channel_tails(slots, Counter(channel.erasures).items())(block)[slots])


class DecodingTable:
    """All block decode probabilities of one channel up to a slot horizon.

    ``values[k, t]`` is decode_prob(k, t, channel) for 0 <= k, t <= horizon,
    with values[0, :] = 1 and values[k, t] = 0 for k > t; it is frozen after
    construction. The probability that a block of k packets completes exactly
    at slot t is values[k, t] - values[k, t-1]. The solver does not build
    this table: it builds the rows it reads with the same kernel.
    """

    @np.errstate(over="raise", divide="raise", invalid="raise")
    def __init__(self, channel: ChannelModel, horizon: int):
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        row = _channel_tails(horizon, Counter(channel.erasures).items())
        values = np.empty((horizon + 1, horizon + 1))
        for k in range(horizon + 1):
            values[k] = row(k)
        values.flags.writeable = False
        self.values = values


def _shortfall_series(block: int, channel: ChannelModel, weighted: bool) -> float:
    """Sum over t >= block of w(t) * (1 - decode_prob(block, t, channel)).

    The weight w(t) is 2t+1 if ``weighted``, else 1. The kernel is evaluated
    on a slot window that doubles until some term is below _SERIES_TOL at a
    slot t where the per-slot ratio bound r = max e * (t+1) / (t+2-block) is
    below one. The series is cut at the first such t and a geometric bound on
    the rest (a union bound over the receivers) is added, so the truncation
    never biases the result low.
    """
    if block < 1:
        raise ValueError("block must be at least 1")
    if any(e >= 1.0 for e in channel.erasures):
        raise DivergenceError("a receiver with erasure probability 1 never completes a block")
    rates = Counter(channel.erasures)
    eps = np.array(list(rates))[:, None]
    counts = np.array(list(rates.values()))
    window = 64 + block
    while True:
        t = np.arange(block, block + window + 1)
        tails = np.array([_receiver_tails(block + window, e)(block)[block:] for e in rates])
        short = 1.0 - np.prod(tails ** counts[:, None], axis=0)
        terms = (2 * t + 1) * short if weighted else short
        ratio = eps * (t + 1) / (t + 2 - block)
        cut = np.flatnonzero((terms < _SERIES_TOL) & (ratio.max(axis=0) < 1.0))
        if cut.size:
            i = cut[0]
            r = ratio[:, i]
            geo = r / (1.0 - r)
            rest = (2 * t[i] + 1) * geo + 2 * geo / (1.0 - r) if weighted else geo
            return float(terms[: i + 1].sum() + np.dot(counts, (1.0 - tails[:, i]) * rest))
        if window >= _MAX_SERIES_SLOTS:
            raise DivergenceError(
                f"moment series did not reach tol={_SERIES_TOL} within {_MAX_SERIES_SLOTS} slots"
            )
        window = min(2 * window, _MAX_SERIES_SLOTS)


def expected_completion_time(block: int, channel: ChannelModel) -> float:
    """Mean number of slots until every receiver decodes a ``block`` block.

    Evaluated as block + sum over t >= block of the shortfall probability
    1 - decode_prob(block, t, channel), truncated with a geometric tail bound
    once the shortfall drops below _SERIES_TOL.
    """
    return block + _shortfall_series(block, channel, weighted=False)


def completion_second_moment(block: int, channel: ChannelModel) -> float:
    """Second moment of the block completion time, in slots squared.

    Uses E[X^2] = sum_{t>=0} (2t+1) P(X > t), truncated like
    expected_completion_time with a weighted geometric tail bound.
    """
    return float(block) ** 2 + _shortfall_series(block, channel, weighted=True)
