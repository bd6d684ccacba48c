"""Decoding probabilities and completion-time statistics for coded blocks.

A block of K coded packets is broadcast one packet per slot until every
receiver has collected K of them (random linear coding makes every reception
useful, so a receiver only needs a count). The core quantity is the
probability that a block of size K finishes within a given number of slots;
everything else here (decode tables, completion distributions, moments)
derives from it.

One kernel, ``_receiver_tails``, computes that probability for one receiver
over every slot count up to a horizon, for a band of consecutive block
sizes in one vectorised pass. It sums the negative-binomial terms
C(tau-1, K-1) * e**(tau-K) * (1-e)**K of the K-th reception landing in slot
tau, each built in log space from a cached log-factorial table, so no term
underflows before it is truly negligible and blocks in the thousands stay
exact to rounding. Receivers are independent, so a channel's probability is
the product of its receivers' probabilities, one power per distinct rate
(``_channel_tails``). Each row goes through the same float operations
whatever band it is built in, so a band's rows are the one-row band's bit
for bit; the planner, ``DecodingTable`` and the moment series all read the
kernel through bands.
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

# Decode rows are built in bands of about this many (row, slot) cells: a
# band of short rows pays the kernel's per-call overhead (about 15 us) once
# for many blocks. From T = 1024 on a band is one row, as before bands: the
# planner reads rows there one or two at a time, a row's own work is tens of
# microseconds, and a longer band holds rows beside the window it serves.
_BAND_CELLS = 2**11

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


def _band_rows(slots: int) -> int:
    """Rows in a band of decode rows over slots 0 .. slots: about
    _BAND_CELLS cells, and at least one row."""
    return max(1, _BAND_CELLS // (slots + 1))


def _receiver_tails(slots: int, erasure: float):
    """One receiver's decode tails up to ``slots``, as ``tails(first, rows)``.

    ``tails(first, rows)``, for 1 <= first and first + rows - 1 <= slots,
    returns a new (rows, slots - first + 1) array whose row r holds the tail
    of block k = first + r from slot k on: entry j is P(the receiver holds k
    packets after k + j slots), the cumulative sum, over tau = k .. k + j,
    of C(tau-1, k-1) * erasure**(tau-k) * (1-erasure)**k. The last r entries
    of row r run past ``slots``; they are further terms of the same sum. The
    terms' parts, the log-factorials, (tau - k) * log(erasure) and
    k * log(1 - erasure), are formed once, and each block's terms go
    through the same float operations in the same order whatever the band,
    so a row is the same bit for bit in any band.
    """
    if 0.0 < erasure < 1.0:
        lost = np.arange(slots + 1) * math.log(erasure)
        kept = np.arange(slots + 1) * math.log1p(-erasure)

    def tails(first: int, rows: int) -> np.ndarray:
        n = slots - first + 1
        if erasure == 0.0:
            return np.ones((rows, n))
        if erasure >= 1.0:
            return np.zeros((rows, n))
        lf = _log_factorials(slots + rows)
        # windows[r, j] = lf[first - 1 + r + j], the log-factorial of tau - 1
        windows = np.ndarray((rows, n), buffer=lf, offset=(first - 1) * lf.itemsize,
                             strides=(lf.itemsize, lf.itemsize))
        terms = windows - lf[first - 1 : first - 1 + rows, None]
        terms -= lf[:n]
        terms += lost[:n]
        terms += kept[first : first + rows, None]
        np.exp(terms, out=terms)
        np.add.accumulate(terms, axis=1, out=terms)
        np.minimum(terms, 1.0, out=terms)
        return terms

    return tails


def _channel_tails(slots: int, rates):
    """A channel's decode tails over slots 0 .. slots, as ``band(first, count)``.

    ``band(first, count)`` returns a new (count, slots + 1) array whose row r
    is P(every receiver holds first + r packets after t slots), t = 0 ..
    slots; rows past ``slots`` are 0. ``rates`` holds the channel's
    (erasure, receiver count) pairs. Each rate's rows come from one
    ``_receiver_tails`` rectangle, raised to the rate's receiver count, and
    the product over rates is formed in place, row k from column k on,
    through a view whose row stride is one longer than the band's, so a
    row's entries past ``slots`` land in padding the returned view leaves
    out. A factor below 2**(-1100 / count) has a power below 2**-1100,
    which rounds to exactly 0 (the smallest subnormal is 2**-1074). Such
    factors also send libm's ``pow`` down its slow path, so they are left
    at 0 without calling it.
    """
    parts = [(_receiver_tails(slots, eps), count) for eps, count in rates]

    def band(first: int, count: int) -> np.ndarray:
        skip = 1 if first == 0 else 0  # block 0 is decoded at once
        k0 = first + skip
        rows = min(count - skip, slots + 1 - k0)
        width = slots + max(rows, 1)
        out = np.zeros((count, width))
        if skip:
            out[0] = 1.0
        if rows > 0:
            # the band's rows from their own block on: row r of ``rows``
            # starts at out[skip + r, k0 + r]
            placed = np.ndarray(
                (rows, slots + 1 - k0), buffer=out, offset=(skip * width + k0) * out.itemsize,
                strides=((width + 1) * out.itemsize, out.itemsize),
            )
            # the first rate's factor is written in place, the others
            # multiply into it
            for i, (tails, power) in enumerate(parts):
                part = tails(k0, rows)
                if power > 1:
                    factor = placed if i == 0 else np.zeros(part.shape)
                    np.power(part, power, out=factor, where=part >= 2.0 ** (-1100 / power))
                    part = factor
                if i > 0:
                    placed *= part
                elif part is not placed:
                    placed[...] = part
        return out[:, : slots + 1]

    return band


class DecodingTable:
    """All block decode probabilities of one channel up to a slot horizon.

    ``values[k, t]`` is P(k, t), the probability that every receiver decodes
    a k-packet block within t slots, for 0 <= k, t <= horizon, with
    values[0, :] = 1 and values[k, t] = 0 for k > t; it is frozen after
    construction. The probability that a block of k packets completes exactly
    at slot t is values[k, t] - values[k, t-1]. The table is built a band of
    rows at a time, so it holds one band's work arrays beside it. The solver
    does not build this table: it builds the rows it reads with the same
    kernel.
    """

    @np.errstate(over="raise", divide="raise", invalid="raise")
    def __init__(self, channel: ChannelModel, horizon: int):
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        band = _channel_tails(horizon, Counter(channel.erasures).items())
        size = _band_rows(horizon)
        values = np.empty((horizon + 1, horizon + 1))
        for first in range(0, horizon + 1, size):
            values[first : first + size] = band(first, min(size, horizon + 1 - first))
        values.flags.writeable = False
        self.values = values


def _shortfall_series(block: int, channel: ChannelModel, weighted: bool) -> float:
    """Sum over t >= block of w(t) * (1 - P(block, t)), P as in DecodingTable.

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
        tails = np.concatenate([_receiver_tails(block + window, e)(block, 1) for e in rates])
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
    1 - P(block, t) (see DecodingTable), truncated with a geometric tail bound
    once the shortfall drops below _SERIES_TOL.
    """
    return block + _shortfall_series(block, channel, weighted=False)


def completion_second_moment(block: int, channel: ChannelModel) -> float:
    """Second moment of the block completion time, in slots squared.

    Uses E[X^2] = sum_{t>=0} (2t+1) P(X > t), truncated like
    expected_completion_time with a weighted geometric tail bound.
    """
    return float(block) ** 2 + _shortfall_series(block, channel, weighted=True)
