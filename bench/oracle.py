"""Reference computations that the benchmark checks adaptnc's outputs against.

Nothing here imports adaptnc. Decode probabilities are binomial tails summed
in log space from ``math.lgamma`` terms, so they neither underflow nor
overflow at any horizon the benchmark uses; policy values come from an exact
evaluation of a given decision vector; schedules are checked by trying every
split of the frame.
"""

import math
from itertools import combinations

import numpy as np


class LogFactorials:
    """log(n!) for n = 0..n_max, grown on demand."""

    def __init__(self):
        self._values = np.zeros(1)

    def upto(self, n: int) -> np.ndarray:
        if n >= len(self._values):
            self._values = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
        return self._values


LOG_FACT = LogFactorials()


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def log_decode_column(t: int, erasure: float) -> np.ndarray:
    """log P(one receiver holds >= k of t packets), for k = 0..t."""
    lf = LOG_FACT.upto(t)
    j = np.arange(t + 1)
    log_terms = lf[t] - lf[j] - lf[t - j]
    with np.errstate(invalid="ignore"):
        log_terms = log_terms + np.where(j > 0, j * _log(1.0 - erasure), 0.0)
        log_terms = log_terms + np.where(j < t, (t - j) * _log(erasure), 0.0)
    return np.logaddexp.accumulate(log_terms[::-1])[::-1]


def log_decode_row(k: int, horizon: int, erasure: float) -> np.ndarray:
    """log P(one receiver holds k packets within t slots), for t = 0..horizon.

    Sum of negative-binomial terms C(tau-1, k-1) (1-e)^k e^(tau-k) over the
    slot tau at which the k-th packet arrives.
    """
    out = np.full(horizon + 1, -math.inf)
    if k == 0:
        out[:] = 0.0
        return out
    if k > horizon:
        return out
    lf = LOG_FACT.upto(horizon)
    tau = np.arange(k, horizon + 1)
    log_terms = lf[tau - 1] - lf[k - 1] - lf[tau - k] + k * _log(1.0 - erasure)
    with np.errstate(invalid="ignore"):
        log_terms = log_terms + np.where(tau > k, (tau - k) * _log(erasure), 0.0)
    out[k:] = np.logaddexp.accumulate(log_terms)
    return out


def _grouped(erasures):
    """(erasure, receiver count) pairs: receivers are independent, so equal
    rates contribute one log term times their multiplicity."""
    erasures = [float(e) for e in erasures]
    return [(e, erasures.count(e)) for e in sorted(set(erasures))]


def decode_column(t: int, erasures) -> np.ndarray:
    """P(every receiver decodes a k-packet block within t slots), k = 0..t."""
    total = np.zeros(t + 1)
    for e, count in _grouped(erasures):
        total += count * log_decode_column(t, e)
    return np.exp(total)


def decode_row(k: int, horizon: int, erasures) -> np.ndarray:
    """P(every receiver decodes a k-packet block within t slots), t = 0..horizon."""
    total = np.zeros(horizon + 1)
    for e, count in _grouped(erasures):
        total += count * log_decode_row(k, horizon, e)
    return np.exp(total)


def policy_value(decisions, horizon: int, erasures) -> np.ndarray:
    """Exact expected packets delivered from each state under a decision vector.

    ``decisions[t]`` is the block committed with t slots left (clipped to t);
    the frame runs with a backlog of at least t packets, so the backlog never
    binds. A block still in flight at the deadline delivers nothing.
    """
    value = np.zeros(horizon + 1)
    rows = {}
    for t in range(1, horizon + 1):
        k = min(int(decisions[t]), t)
        if k <= 0:
            continue
        if k not in rows:
            row = decode_row(k, horizon, erasures)
            rows[k] = (row, np.diff(row, prepend=0.0))
        row, delta = rows[k]
        value[t] = k * row[t] + float(np.dot(delta[k : t + 1], value[t - k :: -1]))
    return value


def decode_matrix(horizon: int, erasures) -> np.ndarray:
    """(horizon+1, horizon+1) array whose [k, t] entry is the decode probability."""
    out = np.zeros((horizon + 1, horizon + 1))
    for t in range(horizon + 1):
        out[: t + 1, t] = decode_column(t, erasures)
    return out


def bellman_shortfall(value, horizon: int, erasures, bound) -> float:
    """Largest amount by which some block size k <= bound(t) beats ``value[t]``.

    A solved value vector is optimal when no single decision followed by the
    same vector does better, so this is at most float noise for an optimal
    table. Exhaustive over every state and block size: O(horizon^3).
    """
    probs = decode_matrix(horizon, erasures)
    deltas = np.diff(probs, axis=1, prepend=0.0)
    worst = 0.0
    for t in range(1, horizon + 1):
        best = -math.inf
        for k in range(1, bound(t) + 1):
            q = k * probs[k, t] + float(np.dot(deltas[k, k : t + 1], value[t - k :: -1]))
            best = max(best, q)
        worst = max(worst, best - value[t])
    return worst


def log_miss_by(block: int, horizon: int, erasure: float) -> np.ndarray:
    """log P(one receiver holds fewer than ``block`` packets after s slots),
    s = 0..horizon: the binomial left tail, summed directly so that it stays
    accurate when tiny."""
    lf = LOG_FACT.upto(horizon)
    s = np.arange(horizon + 1)[:, None]
    j = np.arange(block)[None, :]
    with np.errstate(invalid="ignore"):
        log_terms = (lf[s] - lf[j] - lf[np.maximum(s - j, 0)]
                     + np.where(j > 0, j * _log(1.0 - erasure), 0.0)
                     + np.where(s > j, (s - j) * _log(erasure), 0.0))
    log_terms = np.where(j <= s, log_terms, -math.inf)
    return np.logaddexp.reduce(log_terms, axis=1)


def completion_moments(block: int, erasures):
    """(E[X], E[X^2]) of the slot X at which every receiver holds ``block`` packets.

    E[X] = sum_s P(X > s) and E[X^2] = sum_s (2s+1) P(X > s), with
    P(X > s) = 1 - prod_i (1 - P(receiver i short at s)). The horizon doubles
    until P(X > s) at its end is below 1e-18, far under what either sum can
    resolve.
    """
    horizon = int(4 * block / (1.0 - max(erasures))) + 64
    while horizon <= 10**6:
        log_hit = np.zeros(horizon + 1)
        for e, count in _grouped(erasures):
            miss_one = np.exp(np.minimum(log_miss_by(block, horizon, e), 0.0))
            with np.errstate(divide="ignore"):
                log_hit += count * np.log1p(-miss_one)
        miss = -np.expm1(log_hit)
        if miss[-1] < 1e-18:
            s = np.arange(horizon + 1)
            return float(miss.sum()), float(((2 * s + 1) * miss).sum())
        horizon *= 2
    raise ValueError(f"completion time of a {block}-packet block has no finite moments")


def threshold_gap(erasure: float, t: int, n_receivers: int) -> float:
    """Single-shot reward of one packet minus that of two, t slots left."""
    erasures = [erasure] * n_receivers
    return float(decode_row(1, t, erasures)[t] - 2.0 * decode_row(2, t, erasures)[t])


def all_splits(n_flows: int, horizon: int) -> np.ndarray:
    """Every slot split (s_1..s_F) with s_f >= 0 and sum <= horizon, by stars
    and bars, as an (n, F) int array."""
    bars = np.array(list(combinations(range(horizon + n_flows), n_flows)), dtype=np.int64)
    return np.diff(bars, axis=1, prepend=-1) - 1


def best_split_value(splits: np.ndarray, gains) -> float:
    """Largest sum_f gains[f][s_f] over the given splits."""
    total = np.zeros(len(splits))
    for f, g in enumerate(gains):
        total += np.asarray(g)[splits[:, f]]
    return float(total.max())


def philox_bits(seed: int, stream: int, slots: int, erasures) -> np.ndarray:
    """Reception indicators of one frame as the documented stream layout
    defines them: Philox keyed by (seed, stream), one (slots, receivers)
    uniform draw, received where the draw is below 1 - erasure."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random((slots, len(erasures)))
    return u < (1.0 - np.asarray(erasures, dtype=float))


def replay_frame(bits: np.ndarray, decisions, backlog: int) -> int:
    """Packets delivered in one frame by a table policy over given bits.

    With t slots left and m packets waiting the block is min(decisions[t],
    t, m); it holds the channel until every receiver has collected that many
    packets, and a block cut off by the deadline delivers nothing.
    """
    horizon = bits.shape[0]
    t, m, s, delivered = horizon, backlog, 0, 0
    while t > 0 and m > 0:
        k = min(int(decisions[t]), t, m)
        if k <= 0:
            break
        counts = np.zeros(bits.shape[1], dtype=np.int64)
        done = False
        while s < horizon:
            counts += bits[s]
            s += 1
            if counts.min() >= k:
                done = True
                break
        if not done:
            break
        delivered += k
        m -= k
        t = horizon - s
    return delivered


def optimal_value(horizon: int, erasures, bound=None) -> np.ndarray:
    """Best expected packets from each state, by backward induction over
    every block size 1..bound(t) (default t)."""
    probs = decode_matrix(horizon, erasures)
    deltas = np.diff(probs, axis=1, prepend=0.0)
    value = np.zeros(horizon + 1)
    for t in range(1, horizon + 1):
        top = t if bound is None else bound(t)
        value[t] = max(
            k * probs[k, t] + float(np.dot(deltas[k, k : t + 1], value[t - k :: -1]))
            for k in range(1, top + 1)
        )
    return value
