"""Finite-horizon planning of coded block sizes.

The state is the number of slots left before the frame deadline. Committing a
block of K packets occupies the channel until every receiver decodes it; the
slots left at that moment form the next state, and a block still in flight at
the deadline delivers nothing. Backward induction over the state maximizes
the expected packets delivered per frame.

Two solvers produce identical tables: an exhaustive one that scans every
feasible block size at every state, and a windowed one that exploits the
monotone structure of the optimum (the optimal block size never shrinks as
the deadline recedes, and never exceeds the single-shot greedy choice).
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel
from .decoding import DecodingTable
from .search import argmax_unimodal, bisect_root, golden_max


@dataclass(frozen=True)
class PolicyTable:
    """Solved block-size plan for one channel and frame length.

    Arrays are indexed by slots remaining, 0..horizon. ``k_star`` is the
    planned block size (0 at state 0), ``k_greedy`` the single-shot reward
    maximizer, ``value`` the expected packets deliverable from each state.
    ``k_cap`` records any per-state upper bound the solve honored. ``stats``
    counts the work done, for the complexity checks.
    """

    channel: ChannelModel
    horizon: int
    k_star: np.ndarray
    k_greedy: np.ndarray
    value: np.ndarray
    k_cap: np.ndarray | None = None
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.k_star, self.k_greedy, self.value):
            arr.flags.writeable = False


def _cap_vector(k_cap, horizon: int):
    """Normalize a scalar or per-state cap to an int vector, or None."""
    if k_cap is None:
        return None
    caps = np.asarray(k_cap, dtype=int)
    if caps.ndim == 0:
        caps = np.full(horizon + 1, int(caps))
    if caps.shape != (horizon + 1,):
        raise ValueError(f"cap vector must have length {horizon + 1}")
    return caps


def _state_bound(t: int, caps) -> int:
    """Largest block size considered at state t; at least one packet is
    always allowed so a capped frame still transmits."""
    bound = t if caps is None else min(t, int(caps[t]))
    return max(1, bound)


def _bellman_value(table: DecodingTable, value: np.ndarray, t: int, k: int) -> float:
    """Expected packets from state t when committing k packets now: the
    immediate reward plus the value of the slots typically left over."""
    cont = float(np.dot(table.deltas[k, k : t + 1], value[t - k :: -1]))
    return k * float(table.values[k, t]) + cont


@np.errstate(over="raise", divide="raise", invalid="raise")
def _solve(channel: ChannelModel, horizon: int, k_cap, windowed: bool) -> PolicyTable:
    caps = _cap_vector(k_cap, horizon)
    table = DecodingTable(channel, horizon)
    value = np.zeros(horizon + 1)
    k_star = np.zeros(horizon + 1, dtype=int)
    k_greedy = np.zeros(horizon + 1, dtype=int)
    stats = {"bellman_evals": 0, "reward_evals": 0}

    for t in range(1, horizon + 1):
        bound = _state_bound(t, caps)
        row = table.values[:, t]

        def reward(k):
            stats["reward_evals"] += 1
            return k * row[k]

        k_greedy[t] = argmax_unimodal(reward, 1, bound)

        if windowed:
            lo = max(1, int(k_star[t - 1]))
            hi = min(bound, int(k_greedy[t]))
            if lo > hi:
                lo = hi
        else:
            lo, hi = 1, bound

        best_k = lo
        best_w = _bellman_value(table, value, t, lo)
        stats["bellman_evals"] += 1
        for k in range(lo + 1, hi + 1):
            w = _bellman_value(table, value, t, k)
            stats["bellman_evals"] += 1
            # strictly better only beyond float noise: candidate values can
            # differ by less than one ulp of the value scale (e.g. two block
            # sizes whose outcomes differ only on near-impossible slot
            # patterns), and such ties must resolve to the smaller block
            if w > best_w + 1e-12 * (1.0 + abs(best_w)):
                best_w, best_k = w, k
        value[t] = best_w
        k_star[t] = best_k

    return PolicyTable(
        channel=channel,
        horizon=horizon,
        k_star=k_star,
        k_greedy=k_greedy,
        value=value,
        k_cap=caps,
        stats=stats,
    )


def solve_bruteforce(horizon: int, channel: ChannelModel, k_cap=None) -> PolicyTable:
    """Exact backward induction scanning every feasible block size."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    return _solve(channel, horizon, k_cap, windowed=False)


def solve_monotone(horizon: int, channel: ChannelModel, k_cap=None) -> PolicyTable:
    """Backward induction restricted to the monotone search window.

    At each state only block sizes between the previous state's optimum and
    the greedy choice are evaluated; the result matches solve_bruteforce.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    return _solve(channel, horizon, k_cap, windowed=True)


def retransmission_threshold(t: int, n_receivers: int) -> float:
    """Erasure rate above which one-packet blocks beat two-packet blocks.

    Compares the single-shot rewards of block sizes one and two with t slots
    left and n receivers. Their difference, scaled to
    f(e) = (1 - e**t) - 2**(1/n) * (1 - e**t + t*e**t - t*e**(t-1)),
    is negative at e = 0, crosses zero exactly once, peaks, and returns to
    zero at e = 1. The crossing is bracketed by the peak and bisected.
    """
    if t < 2:
        raise ValueError("threshold needs at least two slots (block size two)")
    if n_receivers < 1:
        raise ValueError("n_receivers must be at least 1")
    root_n = 2.0 ** (1.0 / n_receivers)

    def f(e):
        et = e**t
        return (1.0 - et) - root_n * (1.0 - et + t * et - t * e ** (t - 1))

    peak = golden_max(f, 0.0, 1.0)
    return bisect_root(f, 0.0, peak)
