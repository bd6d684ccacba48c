"""Finite-horizon planning of coded block sizes.

The state is the number of slots left before the frame deadline. Committing a
block of K packets occupies the channel until every receiver decodes it; the
slots left at that moment form the next state, and a block still in flight at
the deadline delivers nothing. Backward induction over the state maximizes
the expected packets delivered per frame.

Two solvers produce identical tables on homogeneous channels: an exhaustive
one that scans every feasible block size at every state, and a windowed one
that exploits the monotone structure of the optimum (the optimal block size
never shrinks as the deadline recedes, and never exceeds the single-shot
greedy choice). On heterogeneous erasures the optimum can shrink, and the
windowed table then falls short at long horizons: on erasures (0.274, 0.525)
at T = 200 it differs from t = 198 on (ROADMAP item 1).

Both run one loop over decode rows built on demand, one row per block size.
The windowed solve reads at state t only the rows between the previous
state's optimum and the greedy block, and deletes the rows below that band,
so it holds O(T * window) floats where a dense decode table holds (T + 1)**2.
A per-state cap that falls below the band rebuilds the one row it reads.

The greedy block, the smallest maximizer of the single-shot reward
k * P(k, t) over the blocks the state allows, is found by stepping up from
where the previous state's scan stopped while the next block's reward is
strictly larger and the state's cap allows it. That is exact because the reward is
log-concave in k, so it rises strictly up to its smallest maximizer and
never rises after it, and that maximizer never decreases in t: binomial
tails are log-supermodular in (k, t), so by Topkis' theorem the maximizer is
monotone. A capped solve builds no row for a block that no state's cap
allows.

The windowed scan also stops at the physical ceiling C = (1 - max e) t: no
receiver hears more than a (1 - e) share of the slots, so no plan delivers
more than C packets from state t, whatever its first block. A later block
wins only if its computed value beats the best one, w, by the tie margin
1e-12 (1 + w), so the scan stops once w reaches C less half that margin,
C - 5e-13 (1 + C). Why that is sound: w + 1e-12 (1 + w) then exceeds
C + 4.99e-13 (1 + C), so a later block could win only with a computed value
about 5e-13 (1 + C) above a bound its exact value obeys. The computed values
sit far closer to the exact ones: on one receiver, whose exact value is C,
they lie between 2.3e-13 C below and 3.4e-14 C above it up to T = 2000 (ten
erasure rates from 0.05 to 0.9), a drift that grows about linearly with T.
A single receiver or a lossless channel reaches the ceiling with its first
candidate, so those solves take one Bellman evaluation per state instead of
a window that grows with t, while the drift stays below the half margin:
to about T = 4000 at the worst rates seen.

After each state the solve keeps the rows a later state reads first: from
the state's optimum up to the last block the window evaluated, and the
greedy scan's rows from g up. The rows between those two bands, skipped by
the ceiling stop, go, so a single receiver holds three rows and not every
row up to the greedy block.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel
from .decoding import _channel_tails


@dataclass(frozen=True)
class PolicyTable:
    """Solved block-size plan for one channel and frame length.

    Arrays are indexed by slots remaining, 0..horizon. ``k_star`` is the
    planned block size (0 at state 0), ``k_greedy`` the single-shot reward
    maximizer, ``value`` the expected packets deliverable from each state.
    ``stats`` counts the work done, for the complexity checks:
    ``bellman_evals`` the Bellman evaluations actually made (the windowed
    scan stops early at the ceiling), ``reward_evals`` the single-shot
    rewards the upward greedy scan read.
    """

    k_star: np.ndarray
    k_greedy: np.ndarray
    value: np.ndarray
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


class _Rows(dict):
    """Decode rows of one channel up to a horizon, built on first read.

    ``rows[k]`` is (tail, pmf): tail[t] is the probability that a block of k
    packets completes within t slots, pmf[j] that it completes exactly at
    slot j. A row the solve deletes is built again if it is read again.
    """

    def __init__(self, channel: ChannelModel, horizon: int):
        super().__init__()
        self.build = _channel_tails(horizon, Counter(channel.erasures).items())

    def __missing__(self, k: int):
        tail = self.build(k)
        pmf = np.empty_like(tail)
        pmf[0] = tail[0]
        np.subtract(tail[1:], tail[:-1], out=pmf[1:])
        self[k] = tail, pmf
        return tail, pmf


def _bellman_value(rows: _Rows, down: np.ndarray, t: int, k: int) -> float:
    """Expected packets from state t when committing k packets now: the
    immediate reward plus the value of the slots typically left over.

    ``down`` holds the values of states t, t-1, .., 0, so ``down[j]`` is
    what is left when the block completes exactly at slot j.
    """
    tail, pmf = rows[k]
    return k * float(tail[t]) + float(np.dot(pmf[k : t + 1], down[k:]))


@np.errstate(over="raise", divide="raise", invalid="raise")
def _solve(channel: ChannelModel, horizon: int, k_cap, windowed: bool) -> PolicyTable:
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    caps = _cap_vector(k_cap, horizon)
    rows = _Rows(channel, horizon)
    value = np.zeros(horizon + 1)
    # back[horizon - s] = value[s], so the values of states t down to 0 are
    # the contiguous tail back[horizon - t:] and need no reversed copy
    back = np.zeros(horizon + 1)
    k_star = np.zeros(horizon + 1, dtype=int)
    k_greedy = np.zeros(horizon + 1, dtype=int)
    stats = {"bellman_evals": 0, "reward_evals": 0}
    top = 1.0 - channel.worst_erasure()
    g = 1  # where the greedy scan starts: never above the uncapped greedy block

    for t in range(1, horizon + 1):
        bound = _state_bound(t, caps)

        reward = g * float(rows[g][0][t])
        probes = 1
        while g < bound:
            up = (g + 1) * float(rows[g + 1][0][t])
            probes += 1
            if up <= reward:
                break
            g, reward = g + 1, up
        stats["reward_evals"] += probes
        k_greedy[t] = min(g, bound)

        if windowed:
            lo = max(1, int(k_star[t - 1]))
            hi = int(k_greedy[t])
            if lo > hi:
                lo = hi
            ceiling = top * t - 5e-13 * (1.0 + top * t)
        else:
            lo, hi = 1, bound
            ceiling = math.inf

        down = back[horizon - t :]
        k = best_k = lo
        best_w = _bellman_value(rows, down, t, lo)
        while k < hi and best_w < ceiling:
            k += 1
            w = _bellman_value(rows, down, t, k)
            # strictly better only beyond float noise: candidate values can
            # differ by less than one ulp of the value scale (e.g. two block
            # sizes whose outcomes differ only on near-impossible slot
            # patterns), and such ties must resolve to the smaller block
            if w > best_w + 1e-12 * (1.0 + abs(best_w)):
                best_w, best_k = w, k
        stats["bellman_evals"] += k - lo + 1
        value[t] = back[horizon - t] = best_w
        k_star[t] = best_k

        if windowed:
            # later states read first the window's rows from k_star[t] up and
            # the greedy scan's from g up (best_k <= k <= g); a row dropped
            # here is rebuilt, bit for bit, if a later state reads it
            for j in [j for j in rows if j < best_k or k < j < g]:
                del rows[j]

    return PolicyTable(k_star=k_star, k_greedy=k_greedy, value=value, stats=stats)


def solve_bruteforce(horizon: int, channel: ChannelModel, k_cap=None) -> PolicyTable:
    """Exact backward induction scanning every feasible block size."""
    return _solve(channel, horizon, k_cap, windowed=False)


def solve_monotone(horizon: int, channel: ChannelModel, k_cap=None) -> PolicyTable:
    """Backward induction restricted to the monotone search window.

    At each state only block sizes between the previous state's optimum and
    the greedy choice are evaluated; on a homogeneous channel the result
    matches solve_bruteforce. On heterogeneous erasures the window can miss
    the optimum near long horizons (ROADMAP item 1).
    """
    return _solve(channel, horizon, k_cap, windowed=True)


def retransmission_threshold(t: int, n_receivers: int) -> float:
    """Smallest erasure rate, as a double, at which one-packet blocks win.

    With t slots left and n receivers, a one-packet block's single-shot
    reward beats a two-packet block's where f(e) > 0, with r = 2**(1/n) and
    f(e) = (1 - e) * [t r e**(t-1) - (r - 1) * sum_{j<t} e**j].
    Divided by e**(t-1) the bracket is t r - (r - 1) * sum_{m<t} e**(-m),
    which rises strictly from -inf at e = 0 to t at e = 1, so f changes sign
    exactly once on (0, 1). Bisection on that sign, comparing the positive
    terms t r e**(t-1) (1 - e) and (r - 1) (1 - e**t), runs until the
    bracket's ends are adjacent doubles and returns the upper one.
    """
    if t < 2:
        raise ValueError("threshold needs at least two slots (block size two)")
    if n_receivers < 1:
        raise ValueError("n_receivers must be at least 1")
    root_n = 2.0 ** (1.0 / n_receivers)
    scale, excess = t * root_n, root_n - 1.0
    lo, hi = 0.0, 1.0
    # the rounded midpoint of two doubles falls strictly between them
    # unless they are adjacent
    while lo < (e := 0.5 * (lo + hi)) < hi:
        if scale * e ** (t - 1) * (1.0 - e) > excess * (1.0 - e**t):
            hi = e
        else:
            lo = e
    return hi
