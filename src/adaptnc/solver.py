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

Both run one loop over decode rows, one row per block size, built when
first read: a missing row is built with the rows just above it, a band of
about ``decoding._BAND_CELLS`` cells in one pass of the kernel (every row up
to T = 44, six rows at T = 300, one from T = 1024 on). The windowed solve
reads at state t only the rows between the previous state's optimum and the
greedy block, and drops a band once all its rows lie below that window, so
it holds O(T * window) floats where a dense decode table holds (T + 1)**2.
A per-state cap that falls below the window rebuilds the band from the row
it reads.

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
greedy scan's rows from g up. A band whose rows all lie between those two
ranges, skipped by the ceiling stop, goes, so a single receiver holds the
band of its one-packet row and the greedy scan's band or two, not every
row up to the greedy block.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel
from .decoding import _band_rows, _channel_tails


@dataclass(frozen=True)
class PolicyTable:
    """Solved block-size plan for one channel and frame length.

    Arrays are indexed by slots remaining, 0..horizon. ``k_star`` is the
    planned block size (0 at state 0), ``k_greedy`` the single-shot reward
    maximizer, ``value`` the expected packets deliverable from each state.
    ``stats`` counts the work done, for the complexity checks:
    ``bellman_evals`` the Bellman evaluations actually made (the windowed
    scan stops early at the ceiling), ``reward_evals`` the single-shot
    rewards the upward greedy scan read, ``rows_built`` the decode rows
    computed, rebuilds included.
    """

    k_star: np.ndarray
    k_greedy: np.ndarray
    value: np.ndarray
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.k_star, self.k_greedy, self.value):
            arr.flags.writeable = False


def _state_bounds(k_cap, horizon: int) -> list:
    """The largest block size considered at each state 0..horizon, from a
    scalar or per-state cap or none. At least one packet is always allowed,
    so a capped frame still transmits."""
    bounds = np.arange(horizon + 1)
    if k_cap is not None:
        caps = np.asarray(k_cap, dtype=int)
        if caps.ndim and caps.shape != (horizon + 1,):
            raise ValueError(f"cap vector must have length {horizon + 1}")
        bounds = np.minimum(bounds, caps)
    return np.maximum(bounds, 1).tolist()


class _Rows(dict):
    """Decode rows of one channel up to a horizon, built a band at a time.

    ``rows[k]`` is (tail, pmf): tail[t] is the probability that a block of k
    packets completes within t slots, pmf[j] that it completes exactly at
    slot j. Reading a missing row k builds the band of rows k, k + 1, .. in
    one pass of the kernel: ``size`` rows at most, none past ``limit`` (the
    largest block any state reads) and none that is already present.
    ``bands`` maps each band's first row to the row after its last, and
    ``drop`` deletes a band; a deleted row is built again, bit for bit, if it
    is read again. ``built`` counts the rows computed.
    """

    def __init__(self, channel: ChannelModel, horizon: int, limit: int):
        super().__init__()
        self.build = _channel_tails(horizon, Counter(channel.erasures).items())
        self.size = _band_rows(horizon)
        self.limit = limit
        self.bands = {}
        self.built = 0

    def __missing__(self, k: int):
        end = min(k + self.size, self.limit + 1)
        stop = k + 1
        while stop < end and stop not in self:
            stop += 1
        tail = self.build(k, stop - k)
        pmf = np.empty_like(tail)
        pmf[:, 0] = tail[:, 0]
        np.subtract(tail[:, 1:], tail[:, :-1], out=pmf[:, 1:])
        self.update(zip(range(k, stop), zip(tail, pmf)))
        self.bands[k] = stop
        self.built += stop - k
        return self[k]

    def drop(self, first: int):
        for j in range(first, self.bands.pop(first)):
            del self[j]


@np.errstate(over="raise", divide="raise", invalid="raise")
def _solve(channel: ChannelModel, horizon: int, k_cap, windowed: bool) -> PolicyTable:
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    bounds = _state_bounds(k_cap, horizon)
    # no row above the largest bound is read, so none is built
    rows = _Rows(channel, horizon, max(bounds[1:], default=1))
    # back[horizon - s] is the value of state s, so the values of states t
    # down to 0 are the contiguous tail back[horizon - t:] and need no
    # reversed copy
    back = np.zeros(horizon + 1)
    k_star = [0]
    k_greedy = [0]
    bellman_evals = reward_evals = 0
    top = 1.0 - channel.worst_erasure()
    g = 1  # where the greedy scan starts: never above the uncapped greedy block
    dot = np.dot

    for t in range(1, horizon + 1):
        bound = bounds[t]

        reward = g * rows[g][0].item(t)
        probes = 1
        while g < bound:
            up = (g + 1) * rows[g + 1][0].item(t)
            probes += 1
            if up <= reward:
                break
            g, reward = g + 1, up
        reward_evals += probes
        greedy = min(g, bound)
        k_greedy.append(greedy)

        if windowed:
            lo, hi = min(max(1, k_star[-1]), greedy), greedy
            ceiling = top * t - 5e-13 * (1.0 + top * t)
        else:
            lo, hi = 1, bound
            ceiling = math.inf

        # the Bellman value of committing k packets: the immediate reward
        # plus the value of the slots left, where down[j] is the value of
        # the state reached when the block completes exactly at slot j
        down = back[horizon - t :]
        k = best_k = lo
        tail, pmf = rows[lo]
        best_w = lo * tail.item(t) + float(dot(pmf[lo : t + 1], down[lo:]))
        while k < hi and best_w < ceiling:
            k += 1
            tail, pmf = rows[k]
            w = k * tail.item(t) + float(dot(pmf[k : t + 1], down[k:]))
            # strictly better only beyond float noise: candidate values can
            # differ by less than one ulp of the value scale (e.g. two block
            # sizes whose outcomes differ only on near-impossible slot
            # patterns), and such ties must resolve to the smaller block
            if w > best_w + 1e-12 * (1.0 + abs(best_w)):
                best_w, best_k = w, k
        bellman_evals += k - lo + 1
        back[horizon - t] = best_w
        k_star.append(best_k)

        if windowed:
            # later states read first the window's rows from k_star[t] up and
            # the greedy scan's from g up (best_k <= k <= g): a band goes once
            # all its rows lie below best_k or strictly between k and g
            for first in [f for f, end in rows.bands.items() if end <= best_k or k < f and end <= g]:
                rows.drop(first)

    stats = {"bellman_evals": bellman_evals, "reward_evals": reward_evals, "rows_built": rows.built}
    return PolicyTable(
        k_star=np.array(k_star), k_greedy=np.array(k_greedy), value=back[::-1].copy(), stats=stats
    )


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
