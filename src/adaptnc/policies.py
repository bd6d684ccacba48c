"""Block-size decision rules driven per frame by the simulator.

Every policy answers one question at each block boundary: with t slots left
and m undelivered packets, how many packets go into the next coded block?
Answers are clipped to min(t, m), and 0 means stay silent (only when the
backlog is empty or the frame is over). Every rule but the learning one is a
plan, one block size per slots-left state, and keeps no run state. The
learning policy instead consumes per-slot feedback counts to maintain a
running erasure estimate, carried across frames until it is reset.

``block_rule`` is ``decide`` for many replications at once, as the batch
engine calls it: a plan reads its plan, and the learner reads estimate paths
computed up front, since its estimate never depends on the blocks committed.
"""

import numpy as np

from .channel import ChannelModel, check_receivers
from .decoding import completion_second_moment, expected_completion_time
from .errors import ConfigError, DivergenceError
from .solver import PolicyTable, solve_monotone

POLICY_KINDS = ("optimal", "greedy", "conservative", "retransmission", "variance", "learning")

# Erasure estimates are snapped to this grid before solving, so one learning
# run reuses a handful of plan tables instead of re-solving every slot.
ESTIMATE_GRID = 1e-3
_GRID_POINTS = round(1 / ESTIMATE_GRID) + 1  # estimates in [0, 1]


def check_sigma2(sigma2: float | None):
    """The variance policy's completion-jitter budget: given, and > 0."""
    if sigma2 is None or not sigma2 > 0:
        raise ConfigError(f"sigma2 must be > 0 for the variance policy, got {sigma2}")


def check_learning(delta: float, eps_init: float):
    """The learning policy's caution threshold and initial erasure guess."""
    if not delta >= 0:
        raise ConfigError(f"delta must be >= 0, got {delta}")
    if not 0.0 <= eps_init <= 1.0:
        raise ConfigError(f"eps_init must lie in [0, 1], got {eps_init}")


class BlockPolicy:
    """A decision rule with a plan: one block size per slots-left state.

    ``plan[t]`` is the block committed with t slots left, clipped to t when
    the policy is built, so the per-frame engine (``decide``) and the batch
    engine (``block_rule``) read one vector; ``horizon`` is the longest
    frame it plans for. The learning policy, which has no plan, is the only
    one to override them.
    """

    name = "base"

    def __init__(self, plan):
        plan = np.minimum(plan, np.arange(len(plan)))
        plan.flags.writeable = False
        self.plan = plan
        self.horizon = len(plan) - 1

    def observe_slot(self, received: int, n_receivers: int):
        """Per-slot feedback hook; only the learning policy uses it."""

    def reset(self):
        """Forget the run; a plan keeps none."""

    def check_horizon(self, horizon: int):
        """Both engines fail alike on a frame longer than the plan, whatever
        the backlog."""
        if horizon > self.horizon:
            raise ConfigError(
                f"{self.name} plan built to horizon {self.horizon}, frame needs {horizon}"
            )

    def decide(self, t: int, backlog: int) -> int:
        self.check_horizon(t)
        if t <= 0 or backlog <= 0:
            return 0
        return min(int(self.plan[t]), backlog)

    def decision_vector(self, horizon: int):
        """The plan for states 0..horizon, a copy the caller may keep."""
        self.check_horizon(horizon)
        return self.plan[: horizon + 1].copy()

    def block_rule(self, horizon: int, counts: np.ndarray):
        """``decide`` for a batch of frames of ``horizon`` slots at once.

        ``counts[r, i, s]`` is receiver i's receptions in the first s slots
        of replication r. The rule maps (replications, their slots left,
        their backlogs), three equal-length arrays, to their next block
        sizes; the engine calls it only where slots and packets remain. A
        plan reads min(plan[t], backlog) and ignores the counts.
        """
        plan = self.plan
        return lambda active, t, m: np.minimum(plan[t], m)


class TablePolicy(BlockPolicy):
    """Common base for policies whose plan is a column of a solved table."""

    column = "k_star"

    def __init__(self, table: PolicyTable):
        if table is None:
            raise ConfigError(f"{self.name} policy needs a solved plan table")
        self.table = table
        super().__init__(getattr(table, self.column))


class OptimalPolicy(TablePolicy):
    name = "optimal"


class GreedyPolicy(TablePolicy):
    name = "greedy"
    column = "k_greedy"


class RetransmissionPolicy(BlockPolicy):
    """Plain repetition: one packet at a time until everyone has it."""

    name = "retransmission"

    def __init__(self, horizon: int):
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        super().__init__(np.ones(horizon + 1, dtype=int))


def _moment_scan(moment, channel: ChannelModel, ceiling: int, fits) -> np.ndarray:
    """moment(k, channel) for k = 1, 2, .. up to ``ceiling``, while ``fits``
    holds. The moments grow with k, so the scan stops at the first that does
    not fit, or at a channel where the moment diverges."""
    if ceiling < 0:
        raise ValueError("horizon must be non-negative")
    moments = []
    for k in range(1, ceiling + 1):
        try:
            m = moment(k, channel)
        except DivergenceError:
            break
        if not fits(m):
            break
        moments.append(m)
    return np.array(moments)


class ConservativePolicy(BlockPolicy):
    """Largest block expected (on average) to finish in the remaining slots.

    Falls back to a single packet when not even that is expected to finish,
    so the frame is never left idle.
    """

    name = "conservative"

    def __init__(self, channel: ChannelModel, horizon: int):
        means = _moment_scan(
            expected_completion_time, channel, horizon, lambda m: m <= horizon + 1e-9
        )
        # plan[t] counts the blocks whose mean fits t slots, at least one;
        # the clip to t then leaves state 0 silent
        fitting = np.searchsorted(means, np.arange(horizon + 1) + 1e-9, side="right")
        super().__init__(np.maximum(fitting, 1))


class VarianceConstrainedPolicy(TablePolicy):
    """Optimal plan under a completion-jitter budget.

    The block cap is the largest size whose completion-time second moment
    stays below sigma2, and the plan is re-solved under that cap. A budget
    too tight for even a single packet still transmits one; the frame is
    never left idle.
    """

    name = "variance"

    def __init__(self, channel: ChannelModel, horizon: int, sigma2: float):
        check_sigma2(sigma2)
        self.k_cap = len(
            _moment_scan(completion_second_moment, channel, horizon, lambda v: v < sigma2)
        )
        super().__init__(solve_monotone(horizon, channel, k_cap=max(1, self.k_cap)))


class LearningPolicy(BlockPolicy):
    """Joint erasure learning and block planning from reception feedback.

    At each block boundary the plan solved for the grid-snapped current
    erasure estimate supplies the candidate block size. While the estimate is
    still moving by more than ``delta`` per slot, the committed size may grow
    by at most one packet per decision (and never shrinks below the previous
    one); once the estimate settles, the candidate is used as is. The first
    block of a run is a single packet, before any feedback exists.

    ``eps_hat`` averages the observed per-slot loss ratios together with one
    pseudo-sample at ``eps_init``, so the sample observed with t slots left
    in the first frame enters with weight 1/(T-t+1) and later samples keep
    shrinking it across frames. ``eps_hat_prev`` is the estimate before the
    latest slot; ``last_block`` the block size most recently committed.
    """

    name = "learning"

    def __init__(
        self,
        n_receivers: int,
        horizon: int,
        delta: float = 0.05,
        eps_init: float = 0.5,
    ):
        check_learning(delta, eps_init)
        check_receivers(n_receivers)
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        self.n_receivers = n_receivers
        self.horizon = horizon
        self.delta = delta
        self.eps_init = eps_init
        self._tables: dict[float, PolicyTable] = {}
        self.reset()

    def reset(self):
        """Forget the run (used between independent replications)."""
        self.eps_hat = self.eps_hat_prev = self.eps_init
        self.slots_observed = 0
        self.last_block = None
        # one row per committed block: (t, k, estimate_was_moving)
        self.decision_log: list[tuple[int, int, bool]] = []

    def _check_receivers(self, n_receivers: int):
        if n_receivers != self.n_receivers:
            raise ValueError(
                f"learning policy plans for {self.n_receivers} receivers, "
                f"the channel has {n_receivers}"
            )

    def observe_slot(self, received: int, n_receivers: int):
        self._check_receivers(n_receivers)
        if not 0 <= received <= n_receivers:
            raise ValueError(f"received count {received} outside 0..{n_receivers}")
        loss = 1.0 - received / n_receivers
        weight = self.slots_observed + 1  # +1 for the initial pseudo-sample
        self.eps_hat_prev = self.eps_hat
        self.eps_hat = (weight * self.eps_hat + loss) / (weight + 1)
        self.slots_observed += 1

    def decision_vector(self, horizon: int):
        """No plan: each decision depends on the slots observed so far."""
        return None

    def _plan(self, point: int) -> PolicyTable:
        """The plan solved for the estimate at grid point ``point``, that is
        point * ESTIMATE_GRID clipped to [0, 1], solved once per policy."""
        eps = min(max(point * ESTIMATE_GRID, 0.0), 1.0)
        if eps not in self._tables:
            channel = ChannelModel.homogeneous(eps, self.n_receivers)
            self._tables[eps] = solve_monotone(self.horizon, channel)
        return self._tables[eps]

    def planned_table(self) -> PolicyTable:
        """The plan for the current estimate, snapped to the nearest grid
        point (ties to even, as np.rint snaps in ``block_rule``)."""
        return self._plan(round(self.eps_hat / ESTIMATE_GRID))

    def decide(self, t: int, backlog: int) -> int:
        self.check_horizon(t)
        if t <= 0 or backlog <= 0:
            return 0
        planned = int(self.planned_table().k_star[t])
        moving = abs(self.eps_hat - self.eps_hat_prev) > self.delta
        prev = self.last_block
        if prev is None:
            k = 1
        elif moving:
            # cautious while the estimate drifts: step up by at most one,
            # never below the previous size
            k = min(max(planned, prev), prev + 1)
        else:
            k = planned
        k = min(k, t, backlog)
        self.last_block = k
        self.decision_log.append((t, k, moving))
        return k

    def _estimate_paths(self, counts: np.ndarray):
        """Where the estimate of a fresh run stands after s = 0..T slots of
        each replication of ``counts`` (shaped as in ``block_rule``): its
        grid point and whether the latest slot moved it by more than delta,
        two (T + 1, replications) arrays. One slot at a time for every
        replication at once, with the float operations of ``observe_slot``,
        so every estimate is bit for bit the one the per-frame run holds."""
        c, n, width = counts.shape
        point = np.empty((width, c), dtype=np.int16)
        moving = np.zeros((width, c), dtype=bool)
        point[0] = round(self.eps_init / ESTIMATE_GRID)
        est = np.full(c, self.eps_init, dtype=float)
        seen = np.zeros(c, dtype=np.int64)
        for s in range(1, width):
            total = counts[:, :, s].sum(axis=1, dtype=np.int64)
            loss = 1.0 - (total - seen) / n
            new = (s * est + loss) / (s + 1)  # weight s: s - 1 slots seen before
            np.greater(np.abs(new - est), self.delta, out=moving[s])
            point[s] = np.rint(new / ESTIMATE_GRID)  # in 0.._GRID_POINTS - 1
            est, seen = new, total
        return point, moving

    def block_rule(self, horizon: int, counts: np.ndarray):
        """``decide`` for fresh runs, one per replication of ``counts``,
        whatever this policy's own run state. With s = horizon - t slots
        observed, a decision reads the estimate's grid point and moving flag
        after s slots and the replication's last block, and makes the first
        block, the ramp and the clip of ``decide``. Each plan is solved
        through the policy's cache when a decision first needs it, so the
        batch solves the tables the per-frame runs would.
        """
        c, n, width = counts.shape
        self._check_receivers(n)
        point, moving = self._estimate_paths(counts)
        plans = np.zeros((_GRID_POINTS, width), dtype=np.min_scalar_type(horizon))
        solved = np.zeros(_GRID_POINTS, dtype=bool)
        last = np.zeros(c, dtype=np.int64)  # 0 until a replication's first block

        def rule(active, t, m):
            s = horizon - t
            at = point[s, active]
            for p in np.unique(at[~solved[at]]).tolist():
                plans[p] = self._plan(p).k_star[:width]
                solved[p] = True
            planned = plans[at, t]
            prev = last[active]
            ramp = np.minimum(np.maximum(planned, prev), prev + 1)
            k = np.where(prev == 0, 1, np.where(moving[s, active], ramp, planned))
            k = np.minimum(k, np.minimum(t, m))
            last[active] = k
            return k

        return rule


def make_policy(
    kind: str,
    channel: ChannelModel,
    horizon: int,
    sigma2: float | None = None,
    delta: float = 0.05,
    eps_init: float = 0.5,
) -> BlockPolicy:
    """Build a policy by name, solving whatever plan it needs."""
    kind = kind.lower()
    if kind in ("optimal", "greedy"):
        table = solve_monotone(horizon, channel)
        return OptimalPolicy(table) if kind == "optimal" else GreedyPolicy(table)
    if kind == "retransmission":
        return RetransmissionPolicy(horizon)
    if kind == "conservative":
        return ConservativePolicy(channel, horizon)
    if kind == "variance":
        return VarianceConstrainedPolicy(channel, horizon, sigma2)
    if kind == "learning":
        return LearningPolicy(channel.n_receivers, horizon, delta, eps_init)
    raise ConfigError(f"unknown policy kind: {kind!r}")
