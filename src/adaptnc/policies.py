"""Block-size decision rules driven per frame by the simulator.

Every policy answers one question at each block boundary: with t slots left
and m undelivered packets, how many packets go into the next coded block?
Answers are clipped to min(t, m), and 0 means stay silent (only when the
backlog is empty or the frame is over). Every rule but the learning one is a
plan, one block size per slots-left state; the learning policy instead
consumes per-slot feedback counts to maintain a running erasure estimate.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .decoding import completion_second_moment, expected_completion_time
from .errors import ConfigError, DivergenceError
from .solver import PolicyTable, solve_monotone

POLICY_KINDS = ("optimal", "greedy", "conservative", "retransmission", "variance", "learning")

# Erasure estimates are snapped to this grid before solving, so one learning
# run reuses a handful of plan tables instead of re-solving every slot.
ESTIMATE_GRID = 1e-3


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


@dataclass
class LearnerState:
    """Running erasure estimate built from per-slot reception counts.

    ``eps_hat`` averages the observed per-slot loss ratios together with one
    pseudo-sample at the initial guess, so the sample observed with t slots
    left in the first frame enters with weight 1/(T-t+1) and later samples
    keep shrinking it across frames. ``eps_hat_prev`` is the estimate before
    the latest slot; ``last_block`` the block size most recently committed.
    """

    eps_hat: float
    eps_hat_prev: float
    last_block: int | None = None
    slots_observed: int = 0

    def observe_slot(self, received: int, n_receivers: int):
        if not 0 <= received <= n_receivers:
            raise ValueError(f"received count {received} outside 0..{n_receivers}")
        loss = 1.0 - received / n_receivers
        weight = self.slots_observed + 1  # +1 for the initial pseudo-sample
        self.eps_hat_prev = self.eps_hat
        self.eps_hat = (weight * self.eps_hat + loss) / (weight + 1)
        self.slots_observed += 1

    def shift(self) -> float:
        """How far the last slot moved the estimate."""
        return abs(self.eps_hat - self.eps_hat_prev)


class BlockPolicy:
    """A decision rule with a plan: one block size per slots-left state.

    ``plan[t]`` is the block committed with t slots left, clipped to t when
    the policy is built, so the per-frame engine (``decide``) and the batch
    engine (``decision_vector``) read one vector. A rule without a plan
    overrides both.
    """

    name = "base"

    def __init__(self, plan):
        plan = np.minimum(plan, np.arange(len(plan)))
        plan.flags.writeable = False
        self.plan = plan

    def reset(self):
        """Forget any per-run state (used between independent replications)."""

    def start_frame(self, horizon: int):
        """Called when a new frame of ``horizon`` slots begins."""

    def observe_slot(self, received: int, n_receivers: int):
        """Per-slot feedback hook; only the learning policy uses it."""

    def decide(self, t: int, backlog: int) -> int:
        if t <= 0 or backlog <= 0:
            return 0
        return min(int(self.plan[t]), backlog)

    def decision_vector(self, horizon: int):
        """The plan for states 0..horizon, a copy the caller may keep."""
        if horizon >= len(self.plan):
            raise ConfigError(
                f"{self.name} plan built to horizon {len(self.plan) - 1}, frame needs {horizon}"
            )
        return self.plan[: horizon + 1].copy()


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
    """Plain repetition: one packet at a time until everyone has it, on a
    frame of any length."""

    name = "retransmission"

    def __init__(self):
        """No plan: the rule is the same at every state."""

    def decide(self, t: int, backlog: int) -> int:
        return 1 if t > 0 and backlog > 0 else 0

    def decision_vector(self, horizon: int):
        vec = np.ones(horizon + 1, dtype=int)
        vec[0] = 0
        return vec


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
        self.sigma2 = sigma2
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
        self.n_receivers = n_receivers
        self.horizon = horizon
        self.delta = delta
        self.eps_init = eps_init
        self.learner = LearnerState(eps_hat=eps_init, eps_hat_prev=eps_init)
        self._tables: dict[float, PolicyTable] = {}
        # one row per committed block: (frame, t, k, estimate_was_moving)
        self.decision_log: list[tuple[int, int, int, bool]] = []
        self._frame = -1

    def reset(self):
        self.learner = LearnerState(eps_hat=self.eps_init, eps_hat_prev=self.eps_init)
        self.decision_log.clear()
        self._frame = -1

    def start_frame(self, horizon: int):
        if horizon > self.horizon:
            raise ConfigError(f"learning plan built to horizon {self.horizon}")
        self._frame += 1

    def observe_slot(self, received: int, n_receivers: int):
        self.learner.observe_slot(received, n_receivers)

    def decision_vector(self, horizon: int):
        """No plan: each decision depends on the slots observed so far."""
        return None

    def planned_table(self) -> PolicyTable:
        eps = round(self.learner.eps_hat / ESTIMATE_GRID) * ESTIMATE_GRID
        eps = min(max(eps, 0.0), 1.0)
        if eps not in self._tables:
            channel = ChannelModel.homogeneous(eps, self.n_receivers)
            self._tables[eps] = solve_monotone(self.horizon, channel)
        return self._tables[eps]

    def decide(self, t: int, backlog: int) -> int:
        if t <= 0 or backlog <= 0:
            return 0
        planned = int(self.planned_table().k_star[t])
        moving = self.learner.shift() > self.delta
        prev = self.learner.last_block
        if prev is None:
            k = 1
        elif moving:
            # cautious while the estimate drifts: step up by at most one,
            # never below the previous size
            k = min(max(planned, prev), prev + 1)
        else:
            k = planned
        k = min(k, t, backlog)
        self.learner.last_block = k
        self.decision_log.append((self._frame, t, k, moving))
        return k


def make_policy(
    kind: str,
    channel: ChannelModel,
    horizon: int,
    sigma2: float | None = None,
    delta: float = 0.05,
    eps_init: float = 0.5,
    table: PolicyTable | None = None,
) -> BlockPolicy:
    """Build a policy by name, solving whatever plan it needs."""
    kind = kind.lower()
    if kind in ("optimal", "greedy"):
        if table is None:
            table = solve_monotone(horizon, channel)
        return OptimalPolicy(table) if kind == "optimal" else GreedyPolicy(table)
    if kind == "retransmission":
        return RetransmissionPolicy()
    if kind == "conservative":
        return ConservativePolicy(channel, horizon)
    if kind == "variance":
        return VarianceConstrainedPolicy(channel, horizon, sigma2)
    if kind == "learning":
        return LearningPolicy(channel.n_receivers, horizon, delta, eps_init)
    raise ConfigError(f"unknown policy kind: {kind!r}")
