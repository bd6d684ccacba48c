"""Slot scheduling across competing coded flows sharing one frame.

Each flow brings its own receiver set, arrival rate, delivery-ratio
requirement and weight. A per-flow service curve (expected packets delivered
as a function of allocated slots, saturated backlog) feeds a per-frame slot
allocation that maximizes deficit-adjusted weighted service; virtual deficit
queues track how far each flow is behind its requirement and steer future
allocations. The online loop combines the allocation with slot-level
simulation of every flow's transmissions, Bernoulli-batch (or Poisson)
arrivals, and per-frame packet drops: traffic not delivered within its frame
is lost, never queued.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .channel import ChannelModel
from .errors import ConfigError
from .policies import OptimalPolicy
from .rng import RngSpec
from .simulate import map_cells, simulate_frame
from .solver import PolicyTable, solve_monotone

INTRA_POLICIES = ("optimal", "retransmission")
SWEEP_AXES = ("delivery_ratio", "arrival_rate")

# Slope of the deficit trajectory (per frame, least squares over the last
# half of the run) above which a flow is declared unstable.
STABILITY_SLOPE = 1e-3


@dataclass(frozen=True)
class FlowSpec:
    """One traffic flow: who receives it, how much arrives, what it needs."""

    flow_id: int
    channel: ChannelModel
    arrival_rate: float  # mean packets per frame
    delivery_ratio: float  # required delivered/arrived fraction
    weight: float = 1.0
    arrival_process: str = "bernoulli"  # "bernoulli" (batch) or "poisson"
    arrival_batches: int | None = None  # Bernoulli trials per frame; None -> horizon

    def __post_init__(self):
        if not 0 <= self.arrival_rate < math.inf:
            raise ConfigError(f"flow {self.flow_id}: arrival rate must be >= 0 and finite")
        if not 0.0 <= self.delivery_ratio <= 1.0:
            raise ConfigError(f"flow {self.flow_id}: delivery ratio must be in [0, 1]")
        if not 0 < self.weight < math.inf:
            raise ConfigError(f"flow {self.flow_id}: weight must be > 0 and finite")
        if self.arrival_process not in ("bernoulli", "poisson"):
            raise ConfigError(
                f"flow {self.flow_id}: unknown arrival process {self.arrival_process!r}"
            )
        if self.arrival_batches is not None and not self.arrival_batches >= 1:
            raise ConfigError(f"flow {self.flow_id}: arrival batches must be >= 1")

    def check_arrivals(self, horizon: int):
        """Reject arrival settings a frame of ``horizon`` slots cannot use:
        a Bernoulli rate above its batch count (the horizon when unset), or a
        batch count on a Poisson flow, which would ignore it."""
        if self.arrival_process == "poisson":
            if self.arrival_batches is not None:
                raise ConfigError(
                    f"flow {self.flow_id}: arrival batches apply only to bernoulli arrivals"
                )
            return
        n = self.arrival_batches if self.arrival_batches is not None else horizon
        if self.arrival_rate / n > 1.0:
            raise ConfigError(
                f"flow {self.flow_id}: arrival rate {self.arrival_rate} exceeds "
                f"{n} Bernoulli batches per frame"
            )

    def sample_arrivals(self, horizon: int, gen: np.random.Generator) -> int:
        """One frame's arrivals; settings are checked once by check_arrivals."""
        if self.arrival_process == "poisson":
            return int(gen.poisson(self.arrival_rate))
        n = self.arrival_batches if self.arrival_batches is not None else horizon
        return int(gen.binomial(n, self.arrival_rate / n))


@dataclass(frozen=True)
class ServiceCurve:
    """Expected packets delivered to every receiver of one flow, by slot
    budget, under saturated backlog."""

    flow_id: int
    values: np.ndarray  # values[s] for s = 0..horizon

    def __post_init__(self):
        self.values.setflags(write=False)


_CURVE_CACHE: dict = {}


def _intra_plan(flow: FlowSpec, horizon: int, intra: str) -> PolicyTable:
    """The flow's block plan, cached per (channel, horizon, intra): the
    optimal plan, or for retransmission the plan capped at one packet per
    block. Its value is the service curve, and run_online transmits with it."""
    if horizon < 1:
        raise ConfigError("service curve needs a horizon of at least 1 slot")
    if intra not in INTRA_POLICIES:
        raise ConfigError(f"unknown intra-flow policy {intra!r}")
    key = (flow.channel.erasures, horizon, intra)
    plan = _CURVE_CACHE.get(key)
    if plan is None:
        k_cap = 1 if intra == "retransmission" else None
        plan = _CURVE_CACHE[key] = solve_monotone(horizon, flow.channel, k_cap=k_cap)
    return plan


def service_curve(flow: FlowSpec, horizon: int, intra: str = "optimal") -> ServiceCurve:
    """Value-by-slots curve for one flow: entry s is the expected delivery of
    the intra-flow policy given s dedicated slots. One bottom-up solve covers
    every budget 0..horizon; results are cached per (channel, horizon, intra).
    """
    return ServiceCurve(flow_id=flow.flow_id, values=_intra_plan(flow, horizon, intra).value)


def check_rho(flows: list, rho: float, horizon: int):
    """The deficit step size: > 0, and large enough that the largest
    schedule value the allocator can form, max weight / rho summed over
    ``horizon`` slots and every flow, is finite; past that, weight / rho
    overflows and inf * 0 turns the gains into NaN."""
    if not rho > 0:
        raise ConfigError("step size rho must be > 0")
    if flows and not math.isfinite(max(f.weight for f in flows) / rho * horizon * len(flows)):
        raise ConfigError(
            f"step size rho {rho} is too small: max weight / rho x horizon x flows "
            "overflows"
        )


@lru_cache(maxsize=1)
def _lag_grid(horizon: int):
    """Read-only (slots, lag) of the allocator's max-plus step: slots[s] = s
    and lag[u, s] = u - s for s <= u, else horizon + 1, for u, s in
    0..horizon. A run allocates at one horizon, so only the last is kept."""
    slots = np.arange(horizon + 1)
    lag = slots[:, None] - slots[None, :]
    lag[lag < 0] = horizon + 1
    slots.flags.writeable = lag.flags.writeable = False
    return slots, lag


def allocate_slots(
    flows: list,
    deficits,
    rho: float,
    horizon: int,
    curves: list,
) -> np.ndarray:
    """Per-frame slot split maximizing sum_f (w_f/rho + nu_hat_f) * c_f(s_f),
    where ``deficits`` holds nu_hat and ``curves`` the service curve c_f, one
    entry per flow.

    Exact resource-allocation dynamic program over flows (state = slots still
    available), run backwards over the flows as one vectorised max-plus step
    each: candidate[u, s] = gain_f[s] + best[u - s] for s <= u. The last
    flow's step is a running maximum of its gains, O(horizon); each middle
    flow's is the full O(horizon^2) step; the first flow's needs only
    u = horizon, O(horizon). Among maximizing schedules the
    lexicographically smallest is returned: ties prefer fewer slots for the
    lowest flow index first, since argmax keeps the first of equal
    candidates and the running maximum moves only on a strictly larger gain.
    """
    check_rho(flows, rho, horizon)
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    nu = np.asarray(deficits, dtype=float)
    if len(nu) != len(flows):
        raise ConfigError("deficit vector length must match the flow list")
    if len(curves) != len(flows):
        raise ConfigError("need one service curve per flow")
    if any(len(c.values) < horizon + 1 for c in curves):
        raise ConfigError(f"a service curve must cover budgets 0..{horizon}")
    if not flows:
        return np.zeros(0, dtype=int)

    n_flows = len(flows)
    gains = [
        (flows[i].weight / rho + float(nu[i])) * curves[i].values[: horizon + 1]
        for i in range(n_flows)
    ]

    # best[u] (u <= horizon): optimal value using flows i..end with u slots,
    # and best[horizon + 1] = -inf, which lag reads for s > u.
    # choice[i][u]: the smallest slot count for flow i attaining best[u]; for
    # the last flow, the last slot count up to u whose gain beats all before.
    slots, lag = _lag_grid(horizon)
    last = gains[-1]
    best = np.empty(horizon + 2)
    np.maximum.accumulate(last, out=best[:-1])
    best[-1] = -np.inf
    rises = np.ones(horizon + 1, dtype=bool)
    np.greater(last[1:], best[:-2], out=rises[1:])
    choice = [None] * n_flows
    choice[-1] = np.maximum.accumulate(np.where(rises, slots, 0))
    for i in range(n_flows - 2, 0, -1):
        candidates = gains[i] + best[lag]
        choice[i] = candidates.argmax(axis=1)
        best[:-1] = candidates[slots, choice[i]]

    schedule = np.zeros(n_flows, dtype=int)
    u = horizon
    for i in range(n_flows):
        if choice[i] is None:  # the first of several flows: best[horizon - s]
            schedule[i] = (gains[0] + best[horizon::-1]).argmax()
        else:
            schedule[i] = choice[i][u]
        u -= schedule[i]
    return schedule


def update_deficit(nu_hat, a_hat, c_hat):
    """Next deficit value: max(0, nu_hat + a_hat - c_hat), element-wise."""
    return np.maximum(0.0, np.asarray(nu_hat, dtype=float) + np.asarray(a_hat) - np.asarray(c_hat))


def deficit_slope(series) -> float:
    """Least-squares slope per frame over the last half of a deficit series."""
    y = np.asarray(series, dtype=float)
    tail = y[len(y) // 2 :]
    if len(tail) < 2:
        return 0.0
    return float(np.polyfit(np.arange(len(tail)), tail, 1)[0])


def check_flows(flows: list, horizon: int):
    """Reject a flow list no frame of ``horizon`` slots can serve, before any
    work: the horizon first, since the arrival checks divide by it, then
    duplicate flow ids, then each flow's arrival settings."""
    if horizon < 1:
        raise ConfigError("service curve needs a horizon of at least 1 slot")
    if len({f.flow_id for f in flows}) != len(flows):
        raise ConfigError("flow ids must be unique: give each flow a unique flow_id")
    for f in flows:
        f.check_arrivals(horizon)


def region_pairs(flows: list, grid, axis: str, horizon: int) -> list:
    """The checked flow pair of every cell of a region sweep, row by row:
    the two template ``flows`` with the x and y grid values on ``axis`` in
    place of their own. The axis is checked first, then the template count,
    then every flow before any cell runs: the first pair with check_flows,
    then each other y flow, then each other x flow, the order in which a
    row-by-row check of every pair first meets them."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {', '.join(SWEEP_AXES)}")
    if len(flows) != 2:
        raise ConfigError("region requires exactly two template flows")
    xs, ys = ([replace(f, **{axis: float(v)}) for v in grid] for f in flows)
    pairs = [[x, y] for x in xs for y in ys]
    if pairs:
        check_flows(pairs[0], horizon)
        for f in ys[1:] + xs[1:]:
            f.check_arrivals(horizon)
    return pairs


@dataclass
class StaticDualTrace:
    """Deterministic multiplier iteration on the fluid-scale problem."""

    s_star: np.ndarray  # (iterations, flows) schedules
    mu_star: np.ndarray  # (iterations, flows) curve values of the schedule
    nu_hat: np.ndarray  # (iterations, flows) multipliers after each update

    def weighted_value(self, weights) -> float:
        """Time-averaged weighted service rate over the last half."""
        start = len(self.mu_star) // 2
        return float((self.mu_star[start:] @ np.asarray(weights, dtype=float)).mean())


def static_dual_iteration(
    flows: list,
    horizon: int,
    rho: float,
    iterations: int,
) -> StaticDualTrace:
    """Iterate schedule argmax and multiplier update with mean drift.

    No sampling: each round allocates slots under the current multipliers,
    reads off mu*_f = c_f(s*_f), and moves each multiplier by the mean
    requirement shortfall arrival_rate*delivery_ratio - mu*_f (clamped at
    zero). Bounded trajectories certify feasibility of the requirement
    vector; unbounded growth certifies infeasibility.
    """
    if iterations < 1:
        raise ConfigError("need at least one iteration")
    check_flows(flows, horizon)
    check_rho(flows, rho, horizon)
    n_flows = len(flows)
    curves = [service_curve(f, horizon) for f in flows]
    need = np.array([f.arrival_rate * f.delivery_ratio for f in flows])

    s_star = np.zeros((iterations, n_flows), dtype=int)
    mu_star = np.zeros((iterations, n_flows))
    nu_path = np.zeros((iterations, n_flows))
    nu = np.zeros(n_flows)
    for it in range(iterations):
        s = allocate_slots(flows, nu, rho, horizon, curves)
        mu = np.array([curves[i].values[s[i]] for i in range(n_flows)])
        nu = update_deficit(nu, need, mu)
        s_star[it] = s
        mu_star[it] = mu
        nu_path[it] = nu
    return StaticDualTrace(s_star=s_star, mu_star=mu_star, nu_hat=nu_path)


@dataclass
class MultiflowTrace:
    """Frame-by-frame record of one online scheduling run."""

    flow_ids: list
    weights: np.ndarray
    arrival_rates: np.ndarray
    s_star: np.ndarray  # (frames, flows) allocated slots
    arrivals: np.ndarray  # (frames, flows) packets arrived
    delivered: np.ndarray  # (frames, flows) packets delivered in-frame
    nu_hat: np.ndarray  # (frames, flows) deficits after each frame
    schedule_value: np.ndarray  # (frames, flows) saturated curve value c_f(s*_f)

    @property
    def frames(self) -> int:
        return self.s_star.shape[0]

    def delivery_ratio(self) -> np.ndarray:
        """Long-run delivered packets per frame relative to the arrival rate."""
        rates = np.where(self.arrival_rates > 0, self.arrival_rates, 1.0)
        return self.delivered.mean(axis=0) / rates

    def weighted_throughput(self) -> float:
        """Weighted delivered packets per frame over the last half."""
        start = self.frames // 2
        return float(self.delivered[start:].mean(axis=0) @ self.weights)

    def schedule_weighted_throughput(self) -> float:
        """Weighted saturated service value of the realized schedules over
        the last half; the arrival-independent quantity the vanishing-gap
        property addresses."""
        start = self.frames // 2
        return float(self.schedule_value[start:].mean(axis=0) @ self.weights)

    def deficit_slopes(self) -> np.ndarray:
        return np.array([deficit_slope(self.nu_hat[:, i]) for i in range(len(self.flow_ids))])

    def is_stable(self) -> bool:
        return bool((self.deficit_slopes() <= STABILITY_SLOPE).all())


def run_online(
    flows: list,
    frames: int,
    horizon: int,
    rho: float,
    rng: RngSpec,
    intra: str = "optimal",
) -> MultiflowTrace:
    """Online scheduling loop: allocate, transmit, thin, update deficits.

    Per frame: sample each flow's arrivals, split the slots with
    allocate_slots under current deficits, run every flow's slot-level
    transmission over its budget (fresh backlog = this frame's arrivals;
    leftovers drop at the frame boundary), thin the arrivals by the required
    delivery ratio, and update the deficit queues with thinned arrivals minus
    actual deliveries.

    Randomness layout on top of ``rng``: stream +1 drives arrivals, +2 the
    thinning, and frame k / flow index i transmits on stream
    3 + k*len(flows) + i — so any single frame can be replayed in isolation
    and results never depend on scheduling order.
    """
    if frames < 1:
        raise ConfigError("need at least one frame")
    check_flows(flows, horizon)
    check_rho(flows, rho, horizon)
    n_flows = len(flows)
    curves = [service_curve(f, horizon, intra) for f in flows]
    policies = [OptimalPolicy(_intra_plan(f, horizon, intra)) for f in flows]
    arrival_gen = rng.shifted(1).generator()
    thinning_gen = rng.shifted(2).generator()
    nu = np.zeros(n_flows)

    s_star = np.zeros((frames, n_flows), dtype=int)
    arrivals = np.zeros((frames, n_flows), dtype=int)
    delivered = np.zeros((frames, n_flows), dtype=int)
    nu_hat = np.zeros((frames, n_flows))
    schedule_value = np.zeros((frames, n_flows))

    for k in range(frames):
        a = [f.sample_arrivals(horizon, arrival_gen) for f in flows]
        s = allocate_slots(flows, nu, rho, horizon, curves)
        c_hat = np.zeros(n_flows, dtype=int)
        for i, f in enumerate(flows):
            if s[i] > 0 and a[i] > 0:
                trace = simulate_frame(
                    policies[i], int(s[i]), int(a[i]), f.channel,
                    rng.shifted(3 + k * n_flows + i),
                )
                c_hat[i] = trace.delivered
        a_hat = [thinning_gen.binomial(a[i], f.delivery_ratio) for i, f in enumerate(flows)]
        nu = update_deficit(nu, a_hat, c_hat)

        s_star[k] = s
        arrivals[k] = a
        delivered[k] = c_hat
        nu_hat[k] = nu
        schedule_value[k] = [curves[i].values[s[i]] for i in range(n_flows)]

    return MultiflowTrace(
        flow_ids=[f.flow_id for f in flows],
        weights=np.array([f.weight for f in flows], dtype=float),
        arrival_rates=np.array([f.arrival_rate for f in flows], dtype=float),
        s_star=s_star,
        arrivals=arrivals,
        delivered=delivered,
        nu_hat=nu_hat,
        schedule_value=schedule_value,
    )


@dataclass
class RegionMap:
    """Stability classification of a requirement grid under both intra-flow
    transmission modes."""

    axis: str  # which flow field the grid varies: "delivery_ratio" or "arrival_rate"
    grid: np.ndarray  # values applied to the first flow (x) and the second (y)
    stable_nc: np.ndarray  # (len(grid), len(grid)) bool
    stable_retx: np.ndarray


def _sweep_cell(frames: int, horizon: int, rho: float, rng: RngSpec, cell: int, pair: list):
    """Grid point ``cell`` of a region sweep; module-level so worker pools can
    pickle it. Returns (stable under coding, stable under retransmission)."""
    return [
        run_online(pair, frames, horizon, rho, rng.shifted((2 * cell + j) << 32), intra).is_stable()
        for j, intra in enumerate(INTRA_POLICIES)
    ]


def rate_region_sweep(
    flows: list,
    grid,
    horizon: int,
    rho: float,
    frames: int,
    rng: RngSpec,
    axis: str = "delivery_ratio",
    workers: int = 1,
) -> RegionMap:
    """Classify every grid point as stable or not, with and without coding.

    The two template flows get the grid values on ``axis`` (first flow takes
    the x value, second the y value); each point runs the online loop twice —
    optimal intra-flow blocks and plain retransmission — and is stable when
    no flow's deficit trend exceeds STABILITY_SLOPE per frame. region_pairs
    checks every point's flows before the first one runs. Each (point, mode) pair
    draws from its own stream block, so results are identical whether cells
    run serially or across ``workers`` processes.
    """
    values = np.array(grid, dtype=float)
    pairs = region_pairs(flows, values, axis, horizon)
    flags = map_cells(partial(_sweep_cell, frames, horizon, rho, rng), enumerate(pairs), workers)
    stable = np.array(flags, dtype=bool).reshape(len(values), len(values), 2)
    return RegionMap(axis=axis, grid=values, stable_nc=stable[..., 0], stable_retx=stable[..., 1])
