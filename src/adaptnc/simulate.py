"""Slot-level simulation of coded frames over the broadcast channel.

The reference engine walks one frame slot by slot, feeding the policy and
recording a full trace. The batch engine replays the identical per-stream
channel bits for many replications at once with array arithmetic; for the
same (seed, stream) both produce the same delivered count, which the tests
exploit. All channel randomness flows through RngSpec so the replication
order never matters.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .policies import BlockPolicy
from .rng import RngSpec, fill_uniform, frame_bits


@dataclass
class FrameTrace:
    """Everything one simulated frame did, slot by slot."""

    horizon: int
    backlog: int
    decisions: list  # (slots_left, block_size) per committed block
    slot_state: np.ndarray  # slots remaining at each transmitted slot's start
    slot_block: np.ndarray  # which block each transmitted slot belonged to
    slot_log: np.ndarray  # (slots, receivers) reception indicators
    delivered: int
    blocks_completed: int
    blocks_abandoned_at_deadline: int

    def slots_used(self) -> int:
        return len(self.slot_state)

    def write_csv(self, fp):
        writer = csv.writer(fp)
        writer.writerow(["slot", "state_t", "block_id", "receiver_id", "received_bit"])
        for s in range(len(self.slot_state)):
            for i in range(self.slot_log.shape[1]):
                writer.writerow(
                    [s, int(self.slot_state[s]), int(self.slot_block[s]), i,
                     int(self.slot_log[s, i])]
                )


def simulate_frame(
    policy: BlockPolicy,
    horizon: int,
    backlog: int,
    channel: ChannelModel,
    rng: RngSpec,
) -> FrameTrace:
    """Run one frame of ``horizon`` slots against the policy.

    The policy is asked for a block size whenever the channel is free; a
    block occupies consecutive slots until every receiver holds its packets,
    and a block cut off by the deadline delivers nothing. Per-slot reception
    counts are reported back to the policy either way.
    """
    if horizon < 0 or backlog < 0:
        raise ValueError("horizon and backlog must be non-negative")
    n = channel.n_receivers
    bits = frame_bits(rng, horizon, channel.erasures)
    rows = bits.astype(np.uint8).tolist()

    policy.start_frame(horizon)
    t, m, s = horizon, backlog, 0
    decisions = []
    slot_block = []
    delivered = completed = abandoned = 0

    while t > 0 and m > 0:
        k = policy.decide(t, m)
        if k <= 0:
            break
        block_id = len(decisions)
        decisions.append((t, k))
        counts = [0] * n
        done = False
        while s < horizon:
            row = rows[s]
            slot_block.append(block_id)
            s += 1
            got = 0
            for i in range(n):
                counts[i] += row[i]
                got += row[i]
            policy.observe_slot(got, n)
            if min(counts) >= k:
                done = True
                break
        if done:
            delivered += k
            m -= k
            completed += 1
            t = horizon - s
        else:
            abandoned += 1
            t = 0

    used = len(slot_block)
    return FrameTrace(
        horizon=horizon,
        backlog=backlog,
        decisions=decisions,
        slot_state=horizon - np.arange(used),
        slot_block=np.array(slot_block, dtype=int),
        slot_log=bits[:used],
        delivered=delivered,
        blocks_completed=completed,
        blocks_abandoned_at_deadline=abandoned,
    )


def rescore_trace(trace: FrameTrace) -> int:
    """Recompute delivered packets from the raw trace, independently of the
    engine's bookkeeping: credit a block only when every receiver reached its
    size within the slots attributed to it."""
    delivered = 0
    for block_id, (_, k) in enumerate(trace.decisions):
        rows = trace.slot_log[trace.slot_block == block_id]
        if rows.size and (rows.sum(axis=0) >= k).all():
            delivered += k
    return delivered


@dataclass
class ThroughputSummary:
    """Monte Carlo estimate of packets delivered per frame."""

    mean: float
    stderr: float
    variance: float
    replications: int
    histogram: np.ndarray  # count of replications per delivered value
    samples: np.ndarray | None = None


# Batch-engine chunks: at most _MAX_CHUNK replications, and few enough that
# one chunk's arrays fit in _CHUNK_BYTES.
_MAX_CHUNK = 65536
_CHUNK_BYTES = 256 * 2**20


def _batch_delivered(k_vec, horizon, backlog, erasures, seed, streams) -> np.ndarray:
    """Delivered counts for many replications of a table-driven policy.

    Exactly reproduces simulate_frame(OptimalPolicy-like, stream s) for each
    stream: same Philox keys, same bit layout, same block semantics.
    """
    c = len(streams)
    n = len(erasures)
    receive = 1.0 - np.asarray(erasures)
    u = np.empty((horizon, n))
    bits = np.empty((c, horizon, n), dtype=bool)
    for j, st in enumerate(streams):
        np.less(fill_uniform(seed, int(st), u), receive, out=bits[j])
    csum = np.zeros((c, horizon + 1, n), dtype=np.int32)
    np.cumsum(bits, axis=1, out=csum[:, 1:, :])

    t = np.full(c, horizon, dtype=np.int64)
    m = np.full(c, backlog, dtype=np.int64)
    delivered = np.zeros(c, dtype=np.int64)
    active = np.nonzero((t > 0) & (m > 0))[0]
    while active.size:
        k = np.minimum(k_vec[t[active]], m[active])
        if (k < 1).any():
            raise ValueError("table policy proposed an empty block mid-frame")
        start = horizon - t[active]
        target = csum[active, start, :] + k[:, None]
        comp = csum[active, 1:, :] >= target[:, None, :]
        reached = comp.any(axis=1)
        end_slot = comp.argmax(axis=1).max(axis=1) + 1
        ok = reached.all(axis=1)

        done_idx = active[ok]
        delivered[done_idx] += k[ok]
        m[done_idx] -= k[ok]
        t[done_idx] = horizon - end_slot[ok]
        t[active[~ok]] = 0
        active = active[(t[active] > 0) & (m[active] > 0)]
    return delivered


def monte_carlo_throughput(
    policy: BlockPolicy,
    horizon: int,
    backlog: int,
    channel: ChannelModel,
    replications: int,
    rng: RngSpec,
    chunk: int | None = None,
    keep_samples: bool = False,
) -> ThroughputSummary:
    """Mean delivered packets per frame over independent replications.

    Replication r uses stream rng.stream + r, so results are identical
    whether replications run batched, chunked, or one by one, and any single
    replication can be replayed with simulate_frame for inspection. The
    batch engine runs ``chunk`` replications at a time; by default as many
    as fit a fixed memory budget for the frame's slots x receivers.
    Policies that depend on slot history fall back to the per-frame engine
    (with the policy reset between replications); table-driven policies go
    through the batch engine.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    k_vec = policy.decision_vector(horizon)
    if k_vec is None:
        delivered = np.empty(replications, dtype=np.int64)
        for r in range(replications):
            policy.reset()
            trace = simulate_frame(policy, horizon, backlog, channel, rng.shifted(r))
            delivered[r] = trace.delivered
    else:
        k_vec = np.asarray(k_vec, dtype=np.int64)
        if chunk is None:
            # _batch_delivered holds about 10 bytes per (slot, receiver) of a
            # replication: bool bits, int32 cumsum, the cumsum copy one block
            # step indexes out, and its bool comparison
            per_replication = 10 * (horizon + 1) * channel.n_receivers
            chunk = max(1, min(_MAX_CHUNK, _CHUNK_BYTES // per_replication))
        parts = []
        for lo in range(0, replications, chunk):
            hi = min(lo + chunk, replications)
            streams = [(rng.stream + r) % 2**64 for r in range(lo, hi)]
            parts.append(
                _batch_delivered(k_vec, horizon, backlog, channel.erasures, rng.seed, streams)
            )
        delivered = np.concatenate(parts)

    mean = float(delivered.mean())
    var = float(delivered.var(ddof=1)) if replications > 1 else 0.0
    return ThroughputSummary(
        mean=mean,
        stderr=float(np.sqrt(var / replications)),
        variance=var,
        replications=replications,
        histogram=np.bincount(delivered, minlength=min(horizon, backlog) + 1),
        samples=delivered if keep_samples else None,
    )


def learning_run(
    policy,
    frames: int,
    horizon: int,
    channel: ChannelModel,
    rng: RngSpec,
    backlog: int | None = None,
) -> list[dict]:
    """Sequential frames with state carried across them (no reset).

    Frame k transmits on stream rng.stream + k. Returns one record per frame
    with the policy's erasure estimate after the frame, the packets
    delivered, and whether any block decision that frame was taken while the
    estimate was still moving ("ramp") or not ("stable").
    """
    if frames < 1:
        raise ValueError("need at least one frame")
    if backlog is None:
        backlog = horizon
    records = []
    for k in range(frames):
        mark = len(getattr(policy, "decision_log", ()))
        trace = simulate_frame(policy, horizon, backlog, channel, rng.shifted(k))
        log = getattr(policy, "decision_log", ())[mark:]
        eps_hat = getattr(getattr(policy, "learner", None), "eps_hat", float("nan"))
        records.append(
            {
                "frame": k,
                "eps_hat": float(eps_hat),
                "delivered": trace.delivered,
                "mode": "ramp" if any(row[3] for row in log) else "stable",
            }
        )
    return records


def variance_tradeoff_run(
    sigma2_grid,
    channel: ChannelModel,
    horizon: int,
    replications: int,
    rng: RngSpec,
) -> list[dict]:
    """Throughput/jitter frontier across completion-variance budgets.

    Each budget is simulated with the same replication streams, so rows are
    directly comparable. Returns one dict per budget with the applied block
    cap and the empirical mean and variance of delivered packets.
    """
    from .policies import VarianceConstrainedPolicy

    out = []
    for sigma2 in sigma2_grid:
        pol = VarianceConstrainedPolicy(channel, horizon, float(sigma2))
        summary = monte_carlo_throughput(
            pol, horizon, backlog=horizon, channel=channel,
            replications=replications, rng=rng,
        )
        out.append(
            {
                "sigma2": float(sigma2),
                "k_cap": pol.k_cap,
                "mean": summary.mean,
                "stderr": summary.stderr,
                "variance": summary.variance,
            }
        )
    return out
