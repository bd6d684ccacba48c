"""Slot-level simulation of coded frames over the broadcast channel.

The reference engine walks one frame slot by slot, feeding the policy and
recording its block decisions. The batch engine replays the identical
per-stream channel bits for many replications at once with array
arithmetic; for the same (seed, stream) both produce the same delivered
count, which the tests exploit. All channel randomness flows through RngSpec so the replication
order never matters.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .policies import BlockPolicy
from .rng import RngSpec, fill_uniform, frame_bits


@dataclass
class FrameTrace:
    """What one simulated frame did: its blocks and what they delivered.

    The slots behind each block replay from ``decisions`` and ``frame_bits``
    of the same stream: block j starts at slot horizon - decisions[j][0].
    """

    horizon: int
    backlog: int
    decisions: list  # (slots_left, block_size) per committed block
    slots_used: int
    delivered: int
    blocks_completed: int
    blocks_abandoned_at_deadline: int


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
    counts are reported back to the policy either way. A policy that proposes
    an empty block while slots and packets remain is an error, as in the
    batch engine.
    """
    if horizon < 0 or backlog < 0:
        raise ValueError("horizon and backlog must be non-negative")
    n = channel.n_receivers
    bits = frame_bits(rng, horizon, channel.erasures)
    rows = bits.astype(np.uint8).tolist()

    policy.start_frame(horizon)
    t, m, s = horizon, backlog, 0
    decisions = []
    delivered = completed = abandoned = 0

    while t > 0 and m > 0:
        k = policy.decide(t, m)
        if k <= 0:
            raise ValueError("policy proposed an empty block mid-frame")
        decisions.append((t, k))
        counts = [0] * n
        done = False
        while s < horizon:
            row = rows[s]
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

    return FrameTrace(
        horizon=horizon,
        backlog=backlog,
        decisions=decisions,
        slots_used=s,
        delivered=delivered,
        blocks_completed=completed,
        blocks_abandoned_at_deadline=abandoned,
    )


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
            raise ValueError("policy proposed an empty block mid-frame")
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

