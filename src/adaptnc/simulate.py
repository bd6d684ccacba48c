"""Slot-level simulation of coded frames over the broadcast channel.

The reference engine walks one frame slot by slot, feeding the policy and
recording its block decisions. The batch engine replays the identical
per-stream channel bits for many replications of a plan at once with array
arithmetic; for the same (seed, stream) both produce the same delivered
count, which the tests exploit. The learning policy has no plan, so it always
runs through the reference engine. All channel randomness flows through
RngSpec so the replication order never matters.

The batch engine first builds a reception index of each replication: per
(slot, receiver), the receptions counted so far (``csum``) and the slot of
each reception by its ordinal (``slot_of``). A block step then reads where
each receiver's k-th reception after the block's start falls with one gather,
so a replication costs time linear in the horizon, whatever the plan.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .errors import ConfigError
from .policies import BlockPolicy, LearningPolicy
from .rng import RngSpec, fill_uniform, frame_bits


@dataclass
class FrameTrace:
    """What one simulated frame did: its blocks and what they delivered.

    The slots behind each block replay from ``decisions`` and ``frame_bits``
    of the same stream: block j starts at slot horizon - decisions[j][0].
    """

    horizon: int
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
    policy.check_horizon(horizon)
    n = channel.n_receivers
    bits = frame_bits(rng, horizon, channel.erasures)
    rows = bits.astype(np.uint8).tolist()

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
# Draw blocks: as many replications as keep a block to about this many
# (slot, receiver) cells, so that its float draws and int64 scatter targets
# take at most 512 KiB each, whatever the chunk size.
_DRAW_CELLS = 2**16


def _reception_index(horizon, erasures, seed, streams):
    """The reception index of each stream's frame, receiver-major.

    ``csum[r, i, s]`` counts receiver i's receptions in the first s slots of
    stream r, for s = 0..horizon. ``slot_of[r, i, j]`` is the 1-based slot of
    its (j+1)-th reception, for j below ``csum[r, i, horizon]``; the entries
    past that, and the last column, hold nothing. Both are in the smallest
    unsigned type that holds horizon + 1.

    The streams are drawn in small blocks, one ``fill_uniform`` call each into
    a reused buffer, with the bits of ``frame_bits``. ``slot_of`` is built by
    scattering each reception's slot to its ordinal, read from ``csum``; a
    slot without a reception goes to the row's last column.
    """
    c, n = len(streams), len(erasures)
    dtype = np.min_scalar_type(horizon + 1)
    receive = (1.0 - np.asarray(erasures))[:, None]
    csum = np.zeros((c, n, horizon + 1), dtype=dtype)
    slot_of = np.empty((c, n, horizon + 1), dtype=dtype)
    slots = np.arange(1, horizon + 1, dtype=dtype)
    block = max(1, min(c, _DRAW_CELLS // (horizon * n)))
    u = np.empty((block, horizon, n))
    frames = list(u)
    bits = np.empty((block, n, horizon), dtype=bool)
    for lo in range(0, c, block):
        b = min(block, c - lo)
        for frame, stream in zip(frames, streams[lo : lo + b]):
            fill_uniform(seed, stream, frame)
        np.less(u[:b].transpose(0, 2, 1), receive, out=bits[:b])
        counts = csum[lo : lo + b]
        np.cumsum(bits[:b], axis=2, dtype=dtype, out=counts[:, :, 1:])
        ordinal = np.where(bits[:b], counts[:, :, :-1], horizon)
        rows = np.arange(lo * n, (lo + b) * n).reshape(b, n, 1) * (horizon + 1)
        slot_of.reshape(-1)[rows + ordinal] = slots
    return csum, slot_of


def _batch_delivered(k_vec, horizon, backlog, erasures, seed, streams) -> np.ndarray:
    """Delivered counts for many replications of a plan.

    Exactly reproduces simulate_frame(policy with this plan, stream s) for
    each stream: same Philox keys, same bits, same block semantics. With the
    reception index of every stream, a block step is a gather with no scan
    over slots. A block of k packets started at slot ``start`` needs receiver
    i's reception number ``need = csum[start] + k - 1`` (counted from 0); it
    completes iff that reception exists for every receiver, and then ends at
    the latest of their ``slot_of[need]``. The cost is linear in the horizon.
    """
    c, n = len(streams), len(erasures)
    delivered = np.zeros(c, dtype=np.int64)
    if horizon == 0 or backlog == 0:
        return delivered
    csum, slot_of = _reception_index(horizon, erasures, seed, streams)
    flat_csum, flat_slot = csum.reshape(-1), slot_of.reshape(-1)
    total = csum[:, :, horizon]
    row_base = (np.arange(c)[:, None] * n + np.arange(n)) * (horizon + 1)

    t = np.full(c, horizon, dtype=np.int64)
    m = np.full(c, backlog, dtype=np.int64)
    active = np.arange(c)
    while active.size:
        k = np.minimum(k_vec[t[active]], m[active])
        if (k < 1).any():
            raise ValueError("policy proposed an empty block mid-frame")
        base = row_base[active]
        need = flat_csum[base + (horizon - t[active])[:, None]] + (k - 1)[:, None]
        ok = (need < total[active]).all(axis=1)

        done = active[ok]
        end = flat_slot[base[ok] + need[ok]].max(axis=1)
        delivered[done] += k[ok]
        m[done] -= k[ok]
        t[done] = horizon - end
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
    keep_samples: bool = False,
) -> ThroughputSummary:
    """Mean delivered packets per frame over independent replications.

    Replication r uses stream rng.stream + r, so results are identical
    whether replications run batched, chunked, or one by one, and any single
    replication can be replayed with simulate_frame for inspection. The
    batch engine runs as many replications at a time as fit a fixed memory
    budget for the frame's slots x receivers.
    A plan goes through the batch engine; the learning policy, which has no
    plan, runs frame by frame and is reset between replications.
    """
    if horizon < 0 or backlog < 0:
        raise ValueError("horizon and backlog must be non-negative")
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
        # _batch_delivered holds about 10 bytes per (slot, receiver) of a
        # replication from T = 6 up: its reception index (csum and slot_of,
        # 1 byte each below T = 255, 2 below T = 65535) and the block steps'
        # int64 arrays, about 56 bytes per receiver. On shorter frames those
        # arrays dominate. The draws go through a small reused buffer.
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
    policy: LearningPolicy,
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
        mark = len(policy.decision_log)
        trace = simulate_frame(policy, horizon, backlog, channel, rng.shifted(k))
        records.append(
            {
                "frame": k,
                "eps_hat": float(policy.eps_hat),
                "delivered": trace.delivered,
                "mode": "ramp" if any(row[2] for row in policy.decision_log[mark:]) else "stable",
            }
        )
    return records


def map_cells(cell, cells, workers: int) -> list:
    """``[cell(*args) for args in cells]``, in order: in this process for one
    worker, over a pool of ``workers`` processes for more (``cell`` and its
    arguments must then pickle). Sweeps key each cell's streams by its
    position, so the results never depend on the worker count."""
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if workers == 1:
        return [cell(*args) for args in cells]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(cell, *zip(*cells)))
