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
Replications run in chunks sized by a fixed budget of (slot, receiver) cells.
Every chunk builds its index in the same two arrays and draws its streams in
small blocks into one reused buffer, so the engine's working set depends on
the frame's shape and not on the number of replications.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .errors import ConfigError
from .policies import BlockPolicy, LearningPolicy
from .rng import RngSpec, fill_streams, frame_bits


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


# Batch-engine chunks: as many replications as fit _CHUNK_CELLS cells of the
# reception index, (horizon + 1) per receiver, but never fewer than
# _MIN_CHUNK. Below T = 255 a cell takes 1 byte in csum and 1 in slot_of, so
# the index takes 4 MiB; the block steps' int64 arrays, one entry per
# receiver of a replication, are a few of 16 MiB / (T + 1) each. The floor
# takes over once (T + 1) * n passes 2048, and keeps the block-step loop, up
# to one step per slot, spread over enough replications.
_CHUNK_CELLS = 2**21
_MIN_CHUNK = 1024
# Draw blocks: as many replications as keep a block to about this many
# (slot, receiver) cells, so that its float draws and int64 scatter targets
# take at most 512 KiB each, whatever the chunk size.
_DRAW_CELLS = 2**16


def _reception_index(horizon, erasures, rng, csum, slot_of):
    """Write the reception index of the frames of streams rng.stream .. + c - 1
    into ``csum`` and ``slot_of``, two (c, receivers, horizon + 1) arrays of
    the smallest unsigned type that holds horizon + 1, with ``csum[:, :, 0]``
    already 0.

    Receiver-major: ``csum[r, i, s]`` counts receiver i's receptions in the
    first s slots of replication r, for s = 0..horizon. ``slot_of[r, i, j]``
    is the 1-based slot of its (j+1)-th reception, for j below
    ``csum[r, i, horizon]``, and 0 from there to j = horizon - 1; the last
    column holds nothing.

    The streams are drawn in small blocks, one ``fill_streams`` call each
    into a reused buffer, with the bits of ``frame_bits``. ``slot_of`` is
    built by scattering each reception's slot to its ordinal, read from
    ``csum``; a slot without a reception goes to the row's last column.
    """
    c, n = len(csum), len(erasures)
    dtype = csum.dtype
    receive = (1.0 - np.asarray(erasures))[:, None]
    slots = np.arange(1, horizon + 1, dtype=dtype)
    block = max(1, min(c, _DRAW_CELLS // (horizon * n)))
    u = np.empty((block, horizon, n))
    frames = list(u)
    bits = np.empty((block, n, horizon), dtype=bool)
    flat_slot = slot_of.reshape(-1)
    for lo in range(0, c, block):
        b = min(block, c - lo)
        fill_streams(rng.seed, rng.shifted(lo).stream, frames[:b])
        np.less(u[:b].transpose(0, 2, 1), receive, out=bits[:b])
        counts = csum[lo : lo + b]
        np.cumsum(bits[:b], axis=2, dtype=dtype, out=counts[:, :, 1:])
        ordinal = np.where(bits[:b], counts[:, :, :-1], horizon)
        rows = np.arange(lo * n, (lo + b) * n).reshape(b, n, 1) * (horizon + 1)
        slot_of[lo : lo + b] = 0
        flat_slot[rows + ordinal] = slots


def _block_steps(k_vec, horizon, backlog, csum, slot_of) -> np.ndarray:
    """Delivered counts of a plan on each replication of a reception index.

    A block step is a gather with no scan over slots. A block of k packets
    started at slot ``start`` needs receiver i's reception number
    ``need = csum[start] + k - 1`` (counted from 0): it completes iff no
    receiver's ``slot_of[need]`` is 0, and then ends at the latest of them.
    A plan's block never exceeds the slots left (``BlockPolicy`` clips it),
    so need < horizon. The cost is linear in the horizon.
    """
    c, n = csum.shape[:2]
    delivered = np.zeros(c, dtype=np.int64)
    flat_csum, flat_slot = csum.reshape(-1), slot_of.reshape(-1)
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
        slot = flat_slot[base + need]
        ok = slot.all(axis=1)

        done = active[ok]
        delivered[done] += k[ok]
        m[done] -= k[ok]
        t[done] = horizon - slot[ok].max(axis=1)
        t[active[~ok]] = 0
        active = active[(t[active] > 0) & (m[active] > 0)]
    return delivered


def _batch_delivered(k_vec, horizon, backlog, erasures, rng, replications) -> np.ndarray:
    """Delivered counts of a plan on streams rng.stream .. + replications - 1.

    Exactly reproduces simulate_frame(policy with this plan, rng.shifted(r))
    for each replication r: same Philox keys, same bits, same block
    semantics. The replications run in chunks of the size the chunk rule
    gives, and every chunk builds its reception index in the same two arrays,
    so the working set is set by the frame's shape alone.
    """
    delivered = np.zeros(replications, dtype=np.int64)
    if horizon == 0 or backlog == 0:
        return delivered
    n = len(erasures)
    chunk = min(replications, max(_MIN_CHUNK, _CHUNK_CELLS // ((horizon + 1) * n)))
    csum = np.zeros((chunk, n, horizon + 1), dtype=np.min_scalar_type(horizon + 1))
    slot_of = np.empty_like(csum)
    for lo in range(0, replications, chunk):
        c = min(chunk, replications - lo)
        _reception_index(horizon, erasures, rng.shifted(lo), csum[:c], slot_of[:c])
        delivered[lo : lo + c] = _block_steps(k_vec, horizon, backlog, csum[:c], slot_of[:c])
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
    batch engine runs replications in chunks sized by the frame's slots x
    receivers, so its working set does not grow with the replication count.
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
        delivered = _batch_delivered(
            k_vec, horizon, backlog, channel.erasures, rng, replications
        )

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
