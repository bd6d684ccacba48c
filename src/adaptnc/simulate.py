"""Slot-level simulation of coded frames over the broadcast channel.

The reference engine walks one frame slot by slot, feeding the policy and
recording its block decisions. The batch engine replays the identical
per-stream channel bits for many replications at once with array
arithmetic; for the same (seed, stream) both produce the same delivered
count, which the tests exploit. Every policy runs through the batch engine
in ``monte_carlo_throughput``: a plan through its block sizes, and the
learning policy through estimate paths computed up front, since its estimate
depends only on the slots observed. ``learning_run`` carries one policy's
state across frames; when the backlog is at least the horizon every frame
observes all its slots, so the run's estimate path is known up front too,
and its frames run through the batch engine, all but the few early ones
whose first block steps up from the frame before. The reference engine
drives those, the runs with a smaller backlog, and the multi-flow loop. All
channel randomness flows through RngSpec so the replication order never
matters.

The batch engine first builds a reception index of each replication: per
(slot, receiver), the receptions counted so far (``csum``) and the slot of
each reception by its ordinal (``slot_of``). A block step then asks the
policy's ``block_rule`` for every active replication's block size and reads
where each receiver's k-th reception after the block's start falls with one
gather, so a replication costs time linear in the horizon, whatever the
policy. Replications run in chunks sized by a fixed budget of (slot,
receiver) cells. Every chunk builds its index in the same two arrays and
draws its streams in small blocks into one reused buffer, so the engine's
working set depends on the frame's shape and not on the number of
replications.

A frame of T <= 12 slots has only 2**T reception patterns per receiver, so
its index rows are not built but read: two uint8 tables per horizon hold the
``csum`` and ``slot_of`` rows of every pattern, 2**T x (T + 1) bytes each
(11 KiB at T = 10, 52 KiB at T = 12), built once by the general path, and
each receiver's draws become a pattern id that selects both rows. Longer
frames build their rows from the draws; a 16-slot cap would need 2.2 MB of
tables per horizon.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

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
# receiver of a replication, are a few of 16 MiB / (T + 1) each, and the
# learning policy's estimate paths take 3 bytes a (slot, replication), so
# 6 MiB / n. A carried ``learning_run`` chunk also holds its estimate chain
# and the decisions it logs, about 60 bytes a slot while it is built, so
# 120 MiB / n: less than the records that the run returns for its frames.
# The floor takes over once (T + 1) * n passes 2048, and keeps the
# block-step loop, up to one step per slot, spread over enough replications.
_CHUNK_CELLS = 2**21
_MIN_CHUNK = 1024
# Draw blocks: as many replications as keep a block to about this many
# (slot, receiver) cells, so that its float draws and int64 scatter targets
# take at most 512 KiB each, whatever the chunk size.
_DRAW_CELLS = 2**16


def _index_bits(bits, csum, slot_of):
    """Write the reception index of reception bits ``bits[r, i, s]`` (b,
    receivers, horizon) into ``csum`` and ``slot_of``, two C-contiguous (b,
    receivers, horizon + 1) arrays, with ``csum[:, :, 0]`` already 0.

    ``csum`` is the running count of the bits. ``slot_of`` is built by
    scattering each reception's 1-based slot to its ordinal, read from
    ``csum``; a slot without a reception goes to the row's last column, which
    is then set to 0.
    """
    b, n, horizon = bits.shape
    np.cumsum(bits, axis=2, dtype=csum.dtype, out=csum[:, :, 1:])
    ordinal = np.where(bits, csum[:, :, :-1], horizon)
    rows = np.arange(b * n).reshape(b, n, 1) * (horizon + 1)
    slot_of[:] = 0
    slot_of.reshape(-1)[rows + ordinal] = np.arange(1, horizon + 1, dtype=slot_of.dtype)
    slot_of[:, :, horizon] = 0


# Frames of at most _PATTERN_SLOTS slots read their index rows from tables of
# all 2**T reception patterns of one receiver. The tables double with every
# slot: the two of 2**T x (T + 1) bytes take 104 KiB at T = 12 and build in
# about a millisecond, while a 16-slot cap would need 2.2 MB per horizon.
_PATTERN_SLOTS = 12


@lru_cache(maxsize=_PATTERN_SLOTS)
def _pattern_tables(horizon):
    """The ``csum`` and ``slot_of`` rows, (2**horizon, horizon + 1) read-only
    uint8 tables, of every reception pattern of a frame of ``horizon`` slots:
    pattern p receives in slot s + 1 iff bit s of p is set. Built by
    ``_index_bits`` over all patterns, so each row is the general path's."""
    patterns = np.arange(2**horizon)[:, None, None] >> np.arange(horizon) & 1
    csum = np.zeros((2**horizon, 1, horizon + 1), dtype=np.min_scalar_type(horizon + 1))
    slot_of = np.empty_like(csum)
    _index_bits(patterns.astype(bool), csum, slot_of)
    csum.flags.writeable = slot_of.flags.writeable = False
    return csum[:, 0], slot_of[:, 0]


def _reception_index(horizon, erasures, rng, csum, slot_of):
    """Write the reception index of the frames of streams rng.stream .. + c - 1
    into ``csum`` and ``slot_of``, two C-contiguous (c, receivers, horizon +
    1) arrays of the smallest unsigned type that holds horizon + 1, with
    ``csum[:, :, 0]`` already 0.

    Receiver-major: ``csum[r, i, s]`` counts receiver i's receptions in the
    first s slots of replication r, for s = 0..horizon. ``slot_of[r, i, j]``
    is the 1-based slot of its (j+1)-th reception, for j below
    ``csum[r, i, horizon]``, and 0 from there to the last column, j =
    horizon, which is always 0.

    The streams are drawn in small blocks, one ``fill_streams`` call each
    into a reused buffer, with the bits of ``frame_bits``. A frame of at most
    ``_PATTERN_SLOTS`` slots turns each receiver's bits into its pattern id,
    bit s for slot s + 1, with one integer matmul, and takes both rows from
    the horizon's ``_pattern_tables``; a longer frame's rows are built by
    ``_index_bits``. Both paths write the same arrays.
    """
    c, n = len(csum), len(erasures)
    receive = 1.0 - np.asarray(erasures)
    block = max(1, min(c, _DRAW_CELLS // (horizon * n)))
    u = np.empty((block, horizon, n))
    frames = list(u)
    if horizon <= _PATTERN_SLOTS:
        tables = _pattern_tables(horizon)
        weights = 1 << np.arange(horizon, dtype=np.int16)
        bits = np.empty((block, horizon, n), dtype=bool)
    else:
        bits = np.empty((block, n, horizon), dtype=bool)
    for lo in range(0, c, block):
        b = min(block, c - lo)
        fill_streams(rng.seed, rng.shifted(lo).stream, frames[:b])
        if horizon <= _PATTERN_SLOTS:
            patterns = weights @ np.less(u[:b], receive, out=bits[:b])
            np.take(tables[0], patterns, axis=0, out=csum[lo : lo + b])
            np.take(tables[1], patterns, axis=0, out=slot_of[lo : lo + b])
        else:
            np.less(u[:b].transpose(0, 2, 1), receive[:, None], out=bits[:b])
            _index_bits(bits[:b], csum[lo : lo + b], slot_of[lo : lo + b])


def _index_chunks(horizon, n, frames):
    """The chunk size of the chunk rule for ``frames`` frames of ``horizon``
    slots and ``n`` receivers, and the ``csum`` and ``slot_of`` arrays that
    every chunk's reception index is written into."""
    chunk = min(frames, max(_MIN_CHUNK, _CHUNK_CELLS // ((horizon + 1) * n)))
    csum = np.zeros((chunk, n, horizon + 1), dtype=np.min_scalar_type(horizon + 1))
    return chunk, csum, np.empty_like(csum)


def _block_steps(rule, horizon, backlog, csum, slot_of) -> np.ndarray:
    """Delivered counts of a policy's block ``rule`` (``block_rule``) on each
    replication of a reception index.

    A block step is one call of the rule for every replication with slots
    and packets left, and a gather with no scan over slots. A block of k
    packets started at slot ``start`` needs receiver i's reception number
    ``need = csum[start] + k - 1`` (counted from 0): it completes iff no
    receiver's ``slot_of[need]`` is 0, and then ends at the latest of them.
    Every rule clips its block to the slots left, so need < horizon. The
    cost is linear in the horizon.
    """
    c, n = csum.shape[:2]
    delivered = np.zeros(c, dtype=np.int64)
    flat_csum, flat_slot = csum.reshape(-1), slot_of.reshape(-1)
    row_base = (np.arange(c)[:, None] * n + np.arange(n)) * (horizon + 1)

    t = np.full(c, horizon, dtype=np.int64)
    m = np.full(c, backlog, dtype=np.int64)
    active = np.arange(c)
    while active.size:
        k = rule(active, t[active], m[active])
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


def _batch_delivered(policy, horizon, backlog, erasures, rng, replications) -> np.ndarray:
    """Delivered counts of a policy on streams rng.stream .. + replications - 1.

    Exactly reproduces simulate_frame(freshly reset policy, rng.shifted(r))
    for each replication r: same Philox keys, same bits, same block
    semantics. The replications run in chunks of the size the chunk rule
    gives, and every chunk builds its reception index in the same two arrays,
    so the working set is set by the frame's shape alone.
    """
    delivered = np.zeros(replications, dtype=np.int64)
    if horizon == 0 or backlog == 0:
        return delivered
    chunk, csum, slot_of = _index_chunks(horizon, len(erasures), replications)
    for lo in range(0, replications, chunk):
        c = min(chunk, replications - lo)
        _reception_index(horizon, erasures, rng.shifted(lo), csum[:c], slot_of[:c])
        rule = policy.block_rule(horizon, csum[:c])
        delivered[lo : lo + c] = _block_steps(rule, horizon, backlog, csum[:c], slot_of[:c])
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
    replication can be replayed with simulate_frame on a freshly reset
    policy. Every policy runs through the batch engine, in chunks sized by
    the frame's slots x receivers, so its working set does not grow with the
    replication count. The policy is left reset: a learning policy keeps the
    plans it solved but no run state.
    """
    if horizon < 0 or backlog < 0:
        raise ValueError("horizon and backlog must be non-negative")
    if replications < 1:
        raise ValueError("need at least one replication")
    policy.check_horizon(horizon)
    policy.reset()
    delivered = _batch_delivered(policy, horizon, backlog, channel.erasures, rng, replications)

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

    Records and the policy's state afterwards are bit for bit those of
    ``simulate_frame`` run frame after frame. With backlog >= horizon > 0
    every frame plays to its deadline, so the run's estimate path is known
    from the draws alone (``LearningPolicy.run_paths``), and the frames run
    in chunks through the batch engine. Only a frame whose first decision
    sees a moving estimate depends on the frame before it, since it steps up
    from that frame's last block: the w-th slot moves the estimate by at
    most 1/(w + 1), so such frames come only in the policy's first 1/delta
    slots. They run one by one, and with them every frame before them in
    their chunk; a chunk whose last frame may still be one of them, as every
    chunk is at delta = 0, runs one by one before any draw. A smaller
    backlog can end a frame early, with slots unobserved, so all its frames
    run one by one.
    """
    if frames < 1:
        raise ValueError("need at least one frame")
    if backlog is None:
        backlog = horizon
    if horizon < 0 or backlog < 0:
        raise ValueError("horizon and backlog must be non-negative")
    policy.check_horizon(horizon)
    records = []

    def record(k, eps_hat, delivered, ramp):
        mode = "ramp" if ramp else "stable"
        records.append({"frame": k, "eps_hat": eps_hat, "delivered": delivered, "mode": mode})

    def one_by_one(lo, hi):
        for k in range(lo, hi):
            mark = len(policy.decision_log)
            trace = simulate_frame(policy, horizon, backlog, channel, rng.shifted(k))
            ramp = any(row[2] for row in policy.decision_log[mark:])
            record(k, float(policy.eps_hat), trace.delivered, ramp)

    if not 0 < horizon <= backlog:
        one_by_one(0, frames)
        return records
    chunk, csum, slot_of = _index_chunks(horizon, channel.n_receivers, frames)
    for lo in range(0, frames, chunk):
        c = min(chunk, frames - lo)
        # the chunk's last frame starts after slot w, which moved the
        # estimate by at most 1 / (w + 1), up to rounding; if that can still
        # pass delta (always at delta = 0), no frame of the chunk is batched
        w = policy.slots_observed + (c - 1) * horizon
        if c > 1 and 1.0 / (w + 1) + 1e-12 > policy.delta:
            one_by_one(lo, lo + c)
            continue
        _reception_index(horizon, channel.erasures, rng.shifted(lo), csum[:c], slot_of[:c])
        point, moving, chain = policy.run_paths(csum[:c])
        stepped = np.flatnonzero(moving[1:, 0])  # frames 1.. whose first decision moves
        p = int(stepped[-1]) + 2 if stepped.size else 0
        one_by_one(lo, lo + p)
        if p == c:
            continue

        # frame p starts from the run's last block; a later frame's first
        # decision does not move, so its entry only has to be nonzero
        last = np.ones(c - p, dtype=np.int64)
        last[0] = policy.last_block or 0
        rule = policy.path_rule(horizon, point[p:], moving[p:], last)
        steps = []

        def logged(active, t, m):
            k = rule(active, t, m)
            steps.append((active, t, k))
            return k

        delivered = _block_steps(logged, horizon, backlog, csum[p:c], slot_of[p:c])
        row, t, k = (np.concatenate(parts) for parts in zip(*steps))
        order = np.argsort(row, kind="stable")
        row, t, k = row[order], t[order], k[order]
        moved = moving[p:][row, horizon - t]
        ramp = np.zeros(c - p, dtype=bool)
        ramp[row[moved]] = True
        policy.decision_log.extend(zip(t.tolist(), k.tolist(), moved.tolist()))
        policy.slots_observed += (c - p) * horizon
        policy.eps_hat_prev, policy.eps_hat = chain[-2:].tolist()
        policy.last_block = int(last[-1])
        ends = chain[horizon + 1 :: horizon][p:]  # the estimate after each frame
        for args in zip(range(lo + p, lo + c), ends.tolist(), delivered.tolist(), ramp.tolist()):
            record(*args)
    return records


def map_cells(cell, cells, workers: int) -> list:
    """``[cell(*args) for args in cells]``, in order: in this process for one
    worker or one cell, otherwise over a pool of never more processes than
    cells (``cell`` and its arguments must then pickle), each started with
    this process's numpy floating-point error settings. Sweeps key each
    cell's streams by its position, so the results never depend on the worker
    count."""
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    cells = list(cells)
    workers = min(workers, len(cells))
    if workers <= 1:
        return [cell(*args) for args in cells]
    from concurrent.futures import ProcessPoolExecutor

    errors = partial(np.seterr, **np.geterr())
    with ProcessPoolExecutor(max_workers=workers, initializer=errors) as pool:
        return list(pool.map(cell, *zip(*cells)))
