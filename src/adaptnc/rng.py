"""Counter-based random number plumbing.

Every random draw in the package comes from a Philox generator keyed by
(seed, stream). A frame's channel matrix is one ``random((T, N))`` call on
such a generator, so the bit consumed for (slot, receiver) is a pure function
of (seed, stream, slot, receiver): replications can run in any order, split
across processes, or be replayed one at a time, and the traces never change.

Short-lived streams (one per frame or replication) are not given a generator
of their own: ``fill_streams`` re-keys one Philox bit generator per thread to
(seed, stream) with counter 0 and an empty buffer, for each stream of a block
in turn, which yields exactly the draws a fresh
``RngSpec(seed, stream).generator()`` would, at a fraction of the cost of
building one; a single frame is a block of one stream. The (seed, stream,
slot, receiver) address of every draw is unchanged. Long-lived streams that
are consumed across many calls use ``RngSpec.generator()``.
"""

import threading
from dataclasses import dataclass

import numpy as np

_U64 = np.uint64


@dataclass(frozen=True)
class RngSpec:
    """Key of one reproducible random stream."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= self.stream < 2**64:
            raise ValueError("stream must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=_U64)
        return np.random.Generator(np.random.Philox(key=key))

    def shifted(self, offset: int) -> "RngSpec":
        return RngSpec(self.seed, (self.stream + offset) % 2**64)


class _Rekeyable(threading.local):
    """One Philox bit generator per thread, with the state dict that resets
    it: counter 0 and an empty buffer (``buffer_pos`` 4, ``has_uint32`` 0), as
    freshly constructed. The dict holds plain ints and lists, which the state
    setter reads far faster than numpy arrays. Setting ``bit_generator.state``
    copies the values out of the dict, so the template never changes except
    for its key. ``parts`` holds what ``fill_streams`` uses, so that a call
    reads the thread-local object once."""

    def __init__(self):
        self.bit_generator = np.random.Philox(key=np.zeros(2, dtype=_U64))
        self.key = [0, 0]
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self.key},
            "buffer": [0] * 4,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        random = np.random.Generator(self.bit_generator).random
        self.parts = (self.key, self.state, self.bit_generator, random)


_REKEYABLE = _Rekeyable()


def fill_streams(seed: int, stream: int, frames) -> None:
    """Fill each float64 array of ``frames`` in turn with the first uniforms
    of streams (seed, stream), (seed, stream + 1), ..., taken modulo 2**64.

    Frame j is bit for bit equal to
    ``RngSpec(seed, (stream + j) % 2**64).generator().random(frame.shape)``;
    ``seed`` and ``stream`` must fit in 64 bits. Each stream re-keys this
    thread's Philox bit generator and resets it from the template, so a block
    of streams builds no generator and no key array.
    """
    key, state, bit_generator, random = _REKEYABLE.parts
    key[0] = seed
    for frame in frames:
        key[1] = stream
        bit_generator.state = state
        random(out=frame)
        stream = (stream + 1) % 2**64


def frame_bits(rng: RngSpec, horizon: int, erasures) -> np.ndarray:
    """(horizon, n_receivers) reception indicators for one frame.

    Entry [s, i] is True when receiver i gets the packet sent in the frame's
    s-th slot. Drawn in one call so the channel realization is independent of
    the policy driving the frame.
    """
    u = np.empty((horizon, len(erasures)))
    fill_streams(rng.seed, rng.stream, (u,))
    return u < (1.0 - np.asarray(erasures))
