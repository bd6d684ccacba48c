"""Re-keyed stream draws: fill_streams and its one-stream case fill_uniform
must reproduce a freshly built generator bit for bit, leave live generators
alone, keep per-thread state apart, and let the batch engine run without
building a generator per replication."""

import sys
import threading

import numpy as np
import pytest

from adaptnc import ChannelModel, OptimalPolicy, RngSpec, monte_carlo_throughput, solve_monotone
from adaptnc.rng import _REKEYABLE, fill_streams, fill_uniform

U64_MAX = 2**64 - 1


@pytest.mark.parametrize("shape", [(1, 1), (10, 10), (100, 20)])
@pytest.mark.parametrize(
    "seed, stream",
    [(0, 0), (0, U64_MAX), (U64_MAX, 0), (U64_MAX, U64_MAX), (7, 3), (9090, 5 << 32)],
)
def test_matches_a_fresh_generator_bit_for_bit(seed, stream, shape):
    expected = RngSpec(seed, stream).generator().random(shape)
    out = np.empty(shape)
    assert fill_uniform(seed, stream, out) is out
    assert np.array_equal(out, expected)


def test_consecutive_draws_do_not_carry_state():
    # a short draw leaves words in Philox's buffer; the next stream must not see them
    out = np.empty((3, 1))
    for stream in range(5):
        fill_uniform(1, stream, np.empty((1, 1)))
        fill_uniform(2, stream, out)
        assert np.array_equal(out, RngSpec(2, stream).generator().random((3, 1)))


@pytest.mark.parametrize(
    "seed, stream", [(0, 0), (0, U64_MAX), (U64_MAX, 0), (U64_MAX, U64_MAX), (7, U64_MAX - 1)]
)
def test_block_matches_fresh_generators_stream_by_stream(seed, stream):
    # streams count up modulo 2**64, so the blocks from U64_MAX - 1 and
    # U64_MAX wrap to stream 0; 15 draws a frame leave Philox mid-buffer, and
    # the next stream must not see the rest
    template = _plain(_REKEYABLE.state)
    frames = list(np.empty((4, 5, 3)))
    fill_streams(seed, stream, frames)
    for j, frame in enumerate(frames):
        expected = RngSpec(seed, (stream + j) % 2**64).generator().random((5, 3))
        assert np.array_equal(frame, expected), j
    last = (stream + 3) % 2**64
    assert _plain(_REKEYABLE.state) == {
        **template, "state": {**template["state"], "key": [seed, last]}
    }


def _plain(state):
    """A bit generator state with its arrays as lists, for comparison."""
    return {
        key: _plain(value) if isinstance(value, dict)
        else value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in state.items()
    }


@pytest.mark.parametrize(
    "seed, stream", [(0, 0), (7, 3), (2**63, 2**63), (U64_MAX, U64_MAX), (U64_MAX, 1)]
)
def test_state_after_an_odd_draw_matches_a_fresh_generator(seed, stream):
    # three words leave Philox mid-buffer; the re-keyed generator must stand
    # exactly where a fresh one does, and the reset template must not move
    template = _plain(_REKEYABLE.state)
    for words in (3, 1, 5):
        fresh = RngSpec(seed, stream).generator()
        fresh.random((words, 1))
        fill_uniform(seed, stream, np.empty((words, 1)))
        assert _plain(_REKEYABLE.bit_generator.state) == _plain(fresh.bit_generator.state)
        assert _plain(_REKEYABLE.state) == {
            **template, "state": {**template["state"], "key": [seed, stream]}
        }


def test_rekeying_leaves_a_live_generator_alone():
    # run_online's pattern: long-lived arrival and thinning generators are
    # consumed between per-frame draws
    reference = RngSpec(5, 1).generator()
    expected = [reference.random(4), reference.poisson(3.0, 2), reference.random(4)]
    live = RngSpec(5, 1).generator()
    fill_uniform(5, 3, np.empty((10, 4)))
    got = [live.random(4)]
    fill_uniform(5, 4, np.empty((10, 4)))
    got.append(live.poisson(3.0, 2))
    fill_uniform(5, 5, np.empty((10, 4)))
    got.append(live.random(4))
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def test_threads_draw_their_own_streams():
    results, errors = {}, []

    def worker(tid):
        try:
            out, frames = np.empty((6, 3)), list(np.empty((4, 6, 3)))
            for stream in range(0, 200, 5):
                fill_uniform(tid, stream, out)
                fill_streams(tid, stream + 1, frames)
                if stream % 20 == 0:
                    results[(tid, stream)] = out.copy()
                    for j, frame in enumerate(frames, 1):
                        results[(tid, stream + j)] = frame.copy()
        except Exception as exc:  # reported through `errors` below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(results) == 4 * 10 * 5
    for (tid, stream), got in results.items():
        assert np.array_equal(got, RngSpec(tid, stream).generator().random((6, 3)))


def test_batch_engine_builds_at_most_one_bit_generator(monkeypatch):
    ch = ChannelModel.homogeneous(0.3, 4)
    policy = OptimalPolicy(solve_monotone(10, ch))
    expected = monte_carlo_throughput(policy, 10, 10, ch, 10_000, RngSpec(3, 0), keep_samples=True)

    built = []
    original = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    out = {}

    def run():
        out["summary"] = monte_carlo_throughput(
            policy, 10, 10, ch, 10_000, RngSpec(3, 0), keep_samples=True
        )

    # a fresh thread has no bit generator yet, so the count includes its set-up
    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert len(built) <= 1
    assert np.array_equal(out["summary"].samples, expected.samples)
