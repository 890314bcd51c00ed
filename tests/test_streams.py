"""The array sampler gives every trial the bits of its own numpy Generator.

`streams.Streams` holds a chunk's PCG64 generators as uint64 arrays, and
`polygon._draw_attempts` decodes one attempt for a set of rows.  The oracle
is `support.generator_draw`, one attempt drawn from
`Generator(PCG64(SeedSequence([seed, stream, index])))`: the sampler must
give its bits and leave each generator in the state the Generator is left in.
"""

import numpy as np
import pytest

from sphereconvex import polygon as pg
from sphereconvex.polygon import STREAM_WIDE, STREAMS
from sphereconvex.streams import _PCG_MULT, Streams
from support import bits, generator_draw

MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1


def generator(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream, index])))


def state_of(streams: Streams, k: int) -> dict:
    """Row k of streams as the `PCG64.state` dict."""
    return {
        "bit_generator": "PCG64",
        "state": {
            "state": int(streams.hi[k]) << 64 | int(streams.lo[k]),
            "inc": int(streams.inc_hi[k]) << 64 | int(streams.inc_lo[k]),
        },
        "has_uint32": int(streams.has_uint32[k]),
        "uinteger": int(streams.uinteger[k]),
    }


def assert_draws_match(streams: Streams, rngs: list, cap, attempts: list) -> None:
    """Each attempt draws for its rows, and each row gets the oracle's draws
    from its own generator: the center, sag, cyclically padded heights and
    azimuths, and count; afterwards every row has its generator's state."""
    for k, rng in enumerate(rngs):
        assert state_of(streams, k) == rng.bit_generator.state
    for rows in attempts:
        center, sag, u, az, count = pg._draw_attempts(streams, rows, cap)
        m = u.shape[1]
        for row, k in enumerate(rows):
            want_center, want_sag, want_u, want_az = generator_draw(rngs[k], cap)
            cyc = np.arange(m) % len(want_u)
            assert count[row] == len(want_u)
            assert bits(center[row]).tolist() == bits(want_center).tolist()
            assert bits(sag[row]) == bits(want_sag)
            assert bits(u[row]).tolist() == bits(want_u[cyc]).tolist()
            assert bits(az[row]).tolist() == bits(want_az[cyc]).tolist()
        for k, rng in enumerate(rngs):
            assert state_of(streams, k) == rng.bit_generator.state


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_trials_draw_their_generators_bits(stream):
    # three attempts of 300 trials, the second for every other trial only,
    # as a round redraws only the trials it has not accepted
    indices = range(300)
    rows = np.arange(300)
    assert_draws_match(
        Streams(42, stream, indices),
        [generator(42, stream, i) for i in indices],
        STREAMS[stream][0],
        [rows, rows[::2], rows],
    )


@pytest.mark.parametrize("seed", [0, 2**32, 2**63, 2**64 + 3])
def test_multi_word_keys(seed):
    # keys of one, two and three words in one chunk: the rows of each word
    # count are hashed apart
    indices = [2**32, 0, 2**64 + 5, 7, 2**32 - 1, 2**40]
    for stream in (1, 2**33):
        rows = np.arange(len(indices))
        assert_draws_match(
            Streams(seed, stream, indices),
            [generator(seed, stream, i) for i in indices],
            STREAMS[1][0],
            [rows, rows[1:], rows],
        )


@pytest.mark.parametrize("high, rejections", [(1, 1), (0, 2)])
def test_count_draw_rejections(high, rejections):
    # Lemire's method rejects a next_uint32 x with (46 x) mod 2^32 < 12.  A
    # state S4 = (hi 0, lo high << 32) makes the fourth output, the count's,
    # high << 32: its low half 0 is rejected, and its high half, taken from
    # the buffer, is accepted if 1 and rejected again if 0, which draws a
    # new word.  The trial starts four steps before S4.
    rng = generator(42, STREAM_WIDE, 0)
    streams = Streams(42, STREAM_WIDE, [0])
    inc = rng.bit_generator.state["state"]["inc"]
    state = high << 32
    for _ in range(4):
        state = (state - inc) * pow(_PCG_MULT, -1, 1 << 128) & MASK128
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    streams.hi[0], streams.lo[0] = state >> 64, state & MASK64
    calls = []
    real = streams.next_uint32
    streams.next_uint32 = lambda rows: calls.append(rows.tolist()) or real(rows)
    assert_draws_match(streams, [rng], STREAMS[STREAM_WIDE][0], [np.arange(1)])
    assert calls == [[0]] * (1 + rejections)
