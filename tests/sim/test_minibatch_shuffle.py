"""The emulator's inlined shuffle is ``random.Random.shuffle``, bit for bit.

``repro.sim.minibatch._shuffle`` must leave the same permutation and
the same generator state as the running interpreter's stdlib shuffle;
every item order of the emulator (and so every anchor) rests on it.
Lengths cover 0, 1, 2 and both sides of every power of two up to 2**16,
where the inlined loop switches its draw width.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.minibatch import _shuffle

#: 0, 1, 2 and 2**k - 1, 2**k, 2**k + 1 for k up to 16 (~65k items).
EDGE_LENGTHS = sorted(
    {0, 1, 2}
    | {n for k in range(1, 17) for n in (2**k - 1, 2**k, 2**k + 1)}
)


def assert_matches_stdlib(seed, n):
    ours, theirs = random.Random(seed), random.Random(seed)
    xs, ys = list(range(n)), list(range(n))
    # Two successive shuffles: the second starts from the state the
    # first one left behind.
    for _ in range(2):
        _shuffle(ours, xs)
        theirs.shuffle(ys)
        assert xs == ys
        assert ours.getstate() == theirs.getstate()


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    n=st.one_of(
        st.sampled_from(EDGE_LENGTHS),
        st.integers(min_value=0, max_value=70_000),
    ),
)
def test_shuffle_matches_stdlib(seed, n):
    assert_matches_stdlib(seed, n)


def test_every_edge_length_once():
    for n in EDGE_LENGTHS:
        assert_matches_stdlib(n, n)
