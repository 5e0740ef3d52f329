"""Fixture: the clean twin of ``determinism_bad`` — zero findings."""

import random
import zlib

import numpy as np


def reproducible_soup(events, now_s: float, seed: int):
    """Seeded RNGs, event-clock time, stable ordering and digests."""
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    jitter = rng.random()
    started = now_s
    total = 0
    for tag in ("fifo", "sjf", "gavel"):
        total += zlib.crc32(tag.encode("utf-8"))
    ordered = sorted(events, key=repr)
    rng.shuffle(ordered)
    return rng, gen, jitter, started, total, ordered


def lazy_numpy_noise(seed: int):
    """The call-time import, seeded."""
    import numpy as np

    return np.random.default_rng(seed)
