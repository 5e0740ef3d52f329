"""Fixture: every determinism rule has a true positive here."""

import random
import time
from datetime import datetime
from random import shuffle  # DET002: binds the global RNG

import numpy as np


def entropy_soup(events):
    """Ambient entropy in every flavour the pass knows about."""
    rng = random.Random()  # DET001: unseeded
    gen = np.random.default_rng()  # DET001: unseeded
    jitter = random.random()  # DET002: global RNG state
    started = time.time()  # DET003: wall clock
    stamped = datetime.now()  # DET003: wall clock
    total = 0
    for tag in {"fifo", "sjf", "gavel"}:  # DET004: set-literal order
        total += hash(tag)  # DET005: salted hash
    ordered = sorted(events, key=hash)  # DET005: salted sort key
    shuffle(ordered)
    handle = id(ordered)  # DET005: per-process address
    return rng, gen, jitter, started, stamped, total, ordered, handle


def lazy_numpy_noise():
    """numpy imported at call time is still numpy to the pass."""
    import numpy as np

    return np.random.default_rng()  # DET001: unseeded
