"""DET fixture: the entropy source, two call hops from the sink."""

import time


def read_clock():
    return time.time()
