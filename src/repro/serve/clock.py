"""The service's controllable virtual clock.

The online engine never advances the simulation to arbitrary wall-clock
instants — float non-associativity would make online runs diverge from
batch runs. Instead the clock only answers one question: *up to which
virtual time may events be processed right now?* The engine then steps
the simulator through its own exact event times up to that watermark,
so every hop is event-sized and bit-identical to the batch loop.

Three modes:

* **paused** — the watermark is frozen; ``step_to`` raises it
  deterministically (the test/replay mode: stage submissions, then
  release virtual time in controlled increments);
* **paced** — the watermark advances at ``speedup`` virtual seconds per
  wall second from the moment of ``resume`` (demo/SLO mode);
* **unlimited** (``speedup=0``/``None``) — the watermark is ``+inf``
  and the engine runs as fast as the hardware allows (drain mode, and
  the deterministic-equivalence mode: gate-free stepping is exactly the
  batch loop).

Wall-clock reads live only here (and in latency metering): they pace
*when* events are processed, never *what* the simulation computes.
"""

from __future__ import annotations

import math
import time
from typing import Optional


class VirtualClock:
    """Watermark over virtual time: paused, paced, or unlimited."""

    def __init__(
        self,
        speedup: Optional[float] = None,
        start_paused: bool = False,
    ) -> None:
        """``speedup``: virtual seconds per wall second; ``None``/``0``
        means unlimited. The watermark starts at virtual time 0, or,
        with ``start_paused``, frozen at minus infinity — i.e. *nothing*
        may process until the clock is resumed or stepped, so a client
        can stage submissions (even at virtual time 0) without racing
        the engine.
        """
        self._speedup = None if not speedup else float(speedup)
        self._paused = bool(start_paused)
        #: Virtual watermark reached when last paused/resumed.
        self._held_s = -math.inf if start_paused else 0.0
        # Pacing reads the monotonic wall clock by design: it gates when
        # events process, never what the simulation computes.
        # lint: disable=DET003
        self._wall_anchor = time.monotonic()

    # ------------------------------------------------------------------

    @property
    def paused(self) -> bool:
        """Whether the watermark is currently frozen."""
        return self._paused

    @property
    def speedup(self) -> Optional[float]:
        """Virtual seconds per wall second; ``None`` = unlimited."""
        return self._speedup

    def target_s(self) -> float:
        """The watermark: virtual time events may be processed up to."""
        if self._paused:
            return self._held_s
        if self._speedup is None:
            return math.inf
        # lint: disable=DET003
        elapsed = time.monotonic() - self._wall_anchor
        return self._held_s + elapsed * self._speedup

    def seconds_until(self, virtual_s: float) -> Optional[float]:
        """Wall seconds until the watermark reaches ``virtual_s``.

        ``None`` while paused (only an explicit ``step_to``/``resume``
        can move the watermark); ``0.0`` when already reachable.
        """
        if self._paused:
            return None
        if self._speedup is None:
            return 0.0
        gap = virtual_s - self.target_s()
        if gap <= 0:
            return 0.0
        return gap / self._speedup

    # ------------------------------------------------------------------

    def pause(self) -> float:
        """Freeze the watermark where it is now; returns it."""
        self._held_s = self.target_s()
        self._paused = True
        return self._held_s

    def resume(self, speedup: Optional[float] = None) -> None:
        """Unfreeze; optionally change the pacing rate.

        ``speedup=0``/``None`` resumes unlimited; a positive value paces
        virtual time from the current watermark. Resuming from the
        initial deep-frozen state starts virtual time at 0.
        """
        if speedup is not None:
            self._speedup = None if not speedup else float(speedup)
        if math.isinf(self._held_s):
            self._held_s = 0.0
        self._paused = False
        # lint: disable=DET003
        self._wall_anchor = time.monotonic()

    def step_to(self, virtual_s: float) -> float:
        """While paused, raise the watermark to ``virtual_s``.

        The watermark never moves backwards; returns the new watermark.
        Stepping an unpaused clock pauses it first (so ``step`` is
        always deterministic).
        """
        if not self._paused:
            self.pause()
        self._held_s = max(self._held_s, float(virtual_s))
        return self._held_s
