"""Host calibration: a fixed pure-Python loop, timed.

The loop touches nothing in ``ellchain``, so its speed moves only with the
host (other tenants, frequency changes).  On a shared 2-vCPU Xeon host the
same sweep pass was seen to take anywhere from 2.2 s to 3.9 s within one
minute, with CPU time tracking wall time, and the loop's speed tracked it.

Two uses:

* ``spin()``: the loop's time at the start and end of every run,
  reported as ``host.spin_s`` and ``host.spin_end_s``.
* ``Sampler``: during each op (and set-up) the loop runs in short chunks
  from a timer signal, and after it as needed, a tenth of the interval in
  all.  Their seconds per iteration give the host's speed while the op
  ran; the op's own time is scaled by ``REF_NS_PER_ITER`` over that speed,
  i.e. reported as seconds on a host where one iteration takes
  ``REF_NS_PER_ITER`` ns.  Sampling inside the op matters for the
  oracle's multi-second searches, whose time a sample taken only after
  them tracked poorly.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

SPIN_ITERATIONS = 40_000
SPIN_REPEATS = 5
CHUNK_ITERATIONS = 2_000
PERIOD_S = 0.01
MIN_SAMPLE_S = 0.01
CALIBRATION_SHARE = 0.1
# the loop's speed in the quiet moments of the 2-vCPU Xeon host the
# benchmark was tuned on; only the unit of calibrated seconds
REF_NS_PER_ITER = 250.0


def _loop(n: int) -> int:
    acc = 0
    seen: dict[tuple[int, int], int] = {}
    for i in range(n):
        pair = (i % 97, i % 89)
        seen[pair] = seen.get(pair, 0) + 1
        acc += pair[0] * pair[1] - (i >> 3)
    return acc + len(seen)


def spin() -> float:
    """Median seconds of ``SPIN_REPEATS`` runs of the fixed loop."""
    times = []
    for _ in range(SPIN_REPEATS):
        t0 = time.perf_counter()
        _loop(SPIN_ITERATIONS)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Host speed sampled during each timed interval and right after it.

    While an interval runs, a ``SIGALRM`` timer runs one chunk of the loop
    every ``PERIOD_S``; after it ends, chunks run until the interval's
    samples add up to ``CALIBRATION_SHARE`` of its own time, and to at
    least ``MIN_SAMPLE_S``, so that a millisecond op still gets a usable
    sample.  The interval reports its own seconds (wall time less the
    samples taken inside it) and the factor that turns them into calibrated
    seconds.  Without the timer (around process pools) only the top-up
    after the interval runs.
    """

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.seconds = 0.0
        self.iterations = 0

    def _chunk(self, *_):
        t0 = time.perf_counter()
        _loop(CHUNK_ITERATIONS)
        self.seconds += time.perf_counter() - t0
        self.iterations += CHUNK_ITERATIONS

    @contextlib.contextmanager
    def interval(self):
        """Yields a dict that gets ``t0``, ``seconds`` and ``calibration``."""
        stats: dict[str, float] = {}
        s0, i0 = self.seconds, self.iterations
        if self.timer:
            previous = signal.signal(signal.SIGALRM, self._chunk)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        stats["t0"] = t0 = time.perf_counter()
        try:
            yield stats
        finally:
            if self.timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
            own = wall - (self.seconds - s0)
            while self.seconds - s0 < max(CALIBRATION_SHARE * own, MIN_SAMPLE_S):
                self._chunk()
            stats["seconds"] = own
            stats["calibration"] = (
                REF_NS_PER_ITER * 1e-9 * (self.iterations - i0) / (self.seconds - s0)
            )
