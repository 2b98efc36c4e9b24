"""Machine-speed meter: a fixed pure-Python kernel timed beside the ops.

The sandbox is a few cores of a shared host, and its neighbours slow
*everything* by 1.2–2.4x for seconds to minutes at a time (CPU time
rises with wall time and no steal is reported: it is contention inside
the core, not for the scheduler). A median inside a run cannot remove a
slowdown that covers the run, so the gated timings are reported
relative to this kernel instead: a pass of it runs between ops all
through the replay, each op is divided by the slowdown that the passes
on either side of it measured, i.e. every gated timing reads as it
would on the quiet reference sandbox (:data:`REFERENCE_S`).

The kernel is interpreter-bound with a wide code footprint — pretty
printing, sequence matching, rational arithmetic and tokenizing, all
pure-Python standard library — because that is what tracked the
program's own slowdown (README, "Speed normalisation": a tight
dict/set loop under-reads the worst episodes and a memory-bound one
barely moves). It lives in the benchmark's files and calls nothing of
``repro``, so no change to the program can move it.
"""

from __future__ import annotations

import difflib
import fractions
import gc
import io
import pprint
import statistics
import time
import tokenize
from typing import List

#: Time of one kernel pass on the quiet reference sandbox. Only a
#: scale: it makes a normalised timing read like a quiet raw one.
REFERENCE_S = 0.00175
#: A sample is due once this much time has gone by since the last one,
#: so long ops are bracketed by samples and short ones share a bracket.
EVERY_S = 0.02
#: What ran for longer than this is bracketed by the median of
#: ``LONG_PASSES`` passes instead of a single pass.
LONG_S = 0.1
LONG_PASSES = 5

_NESTED = {
    f"k{i}": [{"a": i, "b": ("x" * (i % 7), float(i))}, list(range(i % 9))]
    for i in range(40)
}
_LEFT = "the quick brown fox jumps over the lazy dog " * 6
_RIGHT = "the quick red fox jumped over the lazy dogs " * 6
_SOURCE = "".join(
    f"def f{i}(a, b={i}):\n    return [a * {i} + b, 'v{i}', a.get(b, None)]\n"
    for i in range(12)
)


def kernel() -> int:
    done = len(pprint.pformat(_NESTED))
    done += int(difflib.SequenceMatcher(None, _LEFT, _RIGHT).ratio() * 100)
    total = fractions.Fraction(0)
    for i in range(1, 40):
        total += fractions.Fraction(1, i)
    done += total.denominator % 7
    readline = io.StringIO(_SOURCE).readline
    return done + sum(1 for _ in tokenize.generate_tokens(readline))


class SpeedMeter:
    """Timed kernel samples. ``gaps[i]`` is the time between sample
    ``i`` and sample ``i + 1`` and ``speed(i)`` the slowdown those two
    samples measured for it (1.0 = the quiet reference sandbox)."""

    def __init__(self) -> None:
        for _ in range(3):  # warm the kernel's own caches, untimed
            kernel()
        self.samples: List[float] = []
        self.gaps: List[float] = []
        self._last_end = time.perf_counter()

    def sample(self, long: bool = False) -> int:
        """Time the kernel now (``long``: what comes next, or what just
        ended, ran long); returns the sample's index."""
        began = time.perf_counter()
        gap = began - self._last_end
        collecting = gc.isenabled()
        gc.disable()  # the program's garbage is not the kernel's cost
        try:
            passes = []
            mark = began
            for _ in range(LONG_PASSES if long or gap > LONG_S else 1):
                kernel()
                now = time.perf_counter()
                passes.append(now - mark)
                mark = now
        finally:
            if collecting:
                gc.enable()
        if self.samples:
            self.gaps.append(gap)
        self.samples.append(statistics.median(passes))
        self._last_end = mark
        return len(self.samples) - 1

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last_end >= EVERY_S:
            self.sample()

    @property
    def last(self) -> int:
        return len(self.samples) - 1

    def speed(self, index: int) -> float:
        """Slowdown of the stretch between sample ``index`` and the next."""
        samples = self.samples
        after = samples[min(index + 1, len(samples) - 1)]
        return (samples[index] + after) / (2.0 * REFERENCE_S)
