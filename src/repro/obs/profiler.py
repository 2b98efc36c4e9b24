"""Zero-dependency sampling wall-clock profiler.

Concurrency: thread-safe

:class:`SamplingProfiler` snapshots every live thread's Python stack
via :func:`sys._current_frames` from a daemon sampler thread at a
configurable rate (default ~67 Hz — deliberately off the 100 Hz / 10 ms
scheduler harmonics so periodic work is not systematically missed or
double-counted). Samples aggregate per thread into collapsed call
stacks — the ``thread;frame;frame;leaf count`` text format Brendan
Gregg's ``flamegraph.pl`` and speedscope consume directly — so a load
run can be profiled and the hot paths read without any third-party
package.

Thread-safety model: only the sampler thread mutates the aggregation
dict while running; readers (:meth:`collapsed`, :meth:`top`,
:meth:`stats`) are meant to run after :meth:`stop`, which joins the
sampler. ``start``/``stop`` themselves are guarded by a small state
lock so double-starts raise instead of leaking threads. The sampler
never samples itself.

Overhead is bounded by design — each tick costs one frames snapshot
plus a dict update, and :meth:`stats` reports the measured sampler duty
cycle so the ``bench_loadgen`` guard can assert the documented ≤1.10x
envelope. Attach one to any run with ``profile_from_env()`` honoring
``REPRO_PROFILE`` (``1``/``0`` or an output path) and
``REPRO_PROFILE_HZ``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "ProfileStats",
    "ProfilerError",
    "SamplingProfiler",
    "profile_from_env",
]

_DEFAULT_HZ = 67.0


class ProfilerError(RuntimeError):
    """Invalid profiler configuration or lifecycle misuse."""


class ProfileStats:
    """Measured sampler accounting for one start/stop window."""

    __slots__ = (
        "samples", "threads_seen", "wall_seconds", "sampler_seconds",
    )

    def __init__(
        self,
        samples: int,
        threads_seen: int,
        wall_seconds: float,
        sampler_seconds: float,
    ) -> None:
        self.samples = samples
        self.threads_seen = threads_seen
        self.wall_seconds = wall_seconds
        self.sampler_seconds = sampler_seconds

    @property
    def duty_cycle(self) -> float:
        """Fraction of wall time spent inside the sampler itself."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.sampler_seconds / self.wall_seconds

    def to_dict(self) -> Dict[str, float]:
        return {
            "samples": self.samples,
            "threads_seen": self.threads_seen,
            "wall_seconds": self.wall_seconds,
            "sampler_seconds": self.sampler_seconds,
            "duty_cycle": self.duty_cycle,
        }


def _frame_label(frame) -> str:
    code = frame.f_code
    return f"{Path(code.co_filename).stem}.{code.co_name}"


class SamplingProfiler:
    """Collapsed-stack wall-clock profiler over all Python threads."""

    def __init__(self, hz: float = _DEFAULT_HZ) -> None:
        if hz <= 0 or hz > 1000:
            raise ProfilerError("sampling rate must be in (0, 1000] Hz")
        self.hz = hz
        self._interval = 1.0 / hz
        self._state_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._stacks: Dict[Tuple[str, ...], int] = {}
        self._thread_idents: set = set()
        self._samples = 0
        self._sampler_seconds = 0.0
        self._started_at = 0.0
        self._wall_seconds = 0.0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SamplingProfiler":
        with self._state_lock:
            if self._thread is not None:
                raise ProfilerError("profiler already running")
            self._stop_event.clear()
            self._stacks.clear()
            self._thread_idents.clear()
            self._samples = 0
            self._sampler_seconds = 0.0
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True
            )
        self._started_at = time.perf_counter()
        self._thread.start()  # cc: allow=CC001 (set under lock above)
        return self

    def stop(self) -> ProfileStats:
        with self._state_lock:
            thread = self._thread
            if thread is None:
                raise ProfilerError("profiler is not running")
            self._thread = None
        self._stop_event.set()  # cc: allow=CC001 (Event is thread-safe)
        thread.join()
        self._wall_seconds = time.perf_counter() - self._started_at
        return self.stats()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- sampler loop (the only mutator while running) -----------------
    def _run(self) -> None:
        own_ident = threading.get_ident()
        interval = self._interval
        stop_wait = self._stop_event.wait  # cc: allow=CC001 (Event is thread-safe)
        while not stop_wait(interval):
            tick_began = time.perf_counter()
            names = {
                t.ident: t.name for t in threading.enumerate()
                if t.ident is not None
            }
            for ident, frame in sys._current_frames().items():
                if ident == own_ident:
                    continue
                stack: List[str] = []
                while frame is not None:
                    stack.append(_frame_label(frame))
                    frame = frame.f_back
                stack.append(names.get(ident, f"thread-{ident}"))
                key = tuple(reversed(stack))
                self._stacks[key] = self._stacks.get(key, 0) + 1  # cc: allow=CC001 (sampler-thread exclusive)
                self._thread_idents.add(ident)  # cc: allow=CC001 (sampler-thread exclusive)
            self._samples += 1  # cc: allow=CC001 (sampler-thread exclusive)
            self._sampler_seconds += (  # cc: allow=CC001 (sampler-thread exclusive)
                time.perf_counter() - tick_began
            )

    # -- results (read after stop) -------------------------------------
    def stats(self) -> ProfileStats:
        wall = self._wall_seconds
        if wall == 0.0 and self._started_at:
            wall = time.perf_counter() - self._started_at
        return ProfileStats(
            samples=self._samples,  # cc: allow=CC001 (read after join)
            threads_seen=len(self._thread_idents),  # cc: allow=CC001 (read after join)
            wall_seconds=wall,
            sampler_seconds=self._sampler_seconds,  # cc: allow=CC001 (read after join)
        )

    def collapsed(self) -> str:
        """Flamegraph-compatible text: ``thread;f1;f2;leaf count``."""
        lines = [
            f"{';'.join(stack)} {count}"
            for stack, count in sorted(self._stacks.items())  # cc: allow=CC001 (read after join)
        ]
        return "\n".join(lines)

    def top(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` hottest leaf frames by inclusive sample count."""
        leaves: Dict[str, int] = {}
        for stack, count in self._stacks.items():  # cc: allow=CC001 (read after join)
            leaf = stack[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        ranked = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def write_collapsed(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        text = self.collapsed()
        target.write_text(text + ("\n" if text else ""), encoding="utf-8")
        return target


def profile_from_env(
    environ: Optional[Dict[str, str]] = None,
) -> Tuple[Optional[SamplingProfiler], Optional[Path]]:
    """Build a profiler from ``REPRO_PROFILE``/``REPRO_PROFILE_HZ``.

    ``REPRO_PROFILE`` unset, empty, or ``0`` disables profiling and
    returns ``(None, None)``. ``1`` enables it with no output file; any
    other value is treated as the collapsed-stack output path. The
    caller starts/stops the profiler and writes the file.
    """
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_PROFILE", "").strip()
    if raw in ("", "0"):
        return None, None
    hz_raw = env.get("REPRO_PROFILE_HZ", "").strip()
    try:
        hz = float(hz_raw) if hz_raw else _DEFAULT_HZ
    except ValueError:
        raise ProfilerError(
            f"REPRO_PROFILE_HZ is not a number: {hz_raw!r}"
        ) from None
    profiler = SamplingProfiler(hz=hz)
    output = None if raw == "1" else Path(raw)
    return profiler, output
