"""Measurement helpers shared by the workload phases.

Quantiles, the operation tally, the span recorder of traced runs, the
derived metrics, the answer check, and the memory and leak probes.
Nothing here imports the program under test.
"""

from __future__ import annotations

import json
import os
import resource
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Relative and absolute tolerance when comparing a distance with its
#: reference (the program and the references add the same edge weights,
#: possibly in another order).
DIST_TOL = 1e-9

#: How far (as a share of ``build_s``) the traced build layers may sum
#: away from the untraced ``PLLIndex.build`` wall of the same run.  The
#: host drifts by up to ~20% over a few seconds, so the two medians are
#: only comparable to about this precision.
BUILD_LAYER_TOLERANCE = 0.25

#: How far (as a share of the update latency) insert + refinalize + read
#: may sum away from the untraced update latency of the same steps.
UPDATE_LAYER_TOLERANCE = 0.15


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile ``q`` in [0, 1] of a non-empty sample."""
    if len(values) == 0:
        raise ValueError("quantile of an empty sample")
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def add(self, attempted: int, failed: int, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(what)

    def record(self, ok: bool, what: str = "") -> None:
        """One operation, failed unless *ok*."""
        self.add(1, 0 if ok else 1, what)

    def fail(self, what: str) -> None:
        self.record(False, what)


def count_mismatches(got: Sequence[float], want: Sequence[float]) -> int:
    """Number of positions where *got* differs from *want* (``inf`` == ``inf``)."""
    got_a = np.asarray(got, dtype=np.float64)
    want_a = np.asarray(want, dtype=np.float64)
    if got_a.shape != want_a.shape:
        return max(len(got_a), len(want_a))
    ok = np.isclose(got_a, want_a, rtol=DIST_TOL, atol=DIST_TOL)
    return int(len(ok) - np.count_nonzero(ok))


# ----------------------------------------------------------------------
# Derived metrics (documented in README.md, tested in test_perfbench.py)
# ----------------------------------------------------------------------
def procs_overhead_s(p1_s: float, build_s: float) -> float:
    """``parallel.procs.overhead_s``: what one procs worker adds to serial.

    p=1 procs commits label-for-label what the serial build commits, so
    the difference is fork, per-root pipe round trips, parent commit and
    mirror sync.
    """
    return p1_s - build_s


def batch_overhead_pair_us(served_pair_us: float, oracle_pair_us: float) -> float:
    """``service.server.batch_overhead_pair_us``: served batch minus ``oracle.batch``."""
    return served_pair_us - oracle_pair_us


def nagle_wait_us(default_p50_us: float, tuned_p50_us: float) -> float:
    """``service.server.nagle_wait_us``: open-loop p50 of a default client
    minus that of a client that acknowledges every answer at once."""
    return default_p50_us - tuned_p50_us


def residual_share(total: float, parts: Iterable[float]) -> float:
    """Share of *total* that the *parts* leave unexplained (negative: they exceed it)."""
    return (total - sum(parts)) / total


def worker_share(roots_per_worker: Sequence[float]) -> float:
    """``parallel.procs.max_worker_share``: the busiest worker's share of roots."""
    total = sum(roots_per_worker)
    return max(roots_per_worker) / total if total else 0.0


# ----------------------------------------------------------------------
# Spans of traced runs
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans ``(id, parent, name, start, end, attrs)``.

    Spans are recorded by the benchmark around calls into the program's
    public functions; the program itself is not instrumented.  Times are
    ``time.perf_counter`` seconds.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float, Dict]] = []

    def add(
        self, name: str, start: float, end: float,
        parent: Optional[int] = None, **attrs: object,
    ) -> int:
        span_id = len(self.spans)
        self.spans.append((span_id, parent, name, start, end, attrs))
        return span_id

    def close(self, span_id: int) -> None:
        """End an open span (added with ``end == start``) now."""
        _i, parent, name, start, _e, attrs = self.spans[span_id]
        self.spans[span_id] = (span_id, parent, name, start, time.perf_counter(), attrs)

    def total(self, name: str, parent: Optional[int] = None) -> float:
        """Summed duration of the spans called *name* (under *parent*)."""
        return sum(
            end - start
            for _id, par, nm, start, end, _a in self.spans
            if nm == name and (parent is None or par == parent)
        )

    def dump(self, path: str, summary: Dict[str, object]) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "summary": summary,
                    "spans": [
                        {"id": i, "parent": p, "name": n, "start": s,
                         "end": e, "attrs": a}
                        for i, p, n, s, e, a in self.spans
                    ],
                },
                fh,
            )


# ----------------------------------------------------------------------
# Memory and leak probes
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def shm_segments() -> set:
    """Names of the POSIX shared-memory segments currently present."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def live_children() -> List[int]:
    """Pids whose parent is this process (running or unreaped)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _stop_resource_tracker() -> None:
    """Stop the stdlib's shared-memory resource tracker, if it was started.

    ``multiprocessing.shared_memory`` starts this helper process on first
    use and leaves it running until the interpreter exits.  It is not the
    program's to stop, so the benchmark stops it before looking for
    children the program left behind.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def check_leaks(shm_before: set, tally: Tally, grace_s: float = 2.0) -> None:
    """Count a leftover child process or new shm segment as a failure."""
    deadline = time.monotonic() + grace_s
    while True:
        segments = shm_segments() - shm_before
        if not segments or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    tally.record(not segments, f"shm segments left behind: {sorted(segments)}")
    _stop_resource_tracker()
    while True:
        children = live_children()
        if not children or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    tally.record(not children, f"child processes left alive: {children}")
