"""The flight recorder: last-N structured events, dumped on failure.

Metrics answer "how much"; traces answer "where did the time go" when
someone turned tracing on *before* the run.  The flight recorder
answers the post-mortem question — *what was this process doing right
before it died* — without any opt-in: a per-process ring buffer of the
last :data:`DEFAULT_CAPACITY` structured events (task grabs, label
commits, sync rounds, slow queries, failures) that instrumented code
appends to unconditionally, and that gets dumped to JSONL when things
go wrong.

Dump triggers:

* worker failures in :func:`repro.parallel.threads.build_parallel_threads`
  and rank failures in :func:`repro.cluster.threadcomm.run_ranks`
  (via :func:`auto_dump`, honouring ``PARAPLL_FLIGHTREC_DIR``);
* ``SIGUSR1``, after :func:`install_signal_handler`;
* on demand: the server's ``debug`` op and ``parapll flightrec dump``.

Lock-freedom matters here: the recorder is written from worker threads,
exception handlers and a signal handler, so :meth:`FlightRecorder.record`
uses only GIL-atomic operations (``deque.append`` with ``maxlen``, an
``itertools.count`` sequence) — it can never deadlock the thread it is
observing.

Dump format (``parapll-flightrec/1``): one JSON object per line.  The
first line is a header ``{"kind": "header", "schema":
"parapll-flightrec/1", "pid", "reason", "events", "capacity",
"dumped_at"}``; every following line is one event ``{"seq", "ts",
"mono", "kind", "thread", "attrs"}``, oldest first (``seq`` is a
process-wide monotone sequence number, ``ts`` unix seconds, ``mono``
the monotonic clock).
"""

from __future__ import annotations

import itertools
import logging
import os
import threading
import time
from collections import deque
from typing import IO, Any, Dict, List, Optional, Union

from repro.obs import export as _export

__all__ = [
    "FLIGHTREC_SCHEMA",
    "DEFAULT_CAPACITY",
    "ENV_DIR",
    "FlightRecorder",
    "get_recorder",
    "record",
    "auto_dump",
    "dump_events",
    "install_signal_handler",
]

FLIGHTREC_SCHEMA = "parapll-flightrec/1"
DEFAULT_CAPACITY = 512

#: Directory for automatic failure dumps; auto-dumping is disabled when
#: the variable is unset (the in-memory buffer stays queryable).
ENV_DIR = "PARAPLL_FLIGHTREC_DIR"

logger = logging.getLogger("repro.obs.flightrec")


class FlightRecorder:
    """A bounded ring buffer of structured events.

    Args:
        capacity: how many events to retain (oldest evicted first).

    Thread- and signal-safe by construction: appends use only
    GIL-atomic operations, no locks.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._events: deque = deque(maxlen=capacity)
        self._seq = itertools.count(1)

    @property
    def capacity(self) -> int:
        """Ring-buffer size."""
        return self._events.maxlen or 0

    def set_capacity(self, capacity: int) -> None:
        """Resize the buffer, keeping the newest events."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if capacity != self.capacity:
            self._events = deque(self._events, maxlen=capacity)

    # ------------------------------------------------------------------
    def record(self, kind: str, **attrs: Any) -> None:
        """Append one event; *attrs* must be JSON-safe."""
        self._events.append(
            {
                "seq": next(self._seq),
                "ts": time.time(),
                "mono": time.monotonic(),
                "kind": kind,
                "thread": threading.current_thread().name,
                "attrs": attrs,
            }
        )

    def snapshot(self, last: Optional[int] = None) -> List[Dict[str, Any]]:
        """A copy of the buffered events, oldest first.

        Args:
            last: return only the newest *last* events when given.
        """
        events = list(self._events)
        if last is not None and last >= 0:
            events = events[-last:] if last else []
        return events

    def clear(self) -> None:
        """Drop all buffered events."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    def dump(
        self,
        path_or_file: Union[str, os.PathLike, IO[str]],
        reason: str = "manual",
    ) -> int:
        """Write header + events as JSONL; returns the event count."""
        return dump_events(
            self.snapshot(),
            path_or_file,
            reason=reason,
            pid=os.getpid(),
            capacity=self.capacity,
        )


def dump_events(
    events: List[Dict[str, Any]],
    path_or_file: Union[str, os.PathLike, IO[str]],
    reason: str = "manual",
    pid: Optional[int] = None,
    capacity: Optional[int] = None,
) -> int:
    """Write any event list in the ``parapll-flightrec/1`` dump format.

    Used by :meth:`FlightRecorder.dump` and by ``parapll flightrec
    dump`` when the events came over the wire from another process's
    recorder (the server's ``debug`` op).
    """
    return _export.write_jsonl(
        path_or_file,
        FLIGHTREC_SCHEMA,
        events,
        pid=pid,
        reason=reason,
        events=len(events),
        capacity=capacity,
    )


_global_recorder = FlightRecorder()
_dump_ids = itertools.count(1)


def get_recorder() -> FlightRecorder:
    """The process-wide flight recorder."""
    return _global_recorder


def record(kind: str, **attrs: Any) -> None:
    """Append one event to the process-wide recorder."""
    _global_recorder.record(kind, **attrs)


def auto_dump(
    reason: str, directory: Optional[str] = None
) -> Optional[str]:
    """Dump the recorder on a failure path; returns the path written.

    The target directory is *directory* or ``$PARAPLL_FLIGHTREC_DIR``;
    when neither is set the dump is skipped (returns ``None``) so
    library users never find surprise files in their working tree.
    Write errors are logged, never raised — a dump must not mask the
    failure that triggered it.
    """
    directory = directory or os.environ.get(ENV_DIR)
    if not directory:
        return None
    path = os.path.join(
        directory,
        f"flightrec-{os.getpid()}-{reason}-{next(_dump_ids)}.jsonl",
    )
    try:
        os.makedirs(directory, exist_ok=True)
        _global_recorder.dump(path, reason=reason)
    except OSError as exc:
        logger.warning("flight-recorder dump to %s failed: %s", path, exc)
        return None
    return path


def install_signal_handler(signum: Optional[int] = None) -> bool:
    """Dump the recorder on ``SIGUSR1`` (or *signum*); returns success.

    The dump goes to ``$PARAPLL_FLIGHTREC_DIR``, falling back to the
    current working directory.  Returns ``False`` on platforms without
    the signal or outside the main thread (where CPython forbids
    ``signal.signal``).
    """
    import signal as _signal

    if signum is None:
        signum = getattr(_signal, "SIGUSR1", None)
        if signum is None:  # pragma: no cover - windows
            return False

    def _handler(_signum: int, _frame: Any) -> None:
        path = auto_dump(
            "sigusr1", directory=os.environ.get(ENV_DIR) or os.getcwd()
        )
        if path:
            logger.info("flight recorder dumped to %s", path)

    try:
        _signal.signal(signum, _handler)
    except ValueError:  # pragma: no cover - non-main thread
        return False
    return True
