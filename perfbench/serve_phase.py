"""Serve phase: a ``parapll serve --mmap`` subprocess driven over TCP.

Each step is one slice of each of three traffic shapes, in turn:

* open loop: ``OPEN_SLICE`` Zipf point ``distance`` requests with
  Poisson arrivals at ``OPEN_RATE``, sent on a new connection by a
  sender thread, answers read by the main thread; latency runs from each
  request's due time to its answer;
* closed loop: the same Zipf stream over ``CLOSED_CONNECTIONS``
  connection(s), each waiting for its answer before sending the next
  request;
* batch: closed-loop ``batch`` requests of 256 uniform pairs on one
  connection.

Throughput is the median over closed-loop slices and the batch cost the
median over requests, so a one-off stall of the shared host moves one
sample, not the run.  Every answer is compared with the in-process
``distance_batch`` of the same index.
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from hostspeed import SteadyHost, Timings
from measure import (
    Tally, batch_overhead_pair_us, count_mismatches, median, nagle_wait_us, quantile)
from repro.core.index import PLLIndex
from repro.service.oracle import DistanceOracle

pc = time.perf_counter

#: Open-loop mean request rate (requests/s), with Poisson arrivals.
OPEN_RATE = 1000.0
#: Requests per open-loop slice (each on a new connection).
OPEN_SLICE = 500
#: Closed-loop and batch slice lengths (s).
CLOSED_SLICE_S = 0.5
BATCH_SLICE_S = 0.6
#: One closed-loop client: with two, two client threads and the server
#: shared the 2 vCPUs and the rate measured the scheduler (it spread
#: 0.29 over 9 runs).
CLOSED_CONNECTIONS = 1
MIN_STEPS = 3


def _decode(value) -> float:
    return float("inf") if value == "inf" else float(value)


class Connection:
    """One line-JSON client connection.

    By default the client sets no socket options, like the repo's own
    ``DistanceClient``, and sees what a caller of the server sees.  The
    server keeps Nagle's algorithm on: an answer written while the
    previous one is still unacknowledged waits for the client's delayed
    ACK, which rides on its next request.  A *quickack* client sets
    ``TCP_NODELAY`` and acknowledges every answer at once
    (``TCP_QUICKACK``, re-armed after each read), so an answer waits
    only while the previous one is still in flight; the traced run uses
    one to measure what the wait costs.
    """

    def __init__(self, port: int, timeout: float = 30.0, quickack: bool = False) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.quickack = quickack
        if quickack:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._ack_now()
        self.rfile = self.sock.makefile("rb")

    def _ack_now(self) -> None:
        if self.quickack:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def recv(self) -> Dict:
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        self._ack_now()
        return json.loads(line)

    def call(self, request: Dict) -> Dict:
        self.send(json.dumps(request).encode() + b"\n")
        return self.recv()

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Server:
    """The ``parapll serve`` subprocess over a saved ``dir`` bundle."""

    def __init__(self, root: str, index_dir: str, log_path: str) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--index", index_dir,
             "--mmap", "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        self.port = self._read_port(timeout=60.0)

    def _read_port(self, timeout: float) -> int:
        ready, _w, _x = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "serving" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def ping(self, timeout: float = 30.0) -> None:
        """First ``ping`` round trip (part of set-up)."""
        conn = Connection(self.port, timeout=timeout)
        try:
            if not conn.call({"op": "ping"}).get("pong"):
                raise RuntimeError("server did not answer ping")
        finally:
            conn.close()

    def stop(self) -> bool:
        """SIGTERM and wait; True when the server exited on its own."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                clean = False
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return clean


def _point_lines(pairs: np.ndarray) -> List[bytes]:
    return [
        b'{"op":"distance","s":%d,"t":%d}\n' % (s, t) for s, t in pairs.tolist()
    ]


def open_loop(port: int, lines: Sequence[bytes], first: int, gaps: Sequence[float],
              quickack: bool = False):
    """Send ``lines[first:first + len(gaps)]`` on one connection, request
    ``i`` due ``sum(gaps[:i + 1])`` seconds after the start.

    Returns (latency, lateness, replies): seconds from each request's due
    time to its answer and to its send, and ``{request index: reply}``
    (``None`` for requests left unanswered).
    """
    count = len(gaps)
    conn = Connection(port, quickack=quickack)
    due = (pc() + 0.01 + np.cumsum(gaps)).tolist()
    late = [0.0] * count

    def sender() -> None:
        try:
            for i in range(count):
                wait = due[i] - pc()
                if wait > 0:
                    time.sleep(wait)
                conn.send(lines[(first + i) % len(lines)])
                late[i] = pc() - due[i]
        except OSError:
            pass  # the unanswered requests are counted as failures

    thread = threading.Thread(target=sender, name="perfbench-open-loop")
    thread.start()
    latency: List[float] = []
    replies: Dict[int, Optional[Dict]] = dict.fromkeys(range(first, first + count))
    try:
        for i in range(count):
            reply = conn.recv()
            latency.append(pc() - due[i])
            replies[first + i] = reply
    except (OSError, ValueError):
        pass
    finally:
        thread.join()
        conn.close()
    return latency, late, replies


def closed_loop(port: int, lines: Sequence[bytes], first: int, seconds: float):
    """Closed loop over ``CLOSED_CONNECTIONS`` connections for *seconds*.

    Connection ``k`` sends ``lines[first + k], lines[first + k + C], ...``.
    Returns (elapsed, {request index: reply}).
    """
    replies: Dict[int, Optional[Dict]] = {}
    lock = threading.Lock()
    end = pc() + seconds

    def client(k: int) -> None:
        conn = Connection(port)
        mine: Dict[int, Optional[Dict]] = {}
        i = first + k
        try:
            while pc() < end:
                conn.send(lines[i % len(lines)])
                mine[i] = None
                mine[i] = conn.recv()
                i += CLOSED_CONNECTIONS
        except (OSError, ValueError):
            pass
        finally:
            conn.close()
            with lock:
                replies.update(mine)

    t0 = pc()
    threads = [
        threading.Thread(target=client, args=(k,), name=f"perfbench-closed-{k}")
        for k in range(CLOSED_CONNECTIONS)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return pc() - t0, replies


def batch_loop(port: int, batches: np.ndarray, first: int, seconds: float):
    """Closed-loop ``batch`` requests for *seconds*; returns [(index, wall, reply)]."""
    conn = Connection(port)
    done: List[Tuple[int, float, Optional[Dict]]] = []
    end = pc() + seconds
    i = first
    try:
        while pc() < end:
            batch = batches[i % len(batches)]
            t0 = pc()
            done.append((i, 0.0, None))
            reply = conn.call({"op": "batch", "pairs": batch.tolist()})
            done[-1] = (i, pc() - t0, reply)
            i += 1
    except (OSError, ValueError):
        pass
    finally:
        conn.close()
    return done


def _check_points(
    index, pairs: np.ndarray, replies: Dict[int, Optional[Dict]],
    tally: Tally, what: str,
) -> None:
    """Failed, shed or missing replies and wrong distances are failures."""
    good = [i for i, r in replies.items() if r is not None and r.get("ok")]
    wrong = 0
    if good:
        got = [_decode(replies[i]["distance"]) for i in good]
        want = index.distance_batch(pairs[np.asarray(good, dtype=np.int64) % len(pairs)])
        wrong = count_mismatches(got, want)
    tally.add(
        len(replies), len(replies) - len(good) + wrong,
        f"{what}: {len(replies) - len(good)} requests failed, shed or "
        f"unanswered; {wrong} served distances wrong",
    )


class ServePhase:
    def __init__(self, server: Server, index, pairs: np.ndarray, gaps: np.ndarray,
                 batches: np.ndarray, tally: Tally, host=None) -> None:
        self.server = server
        self.index = index
        self.pairs = pairs
        self.lines = _point_lines(pairs)
        self.gaps = gaps
        self.batches = batches
        self.tally = tally
        self.host = host or SteadyHost()
        self.next_point = 0
        self.next_gap = 0
        self.next_batch = 0
        # Open-loop latency and the closed-loop rate are kept as
        # measured: they are mostly waiting (the server's Nagle wait for
        # the next arrival; cross-process wake-ups), which the host's
        # speed does not scale.  Only the server's batch work is scaled.
        self.latency: List[float] = []
        self.late: List[float] = []
        self.steps = 0
        self.slice_rps: List[float] = []
        self.batch_pair = Timings()

    def ready(self) -> bool:
        return self.steps >= MIN_STEPS

    def _next_gaps(self) -> np.ndarray:
        first, self.next_gap = self.next_gap, self.next_gap + OPEN_SLICE
        return np.take(self.gaps, np.arange(first, self.next_gap), mode="wrap")

    def step(self) -> None:
        """One slice of each traffic shape; the batch slice between two
        host probes."""
        port = self.server.port
        # The load generator's own garbage collections would stall every
        # request in flight; collect now and keep the collector off while
        # the client runs (the server process is untouched).
        gc.collect()
        gc.disable()
        try:
            latency, late, open_replies = open_loop(
                port, self.lines, self.next_point, self._next_gaps())
            self.next_point += OPEN_SLICE
            elapsed, closed_replies = closed_loop(
                port, self.lines, self.next_point, CLOSED_SLICE_S)
            self.next_point = max(closed_replies, default=self.next_point) + 1
            before = self.host.probe()
            batch_replies = batch_loop(
                port, self.batches, self.next_batch, BATCH_SLICE_S)
            self.next_batch += len(batch_replies)
            batch_f = (before + self.host.probe()) / 2
        finally:
            gc.enable()

        _check_points(self.index, self.pairs, open_replies, self.tally, "open-loop distance")
        _check_points(self.index, self.pairs, closed_replies, self.tally, "closed-loop distance")
        self.steps += 1
        self.latency.extend(latency)
        self.late.extend(late)
        answered = sum(1 for r in closed_replies.values() if r is not None and r.get("ok"))
        self.slice_rps.append(answered / elapsed)
        for i, wall, reply in batch_replies:
            batch = self.batches[i % len(self.batches)]
            if reply is None or not reply.get("ok"):
                self.tally.fail(f"batch request {i} failed or was shed")
                continue
            got = [_decode(d) for d in reply["distances"]]
            wrong = count_mismatches(got, self.index.distance_batch(batch))
            self.tally.record(wrong == 0, f"batch {i}: {wrong} served distances are wrong")
            self.batch_pair.add(wall / len(batch), batch_f)

    def metrics(self, normalized: bool = True) -> Dict[str, float]:
        return {
            "batch_pair_us": median(self.batch_pair.get(normalized)) * 1e6,
        }

    def layer_metrics(self, index_dir: str) -> Dict[str, float]:
        """Traced run: the served paths' layers and in-process counterparts.

        The in-process times and the batch overhead are at reference host
        speed; open-loop latency, closed-loop rate, ping, quick-ACK
        latency, Nagle wait and generator lateness are mostly waiting and
        stay as measured.
        """
        port = self.server.port
        out = {
            "service.server.open_loop_p50_us": median(self.latency) * 1e6,
            "service.server.open_loop_p90_us": quantile(self.latency, 0.90) * 1e6,
            "service.server.closed_loop_rps": median(self.slice_rps),
            "service.oracle.cache_hit_rate": server_stats(port)["hit_rate"],
            "service.server.ping_us": ping_us(port),
            "loadgen.late_p99_us": quantile(self.late, 0.99) * 1e6,
        }
        # Two more open-loop slices from a client that acknowledges at
        # once, which never meets the server's Nagle wait.
        latency: List[float] = []
        for _ in range(2):
            part, _late, replies = open_loop(
                port, self.lines, self.next_point, self._next_gaps(), quickack=True)
            self.next_point += OPEN_SLICE
            latency.extend(part)
            _check_points(self.index, self.pairs, replies, self.tally, "quick-ACK distance")
        out["service.server.quickack_p50_us"] = median(latency) * 1e6
        out["service.server.nagle_wait_us"] = nagle_wait_us(
            median(self.latency) * 1e6, out["service.server.quickack_p50_us"])
        before = self.host.probe()
        local = in_process(
            index_dir, self.pairs, self.batches,
            count=min(len(self.latency), 20000),
            batch_count=min(self.next_batch, 200))
        factor = (before + self.host.probe()) / 2
        out.update({name: value / factor for name, value in local.items()})
        out["service.server.batch_overhead_pair_us"] = batch_overhead_pair_us(
            median(self.batch_pair.get(True)) * 1e6, out["service.oracle.batch_pair_us"])
        return out


def ping_us(port: int, count: int = 200) -> float:
    """Median ``ping`` round trip: transport and JSON, no oracle."""
    conn = Connection(port)
    samples = []
    try:
        for _ in range(count):
            t0 = pc()
            conn.call({"op": "ping"})
            samples.append((pc() - t0) * 1e6)
    finally:
        conn.close()
    return median(samples)


def server_stats(port: int) -> Dict:
    conn = Connection(port)
    try:
        return conn.call({"op": "stats"})
    finally:
        conn.close()


def in_process(index_dir: str, pairs: np.ndarray, batches: np.ndarray,
               count: int, batch_count: int) -> Dict[str, float]:
    """The served paths' in-process counterparts, on the same streams."""
    loads = []
    for _ in range(5):
        t0 = pc()
        index = PLLIndex.load(index_dir, mmap=True)
        loads.append(pc() - t0)
    points = pairs[:count].tolist()

    def per_call_us(fn) -> float:
        samples = []
        for s, t in points:
            t0 = pc()
            fn(s, t)
            samples.append(pc() - t0)
        return median(samples) * 1e6

    oracle = DistanceOracle(index)
    oracle_us = per_call_us(oracle.distance)
    core_us = per_call_us(index.distance)

    chosen = batches[:batch_count]
    oracle = DistanceOracle(index)
    t0 = pc()
    for batch in chosen:
        oracle.batch([tuple(p) for p in batch.tolist()])
    oracle_pair = (pc() - t0) * 1e6 / chosen[:, :, 0].size
    t0 = pc()
    for batch in chosen:
        index.distance_batch(batch)
    core_pair = (pc() - t0) * 1e6 / chosen[:, :, 0].size
    return {
        "io.load_s": median(loads),
        "service.oracle.distance_us": oracle_us,
        "core.query.distance_us": core_us,
        "service.oracle.batch_pair_us": oracle_pair,
        "core.query.batch_pair_us": core_pair,
    }
