#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload social --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from the repository root.  Every workload sets up the same way
(generate its graphs, build the social index serially, save it as a
``dir`` bundle, start ``parapll serve --mmap`` on it, ping it), then
interleaves three phases: builds of the workload's graph, serving the
social index, and dynamic updates of the social index.  The workloads
differ in the build graph and in how the ``--seconds`` budget is shared
among the phases.  See perfbench/README.md.

stdout ends with an ``env`` line, a ``detail`` line and, last, the
result: ``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric of BENCHMARK.json (``--trace 0``) or every per-layer
metric (``--trace 1``).  ``.perfbench_out/`` keeps the result, the
server log and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

pc = time.perf_counter

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    build_graph: str
    #: Shares of ``--seconds`` for the build, serve and update phases.
    shares: Tuple[float, float, float]


WORKLOADS: Dict[str, Workload] = {
    "social": Workload("social", (0.45, 0.3, 0.25)),
    "road": Workload("road", (0.5, 0.25, 0.25)),
}


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_sha(root: str) -> Optional[str]:
    """HEAD of *root*'s own ``.git``, if it has one (a checkout may not)."""
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment() -> Dict[str, object]:
    import numpy

    cores = len(os.sched_getaffinity(0))
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": cores,
        "p2_on_real_cores": cores >= 2,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "loadavg": list(os.getloadavg()),
    }


class Session:
    """Set-up shared by every workload: graphs, social index, server."""

    def __init__(self, workload: Workload, seed: int, scratch: str, log: str,
                 host) -> None:
        from inputs import make_graph
        from repro.core.index import PLLIndex
        from serve_phase import Server

        from hostspeed import Timings

        self.times = Timings()
        self.server = None
        index_dir = os.path.join(scratch, "social.index")
        try:
            for _rep in range(SETUP_REPS):
                if self.server is not None:
                    self.server.stop()
                    self.server = None
                shutil.rmtree(index_dir, ignore_errors=True)
                before = host.probe()
                t0 = time.perf_counter()
                self.social = make_graph("social", seed)
                self.build_graph = (
                    self.social if workload.build_graph == "social"
                    else make_graph(workload.build_graph, seed)
                )
                self.index = PLLIndex.build(self.social)
                self.index.save(index_dir, format="dir")
                self.server = Server(ROOT, index_dir, log)
                self.server.ping()
                secs = time.perf_counter() - t0
                self.times.add(secs, (before + host.probe()) / 2)
        except BaseException:
            if self.server is not None:
                self.server.stop()
            raise
        self.index_dir = index_dir


def schedule(phases: List[Tuple[object, float]], seconds: float) -> None:
    """Interleave phase steps so each gets its share of *seconds*.

    The next step always goes to the phase furthest behind its share, so
    the samples of every metric spread over the whole run and the host's
    drift in speed averages out instead of landing on one phase.  Past
    *seconds*, only phases without their minimum sample count go on.
    """
    spent = [0.0] * len(phases)
    start = pc()
    while True:
        over = pc() - start >= seconds
        pending = [i for i, (phase, _s) in enumerate(phases)
                   if not (over and phase.ready())]
        if not pending:
            return
        i = min(pending, key=lambda j: spent[j] / phases[j][1])
        t0 = pc()
        phases[i][0].step()
        spent[i] += pc() - t0


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    import build_phase
    import inputs
    import serve_phase
    import update_phase
    from hostspeed import HostSpeed
    from measure import (
        Tally, Tracer, check_leaks, median, peak_rss_mb, quantile, shm_segments)

    workload = WORKLOADS[name]
    tally = Tally()
    tracer = Tracer() if traced else None
    shm_before = shm_segments()
    scratch = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tag = f"{name}-s{seed}-trace{int(traced)}"
    host = HostSpeed()
    session = Session(workload, seed, scratch, os.path.join(OUT, f"server-{tag}.log"),
                      host)
    n = session.social.num_vertices
    detail: Dict[str, object] = {"workload": name, "seed": seed, "seconds": seconds}
    metrics: Dict[str, float] = {}
    as_measured: Dict[str, float] = {}
    summary: Dict[str, object] = {}
    try:
        checker = build_phase.Checker(
            session.build_graph,
            inputs.check_sources(session.build_graph.num_vertices, seed))
        builds = build_phase.BuildPhase(
            session.build_graph, checker, tally, tracer, host)
        serve = serve_phase.ServePhase(
            session.server, session.index, inputs.point_requests(n, seed, 200_000),
            inputs.arrival_gaps(seed, 100_000, serve_phase.OPEN_RATE),
            inputs.uniform_batches(n, seed, 4000), tally, host)
        updates = update_phase.UpdatePhase(
            session.index, inputs.read_pairs(n, seed, 100_000),
            inputs.check_sources(n, seed), seed, tally, tracer, host)
        schedule(list(zip((builds, serve, updates), workload.shares)), seconds)
        detail["samples"] = {
            "build_rounds": len(builds.serial),
            "open_loop_requests": len(serve.latency),
            "serve_steps": serve.steps,
            "batch_requests": len(serve.batch_pair),
            "update_inserts": len(updates.update),
            "closed_loop_rps": median(serve.slice_rps),
            "open_loop_us": {
                f"p{round(q * 100)}": quantile(serve.latency, q) * 1e6
                for q in (0.5, 0.9, 0.99)
            },
        }
        if traced:
            metrics.update(builds.metrics())
            summary["build"] = builds.layer_sum_check()
            metrics.update(serve.layer_metrics(session.index_dir))
            layers, summary["update"] = update_phase.layer_metrics(
                updates.update.get(True), updates.layers, tally)
            metrics.update(layers)
        else:
            for normalized, out in ((False, as_measured), (True, metrics)):
                out.update(builds.metrics(normalized))
                out.update(serve.metrics(normalized))
                out.update(updates.metrics(normalized))
                out["setup_s"] = median(session.times.get(normalized))
    finally:
        tally.record(session.server.stop(), "server needed SIGKILL to stop")
        shutil.rmtree(scratch, ignore_errors=True)
    check_leaks(shm_before, tally)
    if not traced:
        metrics["peak_rss_mb"] = as_measured["peak_rss_mb"] = peak_rss_mb()
    detail["setup_s"] = session.times.values
    detail["host"] = {
        "factor": host.factor(),
        "probes": len(host.times),
        "reference_s_q10_q50_q90": [quantile(host.times, q) for q in (0.1, 0.5, 0.9)],
    }
    detail["as_measured"] = as_measured
    detail["failures"] = tally.notes
    if traced:
        tracer.dump(os.path.join(OUT, f"trace-{tag}.json"), summary)
        detail["layer_sums"] = summary
    return tally, metrics, detail


def emit(env, tally, metrics, detail, units, tag) -> None:
    missing = sorted(set(units) - set(metrics))
    if missing:
        tally.fail(f"metrics not measured: {missing}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"env": env, "detail": detail, **result}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure ({SRC}/repro is missing); "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    env = environment()
    tally, metrics, detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    env["loadavg_end"] = list(os.getloadavg())
    units = metric_units("per_layer" if args.trace else "end_to_end")
    emit(env, tally, metrics, detail, units,
         f"{args.workload}-s{args.seed}-trace{args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
