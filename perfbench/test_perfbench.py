"""Tests of the benchmark itself: inputs, failure counting, derived metrics.

    python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import build_phase  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import serve_phase  # noqa: E402
import update_phase  # noqa: E402
from repro.core.index import PLLIndex  # noqa: E402
from repro.generators.paper import load_dataset  # noqa: E402

INF = float("inf")


@pytest.fixture(scope="module")
def small():
    graph = load_dataset("Gnutella", scale=0.2)
    return graph, PLLIndex.build(graph)


class WrongIndex:
    """Answers like *index*, except the first pair of every batch is off by one."""

    def __init__(self, index: PLLIndex) -> None:
        self.index = index

    def distance_batch(self, pairs):
        out = np.array(self.index.distance_batch(pairs), dtype=np.float64)
        out[0] += 1.0
        return out


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(inputs.GRAPHS))
def test_same_seed_same_graph(kind):
    a, b = inputs.make_graph(kind, 7), inputs.make_graph(kind, 7)
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    other = inputs.make_graph(kind, 8)
    assert not np.array_equal(a.indices, other.indices)


def test_same_seed_same_streams(small):
    graph, _index = small
    n = graph.num_vertices

    def streams(seed):
        return (
            inputs.check_sources(n, seed),
            inputs.point_requests(n, seed, 500),
            inputs.arrival_gaps(seed, 20, 1000.0),
            inputs.uniform_batches(n, seed, 3),
            inputs.read_pairs(n, seed, 50),
            inputs.insert_plan(graph, seed, 0, 10),
            inputs.insert_plan(graph, seed, 1, 10),
        )

    first, again, other = streams(3), streams(3), streams(4)
    for x, y, z in zip(first, again, other):
        assert np.array_equal(np.asarray(x), np.asarray(y))
        assert not np.array_equal(np.asarray(x), np.asarray(z))


def test_streams_are_valid(small):
    graph, _index = small
    n = graph.num_vertices
    pairs = inputs.point_requests(n, 1, 2000)
    assert pairs.min() >= 0 and pairs.max() < n
    assert np.all(pairs[:, 0] != pairs[:, 1])
    plan = inputs.insert_plan(graph, 1, 0, 20)
    assert len({(min(a, b), max(a, b)) for a, b, _w in plan}) == 20
    for a, b, w in plan:
        assert a != b and not graph.has_edge(a, b) and w in set(graph.weights.tolist())


# ----------------------------------------------------------------------
# Wrong answers are failed operations
# ----------------------------------------------------------------------
def test_count_mismatches():
    assert measure.count_mismatches([1.0, 2.0, INF], [1.0, 2.0, INF]) == 0
    assert measure.count_mismatches([1.0, 2.5, INF], [1.0, 2.0, INF]) == 1
    assert measure.count_mismatches([1.0, 2.0, 3.0], [1.0, 2.0, INF]) == 1
    assert measure.count_mismatches([1.0], [1.0, 2.0]) == 2


def test_wrong_build_answer_is_a_failure(small):
    graph, index = small
    checker = build_phase.Checker(graph, inputs.check_sources(graph.num_vertices, 1))
    tally = measure.Tally()
    checker.check(index, tally, "right")
    assert (tally.attempted, tally.failed) == (1, 0)
    checker.check(WrongIndex(index), tally, "wrong")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "wrong: 1 distances differ" in tally.notes[0]


def test_wrong_or_shed_served_answer_is_a_failure(small):
    graph, index = small
    pairs = inputs.point_requests(graph.num_vertices, 1, 4)
    want = index.distance_batch(pairs)
    replies = {
        0: {"ok": True, "distance": float(want[0])},
        1: {"ok": True, "distance": float(want[1]) + 1.0},  # wrong
        2: {"ok": False, "shed": True},                     # shed
        3: None,                                            # unanswered
    }
    tally = measure.Tally()
    serve_phase._check_points(index, pairs, replies, tally, "served")
    assert (tally.attempted, tally.failed) == (4, 3)


def test_wrong_dynamic_answer_is_a_failure(small):
    graph, index = small
    dyn = update_phase.fresh_dynamic(index)
    a, b, w = inputs.insert_plan(graph, 1, 0, 1)[0]
    dyn.insert_edge(a, b, w)
    tally = measure.Tally()
    update_phase._check_epoch([dyn], [a, b], tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    dyn.store.add(b, 0, -1.0)  # a label entry no Dijkstra would produce
    update_phase._check_epoch([dyn], [a, b], tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_update_phase_counts_every_step(small):
    graph, index = small
    tally = measure.Tally()
    reads = inputs.read_pairs(graph.num_vertices, 1, 100)
    phase = update_phase.UpdatePhase(index, reads, [0], 1, tally, measure.Tracer())
    phase.step()
    steps = len(phase.update)
    assert steps == update_phase.EPOCH_INSERTS == len(phase.layers["insert"])
    assert len(phase.read) == steps * (update_phase.READS_PER_STEP - 1)
    # steps x (insert + reads) in every replay, then one epoch check per
    # copy (the replays and the traced one)
    replays = update_phase.REPLAYS
    assert tally.attempted == replays * steps * (1 + update_phase.READS_PER_STEP) + replays + 1
    assert tally.failed == 0


def test_update_sample_is_fastest_replay(small, monkeypatch):
    graph, index = small
    reads = inputs.read_pairs(graph.num_vertices, 1, 100)
    phase = update_phase.UpdatePhase(index, reads, [0], 1, measure.Tally())
    k = update_phase.EPOCH_INSERTS
    fake = iter([([3.0] * k, [1.0] * k), ([2.0] * k, [4.0] * k)])
    monkeypatch.setattr(update_phase, "REPLAYS", 2)
    monkeypatch.setattr(phase, "_replay", lambda dyn, plan, pairs: next(fake))
    phase.step()
    assert phase.update.values == [2.0] * k and phase.read.values == [1.0] * k
    assert phase.update.factors == [1.0] * k


def test_fastest_replay_is_picked_at_reference_speed():
    timings = hostspeed.Timings()
    # Replay 0 ran 3.0 s on a host 2x slow (1.5 s at reference speed),
    # replay 1 ran 2.0 s at full speed: replay 0 is the faster one.
    update_phase._add_fastest(timings, np.array([[3.0], [2.0]]), np.array([2.0, 1.0]))
    assert (timings.values, timings.factors) == ([3.0], [2.0])
    assert timings.get(True).tolist() == [1.5]


# ----------------------------------------------------------------------
# Derived metrics
# ----------------------------------------------------------------------
def test_derived_metrics():
    assert measure.procs_overhead_s(2.0, 0.75) == pytest.approx(1.25)
    assert measure.batch_overhead_pair_us(88.0, 4.5) == pytest.approx(83.5)
    assert measure.nagle_wait_us(1100.0, 250.0) == pytest.approx(850.0)
    assert measure.residual_share(1.0, [0.5, 0.3]) == pytest.approx(0.2)
    assert measure.residual_share(1.0, [0.6, 0.6]) == pytest.approx(-0.2)
    assert measure.worker_share([3, 1]) == pytest.approx(0.75)
    assert measure.quantile([1, 2, 3, 4, 5], 0.5) == 3
    assert measure.quantile(list(range(101)), 0.99) == pytest.approx(99.0)


def test_timings_scale_to_reference_speed():
    timings = hostspeed.Timings()
    timings.add(3.0, 2.0)
    timings.extend([1.0, 0.5], 1.0)
    assert timings.get(False).tolist() == [3.0, 1.0, 0.5]
    assert timings.get(True).tolist() == [1.5, 1.0, 0.5]


def test_host_factor_is_median_reference_time():
    host = hostspeed.HostSpeed()
    for _ in range(3):
        host.probe()
    assert host.reference.run() == host.entries > 0  # the same work every time
    host.times = [0.02, 0.05, 0.03]
    assert host.factor() == pytest.approx(0.03 / hostspeed.REFERENCE_S)


def test_update_layer_sum_from_raw_samples():
    update = [0.030, 0.031, 0.029]
    layers = {
        "insert": [0.001, 0.002, 0.001],
        "refinalize": [0.027, 0.028, 0.026],
        "read": [0.0005, 0.0005, 0.0005],
        "added": [10, 20, 30],
    }
    tally = measure.Tally()
    metrics, summary = update_phase.layer_metrics(update, layers, tally)
    assert metrics["update.residual_share"] == pytest.approx((0.030 - 0.0285) / 0.030)
    assert metrics["core.labels.refinalize_us"] == pytest.approx(27000.0)
    assert metrics["core.dynamic.entries_added"] == pytest.approx(20.0)
    assert summary["layer_sum_ok"] and tally.failed == 0
    update_phase.layer_metrics([0.060] * 3, layers, tally)  # layers explain half
    assert tally.failed == 1


def test_traced_build_layers_cover_the_build(small):
    graph, index = small
    tracer = measure.Tracer()
    traced, build = build_phase.traced_serial_build(graph, tracer)
    assert traced.store == index.store
    totals = build_phase.search_counts(graph)
    assert totals.labels_added == index.store.total_entries
    children = sum(
        tracer.total(name, build)
        for name in ("graph.order", "core.pruned_dijkstra.init",
                     "core.pruned_dijkstra.run", "core.labels.commit",
                     "core.labels.finalize")
    )
    _i, _p, _n, start, end, _a = tracer.spans[build]
    assert 0 <= end - start - children < 0.5 * (end - start)


class FakePhase:
    """A phase whose steps take *cost* seconds of a fake clock."""

    def __init__(self, clock, cost, min_steps):
        self.clock, self.cost, self.min_steps, self.steps = clock, cost, min_steps, 0

    def ready(self):
        return self.steps >= self.min_steps

    def step(self):
        self.clock[0] += self.cost
        self.steps += 1


def test_schedule_shares_time_and_meets_minimums(monkeypatch):
    import run

    clock = [0.0]
    monkeypatch.setattr(run, "pc", lambda: clock[0])
    big, small_, slow = FakePhase(clock, 1.0, 1), FakePhase(clock, 1.0, 1), FakePhase(clock, 5.0, 3)
    run.schedule([(big, 0.6), (small_, 0.2), (slow, 0.2)], 20.0)
    assert big.steps * 1.0 >= 2 * small_.steps * 1.0  # 0.6 vs 0.2 share
    assert slow.steps == 3  # ran past the budget for its minimum
    assert clock[0] >= 20.0


# ----------------------------------------------------------------------
# The contract: names, and refusal without the program
# ----------------------------------------------------------------------
def test_benchmark_json_names_every_metric_once():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert [w["name"] for w in spec["workloads"]] == list(
        __import__("run").WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "social",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
