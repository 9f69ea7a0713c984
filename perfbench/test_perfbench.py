"""Self-tests of the benchmark code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, SpanRecorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- seeded inputs -------------------------------------------------------
def _edges(graph):
    return sorted(
        (str(e.u), str(e.v), e.edge_type, e.weight) for e in graph.edges
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_graph_is_a_fixed_dataset_and_config_follows_the_seed(name):
    spec = workloads.smoke(workloads.WORKLOADS[name]).fit
    first, labels = workloads.make_graph(spec)
    again, labels_again = workloads.make_graph(spec)
    assert _edges(first) == _edges(again)
    assert labels == labels_again
    assert workloads.make_config(spec, 3) == workloads.make_config(spec, 3)
    assert workloads.make_config(spec, 3).seed == 3
    assert workloads.make_config(spec, 4) != workloads.make_config(spec, 3)


def test_catalog_table_is_a_function_of_the_seed():
    a = workloads.catalog_table(500, 8, 4, seed=1)
    assert a.dtype == np.float32 and a.shape == (500, 8)
    assert np.array_equal(a, workloads.catalog_table(500, 8, 4, seed=1))
    assert not np.array_equal(a, workloads.catalog_table(500, 8, 4, seed=2))


def test_request_schedule_is_a_function_of_the_seed():
    serve = workloads.WORKLOADS["serve-mixed"].serve
    a = workloads.request_schedule(5, 100.0, 2.0, 1000, serve)
    b = workloads.request_schedule(5, 100.0, 2.0, 1000, serve)
    c = workloads.request_schedule(6, 100.0, 2.0, 1000, serve)
    for field in ("due", "is_link", "topk_rows", "link_rows", "spot"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.topk_rows, c.topk_rows)
    assert a.due.size == 200 and a.is_link.sum() == 100
    assert np.all(np.diff(a.due) > 0)
    assert not np.any(a.spot & ~a.is_link)


def test_serial_fits_take_the_cpus_in_turn():
    allowed = os.sched_getaffinity(0)
    seen = []
    for i in range(2 * len(allowed)):
        with workloads._on_cpu(i, serial=True):
            seen.append(os.sched_getaffinity(0))
    assert os.sched_getaffinity(0) == allowed
    if len(allowed) > 1:
        assert all(len(cpus) == 1 for cpus in seen)
        assert seen[: len(allowed)] == seen[len(allowed):]
        assert set().union(*seen) == allowed
    with workloads._on_cpu(0, serial=False):
        assert os.sched_getaffinity(0) == allowed


# -- span arithmetic -----------------------------------------------------
def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, thread=0, request=None)


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0
    assert tracing.union_length([(3, 4), (0, 10)]) == 10.0


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 3.0, parent=0),
        _span(2, "b", 2.0, 5.0, parent=0),  # overlaps a (another thread)
        _span(3, "c", 8.0, 12.0, parent=0),  # sticks out: clipped at 10
        _span(4, "d", 1.5, 2.0, parent=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_layer_metrics_split_a_synthetic_fit():
    rec = SpanRecorder()
    rec.spans = [
        _span(0, "loop.fit", 0.0, 10.0),
        _span(1, "pipeline.epoch", 0.0, 2.0, parent=0),
        _span(2, "walks.build_corpus", 0.5, 1.5, parent=1),
        _span(3, "skipgram.train_batch", 2.0, 9.0, parent=0),
        _span(4, "optim.row_sgd", 3.0, 5.0, parent=3),
        _span(5, "optim.row_sgd", 6.0, 8.0, parent=3),
    ]
    rec.counts.update({"walks.steps": 50.0, "skipgram.pairs": 700.0})
    m = tracing.layer_metrics(rec)
    assert m["walks.busy_s"] == pytest.approx(1.0)
    assert m["walks.steps_per_s"] == pytest.approx(50.0)
    assert m["pipeline.busy_s"] == pytest.approx(1.0)
    assert m["skipgram.busy_s"] == pytest.approx(3.0)
    assert m["skipgram.calls"] == 1
    assert m["skipgram.pairs_per_s"] == pytest.approx(100.0)
    assert m["optim.row_sgd.busy_s"] == pytest.approx(4.0)
    assert m["optim.row_sgd.calls"] == 2
    cover = tracing.coverage(
        rec.spans, rec.spans[0], {"walks", "pipeline", "skipgram"}, 10.0
    )
    assert cover == pytest.approx(0.9)


def test_pool_thread_spans_hang_under_the_open_anchor():
    rec = SpanRecorder()
    seen = []

    def pair_epoch():
        with rec.span("cross_view.train_epoch"):
            with rec.span("cross_view.forward"):
                pass
        seen.append(True)

    with rec.span("parallel.train_pairs", anchor=True):
        workers = [threading.Thread(target=pair_epoch) for _ in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in workers) and len(seen) == 2
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (wave,) = by_name["parallel.train_pairs"]
    assert all(s.parent == wave.id for s in by_name["cross_view.train_epoch"])
    epochs = {s.id for s in by_name["cross_view.train_epoch"]}
    assert all(s.parent in epochs for s in by_name["cross_view.forward"])
    m = tracing.layer_metrics(rec)
    assert m["parallel.pair_overlap"] > 0


def test_traced_generator_spans_each_next_and_forwards_close():
    rec = SpanRecorder()
    closed = []

    def blocks():
        try:
            yield from (1, 2, 3)
        finally:
            closed.append(True)

    traced = tracing._wrap_gen(rec, "walks.stream_corpus", blocks)()
    assert [next(traced), next(traced)] == [1, 2]
    traced.close()
    assert closed == [True]
    assert len(rec.spans) == 2 and rec._stack() == []
    assert list(tracing._wrap_gen(rec, "g", blocks)()) == [1, 2, 3]
    assert len(rec.spans) == 2 + 4  # three items and the StopIteration


def test_install_patches_and_restores_every_entry_point():
    import repro.core.single_view as single_view
    import repro.nn.optim as optim

    before = (single_view.build_corpus, optim.RowSGD.__dict__["update"])
    uninstall = tracing.install(SpanRecorder())
    try:
        assert single_view.build_corpus is not before[0]
        assert optim.RowSGD.__dict__["update"] is not before[1]
    finally:
        uninstall()
    assert (single_view.build_corpus, optim.RowSGD.__dict__["update"]) == before


# -- compare mode --------------------------------------------------------
def _records(path, workload, values):
    with open(path, "w") as fh:
        for v in values:
            fh.write(json.dumps({
                "context": {"workload": workload, "trace": False},
                "result": {"metrics": {"fit_s": {"value": v, "unit": "s"}}},
            }) + "\n")


def test_compare_verdicts(tmp_path):
    spec = {"end_to_end": [
        {"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.1}
    ]}
    a, same, worse, noisy = (tmp_path / n for n in "a b c d".split())
    _records(a, "w", [10.0, 10.1, 9.9, 10.0, 10.05])
    _records(same, "w", [10.2, 10.1, 10.3, 10.2, 10.25])
    _records(worse, "w", [12.0, 12.1, 11.9, 12.0, 12.05])
    _records(noisy, "w", [8.0, 12.0, 9.0, 13.0, 10.0])
    verdicts = [
        compare.compare(a, b, spec)[0]["verdict"] for b in (same, worse, noisy)
    ]
    assert verdicts == ["same", "worse", "unresolved"]
    (row,) = compare.compare(a, worse, spec)
    assert row["delta"] == pytest.approx(0.2)
    assert "worse" in compare.format_rows([row])[1]


# -- end to end ----------------------------------------------------------
def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_declared_metric(name, trace, tmp_path):
    proc = _run([
        "--workload", name, "--seed", "1", "--seconds", "1",
        "--scale", "smoke", "--trace", str(trace),
        "--trace-out", str(tmp_path / "spans.json"),
    ])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        assert f"  {metric['name']} " in proc.stdout  # printed by name
    if trace:
        spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
        assert spans and {"id", "name", "start", "end", "parent", "thread",
                          "request"} <= set(spans[0])
    else:
        assert all(
            result["metrics"][m["name"]]["value"] > 0 for m in declared
        )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(
        ["--workload", "fit-sgns", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
