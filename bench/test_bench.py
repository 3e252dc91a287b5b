"""Tests of the benchmark's own arithmetic, tracing and checks.

Run from the repository root:  python3 -m pytest bench -q
"""

import json
import re
import threading
from contextlib import nullcontext

import numpy as np

import run
from spans import (NO_PARENT, SpanTable, Tracer, overlap_time, self_times,
                   union_length)
from workloads import RelaxationOracle

LAYERS = run.load_layers()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def untraced(name):
    return nullcontext()


class SmallOracle(RelaxationOracle):
    ALPHAS = (0.9,)
    REAL_RATES = (-1.0,)
    T_END = 0.5
    SAMPLES = 10


def synthetic(spans):
    """SpanTable from (name, start, end, parent row, thread) tuples."""
    names = sorted({s[0] for s in spans})
    col = list(zip(*spans))
    return SpanTable(
        names=names,
        name=np.array([names.index(n) for n in col[0]]),
        start=np.array(col[1], dtype=float),
        end=np.array(col[2], dtype=float),
        parent=np.array(col[3]),
        thread=np.array(col[4]),
        failed=np.zeros(len(spans), dtype=bool),
    )


def test_union_length_merges_overlapping_intervals():
    assert union_length(np.array([0.0, 1.0, 5.0]),
                        np.array([2.0, 3.0, 6.0])) == 4.0
    assert union_length(np.array([]), np.array([])) == 0.0


def test_self_time_subtracts_children_on_the_same_thread():
    table = synthetic([
        ("op", 0.0, 10.0, NO_PARENT, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 4.0, 5.0, 0, 0),
        ("b", 1.5, 2.0, 1, 0),       # nested in a
    ])
    np.testing.assert_allclose(self_times(table), [7.0, 1.5, 1.0, 0.5])


def test_self_time_merges_children_on_other_threads():
    table = synthetic([
        ("op", 0.0, 10.0, NO_PARENT, 0),
        ("a", 2.0, 6.0, 0, 1),
        ("b", 4.0, 8.0, 0, 2),
        ("a", 9.0, 12.0, 0, 1),      # clipped to the parent's end
    ])
    # children cover [2, 8] and [9, 10]
    np.testing.assert_allclose(self_times(table)[0], 3.0)
    kids = table.parent == 0
    assert overlap_time(table.start[kids], table.end[kids],
                        table.thread[kids]) == 2.0


def test_overlap_counts_nesting_on_one_thread_once():
    starts, ends = np.array([0.0, 1.0, 2.0]), np.array([5.0, 2.0, 3.0])
    assert overlap_time(starts, ends, np.array([0, 0, 1])) == 1.0


def test_tracer_records_parents_threads_and_failures():
    tracer = Tracer(failure=KeyError)
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    fails = tracer.wrap(lambda: {}["x"], "fails")
    with tracer.operation("op"):
        outer()
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        try:
            fails()
        except KeyError:
            pass
    table = tracer.table()
    names = [table.names[i] for i in table.name]
    assert names == ["op", "outer", "inner", "inner", "fails"]
    assert table.parent.tolist() == [NO_PARENT, 0, 1, 0, 0]
    # the worker's root span hangs under the operation on another thread
    assert table.thread[3] != table.thread[0]
    assert table.failed.tolist() == [False, False, False, False, True]
    assert np.all(self_times(table) >= 0.0)


def test_traced_run_restores_every_wrapped_name(tmp_path):
    targets = [(getattr(LAYERS, m), attr) for modules, attr, _, _ in
               run.TRACED for m in modules]
    targets += [(LAYERS.systems, "make_system"), (LAYERS.cli, "make_system")]
    before = [getattr(owner, attr) for owner, attr in targets]
    workload = SmallOracle(LAYERS, 1, tmp_path)
    tracer = Tracer(failure=LAYERS.errors.FracdynError)
    run.install(tracer, LAYERS)
    try:
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(targets, before))
        run.measure(workload, 0.0, tracer.operation)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is fn
               for (owner, attr), fn in zip(targets, before))
    table = tracer.table()
    ml_rows = table.rows("mlf.ml_two")
    assert ml_rows.sum() == len(workload.problems) * (SmallOracle.SAMPLES + 1)
    assert set(table.parent[ml_rows]) == set(
        np.nonzero(table.rows("oracle.problem"))[0])


def test_metric_names_are_valid_and_listed_in_benchmark_json(tmp_path):
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)

    workload = SmallOracle(LAYERS, 1, tmp_path)
    passes = run.measure(workload, 0.0, untraced, min_passes=2)
    assert not run.check(passes)
    e2e = run.end_to_end_metrics(passes, setup_s=0.1)
    assert list(e2e) == [n for n, _ in run.END_TO_END]
    tracer = Tracer(failure=LAYERS.errors.FracdynError)
    run.install(tracer, LAYERS)
    try:
        traced = run.measure(workload, 0.0, tracer.operation)
    finally:
        tracer.restore()
    layer = run.layer_metrics(tracer.table(), tracer.counters, traced,
                              passes)
    assert list(layer) == [n for n, _ in run.PER_LAYER]
    assert all(np.isfinite(v) for v in list(e2e.values())
               + list(layer.values()))


def test_typed_errors_are_counted_as_failed(tmp_path, monkeypatch):
    ml_two = LAYERS.mlf.ml_two

    def fails_on_complex(alpha, beta, z):
        if isinstance(z, complex):
            raise LAYERS.errors.NonConvergenceError("complex argument")
        return ml_two(alpha, beta, z)

    monkeypatch.setattr(LAYERS.mlf, "ml_two", fails_on_complex)
    workload = SmallOracle(LAYERS, 3, tmp_path)   # a real rate, a rotation
    tracer = Tracer(failure=LAYERS.errors.FracdynError)
    run.install(tracer, LAYERS)
    try:
        passes = run.measure(workload, 0.0, tracer.operation, min_passes=2)
    finally:
        tracer.restore()
    assert [m.completed for m in passes[0].members] == [True, False]
    assert len(run.check(passes)) == len(passes)
    assert run.end_to_end_metrics(passes, 0.1)["completed_frac"] == 0.5
    layer = run.layer_metrics(tracer.table(), tracer.counters, passes,
                              passes)
    assert layer["run.failed_frac"] == 0.5
    table = tracer.table()
    assert table.failed[table.rows("mlf.ml_two")].sum() == len(passes)
