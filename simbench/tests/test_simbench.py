"""Self-tests of the benchmark's own arithmetic and bookkeeping.

Run from the repository root::

    python3 -m pytest simbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import measure  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
from measure import CellOutcome, tally  # noqa: E402

UNIT = r"^[A-Za-z0-9_/%.-]{1,16}$"


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- metric names ----------------------------------------------------------

def test_metric_name_charset_accepts_and_rejects():
    ok = ("setup_s", "cell_s.p90", "event.fuse_ratio", "9lives",
          "a" * 64)
    bad = ("", ".hidden", "_x", "has space", "slash/name", "a" * 65,
           "pct%")
    assert all(measure.METRIC_NAME.match(name) for name in ok)
    assert not any(measure.METRIC_NAME.match(name) for name in bad)


def test_declared_metrics_match_what_the_benchmark_emits():
    import re
    declared = _declared()
    names = [m["name"] for m in declared["end_to_end"]
             + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert measure.METRIC_NAME.match(name), name
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert re.match(UNIT, metric["unit"]), metric
        assert bench_run.UNITS[metric["name"]] == metric["unit"]
    e2e = {m["name"] for m in declared["end_to_end"]}
    assert e2e == set(bench_run.END_TO_END)
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert per_layer == set(bench_run.UNITS) - e2e
    assert {w["name"] for w in declared["workloads"]} == {
        "paper-suite", "paper-artifacts", "seed-sweep"}


# -- tail percentile rule --------------------------------------------------

def test_tail_needs_ten_samples_beyond_it():
    assert measure.samples_beyond(90.0, 100) == 10
    assert measure.tail_percentile(100) == 90.0
    assert measure.tail_percentile(99) == 75.0
    assert measure.tail_percentile(1000) == 99.0
    assert measure.tail_percentile(20) == 50.0
    assert measure.tail_percentile(19) is None
    assert measure.min_samples_for(90.0) == 100
    assert measure.min_samples_for(50.0) == 20


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50.0) == 50
    assert measure.percentile(values, 90.0) == 90
    assert measure.percentile(values, 100.0) == 100
    assert measure.percentile([7.0], 90.0) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50.0)


# -- golden ledger and fail rate -------------------------------------------

def test_tampered_golden_entry_counts_as_failure():
    ledger = bench_run.load_ledger("paper-suite")
    cell, (cycles, digest) = sorted(ledger.items())[0]
    honest = CellOutcome(cell, cycles=cycles, digest=digest)
    assert tally([honest], ledger)[:2] == (1, 0)
    for tampered in ({cell: (cycles + 1, digest)},
                     {cell: (cycles, "0" * 16)}):
        attempted, failed, problems = tally([honest], tampered)
        assert (attempted, failed) == (1, 1)
        assert "golden mismatch" in problems[0]


def test_golden_ledger_holds_the_published_totals():
    with open(bench_run.GOLDEN) as handle:
        golden = json.load(handle)["workloads"]
    for name, total in bench_run.ANCHORS.items():
        cells = golden[name]["cells"]
        assert sum(c for c, __ in cells.values()) == total
    assert len(golden["paper-suite"]["cells"]) == 18
    assert len(golden["seed-sweep"]["cells"]) == 224


def test_fail_rate_denominator_includes_raised_cells():
    outcomes = [CellOutcome("a", cycles=10, digest="d"),
                CellOutcome("b", error="VerificationError: c[0] differs"),
                CellOutcome("c", error="WatchdogError: cut")]
    attempted, failed, problems = tally(outcomes, {"a": (10, "d")})
    assert (attempted, failed) == (3, 2)
    assert len(problems) == 2


def test_unpinned_cells_are_checked_by_reference_only():
    outcome = CellOutcome("not-in-ledger", cycles=5, digest="x")
    assert tally([outcome], {})[:2] == (1, 0)


# -- span arithmetic -------------------------------------------------------

def _span(id, name, start, end, parent=None, pid=1):
    span = spans.Span(id, name, start, parent, pid, None)
    span.end = end
    return span


def test_self_time_subtracts_same_process_children():
    tree = [
        _span("r", "pass", 0.0, 10.0),
        _span("a", "harness.run_many", 1.0, 9.0, "r"),
        _span("b", "event.run", 2.0, 6.0, "a"),
        _span("c", "loader.load", 2.5, 3.0, "b"),
        _span("d", "programs.check", 6.5, 8.0, "a"),
        # A pool worker's cell under the sweep: another process, so it
        # overlaps the sweep's wait without being subtracted from it.
        _span("w", "harness.worker_cell", 1.5, 8.5, "a", pid=2),
        _span("x", "event.run", 2.0, 7.0, "w", pid=2),
    ]
    selfs = spans.self_times(tree)
    assert selfs["r"] == pytest.approx(2.0)
    assert selfs["a"] == pytest.approx(8.0 - 4.0 - 1.5)
    assert selfs["b"] == pytest.approx(3.5)
    assert selfs["c"] == pytest.approx(0.5)
    assert selfs["w"] == pytest.approx(2.0)
    parent = [s for s in tree if s.pid == 1]
    totals = spans.layer_totals(parent, selfs)
    assert sum(totals.values()) == pytest.approx(10.0)
    assert totals["trace.unattributed_s"] == pytest.approx(2.0)
    book = bench_run.account(spans.subtree(tree, tree[0]), selfs)
    assert book["balanced"] and book["processes"] == 2
    assert book["worker_busy_s"] == pytest.approx(7.0)


def test_overlapping_children_are_not_double_subtracted():
    tree = [_span("r", "pass", 0.0, 10.0),
            _span("a", "event.run", 1.0, 5.0, "r"),
            _span("b", "event.run", 4.0, 6.0, "r")]
    assert spans.self_times(tree)["r"] == pytest.approx(5.0)


def test_tracer_balances_a_real_cell_and_restores_bindings(tmp_path):
    from repro.experiments import runner
    from repro.sim import node
    from workloads import BenchHarness, cell_id

    originals = (node.load_memory, runner.compile_program,
                 runner.get_benchmark, runner._run_spec_in_worker)
    recorder = spans.Recorder()
    tracer = spans.Tracer(recorder, lambda spec: cell_id(spec, 1))
    tracer.install()
    try:
        root = recorder.open("pass")
        harness = BenchHarness(recorder=recorder, seed=1,
                               compile_cache=tracer.cache_class(
                                   str(tmp_path)))
        harness.run_many([("matrix", "seq")], on_error="collect")
        recorder.close(root)
    finally:
        tracer.uninstall()
    assert (node.load_memory, runner.compile_program,
            runner.get_benchmark, runner._run_spec_in_worker) == originals
    names = {s.name for s in recorder.spans}
    for name in ("harness.cell", "compiler.parse", "compiler.schedule",
                 "cache.load", "cache.store", "programs.inputs",
                 "programs.check", "loader.validate", "loader.load",
                 "predecode.decode", "event.run"):
        assert name in names, name
    selfs = spans.self_times(recorder.spans)
    book = bench_run.account(spans.subtree(recorder.spans, root), selfs)
    assert book["balanced"]
    assert sum(book["layers"].values()) == pytest.approx(
        root.end - root.start)
    compiles = [s for s in recorder.spans if s.name == "compiler.compile"]
    assert compiles[0].attrs["programs"] == 1
    outcome, = harness.cell_outcomes()
    assert outcome.error is None and outcome.cycles > 0
