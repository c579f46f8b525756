"""The benchmark's three workloads, run through the repository's public
entry points (``Harness.run_many``, the artifact generators'
``run``/``render``).

Each pass gets a fresh :class:`BenchHarness` over the workload's own
warm compile cache, with the reference check on.  Cell failures are
collected (``on_error="collect"``) so that one failing cell counts in
the fail rate instead of ending the run.
"""

import gc
import multiprocessing
import time

from repro.bench import suite_specs
from repro.compiler import CompileCache
from repro.errors import CellFailure
from repro.experiments import (figure5, figure6, figure7, figure8, table2,
                               table3)
from repro.experiments.runner import Harness, RunSpec
from repro.experiments.supervision import run_key_digest
from repro.machine import baseline

from measure import CellOutcome, summary_digest, usable_cpus

#: Lanes of ``seed-sweep``: input seeds ``seed .. seed + 15``.
SWEEP_SEEDS = 16

#: Worker cap for ``seed-sweep``'s pool: one per usable CPU, but no
#: more than this, so a many-core machine does not fork dozens of
#: workers that each hold the simulator in memory.
MAX_WORKERS = 4


def cell_id(spec, harness_seed):
    """Ledger key of one harness cell: benchmark, mode, a digest of the
    machine's run signature, and the input seed.  Machines with equal
    run signatures (``baseline/full`` is ``baseline``) share one cell,
    as they share one run in the harness."""
    config = spec.config or baseline()
    seed = harness_seed if spec.seed is None else spec.seed
    return "%s/%s/%s/s%d" % (spec.benchmark, spec.mode,
                             run_key_digest(config.run_signature())[:12],
                             seed)


class BenchHarness(Harness):
    """A :class:`Harness` that remembers every cell outcome its sweeps
    hand back.  With a recorder it also opens a span around each sweep
    and each in-process cell, and adopts the spans pool workers ship
    back."""

    def __init__(self, recorder=None, **kwargs):
        super().__init__(**kwargs)
        self.recorder = recorder
        self.outcomes = []

    def run_many(self, specs, **kwargs):
        specs = [self._coerce_spec(spec) for spec in specs]
        if self.recorder is None:
            results = super().run_many(specs, **kwargs)
        else:
            span = self.recorder.open("harness.run_many")
            try:
                results = super().run_many(specs, **kwargs)
            finally:
                self.recorder.close(span)
            for result in {id(r): r for r in results if r.ok}.values():
                self.recorder.adopt_worker_spans(result, span)
        self.outcomes.extend(zip(specs, results))
        return results

    def run(self, benchmark, mode, config=None, tag=None, seed=None):
        if self.recorder is None:
            return super().run(benchmark, mode, config, tag, seed)
        cell = cell_id(RunSpec(benchmark, mode, config, tag, seed),
                       self.seed)
        span = self.recorder.open("harness.cell", cell=cell)
        try:
            return super().run(benchmark, mode, config, tag, seed)
        finally:
            self.recorder.close(span)

    def cell_outcomes(self):
        """This harness's outcomes as :class:`CellOutcome` records, one
        per :func:`cell_id` (a cell two sweeps asked for, like table2's
        and figure5's, counts once)."""
        by_cell = {cell_id(spec, self.seed): result
                   for spec, result in self.outcomes}
        out = []
        for cell, result in by_cell.items():
            if not result.ok:
                out.append(CellOutcome(cell, error="%s: %s" % (
                    result.error_type, result.message)))
                continue
            out.append(CellOutcome(
                cell, cycles=result.cycles,
                digest=summary_digest(result.stats.summary()),
                wall_s=result.wall_seconds,
                compile_s=result.compile_seconds))
        return out


class _SpecCollector(Harness):
    """Records the specs a generator asks for and answers every cell
    with a failure, which the generators skip: the cell list of a
    workload without simulating anything."""

    def __init__(self):
        super().__init__(compile_cache=None)
        self.specs = []

    def run_many(self, specs, **kwargs):
        specs = [self._coerce_spec(spec) for spec in specs]
        self.specs.extend(specs)
        return [CellFailure(s.benchmark, s.mode, "Collected", "")
                for s in specs]


class Workload:
    """One named input set.  Subclasses give the cell list and the
    pass; the cold set-up is shared."""

    name = None
    workers = 1
    #: Passes an untraced run measures at least, beyond ``--seconds``.
    #: Host speed drifts over tens of seconds; a workload whose pass is
    #: about that long measures two, so one slow stretch does not set
    #: its whole run.
    min_passes = 1

    def specs(self, seed):
        raise NotImplementedError

    def run_pass(self, harness, seed):
        """Run one pass on ``harness``; returns outcomes of cells that
        do not go through the harness (none by default)."""
        raise NotImplementedError

    def setup(self, seed, cache):
        """Cold-compile every program the workload needs into
        ``cache`` (empty) and generate its inputs; returns seconds."""
        specs = self.specs(seed)
        harness = Harness(seed=seed, compile_cache=cache)
        started = time.perf_counter()
        for spec in specs:
            harness.compile(spec.benchmark, spec.mode,
                            spec.config or baseline())
        for benchmark, input_seed in {(s.benchmark, s.seed)
                                      for s in specs}:
            harness.inputs_for(benchmark, input_seed)
        return time.perf_counter() - started


class PaperSuite(Workload):
    """The 18 baseline cells of ``repro bench``, serially."""

    name = "paper-suite"

    def specs(self, seed):
        return suite_specs()

    def run_pass(self, harness, seed):
        harness.run_many(self.specs(seed), on_error="collect")
        return []


class SeedSweep(Workload):
    """The quick suite times 16 input seeds, in one pooled sweep."""

    name = "seed-sweep"

    def __init__(self):
        self.workers = min(usable_cpus(), MAX_WORKERS)

    def specs(self, seed):
        return suite_specs(quick=True,
                           seeds=[seed + i for i in range(SWEEP_SEEDS)])

    def run_pass(self, harness, seed):
        harness.run_many(self.specs(seed), workers=self.workers,
                         on_error="collect")
        return []


#: The ``experiments all`` generators, in the CLI's order.
_GRID_GENERATORS = (table2, figure5, figure6, figure7, figure8)


class PaperArtifacts(Workload):
    """``python -m repro.experiments all``: every generator's ``run``
    and ``render``, serially, on one harness."""

    name = "paper-artifacts"
    min_passes = 2

    def __init__(self):
        self._specs = None

    def specs(self, seed):
        if self._specs is None:
            collector = _SpecCollector()
            for generator in _GRID_GENERATORS:
                generator.run(collector, on_error="collect")
            self._specs = collector.specs
        return self._specs

    def run_pass(self, harness, seed):
        rows = table2.run(harness, on_error="collect")
        table2.render(rows)
        table2.render_figure4(rows)
        figure5.render(figure5.run(harness, on_error="collect"))
        interference = table3.run(seed=seed)
        table3.render(interference)
        figure6.render(figure6.run(harness, on_error="collect"))
        figure7.render(figure7.run(harness, on_error="collect"))
        figure8.render(figure8.run(harness, on_error="collect"))
        aggregate = interference["aggregate"]
        error = None if aggregate["verified"] else \
            "table3 queue results differ from the reference"
        return [CellOutcome("table3/coupled/s%d" % seed,
                            cycles=aggregate["coupled_total"],
                            error=error),
                CellOutcome("table3/sts/s%d" % seed,
                            cycles=aggregate["sts_total"])]


WORKLOADS = {w.name: w for w in (PaperSuite, PaperArtifacts, SeedSweep)}


def drain_pool_children(timeout=60.0):
    """Wait for every pool worker to exit.  The supervisor shuts its
    pool down without waiting, so workers may outlive ``run_many``."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)


def run_pass(workload, seed, cache_root, recorder=None, cache_class=None):
    """One timed pass on a fresh harness.  Returns
    ``(seconds, outcomes, harness_stats)``; with a recorder the pass is
    one ``pass`` span."""
    gc.collect()
    cache = (cache_class or CompileCache)(cache_root)
    span = recorder.open("pass") if recorder is not None else None
    started = time.perf_counter()
    try:
        harness = BenchHarness(recorder=recorder, seed=seed,
                               compile_cache=cache)
        extra = workload.run_pass(harness, seed)
    finally:
        elapsed = time.perf_counter() - started
        if span is not None:
            recorder.close(span)
        drain_pool_children()
    outcomes = harness.cell_outcomes()
    stats = {"cells": len(outcomes),
             "deduped": harness.deduped_cached + harness.deduped_in_flight,
             "busy_s": sum(o.wall_s + o.compile_s for o in outcomes)}
    return elapsed, outcomes + extra, stats
