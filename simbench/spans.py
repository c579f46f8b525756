"""In-memory span recording and per-layer self-time accounting.

A :class:`Recorder` keeps every span of a traced run in a list:
name, start, end, parent span, process and cell id.  Nothing is written
until the run ends.  :class:`Tracer` installs timing wrappers over each
layer's public functions at the module bindings through which the layer
above calls them (``repro.sim.node.load_memory``, not
``repro.sim.loader.load_memory``), and restores the originals on
:meth:`Tracer.uninstall`.  ``src/`` is never edited.

Pooled passes: the process pool forks its workers after the wrappers are
installed, so each worker inherits them with its own copy of the
recorder.  The wrapper over ``runner._run_spec_in_worker`` (the pool's
entry point) starts a fresh span list in the worker, runs the cell, and
attaches the worker's spans and the pickled size of the result to the
result object, which the pool ships back with it.
:meth:`Recorder.adopt_worker_spans` moves them into the parent's list.
Worker spans keep their own ``pid``; self time is computed per process,
so a worker's busy time is never subtracted from the parent's wait.
Under the ``spawn`` start method workers do not inherit the wrappers and
report no spans.
"""

import functools
import os
import pickle
import time

#: Span name -> per-layer time metric its self time is charged to.
#: ``pass`` is the benchmark's own root span: its self time is the part
#: of ``pass_s`` that no layer span covers.
LAYER_OF = {
    "pass": "trace.unattributed_s",
    "setup": "setup.unattributed_s",
    "harness.run_many": "harness.self_s",
    "harness.cell": "harness.self_s",
    "harness.worker_cell": "harness.self_s",
    "compiler.compile": "compiler.self_s",
    "compiler.parse": "compiler.parse_s",
    "compiler.expand": "compiler.expand_s",
    "compiler.lower": "compiler.lower_s",
    "compiler.optimize": "compiler.optimize_s",
    "compiler.schedule": "compiler.schedule_s",
    "compiler.codegen": "compiler.codegen_s",
    "cache.load": "cache.load_s",
    "cache.store": "cache.store_s",
    "programs.inputs": "programs.inputs_s",
    "programs.check": "programs.check_s",
    "loader.validate": "loader.validate_s",
    "loader.load": "loader.load_s",
    "predecode.decode": "predecode.decode_s",
    "predecode.st_build": "predecode.st_build_s",
    "predecode.mt_build": "predecode.mt_build_s",
    "event.run": "event.self_s",
}

#: Attribute under which a pool worker ships its spans back.
WORKER_TRACE_ATTR = "_simbench_trace"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "pid", "cell",
                 "attrs")

    def __init__(self, id, name, start, parent, pid, cell):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.pid = pid
        self.cell = cell
        self.attrs = None

    def as_record(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "pid": self.pid,
                "cell": self.cell, "attrs": self.attrs}


class Recorder:
    """Spans of one process, in open order.  Span ids are
    ``"<pid>.<n>"`` so spans adopted from pool workers never collide
    with the parent's."""

    def __init__(self):
        self.reset()

    def reset(self):
        """Start an empty span list (a pool worker does this per cell;
        ids keep counting, so they stay unique within the process)."""
        pid = os.getpid()
        if getattr(self, "pid", None) != pid:
            self.pid = pid
            self._next_id = 0
        self.spans = []
        self._stack = []
        self.cell = None

    def open(self, name, cell=None):
        if cell is not None:
            self.cell = cell
        parent = self._stack[-1].id if self._stack else None
        span = Span("%d.%d" % (self.pid, self._next_id), name,
                    time.perf_counter(), parent, self.pid, self.cell)
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span %s closed out of order" % span.name)
        if not self._stack:
            self.cell = None

    def adopt_worker_spans(self, result, parent):
        """Move the spans a pool worker attached to ``result`` into this
        recorder, re-parenting the worker's root under ``parent``."""
        for span in result.__dict__.pop(WORKER_TRACE_ATTR, ()):
            if span.parent is None:
                span.parent = parent.id
            self.spans.append(span)


def self_times(spans):
    """Span id -> self time: the span's duration minus the part of its
    interval covered by its same-process children.  Children of one
    parent in one process run sequentially, so their covered interval
    is the union of disjoint intervals; overlapping children (which a
    well-formed trace never has) are merged rather than double
    subtracted."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        kids = sorted((c for c in children.get(span.id, ())
                       if c.pid == span.pid), key=lambda c: c.start)
        covered, reach = 0.0, span.start
        for kid in kids:
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def subtree(spans, root):
    """``root`` and every descendant of it, pool workers' included."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out, todo = [], [root]
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(children.get(span.id, ()))
    return out


def layer_totals(spans, selfs=None):
    """Per-layer metric name -> summed self time over ``spans``."""
    selfs = self_times(spans) if selfs is None else selfs
    totals = {}
    for span in spans:
        layer = LAYER_OF[span.name]
        totals[layer] = totals.get(layer, 0.0) + selfs[span.id]
    return totals


def _timed(recorder, name, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span, out)
        return out
    return traced


def _count_block(span, block):
    if block is not None:
        span.attrs = {"blocks": 1}


class _TracedBenchmark:
    """Stands in for a :class:`repro.programs.suite.Benchmark` at the
    harness's ``get_benchmark`` binding, timing input generation and
    the reference check."""

    def __init__(self, bench, recorder):
        self._bench = bench
        self.make_inputs = _timed(recorder, "programs.inputs",
                                  bench.make_inputs)
        self.check = _timed(recorder, "programs.check", bench.check)

    def __getattr__(self, name):
        return getattr(self._bench, name)


def traced_cache_class(recorder):
    """A :class:`repro.compiler.CompileCache` subclass whose loads and
    stores are spans; a load span carries ``hit`` or ``miss``."""
    from repro.compiler import CompileCache

    class TracedCompileCache(CompileCache):
        def get(self, key):
            span = recorder.open("cache.load")
            try:
                compiled = super().get(key)
            finally:
                recorder.close(span)
            span.attrs = {"miss" if compiled is None else "hit": 1}
            return compiled

        def put(self, key, compiled):
            span = recorder.open("cache.store")
            try:
                super().put(key, compiled)
            finally:
                recorder.close(span)

    return TracedCompileCache


class Tracer:
    """Installs and removes the layer wrappers for one recorder.
    ``cache_class`` is the compile cache every traced harness (parent
    and pool workers) must use."""

    def __init__(self, recorder, cell_of):
        self.recorder = recorder
        self.cell_of = cell_of
        self.cache_class = traced_cache_class(recorder)
        self._saved = []

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _wrap(self, module, attr, name, after=None):
        self._patch(module, attr, _timed(self.recorder, name,
                                         getattr(module, attr), after))

    def install(self):
        from repro.compiler import driver
        from repro.experiments import runner, table3
        from repro.sim import event, node, predecode

        rec = self.recorder
        # Compiler front end to code generation (driver's bindings).
        self._wrap(driver, "parse_program", "compiler.parse")
        for attr in ("resolve_consts", "expand_thread", "expand_kernel"):
            self._wrap(driver, attr, "compiler.expand")
        self._wrap(driver, "lower_thread", "compiler.lower")
        self._wrap(driver, "optimize_thread", "compiler.optimize")
        self._wrap(driver, "generate_thread", "compiler.codegen")
        scheduler_class = driver.ThreadScheduler

        def traced_scheduler(*args, **kwargs):
            span = rec.open("compiler.schedule")
            try:
                scheduler = scheduler_class(*args, **kwargs)
            finally:
                rec.close(span)
            scheduler.schedule = _timed(rec, "compiler.schedule",
                                        scheduler.schedule)
            return scheduler
        self._patch(driver, "ThreadScheduler", traced_scheduler)

        def count_program(span, compiled):
            # A fresh compilation runs the front end; a cache hit does
            # not.  Spans after this one in the list are its children.
            for later in reversed(rec.spans):
                if later is span:
                    return
                if later.name == "compiler.parse":
                    break
            span.attrs = {"programs": 1, "static_ops":
                          compiled.static_operation_count()}
        for module in (runner, table3):
            self._wrap(module, "compile_program", "compiler.compile",
                       count_program)
        # Worker harnesses build their cache from runner's binding.
        self._patch(runner, "CompileCache", self.cache_class)

        # Programs: inputs and reference check, via the harness lookup.
        get_benchmark = runner.get_benchmark
        self._patch(runner, "get_benchmark",
                    lambda name: _TracedBenchmark(get_benchmark(name), rec))

        # Simulator: load, predecode, block builds, the event kernel.
        self._wrap(node, "validate_program", "loader.validate")
        self._wrap(node, "load_memory", "loader.load")
        self._wrap(event, "decode_program", "predecode.decode")
        self._wrap(predecode, "_compile_run", "predecode.st_build",
                   _count_block)
        self._wrap(event, "compile_mt_run", "predecode.mt_build",
                   _count_block)
        self._wrap(predecode, "_emit_mt_block", "predecode.mt_build")

        def sim_counts(span, sim):
            stats = sim.stats
            span.attrs = {
                "cycles": stats.cycles,
                "fused": getattr(stats, "fused_dispatches", 0),
                "defused": sum((getattr(stats, "defuse_reasons", None)
                                or {}).values())}
        for module in (runner, table3):
            self._wrap(module, "run_program", "event.run", sim_counts)

        worker_entry = runner._run_spec_in_worker

        @functools.wraps(worker_entry)
        def traced_worker_entry(payload, spec):
            rec.reset()
            span = rec.open("harness.worker_cell", cell=self.cell_of(spec))
            try:
                result = worker_entry(payload, spec)
            finally:
                rec.close(span)
            span.attrs = {"result_bytes": len(pickle.dumps(
                result, protocol=pickle.HIGHEST_PROTOCOL))}
            if hasattr(result, "__dict__"):
                result.__dict__[WORKER_TRACE_ATTR] = rec.spans
            return result
        self._patch(runner, "_run_spec_in_worker", traced_worker_entry)

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
