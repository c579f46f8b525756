"""Layered simulator benchmark.

Runs one workload of the repository's simulator through its public
entry points, checks every cell against the reference outputs and the
golden ledger, and prints every metric by name with its unit.  The last
line of standard output is one JSON object::

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

Usage, from the repository root::

    python3 simbench/run.py --workload paper-suite --seed 1 \\
        --seconds 15 --trace 0        # end-to-end metrics, untraced
    python3 simbench/run.py --workload paper-suite --trace 1
                                      # per-layer metrics, traced run
    python3 simbench/run.py --workload paper-suite --trace both
                                      # both runs, every metric
    python3 simbench/run.py --write-golden   # regenerate golden.json

A result file with the machine fingerprint, every cell and (traced)
every span is written to ``.simbench_out/`` at the repository root.
See ``simbench/README.md`` for the workloads and the layer map.
"""

import argparse
import gc
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")

#: Cycle totals already published for the default seed
#: (BENCH_20260808_fused.json and BENCH_20260808_batch.json).
ANCHORS = {"paper-suite": 94269, "seed-sweep": 235616}
DEFAULT_SEED = 1

#: Cold set-ups per untraced run; ``setup_s`` is their median.  Fewer
#: where passes are long, to keep a run within its time budget.
SETUPS = {"paper-suite": 3, "seed-sweep": 2, "paper-artifacts": 2}

#: The tail reported as ``cell_s.p90`` needs this many cell samples.
TAIL_P = 90.0

#: Unit of every metric the benchmark can report.
UNITS = {
    "setup_s": "s", "pass_s": "s", "cell_s.p50": "s", "cell_s.p90": "s",
    "sim_cycles_per_s": "1/s", "peak_rss_mb": "MB",
    "compiler.parse_s": "s", "compiler.expand_s": "s",
    "compiler.lower_s": "s", "compiler.optimize_s": "s",
    "compiler.schedule_s": "s", "compiler.codegen_s": "s",
    "compiler.self_s": "s", "compiler.programs": "count",
    "compiler.static_ops": "count", "compiler.pass_s": "s",
    "cache.load_s": "s", "cache.store_s": "s", "cache.hits": "count",
    "cache.misses": "count",
    "programs.inputs_s": "s", "programs.check_s": "s",
    "loader.validate_s": "s", "loader.load_s": "s",
    "predecode.decode_s": "s", "predecode.st_build_s": "s",
    "predecode.mt_build_s": "s", "predecode.blocks_built": "count",
    "event.self_s": "s", "event.ns_per_cycle": "ns",
    "event.fused_dispatches": "count", "event.defusions": "count",
    "event.fuse_ratio": "ratio", "event.build_payoff": "ratio",
    "harness.self_s": "s", "harness.pool_efficiency": "ratio",
    "harness.result_bytes": "B", "harness.cells": "count",
    "harness.deduped": "count",
    "trace.unattributed_s": "s", "trace.pass_s": "s",
    "trace.untraced_pass_s": "s", "trace.overhead_ratio": "ratio",
}

END_TO_END = ("setup_s", "pass_s", "cell_s.p50", "cell_s.p90",
              "sim_cycles_per_s", "peak_rss_mb")

#: Compile-work layers.  Reported from the traced set-up; inside a pass
#: they are summed into ``compiler.pass_s`` (cache-key hashing on every
#: lookup, and the two uncached table3 programs of ``paper-artifacts``).
#: Every other per-layer metric describes one traced pass (mean over
#: the traced passes).
COMPILE_LAYERS = ("compiler.parse_s", "compiler.expand_s",
                  "compiler.lower_s", "compiler.optimize_s",
                  "compiler.schedule_s", "compiler.codegen_s",
                  "compiler.self_s", "cache.store_s")


def import_program():
    """Put the checkout's ``src/`` first on the path and import the
    program from there; raises ImportError without it."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ImportError("no repro package under %s" % SRC)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError("repro imported from %s, not %s"
                          % (repro.__file__, SRC))


# -- runs ------------------------------------------------------------------

class NoSamples(Exception):
    """Every cell failed, so there is nothing to time."""


class Run:
    """Accumulates one invocation's passes, outcomes and problems."""

    def __init__(self, workload, seed, ledger):
        self.workload = workload
        self.seed = seed
        self.ledger = ledger
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cells = []
        self.accounting_ok = True

    def check(self, outcomes):
        from measure import tally
        attempted, failed, problems = tally(outcomes, self.ledger)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        self.cells.extend(outcomes)


def fresh_dir(work):
    return tempfile.mkdtemp(prefix="cache-", dir=work)


def measure_end_to_end(run, seconds, work):
    """The untraced run: the workload's cold set-ups, each followed by
    its share of the passes, so that both kinds of sample spread over
    the whole run (host speed drifts over tens of seconds).  Passes run
    for ``seconds`` in all, at least the workload's ``min_passes``, and
    enough for the ``cell_s.p90`` tail."""
    from measure import min_samples_for, peak_rss_mb, percentile
    from repro.compiler import CompileCache
    from workloads import run_pass

    workload, seed = run.workload, run.seed
    rounds = SETUPS[workload.name]
    need = min_samples_for(TAIL_P)
    setups, pass_times, walls = [], [], []
    cache_root, measured, cycles, attempted = None, 0.0, 0, 0
    for done in range(1, rounds + 1):
        if cache_root is not None:
            shutil.rmtree(cache_root)
        cache_root = fresh_dir(work)
        gc.collect()
        setups.append(workload.setup(seed, CompileCache(cache_root)))
        share = done / float(rounds)
        while (measured < seconds * share or attempted < need * share
               or len(pass_times) < workload.min_passes * share):
            started = time.perf_counter()
            elapsed, outcomes, __ = run_pass(workload, seed, cache_root)
            run.check(outcomes)
            measured += time.perf_counter() - started
            if not pass_times:
                # Later passes fork workers from a parent whose freed
                # heap was not returned to the system, so only the
                # first pass gives a peak that does not depend on the
                # pass count.
                rss = peak_rss_mb(workload.workers > 1)
            pass_times.append(elapsed)
            attempted += len(outcomes)
            for outcome in outcomes:
                if outcome.error is None and outcome.wall_s > 0:
                    walls.append(outcome.wall_s)
                    cycles += outcome.cycles
    if not walls:
        raise NoSamples("no cell of %s completed" % workload.name)
    metrics = {
        "setup_s": median(setups),
        "pass_s": median(pass_times),
        "cell_s.p50": percentile(walls, 50.0),
        "cell_s.p90": percentile(walls, TAIL_P),
        "sim_cycles_per_s": cycles / sum(walls),
        "peak_rss_mb": rss,
    }
    detail = {"setup_samples": setups, "pass_samples": pass_times,
              "cell_samples": len(walls)}
    return metrics, detail


def measure_layers(run, seconds, work):
    """The traced run: one traced cold set-up, then untraced and traced
    passes alternately for ``seconds`` (at least one of each)."""
    from spans import Recorder, Tracer, self_times, subtree
    from workloads import cell_id, run_pass

    workload, seed = run.workload, run.seed
    recorder = Recorder()
    tracer = Tracer(recorder, lambda spec: cell_id(spec, seed))
    cache_root = fresh_dir(work)
    gc.collect()
    tracer.install()
    try:
        setup_root = recorder.open("setup")
        try:
            workload.setup(seed, tracer.cache_class(cache_root))
        finally:
            recorder.close(setup_root)
    finally:
        tracer.uninstall()
    plain, traced, pass_stats = [], [], []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds or not traced):
        elapsed, outcomes, __ = run_pass(workload, seed, cache_root)
        run.check(outcomes)
        plain.append(elapsed)
        tracer.install()
        try:
            elapsed, outcomes, stats = run_pass(
                workload, seed, cache_root, recorder=recorder,
                cache_class=tracer.cache_class)
        finally:
            tracer.uninstall()
        run.check(outcomes)
        traced.append(elapsed)
        pass_stats.append(stats)

    spans = recorder.spans
    selfs = self_times(spans)
    pass_roots = [s for s in spans if s.name == "pass"]
    accounting = [account(subtree(spans, setup_root), selfs)]
    setup_totals = accounting[0]["layers"]
    totals, counts = {}, {}
    for root, stats in zip(pass_roots, pass_stats):
        tree = subtree(spans, root)
        book = account(tree, selfs)
        accounting.append(book)
        for layer, value in book["layers"].items():
            totals[layer] = totals.get(layer, 0.0) + value
        for span in tree:
            for key, value in (span.attrs or {}).items():
                counts[key] = counts.get(key, 0) + value
        for key in ("cells", "deduped"):
            counts[key] = counts.get(key, 0) + stats[key]
        counts["pool_efficiency"] = counts.get("pool_efficiency", 0.0) + \
            stats["busy_s"] / (root.end - root.start) / workload.workers
    n = float(len(pass_roots))
    per_pass = {k: v / n for k, v in totals.items()}
    count = {k: v / n for k, v in counts.items()}

    setup_programs = sum((s.attrs or {}).get("programs", 0)
                         for s in subtree(spans, setup_root))
    setup_ops = sum((s.attrs or {}).get("static_ops", 0)
                    for s in subtree(spans, setup_root))
    fused = count.get("fused", 0.0)
    defused = count.get("defused", 0.0)
    blocks = count.get("blocks", 0.0)
    sim_cycles = count.get("cycles", 0.0)
    metrics = {layer: setup_totals.get(layer, 0.0)
               for layer in COMPILE_LAYERS}
    metrics.update({
        "compiler.programs": setup_programs,
        "compiler.static_ops": setup_ops,
        "compiler.pass_s": sum(per_pass.get(layer, 0.0)
                               for layer in COMPILE_LAYERS),
        "cache.load_s": per_pass.get("cache.load_s", 0.0),
        "cache.hits": count.get("hit", 0.0),
        "cache.misses": count.get("miss", 0.0),
        "programs.inputs_s": per_pass.get("programs.inputs_s", 0.0),
        "programs.check_s": per_pass.get("programs.check_s", 0.0),
        "loader.validate_s": per_pass.get("loader.validate_s", 0.0),
        "loader.load_s": per_pass.get("loader.load_s", 0.0),
        "predecode.decode_s": per_pass.get("predecode.decode_s", 0.0),
        "predecode.st_build_s": per_pass.get("predecode.st_build_s", 0.0),
        "predecode.mt_build_s": per_pass.get("predecode.mt_build_s", 0.0),
        "predecode.blocks_built": blocks,
        "event.self_s": per_pass.get("event.self_s", 0.0),
        "event.ns_per_cycle": (per_pass.get("event.self_s", 0.0)
                               / sim_cycles * 1e9 if sim_cycles else 0.0),
        "event.fused_dispatches": fused,
        "event.defusions": defused,
        "event.fuse_ratio": (fused / (fused + defused)
                             if fused + defused else 0.0),
        "event.build_payoff": fused / blocks if blocks else 0.0,
        "harness.self_s": per_pass.get("harness.self_s", 0.0),
        "harness.pool_efficiency": count.get("pool_efficiency", 0.0),
        "harness.result_bytes": count.get("result_bytes", 0.0),
        "harness.cells": count.get("cells", 0.0),
        "harness.deduped": count.get("deduped", 0.0),
        "trace.unattributed_s": per_pass.get("trace.unattributed_s", 0.0),
        "trace.pass_s": median(traced),
        "trace.untraced_pass_s": median(plain),
        "trace.overhead_ratio": median(traced) / median(plain),
    })
    for book in accounting:
        if not book["balanced"]:
            run.problems.append(
                "span accounting off for %s: %r" % (book["root"], book))
            run.accounting_ok = False
    detail = {"traced_pass_samples": traced, "untraced_pass_samples": plain,
              "accounting": accounting,
              "spans": [s.as_record() for s in spans]}
    return metrics, detail


def account(tree, selfs):
    """Self time per layer over one root's spans, checked per process:
    each process's layer self times add up to the spans it started
    from (for the parent, the root span: the traced ``pass_s``)."""
    from spans import layer_totals
    per_pid, roots = {}, {}
    ids = {s.id: s for s in tree}
    for span in tree:
        per_pid[span.pid] = per_pid.get(span.pid, 0.0) + selfs[span.id]
        parent = ids.get(span.parent)
        if parent is None or parent.pid != span.pid:
            roots[span.pid] = roots.get(span.pid, 0.0) + \
                (span.end - span.start)
    balanced = all(abs(per_pid[pid] - roots[pid]) <= 1e-6 * max(
        1.0, roots[pid]) for pid in roots)
    root = tree[0]
    return {"root": root.name, "seconds": root.end - root.start,
            "layers": layer_totals(tree, selfs), "processes": len(roots),
            "worker_busy_s": sum(v for pid, v in roots.items()
                                 if pid != root.pid),
            "balanced": balanced}


# -- golden ledger ---------------------------------------------------------

def load_ledger(name):
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    return {cell: tuple(entry)
            for cell, entry in golden["workloads"][name]["cells"].items()}


def write_golden():
    """Run one pass of every workload at the default seed and record
    each cell's cycles and stats digest."""
    from repro.compiler import CompileCache
    from workloads import WORKLOADS, run_pass

    work = make_work_dir()
    golden = {"seed": DEFAULT_SEED, "workloads": {}}
    try:
        for name, workload_class in WORKLOADS.items():
            workload = workload_class()
            cache_root = fresh_dir(work)
            workload.setup(DEFAULT_SEED, CompileCache(cache_root))
            __, outcomes, __ = run_pass(workload, DEFAULT_SEED, cache_root)
            errors = [o for o in outcomes if o.error is not None]
            if errors:
                raise SystemExit("cannot write golden ledger: %s failed: %s"
                                 % (errors[0].cell, errors[0].error))
            harness_cycles = sum(o.cycles for o in outcomes
                                 if not o.cell.startswith("table3/"))
            if name in ANCHORS and harness_cycles != ANCHORS[name]:
                raise SystemExit("%s: %d cycles, anchor is %d"
                                 % (name, harness_cycles, ANCHORS[name]))
            golden["workloads"][name] = {
                "total_cycles": harness_cycles,
                "cells": {o.cell: [o.cycles, o.digest]
                          for o in sorted(outcomes, key=lambda o: o.cell)}}
            print("%s: %d cells, %d cycles" % (name, len(outcomes),
                                                harness_cycles))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- output ----------------------------------------------------------------

def make_work_dir():
    base = os.path.join(ROOT, ".simbench_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)


def metric_line(name, value):
    return "%-26s %16.6g %s" % (name, value, UNITS[name])


def print_report(run, fingerprint, e2e, layers):
    print("simbench %s seed=%d  python %s  numpy %s  nproc %d  "
          "calibration %.4f s" % (run.workload.name, run.seed,
                                  fingerprint["python"],
                                  fingerprint["numpy"],
                                  fingerprint["nproc"],
                                  fingerprint["calibration_s"]))
    if e2e is not None:
        metrics, detail = e2e
        print("-- end to end (untraced; %d set-ups, %d passes, "
              "%d cell samples)" % (len(detail["setup_samples"]),
                                   len(detail["pass_samples"]),
                                   detail["cell_samples"]))
        for name in END_TO_END:
            print(metric_line(name, metrics[name]))
        from measure import tail_percentile
        tail = tail_percentile(detail["cell_samples"])
        print("%-26s %16s   highest percentile with >=10 samples beyond "
              "it: p%g" % ("cell_s tail", "", tail))
    rate = run.failed / float(run.attempted) if run.attempted else 0.0
    print("%-26s %16.6g ratio (%d of %d cells failed)"
          % ("fail_rate", rate, run.failed, run.attempted))
    if layers is not None:
        metrics, detail = layers
        print("-- per layer (traced; %d traced passes)"
              % len(detail["traced_pass_samples"]))
        for name in sorted(metrics):
            print(metric_line(name, metrics[name]))
        for book in detail["accounting"]:
            print("   accounting %-6s %.4f s = sum of %d layer self times "
                  "+ unattributed%s: %s"
                  % (book["root"], book["seconds"], len(book["layers"]),
                     "" if book["processes"] == 1 else
                     " (parent; %d workers busy %.4f s, each balanced)"
                     % (book["processes"] - 1, book["worker_busy_s"]),
                     "ok" if book["balanced"] else "MISMATCH"))
    for problem in run.problems[:20]:
        print("PROBLEM " + problem)


def write_result(out_dir, run, fingerprint, args, e2e, layers, result):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%s-%d.json"
                        % (run.workload.name, run.seed, args.trace,
                           time.time_ns()))
    body = {"workload": run.workload.name, "seed": run.seed,
            "seconds": args.seconds, "trace": args.trace,
            "fingerprint": fingerprint, "result": result,
            "problems": run.problems,
            "cells": [{"cell": c.cell, "cycles": c.cycles,
                       "digest": c.digest, "wall_s": c.wall_s,
                       "error": c.error} for c in run.cells]}
    if e2e is not None:
        body["end_to_end"] = {"metrics": e2e[0], "detail": e2e[1]}
    if layers is not None:
        body["per_layer"] = {"metrics": layers[0], "detail": layers[1]}
    with open(path, "w") as handle:
        json.dump(body, handle)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="simbench/run.py",
        description="Layered benchmark of the processor-coupling "
                    "simulator.")
    parser.add_argument("--workload",
                        choices=("paper-suite", "paper-artifacts",
                                 "seed-sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end metrics; 1: per-layer "
                             "metrics from a traced run; both: both runs")
    parser.add_argument("--out", default=os.path.join(ROOT, ".simbench_out"),
                        help="directory for the result file")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json at the default seed")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _exit_on_sigterm(signum, frame):
    # Unwind normally, so pool workers are joined and scratch removed.
    sys.exit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        import_program()
    except ImportError as exc:
        print("simbench: cannot import the simulator: %s" % exc,
              file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    from measure import fingerprint as machine_fingerprint
    from workloads import WORKLOADS

    try:
        ledger = load_ledger(args.workload)
    except (OSError, ValueError, KeyError) as exc:
        print("simbench: no golden ledger for %s: %s" % (args.workload, exc),
              file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload](), args.seed, ledger)
    fingerprint = machine_fingerprint()
    work = make_work_dir()
    try:
        e2e = layers = None
        if args.trace in ("0", "both"):
            e2e = measure_end_to_end(run, args.seconds, work)
        if args.trace in ("1", "both"):
            layers = measure_layers(run, args.seconds, work)
    except NoSamples as exc:
        for problem in run.problems[:20]:
            print("PROBLEM " + problem)
        print("simbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for part in (e2e, layers):
        if part is not None:
            metrics.update({name: {"value": value, "unit": UNITS[name]}
                            for name, value in part[0].items()})
    result = {"correct": run.failed == 0 and run.accounting_ok,
              "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print_report(run, fingerprint, e2e, layers)
    path = write_result(args.out, run, fingerprint, args, e2e, layers,
                        result)
    print("result file: %s" % os.path.relpath(path, ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
