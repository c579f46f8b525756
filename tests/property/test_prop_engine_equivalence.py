"""Engine equivalence: the event-driven kernel — with superblock
fusion on and off — and the batch lane engine must be *bit-identical*
to the scan kernel on every architecturally visible quantity: cycle
counts, the full statistics record, final memory contents, and
presence bits.  Checked four ways (scan / event without fusion / event
with fusion / one lane of a lockstep batch bundle) across every
benchmark x mode cell, under fault injection, over restricted
interconnects, with the skip-ahead fast path on or off, and through
snapshot/restore round-trips taken mid-run (including mid-superblock,
which must force de-fusion at the pause boundary).  TestBatchPeel
additionally pins the peel discipline: lanes that diverge mid-run —
on branch direction, memory address, or a lane-local arithmetic trap,
with or without a fault plan — peel off to the scalar kernel while
every surviving lane stays bit-identical."""

import pytest

from repro import WatchdogError, compile_program
from repro.experiments.paper import MODE_ORDER
from repro.machine import baseline, unit_mix
from repro.programs import get_benchmark
from repro.programs.suite import BENCHMARK_ORDER
from repro.sim import EventNode, FaultPlan, Node, make_node, run_program
from repro.sim.batch import run_batch


def _cells():
    for benchmark in BENCHMARK_ORDER:
        bench = get_benchmark(benchmark)
        for mode in MODE_ORDER:
            if mode in bench.modes:
                yield benchmark, mode


#: The three kernels under test, as config transforms.
ENGINES = (
    ("scan", lambda c: c.with_engine("scan")),
    ("event", lambda c: c.with_engine("event").with_fusion(False)),
    ("fused", lambda c: c.with_engine("event").with_fusion(True)),
)


def _batch_lane0(program, config, lane_inputs, fast_forward=True):
    """Run ``lane_inputs`` as one lockstep bundle and return lane 0's
    SimResult — re-run on the scalar kernel if lane 0 peeled (the same
    merge-back the harness performs), so the four-way comparison
    always has a batch-backend result to check."""
    outcome = run_batch(program, config, lane_inputs,
                        fast_forward=fast_forward)
    if outcome.results[0] is not None:
        return outcome.results[0]
    return run_program(program, config, overrides=lane_inputs[0],
                       fast_forward=fast_forward)


def _run_all(benchmark, mode, mutate=None, fast_forward=True):
    bench = get_benchmark(benchmark)
    inputs = bench.make_inputs(1)
    config = baseline()
    if mutate is not None:
        config = mutate(config)
    compiled = compile_program(bench.source(mode), config, mode=mode)
    results = {}
    for name, select in ENGINES:
        results[name] = run_program(compiled.program, select(config),
                                    overrides=inputs,
                                    fast_forward=fast_forward)
    # Fourth way: the same cell as lane 0 of a two-lane batch bundle
    # (lane 1 carries different input data, so the value plane really
    # is vectorized and any cross-lane contamination would surface).
    results["batch"] = _batch_lane0(
        compiled.program,
        config.with_engine("event").with_fusion(False),
        [inputs, bench.make_inputs(2)], fast_forward=fast_forward)
    return results


def _assert_identical(reference, other, label="event"):
    assert other.cycles == reference.cycles
    ref_stats = dict(reference.stats.__dict__)
    other_stats = dict(other.stats.__dict__)
    from repro.sim.stats import ENGINE_STAT_FIELDS
    for key in sorted(set(ref_stats) | set(other_stats)):
        if key in ENGINE_STAT_FIELDS:
            # Engine bookkeeping, not an architectural quantity: the
            # fused kernel counts its superblock dispatches and
            # de-fusion reasons, the scan kernel never fuses at all.
            continue
        assert other_stats.get(key) == ref_stats.get(key), \
            "stats.%s diverged: reference=%r %s=%r" \
            % (key, ref_stats.get(key), label, other_stats.get(key))
    assert other.memory._values == reference.memory._values
    assert other.memory._empty == reference.memory._empty


def _assert_four_way(results):
    _assert_identical(results["scan"], results["event"], "event")
    _assert_identical(results["scan"], results["fused"], "fused")
    _assert_identical(results["scan"], results["batch"], "batch")


@pytest.mark.parametrize("bench_name,mode", list(_cells()))
def test_every_benchmark_mode_is_identical(bench_name, mode):
    _assert_four_way(_run_all(bench_name, mode))


@pytest.mark.parametrize("bench_name,mode", [("matrix", "coupled"),
                                            ("fft", "coupled")])
def test_identical_under_fault_injection(bench_name, mode):
    def faulty(config):
        return config.with_faults(FaultPlan.random(7, config, rate=3.0,
                                                   horizon=4000))
    _assert_four_way(_run_all(bench_name, mode, mutate=faulty))


def test_identical_under_fault_injection_single_threaded():
    # Single-threaded cells are where fusion would fire; a fault plan
    # must force the word-by-word path without drift.
    def faulty(config):
        return config.with_faults(FaultPlan.random(11, config, rate=2.0,
                                                   horizon=8000))
    _assert_four_way(_run_all("matrix", "seq", mutate=faulty))


@pytest.mark.parametrize("scheme", ["shared-bus", "single-port"])
def test_identical_under_restricted_interconnect(scheme):
    # Exercises the event kernel's arbitrated (non-direct) writeback
    # path, where entries can wait cycles for a port; fusion must stay
    # dormant (its guards require the fully connected network).
    _assert_four_way(_run_all(
        "matrix", "coupled", mutate=lambda c: c.with_interconnect(scheme)))


def test_identical_without_fast_forward():
    _assert_four_way(_run_all("matrix", "coupled", fast_forward=False))


def test_identical_without_fast_forward_single_threaded():
    _assert_four_way(_run_all("lud", "seq", fast_forward=False))


def test_identical_under_round_robin_arbitration():
    _assert_four_way(_run_all(
        "fft", "coupled",
        mutate=lambda c: c.with_arbitration("round-robin")))


def test_identical_under_round_robin_single_threaded():
    # Fused dispatch must leave the round-robin rotation pointer
    # exactly where the interpreted path would.
    _assert_four_way(_run_all(
        "lud", "seq", mutate=lambda c: c.with_arbitration("round-robin")))


def test_identical_with_operation_cache():
    from repro.sim.opcache import OpCacheSpec
    _assert_four_way(_run_all(
        "lud", "seq",
        mutate=lambda c: c.with_op_cache(OpCacheSpec(capacity=8,
                                                     fill_penalty=4))))


class TestInterleavedFusion:
    """The interleaved (multithreaded) superblock paths must actually
    fire on the cells they target — a guard regression that silently
    turns fusion off would otherwise keep every equivalence test green
    while losing the speedup."""

    def _fused_node(self, benchmark, mode, mutate=None):
        bench = get_benchmark(benchmark)
        inputs = bench.make_inputs(1)
        config = baseline().with_engine("event").with_fusion(True)
        if mutate is not None:
            config = mutate(config)
        compiled = compile_program(bench.source(mode), config, mode=mode)
        node = make_node(config)
        node.run(compiled.program, overrides=inputs)
        return node

    @pytest.mark.parametrize("bench_name,mode",
                             [("lud", "tpe"), ("lud", "coupled")])
    def test_multithreaded_entry_fires_and_matches(self, bench_name,
                                                   mode):
        """Cells with several runnable threads must dispatch compiled
        interleavings (not just single-thread blocks) and still match
        the scan kernel bit for bit."""
        _assert_four_way(_run_all(bench_name, mode))
        node = self._fused_node(bench_name, mode)
        assert node.stats.fused_dispatches > 0
        # The interleaved table itself must have fired: at least one
        # multi-slot alignment compiled and was dispatched.
        assert node._mt_hits > 0

    def test_busy_memory_spans_fire(self):
        """Spans must dispatch while timed memory completions are in
        flight beyond the span end (the old guard demanded a fully
        idle memory system, which never holds on these cells)."""
        node = self._fused_node("lud", "coupled")
        assert node._mt_hits > 0
        assert node.stats.fused_dispatches > 0
        _assert_four_way(_run_all("lud", "coupled"))

    def test_round_robin_interleaving_identical(self):
        """Round-robin rotation is baked into the compiled schedule;
        the resume point must land exactly where the interpreted scan
        would leave it."""
        _assert_four_way(_run_all(
            "lud", "tpe",
            mutate=lambda c: c.with_arbitration("round-robin")))
        node = self._fused_node(
            "lud", "tpe",
            mutate=lambda c: c.with_arbitration("round-robin"))
        assert node._mt_hits > 0

    def test_hot_alignment_identical(self):
        """On figure8's one-IU one-FPU machine the coupled LUD threads
        contend for a single IU and a single FPU, so a few alignments
        recur far more often than on the baseline: the hottest must
        stay bit-identical across many dispatches of one executor."""
        def mix(config):
            return unit_mix(1, 1).with_engine(config.engine) \
                .with_fusion(config.fusion)
        results = _run_all("lud", "coupled", mutate=mix)
        _assert_four_way(results)
        assert results["scan"].cycles == 25_110
        node = self._fused_node("lud", "coupled", mutate=mix)
        hottest = max(entry[3] for entry in node._mt_table.values()
                      if entry is not None)
        assert hottest >= 64

    def test_cut_run_reports_interleaved_ladder(self):
        """A run cut short mid-interleaving carries the fusion state in
        its WatchdogError: the last fused span and the ladder counts."""
        bench = get_benchmark("lud")
        config = baseline().with_engine("event").with_fusion(True)
        compiled = compile_program(bench.source("coupled"), config,
                                   mode="coupled")
        with pytest.raises(WatchdogError) as info:
            run_program(compiled.program, config,
                        overrides=bench.make_inputs(1), max_cycles=10_000)
        message = str(info.value)
        assert "superblock fusion context:" in message
        assert "last fused dispatch: mt " in message
        ladder = next(line for line in message.splitlines()
                      if line.strip().startswith("interleaved ladder:"))
        for field in ("alignments=", "builds=", "hits="):
            assert field in ladder
        assert "promoted" not in ladder
        assert info.value.fusion["mt_ladder"]["hits"] > 0

    @pytest.mark.parametrize("pause_at", [400, 2001])
    def test_mid_span_snapshot_defuses_multithreaded(self, pause_at):
        """Pausing inside a multithreaded run de-fuses at the pause
        boundary (the pause clamp rejects any span crossing it), and
        both the original and a restored copy resume bit-identically."""
        fused = baseline().with_engine("event").with_fusion(True)
        plain = fused.with_fusion(False)
        bench = get_benchmark("lud")
        inputs = bench.make_inputs(1)
        compiled = compile_program(bench.source("coupled"), fused,
                                   mode="coupled")
        node = make_node(fused)
        assert node.run(compiled.program, overrides=inputs,
                        pause_at=pause_at) is None
        assert node.cycle == pause_at
        reference = run_program(
            compile_program(bench.source("coupled"), plain,
                            mode="coupled").program,
            plain, overrides=inputs)
        restored = Node.restore(node.snapshot())
        assert isinstance(restored, EventNode)
        _assert_identical(reference, restored.resume(), "restored")
        _assert_identical(reference, node.resume(), "resumed")


class TestPauseClampBoundary:
    """The pause clamp is exact, for both dispatch paths: a superblock
    whose last simulated cycle is ``pause_at - 1`` still fuses, while
    the same block with the pause one cycle earlier is rejected and the
    kernel falls back word-by-word so the run stops on exactly the
    requested cycle.  An off-by-one in either direction would show up
    here: too strict and fusion silently sheds spans near any pause,
    too loose and a pause lands mid-span."""

    CASES = [("lud", "seq", "_try_fuse"),
             ("lud", "tpe", "_try_fuse_mt")]

    def _spied_run(self, bench_name, mode, method, pause_at=None):
        """Run fused, recording every successful dispatch as a
        ``(entry_cycle, end_cycle)`` pair (the closure returns the
        span's last simulated cycle)."""
        config = baseline().with_engine("event").with_fusion(True)
        bench = get_benchmark(bench_name)
        compiled = compile_program(bench.source(mode), config, mode=mode)
        node = make_node(config)
        dispatches = []
        orig = getattr(node, method)

        def spy(cycle, max_cycles, watchdog_cycles, pause):
            end = orig(cycle, max_cycles, watchdog_cycles, pause)
            if end is not None:
                dispatches.append((cycle, end))
            return end

        setattr(node, method, spy)
        node.run(compiled.program, overrides=bench.make_inputs(1),
                 pause_at=pause_at)
        return node, dispatches

    def _reference(self, bench_name, mode):
        plain = baseline().with_engine("event").with_fusion(False)
        bench = get_benchmark(bench_name)
        compiled = compile_program(bench.source(mode), plain, mode=mode)
        return run_program(compiled.program, plain,
                           overrides=bench.make_inputs(1))

    @pytest.mark.parametrize("bench_name,mode,method", CASES)
    def test_span_ending_at_pause_minus_one_fuses(self, bench_name, mode,
                                                  method):
        __, dispatches = self._spied_run(bench_name, mode, method)
        assert dispatches, "no fused dispatches to anchor the boundary"
        c0, end0 = dispatches[len(dispatches) // 2]
        # Spans never overlap, so every earlier dispatch ends before c0
        # and is untouched by this pause; the chosen span's last cycle
        # is exactly pause_at - 1 and must still dispatch.
        node, paused = self._spied_run(bench_name, mode, method,
                                       pause_at=end0 + 1)
        assert (c0, end0) in paused
        assert node.cycle == end0 + 1
        _assert_identical(self._reference(bench_name, mode),
                          node.resume(), "resumed")

    @pytest.mark.parametrize("bench_name,mode,method", CASES)
    def test_span_crossing_pause_rejected(self, bench_name, mode, method):
        __, dispatches = self._spied_run(bench_name, mode, method)
        assert dispatches
        c0, end0 = dispatches[len(dispatches) // 2]
        # pause_at == end0: the span's last cycle would land on the
        # pause, so the dispatch must be rejected and the word-by-word
        # fallback must stop on exactly the requested cycle.
        node, paused = self._spied_run(bench_name, mode, method,
                                       pause_at=end0)
        assert (c0, end0) not in paused
        assert all(end < end0 for __, end in paused)
        assert node.cycle == end0
        _assert_identical(self._reference(bench_name, mode),
                          node.resume(), "resumed")


class TestSnapshotRestore:
    """Mid-run checkpoints under the event engine resume bit-identically
    — on the original node, and on a node restored from the snapshot
    (which must dispatch back to the event kernel)."""

    def _paused_node(self, config, pause_at=300, benchmark="fft",
                     mode="coupled"):
        bench = get_benchmark(benchmark)
        inputs = bench.make_inputs(1)
        compiled = compile_program(bench.source(mode), config, mode=mode)
        node = make_node(config)
        assert node.run(compiled.program, overrides=inputs,
                        pause_at=pause_at) is None
        full = run_program(compiled.program, config, overrides=inputs)
        return node, full

    def test_event_snapshot_roundtrip(self):
        config = baseline().with_engine("event")
        node, full = self._paused_node(config)
        snap = node.snapshot()
        restored = Node.restore(snap)
        assert isinstance(restored, EventNode)
        _assert_identical(full, restored.resume())
        _assert_identical(full, node.resume())

    def test_event_snapshot_roundtrip_with_faults(self):
        config = baseline().with_engine("event")
        config = config.with_faults(FaultPlan.random(7, config, rate=3.0,
                                                     horizon=4000))
        node, full = self._paused_node(config)
        restored = Node.restore(node.snapshot())
        assert isinstance(restored, EventNode)
        _assert_identical(full, restored.resume())

    def test_scan_snapshot_still_restores_scan(self):
        config = baseline().with_engine("scan")
        node, full = self._paused_node(config)
        restored = Node.restore(node.snapshot())
        assert type(restored) is Node
        _assert_identical(full, restored.resume())

    @pytest.mark.parametrize("pause_at", [97, 1000, 5001])
    def test_snapshot_mid_superblock_forces_defusion(self, pause_at):
        """Pausing at a cycle a superblock would span must de-fuse at
        the boundary: the kernel falls back word-by-word so the pause
        lands on exactly the requested cycle, and resuming (original or
        restored copy, fusion re-enabled) matches the fusion-off run
        bit for bit."""
        fused = baseline().with_engine("event").with_fusion(True)
        plain = fused.with_fusion(False)
        node, full = self._paused_node(fused, pause_at=pause_at,
                                       benchmark="lud", mode="seq")
        reference = run_program(
            compile_program(get_benchmark("lud").source("seq"), plain,
                            mode="seq").program,
            plain, overrides=get_benchmark("lud").make_inputs(1))
        assert node.cycle == pause_at
        restored = Node.restore(node.snapshot())
        assert isinstance(restored, EventNode)
        _assert_identical(reference, full, "fused-full")
        _assert_identical(reference, restored.resume(), "restored")
        _assert_identical(reference, node.resume(), "resumed")

    def test_snapshot_mid_superblock_restored_without_fusion(self):
        """A snapshot taken under fusion restores cleanly onto a config
        whose engine still allows fusion but whose run continues
        word-by-word to completion (fusion state is not part of the
        architectural snapshot)."""
        fused = baseline().with_engine("event").with_fusion(True)
        node, full = self._paused_node(fused, pause_at=211,
                                       benchmark="matrix", mode="seq")
        restored = Node.restore(node.snapshot())
        restored._fusion = False      # de-fuse the restored copy only
        _assert_identical(full, restored.resume(), "restored-defused")


class TestBatchPeel:
    """The batch lane engine's peel discipline, pinned on purpose-built
    programs whose lanes *are* divergent: a lane that disagrees with
    the lockstep majority on a branch direction, a memory address, or
    an arithmetic fault must peel off (recorded with its reason and
    cycle), every surviving lane must stay bit-identical to its own
    scalar run, and a peeled lane's scalar re-run must reproduce its
    result — or its error — exactly.  A clean cell must peel nothing
    (the dormancy check: a backend that silently full-peels would pass
    every equivalence test while delivering zero speedup)."""

    BRANCHY = """
    (program
      (const N 4)
      (global A N)
      (global B N)
      (main
        (for (i 0 N)
          (let ((x (aref A i)))
            (if (> x 0.0)
                (aset! B i (* x 2.0))
                (aset! B i (- 0.0 x)))))))
    """

    DIVIDES = """
    (program
      (const N 4)
      (global A N)
      (global B N)
      (main
        (for (i 0 N)
          (aset! B i (/ 1.0 (aref A i))))))
    """

    INDIRECT = """
    (program
      (const N 4)
      (global IDX N :int)
      (global A N)
      (global B N)
      (main
        (for (i 0 N)
          (aset! B i (aref A (aref IDX i))))))
    """

    def _config(self):
        return baseline().with_engine("event").with_fusion(False)

    def _compiled(self, source, config):
        return compile_program(source, config, mode="seq").program

    def _scalar(self, program, config, inputs):
        return run_program(program, config, overrides=inputs)

    def _check_lanes(self, program, config, lane_inputs):
        """Run the bundle and compare every surviving lane against its
        own scalar run; returns the BatchOutcome for peel asserts."""
        outcome = run_batch(program, config, lane_inputs)
        for lane in outcome.lockstep_lanes:
            _assert_identical(self._scalar(program, config,
                                           lane_inputs[lane]),
                              outcome.results[lane],
                              "batch-lane%d" % lane)
        return outcome

    def test_minority_branch_divergence_peels(self):
        config = self._config()
        program = self._compiled(self.BRANCHY, config)
        pos = [1.0, 2.0, 3.0, 4.0]
        lanes = [list(pos) for __ in range(4)]
        lanes[2][1] = -5.0            # lane 2 takes the other side
        lane_inputs = [{"A": a} for a in lanes]
        outcome = self._check_lanes(program, config, lane_inputs)
        assert sorted(outcome.peeled) == [2]
        reason, cycle = outcome.peeled[2]
        assert reason == "branch" and cycle > 0
        assert outcome.lockstep_lanes == [0, 1, 3]
        # Merge-back: the peeled lane's scalar re-run is its own run.
        _assert_identical(self._scalar(program, config, lane_inputs[2]),
                          self._scalar(program, config, lane_inputs[2]),
                          "peeled-rerun")

    def test_two_lane_tie_keeps_lane_zero(self):
        config = self._config()
        program = self._compiled(self.BRANCHY, config)
        lane_inputs = [{"A": [1.0, 2.0, 3.0, 4.0]},
                       {"A": [1.0, -2.0, 3.0, 4.0]}]
        outcome = self._check_lanes(program, config, lane_inputs)
        # A 1-vs-1 vote is a tie; the side containing the lowest live
        # lane wins, so lane 0 must never peel on a two-lane vote.
        assert outcome.lockstep_lanes == [0]
        assert outcome.peeled[1][0] == "branch"

    def test_lane_local_arithmetic_trap_peels_and_reproduces(self):
        from repro.errors import SimulationError
        config = self._config()
        program = self._compiled(self.DIVIDES, config)
        lane_inputs = [{"A": [1.0, 2.0, 4.0, 5.0]},
                       {"A": [1.0, 0.0, 4.0, 5.0]},   # traps at i=1
                       {"A": [2.0, 2.0, 4.0, 5.0]}]
        outcome = self._check_lanes(program, config, lane_inputs)
        assert sorted(outcome.peeled) == [1]
        assert outcome.peeled[1][0] == "fdiv-by-zero"
        assert outcome.lockstep_lanes == [0, 2]
        # The scalar re-run reproduces the trap as the scalar kernel's
        # own error, exactly as a serial Harness.run would fail.
        with pytest.raises(SimulationError):
            self._scalar(program, config, lane_inputs[1])

    def test_address_divergence_peels(self):
        config = self._config()
        program = self._compiled(self.INDIRECT, config)
        base = {"IDX": [0, 1, 2, 3], "A": [10.0, 20.0, 30.0, 40.0]}
        diverged = {"IDX": [0, 3, 2, 1], "A": [10.0, 20.0, 30.0, 40.0]}
        lane_inputs = [dict(base), dict(base), dict(diverged)]
        outcome = self._check_lanes(program, config, lane_inputs)
        assert sorted(outcome.peeled) == [2]
        assert outcome.peeled[2][0] == "mem-address"
        assert outcome.lockstep_lanes == [0, 1]

    def test_divergence_under_fault_plan(self):
        """The acceptance case: lanes that peel mid-run while a fault
        plan perturbs the shared machine timing.  Survivors must still
        be bit-identical to scalar runs under the same plan."""
        config = self._config()
        config = config.with_faults(FaultPlan.random(7, config, rate=2.0,
                                                     horizon=2000))
        program = self._compiled(self.BRANCHY, config)
        pos = [1.0, 2.0, 3.0, 4.0]
        lanes = [list(pos) for __ in range(4)]
        lanes[1][2] = -7.0
        lane_inputs = [{"A": a} for a in lanes]
        outcome = self._check_lanes(program, config, lane_inputs)
        assert sorted(outcome.peeled) == [1]
        assert outcome.peeled[1][0] == "branch"
        assert outcome.lockstep_lanes == [0, 2, 3]

    def test_clean_cell_peels_nothing(self):
        """Dormancy check on a real benchmark cell: divergence-free
        lanes must all finish in lockstep, with the lane counters on
        the stats record and zero peels."""
        bench = get_benchmark("matrix")
        config = self._config()
        program = compile_program(bench.source("coupled"), config,
                                  mode="coupled").program
        lane_inputs = [bench.make_inputs(seed) for seed in (1, 2, 3, 4)]
        outcome = self._check_lanes(program, config, lane_inputs)
        assert not outcome.peeled
        assert outcome.lockstep_lanes == [0, 1, 2, 3]
        stats = outcome.results[0].stats
        assert stats.batch_lanes == 4
        assert stats.batch_peeled_lanes == 0
