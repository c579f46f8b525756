"""End-to-end sanitizer properties: a sanitized run that never trips
is bit-identical to a plain run at every level; a deliberately
miscompiled superblock is caught by the shadow-differential tier,
quarantined, reported with a replayable reproducer bundle, and the run
still completes bit-identical to the unfused event kernel."""

import json
import os

import pytest

from repro import compile_program
from repro.machine import baseline, unit_mix
from repro.programs import get_benchmark
from repro.sim import predecode, run_program
from repro.sim.sanitize import SanitizerPolicy, replay_bundle, run_sanitized

#: Cells covering ST fusion (lud/seq), MT interleaved fusion
#: (lud/coupled), and the multithreaded general case (fft/tpe).
CELLS = [("matrix", "coupled"), ("fft", "tpe"), ("lud", "seq"),
         ("lud", "coupled")]


def _cell(bench_name, mode):
    bench = get_benchmark(bench_name)
    config = baseline().with_engine("event").with_fusion(True)
    compiled = compile_program(bench.source(mode), config, mode=mode)
    return bench, compiled, config, bench.make_inputs(1)


@pytest.mark.parametrize("bench_name,mode", CELLS)
def test_deep_sanitized_run_is_bit_identical(bench_name, mode):
    bench, compiled, config, inputs = _cell(bench_name, mode)
    plain = run_program(compiled.program, config, overrides=inputs)
    sanitized = run_sanitized(compiled.program, config,
                              overrides=inputs, policy="deep")
    assert sanitized.cycles == plain.cycles
    assert sanitized.memory._values == plain.memory._values
    assert sanitized.memory._empty == plain.memory._empty
    assert sanitized.stats.summary() == plain.stats.summary()
    assert sanitized.sanitizer.trips == 0
    assert sanitized.sanitizer.audits > 0
    if plain.stats.fused_dispatches:
        assert sanitized.sanitizer.shadow_checks > 0


def _tamper_all_blocks(monkeypatch):
    """Wrap the single-thread block builder so that every block it
    builds also corrupts memory word 0 on each successful span — a
    deterministic miscompile: a block rebuilt after a rollback, or on
    a bundle's replaying node, is as wrong as the first build, so only
    quarantine recovers the run.  Returns the (program, entry ip) list
    of blocks built so far.
    """
    real_compile = predecode._compile_run
    wrapped = []

    def compile_corrupt(thread_name, start, run, config):
        block = real_compile(thread_name, start, run, config)
        if block is None:
            return None
        real = block.fn

        def corrupt(node, thread, cycle):
            out = real(node, thread, cycle)
            if out is not None:
                values = node.memory._values
                values[0] = values.get(0, 0) + 999
            return out

        block.fn = corrupt
        wrapped.append((thread_name, start))
        return block

    monkeypatch.setattr(predecode, "_compile_run", compile_corrupt)
    return wrapped


class TestMiscompiledBlock:
    @pytest.fixture()
    def run(self, tmp_path, monkeypatch):
        bench, compiled, config, inputs = _cell("lud", "seq")
        reference = run_program(compiled.program,
                                config.with_fusion(False),
                                overrides=inputs)
        wrapped = _tamper_all_blocks(monkeypatch)
        policy = SanitizerPolicy(level="shadow",
                                 report_dir=str(tmp_path))
        result = run_sanitized(compiled.program, config,
                               overrides=inputs, policy=policy)
        assert wrapped, "the tampered builder built no blocks"
        return reference, result, wrapped

    def test_detected_quarantined_and_bit_identical(self, run):
        reference, result, wrapped = run
        summary = result.sanitizer
        # Tier 2 tripped and triaged instead of dying or silently
        # completing wrong.
        assert summary.trips >= 1
        assert summary.requarantines >= 1
        assert summary.quarantined
        assert set(map(tuple, summary.quarantined)) <= set(wrapped)
        # Graceful de-optimization: the corrupted spans are barred and
        # the run completes bit-identical to the unfused event kernel.
        assert result.cycles == reference.cycles
        assert result.memory._values == reference.memory._values
        assert result.stats.summary() == reference.stats.summary()
        # The quarantine surfaces in Stats and in the de-fusion
        # counters (quarantined entries decline future dispatches).
        assert result.stats.quarantined_blocks == len(summary.quarantined)
        assert result.stats.defuse_reasons.get("quarantined", 0) > 0

    def test_trip_writes_replayable_bundle(self, run):
        __, result, __ = run
        summary = result.sanitizer
        assert len(summary.reports) == 1
        bundle = summary.reports[0]
        meta = json.load(open(os.path.join(bundle, "meta.json")))
        assert meta["kind"] == "divergence"
        report = meta["report"]
        assert report["components"]
        assert report["suspects"]
        assert report["window"][1] > report["window"][0]
        # Replay restores the pre-divergence snapshot and re-runs
        # fused vs unfused.  The replaying node rebuilds its blocks
        # through the same miscompiling builder, so the divergence
        # reproduces.
        lines = []
        verdict = replay_bundle(bundle, out=lines.append)
        assert verdict["kind"] == "divergence"
        assert verdict["reproduced"] is True
        assert any(line.startswith("reproduced") for line in lines)


def test_shadow_mode_without_fusion_still_audits():
    # Shadow differential execution needs a fused primary; without one
    # the sanitizer degrades to the audit tier instead of failing.
    bench, compiled, config, inputs = _cell("matrix", "coupled")
    unfused = config.with_fusion(False)
    plain = run_program(compiled.program, unfused, overrides=inputs)
    result = run_sanitized(compiled.program, unfused,
                           overrides=inputs, policy="shadow")
    assert result.cycles == plain.cycles
    assert result.sanitizer.shadow_checks == 0
    assert result.sanitizer.audits > 0
    assert result.sanitizer.trips == 0


def test_first_window_trip_rolls_back_to_a_loaded_program(tmp_path):
    # Interleaved fusion diverges from the reference kernels on LUD
    # Coupled over the 2x2 unit mix (see test_prop_engine_equivalence),
    # and the shadow tier catches it inside its first window.  The
    # rollback target must hold the loaded program: a snapshot taken
    # before run() cannot resume.
    bench = get_benchmark("lud")
    config = unit_mix(2, 2)
    compiled = compile_program(bench.source("coupled"), config,
                               mode="coupled")
    inputs = bench.make_inputs(1)
    policy = SanitizerPolicy(level="shadow", report_dir=str(tmp_path))
    result = run_sanitized(compiled.program, config, overrides=inputs,
                           policy=policy)
    summary = result.sanitizer
    assert summary.trips >= 1
    assert result.cycles == 18_659        # the scan kernel's count
    assert len(summary.reports) == 1
    meta = json.load(open(os.path.join(summary.reports[0], "meta.json")))
    assert meta["report"]["window"][0] < policy.shadow_stride
    # The bundle's snapshot is a loaded program, so it replays.
    verdict = replay_bundle(summary.reports[0], out=lambda line: None)
    assert verdict["reproduced"] is True
