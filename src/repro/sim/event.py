"""The event-driven simulator kernel.

:class:`EventNode` runs the same five-phase cycle model as the scan
kernel (:class:`~repro.sim.node.Node`) but organizes the work around
*events* instead of rescans, with three structural changes:

* **Predecode** — at load time every instruction word is compiled into
  :class:`~repro.sim.predecode.SlotPlan` objects (resolved opcode spec,
  flat operand offsets, prebuilt control payloads, home-unit index), so
  the per-cycle path does no dict lookups or spec resolution.
* **A single completion heap** — issued operations go into one global
  heap keyed ``(ready_cycle, unit_index, seq)``, which reproduces the
  scan kernel's drain order (units in table order, FIFO within a unit)
  while making "anything due this cycle?" a single peek.  The memory
  system is only ticked on cycles it has an event due.
* **Thread parking / wake queues** — a thread whose pending operations
  are all waiting on presence bits is *parked* and not rescanned;
  registers are thread-private, so only the thread's own writebacks can
  set its presence bits, and the writeback path unparks it.  Threads
  blocked on an operation-cache fill park with a timed wake.  Quiet
  stretches where every thread is parked are then jumped over wholesale
  — the generalization of the scan kernel's ``_skip_target`` fast path,
  with the same clamps so watchdog/pause/max-cycle checks fire on
  exactly the same cycle.

Issue-side statistics are batched into flat counters and folded into
:class:`~repro.sim.stats.Stats` when the loop exits (including via
pause or error), so the hot loop never touches a ``Counter``.

Every architecturally visible quantity — cycle counts, statistics,
memory contents and presence bits, RNG draw order, fault interactions —
is bit-identical to the scan kernel; ``tests/property`` enforces this.
"""

import copy
from bisect import bisect_left
from collections import defaultdict
from heapq import heappop, heappush

from ..errors import SimulationError
from .function_unit import WritebackEntry
from .memory import MemRequest
from .node import Node, SimResult
from .predecode import _WARMUP_DISPATCHES, compile_mt_run, decode_program
from .thread import DONE

#: Interleaved fusion caps the alignment width: the compile cost and
#: closure size grow with the thread count, while the probability of
#: the same alignment recurring falls off sharply past a handful of
#: threads.
_MT_MAX_SLOTS = 8
# Interleaved spans are compiled against a cycle horizon: long spans
# amortize dispatch overhead but fail their run-time guards more often
# (branch assumptions, memory hazards), so each alignment starts at
# _MT_HORIZON and halves on repeated failures down to _MT_MIN_HORIZON.
_MT_HORIZON = 64
_MT_MIN_HORIZON = 4
_MT_FAIL_LIMIT = 4
# Interleaved blocks are built by the cheap table-driven executor
# (~0.2ms), so they warm up after a few sightings.  A failed compile
# is retried once after a backoff, and a successful alignment is
# re-scheduled once its branch profile has matured (longer spans).
_MT_WARMUP = 4
_MT_RETRY_BACKOFF = 64       # sightings before retrying a failed compile
# Schedule-building spend is bounded by what fusion has earned back: a
# node may build at most 8 + 4*successes interleaved schedules, so a
# workload whose alignments never recur stops paying compile cost
# almost immediately while a fusion-friendly one is unconstrained.
_MT_BUILD_BASE = 64
_MT_BUILD_PER_HIT = 4
_MT_EXTEND_AFTER = 24        # successes before one bias-matured rebuild


class EventNode(Node):
    """Event-driven kernel; bit-identical to the scan kernel."""

    engine = "event"

    def __init__(self, config, observer=None, fast_forward=True):
        super().__init__(config, observer, fast_forward)
        self._build_unit_table()
        self._decoded = None
        # Completion heap: (ready, unit_index, seq, thread, plan, payload).
        self._pipe = []
        self._pipe_seq = 0
        # Timed thread wakes (operation-cache fills): (cycle, tid, thread).
        self._wake_heap = []
        self._wb_count = 0           # writeback entries across all units
        self._wb_pending = set()     # unit indexes with queued writebacks
        # With an unrestricted network every entry drains the cycle it
        # is visited and its dest list is never trimmed, so entries can
        # share the operation's own dest sequence instead of copying.
        self._wb_share = self.network.unrestricted
        # Stronger still: with no fault plan attached, a result that
        # completes in phase 1/2 of cycle C is *always* granted in
        # phase 3 of the same cycle (nothing reads presence bits in
        # between), so completions can commit registers directly and
        # skip the writeback buffers entirely.  (Two same-cycle writes
        # to one register would land in unit-table order under the scan
        # kernel and in phase order here, but that WAW race is a
        # scheduling bug the compiler's presence-bit discipline never
        # emits.)
        self._direct_wb = (self.network.unrestricted
                           and self.injector is None)
        self._use_opcache = config.op_cache is not None
        # Superblock fusion (see repro.sim.predecode): compiled
        # straight-line runs may only be dispatched under conditions
        # where their static schedule is provably exact — fully
        # connected network, no fault plan (both implied by direct
        # writeback), and no observer expecting per-issue callbacks.
        self._fusion = (getattr(config, "fusion", True)
                        and self._direct_wb and observer is None)
        # Interleaved superblocks, keyed by runnable-set alignment (see
        # _try_fuse_mt).  Not snapshot state: compilation is
        # deterministic, so a restored node just re-warms its table.
        self._mt_table = {}
        self._mt_heat = {}
        self._mt_retried = set()
        self._mt_builds = 0
        self._mt_hits = 0
        # Per-plan conditional-branch direction profile: [taken,
        # untaken] resolution counts.  compile_mt_run follows a branch
        # only while the observed direction — and the cumulative
        # probability across every branch followed so far — stays
        # decisive.
        self._br_bias = {}
        # Sanitizer hooks.  _quarantined holds (program, entry_ip)
        # pairs barred from fused dispatch (see quarantine_block); the
        # sanitize driver re-applies it after a rollback restore.
        # _dispatch_log, when set to a list, records the (program,
        # entry_ip) of every span dispatched — the shadow tier's
        # suspect list for divergence triage.  _last_fused remembers
        # the most recent dispatch for watchdog/deadlock reports.
        self._quarantined = set()
        self._dispatch_log = None
        self._last_fused = None
        self._adv_any = False        # some thread may advance this cycle
        # Arbiter scan order, rebuilt only when membership changes.
        self._order = []
        self._order_tids = None
        self._order_dirty = True
        self._reset_issue_counters()

    def _build_unit_table(self):
        self._units_list = []
        self._unit_index = {}
        for index, uid in enumerate(self.unit_order):
            unit = self.units[uid]
            unit.index = index
            self._unit_index[uid] = index
            self._units_list.append(unit)

    def _reset_issue_counters(self):
        self._issued_counts = [0] * len(self._units_list)
        self._issued_tids = defaultdict(int)
        self._arb_losses = 0
        self._wb_grants_batch = 0

    # -- program load ----------------------------------------------------

    def _prepare(self, program):
        self._decoded = decode_program(program, self._unit_index,
                                       self.config)

    def spawn(self, thread_program, bindings=(), priority=None):
        thread = super().spawn(thread_program, bindings, priority)
        if thread is not None:
            if self._decoded is not None:
                thread.decoded = self._decoded[thread_program.name]
            self._adv_any = True         # fresh thread fetches its word
            self._order_dirty = True
        return thread

    # -- phases ----------------------------------------------------------

    def _complete_due(self, cycle):
        """Phase 1: drain due completions from the global heap."""
        pipe = self._pipe
        memory = self.memory
        units = self._units_list
        wb_pending = self._wb_pending
        share = self._wb_share
        direct = self._direct_wb
        count = 0
        wrote = 0
        while pipe and pipe[0][0] <= cycle:
            __, index, __, thread, plan, payload = heappop(pipe)
            count += 1
            if plan.is_memory:
                memory.submit(payload, cycle)
            elif plan.is_bru:
                if plan.untaken_payload is not None:
                    # Conditional branch: feed the direction profile the
                    # interleaved-superblock compiler schedules from.
                    counts = self._br_bias.get(plan)
                    if counts is None:
                        counts = self._br_bias[plan] = [0, 0]
                    if payload is plan.taken_payload:
                        counts[0] += 1
                    else:
                        counts[1] += 1
                self._resolve_plan_control(thread, payload)
            elif direct:
                triples = plan.dest_triples
                if triples:
                    frames = thread.frames
                    for cluster, reg, bit in triples:
                        frame = frames.get(cluster)
                        if frame is None:
                            frame = thread.frame(cluster)
                        frame._values[reg] = payload
                        frame._invalid &= ~bit
                        frame._used |= bit
                    wrote += len(triples)
                    thread.parked = False
            else:
                op = plan.op
                units[index].writebacks.append(WritebackEntry(
                    thread, op, payload,
                    op.dests if share else list(op.dests)))
                self._wb_count += 1
                wb_pending.add(index)
        if wrote:
            self._wb_grants_batch += wrote
        return count

    def _resolve_plan_control(self, thread, payload):
        kind = payload[0]
        if kind == "jump":
            thread.next_ip = payload[1]
        elif kind == "fork":
            self.spawn(self._program.thread(payload[1]), payload[2])
        else:                            # halt
            thread.halted = True
            if self.observer is not None:
                self.observer("halt", cycle=self.cycle, thread=thread)
        thread.control_inflight = False
        if not thread.pending_plans:
            thread.advance_ready = True
            self._adv_any = True

    def _complete_memory(self):
        """Phase 2: tick the memory system; loads join writeback."""
        completed = self.memory.tick(self.cycle)
        direct = self._direct_wb
        wrote = 0
        for request in completed:
            if request.spec.is_load:
                if direct:
                    thread = request.thread
                    frames = thread.frames
                    value = request.value
                    dests = request.op.dests
                    for dest in dests:
                        frame = frames.get(dest.cluster)
                        if frame is None:
                            frame = thread.frame(dest.cluster)
                        frame._values[dest.index] = value
                        bit = 1 << dest.index
                        frame._invalid &= ~bit
                        frame._used |= bit
                    if dests:
                        wrote += len(dests)
                        thread.parked = False
                else:
                    unit = self.units[request.unit_slot.uid]
                    op = request.op
                    unit.writebacks.append(WritebackEntry(
                        request.thread, op, request.value,
                        op.dests if self._wb_share else list(op.dests)))
                    self._wb_count += 1
                    self._wb_pending.add(unit.index)
        if wrote:
            self._wb_grants_batch += wrote
        return len(completed)

    def _write_back(self):
        """Phase 3: like the scan kernel's, plus writeback counting and
        unparking — a register write is the only thing that can make a
        presence-parked thread issuable (registers are thread-private),
        so the granting path is the wake hook.  Only units with queued
        entries are visited, and a fully connected network (every grant
        trivially succeeds) bypasses per-write arbitration, writing the
        register directly and batching the grant count."""
        wrote = 0
        cycle = self.cycle
        injector = self.injector
        network = self.network
        unrestricted = network.unrestricted
        if not unrestricted:
            network.new_cycle()
        units = self._units_list
        pending = self._wb_pending
        for index in sorted(pending):
            unit = units[index]
            entries = unit.writebacks
            if injector is not None \
                    and injector.writeback_blocked(unit.slot.uid, cycle):
                self.stats.fault_writeback_stalls += len(entries)
                continue
            if unrestricted:
                for entry in entries:
                    thread = entry.thread
                    frames = thread.frames
                    value = entry.value
                    for dest in entry.dests:
                        frame = frames.get(dest.cluster)
                        if frame is None:
                            frame = thread.frame(dest.cluster)
                        reg = dest.index
                        frame._values[reg] = value
                        bit = 1 << reg
                        frame._invalid &= ~bit
                        frame._used |= bit
                    wrote += len(entry.dests)
                    thread.parked = False
                self._wb_count -= len(entries)
                unit.writebacks = []
                pending.discard(index)
                continue
            cluster = unit.slot.cluster
            remaining = []
            for entry in entries:
                kept = []
                thread = entry.thread
                for dest in entry.dests:
                    if network.try_grant(cluster, dest.cluster):
                        thread.frame(dest.cluster).write(dest.index,
                                                         entry.value)
                        wrote += 1
                        thread.parked = False
                    else:
                        kept.append(dest)
                entry.dests = kept
                if kept:
                    remaining.append(entry)
                else:
                    self._wb_count -= 1
            unit.writebacks = remaining
            if not remaining:
                pending.discard(index)
        if unrestricted and wrote:
            self.stats.writeback_grants += wrote
        return wrote

    def _advance_threads(self):
        """Phase 4: advance only threads flagged by issue/control
        resolution; drain the spawn queue exactly like the scan kernel."""
        if self._adv_any:
            self._adv_any = False
            cycle = self.cycle
            stats = self.stats
            still_active = []
            for thread in self.active:
                if not thread.advance_ready:
                    still_active.append(thread)
                    continue
                thread.advance_ready = False
                if self._advance_plan(thread):
                    still_active.append(thread)
                else:
                    thread.finish_cycle = cycle
                    stats.thread_finish_cycle[thread.tid] = cycle
                    stats.threads_finished += 1
                    self.finished.append(thread)
                    self._order_dirty = True
            self.active = still_active
        limit = self.config.max_active_threads
        while self._spawn_queue and (limit is None
                                     or len(self.active) < limit):
            program, bindings, priority = self._spawn_queue.popleft()
            self.spawn(program, bindings, priority)

    def _advance_plan(self, thread):
        """Plan-based ThreadContext.advance()."""
        if thread.halted:
            thread.state = DONE
            return False
        target = thread.next_ip if thread.next_ip is not None \
            else thread.ip + 1
        thread.next_ip = None
        words = thread.decoded.words
        if target >= len(words):
            raise SimulationError(
                "thread %r fell off the end of its code (missing halt)"
                % thread.name)
        thread.ip = target
        thread.pending_plans = list(words[target].plans)
        return True

    def _issue(self):
        """Phase 5: the scan kernel's arbitration and issue rules over
        predecoded plans, skipping parked threads and parking any
        thread that provably cannot act until a wake condition fires."""
        if self._order_dirty:
            self._rebuild_order()
        active = self.active
        if not active:
            return 0
        order = self._order
        tids = self._order_tids
        if tids is not None:             # round-robin rotates every cycle
            order = self.arbiter.rotate_sorted(order, tids)
        issued = 0
        claimed = set()              # claimed unit table indexes
        self._fault_stalled = False
        injector = self.injector
        use_cache = self._use_opcache
        plain = injector is None and not use_cache
        cycle = self.cycle
        units = self._units_list
        counts = self._issued_counts
        for thread in order:
            if thread.parked:
                continue
            pending = thread.pending_plans
            if not pending:
                continue                 # control operation in flight
            frames = thread.frames
            # A thread may park only when nothing it can do this cycle
            # has side effects: no issue, no arbitration loss, and (with
            # a fault plan) no per-cycle injector consultation at all.
            can_park = injector is None
            wake = None
            # Iterating a one-element list that at most loses that one
            # element is safe without a copy (the common case).
            plans = pending if len(pending) == 1 else list(pending)
            for plan in plans:
                single = plan.single_wait
                if single is not None:
                    frame = frames.get(single[0])
                    if frame is not None and frame._invalid & single[1]:
                        continue
                else:
                    ready = True
                    for cluster, mask in plan.wait_groups:
                        frame = frames.get(cluster)
                        if frame is not None and frame._invalid & mask:
                            ready = False
                            break
                    if not ready:
                        continue
                if plain:
                    # No fault plan and no operation cache: the home
                    # unit is the only candidate, so the claim check
                    # needs no unit lookup at all.
                    index = plan.unit_index
                    if index in claimed:
                        self._arb_losses += 1
                        can_park = False
                        continue
                    unit = units[index]
                else:
                    unit = units[plan.unit_index]
                    if injector is not None \
                            and injector.unit_offline(plan.uid, cycle):
                        unit = self._reroute_target(unit, claimed)
                        if unit is None:
                            self.stats.fault_issue_stalls += 1
                            self._fault_stalled = True
                            continue
                    if use_cache:
                        cache = unit.opcache
                        if cache is not None \
                                and not cache.ready(thread, cycle):
                            # Operation-cache fill in progress: a timed
                            # wake.
                            if can_park:
                                fill = cache.fill_ready_cycle(thread)
                                if fill is None:
                                    can_park = False
                                elif wake is None or fill < wake:
                                    wake = fill
                            continue
                    index = unit.index
                    if index in claimed:
                        self._arb_losses += 1
                        can_park = False
                        continue
                    if index != plan.unit_index:
                        self.stats.fault_reroutes += 1
                self._issue_plan(unit, thread, plan, cycle)
                counts[index] += 1
                claimed.add(index)
                issued += 1
                can_park = False
            if can_park and thread.pending_plans:
                thread.parked = True
                if wake is not None:
                    heappush(self._wake_heap, (wake, thread.tid, thread))
        return issued

    def _reroute_target(self, unit, claimed):
        """The scan kernel's reroute, keyed by unit table index (the
        event kernel's per-cycle claim set holds indexes, not uids)."""
        if not self.injector.reroute:
            return None
        cycle = self.cycle
        kind = unit.slot.kind
        for candidate in self._units_list:
            if candidate.slot.kind is not kind \
                    or candidate.index in claimed:
                continue
            if self.injector.unit_offline(candidate.slot.uid, cycle):
                continue
            return candidate
        return None

    def _gather_values(self, plan, frames):
        template = plan.values_template
        if template is None:
            return []
        values = template[:]
        for pos, cluster, index in plan.src_fields:
            frame = frames.get(cluster)
            if frame is None:
                values[pos] = 0
            else:
                stored = frame._values
                values[pos] = stored[index] \
                    if index < len(stored) else 0
        return values

    def _issue_plan(self, unit, thread, plan, cycle):
        frames = thread.frames
        ex = plan.exec_fn
        if ex is not None:            # compute op, specialized gather
            try:
                payload = ex(frames)
            except ArithmeticError as exc:
                values = self._gather_values(plan, frames)
                raise SimulationError(
                    "thread %s: %s%r raised %s at cycle %d"
                    % (thread.name, plan.name, tuple(values), exc, cycle))
        elif not plan.is_memory and not plan.is_bru:
            values = self._gather_values(plan, frames)
            try:
                payload = plan.semantics(*values)
            except ArithmeticError as exc:
                raise SimulationError(
                    "thread %s: %s%r raised %s at cycle %d"
                    % (thread.name, plan.name, tuple(values), exc, cycle))
        elif plan.is_memory:
            values = self._gather_values(plan, frames)
            if plan.is_load:
                addr = int(values[0]) + int(values[1])
                payload = MemRequest(thread, plan.op, unit.slot, addr,
                                     spec=plan.spec)
            else:
                addr = int(values[1]) + int(values[2])
                payload = MemRequest(thread, plan.op, unit.slot, addr,
                                     store_value=values[0], spec=plan.spec)
        else:
            control = plan.control
            if control == "brt" or control == "brf":
                values = self._gather_values(plan, frames)
            if control == "fork":
                bindings = []
                for child_reg, is_reg, a, b in plan.bindings_plan:
                    if is_reg:
                        frame = frames.get(a)
                        if frame is None:
                            bindings.append((child_reg, 0))
                        else:
                            stored = frame._values
                            bindings.append((child_reg, stored[b]
                                             if b < len(stored) else 0))
                    else:
                        bindings.append((child_reg, a))
                payload = ("fork", plan.fork_name, bindings)
            elif control == "brt":
                payload = plan.taken_payload if values[0] \
                    else plan.untaken_payload
            elif control == "brf":
                payload = plan.untaken_payload if values[0] \
                    else plan.taken_payload
            else:                        # br / halt
                payload = plan.taken_payload
            thread.control_inflight = True
        for cluster, index, bit in plan.dest_triples:
            frame = frames.get(cluster)
            if frame is None:
                frame = thread.frame(cluster)
            stored = frame._values
            if index >= len(stored):
                stored.extend([0] * (index + 1 - len(stored)))
            frame._invalid |= bit
        pending = thread.pending_plans
        pending.remove(plan)
        if not pending and not thread.control_inflight:
            thread.advance_ready = True
            self._adv_any = True
        self._pipe_seq += 1
        heappush(self._pipe, (cycle + unit.latency, unit.index,
                              self._pipe_seq, thread, plan, payload))
        tids = self._issued_tids
        tids[thread.tid] += 1
        observer = self.observer
        if observer is not None:
            observer("issue", cycle=cycle, thread=thread,
                     unit=unit.slot.uid, op=plan.op)

    def _rebuild_order(self):
        if self.arbiter.name == "round-robin":
            order = sorted(self.active, key=_by_tid)
            self._order_tids = [t.tid for t in order]
        else:
            order = sorted(self.active, key=_by_priority)
            self._order_tids = None
        self._order = order
        self._order_dirty = False

    # -- main loop --------------------------------------------------------

    def _loop(self, max_cycles, watchdog_cycles=None, pause_at=None):
        try:
            return self._event_loop(max_cycles, watchdog_cycles, pause_at)
        finally:
            # Fold the batched issue counters into Stats no matter how
            # the loop exits (completion, pause, watchdog, deadlock), so
            # Stats is always coherent for reporting and snapshots.
            self._flush_issue_counters()

    def _event_loop(self, max_cycles, watchdog_cycles, pause_at):
        memory = self.memory
        # The memory system's heaps are mutated strictly in place, so
        # these bindings stay valid for the life of the loop and make
        # the per-cycle "anything due?" gates plain list peeks.
        mem_if = memory._in_flight
        mem_def = memory._deferred_bits
        pipe = self._pipe
        wake_heap = self._wake_heap
        stats = self.stats
        fusion = self._fusion
        while True:
            cycle = self.cycle
            while wake_heap and wake_heap[0][0] <= cycle:
                heappop(wake_heap)[2].parked = False
            completed = self._complete_due(cycle) \
                if pipe and pipe[0][0] <= cycle else 0
            if (mem_if and mem_if[0][0] <= cycle) \
                    or (mem_def and mem_def[0][0] <= cycle):
                completed += self._complete_memory()
            wrote = self._write_back() if self._wb_count else 0
            if self._adv_any or self._spawn_queue:
                self._advance_threads()
            issued = 0
            if fusion and not pipe and not wake_heap \
                    and not self._wb_count and not self._spawn_queue \
                    and self.active:
                if len(self.active) == 1:
                    end = self._try_fuse(cycle, max_cycles,
                                         watchdog_cycles, pause_at)
                else:
                    end = self._try_fuse_mt(cycle, max_cycles,
                                            watchdog_cycles, pause_at)
                if end is not None:
                    cycle = end
                    issued = 1
            if not issued:
                issued = self._issue()
            cycle += 1
            self.cycle = cycle
            stats.cycles = cycle
            san = self.sanitizer
            if san is not None and cycle >= san.next_cycle:
                san.check(self, cycle)
            if issued or completed or wrote:
                self._last_progress = cycle
            if not self.active and not self._spawn_queue \
                    and not pipe and self._wb_count == 0 \
                    and memory.idle():
                break
            if cycle >= max_cycles:
                raise self._watchdog_error(
                    "exceeded %d cycles (program %s on %s)"
                    % (max_cycles, self._program.main, self.config.name))
            quiet = issued == 0 and completed == 0 and wrote == 0
            in_flight = False
            if quiet:
                in_flight = (self._fault_stalled or bool(pipe)
                             or self._wb_count > 0
                             or bool(mem_if) or bool(mem_def)
                             or self._any_fills())
                if not in_flight:
                    self._frozen += 1
                    if self._frozen >= 2:
                        self._raise_deadlock()
                else:
                    self._frozen = 0
            else:
                self._frozen = 0
            if watchdog_cycles is not None \
                    and cycle - self._last_progress >= watchdog_cycles:
                raise self._watchdog_error(
                    "livelock: no operation issued, completed, or wrote "
                    "back for %d cycles (program %s on %s)"
                    % (watchdog_cycles, self._program.main,
                       self.config.name))
            if pause_at is not None and cycle >= pause_at:
                return None
            if self.fast_forward and quiet and in_flight \
                    and self._wb_count == 0 \
                    and not self._fault_stalled \
                    and (self.injector is None
                         or all(t.parked for t in self.active)):
                # Every unparked thread was scanned and could not act;
                # parked threads wait on their own timed or writeback
                # events.  Jump to the next event, with the scan
                # kernel's clamps so watchdog/pause/max-cycles fire on
                # exactly the same cycle.
                wake = pipe[0][0] if pipe else None
                event = memory.next_event_cycle()
                if event is not None and (wake is None or event < wake):
                    wake = event
                if wake_heap and (wake is None or wake_heap[0][0] < wake):
                    wake = wake_heap[0][0]
                if self._use_opcache:
                    # In-flight operation-cache fills count as
                    # in_flight above but live in no heap: a thread can
                    # be pinned awake on a fill (its park was vetoed by
                    # an arbitration loss or a shared fill it did not
                    # start), leaving the fill's completion cycle as
                    # the only upcoming event.  Without this candidate
                    # the jump would overshoot it — or never happen.
                    fill = self._next_fill_ready()
                    if fill is not None and (wake is None or fill < wake):
                        wake = fill
                if wake is not None:
                    target = min(wake, max_cycles - 1)
                    if watchdog_cycles is not None:
                        target = min(target, self._last_progress
                                     + watchdog_cycles - 1)
                    if pause_at is not None:
                        target = min(target, pause_at - 1)
                    if target > cycle:
                        delta = target - cycle
                        self.arbiter.advance(delta, self.active)
                        self.cycle = target
                        stats.cycles = target
                        self.ffwd_jumps += 1
                        self.ffwd_cycles += delta
        return SimResult(self.stats, self.memory, self._program,
                         self.config, self.finished + self.active)

    def _try_fuse(self, cycle, max_cycles, watchdog_cycles, pause_at):
        """Dispatch a compiled superblock if every guard holds.

        Called with the pipeline, wake queue, writeback buffers, and
        spawn queue empty and exactly one active thread, so the machine
        state a block's static schedule assumes is fully determined by
        the remaining guards: the thread is at a block entry with its
        word un-issued, no timed memory event is due inside the span
        (busy addresses are guarded per access inside the closure),
        every register presence bit is valid, and (with an operation
        cache) every line the block touches is resident.  Returns the
        new current cycle, or None to fall back to the interpreted
        path.
        """
        thread = self.active[0]
        if thread.parked or thread.control_inflight:
            return None
        decoded = thread.decoded
        if decoded is None or decoded.blocks is None:
            return None
        ip = thread.ip
        reasons = self.stats.defuse_reasons
        if self._quarantined and (decoded.name, ip) in self._quarantined:
            reasons["quarantined"] += 1
            return None
        block = decoded.blocks.get(ip)
        if block is None:
            return None
        if len(thread.pending_plans) != block.n_plans:
            reasons["st_partial_word"] += 1
            return None
        # Memory-tolerant span: an in-service or deferred access whose
        # completion falls past the block's last cycle cannot interact
        # with it (per-address collisions are guarded in the closure),
        # so clamp against the next timed event instead of demanding
        # full quiescence.  Parked sync waiters have no timed event at
        # all — they only move when a presence bit changes, which the
        # closure's per-store guard rejects — so they impose no clamp.
        event = self.memory.next_event_cycle()
        if event is not None and event <= cycle + block.last_rel:
            reasons["st_mem_event"] += 1
            return None
        span = block.last_rel + 1
        if cycle + span >= max_cycles \
                or (watchdog_cycles is not None
                    and watchdog_cycles <= span) \
                or (pause_at is not None
                    and pause_at <= cycle + block.last_rel):
            reasons["st_clamp"] += 1
            return None
        for frame in thread.frames.values():
            if frame._invalid:
                reasons["st_presence"] += 1
                return None
        if self._use_opcache:
            units = self._units_list
            for index, key in block.cache_checks:
                cache = units[index].opcache
                if cache is not None and key not in cache._lines:
                    reasons["st_opcache_cold"] += 1
                    return None
        end = block.fn(self, thread, cycle)
        if end is None:
            reasons["st_guard_bail"] += 1
        else:
            self.stats.fused_dispatches += 1
            self._last_fused = ("st", ((decoded.name, ip),), cycle)
            log = self._dispatch_log
            if log is not None:
                log.append((decoded.name, ip))
        return end

    def _try_fuse_mt(self, cycle, max_cycles, watchdog_cycles, pause_at):
        """Dispatch a compiled interleaved superblock over the current
        runnable set (see :func:`repro.sim.predecode.compile_mt_run`).

        Called under the same emptiness preconditions as
        :meth:`_try_fuse` but with N > 1 active threads.  The runnable
        set is keyed by its *alignment* — per arbiter scan position,
        the (program, ip) of a runnable thread at a fully un-issued
        word, or None for a parked one.  For round-robin the key is
        rotated to the scan head first, so one compiled schedule serves
        every entry state with the same rotated alignment.  The span is
        clamped exactly like the single-thread path; parked threads
        cannot wake inside it (every in-span landing belongs to a
        scheduled thread, and presence-changing stores to addresses
        with parked waiters are guarded in the closure).
        """
        if self._use_opcache:
            return None
        if self._order_dirty:
            self._rebuild_order()
        order = self._order
        if len(order) > _MT_MAX_SLOTS:
            self.stats.defuse_reasons["mt_width"] += 1
            return None
        tids = self._order_tids
        if tids is not None:
            # Peek at the rotation without consuming it: the closure
            # commits the arbiter's resume point itself, and a guard
            # failure must leave the interpreted scan untouched.
            start = bisect_left(tids, self.arbiter._next)
            if start >= len(tids):
                start = 0
            if start:
                order = order[start:] + order[:start]
        # Only the hashable alignment key is built here, every call;
        # the decoded-object slot tuple the compiler needs is
        # reconstructed from ``order`` at the (rare) compile site —
        # alignments that never warm up, the common case on irregular
        # cells, then cost one tuple per thread instead of two.
        key_parts = []
        nsched = 0
        for thread in order:
            if thread.parked:
                key_parts.append(None)
                continue
            if thread.control_inflight:
                return None
            decoded = thread.decoded
            if decoded is None:
                return None
            ip = thread.ip
            words = decoded.words
            if ip >= len(words):
                return None
            word_plans = words[ip].plans
            pending = thread.pending_plans
            if len(pending) == len(word_plans):
                key_parts.append((decoded.name, ip))
            elif not pending:
                return None
            else:
                # Partially issued word: the un-issued remainder is an
                # ordered subsequence of the word's slots (issue
                # removes plans in place), so a single two-pointer walk
                # pins it as a position bitmask and the alignment stays
                # compilable mid-word.
                mask = 0
                take = 0
                npend = len(pending)
                for pos, plan in enumerate(word_plans):
                    if take < npend and plan is pending[take]:
                        mask |= 1 << pos
                        take += 1
                if take != npend:
                    self.stats.defuse_reasons["mt_partial"] += 1
                    return None
                key_parts.append((decoded.name, ip, mask))
            nsched += 1
        if not nsched:
            return None
        if self._quarantined:
            for part in key_parts:
                if part is not None \
                        and (part[0], part[1]) in self._quarantined:
                    self.stats.defuse_reasons["quarantined"] += 1
                    return None
        key = tuple(key_parts)
        entry = self._mt_table.get(key, False)
        if entry is False:
            heat = self._mt_heat.get(key, 0) + 1
            if heat < _MT_WARMUP:
                self._mt_heat[key] = heat
                self.stats.defuse_reasons["mt_warmup"] += 1
                return None
            if self._mt_builds >= _MT_BUILD_BASE \
                    + _MT_BUILD_PER_HIT * self._mt_hits:
                self.stats.defuse_reasons["mt_build_budget"] += 1
                return None
            self._mt_heat.pop(key, None)
            self._mt_builds += 1
            slots = tuple(
                None if part is None
                else (thread.decoded, part[1]) if len(part) == 2
                else (thread.decoded, part[1], part[2])
                for thread, part in zip(order, key_parts))
            block = compile_mt_run(slots, self.config,
                                   self.config.arbitration, _MT_HORIZON,
                                   self._br_bias)
            if block is None:
                # Often a cold branch profile: give the alignment one
                # more shot after its profile has had time to mature,
                # then go inert for good.
                if key in self._mt_retried:
                    self._mt_table[key] = None
                else:
                    self._mt_retried.add(key)
                    self._mt_heat[key] = -_MT_RETRY_BACKOFF
                self.stats.defuse_reasons["mt_compile_fail"] += 1
                return None
            entry = [block, _MT_HORIZON, 0, 0, slots]
            self._mt_table[key] = entry
        if entry is None:
            self.stats.defuse_reasons["mt_inert"] += 1
            return None
        block = entry[0]
        last_rel = block.last_rel
        if cycle + last_rel + 1 >= max_cycles \
                or (watchdog_cycles is not None
                    and watchdog_cycles <= last_rel + 1) \
                or (pause_at is not None
                    and pause_at <= cycle + last_rel):
            self.stats.defuse_reasons["mt_clamp"] += 1
            return None
        event = self.memory.next_event_cycle()
        if event is not None and event <= cycle + last_rel:
            self.stats.defuse_reasons["mt_mem_event"] += 1
            return None
        for thread in order:
            if not thread.parked:
                for frame in thread.frames.values():
                    if frame._invalid:
                        self.stats.defuse_reasons["mt_presence"] += 1
                        return None
        end = block.fn(self, order, cycle)
        if end is None:
            self.stats.defuse_reasons["mt_guard_bail"] += 1
            # A run-time guard bailed (branch assumption missed, or a
            # memory hazard mid-span).  Long schedules make both more
            # likely, so keep a failure score per alignment and halve
            # the span horizon when it keeps missing; alignments that
            # cannot fuse even at the minimum horizon go inert.
            entry[2] += 1
            if entry[2] >= _MT_FAIL_LIMIT:
                horizon = entry[1] // 2
                block = None
                if horizon >= _MT_MIN_HORIZON:
                    self._mt_builds += 1
                    block = compile_mt_run(entry[4], self.config,
                                           self.config.arbitration,
                                           horizon, self._br_bias)
                if block is None:
                    self._mt_table[key] = None
                else:
                    entry[0] = block
                    entry[1] = horizon
                    entry[2] = 0
            return None
        if entry[2]:
            entry[2] -= 1
        self._mt_hits += 1
        entry[3] += 1
        if entry[3] == _MT_EXTEND_AFTER \
                and block.last_rel + 1 < entry[1]:
            # The span ended well short of the horizon, usually because
            # the branch profile was still cold at compile time; one
            # rebuild against the matured profile can only lengthen it.
            # The threads have already advanced past the span, so the
            # rebuild must use the entry slots saved at compile time.
            self._mt_builds += 1
            rebuilt = compile_mt_run(entry[4], self.config,
                                     self.config.arbitration, entry[1],
                                     self._br_bias)
            if rebuilt is not None \
                    and rebuilt.last_rel > block.last_rel:
                entry[0] = rebuilt
        self.stats.fused_dispatches += 1
        parts = tuple((part[0], part[1]) for part in key
                      if part is not None)
        self._last_fused = ("mt", parts, cycle)
        log = self._dispatch_log
        if log is not None:
            log.extend(parts)
        return end

    # -- sanitizer hooks --------------------------------------------------

    def quarantine_block(self, name, entry_ip):
        """Bar the superblock entered at (program ``name``, word
        ``entry_ip``) from fused dispatch, permanently: the single-
        thread entry is tombstoned in its BlockTable and every compiled
        interleaved alignment scheduling that entry goes inert.  The
        simulation continues un-fused over that span instead of dying —
        the sanitizer's graceful de-optimization.  Idempotent; returns
        True when the entry was newly quarantined.
        """
        key = (name, entry_ip)
        if key in self._quarantined:
            return False
        self._quarantined.add(key)
        if self._decoded is not None:
            decoded = self._decoded.get(name)
            if decoded is not None and decoded.blocks is not None:
                decoded.blocks.quarantine(entry_ip)
        for mkey in list(self._mt_table):
            for part in mkey:
                if part is not None and part[0] == name \
                        and part[1] == entry_ip:
                    self._mt_table[mkey] = None
                    break
        self.stats.quarantined_blocks = len(self._quarantined)
        return True

    def _fusion_context(self):
        if not self._fusion:
            return None
        table = self._mt_table
        ladder = {
            "alignments": len(table),
            "inert": sum(1 for entry in table.values() if entry is None),
            "warming": len(self._mt_heat),
            "builds": self._mt_builds,
            "hits": self._mt_hits,
        }
        return {
            "last_dispatch": self._last_fused,
            "defuse_reasons": dict(self.stats.defuse_reasons),
            "quarantined": sorted(self._quarantined),
            "mt_ladder": ladder,
        }

    def _next_fill_ready(self):
        """The earliest completion cycle among in-flight operation-
        cache fills, or None when no fill is pending."""
        wake = None
        for unit in self._units_list:
            cache = unit.opcache
            if cache is not None and cache._fills:
                ready = cache.next_fill_ready()
                if wake is None or ready < wake:
                    wake = ready
        return wake

    def _any_fills(self):
        if self.config.op_cache is None:
            return False
        for unit in self._units_list:
            cache = unit.opcache
            if cache is not None and cache._fills:
                return True
        return False

    def _flush_issue_counters(self):
        stats = self.stats
        total = 0
        for unit, count in zip(self._units_list, self._issued_counts):
            if count:
                stats.issued_by_kind[unit.slot.kind] += count
                stats.issued_by_unit[unit.slot.uid] += count
                total += count
        stats.total_operations += total
        for tid, count in self._issued_tids.items():
            stats.issued_by_thread[tid] += count
        stats.arbitration_losses += self._arb_losses
        stats.writeback_grants += self._wb_grants_batch
        self._reset_issue_counters()

    # -- checkpoint / restore ---------------------------------------------

    _SNAPSHOT_FIELDS = Node._SNAPSHOT_FIELDS + (
        "_pipe", "_pipe_seq", "_wake_heap", "_wb_count", "_adv_any",
        "_decoded")

    def _snapshot_memo(self):
        """Pin the predecoded plans too: they are immutable and shared
        between the node, its snapshots, and restored copies — and
        pinning keeps thread.pending_plans entries identical to the
        plans inside ``_decoded``."""
        memo = super()._snapshot_memo()
        if self._decoded is not None:
            for decoded in self._decoded.values():
                memo[id(decoded)] = decoded
                for word in decoded.words:
                    memo[id(word)] = word
                    for plan in word.plans:
                        memo[id(plan)] = plan
        return memo

    def _after_restore(self):
        # restore() replaced self.units wholesale; re-derive the unit
        # table (and per-unit index attributes) and force an arbiter
        # order rebuild on the next issue.
        self._build_unit_table()
        self._wb_pending = {unit.index for unit in self._units_list
                            if unit.writebacks}
        self._wb_share = self.network.unrestricted
        self._order = []
        self._order_tids = None
        self._order_dirty = True
        self._reset_issue_counters()


def _by_tid(thread):
    return thread.tid


def _by_priority(thread):
    return (thread.priority, thread.tid)
