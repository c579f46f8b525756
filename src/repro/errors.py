"""Exception hierarchy for the processor-coupling reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with a single except clause while the
subclasses preserve which layer failed (machine description, compiler,
assembler, or simulator).
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """An invalid machine configuration was constructed or requested."""


class FaultConfigError(ConfigError):
    """An ill-formed fault-injection plan or event."""


class AsmError(ReproError):
    """Malformed assembly text or an ill-formed in-memory program."""


class CompileError(ReproError):
    """The compiler rejected a source program."""

    def __init__(self, message, form=None):
        if form is not None:
            message = "%s (in form: %s)" % (message, form)
        super().__init__(message)
        self.form = form


class SimulationError(ReproError):
    """The simulator detected an inconsistent machine state."""


class DeadlockError(SimulationError):
    """No thread can make progress and nothing is in flight.

    ``blocked`` holds (tid, name, word, reason) rows for every stuck
    thread; ``wait_for`` holds the detected wait-for cycle as a list of
    alternating thread/resource labels (empty when no cycle exists,
    e.g. a dangling wait on an address nothing will ever fill).
    ``fusion`` (fused event kernel only) is a dict describing the
    superblock machinery at the moment of death: last dispatched span
    entry point, per-reason de-fusion counters, quarantined entries,
    and the interleaved build-ladder state.
    """

    def __init__(self, message, blocked=None, wait_for=None, fusion=None):
        super().__init__(message)
        self.blocked = list(blocked or ())
        self.wait_for = list(wait_for or ())
        self.fusion = fusion


class WatchdogError(SimulationError):
    """The simulator ran out of its cycle budget or made no forward
    progress (livelock) for the configured watchdog window.

    ``cycle`` is where the run was cut, ``last_progress_cycle`` the
    last cycle on which any operation issued, completed, or wrote back,
    and ``blocked`` holds (tid, name, word, reason) rows describing
    why each live thread cannot proceed.  ``fusion`` carries the fused
    kernel's superblock context (see :class:`DeadlockError`) so a hang
    inside or around a fused span is debuggable without a rerun.
    """

    def __init__(self, message, cycle=None, last_progress_cycle=None,
                 blocked=None, fusion=None):
        super().__init__(message)
        self.cycle = cycle
        self.last_progress_cycle = last_progress_cycle
        self.blocked = list(blocked or ())
        self.fusion = fusion


class SanitizerError(SimulationError):
    """The runtime state sanitizer (``repro.sim.sanitize``) tripped.

    ``report`` is the structured :class:`~repro.sim.sanitize.
    SanitizerReport` dict; ``bundle_path`` points at the replayable
    reproducer bundle extracted at trip time (``repro replay <path>``
    re-executes it deterministically).  Both survive a round trip
    through a process pool: sweep workers raise these and the
    supervisor rebuilds them on the parent side.
    """

    def __init__(self, message, report=None, bundle_path=None):
        super().__init__(message)
        self.report = report
        self.bundle_path = bundle_path

    def __reduce__(self):
        # The default Exception reduce carries only args; keep the
        # report dict and bundle path across pickling so CellFailure
        # can attach the reproducer on the pool's parent side.
        return (self.__class__,
                (self.args[0], self.report, self.bundle_path))


class InvariantViolation(SanitizerError):
    """Tier-1: a strided architectural-invariant audit failed (presence
    bitmasks, completion-heap monotonicity, lost wakeups, arbiter
    starvation bounds, opcache fill-board consistency).  ``cycle`` is
    the audited cycle; ``violations`` lists every failed check."""

    def __init__(self, message, cycle=None, violations=None, report=None,
                 bundle_path=None):
        super().__init__(message, report=report, bundle_path=bundle_path)
        self.cycle = cycle
        self.violations = list(violations or ())

    def __reduce__(self):
        return (self.__class__,
                (self.args[0], self.cycle, self.violations, self.report,
                 self.bundle_path))


class DivergenceError(SanitizerError):
    """Tier-2: the fused run diverged from its shadow reference and
    graceful de-optimization could not converge them (quarantining the
    suspect superblocks and finally disabling fusion outright still
    reproduced the mismatch), so the divergence is not the fused
    path's fault — the state itself is corrupt."""


class InterpError(ReproError):
    """The reference interpreter rejected or could not run a program."""


class VerificationError(ReproError):
    """A simulation completed but its numeric output did not match the
    reference interpreter.

    Carries everything needed to reproduce the cell from the error
    alone: benchmark, mode, the config's ``run_signature()`` digest
    prefix, and the harness input seed.  ``problems`` holds every
    mismatch; the message shows the first three plus the total count.
    """

    SHOWN = 3

    def __init__(self, benchmark, mode, config_name, problems,
                 signature=None, seed=None):
        self.benchmark = benchmark
        self.mode = mode
        self.config_name = config_name
        self.problems = list(problems)
        self.signature = signature
        self.seed = seed
        shown = self.problems[:self.SHOWN]
        more = len(self.problems) - len(shown)
        message = ("%s/%s on %s produced wrong results: %d problem(s)"
                   % (benchmark, mode, config_name, len(self.problems)))
        message += ": %s" % (shown,)
        if more > 0:
            message += " (+%d more)" % more
        message += (" [run_signature=%s seed=%s]"
                    % (signature or "?", seed if seed is not None else "?"))
        super().__init__(message)


class CellTimeoutError(ReproError):
    """A sweep cell exceeded its wall-clock budget under supervised
    execution (``run_many(..., cell_timeout=...)``).  The hung worker
    is killed and the pool rebuilt; the cell is not retried (the
    simulator's own watchdog covers in-simulation livelock — a harness
    timeout means even that never fired)."""

    def __init__(self, benchmark, mode, timeout):
        super().__init__("%s/%s exceeded the %.1fs cell timeout"
                         % (benchmark, mode, timeout))
        self.benchmark = benchmark
        self.mode = mode
        self.timeout = timeout


class WorkerCrashError(ReproError):
    """A sweep worker process died (segfault, OOM kill, ...) while
    executing a cell, and retries were exhausted."""

    def __init__(self, benchmark, mode, attempts, cause=None):
        super().__init__(
            "%s/%s: worker process died (%d attempt(s)%s)"
            % (benchmark, mode, attempts,
               "; last error: %s" % cause if cause else ""))
        self.benchmark = benchmark
        self.mode = mode
        self.attempts = attempts
        self.cause = cause


class SweepJournalError(ReproError):
    """A sweep journal cannot be used for resume: its header records
    different harness parameters (seed, cycle budget, ...) than the
    sweep being resumed, so replaying its cells would mix results from
    two different experiments."""


class CellFailure:
    """Structured record of one failed sweep cell.

    Not an exception: with ``on_error="collect"`` these appear in the
    ``run_many`` result list *in place of* :class:`RunResult` for the
    cells that failed, so a sweep survives individual-cell failure and
    the caller can render/skip/retry them.  ``ok`` distinguishes the
    two result kinds without isinstance checks.
    """

    ok = False

    def __init__(self, benchmark, mode, error_type, message,
                 attempts=1, timed_out=False, key_digest=None,
                 reproducer=None):
        self.benchmark = benchmark
        self.mode = mode
        self.error_type = error_type
        self.message = message
        self.attempts = attempts
        self.timed_out = timed_out
        self.key_digest = key_digest
        # Sanitizer trips attach the reproducer bundle path extracted
        # at trip time; ``repro replay <path>`` re-executes it.
        self.reproducer = reproducer

    @classmethod
    def from_exception(cls, benchmark, mode, exc, attempts=1,
                       key_digest=None):
        return cls(benchmark, mode, type(exc).__name__, str(exc),
                   attempts=attempts,
                   timed_out=isinstance(exc, CellTimeoutError),
                   key_digest=key_digest,
                   reproducer=getattr(exc, "bundle_path", None))

    def as_record(self):
        """JSON-serializable shape (journal lines, bench reports)."""
        record = {"benchmark": self.benchmark, "mode": self.mode,
                  "error_type": self.error_type, "message": self.message,
                  "attempts": self.attempts, "timed_out": self.timed_out}
        if self.reproducer is not None:
            record["reproducer"] = self.reproducer
        return record

    def __repr__(self):
        return ("CellFailure(%s/%s %s: %s after %d attempt(s))"
                % (self.benchmark, self.mode, self.error_type,
                   self.message, self.attempts))
