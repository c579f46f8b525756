"""Statistics, correctness tally and machine fingerprint.

The statistics and the tally work on plain values, so the self-tests
exercise them without running a simulation.
"""

import hashlib
import json
import math
import os
import re
import resource
import sys
import time

#: Metric names: a letter or digit, then up to 63 of ``[A-Za-z0-9_.-]``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Percentiles considered for a tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported only with at least this many samples
#: beyond it.
TAIL_MIN_BEYOND = 10


def samples_beyond(p, n):
    """How many of ``n`` sorted samples lie beyond the nearest-rank
    ``p``-th percentile."""
    return n - math.ceil(p / 100.0 * n)


def tail_percentile(n):
    """The highest candidate percentile with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it, or None."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(p, n) >= TAIL_MIN_BEYOND:
            return p
    return None


def min_samples_for(p):
    """The smallest sample count for which ``p`` is a reportable tail."""
    n = 1
    while samples_beyond(p, n) < TAIL_MIN_BEYOND:
        n += 1
    return n


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary_digest(summary):
    """Stable digest of a ``Stats.summary()`` dict."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class CellOutcome:
    """What one pass observed for one cell: a result, or the error the
    cell raised (reference-check failures raise too)."""

    __slots__ = ("cell", "cycles", "digest", "wall_s", "compile_s",
                 "error")

    def __init__(self, cell, cycles=None, digest=None, wall_s=0.0,
                 compile_s=0.0, error=None):
        self.cell = cell
        self.cycles = cycles
        self.digest = digest
        self.wall_s = wall_s
        self.compile_s = compile_s
        self.error = error


def tally(outcomes, ledger):
    """``(attempted, failed, problems)`` over one pass's outcomes.

    Every outcome is attempted, including cells that raised.  A cell
    fails if it raised (which covers the reference check) or if the
    golden ``ledger`` (cell -> ``[cycles, digest]``) holds it with
    other cycles or another digest.  A ledger digest of None pins the
    cycles only."""
    failed, problems = 0, []
    for outcome in outcomes:
        if outcome.error is not None:
            failed += 1
            problems.append("%s: %s" % (outcome.cell, outcome.error))
            continue
        pinned = ledger.get(outcome.cell)
        if pinned is None:
            continue
        cycles, digest = pinned
        if outcome.cycles != cycles or (digest is not None
                                        and outcome.digest != digest):
            failed += 1
            problems.append("%s: golden mismatch (cycles %s vs %s, "
                            "digest %s vs %s)"
                            % (outcome.cell, outcome.cycles, cycles,
                               outcome.digest, digest))
    return len(outcomes), failed, problems


def peak_rss_mb(pooled):
    """Peak resident set of this process, plus the largest reaped
    child when the passes used a worker pool."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def calibration_seconds(rounds=3, n=300_000):
    """Best-of-``rounds`` time of a fixed pure-Python loop: a
    machine-speed yardstick that no change to the repository moves."""
    best = None
    for __ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc + i * i) % 1_000_003
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fingerprint():
    """Facts about the machine that a result file must carry, so two
    files from different machines show the difference."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": sys.version.split()[0],
            "numpy": numpy_version,
            "nproc": usable_cpus(),
            "calibration_s": calibration_seconds()}
