"""Closed-loop op runner shared by every workload.

One client runs one op at a time: the next op starts when the previous one
has finished and its output has been checked.  Ops come in rounds; a round
holds a fixed mix of ordinary ops and known-defect probes, so the probe share
of a run does not depend on where the clock stops.  Only the library call is
timed; checking outputs happens between ops.

On a shared virtual machine the speed drifts by up to a third for tens of
seconds at a time (measured on 2 shared cores).  After every op the runner
therefore times a fixed calibration loop (a pure-Python loop plus SHA-256 of a buffer,
standard library only, independent of dilateq).  Timed figures are reported
at the reference speed: raw values scaled by ``slowdown`` = median loop time
/ ``CALIBRATION_REF_MS``.  Raw figures and the slowdown are kept in the
result file.
"""

from __future__ import annotations

import hashlib
import math
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

#: deadline of an ordinary op, far above the slowest op at the baseline
OP_DEADLINE = 10.0

#: deadline of a probe for a known hang; a fixed library answers in milliseconds
HANG_DEADLINE = 0.5

#: calibration loop time at the reference speed (2 cores, Python 3.11.7)
CALIBRATION_REF_MS = 1.4

_CALIBRATION_BUFFER = bytes(range(256)) * 1024

#: percentiles the tail latency may be reported at
TAIL_LADDER = (50.0, 75.0, 80.0, 85.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)


class Deadline(Exception):
    """The op ran past its deadline."""


class Mismatch(Exception):
    """The op finished but its output failed the oracle."""


@dataclass
class Op:
    """One library call plus the oracle that judges it.

    ``call()`` is the timed part; ``check(value)`` raises ``Mismatch`` when
    its output is wrong.  A probe (``probe=True``) exercises a known defect;
    it is judged by the same rule but kept out of throughput and latency.
    ``expect`` lists exception types that count as the correct outcome of the
    call.
    """

    kind: str
    layer: str
    call: Callable[[], Any]
    check: Callable[[Any], None] = lambda value: None
    probe: bool = False
    deadline: float = OP_DEADLINE
    expect: tuple[type, ...] = ()


@dataclass
class Outcome:
    kind: str
    layer: str
    probe: bool
    ok: bool
    seconds: float
    error: str = ""


def _alarm(signum, frame):
    raise Deadline()


def run_op(op: Op, on_start: Callable[[], None] | None = None) -> Outcome:
    """Time and judge one op."""
    value, error = None, ""
    if on_start is not None:
        on_start()
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.deadline)
        try:
            value = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        t1 = time.perf_counter()
        if op.expect:
            error = f"returned {value!r:.80} instead of raising {op.expect[0].__name__}"
    except Deadline:
        t1 = time.perf_counter()
        error = f"deadline {op.deadline:g} s exceeded"
    except op.expect:
        t1 = time.perf_counter()
    except Exception as exc:  # any library error fails the op, and the run goes on
        t1 = time.perf_counter()
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    if not error and not op.expect:
        try:
            op.check(value)
        except Mismatch as exc:
            error = f"oracle: {exc}"
    return Outcome(op.kind, op.layer, op.probe, not error, t1 - t0, error)


def calibration_ms() -> float:
    """Wall time of the fixed calibration loop, in ms."""
    t0 = time.perf_counter()
    total = 0
    for i in range(6000):
        total += i * i
    for _ in range(4):
        hashlib.sha256(_CALIBRATION_BUFFER).digest()
    return 1e3 * (time.perf_counter() - t0)


def tail_percentile(n: int, preferred: float) -> float:
    """``preferred``, or the highest lower rung with at least ten samples beyond."""
    for p in sorted((p for p in TAIL_LADDER if p <= preferred), reverse=True):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return TAIL_LADDER[0]


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def summarize(outcomes: list[Outcome], tail_pct: float, calibration: list[float]) -> dict:
    """End-to-end figures of one run (setup and memory are added by the caller)."""
    ordinary = [o for o in outcomes if not o.probe]
    lat = sorted(o.seconds for o in ordinary if o.ok)
    busy = sum(o.seconds for o in outcomes)
    failed = [o for o in outcomes if not o.ok]
    p = tail_percentile(len(lat), tail_pct)
    raw = {
        "ops_per_s": len(lat) / busy if busy else 0.0,
        "latency_p50_ms": 1e3 * percentile(lat, 50.0) if lat else 0.0,
        "latency_tail_ms": 1e3 * percentile(lat, p) if lat else 0.0,
    }
    slowdown = statistics.median(calibration) / CALIBRATION_REF_MS if calibration else 1.0
    return {
        "attempted": len(ordinary),
        "failed": sum(1 for o in ordinary if not o.ok),
        "probes": sum(1 for o in outcomes if o.probe),
        "probes_failed": sum(1 for o in outcomes if o.probe and not o.ok),
        "ops_per_s": raw["ops_per_s"] * slowdown,
        "latency_p50_ms": raw["latency_p50_ms"] / slowdown,
        "latency_tail_ms": raw["latency_tail_ms"] / slowdown,
        "raw": raw,
        "slowdown": slowdown,
        "tail_percentile": p,
        "latency_samples": len(lat),
        "failed_ratio": len(failed) / len(outcomes) if outcomes else 0.0,
        "busy_s": busy,
        "failures": sorted({f"{o.kind}: {o.error}" for o in failed}),
        "ops": [[o.kind, o.ok, round(1e3 * o.seconds, 4)] for o in outcomes],
    }


def run_rounds(
    make_round: Callable[[int], list[Op]],
    seconds: float,
    limit_s: float,
) -> tuple[list[Outcome], list[float], int]:
    """Run whole rounds for about ``seconds`` of wall time.

    A new round starts only while the time used plus half a mean round fits
    in ``seconds``, so runs end close to ``seconds`` on average.  ``limit_s``
    cuts a round short if the library has become so slow that the run would
    overstay its exit deadline.  Returns the outcomes, one calibration time
    per op, and the number of rounds.
    """
    outcomes: list[Outcome] = []
    calibration: list[float] = []
    t0 = time.perf_counter()
    r = 0
    while True:
        for op in make_round(r):
            outcomes.append(run_op(op))
            calibration.append(calibration_ms())
            if time.perf_counter() - t0 > limit_s:
                return outcomes, calibration, r + 1
        r += 1
        used = time.perf_counter() - t0
        if used + 0.5 * used / r >= seconds:
            return outcomes, calibration, r
