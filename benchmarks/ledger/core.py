"""The measuring loop shared by every workload.

One run measures one workload in one fresh process:

    build seeded inputs → oracle (``oracle_s``) → set up the system
    under test + 3 checked warm-up ops, several times (``setup_s`` is
    the median) → ``gc.collect()`` → closed-loop timed window (two
    phases where the ops stall, see :func:`measure_window`) → teardown.

The client is a closed loop: the next op is issued only once the
previous one has finished and its output has been checked against the
oracle, so an op's latency runs from issue to "checked".  Time the
harness spends between ops (advancing a shadow oracle, bookkeeping) is
think time and is excluded from ``ops_per_s``.
"""

from __future__ import annotations

import concurrent.futures
import gc
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Optional

import proctree
import spans

#: Warm-up ops at the end of every set-up (checked like timed ops).
WARMUPS = 3

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Below this many samples a window is flagged ``undersampled``.
MIN_SAMPLES = 60

#: ``ops_per_s`` and ``cpu_ms_per_op`` are medians over slices this long.
SLICE_S = 0.5

#: ``op_p95_ms`` is the median over chunks of this many slices.
CHUNK_SLICES = 6

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.normpath(os.path.join(LEDGER_DIR, "..", "..", "src"))


def import_program() -> float:
    """Import ``repro`` and return how long that took, in seconds.

    For the in-process workloads the library import is part of what a
    user waits for before the first op, so it counts towards
    ``setup_s``; work a later change moves to import time shows there.
    """
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    started = perf_counter()
    import repro  # noqa: F401

    return perf_counter() - started


def run_in_child(function: Callable, *args):
    """Run ``function(*args)`` in a fresh spawned process.

    Oracles of the in-process workloads run here so that their memory,
    interned monomials and cached plans never touch the process whose
    ``peak_rss_mb`` and cold start are being measured.
    """
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
        return pool.submit(function, *args).result()


def median_ms(function: Callable, repeats: int) -> float:
    """Median wall time of ``function()`` over ``repeats`` calls, in ms
    (the layer probes' stopwatch)."""
    samples = []
    for _ in range(repeats):
        started = perf_counter()
        function()
        samples.append((perf_counter() - started) * 1e3)
    return statistics.median(samples)


def traced_call(rec, name: str, function: Callable, *args):
    """Call into the program under one benchmark span.

    With tracing on, the call also runs under ``repro.tracing()`` and
    the stage spans the program records are grafted in as children.
    """
    if not rec.enabled:
        return function(*args)
    from repro import tracing

    with rec.span(name):
        with tracing(name) as tracer:
            result = function(*args)
        rec.graft(tracer.root, name + "/")
    return result


class Workload:
    """What a workload provides; see ``workloads.py`` for the six."""

    name = ""
    why = ""
    #: True when the system under test is this very process (plus its
    #: pool workers): set-up samples then need fresh interpreters.
    in_process = False
    #: True when every op waits out a delayed-ACK stall, so that the
    #: system under test sleeps most of the window; see
    #: :func:`measure_window`.
    stalls = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        #: Layer values a workload notes outside the traced window
        #: (cold starts, pool spawn, recovery).
        self.layer: Dict[str, float] = {}
        #: False in a set-up-only probe: warm-ups run unchecked there.
        self.checked = True

    def build(self) -> None:
        """Generate the seeded inputs."""

    def oracle(self) -> None:
        """Compute the expected outputs."""

    def setup(self) -> float:
        """Start the system under test and run the warm-up ops; returns
        the seconds from "inputs ready" to "ready for the first timed
        op"."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed harness work before an op (advancing a shadow
        oracle to the op's expected output); think time, not latency."""

    def op(self, rec) -> bool:
        """One operation, checked: True iff its output was correct."""
        raise NotImplementedError

    def back_to_back(self, on: bool) -> None:
        """Only where ``stalls``: issue the same ops without the stall."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop the system under test and verify nothing is left over."""

    def final_check(self) -> bool:
        """A whole-state check after the window (default: nothing)."""
        return True

    def root_pid(self) -> int:
        """Root of the process tree whose CPU and RSS are the system's."""
        return os.getpid()

    def corrupt_oracle(self) -> None:
        """Selftest hook: damage the expected outputs so ops must fail."""
        raise NotImplementedError

    def probes(self, window: dict) -> Dict[str, float]:
        """Traced run only: layer measurements beside the window (whose
        reduced samples are passed in)."""
        return {}

    def warm_up(self) -> float:
        """The tail of every ``setup()``: three checked ops.  Returns
        the milliseconds the first — the cold one — took."""
        first_ms = 0.0
        for index in range(WARMUPS):
            self.prepare()
            started = perf_counter()
            passed = self.op(spans.NULL)
            if index == 0:
                first_ms = (perf_counter() - started) * 1e3
            if not passed and self.checked:
                raise RuntimeError("{}: a warm-up op failed its check".format(self.name))
        return first_ms


def run_phase(workload: Workload, seconds: float, rec) -> dict:
    """Run ops back to back for ``seconds`` and reduce the samples.

    The host's other tenants slow this machine down in bursts, from a
    few hundred ms to a few seconds long, and a mean or a pooled high
    percentile carries every one of them.  So the rate and the CPU cost
    are read per slice of :data:`SLICE_S` and reported as the median
    over the slices, and the 95th percentile is taken per chunk of
    :data:`CHUNK_SLICES` slices and reported as the median over the
    chunks.  The median latency is pooled: it shrugs off any burst
    shorter than half the phase as it is.
    """
    root = workload.root_pid()
    pids = proctree.tree(root)
    gc.collect()
    attempted = failed = 0
    errors: List[str] = []
    slices = []  # (latencies of the checked ops, ns inside ops, CPU seconds of the tree)
    count = max(1, round(seconds / SLICE_S))
    started = perf_counter()
    for index in range(count):
        slice_end = started + seconds * (index + 1) / count
        cpu_before = proctree.cpu_seconds(pids)
        latencies_ms: List[float] = []
        busy_ns = 0
        while perf_counter() < slice_end:
            if rec.enabled:
                rec.op_id = attempted
            attempted += 1
            begin = 0
            try:
                workload.prepare()
                begin = perf_counter_ns()
                with rec.span("op"):
                    passed = workload.op(rec)
            except Exception as error:  # a failed op, not a failed run
                passed = False
                if len(errors) < 3:
                    errors.append("{}: {}".format(type(error).__name__, error))
                    traceback.print_exc(file=sys.stderr)
            elapsed = perf_counter_ns() - begin if begin else 0
            busy_ns += elapsed
            if passed:
                latencies_ms.append(elapsed / 1e6)
            else:
                failed += 1
        if latencies_ms:  # an op that overran the slice before this one leaves it empty
            slices.append((latencies_ms, busy_ns, proctree.cpu_seconds(pids) - cpu_before))
    wall = perf_counter() - started
    pids_after = proctree.tree(root)
    result = {
        "attempted": attempted,
        "failed": failed,
        "samples": sum(len(latencies_ms) for latencies_ms, _busy_ns, _cpu in slices),
        "window_s": wall,
        "errors": errors,
        "process_set_changed": sorted(pids) != sorted(pids_after),
        "peak_rss_mb": proctree.peak_rss_mb(pids_after),
    }
    if slices:
        latencies = [latencies_ms for latencies_ms, _busy_ns, _cpu in slices]
        chunks = [
            sum(latencies[at:at + CHUNK_SLICES], [])
            for at in range(0, len(latencies), CHUNK_SLICES)
        ]
        result["op_p50_ms"] = statistics.median(sum(latencies, []))
        result["op_p95_ms"] = statistics.median(
            statistics.quantiles(chunk, n=20, method="inclusive")[18] if len(chunk) > 1 else chunk[0]
            for chunk in chunks
        )
        result["ops_per_s"] = statistics.median(
            len(latencies_ms) / (busy_ns / 1e9) for latencies_ms, busy_ns, _cpu in slices
        )
        result["cpu_ms_per_op"] = statistics.median(
            cpu * 1e3 / len(latencies_ms) for latencies_ms, _busy_ns, cpu in slices
        )
    return result


def measure_window(workload: Workload, seconds: float) -> dict:
    """The untraced window: one phase, or two on a workload that stalls.

    Where every op waits out the client's delayed ACK, the server
    sleeps ~42 ms between two bursts of work and wakes up to whatever
    its neighbours on the host left in its caches: the same requests
    are then charged 5–30 % more CPU, varying by the minute.  Such a
    workload spends the first half of the window as the stock client it
    is (latencies, rate) and the second half issuing the same ops back
    to back, ACKing at once, and ``cpu_ms_per_op`` is read there.
    """
    if not workload.stalls:
        return run_phase(workload, seconds, spans.NULL)
    window = run_phase(workload, seconds / 2, spans.NULL)
    workload.back_to_back(True)
    try:
        busy = run_phase(workload, seconds / 2, spans.NULL)
    finally:
        workload.back_to_back(False)
    for key in ("attempted", "failed", "window_s"):
        window[key] += busy[key]
    window["errors"] += busy["errors"]
    window["process_set_changed"] |= busy["process_set_changed"]
    window["peak_rss_mb"] = busy["peak_rss_mb"]
    if "cpu_ms_per_op" in busy:
        window["cpu_ms_per_op"] = busy["cpu_ms_per_op"]
    else:
        window.pop("cpu_ms_per_op", None)
    return window


def setup_probe(name: str, seed: int) -> float:
    """One ``setup_s`` sample of an in-process workload, taken in a
    fresh interpreter (``run.py --setup-only``)."""
    command = [
        sys.executable,
        os.path.join(LEDGER_DIR, "run.py"),
        "--workload", name, "--seed", str(seed), "--setup-only",
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, check=True, timeout=120)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])["setup_s"]


def measure_setups(workload: Workload, import_s: float, count: int) -> List[float]:
    """``count`` set-up samples; the last one stays up for the window."""
    samples = []
    for index in range(count):
        last = index == count - 1
        if workload.in_process:
            if last:
                samples.append(import_s + workload.setup())
            else:
                samples.append(setup_probe(workload.name, workload.seed))
        else:
            samples.append(workload.setup())
            if not last:
                workload.teardown()
    return samples


def run(
    workload: Workload,
    seconds: float,
    import_s: float,
    corrupt: bool = False,
    setups: int = SETUPS,
    recorder: Optional[spans.Recorder] = None,
) -> dict:
    """One full run of one workload; returns the raw measurements.  With
    a ``recorder`` it is the traced run: one set-up, a short untraced
    slice, the traced window, the layer probes."""
    workload.build()
    started = perf_counter()
    workload.oracle()
    oracle_s = perf_counter() - started
    if corrupt:
        workload.corrupt_oracle()
        workload.checked = False  # let the warm-ups through; the window must fail
    try:
        setup_samples = measure_setups(workload, import_s, 1 if recorder else setups)
        workload.checked = True
        if recorder is None:
            window = measure_window(workload, seconds)
            layers = {}
        else:
            # Untraced slice first (the base of span_overhead_ratio),
            # then the traced window, then the layer probes.
            plain = run_phase(workload, max(1.0, seconds * 0.2), spans.NULL)
            window = run_phase(workload, max(1.0, seconds * 0.35), recorder)
            window["untraced_p50_ms"] = plain.get("op_p50_ms")
            window["failed"] += plain["failed"]
            window["attempted"] += plain["attempted"]
            layers = dict(workload.layer)
            layers.update(workload.probes(window))
        final_ok = workload.final_check()
    finally:
        workload.teardown()
    window["setup_s"] = statistics.median(setup_samples)
    window["setup_samples"] = setup_samples
    window["oracle_s"] = oracle_s
    window["final_check"] = final_ok
    window["layers"] = layers
    return window
