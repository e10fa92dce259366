"""``/proc``-based CPU and peak-RSS accounting over a process tree.

The system under test is either this process plus its pool workers, or
a server subprocess plus whatever it spawns; both are "a root pid and
its descendants".  CPU time comes from the per-thread ``schedstat``
run-time counters (nanoseconds; ``/proc/<pid>/stat`` ticks are 10 ms
each, which is ±7 % on a server that burns 150 ms in a window), with
the tick counters as the fallback on kernels built without them.
Peak RSS is ``VmHWM`` from ``/proc/<pid>/status``.

Both are read for processes alive at the moment of the call: a process
that exits inside a window takes its counters with it, so workloads
keep their process set fixed while they measure.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` split after the parenthesised command name
    (which may itself contain spaces); index 0 is the state field."""
    with open("/proc/{}/stat".format(pid)) as handle:
        text = handle.read()
    return text[text.rindex(")") + 2:].split()


def tree(root: int) -> List[int]:
    """``root`` and every live descendant, found by parent pid."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we were listing
        children.setdefault(parent, []).append(int(entry))
    found, pending = [], [root]
    while pending:
        pid = pending.pop()
        found.append(pid)
        pending.extend(children.get(pid, ()))
    return found


def _process_cpu_ns(pid: int) -> int:
    total = 0
    try:
        tasks = os.listdir("/proc/{}/task".format(pid))
    except OSError:
        return 0
    precise = True
    for task in tasks:
        try:
            with open("/proc/{}/task/{}/schedstat".format(pid, task)) as handle:
                total += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            precise = False
            break
    if precise and total:
        return total
    try:
        fields = _stat_fields(pid)
    except (OSError, ValueError):
        return 0
    return (int(fields[11]) + int(fields[12])) * 1_000_000_000 // _TICK


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU consumed so far by the given live processes."""
    return sum(_process_cpu_ns(pid) for pid in pids) / 1e9


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Σ ``VmHWM`` over the given live processes, in MB (10^6 bytes)."""
    total_kb = 0
    for pid in pids:
        try:
            with open("/proc/{}/status".format(pid)) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (OSError, ValueError):
            continue
    return total_kb * 1024 / 1e6


def pin(pids: Iterable[int], cpus: Iterable[int]) -> None:
    """Restrict every thread of the given live processes to ``cpus``
    (threads they start afterwards inherit the restriction)."""
    for pid in pids:
        for task in os.listdir("/proc/{}/task".format(pid)):
            try:
                os.sched_setaffinity(int(task), cpus)
            except OSError:
                continue  # the thread ended while we were listing


def command_line(pid: int) -> str:
    """The process's argv joined by spaces ('' once it has exited)."""
    try:
        with open("/proc/{}/cmdline".format(pid), "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode("utf-8", "replace").strip()
    except OSError:
        return ""


def self_check(busy_seconds: float = 0.4) -> float:
    """Run a busy loop and compare this module's CPU reading for the
    current process with ``time.process_time()``; returns the relative
    disagreement (the selftest requires it within 2 %)."""
    pid = os.getpid()
    before_tree = cpu_seconds([pid])
    before_clock = time.process_time()
    deadline = before_clock + busy_seconds
    spins = 0
    while time.process_time() < deadline:
        spins += 1
    by_clock = time.process_time() - before_clock
    by_tree = cpu_seconds([pid]) - before_tree
    return abs(by_tree - by_clock) / by_clock
