#!/usr/bin/env python3
"""benchmarks/ledger — six workloads × generic end-to-end metrics, plus
an outside-in layer trace.  See README.md beside this file.

    python benchmarks/ledger/run.py                       # all six workloads
    python benchmarks/ledger/run.py --trace               # + per-layer table, span files
    python benchmarks/ledger/run.py --aa 2                # same code twice: spreads vs bounds
    python benchmarks/ledger/run.py --selftest            # the harness checks itself
    python benchmarks/ledger/run.py --workload serve-hit --seed 7 --seconds 10 --trace 0

The last form is one run of one workload in this process; its final
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Every other form runs each workload that way in a fresh
subprocess, so no intern table, plan cache or allocator state leaks
from one workload into the next.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from multiprocessing import resource_tracker

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
if LEDGER_DIR not in sys.path:
    sys.path.insert(0, LEDGER_DIR)

import core  # noqa: E402
import layers  # noqa: E402
import proctree  # noqa: E402
import spans  # noqa: E402

REPO_ROOT = os.path.normpath(os.path.join(LEDGER_DIR, "..", ".."))
WORK_ROOT = os.path.join(LEDGER_DIR, ".work")


DEFAULT_SEED = 31
DEFAULT_SECONDS = 18

DETAIL_PREFIX = "ledger-detail "


#: workload → (module, class); the module is imported on demand so an
#: in-process workload never loads the serving stack into the measured
#: process, and because the modules import ``repro`` at the top, which
#: is timed (see ``core.import_program``).
_CLASSES = {
    "join-serial": ("wl_inprocess", "JoinSerial"),
    "join-sharded": ("wl_inprocess", "JoinSharded"),
    "serve-hit": ("wl_serving", "ServeHit"),
    "serve-write": ("wl_serving", "ServeWrite"),
    "serve-churn": ("wl_serving", "ServeChurn"),
    "minimize": ("wl_inprocess", "Minimize"),
}


WORKLOADS = list(_CLASSES)


def workload_class(name: str):
    module, attribute = _CLASSES[name]
    return getattr(importlib.import_module(module), attribute)


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------
def _git_sha() -> str:
    environment = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO_ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, env=environment,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.decode().strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (longest prefix)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _device, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def fingerprint(seed: int, seconds: float) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "data_dir_filesystem": _filesystem(WORK_ROOT),
        "load_1m_start": os.getloadavg()[0],
        "seed": seed,
        "window_s": seconds,
    }


def finish_fingerprint(machine: dict) -> dict:
    machine["load_1m_end"] = os.getloadavg()[0]
    busy = max(machine["load_1m_start"], machine["load_1m_end"])
    machine["load_flag"] = busy > (machine["nproc"] or 1) / 2
    return machine


# ----------------------------------------------------------------------
# One workload, this process
# ----------------------------------------------------------------------
def build_program() -> bool:
    """Byte-compile the program and this directory: the build step of a
    pure-Python checkout.  Explicit, because a checkout arrives without
    ``__pycache__`` and ``PYTHONDONTWRITEBYTECODE`` may stop imports
    from ever writing one — every server boot and set-up probe would
    then pay for compiling 21 k lines again.  Returns True when this was
    the first build in this checkout."""
    first = not os.path.isdir(os.path.join(core.SRC_DIR, "repro", "__pycache__"))
    compileall.compile_dir(os.path.join(core.SRC_DIR, "repro"), quiet=2)
    compileall.compile_dir(LEDGER_DIR, quiet=2, maxlevels=0)
    return first


def prime() -> None:
    """Touch what every first run touches, before anything is timed:
    page in ``repro`` and numpy, start one spawned pool worker, run the
    CLI once.  Without it the first ``setup_s`` of a session is a
    page-cache outlier (1.27 s against 0.85 s)."""
    environment = dict(os.environ, PYTHONPATH=core.SRC_DIR)
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "--help"], env=environment,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120,
    )
    subprocess.run(
        [sys.executable, "-c", "import repro\ntry:\n import numpy\nexcept ImportError:\n pass"],
        env=environment, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120,
    )
    core.run_in_child(os.getpid)


def run_one(args) -> int:
    """``--workload NAME``: measure here, print the result line."""
    if args.first_build:
        prime()
    import_s = core.import_program()
    workdir = os.path.join(WORK_ROOT, "{}-{}".format(args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        workload = workload_class(args.workload)(args.seed, workdir)
        if args.setup_only:
            workload.checked = False
            workload.build()
            elapsed = workload.setup()
            workload.teardown()
            print(json.dumps({"setup_s": import_s + elapsed}))
            return 0
        machine = fingerprint(args.seed, args.seconds)
        recorder = spans.Recorder() if args.trace else None
        raw = core.run(
            workload, args.seconds, import_s,
            corrupt=args.corrupt_oracle, setups=args.setups, recorder=recorder,
        )
        finish_fingerprint(machine)
        if recorder is not None:
            table = recorder.table()
            metrics = _layer_metrics(raw, table)
            _write_trace(args, recorder, table, raw, metrics, machine)
        else:
            metrics = {
                name: {"value": raw.get(name), "unit": unit}
                for name, unit, _better, _bound in layers.END_TO_END
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = raw["failed"] + (0 if raw["final_check"] else 1)
    attempted = max(1, raw["attempted"]) + (0 if raw["final_check"] else 1)
    detail = {
        "workload": args.workload,
        "samples": raw["samples"],
        "undersampled": raw["samples"] < core.MIN_SAMPLES,
        "oracle_s": raw["oracle_s"],
        "setup_samples": raw["setup_samples"],
        "window_s": raw["window_s"],
        "errors": raw["errors"],
        "process_set_changed": raw["process_set_changed"],
        "fail_ratio": failed / attempted,
        "fingerprint": machine,
    }
    print(DETAIL_PREFIX + json.dumps(detail))
    missing = [name for name, entry in metrics.items() if entry["value"] is None]
    if missing:
        print("ledger: {} produced no value for {}".format(args.workload, missing), file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _layer_metrics(raw: dict, table: dict) -> dict:
    values = layers.from_spans(table, raw["samples"])
    values.update(raw["layers"])
    if raw.get("untraced_p50_ms") and raw.get("op_p50_ms"):
        values["ledger.span_overhead_ratio"] = raw["op_p50_ms"] / raw["untraced_p50_ms"]
    units = {name: unit for name, unit, _better in layers.PER_LAYER}
    return {
        name: {"value": value, "unit": units[name]}
        for name, value in layers.complete(values).items()
    }


def _write_trace(args, recorder, table, raw, metrics, machine) -> None:
    out = args.out or os.path.join(WORK_ROOT, "traces")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "trace-{}.json".format(args.workload)), "w") as handle:
        json.dump(
            {
                "workload": args.workload,
                "fingerprint": machine,
                "ops": raw["samples"],
                "span_table": table,
                "layer_metrics": {name: entry["value"] for name, entry in metrics.items()},
                "spans": recorder.as_dicts(),
            },
            handle,
        )
    print("-- {}: spans of {} traced ops (busy ms, self ms, count)".format(args.workload, raw["samples"]))
    for name in sorted(table, key=lambda key: -table[key]["busy_ms"]):
        row = table[name]
        print("   {:<40} {:>10.2f} {:>10.2f} {:>7d}".format(
            name, row["busy_ms"], row["self_ms"], row["count"]))


# ----------------------------------------------------------------------
# The suite: every workload in its own subprocess
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: int, trace: int, extra=()) -> dict:
    command = [
        sys.executable, os.path.join(LEDGER_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + list(extra)
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)
    lines = done.stdout.decode().strip().splitlines()
    result = {
        "exit": done.returncode, "detail": {}, "metrics": {},
        "stdout": lines, "stderr": done.stderr.decode("utf-8", "replace"),
    }
    for line in lines:
        if line.startswith(DETAIL_PREFIX):
            result["detail"] = json.loads(line[len(DETAIL_PREFIX):])
    if lines and lines[-1].startswith("{"):
        result.update(json.loads(lines[-1]))
    return result


def check_cells(results: dict) -> list:
    """The no-placeholder rule over the end-to-end cells: every cell
    present and finite; no metric the same on every workload; no two
    metrics of one workload bit-identical.  (``fail_ratio`` is exempt
    from the last two: its correct value is 0 everywhere.)"""
    problems = []
    names = [name for name, _unit, _better, _bound in layers.END_TO_END]
    for workload, result in results.items():
        cells = {}
        for name in names + ["fail_ratio"]:
            value = (
                result["detail"].get("fail_ratio")
                if name == "fail_ratio"
                else result["metrics"].get(name, {}).get("value")
            )
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append("{} × {}: missing or not finite ({!r})".format(workload, name, value))
            elif name != "fail_ratio":
                if value in cells.values():
                    problems.append("{} × {}: bit-identical to another metric".format(workload, name))
                cells[name] = value
    if len(results) > 1:
        for name in names:
            column = {
                result["metrics"].get(name, {}).get("value") for result in results.values()
            }
            if len(column) == 1:
                problems.append("{}: the same value on every workload ({!r})".format(name, column.pop()))
    return problems


def machinetable(results: dict) -> None:
    names = [name for name, _unit, _better, _bound in layers.END_TO_END]
    units = {name: unit for name, unit, _better, _bound in layers.END_TO_END}
    header = "{:<14}".format("workload") + "".join(
        "{:>18}".format("{} [{}]".format(name, units[name])) for name in names
    ) + "{:>12}{:>9}".format("fail_ratio", "samples")
    print(header)
    for workload, result in results.items():
        row = "{:<14}".format(workload)
        for name in names:
            value = result["metrics"].get(name, {}).get("value")
            row += "{:>18}".format("{:.4f}".format(value) if isinstance(value, (int, float)) else "—")
        detail = result["detail"]
        row += "{:>12}{:>9}".format(
            "{:.4f}".format(detail.get("fail_ratio", float("nan"))),
            "{}{}".format(detail.get("samples", "—"), "!" if detail.get("undersampled") else ""),
        )
        print(row)


def run_suite(args, seed: int, trace: bool):
    prime()
    results, traced = {}, {}
    for workload in WORKLOADS:
        print("… {} (seed {}, {} s)".format(workload, seed, args.seconds), file=sys.stderr)
        results[workload] = run_child(workload, seed, args.seconds, 0)
        if trace:
            extra = ["--out", args.out] if args.out else []
            traced[workload] = run_child(workload, seed, args.seconds, 1, extra)
    return results, traced


def suite_exit(results: dict, traced: dict) -> int:
    status = 0
    for workload, result in list(results.items()) + list(traced.items()):
        if result["exit"] != 0 or not result.get("correct", False):
            print("FAILED {}: exit {}, fail_ratio {}, errors {}\n{}".format(
                workload, result["exit"], result["detail"].get("fail_ratio"),
                result["detail"].get("errors"), result["stderr"][-2000:]))
            status = 1
    for problem in check_cells(results):
        print("PLACEHOLDER " + problem)
        status = 1
    return status


def command_suite(args) -> int:
    results, traced = run_suite(args, args.seed, bool(args.trace))
    first = next(iter(results.values()))["detail"].get("fingerprint", {})
    print("machine: " + json.dumps(first))
    machinetable(results)
    for workload, result in results.items():
        detail = result["detail"]
        print("   {:<14} oracle_s {:.3f}  setup samples {}  load {:.2f}→{:.2f}{}".format(
            workload, detail.get("oracle_s", float("nan")),
            ["{:.3f}".format(s) for s in detail.get("setup_samples", [])],
            detail.get("fingerprint", {}).get("load_1m_start", float("nan")),
            detail.get("fingerprint", {}).get("load_1m_end", float("nan")),
            "  LOADED" if detail.get("fingerprint", {}).get("load_flag") else "",
        ) + ("  PROCESS SET CHANGED (cpu/rss cover survivors only)" if detail.get("process_set_changed") else ""))
    if traced:
        print()
        print("per-layer metrics (traced run; 0 = the workload never enters the layer)")
        print("{:<38}{:>8}".format("metric", "unit") + "".join("{:>14}".format(w) for w in WORKLOADS))
        for name, unit, _better in layers.PER_LAYER:
            row = "{:<38}{:>8}".format(name, unit)
            for workload in WORKLOADS:
                value = traced[workload]["metrics"].get(name, {}).get("value")
                row += "{:>14}".format("{:.4g}".format(value) if isinstance(value, (int, float)) else "—")
            print(row)
        print("span files: {}".format(args.out or os.path.join(WORK_ROOT, "traces")))
    return suite_exit(results, traced)


def command_aa(args) -> int:
    """The suite ``K`` times on this checkout, seeds seed … seed+K-1;
    per metric × workload the spread of the K values against its bound
    (quartile distance over the median from 4 rounds up, else the
    range), the way the acceptance check of the benchmark reads them."""
    rounds = []
    status = 0
    for index in range(args.aa):
        results, _ = run_suite(args, args.seed + index, False)
        status |= suite_exit(results, {})
        rounds.append(results)
    print("{:<14}{:<16}{:>12}{:>10}{:>8}  values".format("workload", "metric", "median", "spread", "bound"))
    for workload in WORKLOADS:
        for name, _unit, _better, bound in layers.END_TO_END:
            values = [
                r[workload]["metrics"].get(name, {}).get("value") for r in rounds
            ]
            if any(not isinstance(v, (int, float)) for v in values):
                continue  # already reported by suite_exit
            median = statistics.median(values)
            if len(values) >= 4:
                quartiles = statistics.quantiles(values, n=4)
                spread = (quartiles[2] - quartiles[0]) / median
            else:
                spread = (max(values) - min(values)) / median
            breach = spread > bound and name != "setup_s"
            print("{:<14}{:<16}{:>12.4f}{:>9.1f}%{:>7.0f}%{} {}".format(
                workload, name, median, spread * 100, bound * 100,
                " BREACH" if breach else "       ",
                " ".join("{:.4g}".format(v) for v in values)))
            status |= 1 if breach else 0
    return status


# ----------------------------------------------------------------------
# Selftest
# ----------------------------------------------------------------------
def command_selftest(args) -> int:
    failures = []

    def expect(condition: bool, what: str) -> None:
        print("{} {}".format("ok  " if condition else "FAIL", what))
        if not condition:
            failures.append(what)

    disagreement = proctree.self_check()
    expect(disagreement < 0.02, "process-tree CPU within 2 % of time.process_time() ({:.2%})".format(disagreement))

    manifest = os.path.join(REPO_ROOT, "BENCHMARK.json")
    if os.path.exists(manifest):
        with open(manifest) as handle:
            declared = json.load(handle)
        expect(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]]
            == list(layers.END_TO_END),
            "BENCHMARK.json end_to_end matches layers.END_TO_END",
        )
        expect(
            [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
            == list(layers.PER_LAYER),
            "BENCHMARK.json per_layer matches layers.PER_LAYER",
        )
        expect(
            [w["name"] for w in declared["workloads"]] == WORKLOADS,
            "BENCHMARK.json workloads match run.py",
        )

    prime()
    quick = ["--setups", "1"]
    results = {w: run_child(w, args.seed, 1, 0, quick) for w in ("join-serial", "serve-hit")}
    for workload, result in results.items():
        expect(result["exit"] == 0 and result.get("correct") is True, "{} runs clean in a 1 s window".format(workload))
    expect(check_cells(results) == [], "no placeholder among the measured cells")

    constant = json.loads(json.dumps(results))
    for result in constant.values():
        result["metrics"]["op_p95_ms"]["value"] = 50.2
    expect(
        any("op_p95_ms: the same value" in p for p in check_cells(constant)),
        "a constant filled into a column is caught",
    )
    twin = json.loads(json.dumps(results))
    twin["serve-hit"]["metrics"]["op_p95_ms"]["value"] = twin["serve-hit"]["metrics"]["op_p50_ms"]["value"]
    expect(
        any("bit-identical" in p for p in check_cells(twin)),
        "a cell copied from another metric is caught",
    )
    hole = json.loads(json.dumps(results))
    del hole["join-serial"]["metrics"]["cpu_ms_per_op"]
    expect(any("missing" in p for p in check_cells(hole)), "a missing cell is caught")

    for workload in ("join-serial", "serve-write"):
        broken = run_child(workload, args.seed, 1, 0, quick + ["--corrupt-oracle"])
        expect(
            broken["exit"] != 0 and broken["detail"].get("fail_ratio", 0) > 0,
            "{}: a corrupted oracle drives fail_ratio > 0 and a non-zero exit".format(workload),
        )
    leftovers = os.listdir(WORK_ROOT) if os.path.isdir(WORK_ROOT) else []
    expect([d for d in leftovers if d != "traces"] == [], "no work directory left behind")
    print("selftest: {}".format("passed" if not failures else "FAILED ({})".format(len(failures))))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="measure one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="drives data, update history and query constants")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS, help="length of the timed window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, help="traced run: per-layer metrics and span files")
    parser.add_argument("--out", help="directory for trace-<workload>.json (default: .work/traces beside this file)")
    parser.add_argument("--aa", type=int, nargs="?", const=2, help="run the suite K times (default 2) and compare spreads with bounds")
    parser.add_argument("--selftest", action="store_true", help="check the harness itself (≤ 30 s)")
    parser.add_argument("--setups", type=int, default=core.SETUPS, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-oracle", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(core.SRC_DIR, "repro")):
        print("ledger: no program to measure: {} is missing".format(core.SRC_DIR), file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    args.first_build = build_program()
    try:
        if args.workload:
            return run_one(args)
        if args.selftest:
            return command_selftest(args)
        if args.aa:
            return command_aa(args)
        return command_suite(args)
    finally:
        # multiprocessing's resource tracker (started by the spawned
        # oracle child and by shared-memory shard payloads) otherwise
        # outlives this process by a moment; every process this run
        # started has ended when it returns.
        resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
