"""Benchmark launcher: one seeded workload, timed end to end, optionally traced.

    python3 perfbench/run.py --workload {generation,triangles,corpus} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the library is imported from its
`src/`.  The workload's items run in whole passes, as many as take about S
seconds at reference speed (see calibrate.py), so each run covers the same
items in the same proportions.  Results are then checked against independent oracles outside
the timed region.

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  The line before it is a full report:
environment, pass and sample counts, the tail percentile, `fail_frac` and
every failure.  `--trace 1` first measures untraced, then sets up once and
runs one pass with every layer function wrapped (see tracing.py), and writes
the recorded spans to .perfbench_spans/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
SPANS_DIR = ".perfbench_spans"  # under the checkout; one file per traced run
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); "
                "t = time.perf_counter(); import trimod; print(time.perf_counter() - t)")


def cap_threads(nproc):
    """Cap BLAS/OpenMP thread settings at nproc, before numpy is imported."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "trimod")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(seed, threads, nproc):
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": nproc, "cpu_model": cpu_model(), "git_commit": git_commit(),
            "source_sha256": source_digest(), "seed": seed, "threads": threads}


def import_seconds():
    """Time to import trimod in a fresh interpreter, measured inside it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def timed_setup(make, cal):
    """SETUP_REPEATS of (fresh import + building the inputs): [(seconds, t0, t1)]."""
    runs = []
    for _ in range(SETUP_REPEATS):
        mark = cal.stretch()
        t_import = import_seconds()
        build = cal.stretch()
        make()
        seconds, _, t1 = cal.since(build)
        runs.append((t_import + seconds, mark[0], t1))
    return runs


def run_items(workload, cal, tracer=None):
    """One pass; returns [(item index, ok, result or error, seconds, t0, t1)].

    `seconds` leaves out the calibration reference; [t0, t1] is the item's
    stretch of perf_counter time, for rescaling.  A full collection before
    each item, outside its timing, starts every item from the same collector
    state, so collections triggered inside an item follow its own
    allocations and not those of the items before it.
    """
    out = []
    for index, item in enumerate(workload.items):
        if tracer is not None:
            tracer.item = index
        gc.collect()
        mark = cal.stretch()
        try:
            result, ok = workload.run(item), True
        except Exception as e:  # an item that raises is a failed item, not a crash
            result, ok = f"{type(e).__name__}: {e}", False
        out.append((index, ok, result, *cal.since(mark)))
    return out


def rescaled(cal, timings):
    """Seconds at reference speed for each (seconds, t0, t1)."""
    return [seconds * cal.scale(t0, t1) for seconds, t0, t1 in timings]


def pass_count(workload, seconds):
    """Whole passes that take about `seconds` at reference speed, at least one.

    The count follows from `seconds` and the workload's PASS_S alone, not
    from the clock, so every run and every version of the library times the
    same samples, and `item_tail_ms` is always the same percentile.
    """
    return max(1, math.ceil(seconds / workload.PASS_S - 1e-9))


def measure(workload, cal, passes):
    """`passes` whole passes over the items; returns their records."""
    records = []
    for _ in range(passes):
        records.extend(run_items(workload, cal))
    return records


def check(workload, records):
    """Oracle checks; returns (failed item count, failure summary, all known)."""
    expected = {}
    summary = {}
    failed = 0
    for index, ok, result, *_ in records:
        item = workload.items[index]
        if index not in expected:
            expected[index] = workload.expected(item)
        failures = workload.verify(item, result, expected[index]) if ok \
            else [("exception", result)]
        failed += bool(failures)
        for failure in failures:
            key = failure + (workload.known_defect(item, failure, expected[index]),)
            summary[key] = summary.get(key, 0) + 1
    entries = [{"kind": k, "detail": d, "known_defect": known, "count": c}
               for (k, d, known), c in summary.items()]
    return failed, entries, all(e["known_defect"] for e in entries)


def tail(samples):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    rank = len(s) - 10
    return s[rank - 1], 100.0 * rank / len(s)


def timings(records, seconds, setup):
    """items_per_s, item_p50_ms, item_tail_ms and setup_s from item times
    `seconds` (one per record) and set-up times `setup`."""
    per_item = {}
    for (index, *_), t in zip(records, seconds):
        per_item.setdefault(index, []).append(t)
    # an item's latency is its median over the passes that repeated it, so
    # the median follows the inputs rather than one slow moment of the machine
    latency = [statistics.median(s) for s in per_item.values()]
    completed = sum(1 for r in records if r[1])
    return {
        "items_per_s": {"value": completed / sum(seconds), "unit": "1/s"},
        "item_p50_ms": {"value": 1000 * statistics.median(latency), "unit": "ms"},
        "item_tail_ms": {"value": 1000 * tail(seconds)[0], "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def end_to_end(records, cal, setup, failed):
    """The end-to-end metrics at reference speed; the report's extras,
    wall-clock figures among them."""
    wall = [r[3] for r in records]
    metrics = timings(records, rescaled(cal, [r[3:] for r in records]), rescaled(cal, setup))
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "unit": "MB"}
    metrics["ok_frac"] = {"value": 1 - failed / len(records), "unit": "ratio"}
    extra = {"fail_frac": {"value": failed / len(records), "unit": "ratio"},
             "measured_s": sum(rescaled(cal, [r[3:] for r in records])),
             "item_tail_percentile": tail(wall)[1], "samples": len(records),
             "wall_clock": timings(records, wall, [s[0] for s in setup]),
             "reference_ms": {"median": 1000 * statistics.median(cal.seconds),
                              "samples": len(cal.seconds), "nominal": calibrate.REF_MS}}
    return metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("generation", "triangles", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "trimod", "__init__.py")) \
            or not os.path.isdir(os.path.join(ROOT, "rings")):
        print(f"perfbench: no trimod checkout at {ROOT} (need src/trimod and rings/)",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)
    os.chdir(ROOT)
    sys.path.insert(0, SRC)

    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(".perfbench_tmp", str(os.getpid()))
    try:
        def make():
            return cls(args.seed, workdir)

        with calibrate.Calibrator() as cal:
            workload = make()  # fills lazy caches and the oracle's memo
            setup = timed_setup(make, cal)
            passes = pass_count(workload, args.seconds)
            records = measure(workload, cal, passes)
            traced = None
            if args.trace:
                tracer = tracing.Tracer(cal.clock)
                tracer.install()
                try:
                    traced_workload = make()
                    traced_records = run_items(traced_workload, cal, tracer)
                finally:
                    tracer.uninstall()
                traced = (tracer, traced_workload, traced_records)

        failed, failures, correct = check(workload, records)
        metrics, extra = end_to_end(records, cal, setup, failed)
        attempted = len(records)
        report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "passes": passes, "items_per_pass": len(workload.items),
                  "end_to_end": metrics, **extra}
        if traced is not None:
            tracer, traced_workload, traced_records = traced
            t_failed, t_failures, t_correct = check(traced_workload, traced_records)
            traced_wall = sum(r[3] for r in traced_records)
            traced_s = sum(rescaled(cal, [r[3:] for r in traced_records]))
            rate = sum(1 for r in traced_records if r[1]) / traced_s
            metrics = tracer.metrics(rate / metrics["items_per_s"]["value"] - 1)
            report["per_layer"] = metrics
            spans_path = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.json")
            tracer.write_spans(spans_path)
            report["traced_pass"] = {"seconds": traced_wall, "spans": len(tracer.spans),
                                     "spans_file": spans_path, "failures": t_failures}
            attempted += len(traced_records)
            failed += t_failed
            correct = correct and t_correct
        report["failures"] = failures
        report["environment"] = environment(args.seed, threads, nproc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it, or it is gone

    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
