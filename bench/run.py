"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload crossed_torus --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: the next op starts
only after the previous one has finished and been checked.  The process
is pinned to one CPU.  The run

1. builds the workload's inputs from --seed three times;
2. runs one untimed warm-up op per input, then reads the process's peak
   resident memory: peak_rss_mb;
3. runs timed ops, cycling over the inputs, until --seconds have passed
   in all, with gc.collect(), the workload's cache clearing and a
   calibration reading before each op, outside the timed region;
4. checks every op's output, warm-up ops too, and compares its sha256
   with the digest pinned for the input at the default seed, or else with
   the first op on the same input.  An op that raises or fails a check is
   a failed op;
5. after an op, builds the inputs once more if builds have taken less
   than 10% of the time so far, so that build times, like op times, are
   sampled across the whole run.  Every build must give the same inputs.

The host this runs on is shared, and its speed drifts by up to 2x within
minutes as its other tenants come and go, far more than the bounds the
benchmark sets.  So end-to-end times are calibrated.  Before every timed
op the run times a fixed pure-Python reference that does not touch the
library (calibrate()), and it rescales the op's wall time by CAL_S
divided by that reading: times are given in seconds on a host where the
reference takes CAL_S seconds.  op_cal_s is the median rescaled op.
setup_s is the median build, rescaled by the run's median reading.
The reference's memory is why peak_rss_mb is read before the first
calibration.  Raw wall-time medians and the median calibration reading
go into the environment line.

With --trace 0 it reports the end-to-end metrics.  With --trace 1 it
wraps the library calls listed in workloads.TRACE_TARGETS and reports
per-layer self times and counters instead, each the median over ops; the
difference between the two runs' op times is the tracing overhead.

Standard output carries one JSON line describing the run environment
(workload, seed, input size, nproc, Python version, sample counts, raw
wall-time medians and the median calibration reading) and, as its last
line, one JSON object with the keys correct, attempted, failed and
metrics.  The same two objects, and for a traced run every span, are
written under bench/out/, one file per workload and --trace value, so
the latest run overwrites the previous one.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)
from spans import Tracer, median_over  # noqa: E402

FIRST_SETUP_BUILDS = 3
SETUP_SHARE = 0.1  # of the measuring time spent on further input builds
CAL_S = 0.1  # reference time of the host that calibrated times are given for


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def calibrate() -> float:
    """Wall time of a fixed pure-Python reference: a reading of host speed.
    It builds and probes a dict of about 20 MB, because on a shared host
    allocation-heavy code like the library's ops slows down far more than
    a loop that stays in cache."""
    t0 = time.perf_counter()
    d = {(i * 2654435761) % 1000003: (i, i) for i in range(150_000)}
    x = 0
    for i in range(150_000):
        x += d.get((i * 40503) % 1000003, (0, 0))[0]
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 out_dir: Path | None = None) -> dict:
    """Run one workload; returns {"environment": ..., "result": ...}."""
    wl = workloads.WORKLOADS[name]
    size = wl.tiny if tiny else wl.full
    tracer = Tracer() if trace else None
    problems = []
    # one CPU for ops and calibration alike: the CPUs of a shared host slow
    # down independently of each other
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    cal = []  # calibration readings, one before each timed op
    setup_times = []
    inputs = None

    def build_inputs():
        nonlocal inputs
        gc.collect()
        build = wl.inputs
        if tracer:
            tracer.begin_op(-1 - len(setup_times))
            build = tracer.wrap(build, workloads.SETUP_SPAN)
        t0 = time.perf_counter()
        built = build(seed, size)
        setup_times.append(time.perf_counter() - t0)
        if inputs is None:
            inputs = built
        elif built != inputs:
            problems.append(f"input build {len(setup_times)} differs from the first")

    for _ in range(FIRST_SETUP_BUILDS):
        build_inputs()

    pinned = workloads.PINNED.get(name) if seed == workloads.DEFAULT_SEED and not tiny else None
    reference = {}
    op_times = {}  # op id -> wall seconds, for timed ops that returned
    op_cal = []  # their times, each rescaled by the calibration reading before it
    peak_rss_mb = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        op_id = attempted
        k = op_id % len(inputs)
        attempted += 1
        warm_up = op_id < len(inputs)
        if not warm_up and peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wl.prepare()
        gc.collect()
        if not warm_up:
            cal.append(calibrate())
        if tracer:
            tracer.begin_op(op_id)
        try:
            with tracer.patched(workloads.TRACE_TARGETS) if tracer else nullcontext():
                t0 = time.perf_counter()
                out = wl.op(inputs[k])
                if not warm_up:
                    op_times[op_id] = time.perf_counter() - t0
                    op_cal.append(op_times[op_id] * CAL_S / cal[-1])
            bad, digest = wl.check(inputs[k], out)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            bad, digest = [f"{type(exc).__name__}: {exc}"], None
        out = None
        if digest is not None:
            want = pinned[k] if pinned else reference.setdefault(k, digest)
            if digest != want:
                bad.append(f"output digest {digest} != {want}")
        if bad:
            failed += 1
            problems.extend(f"op {op_id} (input {k}): {b}" for b in bad)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and cal:
            break
        if sum(setup_times) < SETUP_SHARE * elapsed:
            build_inputs()

    times = list(op_times.values()) or [0.0]
    if tracer:
        per_op = tracer.self_times()
        ops = sorted(op_times) or [0]
        metrics = {f"{layer}_s": median_over(ops, per_op, layer) for layer in workloads.SPAN_LAYERS}
        metrics[f"{workloads.SETUP_SPAN}_s"] = median_over(
            [-1 - r for r in range(len(setup_times))], per_op, workloads.SETUP_SPAN
        )
        for c in workloads.COUNTERS:
            metrics[c] = statistics.median(tracer.counts.get(op, {}).get(c, 0) for op in ops)
        metrics["trace.op_p50_s"] = statistics.median(times)
        # op time outside every top-level span: the benchmark's own glue
        metrics["trace.uncovered_s"] = statistics.median(
            [op_times[op] - per_op.get(op, {}).get("", 0.0) for op in op_times] or [0.0]
        )
    else:
        metrics = {
            "setup_s": statistics.median(setup_times) * CAL_S / statistics.median(cal),
            "op_cal_s": statistics.median(op_cal or [0.0]),
            "peak_rss_mb": peak_rss_mb,
            "success_ratio": (attempted - failed) / attempted,
        }
    units = {"peak_rss_mb": "MB"}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m: {"value": v, "unit": units.get(m) or _unit(m)} for m, v in sorted(metrics.items())
        },
    }
    environment = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "samples": {"setup": len(setup_times), "ops": len(op_times)},
        "raw_s": {"op_p50": statistics.median(times), "setup_p50": statistics.median(setup_times)},
        "calibration_s": statistics.median(cal),
        "problems": problems[:20],
    }
    out_dir = HERE / "out" if out_dir is None else out_dir
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-t{int(trace)}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"environment": environment, "result": result}, indent=2) + "\n"
    )
    if tracer:
        tracer.write(str(out_dir / f"{stem}.spans.tsv.gz"))
    return {"environment": environment, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for p in out["environment"]["problems"]:
        print(p, file=sys.stderr)
    print(json.dumps({"environment": out["environment"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
