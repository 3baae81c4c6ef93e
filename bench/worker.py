"""Child process of ``run.py``: runs one workload in a fresh interpreter, so
import time counts toward set-up and the peak resident memory belongs to
this workload alone.

Set-up is timed from the moment the parent started this process until the
input files are parsed by the package readers.  Then one untimed warm-up
job runs, and the workload's job repeats in a closed loop (one caller, no
worker pool) until the next job would end after the deadline; at least one
timed job always runs.  Untraced jobs run the host probe between calls.
In a traced run, untraced and traced jobs alternate.  The results go to
``--out`` as JSON.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _run_job(job, inp, seed, clock, tracer):
    # untraced jobs probe the host speed; traced ones do not, so the probe
    # shows in no span
    clock.reset(probing=tracer is None)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = job(inp, seed)
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    probe_s = clock.finish()
    rec = {"traced": tracer is not None, "probe_s": probe_s,
           "decode_tokens": clock.tokens, "attempted": clock.attempted,
           "failed": clock.failed, "quality": out.quality,
           "problems": out.problems,
           "digest": hashlib.sha256(out.text.encode()).hexdigest()}
    # [seconds, scaled seconds] of the job and of each call
    rec["total"] = clock.measure(t0, t1)
    rec["train"] = [clock.measure(a, b) for a, b in clock.train_spans]
    rec["decode"] = [clock.measure(a, b) for a, b in clock.decode_spans]
    return rec


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--started", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import jobs
    import probes

    with open(args.inputs, encoding="utf-8") as f:
        files = json.load(f)
    tracer = probes.Tracer() if args.trace and not args.setup_only else None
    if tracer is not None:
        tracer.install()
    inp = jobs.load(files)
    setup_s = time.monotonic() - args.started
    result = {"setup_s": setup_s}
    if args.setup_only:
        # set-up is scaled, like every other time, by a probe taken in the
        # same interpreter right after it
        result["probe_s"] = probes.HostProbe()()
        _dump(result, args.out)
        return 0

    if tracer is not None:
        tracer.uninstall()
        spans, counts = tracer.take()
        totals, passes = probes.span_totals(spans)
        result["setup_layers"] = probes.layer_metrics(totals, counts, passes)
        result["setup_fired"] = sorted(probes.fired(totals, counts))
        result["spans"] = [["setup"] + s for s in spans]
    clock = probes.StageClock()
    job = jobs.JOBS[args.workload]
    deadline = time.monotonic() + args.seconds
    # The first job warms up and is checked but not timed.  The peak
    # memory is taken after it, before the host probe's table exists.
    result["warmup"] = _run_job(job, inp, args.seed, clock, None)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clock.host_probe = probes.HostProbe()
    records = []
    cycle_times = []
    while True:
        t0 = time.monotonic()
        records.append(_run_job(job, inp, args.seed, clock, None))
        if tracer is not None:
            rec = _run_job(job, inp, args.seed, clock, tracer)
            spans, counts = tracer.take()
            totals, passes = probes.span_totals(spans)
            rec["layers"] = probes.layer_metrics(totals, counts, passes)
            rec["fired"] = sorted(probes.fired(totals, counts))
            rec["self_s"] = {n: t[1] for n, t in totals.items()}
            result["spans"] += [[len(records)] + s for s in spans]
            records.append(rec)
        cycle_times.append(time.monotonic() - t0)
        if time.monotonic() + statistics.median(cycle_times) > deadline:
            break
    clock.close()
    result["records"] = records
    _dump(result, args.out)
    return 0


def _dump(obj, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


if __name__ == "__main__":
    sys.exit(main())
