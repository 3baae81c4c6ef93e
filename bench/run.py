"""condest benchmark: seeded workloads, end-to-end metrics, traced layers.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

    pcfg-scale    random 40-nonterminal PCFG: MLE, MCLE, CKY Viterbi, scoring
    tagger-scale  24-tag Zipfian bitag corpus: the four taggers, posterior decode
    sr-scale      recursive PP-attachment treebank: shift-reduce beam + PCFG
    bundled       the three ``condest experiment`` pipelines on toydata

The run generates its inputs from the seed under ``.bench_work/``, times
set-up in several fresh interpreters, then runs the workload's job in a
closed loop for S seconds in one more fresh interpreter (``worker.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics, the tracing
overhead, and a self-test of the tracing.  Output checks run in both
modes; any failure makes ``correct`` false.

Train, decode and job times are scaled to a reference host speed (a fixed
loop timed between calls, see ``probes.py``) and are medians across the
run's timed jobs; set-up time is the median of several interpreters, each
scaled by a probe it takes right after set-up.  Attempted and failed
decodes are those of one job: every job repeats the same decodes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  The full result, with input sizes and provenance,
is written to ``.bench_results/``, and in a traced run the spans too.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import probes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("pcfg-scale", "tagger-scale", "sr-scale", "bundled")
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0   # every child is killed before the run passes this

# Where each traced layer must fire; it must not fire on any other
# workload.  Names are span names or counter names without ``.calls``.
FIRES_ON = {
    "pcfg.inside_outside": {"pcfg-scale", "bundled"},
    "pcfg.estimate_mcle": {"pcfg-scale", "bundled"},
    "pcfg.tree_log_prob": {"pcfg-scale", "bundled"},
    "pcfg.viterbi_parse": {"pcfg-scale", "sr-scale", "bundled"},
    "interp.fit_interpolation": {"tagger-scale", "sr-scale", "bundled"},
    "interp.fit_mixture_weights": {"tagger-scale", "sr-scale", "bundled"},
    "hmm.collect_tables": {"tagger-scale", "bundled"},
    "hmm.fit_deleted_interpolation": {"tagger-scale", "bundled"},
    "hmm.posterior_decode": {"tagger-scale", "bundled"},
    "hmm.edge_weight": {"tagger-scale", "bundled"},
    "shiftreduce.estimate_joint": {"sr-scale", "bundled"},
    "shiftreduce.estimate_conditional": {"sr-scale", "bundled"},
    "shiftreduce.beam_parse": {"sr-scale", "bundled"},
    "shiftreduce.move_probs": {"sr-scale", "bundled"},
    "trees.read_bracketed": {"pcfg-scale", "sr-scale", "bundled"},
    "trees.binarize": {"sr-scale", "bundled"},
    "trees.debinarize": {"sr-scale", "bundled"},
    "evaluation.score_corpus": {"pcfg-scale", "sr-scale", "bundled"},
    "evaluation.bootstrap_test": {"pcfg-scale", "bundled"},
    "cli.experiment.pcfg-mle-vs-mcle": {"bundled"},
    "cli.experiment.hmm-four-way": {"bundled"},
    "cli.experiment.sr-joint-vs-cond": {"bundled"},
}
# The layers whose self time should dominate a traced job.
PREDICTED_DOMINANT = {
    "pcfg-scale": ("pcfg.inside_outside",),
    "tagger-scale": ("hmm.posterior_decode", "interp.fit_mixture_weights"),
    "sr-scale": ("shiftreduce.beam_parse",),
}
QUALITY_UNITS = {"labelled_f": "F1", "tag_accuracy": "fraction",
                 "cll_per_sent": "nats"}


class BenchError(Exception):
    pass


def _load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _generate(workload, seed, data_dir):
    """Write the workload's inputs; returns ({part: path}, sizes)."""
    sys.path.insert(0, HERE)
    import gen
    if workload == "pcfg-scale":
        return gen.gen_pcfg(seed, data_dir)
    if workload == "tagger-scale":
        return gen.gen_tagger(seed, data_dir)
    if workload == "sr-scale":
        return gen.gen_sr(seed, data_dir)
    # bundled: the package's own corpora, which do not depend on the seed
    sys.path.insert(0, SRC)
    from condest import toydata
    import jobs
    toydata.write_all(data_dir)
    files = {os.path.splitext(n)[0]: os.path.join(data_dir, n)
             for n in sorted(os.listdir(data_dir))}
    files.update(jobs.bundled_configs(data_dir, os.path.dirname(data_dir)))
    sizes = {}
    for part, path in files.items():
        if path.endswith((".mrg", ".tag")):
            with open(path, encoding="utf-8") as f:
                lines = [line for line in f if line.strip()]
            sizes[part + "_sentences"] = len(lines)
            sizes[part + "_distinct_lines"] = len(set(lines))
    return files, sizes


def _child_env():
    env = dict(os.environ)
    # one process, one thread: BLAS and OpenMP pools stay at 1 (<= nproc)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, work_dir, inputs, out, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--inputs", inputs,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    started = time.monotonic()
    proc = subprocess.Popen(cmd + ["--started", repr(started)],
                            cwd=ROOT, env=_child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish within %.0f s" % timeout)
    if proc.returncode != 0:
        raise BenchError("worker exited %d:\n%s"
                         % (proc.returncode, err.decode(errors="replace")))
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def _provenance(seed):
    sources = sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                               recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as f:
            data = f.read()
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
        lines += data.count(b"\n")
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    import numpy
    return {"commit": commit or "unknown (not a git checkout)",
            "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seed": seed,
            "loop": "closed, one caller, no worker pool"}


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(sorted_values, q):
    """Nearest-rank percentile."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _per_call(records, key, which):
    """The median across jobs of each call's time, ``which`` 0 for seconds
    and 1 for scaled seconds.  Jobs are deterministic, so call i of every
    job does the same work."""
    counts = {len(r[key]) for r in records}
    if len(counts) != 1:
        raise BenchError("jobs made different numbers of %s calls" % key)
    return [_median([c[which] for c in calls])
            for calls in zip(*(r[key] for r in records))]


def _end_to_end(result, setup_samples, records):
    train = _per_call(records, "train", 1)
    lat = _per_call(records, "decode", 1)
    decode_s = sum(lat)
    lat.sort()
    return {
        "setup_s": _median([probes.scale(s["setup_s"], s["probe_s"])
                            for s in setup_samples]),
        "train_s": sum(train),
        "decode_s": decode_s,
        "total_s": _median([r["total"][1] for r in records]),
        "decode_tokens_per_s": records[0]["decode_tokens"] / decode_s,
        "sent_p50_ms": 1e3 * _percentile(lat, 0.50),
        "sent_p90_ms": 1e3 * _percentile(lat, 0.90),
        "peak_rss_mb": result["peak_rss_mb"],
    }, len(lat)


def _unscaled(setup_samples, records):
    """The same times unscaled, and each job's total and mean probe, for
    the record."""
    return {"setup_s": _median([s["setup_s"] for s in setup_samples]),
            "train_s": sum(_per_call(records, "train", 0)),
            "decode_s": sum(_per_call(records, "decode", 0)),
            "total_s": _median([r["total"][0] for r in records]),
            "probe_s": _median([r["probe_s"] for r in records]),
            "jobs_total_s": [r["total"][0] for r in records],
            "jobs_probe_s": [r["probe_s"] for r in records]}


def _check_records(records):
    problems = []
    for i, r in enumerate(records):
        problems += ["job %d: %s" % (i, p) for p in r["problems"]]
    counts = {(r["attempted"], r["failed"]) for r in records}
    if len(counts) > 1:
        problems.append("jobs disagree on attempted/failed decodes: %s"
                        % sorted(counts))
    digests = {r["digest"] for r in records}
    if len(digests) > 1:
        kinds = {(r["traced"], r["digest"]) for r in records}
        problems.append("jobs disagree on their outputs (%d distinct, "
                        "traced/untraced pairs %s)"
                        % (len(digests), sorted(kinds)))
    return problems


def _layers(workload, result, untraced, traced):
    """Per-layer metrics (the smallest over traced jobs; counts are the
    same in every job), the tracing self-test and the dominance verdict."""
    names = list(traced[0]["layers"])
    layers = {n: min(r["layers"][n] for r in traced) for n in names}
    setup = result.get("setup_layers", {})
    layers["trees.read_bracketed.s"] += setup.get("trees.read_bracketed.s", 0)
    layers["trace.overhead_frac"] = (
        min(r["total"][0] for r in traced)
        / min(r["total"][0] for r in untraced) - 1.0)

    problems = []
    fired = set(result.get("setup_fired", []))
    for r in traced:
        fired.update(r["fired"])
    for name, where in sorted(FIRES_ON.items()):
        if workload in where and name not in fired:
            problems.append("self-test: %s never fired on %s"
                            % (name, workload))
        if workload not in where and name in fired:
            problems.append("self-test: %s fired on %s, predicted ~0"
                            % (name, workload))

    notes = []
    predicted = PREDICTED_DOMINANT.get(workload)
    if predicted:
        self_s = {}
        for r in traced:
            for n, v in r["self_s"].items():
                if not n.startswith("shiftreduce.beam_parse.thr-"):
                    self_s[n] = self_s.get(n, 0.0) + v / len(traced)
        job_s = _median([r["total"][0] for r in traced])
        share = sum(self_s.get(n, 0.0) for n in predicted) / job_s
        others = {n: v for n, v in self_s.items() if n not in predicted}
        top = max(others, key=others.get) if others else None
        holds = top is None or sum(
            self_s.get(n, 0.0) for n in predicted) > others[top]
        notes.append("dominant layer: %s take %.0f%% of traced job time; "
                     "largest other is %s at %.0f%%: prediction %s"
                     % (" + ".join(predicted), 100 * share, top,
                        100 * others.get(top, 0.0) / job_s,
                        "holds" if holds else "is WRONG"))
    return layers, problems, notes


def run(args):
    if not os.path.isfile(os.path.join(SRC, "condest", "__init__.py")):
        raise BenchError("no condest sources under %s" % SRC)
    bench = _load_benchmark()
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work_dir = os.path.join(ROOT, ".bench_work", "%s-%d" % (tag, os.getpid()))
    results_dir = os.path.join(ROOT, ".bench_results")
    data_dir = os.path.join(work_dir, "data")
    os.makedirs(data_dir)
    os.makedirs(results_dir, exist_ok=True)
    try:
        files, sizes = _generate(args.workload, args.seed, data_dir)
        inputs = os.path.join(work_dir, "inputs.json")
        with open(inputs, "w", encoding="utf-8") as f:
            json.dump(files, f)
        out = os.path.join(work_dir, "result.json")
        # the first interpreter compiles bytecode; it is not a sample
        _worker(args, work_dir, inputs, out, deadline, setup_only=True)
        setup = [_worker(args, work_dir, inputs, out, deadline,
                         setup_only=True) for _ in range(SETUP_PROBES)]
        result = _worker(args, work_dir, inputs, out, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    records = result["records"]
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    problems = _check_records([result["warmup"]] + records)
    e2e, samples = _end_to_end(result, setup, untraced)
    # Every job repeats the same decodes (checked above), so the counts of
    # one job are the run's operations; summing the repeats would make
    # them depend on how many jobs fit in the run.
    attempted, failed = untraced[0]["attempted"], untraced[0]["failed"]
    quality = untraced[0]["quality"]
    notes = []
    if args.trace:
        layers, more, notes = _layers(args.workload, result, untraced, traced)
        problems += more
        declared = [m["name"] for m in bench["per_layer"]]
    else:
        declared = [m["name"] for m in bench["end_to_end"]]
    values = layers if args.trace else e2e
    missing = [n for n in declared if n not in values]
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]
             + bench["per_layer"]}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in declared}

    provenance = _provenance(args.seed)
    report = {"workload": args.workload, "trace": args.trace,
              "jobs": len(records), "decode_samples": samples,
              "inputs": sizes, "provenance": provenance,
              "setup_samples": setup, "quality": quality,
              "fail_frac": failed / attempted if attempted else 0.0,
              "end_to_end": e2e, "unscaled": _unscaled(setup, untraced),
              "problems": problems, "notes": notes,
              "correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(results_dir, tag + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    if args.trace:
        with open(os.path.join(results_dir, tag + "-spans.jsonl"), "w",
                  encoding="utf-8") as f:
            for s in result["spans"]:
                f.write(json.dumps(s) + "\n")

    print("workload %s  seed %d  trace %d  %d jobs in a closed loop "
          "(one caller, no worker pool)"
          % (args.workload, args.seed, args.trace, len(records)))
    print("inputs      " + " ".join("%s=%s" % kv for kv in sorted(
        sizes.items())))
    print("provenance  " + " ".join("%s=%s" % kv for kv in sorted(
        provenance.items())))
    for name, value in e2e.items():
        extra = ""
        if name == "setup_s":
            extra = "  (median of %d interpreters)" % len(setup)
        elif name.startswith("sent_"):
            extra = "  (%d decodes, each the median over %d jobs)" % (
                samples, len(untraced))
        print("%-20s %14.6f %s%s" % (name, value, units.get(name, ""), extra))
    raw = report["unscaled"]
    print("times above are at the reference host speed (probe %.4f s); "
          "this run's probe %.4f s, unscaled setup_s %.6f train_s %.6f "
          "decode_s %.6f total_s %.6f"
          % (probes.REFERENCE_PROBE_S, raw["probe_s"], raw["setup_s"],
             raw["train_s"], raw["decode_s"], raw["total_s"]))
    print("%-20s %14.6f fraction  (%d failed of %d decodes per job)"
          % ("fail_frac", report["fail_frac"], failed, attempted))
    for name, unit in QUALITY_UNITS.items():
        if name in quality:
            print("%-20s %14.6f %s" % (name, quality[name], unit))
        else:
            print("%-20s %14s (does not apply to %s)"
                  % (name, "n/a", args.workload))
    if args.trace:
        for m in bench["per_layer"]:
            print("%-45s %16.6f %s" % (m["name"], layers[m["name"]],
                                       m["unit"]))
    for line in notes:
        print(line)
    for line in problems:
        print("CHECK FAILED: " + line)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        return run(args)
    except BenchError as e:
        print("bench: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
