"""walkqca benchmark: one workload, one seed, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; the library is imported from its `src/`.  The run
builds the workload's inputs from the seed, does one untimed warm-up
pass, then repeats the workload's job list for S seconds (and until at
least 100 step samples and 3 passes are in).  Every job checks its own
output against the library's 1e-12 contracts.

--trace 0 splits the S seconds over this process and two fresh worker
processes and prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes in this process, prints the
per-layer metrics and the size ladder, and writes the spans to
perfbench/out/.  The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

import provenance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_STEPS = 100  # a p90 needs ten samples beyond it
MIN_PASSES = 3
DEADLINE_S = 120  # no pass starts later than this after start-up, so a run ends within 180 s
# Fresh processes that each set up and take a share of the timed passes,
# besides this one.  Timings of small arrays depend on where a process
# places them; pooling three processes keeps one placement from setting
# a run's result, and gives three set-up samples.
WORKERS = 2


class BenchError(RuntimeError):
    """The benchmark itself cannot run or produce a valid result."""


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import walkqca
    except ImportError as exc:
        raise BenchError(f"cannot import walkqca from {SRC}: {exc}") from exc
    if not Path(walkqca.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"walkqca was imported from {walkqca.__file__}, not from {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def measure(run_pass, job_list, seconds: float, traced_pass=None, min_passes=MIN_PASSES, min_steps=MIN_STEPS):
    """Closed loop over the job list; alternates with traced passes if given."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(job_list))
        if traced_pass is not None:
            traced.append(traced_pass(job_list))
        now = time.perf_counter()
        steps = sum(len(p.steps) for p in plain)
        done = now - start >= seconds and steps >= min_steps and len(plain) >= min_passes
        if done or now - _T0 > DEADLINE_S:
            return plain, traced


def run_worker(args, seconds: float) -> dict:
    """Set-up time, warm-up gate failures and timed passes of a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--worker", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def typical(passes):
    """Noise-filtered pass time and step latencies of a list of passes.

    The job list is the same in every pass, so each job and each step
    position (job, step index) has one sample per pass.  Their medians over
    the passes drop the bursts a shared machine adds to a few of them; the
    pass time is the sum of the job medians, and the step latencies are the
    medians of the step positions.
    """
    pass_s = sum(median(times) for times in zip(*(p.job_times for p in passes)))
    positions = {}
    for p in passes:
        for j, steps in enumerate(p.job_steps):
            for k, seconds in enumerate(steps):
                positions.setdefault((j, k), []).append(seconds)
    return pass_s, [median(samples) for samples in positions.values()]


def report_failures(passes) -> list[dict]:
    seen = {}
    for p in passes:
        for o in p.outcomes:
            if o.status != "ok":
                entry = seen.setdefault(o.job, {"job": o.job, "status": o.status, "count": 0, "first": o.message})
                entry["count"] += 1
    return list(seen.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    provenance.pin_blas_threads()
    import_library()

    import numpy as np

    import jobs
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job_list = workload.build(args.seed, workdir)
        warmup = jobs.run_pass(job_list)
        setup_s = time.perf_counter() - _T0
        if args.worker is not None:
            passes, _ = measure(jobs.run_pass, job_list, args.worker, min_passes=1, min_steps=0)
            doc = {"setup_s": setup_s, "gate_failures": warmup.gate_failures, "passes": [dataclasses.asdict(p) for p in passes]}
            print(json.dumps(doc))
            return 0

        tracer = tracing.Tracer()
        span_log = []

        def traced_pass(job_list):
            remove = tracing.install(tracer)
            try:
                result = jobs.run_pass(job_list)
            finally:
                remove()
            span_log.append(tracer.take())
            return result

        if args.trace:
            plain, traced = measure(jobs.run_pass, job_list, args.seconds, traced_pass)
        else:
            share = args.seconds / (WORKERS + 1)
            workers = [run_worker(args, share) for _ in range(WORKERS)]
            pooled = [jobs.PassResult.from_dict(p) for w in workers for p in w["passes"]]
            plain, traced = measure(
                jobs.run_pass,
                job_list,
                share,
                min_passes=max(1, MIN_PASSES - len(pooled)),
                min_steps=MIN_STEPS - sum(len(p.steps) for p in pooled),
            )
            plain += pooled
        controls = [jobs.run_job(job, jobs.Clock()) for job in workloads.negative_controls(workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counted = plain + traced
    attempted = sum(len(p.outcomes) for p in counted)
    failed = sum(p.failed for p in counted)
    gate_failures = warmup.gate_failures + sum(p.gate_failures for p in counted)
    controls_ok = all(o.status == "gate" for o in controls)
    info = provenance.collect(ROOT, args.seed)
    info["largest_array"] = {"what": workload.largest_array, "MiB": workload.largest_array_bytes / 2**20}

    if args.trace:
        per_pass = [tracing.layer_metrics(spans) for spans in span_log]
        metrics = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = typical(traced)[0] - typical(plain)[0]
        metrics.update(workloads.size_ladder(np.random.default_rng(args.seed)))
        notes = {}
    else:
        setups = [setup_s] + [w["setup_s"] for w in workers]
        gate_failures += sum(w["gate_failures"] for w in workers)
        pass_s, steps = typical(plain)
        n_steps = sum(len(p.steps) for p in plain)
        metrics = {
            "setup_s": median(setups),
            "pass_s": pass_s,
            "step_s_p50": median(steps),
            "step_s_p90": quantiles(steps, n=10, method="inclusive")[8],
            "peak_rss_mb": max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024,
        }
        notes = {
            "setup_s": f"median of {len(setups)} processes: {', '.join(f'{s:.3f}' for s in setups)}",
            "pass_s": f"sum of job medians over {len(plain)} passes in {len(setups)} processes",
            "step_s_p50": f"{len(steps)} step positions, {n_steps} step samples",
            "step_s_p90": f"{len(steps)} step positions, {n_steps} step samples",
        }

    declared = declared_metrics(args.trace)
    if set(metrics) != set(declared):
        missing, extra = sorted(set(declared) - set(metrics)), sorted(set(metrics) - set(declared))
        raise BenchError(f"emitted metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        raise BenchError(f"non-finite metrics {bad}")

    failures = report_failures(counted)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} provenance: {json.dumps(info)}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} = {value:.6g} {declared[name]}{note}")
    print(f"{args.workload} fail_frac = {failed / attempted:.4f} of jobs  ({failed} failed of {attempted} attempted)")
    for f in failures:
        print(f"  failed {f['job']} x{f['count']} [{f['status']}]: {f['first']}")
    for o in controls:
        verdict = "fails the gate as it must" if o.status == "gate" else f"DID NOT fail the gate ({o.status})"
        print(f"  negative control {o.job}: {verdict}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "provenance": info,
        "metrics": metrics,
        "pass_s_samples": [p.busy for p in plain],
        "traced_pass_s_samples": [p.busy for p in traced],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "controls": [dataclasses.asdict(o) for o in controls],
    }
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if args.trace:
        spans = [[i, s.name, s.start, s.end, s.parent, s.failed] for i, log in enumerate(span_log) for s in log]
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans), encoding="utf-8")

    result = {
        "correct": gate_failures == 0 and controls_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
