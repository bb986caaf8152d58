"""Kusuoka benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout: the library is imported from
``./src`` and never from an installed copy, so a directory without the
sources makes it exit with status 2 and no result.

Workloads (see workloads.py for why each exists): ``certify`` and
``measure``.  Each is a closed loop with one client in one
process and no extra threads.  The seed fixes every generated input: random
raw maps, Bernoulli weights, cylinder functions, sampler seeds and job order.

``--trace 0`` measures the end-to-end metrics.  Times are CPU seconds of this
process (``time.process_time``): a job runs on one thread and does no I/O,
so on an idle host its CPU time equals its wall time, but CPU time leaves
out the time a shared virtual machine's CPU is taken by its host, which
otherwise swings the latencies by up to 1.7x for minutes at a time.  The
summary also prints the wall-clock latencies.  ``setup_s`` is the median
of SETUP_SAMPLES cold set-ups: the run's own first one and the rest each in
a fresh interpreter (``--setup-only``), spread over the run, so that no
process-wide cache is warm and the samples see the same machine as the jobs.
``--trace 1`` is a separate run that plays every round twice, untraced and
then with every layer's public functions wrapped in spans (see spans.py).
It reports per-layer metrics, normalized per traced job, and the tracing
overhead as the median over rounds of traced / untraced round time.
``--tiny`` shrinks the job rounds for the self-test.

A job that raises fails; the run stays correct only if every failure is the
known defect its job expects (``Job.expect_raise``).  A wrong output, or any
other raise, makes ``correct`` false.

Standard output holds a readable summary, the machine context as one JSON
line, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SAMPLES = 11
TAIL = 0.9  # job_p90_ms is valid while at least 10 jobs lie beyond it


def machine_context() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def run_job(job, tracer=None, job_id=0):
    """Time one call; return (CPU seconds, wall seconds, problem or None,
    whether the problem is the known defect the job expects)."""
    span = contextlib.nullcontext() if tracer is None else tracer.job_span(job_id, job.kind)
    try:
        with span:
            cpu, wall = process_time(), perf_counter()
            out = job.call()
            cpu, wall = process_time() - cpu, perf_counter() - wall
    except Exception as exc:  # a job that raises is a counted failure, not a crash
        known = job.known_defect(exc)
        return (process_time() - cpu, perf_counter() - wall,
                f"raised {type(exc).__name__}: {exc}" + (" (known defect)" if known else ""), known)
    try:
        return cpu, wall, job.check(out), False
    except Exception as exc:  # malformed output is a mismatch
        return cpu, wall, f"check raised {type(exc).__name__}: {exc}", False


class Results:
    def __init__(self):
        self.records = []  # (kind, CPU seconds, wall seconds, problem, known defect, symbols)

    def add(self, job, cpu, wall, problem, known):
        self.records.append((job.kind, cpu, wall, problem, known, job.symbols))

    @property
    def attempted(self):
        return len(self.records)

    def ok_latencies(self, wall=False):
        return sorted(w if wall else c for _, c, w, p, _, _ in self.records if p is None)

    @property
    def failed(self):
        return sum(p is not None for _, _, _, p, _, _ in self.records)

    @property
    def unexpected(self):
        """Failures other than an expected known defect."""
        return sum(p is not None and not known for _, _, _, p, known, _ in self.records)


def cold_setup_seconds(args) -> float:
    """Time one set-up of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run_loop(wl, systems, seconds, setup_times, setup_sample):
    """Run whole rounds until ``seconds`` of wall time have passed.

    Between rounds ``setup_sample`` is called until ``setup_times`` holds
    SETUP_SAMPLES times, evenly over the run; its wall time is left out of
    the returned wall time.  Returns the results, the wall time and the CPU
    time of the rounds.
    """
    results = Results()
    start, cpu_start = perf_counter(), process_time()
    in_setup = 0.0
    while True:
        for job in wl.next_round(systems):
            results.add(job, *run_job(job, job_id=results.attempted))
        wall = perf_counter() - start - in_setup
        if wall >= seconds:
            return results, wall, process_time() - cpu_start
        taken = len(setup_times) - 1  # the run's own set-up is the first
        if len(setup_times) < SETUP_SAMPLES and wall >= taken * seconds / (SETUP_SAMPLES - 1):
            t0 = perf_counter()
            setup_times.append(setup_sample())
            in_setup += perf_counter() - t0


def play_round(jobs, results, tracer=None):
    start = process_time()
    for job in jobs:
        results.add(job, *run_job(job, tracer, results.attempted))
    return process_time() - start


def traced_loop(wl, systems, seconds, tracer):
    """Play each round untraced, then traced, until ``seconds`` have passed.

    Returns the results of every job, the number of traced jobs and the
    median over rounds of traced / untraced round CPU time.
    """
    results = Results()
    ratios = []
    traced_jobs = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        jobs = wl.next_round(systems)
        untraced = play_round(jobs, results)
        tracer.install()
        try:
            traced = play_round(jobs, results, tracer)
        finally:
            tracer.uninstall()
        traced_jobs += len(jobs)
        ratios.append(traced / untraced)
    return results, traced_jobs, statistics.median(ratios)


def nearest_rank(sorted_values, q):
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(results, wall, cpu, setup_times):
    lat = results.ok_latencies()
    if not lat:
        return {}, ["no job completed and verified"]
    p90, beyond = nearest_rank(lat, TAIL)
    wall_lat = results.ok_latencies(wall=True)
    sampled = sum(s for _, _, _, p, _, s in results.records if p is None)
    sampler_time = sum(t for _, t, _, p, _, s in results.records if p is None and s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_p90_ms": (p90 * 1e3, "ms"),
        "ok_jobs_per_s": (len(lat) / cpu, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"setup_s {metrics['setup_s'][0]:.6f} s (median of {len(setup_times)} cold set-ups "
        f"spread over the run: {', '.join(f'{t:.3f}' for t in setup_times)})",
        f"job_p50_ms {metrics['job_p50_ms'][0]:.6f} ms",
        f"job_p90_ms {metrics['job_p90_ms'][0]:.6f} ms ({len(lat)} verified jobs, {beyond} beyond)"
        + ("" if beyond >= 10 else " WARNING: fewer than 10 jobs beyond the percentile"),
        f"ok_jobs_per_s {metrics['ok_jobs_per_s'][0]:.6f} 1/s over {cpu:.3f} CPU s",
        f"wall clock: job p50 {statistics.median(wall_lat) * 1e3:.3f} ms, "
        f"p90 {nearest_rank(wall_lat, TAIL)[0] * 1e3:.3f} ms, "
        f"{len(lat) / wall:.3f} verified jobs/s over {wall:.3f} s",
        f"fail_ratio {results.failed / results.attempted:.6f} ({results.failed} of "
        f"{results.attempted} jobs; {results.unexpected} not a known defect)",
        (f"symbols_per_s {sampled / sampler_time:.3f} 1/s ({sampled} symbols)"
         if sampler_time else "symbols_per_s n/a (no sampler jobs)"),
        f"peak_rss_mb {rss_mb:.3f} MB",
    ]
    return metrics, lines


def per_layer(tracer, jobs, overhead):
    """Per-layer metrics over the ``jobs`` traced jobs."""
    from kusuoka import measure, symbolic

    self_s, calls = tracer.self_seconds(), tracer.calls()
    c, peaks = tracer.counts, tracer.peaks

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "exactnum.ops": (c["exactnum.ops"] / jobs, "ops/job"),
        "exactnum.inverses": (c["exactnum.inverses"] / jobs, "ops/job"),
        "exactnum.sign_refinements": (c["exactnum.sign_refinements"] / jobs, "ops/job"),
        "exactnum.peak_bits": (peaks["exactnum.peak_bits"], "bits"),
        "exactnum.mean_terms": (ratio(c["exactnum.terms"], c["exactnum.ops"]), "terms"),
    }
    for module in ("linalg", "matsys", "symbolic", "measure", "spectral", "procspace", "gasket", "cli"):
        metrics[f"{module}.self_s"] = (self_s.get(module, 0.0) / jobs, "s/job")
    for module in ("linalg", "matsys", "cli"):
        metrics[f"{module}.calls"] = (calls.get(module, 0) / jobs, "calls/job")
    metrics.update({
        "spectral.certified_ratio": (ratio(c["spectral.certified"], c["spectral.attempts"]), "ratio"),
        "symbolic.words_enumerated": (c["symbolic.words_enumerated"] / jobs, "words/job"),
        "symbolic.budget_peak_share": (peaks["symbolic.budget_peak_share"], "ratio"),
        "measure.level_cache_hit_ratio": (ratio(c["measure.level_hits"], c["measure.level_lookups"]), "ratio"),
        "measure.sampler_cache_hit_ratio": (ratio(c["measure.sampler_hits"], c["measure.sampler_lookups"]), "ratio"),
        "measure.sampler_cache_fill": (peaks["measure.sampler_cache_fill"], "count"),
        "procspace.trials": (c["procspace.trials"] / jobs, "trials/job"),
        "cli.nonzero_exits": (c["cli.nonzero_exits"] / jobs, "exits/job"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"{jobs} traced jobs; procspace.trials is set by the job mix, "
                 "so a change in it means the mix changed")
    lines.append(f"job.self_s {self_s.get('job', 0.0) / jobs:.6g} s/job (benchmark-side time)")
    lines.append(f"sampler cache cap {measure._SAMPLER_CACHE_CAP}, "
                 f"word enumeration budget {symbolic.DEFAULT_BUDGET}")
    return metrics, lines


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,module,start,end,parent,job\n")
        for name, module, start, end, parent, job in tracer.spans:
            fh.write(f"{name},{module},{start:.9f},{end:.9f},{'' if parent is None else parent},{job}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small rounds, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds of one set-up and exit")
    args = parser.parse_args(argv)

    if not (SRC / "kusuoka" / "__init__.py").is_file():
        print(f"error: no kusuoka sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    context = machine_context()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)

    start = process_time()
    systems = wl.setup()
    setup_times = [process_time() - start]
    if args.setup_only:
        print(f"setup_s {setup_times[0]!r}")
        return 0

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    if args.trace:
        import spans

        tracer = spans.Tracer()
        results, traced_jobs, overhead = traced_loop(wl, systems, args.seconds, tracer)
        metrics, lines = per_layer(tracer, traced_jobs, overhead)
        write_spans(tracer, Path(__file__).with_name("out") / f"spans-{wl.name}-{args.seed}.csv")
    else:
        results, wall, cpu = run_loop(wl, systems, args.seconds, setup_times,
                                      lambda: cold_setup_seconds(args))
        metrics, lines = end_to_end(results, wall, cpu, setup_times)

    by_kind = defaultdict(list)
    for kind, seconds, _, problem, _, _ in results.records:
        by_kind[kind].append((seconds, problem))
    for kind, recs in sorted(by_kind.items()):
        problems = [p for _, p in recs if p is not None]
        med = statistics.median(s for s, _ in recs) * 1e3
        line = f"  {kind}: {len(recs)} jobs, median {med:.3f} ms CPU, {len(problems)} failed"
        print(line + (f" (first: {problems[0][:120]})" if problems else ""))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": results.unexpected == 0 and bool(metrics),
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
