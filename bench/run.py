"""Verification benchmark for brackops.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a brackops checkout, in this single
process and thread, as a closed loop over a fixed list of verification
cases built from the seed before timing starts.  The list holds
round(S * RATE[workload]) cases, none repeated, and the run ends when
the list is exhausted.  Each case times only its calls into brackops;
its outputs are then checked outside the timed span.  Between cases the
run times the calibration loop of calibrate.py, and the timings that
become metrics are scaled to its nominal core speed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: `correct` is false if
any case raised or gave a wrong output; the metrics are the end-to-end ones
with --trace 0, the per-layer metrics of tracing.py with --trace 1.  A
fuller record of the run is written to bench/out/."""

import argparse
import compileall
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# cases per second of --seconds, measured on the reference machine (see
# README.md); the case count, and so the work, is fixed by the seconds
RATE = {
    "w-roundtrip": 415,
    "action-coherence": 38,
    "coend-pointwise": 36,
    "omega-nerve": 265,
}

# set-up runs per measurement: this process and SETUP_CHILDREN fresh
# interpreters; setup_s is their median
SETUP_CHILDREN = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(RATE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the case list, print the set-up seconds, exit")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def case_count(workload, seconds):
    return max(1, round(seconds * RATE[workload]))


def set_up(workload, seed, seconds):
    """Import brackops and build the case list.  Returns the cases and the
    set-up time in seconds, as measured and as scaled to nominal speed."""
    meter = calibrate.Speedometer()
    meter.sample(0, rounds=3)
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads
    cases = workloads.build(workload, seed, case_count(workload, seconds))
    elapsed = time.perf_counter() - start
    meter.sample(1, rounds=3)
    return cases, (elapsed, elapsed * meter.scale(0))


def child_set_up(args):
    "Set-up seconds, measured and scaled, of a fresh interpreter."
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True,
                          timeout=120)
    return tuple(float(v) for v in done.stdout.decode().split()[-2:])


def tail_percentile(n):
    """The highest of p99 and p90 with at least ten cases above its
    nearest-rank position; None below 100 cases."""
    for q in (99, 90):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return None


def percentile(sorted_values, q):
    "Nearest-rank percentile."
    return sorted_values[max(0, math.ceil(q * len(sorted_values) / 100) - 1)]


def run_cases(cases, tracer=None):
    """Time every case.  Returns (position, CPU ns, wall ns) of each case
    that completed, the calibration samples, the number of failed cases
    and a list of wrong outputs.  A failed case has no output to check
    and no timing, so any failure makes the run's `correct` false."""
    spans, failed, wrong = [], 0, []
    meter = calibrate.Speedometer()
    meter.sample(0, rounds=3)
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
    for n, case in enumerate(cases):
        if tracer is not None:
            tracer.active = True
        w0 = clock()
        c0 = cpu_clock()
        try:
            out, error = case.run(), None
        except Exception as exc:  # a case that raises is counted as failed
            out, error = None, exc
        c1 = cpu_clock()
        w1 = clock()
        if tracer is not None:
            tracer.active = False
        if error is not None:
            failed += 1
            print("case %d (%s) raised %r" % (n, case.kind, error),
                  file=sys.stderr)
        else:
            spans.append((n, c1 - c0, w1 - w0))
            if not case.check(out):
                wrong.append("case %d (%s)" % (n, case.kind))
        meter.after_span(n, c1 - c0)
    meter.sample(len(cases), rounds=3)
    return spans, meter, failed, wrong


def timings(spans, scale):
    """cases_per_s, CPU p50 ms, CPU tail ms and the tail percentile, with
    each case's times multiplied by scale(position)."""
    cpu_ms = sorted(c * scale(n) / 1e6 for n, c, _ in spans)
    wall_s = sum(w * scale(n) for n, _, w in spans) / 1e9
    q = tail_percentile(len(cpu_ms))
    return (len(cpu_ms) / wall_s, statistics.median(cpu_ms),
            percentile(cpu_ms, q) if q else cpu_ms[-1], q)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "brackops", "__init__.py")):
        print("bench: no brackops sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_only:
        _, setup = set_up(args.workload, args.seed, args.seconds)
        print("%r %r" % setup)
        return 0

    # byte-compile first, so that no set-up pays for it
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    setups = [child_set_up(args) for _ in range(SETUP_CHILDREN)]
    cases, setup = set_up(args.workload, args.seed, args.seconds)
    setups.append(setup)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        undo = tracer.install()
    # the case list lives through the run: keep the collector off it
    gc.collect()
    gc.freeze()
    spans, meter, failed, wrong = run_cases(cases, tracer)
    if tracer is not None:
        tracer.uninstall(undo)
    if not spans:
        print("bench: every case failed", file=sys.stderr)
        return 1

    attempted = len(cases)
    cps, p50, tail, q = timings(spans, meter.scale)
    raw_cps, raw_p50, raw_tail, _ = timings(spans, lambda n: 1)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "wrong": wrong[:20], "tail_percentile": q,
        "kinds": _kinds(cases, spans),
        "calibration_ms": [t / 1e6 for t in meter.samples],
        "measured": {"cases_per_s": raw_cps, "case_cpu_p50_ms": raw_p50,
                     "case_cpu_tail_ms": raw_tail,
                     "setup_s": statistics.median(m for m, _ in setups)},
        "setup_runs_s": setups,
        "python": sys.version.split()[0], "cpus": os.cpu_count(),
    }
    if tracer is None:
        metrics = {
            "cases_per_s": (cps, "1/s"),
            "case_cpu_p50_ms": (p50, "ms"),
            "case_cpu_tail_ms": (tail, "ms"),
            "setup_s": (statistics.median(c for _, c in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    else:
        metrics = tracer.metrics()
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    _save(record)
    print("%s seed %d: %d cases, %d failed, %d wrong, %.1f cases/s measured%s"
          % (args.workload, args.seed, attempted, failed, len(wrong), raw_cps,
             " (traced)" if args.trace else ""), file=sys.stderr)
    print(json.dumps({
        "correct": not wrong and not failed, "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def _kinds(cases, spans):
    "Count and median measured CPU ms per kind of completed case."
    by_kind = {}
    for n, cpu, _ in spans:
        by_kind.setdefault(cases[n].kind, []).append(cpu / 1e6)
    return {k: {"count": len(v), "cpu_p50_ms": statistics.median(v)}
            for k, v in sorted(by_kind.items())}


def _save(record):
    os.makedirs(OUT, exist_ok=True)
    name = "%s-seed%d%s.json" % (record["workload"], record["seed"],
                                 "-trace" if record["trace"] else "")
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
