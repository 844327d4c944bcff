"""Stability check: two sets of benchmark runs of the same code.

    python3 bench/stability.py

Each of the two sets runs every workload once per seed (set s uses
seeds s*100 + 1 .. s*100 + 10), each run in a fresh interpreter through
bench/run.py with the run length of BENCHMARK.json.  After the untraced
runs of a set, one traced run per workload at seed TRACE_SEED gives the
tracing overhead: the set's median measured (unscaled) cases_per_s over
the traced run's.

For every end-to-end metric and workload the command prints each set's
median, quartiles and spread (interquartile distance over the median),
and whether the sets agree within the bounds of BENCHMARK.json: every
spread within the bound, the two medians apart by no more than the bound
in either direction, and the same share of failed cases.  It also checks that the two traced runs of a workload report
identical call counts.  Everything is saved to bench/out/."""

import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETS = 2
RUNS = 10
TRACE_SEED = 1


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True,
                          timeout=900)
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    result["seed"] = seed
    path = os.path.join(BENCH, "out", "%s-seed%d%s.json"
                        % (workload, seed, "-trace" if trace else ""))
    with open(path) as fh:
        result["measured"] = json.load(fh)["measured"]
    return result


def summarize(spec, runs, measured=False):
    """Per workload and metric: the sets' quartiles, spreads, drift and
    verdicts; with `measured`, of the unscaled timings instead."""
    rows = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in spec["workloads"]:
        name = workload["name"]
        shares = {s: {r["failed"] / r["attempted"] for r in runs[s][name]}
                  for s in runs}
        same_failed = len(set.union(*shares.values())) == 1
        for metric, m in bounds.items():
            if measured and metric not in runs[1][name][0]["measured"]:
                continue
            sets = []
            for s in sorted(runs):
                vals = [r["measured"][metric] if measured
                        else r["metrics"][metric]["value"]
                        for r in runs[s][name]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                sets.append({"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med})
            first, last = sets[0]["median"], sets[-1]["median"]
            worse_by = ((last - first) / first if m["better"] == "lower"
                        else (first - last) / first)
            ok_spread = all(s["spread"] <= m["bound"] for s in sets)
            rows.append({
                "workload": name, "metric": metric, "bound": m["bound"],
                "sets": sets, "worse_by": worse_by,
                "agree": (ok_spread and abs(worse_by) <= m["bound"]
                          and same_failed),
                "steady": all(s["spread"] < m["bound"] / 3 for s in sets),
            })
    return rows


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if len(sys.argv) > 1:
        print("usage: python3 bench/stability.py (it takes no options)",
              file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]

    runs, traced = {}, {}
    for s in range(1, SETS + 1):
        runs[s] = {w: [] for w in workloads}
        seeds = [s * 100 + k for k in range(1, RUNS + 1)]
        for k, seed in enumerate(seeds):
            # rotate the workload order so that no workload always runs
            # first or last in a round
            order = workloads[k % len(workloads):] + workloads[:k % len(workloads)]
            for w in order:
                r = run_once(spec, w, seed, 0)
                runs[s][w].append(r)
                print("set %d %-17s seed %4d  %s  %.1f s" % (
                    s, w, seed, " ".join(
                        "%s=%.5g" % (m, v["value"])
                        for m, v in r["metrics"].items()), r["elapsed_s"]),
                    file=sys.stderr)
        traced[s] = {}
        for w in workloads:
            r = run_once(spec, w, TRACE_SEED, 1)
            untraced = statistics.median(
                u["measured"]["cases_per_s"] for u in runs[s][w])
            r["overhead"] = untraced / r["measured"]["cases_per_s"]
            traced[s][w] = r
            print("set %d %-17s traced: overhead x%.2f, %.1f s" % (
                s, w, r["overhead"], r["elapsed_s"]), file=sys.stderr)

    rows = summarize(spec, runs)
    for title, table in (("scaled to nominal core speed (the metrics)", rows),
                         ("measured, unscaled (for comparison)",
                          summarize(spec, runs, measured=True))):
        print(title)
        print("%-17s %-16s %6s  %-34s %-34s %8s  %s" % (
            "workload", "metric", "bound", "set 1 median [q1, q3] spread",
            "set %d median [q1, q3] spread" % SETS, "worse_by",
            "verdict"))
        for row in table:
            cells = ["%.4g [%.4g, %.4g] %.1f%%" % (
                st["median"], st["q1"], st["q3"], 100 * st["spread"])
                for st in (row["sets"][0], row["sets"][-1])]
            print("%-17s %-16s %6.2f  %-34s %-34s %7.1f%%  %s%s" % (
                row["workload"], row["metric"], row["bound"], cells[0],
                cells[1], 100 * row["worse_by"],
                "agree" if row["agree"] else "DISAGREE",
                "" if row["steady"] else " (spread above a third of the bound)"))
    calls_equal = {}
    for w in workloads:
        counts = [{k: v["value"] for k, v in traced[s][w]["metrics"].items()
                   if k.endswith(".calls")} for s in traced]
        calls_equal[w] = all(c == counts[0] for c in counts)
    print("traced call counts identical across sets at the same seed: %s"
          % calls_equal)
    for s in traced:
        print("set %d tracing overhead (untraced / traced cases_per_s): %s" % (
            s, {w: round(traced[s][w]["overhead"], 2) for w in workloads}))

    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    path = os.path.join(BENCH, "out", "stability-%d.json" % int(time.time()))
    with open(path, "w") as fh:
        json.dump({"runs": runs, "traced": traced, "rows": rows,
                   "calls_equal": calls_equal}, fh, indent=1, sort_keys=True)
    print("saved %s" % os.path.relpath(path, ROOT))
    agree = all(r["agree"] for r in rows) and all(calls_equal.values())
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
