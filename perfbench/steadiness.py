#!/usr/bin/env python3
"""Steadiness record: run the benchmark on several seeds per workload and
report, for every end-to-end metric, the median, the quartiles and the
spread (interquartile range over median) against the metric's bound.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads zoo-compile,...] [--out FILE]
    python3 perfbench/steadiness.py --compare FIRST.jsonl SECOND.jsonl

Run from the root of a checkout. Each run is one `perfbench/run.py`
invocation with BENCHMARK.json's run_seconds; the raw result lines go to
--out (JSON lines). --compare reads two such files and reports, per
workload and metric, how much worse the second set's median is than the
first's, against the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_set(path):
    values = {}
    for line in open(path):
        r = json.loads(line)
        for name, m in r["result"]["metrics"].items():
            values.setdefault((r["workload"], name), []).append(m["value"])
    return values


def compare(spec, first, second):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a, b = load_set(first), load_set(second)
    ok = True
    print("| workload | metric | first median | second median | worse by | bound |")
    print("|---|---|---|---|---|---|")
    for (wl, name), xs in sorted(a.items()):
        if (wl, name) not in b or name not in bounds:
            continue
        m1, m2 = statistics.median(xs), statistics.median(b[(wl, name)])
        worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
        ok &= worse <= bounds[name]
        print(f"| {wl} | {name} | {m1:.6g} | {m2:.6g} | {worse:+.4f} | {bounds[name]} |")
    return 0 if ok else 1


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", default=None)
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    a = ap.parse_args()
    if a.compare:
        return compare(spec, *a.compare)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = open(a.out, "a") if a.out else None
    ok = True
    for wl in a.workloads.split(","):
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            # Metrics printed but not bounded (time_to_best_s) are kept too.
            printed = {}
            for line in lines:
                f = line.split()
                if len(f) >= 3 and f[0] == "metric" and f[1] not in res["metrics"]:
                    try:
                        printed[f[1]] = float(f[2])
                    except ValueError:
                        pass
            if out:
                out.write(json.dumps({"workload": wl, "seed": seed, "result": res,
                                      "printed": printed}) + "\n")
                out.flush()
            if proc.returncode != 0 or not res["correct"]:
                ok = False
                print(f"{wl} seed {seed}: FAILED", flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in printed.items():
                values.setdefault(name, []).append(v)
        print(f"\n{wl}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}")
        print("| metric | median | q1 | q3 | spread | bound | spread/bound |")
        print("|---|---|---|---|---|---|---|")
        for name, xs in values.items():
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            b = bounds.get(name)
            ratio = f"{spread / b:.2f}" if b else "unbounded"
            print(f"| {name} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {b or '-'} | {ratio} |",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
