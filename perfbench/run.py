#!/usr/bin/env python3
"""Repository benchmark: build, run and check one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/perfbench.exe with
dune, then spawns one process per measured unit, each running the
workload's timed region once, so every unit starts cold and pays its own
set-up. With --trace 0 it spawns about --seconds worth of units (at least
one), plus set-up-only processes and, for zoo-compile and long-search, the
processes that time replays of the units' saved databases, and prints
every end-to-end metric. With --trace 1 it runs one untraced and one
traced unit and prints every per-layer metric. Detail lines come first; the last line of stdout is one
JSON object. Exit status is non-zero when the build fails or any output
check fails.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("zoo-compile", "long-search", "serve-mixed")
JOBS = 2  # pinned pool size: the 2-core machine the bounds were measured on
# Seconds one unit takes on that machine, timed region and checks included.
# A run has a fixed number of units, so its statistics are the same
# function of the seed on every run.
NOMINAL_S = {"zoo-compile": 12.0, "long-search": 30.0, "serve-mixed": 12.0}
# Workloads whose units all search one fixed list of tasks, in one order,
# and which have no replay jobs. Their replay samples come from replaying
# the units' saved databases of bests (perfbench.exe replay-db). A task's
# search and replay latencies are its medians over the run's units, so a
# unit or a replay that ran in a slow phase of the machine does not set
# the tail.
FIXED_TASKS = ("zoo-compile", "long-search")
SETUP_SPAWNS = 30
CHILD_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
FORBIDDEN_ENV = (
    "TIR_FAULTS", "TIR_DEEPCHECK", "TIR_APPLY_CACHE", "TIR_NEST_CACHE",
    "TIR_ANALYSIS_CACHE", "TIR_STALL_GENS", "TIR_HALT_AFTER_GEN", "OCAMLRUNPARAM",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ".", "--build-dir", "_build", "./perfbench/perfbench.exe"]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return False
    return proc.returncode == 0 and os.path.isfile(EXE)


def child(cmd, env):
    """Run one benchmark process; returns (spawn wall-clock time, exit status, stdout)."""
    t_spawn = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"timed out: {' '.join(cmd)}")
    return t_spawn, proc.returncode, out


def spawn(args, work, env):
    """Run one unit in its own work directory; returns (spawn wall-clock
    time, parsed JSON line)."""
    t_spawn, status, out = child([EXE, "unit", "--jobs", str(JOBS), "--work", work] + args, env)
    if status != 0:
        raise RuntimeError(f"unit exited {status}: {' '.join(args)}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def replay(workload, db, env):
    """Time cold replays of a unit's saved database in a fresh process:
    {record name: fastest replay in seconds}, or None if a replay failed."""
    _, status, out = child([EXE, "replay-db", workload, db], env)
    if status != 0:
        return None
    return {name: float(t) for name, t in (line.split() for line in out.splitlines())}


def tail_pct(n):
    """Highest whole percentile with at least ten samples beyond it."""
    return 100 if n <= 10 else 100 * (n - 10) // n


def percentile(xs, p):
    """Nearest-rank percentile."""
    s = sorted(xs)
    k = -(-p * len(s) // 100)  # ceil
    return s[max(0, min(len(s) - 1, k - 1))]


def end_to_end(workload, units, setups, replays, replay_failed):
    """replays: per saved database, {task: its fastest replay}; replay_failed:
    how many of those databases failed."""
    walls = [u["wall_s"] for u in units]
    if workload in FIXED_TASKS:
        search = [statistics.median(xs) for xs in zip(*(u["search_lat"] for u in units))]
        tasks = sorted(set.intersection(*(set(r) for r in replays))) if replays else []
        replay = [statistics.median(r[k] for r in replays) for k in tasks]
    else:
        search = [x for u in units for x in u["search_lat"]]
        replay = [x for u in units for x in u["replay_lat"]]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units) + replay_failed
    med = statistics.median
    m = {
        "setup_s": (med(setups), "s", f"median of {len(setups)} process spawns"),
        "wall_s": (med(walls), "s", f"median of {len(units)} units"),
        "trials_per_s": (med(u["trials"] / u["wall_s"] for u in units), "1/s",
                         f"{units[0]['trials']} programs measured per unit"),
        "best_us_geomean": (med(u["best_us_geomean"] for u in units), "sim-us",
                            f"median over units of the geomean of {len(units[0]['delivered'])}"
                            " delivered simulated latencies"),
        "tuning_min": (med(u["tuning_min"] for u in units), "sim-min",
                       "median over units of simulated profiling + search"),
        "time_to_best_s": (med(u["time_to_best_s"] for u in units), "s",
                           f"median of {len(units)} units"),
        "peak_rss_mb": (med(u["peak_rss_mb"] for u in units), "MB",
                        f"median of {len(units)} units"),
        "ok_frac": ((attempted - failed) / attempted, "ratio",
                    f"1 - failed_frac; failed {failed} of {attempted} operations"),
        "jobs_per_s": (med(u["attempted"] / u["wall_s"] for u in units), "1/s",
                       f"{units[0]['attempted']} operations per unit"),
    }
    if workload in FIXED_TASKS:
        kinds = (("search_job", search, f" tasks, each its median over {len(units)} units"),
                 ("replay_job", replay, f" tasks, each its median over {len(replays)} saved"
                                        " databases of its fastest cold replay"))
    else:
        kinds = (("search_job", search, " jobs"), ("replay_job", replay, " jobs"))
    for name, xs, what in kinds:
        p = tail_pct(len(xs))
        m[f"{name}_p50_s"] = (med(xs), "s", f"p50 of n={len(xs)}{what}")
        m[f"{name}_tail_s"] = (percentile(xs, p), "s", f"p{p} of n={len(xs)}{what}")
    return m, attempted, failed


def print_units(units):
    for u in units:
        print(f"unit seed={u['seed']} inputs={u['inputs_n']} inputs_md5={u['inputs_hash']}"
              f" wall_s={u['wall_s']:.3f} failed={u['failed']}")
    for line in units[0]["detail"]:
        print(line)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    set_env = [v for v in FORBIDDEN_ENV if v in os.environ]
    if set_env:
        log(f"perfbench: refusing to run with {', '.join(set_env)} set")
        return 2
    if not build():
        log("perfbench: build failed")
        return 1
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    env = dict(os.environ, TIR_JOBS=str(JOBS))
    work = os.path.join(".perfbench-work", str(os.getpid()))

    # Unit i searches with seed 1000 * seed + i, so a run averages over
    # several search trajectories; the interpreter check runs once. Every
    # process gets a work directory of its own, removed when it ends unless
    # the run still needs the database saved there: removing serve-mixed's
    # queue trees all at the end of a run slowed later runs' set-up.
    spawned = itertools.count()

    def unit(i, extra=(), keep=False):
        args = ["--workload", a.workload, "--seed", str(1000 * a.seed + i)] + list(extra)
        dir_ = os.path.join(work, f"p{next(spawned)}")
        try:
            return (dir_,) + spawn(args, dir_, env)
        finally:
            if not keep:
                shutil.rmtree(dir_, ignore_errors=True)

    problems = []
    try:
        if a.trace == 0:
            n = max(1, round(a.seconds / NOMINAL_S[a.workload]))
            units, setups, dbs, bad = [], [], [], set()
            fastest = {}  # saved database -> {task: its fastest replay}

            # Replays each given database in a fresh process, keeping each
            # record's fastest replay over all the processes.
            def replay_saved(which):
                for db in which:
                    got = replay(a.workload, db, env)
                    if got is None or fastest.setdefault(db, got).keys() != got.keys():
                        bad.add(db)
                    else:
                        fastest[db] = {k: min(t, got[k]) for k, t in fastest[db].items()}

            # Set-up-only spawns are spread between the units, so set-up
            # is sampled under the same machine load as the timed regions.
            for i in range(n):
                for _ in range(SETUP_SPAWNS // n):
                    _, t_spawn, s = unit(i, ["--setup-only"])
                    setups.append(s["t_first"] - t_spawn)
                dir_, t_spawn, u = unit(i, ["--interp"] if i == 0 else [],
                                        keep=a.workload in FIXED_TASKS)
                units.append(u)
                setups.append(u["t_first"] - t_spawn)
                # Replays run between units, never beside a timed region.
                # A database is replayed after its own unit and after every
                # later one, so a slow phase of the machine sets a record's
                # sample only if it covers all these moments. The last
                # unit's database could be replayed only at the end of the
                # run, so it is left out unless it is the only one.
                if a.workload in FIXED_TASKS:
                    dbs.append(os.path.join(dir_, "db.txt"))
                    replay_saved(dbs[: max(1, n - 1)])
            problems += [f"{db}: replay process failed" for db in sorted(bad)]
            replays = [r for db, r in fastest.items() if db not in bad]
            metrics, attempted, failed = end_to_end(a.workload, units, setups, replays, len(bad))
            wanted = spec["end_to_end"]
        else:
            _, _, plain = unit(0)
            _, _, traced = unit(0, ["--trace"])
            units = [plain, traced]
            attempted = sum(u["attempted"] for u in units)
            failed = sum(u["failed"] for u in units)
            metrics = {n: (v, u, b) for n, v, u, b in traced["layers"]}
            metrics["trace.overhead_frac"] = (
                traced["wall_s"] / plain["wall_s"] - 1, "ratio",
                f"traced wall_s {traced['wall_s']:.3f} / untraced {plain['wall_s']:.3f} - 1")
            wanted = spec["per_layer"]
        problems += [f for u in units for f in u["failures"]]
        print_units(units)
        if a.trace == 1:
            print(f"{'span':24} {'count':>8} {'total_s':>10} {'self_s':>10} {'p50_ms':>10} {'tail_ms':>10}")
            for name, count, total, self_s, p50, tail, pct in traced["spans"]:
                print(f"{name:24} {count:8d} {total:10.4f} {self_s:10.4f} {p50:10.4f} {tail:10.4f} (p{pct})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".perfbench-work")
        except OSError:
            pass

    for p in problems:
        print(f"FAILED {p}")
    for name, (value, unit_, basis) in sorted(metrics.items()):
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"metric {name:28} {shown:>14} {unit_:8} {basis}")
    out = {}
    for m in wanted:
        value = metrics.get(m["name"], (None,))[0]
        if value is not None:
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": max(failed, 0 if correct else 1), "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
