#!/usr/bin/env python3
"""Collect and compare sets of perfbench runs.

Run from the repository root.

  python3 perfbench/ab.py collect DIR [--workloads a,b] [--seeds 1-10] [--seconds 30] [--trace 0|1]
      Runs perfbench once per workload and seed, saving each run's
      standard output as DIR/<workload>-s<seed>-t<trace>.out.

  python3 perfbench/ab.py spread DIR
      Per workload and metric: median, quartiles, and the quartile
      distance as a share of the median, against the metric's bound.

  python3 perfbench/ab.py compare BASE NEW
      Per workload and metric: both sets' medians and quartiles, the
      share of seed-matched pairs NEW won, and the verdict.

Metrics printed by a run but not in its result line (the latency tails)
are included, without a bound. Verdicts follow the choosing-metrics
rules. "better": NEW wins at least nine tenths of the pairs (ties count
for neither) and the medians differ by more than BASE's quartile
distance. "worse": NEW's median is worse
than BASE's by more than the metric's bound. "unresolved": either set's
quartile distance exceeds the bound, unless every NEW run beats every
BASE run. Otherwise "same". Per-layer metrics have no bound; they get a
verdict only from the pair rule.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PRINTED = re.compile(r"^  (\S+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?) (\S+)$")


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        b = json.load(f)
    metrics = {}
    for m in b["end_to_end"]:
        metrics[m["name"]] = m
    for m in b["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    for name in ("fresh_p90_ms", "hit_p90_ms"):
        metrics[name] = {"name": name, "better": "lower", "bound": None}
    return b, metrics


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    b, _ = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in b["workloads"]]
    seconds = args.seconds or b["run_seconds"]
    os.makedirs(args.dir, exist_ok=True)
    for seed in seed_list(args.seeds):
        for w in workloads:
            cmd = b["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            path = os.path.join(args.dir, "%s-s%d-t%d.out" % (w, seed, args.trace))
            with open(path, "w") as f:
                f.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            status = "ok" if proc.returncode == 0 else "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:])
            print("%s seed %d: %s %s" % (w, seed, status, last[0][:120]), flush=True)


def load_runs(d):
    """Returns {(workload, trace): {seed: result}} for the runs in d."""
    runs = {}
    for name in sorted(os.listdir(d)):
        if not name.endswith(".out"):
            continue
        with open(os.path.join(d, name)) as f:
            lines = f.read().strip().splitlines()
        prov = next((json.loads(l.split(":", 1)[1]) for l in lines if l.startswith("provenance:")), None)
        if prov is None or not lines:
            continue
        try:
            res = json.loads(lines[-1])
        except ValueError:
            continue
        # Metrics printed but not in the result line (the latency tails).
        for l in lines:
            m = PRINTED.match(l)
            if m and m.group(1) not in res["metrics"]:
                res["metrics"][m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3)}
        runs.setdefault((prov["workload"], int(prov["trace"])), {})[prov["seed"]] = res
    return runs


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return med, q1, q3


def share(a, b):
    return (a / b) if b else float("inf")


def spread(args):
    _, spec = load_spec()
    for (w, trace), by_seed in sorted(load_runs(args.dir).items()):
        results = list(by_seed.values())
        failed = sum(r["failed"] for r in results)
        print("%s (trace %d): %d runs, %d failed operations, all correct: %s"
              % (w, trace, len(results), failed, all(r["correct"] for r in results)))
        for name in sorted(results[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in results]
            med, q1, q3 = summary(vals)
            sp = share(q3 - q1, med)
            bound = spec.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "OVER BOUND")
            print("  %-28s median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.2f%%  bound %s %s"
                  % (name, med, q1, q3, 100 * sp, "-" if bound is None else "%g%%" % (100 * bound), flag))


def verdict(base, new, m):
    better_is_lower = m["better"] == "lower"
    bmed, bq1, bq3 = summary(base)
    nmed, nq1, nq3 = summary(new)
    sign = -1 if better_is_lower else 1
    bound = m.get("bound")
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if bound is not None and (share(bq3 - bq1, bmed) > bound or share(nq3 - nq1, nmed) > bound) and not all_better:
        return "unresolved"
    if bound is not None and sign * (nmed - bmed) < -bound * abs(bmed):
        return "worse"
    return None


def compare(args):
    _, spec = load_spec()
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    for key in sorted(set(base_runs) & set(new_runs)):
        w, trace = key
        b, n = base_runs[key], new_runs[key]
        seeds = sorted(set(b) & set(n))
        print("%s (trace %d): %d base runs, %d new runs, %d seed-matched pairs; failed operations %d vs %d"
              % (w, trace, len(b), len(n), len(seeds),
                 sum(r["failed"] for r in b.values()), sum(r["failed"] for r in n.values())))
        for name in sorted(next(iter(b.values()))["metrics"]):
            m = spec.get(name, {"better": "lower", "bound": None})
            bv = [r["metrics"][name]["value"] for r in b.values()]
            nv = [r["metrics"][name]["value"] for r in n.values()]
            sign = -1 if m["better"] == "lower" else 1
            wins = sum(1 for s in seeds if sign * (n[s]["metrics"][name]["value"] - b[s]["metrics"][name]["value"]) > 0)
            bmed, bq1, bq3 = summary(bv)
            nmed, nq1, nq3 = summary(nv)
            v = verdict(bv, nv, m)
            if v is None:
                if seeds and wins >= 0.9 * len(seeds) and abs(nmed - bmed) > (bq3 - bq1):
                    v = "better"
                else:
                    v = "same"
            print("  %-28s base %12.4f [%12.4f, %12.4f]  new %12.4f [%12.4f, %12.4f]  %+7.2f%%  won %d/%d  %s"
                  % (name, bmed, bq1, bq3, nmed, nq1, nq3, 100 * share(nmed - bmed, bmed),
                     wins, len(seeds), v))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int, default=0)
    c.add_argument("--trace", type=int, default=0)
    s = sub.add_parser("spread")
    s.add_argument("dir")
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("new")
    args = p.parse_args()
    {"collect": collect, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
