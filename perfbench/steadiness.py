#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--out perfbench/steadiness.json]

Runs every workload of BENCHMARK.json once per seed with tracing off, for
run_seconds each, in two sets of ten seeds (set k uses seeds
100*k+1 .. 100*k+10). For each set and end-to-end metric it reports the
median, the quartiles (statistics.quantiles, n=4) and the spread,
(q3 - q1) / median, beside the metric's bound; for the second set it
reports how much worse its median is than the first set's, as a share of
it. A spread is steady when it is under a third of the bound (setup_s is
exempt from that rule); the second set's median may be worse by at most
the bound.

With --out the campaign is appended to the file's records, which keep
every campaign ever run, steady or not; the file's "ok" is true only when
every record is. Each record names the benchmark version it measured by a
hash of BENCHMARK.json and the benchmark's files. Exits 1 when this
campaign fails a check.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def fingerprint():
    """Hash of BENCHMARK.json and the benchmark's files, documentation,
    this record's own file and build leftovers excluded."""
    h = hashlib.sha256((ROOT / "BENCHMARK.json").read_bytes())
    for path in sorted(HERE.rglob("*")):
        if path.is_file() and path.suffix != ".md" \
                and path.name != "steadiness.json" \
                and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(HERE)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_set(workload, seeds, seconds, bench):
    values = {m["name"]: [] for m in bench["end_to_end"]}
    correct = True
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        correct &= result["correct"]
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    return correct, values


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    record = {"benchmark": fingerprint(),
              "started": datetime.datetime.now(datetime.timezone.utc)
              .isoformat(timespec="seconds"),
              "run_seconds": seconds, "runs": RUNS, "sets": [], "ok": True}
    first = {}
    for k in range(SETS):
        seeds = range(100 * k + 1, 100 * k + 1 + RUNS)
        rows = {}
        for workload in (w["name"] for w in bench["workloads"]):
            correct, values = run_set(workload, seeds, seconds, bench)
            record["ok"] &= correct
            metrics = {}
            for m in bench["end_to_end"]:
                name, bound = m["name"], m["bound"]
                q1, med, q3 = statistics.quantiles(values[name], n=4)
                spread = (q3 - q1) / med if med else 0.0
                row = {"q1": q1, "median": med, "q3": q3, "spread": spread,
                       "bound": bound,
                       "steady": name == "setup_s" or spread < bound / 3}
                line = (f"set {k} {workload:14s} {name:12s} median {med:12.6g}"
                        f"  spread {spread:7.2%}  bound {bound:.0%}")
                if k > 0:
                    base = first[workload][name]
                    worse = (med - base) / base if base else 0.0
                    if m["better"] == "higher":
                        worse = -worse
                    row["worse_than_first"] = worse
                    row["steady"] &= worse <= bound
                    line += f"  vs set 0 {worse:+7.2%}"
                record["ok"] &= row["steady"]
                metrics[name] = row
                print(line + ("" if row["steady"] else "  NOT STEADY"),
                      flush=True)
            rows[workload] = {"seeds": [seeds.start, seeds.stop - 1],
                              "correct": correct, "metrics": metrics}
            if k == 0:
                first[workload] = {n: r["median"] for n, r in metrics.items()}
        record["sets"].append(rows)
    if args.out:
        out = Path(args.out)
        report = (json.loads(out.read_text()) if out.exists() else
                  {"host": {"machine": platform.machine(),
                            "cpus": os.cpu_count()},
                   "records": []})
        report["records"].append(record)
        report["ok"] = all(r["ok"] for r in report["records"])
        out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
