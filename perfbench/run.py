#!/usr/bin/env python3
"""Host-performance benchmark of the CkDirect simulator.

    python3 perfbench/run.py --workload storm --seed 1 --seconds 10 --trace 0

Builds the simulator and the benchmark binary under .bench_build/ in the
checkout (CMake, with the main build's default RelWithDebInfo), generates
the workload's inputs from --seed, runs the workload in its own process for
--seconds of measured repetitions, checks every output, and prints as its
last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics of a traced run
whose repetitions alternate untraced and traced.

Workloads (see BENCHMARK.json for why each exists):
  storm          seeded all-pairs eager pingpong, 8,192-PE Abe machine
  stencil        Fig. 2a 3-D Jacobi, 1024x1024x512 at 256 T3 PEs, MSG + CkDirect
  oneside        seeded two-PE chains through every one-sided design, with faults
  storm_sharded  the storm inputs on the 4-shard parallel engine

--smoke shrinks every input so the benchmark's own test runs in seconds.
--wrong-expected checks the outputs against a deliberately wrong expected
value (the self-test of the checks).
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("storm", "stencil", "oneside", "storm_sharded")
RUN_TIMEOUT_S = 170

# The wire-fault plan of `oneside`: rates the reliability layers absorb, so
# every operation completes; the seed picks which messages are hit.
ONESIDE_FAULTS = "drop:0.02,corrupt:0.01,duplicate:0.01"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then (re)build; output goes to a log file."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=870).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    binary = BUILD / "perfbench"
    if not binary.exists():
        fail("build produced no perfbench binary")
    return binary


# ---------------------------------------------------------------- inputs --

def storm_input(seed, smoke):
    """Pairs covering every PE: one intra-node pair per node (a quarter of
    all pairs), the rest matched across the shuffled remainder; per-pair
    payloads log-uniform in 16 B .. 2 KB, far below the 24 KB eager cutoff."""
    rng = random.Random(seed)
    pes, per_node = (64, 8) if smoke else (8192, 8)
    iters = 4 if smoke else 40
    pairs, pool = [], []
    for node in range(pes // per_node):
        members = list(range(node * per_node, (node + 1) * per_node))
        rng.shuffle(members)
        pairs.append((members[0], members[1]))
        pool.extend(members[2:])
    rng.shuffle(pool)
    pairs.extend(zip(pool[0::2], pool[1::2]))
    rng.shuffle(pairs)
    lines = [f"pes {pes}", f"pes_per_node {per_node}", f"iters {iters}",
             f"pairs {len(pairs)}"]
    for a, b in pairs:
        if rng.random() < 0.5:
            a, b = b, a
        size = int(16 * 2 ** (rng.random() * 7)) // 8 * 8
        lines.append(f"{a} {b} {max(16, size)}")
    return "\n".join(lines) + "\n"


def stencil_input(_seed, smoke):
    """The paper's fixed Fig. 2a inputs; the seed does not apply."""
    if smoke:
        dims, pes, iters = (64, 64, 32), 8, 2
    else:
        dims, pes, iters = (1024, 1024, 512), 256, 3
    return (f"gx {dims[0]}\ngy {dims[1]}\ngz {dims[2]}\npes {pes}\n"
            f"pes_per_node 4\nvirtualization 8\niters {iters}\n")


def oneside_input(seed, smoke):
    """Every design at every size rung from 100 B to 1 MB, rungs ascending.
    Below the top rung the seed orders the designs, jitters each size by up
    to 25% and picks each case's fault seed. The top rung is exactly 1 MiB
    with a fixed design order and fixed fault seeds: the process's peak
    memory is set there, by how many 1 MiB copies the reliable links hold at
    once, so it must not depend on the seed."""
    rng = random.Random(seed)
    rounds = ({100: 4, 1000: 4} if smoke else
              {100: 300, 1000: 300, 10_000: 150, 100_000: 40, 1 << 20: 8})
    top = max(rounds)
    cases = []
    for rung, n in rounds.items():
        designs = ["ckd_ib", "ckd_bgp", "pgas", "mpi"]
        if rung != top:
            rng.shuffle(designs)
        for i, design in enumerate(designs):
            if rung == top:
                size, fault_seed = rung, 1000 + i
            else:
                size = max(100, int(rung * rng.uniform(0.8, 1.25)) // 8 * 8)
                fault_seed = rng.getrandbits(32)
            cases.append((design, size, n, fault_seed))
    lines = [f"faults {ONESIDE_FAULTS}", f"cases {len(cases)}"]
    lines += [" ".join(map(str, c)) for c in cases]
    return "\n".join(lines) + "\n"


INPUTS = {"storm": storm_input, "storm_sharded": storm_input,
          "stencil": stencil_input, "oneside": oneside_input}


# --------------------------------------------------------------- metrics --

def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def tag(c, name):
    return c.get("tag." + name, 0.0)


FAULT_TAGS = ("fault.drop", "fault.delay", "fault.duplicate", "fault.corrupt",
              "fault.qp_error", "fault.region_invalid")


def layer_values(rep):
    """Per-layer metrics of one traced repetition."""
    c, s = rep["counters"], rep["spans"]
    events = c.get("sim.events", 0.0)
    run_self = s["run"]["self_s"]
    scans = tag(c, "direct.poll_scan")
    hits, misses = c.get("pool.hits", 0.0), c.get("pool.misses", 0.0)
    eager, rndv = tag(c, "xport.eager"), tag(c, "xport.rts_send")
    return {
        "sim.events": events,
        "sim.run_self_s": run_self,
        "sim.ns_per_event": ratio(run_self * 1e9, events),
        "charm.setup_s": s["setup"]["total_s"],
        "charm.array_setup_s": s["array_setup"]["total_s"],
        "charm.sends": c.get("charm.sends", 0.0),
        "charm.send_s": s["charm_send"]["total_s"],
        "charm.handler_self_s": s["handler"]["self_s"],
        "charm.msgs_per_pump": ratio(c.get("charm.msgs_processed", 0.0),
                                     c.get("charm.pumps", 0.0)),
        "charm.rndv_frac": ratio(rndv, eager + rndv),
        "net.fabric_msgs": c.get("net.fabric_msgs", 0.0),
        "net.fabric_bytes": c.get("net.fabric_bytes", 0.0),
        "net.bytes_per_op": ratio(c.get("net.fabric_bytes", 0.0),
                                  rep["attempted"]),
        "ckdirect.puts": c.get("ckdirect.puts", 0.0),
        "ckdirect.callbacks": c.get("ckdirect.callbacks", 0.0),
        "ckdirect.put_s": s["ckdirect_put"]["total_s"],
        "ckdirect.poll_scans": scans,
        "ckdirect.scan_len_mean": ratio(c.get("ckdirect.scan_len_sum_est", 0.0),
                                        scans),
        "ckdirect.hit_ratio": ratio(c.get("ckdirect.polled_callbacks", 0.0),
                                    scans),
        "ib.rdma_payloads": c.get("ib.rdma_writes", 0.0),
        "dcmf.sends": c.get("dcmf.sends", 0.0),
        "util.pool_hits": hits,
        "util.pool_misses": misses,
        "util.pool_hit_ratio": ratio(hits, hits + misses),
        "proc.sys_s": rep["sys_s"],
        "proc.minor_faults": float(rep["minor_faults"]),
        "fault.injected": sum(tag(c, t) for t in FAULT_TAGS),
        "fault.retransmits": tag(c, "rel.retransmit"),
        "fault.attempts_per_msg": ratio(c.get("fault.attempts_sum", 0.0),
                                        c.get("fault.attempts_n", 0.0)),
        "fault.error_completions": tag(c, "rel.error"),
        "pgas.ops": tag(c, "pgas.put") + tag(c, "pgas.get")
                    + tag(c, "pgas.atomic"),
        "pgas.issue_s": s["pgas_issue"]["total_s"],
        "mpi.issue_s": s["mpi_issue"]["total_s"],
        "mpi.rdma_eager": tag(c, "mpi.rdma.eager"),
        "mpi.credit_stalls": tag(c, "mpi.rdma.stall"),
        "sim.par.windows": c.get("par.windows", 0.0),
        "sim.par.ring_pushes": c.get("par.ring_pushes", 0.0),
        "sim.par.ring_batches": c.get("par.ring_batches", 0.0),
        "sim.par.shard_imbalance": c.get("par.shard_imbalance", 0.0),
    }


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def summarize(reps, peak_rss_kb, trace, bench):
    measured = [r for r in reps if not r["warmup"]]
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    # Virtual results must repeat bit for bit: every repetition (the warm-up
    # included, which for storm_sharded is the serial engine) must reproduce
    # the first one's digest; a repetition that does not has failed whole.
    ref = reps[0]
    for r in measured:
        if r["digest"] != ref["digest"] or r["counters"].get("sim.events") != \
                ref["counters"].get("sim.events"):
            failed += r["attempted"] - r["failed"]
    failed = min(failed, attempted)

    # Every repetition does the same work (same digest, same event count),
    # so what tells them apart is the host: its noise only ever adds time,
    # in bursts that last from seconds to minutes. The fastest repetition is
    # the least disturbed measurement of that work, and the host times are
    # taken from it; the median and quartiles go to the detail line.
    wall = [r["setup_s"] + r["run_s"] for r in measured]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    detail = {"reps": len(measured), "wall_s": dict(zip(
        ("q1", "median", "q3"), statistics.quantiles(wall, n=4)),
        min=min(wall))}
    if not trace:
        values = {
            "setup_s": median([r["setup_s"] for r in measured]),
            "wall_s": min(wall),
            "ops_per_s": max(ratio(r["attempted"] - r["failed"], r["run_s"])
                             for r in measured),
            "cpu_s": min(r["cpu_s"] for r in measured),
            "peak_rss_mb": peak_rss_kb / 1024.0,
            "ops_ok_frac": 1.0 - ratio(failed, attempted),
        }
        names = [m["name"] for m in bench["end_to_end"]]
    else:
        traced = [r for r in measured if r["traced"]]
        untraced = [r for r in measured if not r["traced"]]
        per_rep = [layer_values(r) for r in traced]
        values = {k: median([v[k] for v in per_rep]) for k in per_rep[0]}
        untraced_wall = min(r["setup_s"] + r["run_s"] for r in untraced)
        traced_wall = min(r["setup_s"] + r["run_s"] for r in traced)
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        names = [m["name"] for m in bench["per_layer"]]
        detail["traced_reps"] = len(traced)
    missing = [n for n in names if n not in values]
    if missing:
        fail(f"no value for metrics {missing}")
    print("detail: " + json.dumps(detail))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }


def reference(workload, smoke):
    with open(HERE / "reference.json") as f:
        refs = json.load(f)
    return refs.get(workload + ("_smoke" if smoke else ""), {})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--wrong-expected", action="store_true")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    bench = spec()
    binary = build()
    work = ROOT / ".bench_build" / "runs"
    work.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}"
    input_path = work / f"{stem}.in"
    input_path.write_text(INPUTS[args.workload](args.seed, args.smoke))

    cmd = [str(binary), "--workload", args.workload, "--input", str(input_path),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(work / f"{stem}.spans.csv")]
    if args.workload == "stencil":
        ref = reference("stencil", args.smoke)
        cmd += ["--expect-msg", ref.get("msg_iteration_us", "nan"),
                "--expect-ckd", ref.get("ckd_iteration_us", "nan")]
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    if proc.returncode != 0:
        fail(f"workload exited with {proc.returncode}")
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    reps = [l for l in lines if "rep" in l]
    closing = [l for l in lines if "peak_rss_kb" in l]
    if not reps or not closing:
        fail("workload printed no repetitions")
    (work / f"{stem}.reps.jsonl").write_text(proc.stdout)
    result = summarize(reps, closing[-1]["peak_rss_kb"], args.trace, bench)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
