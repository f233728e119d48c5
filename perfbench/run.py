#!/usr/bin/env python3
"""Whole-stack benchmark of the bootstrapping-service simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload converge|serve|hostile --seed N \\
        --seconds S --trace 0|1

Builds perfbench/ (the simulator libraries plus the benchmark driver) on
first use, runs the workload, checks its outputs and prints one line per
metric followed, as the last line, by one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 runs the traced binary beside the untraced one and
reports the per-layer metrics. The exit code is nonzero when a correctness
check fails or the build is impossible. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Independent instances (derived seeds) per run: the simulated metrics are
# means over them, which keeps their spread across --seed small.
INSTANCES = {"converge": 6, "serve": 5, "hostile": 2}

# Message tags the engine counts as msg.sent.<tag>.
MSG_TAGS = [
    "newscast.request", "newscast.answer", "bootstrap.request", "bootstrap.answer",
    "probe.request", "probe.reply", "kv.put", "kv.get", "kv.replicate", "kv.response",
    "cast",
]
FAULT_COUNTERS = [
    "fault.link.dropped", "fault.partition.dropped", "fault.crash", "fault.recover",
    "fault.dark.dropped", "fault.dark.deferred",
]
ADV_COUNTERS = [
    "adv.nodes", "adv.poisoned", "adv.eclipsed", "adv.spoofed", "adv.suppressed",
    "adv.corrupted", "msg.corrupt", "quarantine.held", "quarantine.promoted",
    "quarantine.rejected",
]
LAYERS = ["setup", "sim", "core", "sampling", "workload", "adversary", "bench"]


def shards_for(workload, nproc):
    """Engine lanes per instance. With a lane on every core, any other thread
    on the machine stalls a window barrier: on a 4-core VM one converge
    instance's wall time had an interquartile range of 16% at K=4, 8% at K=3
    and 6% at K=2. So one core stays free, and half of them on converge,
    whose windows carry the fewest events."""
    k = nproc // 2 if workload == "converge" else nproc - 1
    return max(1, min(k, 8))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def instance_seed(seed, i):
    return (seed * 1000003 + i) % (1 << 63)


# --- build ------------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: the simulator sources (src/) are missing next to perfbench/")
        return None
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = out / "perfbench"
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(bdir), "-j", jobs, "--target", "perfbench_stack",
           "perfbench_stack_traced"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    (out / "out").mkdir(parents=True, exist_ok=True)
    return bdir, out / "out"


def run_rep(bdir, outdir, workload, seed, shards, traced):
    exe = bdir / ("perfbench_stack_traced" if traced else "perfbench_stack")
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--shards", str(shards)]
    spans = outdir / f"tmp-spans-{workload}-{seed}.jsonl"
    if traced:
        cmd += ["--spans-out", str(spans),
                "--profile-out", str(outdir / f"profile-{workload}-{seed}.json")]
    t0 = time.monotonic()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    elapsed = time.monotonic() - t0
    if p.returncode != 0:
        raise RuntimeError(f"{exe.name} {workload} seed {seed} exited {p.returncode}")
    rep = json.loads(p.stdout)
    rep["elapsed"] = elapsed
    if traced:
        rep["spans"] = [json.loads(line) for line in spans.read_text().splitlines()]
        spans.unlink()
    return rep


# --- checks -----------------------------------------------------------------

class Checks:
    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)


def kv_issued(sim):
    return sim["kv"]["puts"] + sim["kv"]["gets"]


def kv_lost(sim):
    kv = sim["kv"]
    return kv_issued(sim) - (kv["answered"] + kv["timeouts"] + kv["unroutable"]
                             + kv["pending_dead"])


def check_instance(checks, workload, tag, sim):
    """Workload-specific output checks on one instance's simulated outcome."""
    kv = sim["kv"]
    if workload == "converge":
        checks.add(f"{tag} perfect tables within the cycle cap", sim["converged_cycle"] >= 0,
                   f"converged at cycle {sim['converged_cycle']}")
        checks.add(f"{tag} per-node check agrees with the oracle",
                   sim["imperfect_nodes"] == 0 and sim["series"][-1] == [0, 0],
                   f"{sim['imperfect_nodes']} imperfect nodes")
    elif workload == "serve":
        checks.add(f"{tag} converged before serving", sim["converged_cycle"] >= 0)
        checks.add(f"{tag} zero KV timeouts and unroutable",
                   kv["timeouts"] == 0 and kv["unroutable"] == 0 and kv_issued(sim) > 0,
                   f"timeouts {kv['timeouts']} unroutable {kv['unroutable']}")
        checks.add(f"{tag} every request answered", kv["answered"] == kv_issued(sim))
        checks.add(f"{tag} cast coverage 1.0, zero duplicates",
                   kv["casts"] > 0 and kv["cast_reached"] == kv["cast_expected"] > 0
                   and kv["cast_duplicates"] == 0,
                   f"{kv['cast_reached']}/{kv['cast_expected']} dup {kv['cast_duplicates']}")
    else:
        checks.add(f"{tag} ran the fixed cycle count", sim["cycles"] == 40)
        checks.add(f"{tag} KV ledger balances (no request lost at a live origin)",
                   kv_lost(sim) == 0 and kv["pending_alive"] == 0 and kv_issued(sim) > 0,
                   f"lost {kv_lost(sim)} pending_alive {kv['pending_alive']}")
        checks.add(f"{tag} all casts launched", kv["casts"] == 3)
    if workload != "converge":
        beyond = kv["rtt_count"] * 0.01
        checks.add(f"{tag} >= 10 latency samples beyond p99", beyond >= 10,
                   f"{kv['rtt_count']} samples")


def same_trajectory(a, b):
    """Simulated outcome fields that tracing must not change."""
    keys = ["cycles", "converged_cycle", "events", "node_cycles", "series", "traffic", "kv",
            "msgs_phase", "imperfect_nodes", "view_graph", "controlled_leaf_frac"]
    return all(a[k] == b[k] for k in keys)


# --- metrics ----------------------------------------------------------------

def converge_cycles(sim):
    c = sim["converged_cycle"]
    return c if c >= 0 else sim["cycles"]


def end_to_end(reps_by_instance):
    firsts = [reps[0]["sim"] for reps in reps_by_instance]
    all_reps = [r for reps in reps_by_instance for r in reps]
    m = {
        "setup_s": (statistics.median(r["host"]["setup_s"] for r in all_reps), "s"),
        "wall_s": (statistics.median(r["host"]["wall_s"] for r in all_reps), "s"),
        "peak_rss_mb": (statistics.median(r["host"]["peak_rss_bytes"] for r in all_reps)
                        / 2**20, "MiB"),
        "converge_cycles": (statistics.fmean(converge_cycles(s) for s in firsts), "cycles"),
        "missing_leaf_cycles": (statistics.fmean(sum(x[0] for x in s["series"])
                                                 for s in firsts), "cycles"),
        "missing_prefix_cycles": (statistics.fmean(sum(x[1] for x in s["series"])
                                                   for s in firsts), "cycles"),
        "bytes_per_node_cycle": (sum(s["traffic"]["bytes"] for s in firsts)
                                 / sum(s["node_cycles"] for s in firsts), "bytes"),
    }
    return m


def ops(workload, sims):
    """(attempted, failed) operations under the benchmark's failure rule."""
    if workload == "converge":
        return (sum(s["alive_end"] for s in sims), sum(s["imperfect_nodes"] for s in sims))
    if workload == "serve":
        return (sum(kv_issued(s) for s in sims),
                sum(s["kv"]["timeouts"] + s["kv"]["unroutable"] for s in sims))
    return (sum(kv_issued(s) for s in sims),
            sum(kv_lost(s) + s["kv"]["pending_alive"] for s in sims))


def report_lines(workload, sims):
    """Paper-level outcomes the gate does not bound, printed with their bases."""
    lines = []
    mean = statistics.fmean
    lines.append(f"missing_leaf_end = {mean(s['series'][-1][0] for s in sims):.6g} fraction")
    lines.append(f"missing_prefix_end = {mean(s['series'][-1][1] for s in sims):.6g} fraction")
    if workload == "converge":
        n = sum(s["alive_end"] for s in sims)
        bad = sum(s["imperfect_nodes"] for s in sims)
        lines.append(f"failed_frac = {bad / n:.6g} fraction ({bad} of {n} nodes' tables)")
        for k in ("kv_p50_ticks", "kv_p99_ticks", "cast_coverage"):
            lines.append(f"{k} = n/a (no KV traffic on converge)")
        return lines
    issued = sum(kv_issued(s) for s in sims)
    bad = sum(s["kv"]["timeouts"] + s["kv"]["unroutable"] for s in sims)
    lines.append(f"failed_frac = {bad / issued:.6g} fraction ({bad} timed out or unroutable "
                 f"of {issued} KV requests)")
    samples = sum(s["kv"]["rtt_count"] for s in sims)
    lines.append(f"kv_p50_ticks = {mean(s['kv']['rtt_p50'] for s in sims):.6g} ticks "
                 f"({samples} answered)")
    lines.append(f"kv_p99_ticks = {mean(s['kv']['rtt_p99'] for s in sims):.6g} ticks "
                 f"({samples} samples, {samples // 100} beyond; the public API exposes no p999)")
    reached = sum(s["kv"]["cast_reached"] for s in sims)
    expected = sum(s["kv"]["cast_expected"] for s in sims)
    dups = sum(s["kv"]["cast_duplicates"] for s in sims)
    lines.append(f"cast_coverage = {reached / expected:.6g} fraction ({reached} of {expected} "
                 f"launch-time members alive at the end, {dups} duplicates)")
    lines.append("kv generator lateness = 0 ticks (open loop: batches fire at their "
                 "scheduled virtual time)")
    return lines


def self_times(spans):
    """Per-layer self time: span duration minus its children's durations."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_s"] - s["start_s"]
    out = {layer: 0.0 for layer in LAYERS}
    for s, c in zip(spans, child):
        out[s["layer"]] = out.get(s["layer"], 0.0) + (s["end_s"] - s["start_s"]) - c
    return out


def span_total(spans, name):
    return sum(s["end_s"] - s["start_s"] for s in spans if s["name"] == name)


def per_layer(untraced, traced):
    """Per-layer metrics from paired untraced/traced reps of one instance."""
    u = untraced[0]["sim"]
    t = traced[0]
    med = statistics.median
    reg = u["registry"]
    tags = u["msgs_phase"]
    boot = u["bootstrap"]
    kv = u["kv"]
    msgs = boot["requests"] + boot["replies"]
    prof = t["trace"]["profile"]
    run_s = med(r["host"]["run_until_s"] for r in traced)
    events = u["events"]
    m = {
        "sim.events": (events, "count"),
        "sim.run_s": (run_s, "s"),
        "sim.ns_per_event": (run_s / events * 1e9, "ns"),
        "sim.coord_s": (med(r["host"]["wall_s"] - r["host"]["run_until_s"] for r in traced),
                        "s"),
        "sim.dispatch_s": (prof["dispatch_s"], "s"),
        "sim.drain_s": (prof["drain_s"], "s"),
        "sim.stall_s": (prof["stall_s"], "s"),
        "sim.idle_s": (prof["idle_s"], "s"),
        "sim.barrier_stall_frac": (prof["barrier_stall_frac"], "fraction"),
        "sim.windows": (prof["windows"], "count"),
        "sim.mailbox_per_window": (prof["mailbox_per_window"], "msgs"),
        "sim.queue_depth_mean": (prof["queue_depth_mean"], "events"),
        "sim.msgs_sent": (u["traffic"]["sent"], "count"),
        "sim.msgs_dropped": (u["traffic"]["dropped"], "count"),
        "sim.msgs_to_dead": (u["traffic"]["to_dead"], "count"),
        "sim.bytes_sent": (u["traffic"]["bytes"], "bytes"),
    }
    for tag in MSG_TAGS:
        m[f"sim.msgs.{tag}"] = (tags.get(tag, 0), "count")
    vg = u["view_graph"]
    m["sampling.msgs"] = (tags.get("newscast.request", 0) + tags.get("newscast.answer", 0),
                          "count")
    m["sampling.indegree_stddev"] = (vg["indegree_stddev"], "count")
    m["sampling.dead_entry_frac"] = (vg["dead_entry_frac"], "fraction")
    sp = t["trace"]["spans"]
    m["core.exchanges"] = (boot["requests"], "count")
    m["core.descriptors_per_msg"] = (boot["entries"] / msgs if msgs else 0.0, "count")
    m["core.msg_bytes_mean"] = (boot["payload_bytes"] / msgs if msgs else 0.0, "bytes")
    m["core.msg_bytes_max"] = (boot["max_message_bytes"], "bytes")
    m["core.select_peer_empty"] = (boot["select_peer_empty"], "count")
    m["core.create_message_us"] = (med(r["trace"]["create_message_us"] for r in traced), "us")
    m["core.exchange_answered_frac"] = (sp["answered"] / sp["closed"] if sp["closed"] else 0.0,
                                        "fraction")
    m["core.exchange_timeouts"] = (sp["timeout"], "count")
    m["core.exchange_rtt_p50_ticks"] = (sp["rtt_p50"], "ticks")
    m["core.oracle_build_s"] = (med(span_total(r["spans"], "oracle_build") for r in traced), "s")
    m["core.oracle_measure_s"] = (med(span_total(r["spans"], "oracle_measure")
                                      for r in traced), "s")
    m["core.probes"] = (tags.get("probe.request", 0), "count")
    m["core.condemned"] = (reg.get("bootstrap.condemned", 0), "count")
    m["core.quarantined"] = (reg.get("quarantine.held", 0), "count")
    m["core.missing_leaf_end"] = (u["series"][-1][0], "fraction")
    m["core.missing_prefix_end"] = (u["series"][-1][1], "fraction")
    m["overlay.hops_mean"] = (kv["hops_mean"], "hops")
    issued = kv_issued(u)
    m["workload.issued"] = (issued, "count")
    m["workload.timeouts"] = (kv["timeouts"], "count")
    m["workload.unroutable"] = (kv["unroutable"], "count")
    m["workload.get_miss"] = (kv["get_miss"], "count")
    m["workload.kv_retries"] = (kv["kv_retries"], "count")
    m["workload.hedge_win_frac"] = (kv["hedge_wins"] / kv["hedges_sent"]
                                    if kv["hedges_sent"] else 0.0, "fraction")
    m["workload.cast_forwards"] = (kv["cast_forwards"], "count")
    m["workload.cast_duplicates"] = (kv["cast_duplicates"], "count")
    m["workload.kv_p50_ticks"] = (kv["rtt_p50"], "ticks")
    m["workload.kv_p99_ticks"] = (kv["rtt_p99"], "ticks")
    m["workload.cast_coverage"] = (kv["cast_reached"] / kv["cast_expected"]
                                   if kv["cast_expected"] else 0.0, "fraction")
    m["workload.failed_frac"] = ((kv["timeouts"] + kv["unroutable"]) / issued
                                 if issued else 0.0, "fraction")
    for name in FAULT_COUNTERS + ADV_COUNTERS:
        m[name] = (reg.get(name, 0), "count")
    m["adv.controlled_leaf_frac"] = (u["controlled_leaf_frac"], "fraction")
    tr = t["trace"]
    m["mem.allocs_per_exchange"] = (tr["allocs_phase"] / tr["exchanges_phase"]
                                    if tr["exchanges_phase"] else 0.0, "allocs")
    m["mem.steady_allocs_per_exchange"] = (tr["allocs_steady"] / tr["exchanges_steady"]
                                           if tr["exchanges_steady"] else 0.0, "allocs")
    m["obs.trace_overhead_frac"] = (med(r["host"]["wall_s"] for r in traced)
                                    / med(r["host"]["wall_s"] for r in untraced) - 1, "fraction")
    m["obs.span_overflow"] = (sp["overflow"], "count")
    selfs = [self_times(r["spans"]) for r in traced]
    roots = [next(s for s in r["spans"] if s["parent"] < 0) for r in traced]
    totals = [s["end_s"] - s["start_s"] for s in roots]
    m["obs.attributed_frac"] = (med(1 - st["bench"] / tot for st, tot in zip(selfs, totals)),
                                "fraction")
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (med(st.get(layer, 0.0) for st in selfs), "s")
    return m


def export_trace(outdir, workload, seed, traced, layer_metrics):
    """Writes the spans of every traced rep (one run id each) and the layer table."""
    path = outdir / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as f:
        for i, r in enumerate(traced):
            run_id = f"{workload}-{seed}-{i}"
            for s in r["spans"]:
                f.write(json.dumps({"run": run_id, **s}) + "\n")
    layers = outdir / f"layers-{workload}-{seed}.json"
    layers.write_text(json.dumps({k: v for k, (v, _) in layer_metrics.items()
                                  if k.startswith(("self.", "obs."))}, indent=1) + "\n")
    return path


# --- main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(INSTANCES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    built = build()
    if built is None:
        log("perfbench: build failed")
        return 2
    bdir, outdir = built
    nproc = len(os.sched_getaffinity(0))
    shards = shards_for(args.workload, nproc)
    workload = args.workload
    seeds = [instance_seed(args.seed, i) for i in range(INSTANCES[workload])]
    checks = Checks()
    t_start = time.monotonic()

    def time_left(est):
        return time.monotonic() - t_start + est <= args.seconds

    print(f"perfbench workload={workload} seed={args.seed} nproc={nproc} shards={shards} "
          f"instances={len(seeds)} seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.trace == 0:
            reps = [[run_rep(bdir, outdir, workload, s, shards, False)] for s in seeds]
            est = statistics.fmean(r[0]["elapsed"] for r in reps)
            i = 0
            while time_left(est):
                reps[i % len(seeds)].append(
                    run_rep(bdir, outdir, workload, seeds[i % len(seeds)], shards, False))
                i += 1
            for k, rs in enumerate(reps):
                check_instance(checks, workload, f"instance {k}:", rs[0]["sim"])
                checks.add(f"instance {k}: simulated outcome identical across {len(rs)} runs",
                           all(r["sim"] == rs[0]["sim"] for r in rs[1:]))
            metrics = end_to_end(reps)
            sims = [rs[0]["sim"] for rs in reps]
            for name, (value, unit) in metrics.items():
                print(f"{name} = {value:.6g} {unit}")
            for line in report_lines(workload, sims):
                print(line)
            print(f"runs per instance: {[len(rs) for rs in reps]}; wall_s per run: "
                  f"{[round(r['host']['wall_s'], 3) for rs in reps for r in rs]}")
        else:
            untraced, traced = [], []
            while True:
                untraced.append(run_rep(bdir, outdir, workload, seeds[0], shards, False))
                traced.append(run_rep(bdir, outdir, workload, seeds[0], shards, True))
                est = untraced[-1]["elapsed"] + traced[-1]["elapsed"]
                if not time_left(est):
                    break
            sims = [untraced[0]["sim"]]
            check_instance(checks, workload, "untraced:", untraced[0]["sim"])
            checks.add(f"simulated outcome identical across {len(untraced)} untraced runs",
                       all(r["sim"] == untraced[0]["sim"] for r in untraced[1:]))
            checks.add("traced runs keep the untraced trajectory (series, traffic, KV)",
                       all(same_trajectory(r["sim"], untraced[0]["sim"]) for r in traced))
            ledgers = [r["trace"]["spans"] for r in traced]
            checks.add("engine span ledger balances",
                       all(sp["opened"] == sp["closed"] + sp["in_flight"]
                           and sp["stray_closes"] == 0 and sp["overflow"] == 0
                           for sp in ledgers),
                       "; ".join(f"opened {sp['opened']} closed {sp['closed']} in_flight "
                                 f"{sp['in_flight']} stray {sp['stray_closes']} "
                                 f"overflow {sp['overflow']}" for sp in ledgers[:1]))
            checks.add("benchmark spans all closed",
                       all(s["end_s"] >= s["start_s"] for r in traced for s in r["spans"]))
            metrics = per_layer(untraced, traced)
            attributed = metrics["obs.attributed_frac"][0]
            checks.add("layer self times plus setup cover the traced run",
                       attributed >= 0.97, f"attributed {attributed:.4f}")
            path = export_trace(outdir, workload, args.seed, traced, metrics)
            for name, (value, unit) in metrics.items():
                print(f"{name} = {value:.6g} {unit}")
            print(f"span file: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
            print(f"pairs run: {len(traced)}")
    except (RuntimeError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1

    for name, ok, detail in checks.results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    attempted, failed = ops(workload, sims)
    result = {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
