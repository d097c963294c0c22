#!/usr/bin/env python3
"""Cell benchmark: one FMTCP or IETF-MPTCP connection over the Table-I
two-path topology, run back to back on one thread.

    python3 cellbench/run.py --workload fmtcp-gf2 --seed 1 --seconds 30 --trace 0

Builds the simulator and the `cellbench` binary from source into
.bench_build/cellbench at the checkout root (the first run compiles),
runs the workload, checks every cell's outcome, prints a readable report
and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": cells, "failed": cells, "metrics": {...}}

--trace 0 reports the end-to-end metrics (END_TO_END); --trace 1 the
per-layer table (PER_LAYER). README.md explains the workloads and what
each metric means, and how times are adjusted for the host's speed.

    python3 cellbench/run.py --record-golden --workload W --seed 1 --cells N

re-records the deterministic outcomes of cells with seeds 1..N into
golden_outcomes.json; later runs fail any cell whose outcome differs."""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cellstats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cellbench")
BINARY = os.path.join(BUILD_DIR, "cellbench")
GOLDEN = os.path.join(HERE, "golden_outcomes.json")

WORKLOADS = ["fmtcp-gf2", "fmtcp-gf256", "mptcp"]
FMTCP_WORKLOADS = {"fmtcp-gf2", "fmtcp-gf256"}

# ROADMAP's bound on the share of traced wall time no layer row claims.
MAX_UNATTRIBUTED_SHARE = 0.05
# The binary must finish well inside the benchmark's 180 s budget.
RUN_TIMEOUT_S = 170

# The reference workload's time (reference.cc, AVX2 path) on a quiet
# 4-vCPU Intel Xeon VM with AVX-512, GCC 12.2. Times are reported at the
# speed of that host: see cellstats.host_adjusted.
REFERENCE_QUIET_NS = 350_000

END_TO_END = [
    ("sim_MB_per_s", "MB/s"),
    ("slice_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_MB", "MB"),
]
# Printed in the report but left out of the JSON: on a shared host the
# slice tail tracks neighbours more than the program (README.md).
REPORT_ONLY = [("slice_ms_p90", "ms")]

# (name, unit). Times and counts are means per traced cell; ratios are
# taken over all traced cells.
PER_LAYER = [
    ("core.sender.next_segment.calls", "count"),
    ("core.sender.next_segment.self_ms", "ms"),
    ("core.sender.next_segment.empty_ratio", "fraction"),
    ("core.sender.retransmit_segment.calls", "count"),
    ("core.sender.retransmit_segment.self_ms", "ms"),
    ("core.sender.feedback.calls", "count"),
    ("core.sender.feedback.self_ms", "ms"),
    ("core.receiver.on_segment.calls", "count"),
    ("core.receiver.on_segment.self_ms", "ms"),
    ("core.receiver.fill_ack.calls", "count"),
    ("core.receiver.fill_ack.self_ms", "ms"),
    ("fountain.decode.calls", "count"),
    ("fountain.decode.self_ms", "ms"),
    ("fountain.encode_symbol.count", "count"),
    ("fountain.add_symbol.count", "count"),
    ("fountain.redundant_ratio", "fraction"),
    ("fountain.coding_overhead", "fraction"),
    ("mptcp.sender.next_segment.calls", "count"),
    ("mptcp.sender.next_segment.self_ms", "ms"),
    ("mptcp.sender.feedback.calls", "count"),
    ("mptcp.sender.feedback.self_ms", "ms"),
    ("mptcp.receiver.on_segment.calls", "count"),
    ("mptcp.receiver.on_segment.self_ms", "ms"),
    ("mptcp.receiver.fill_ack.calls", "count"),
    ("mptcp.receiver.fill_ack.self_ms", "ms"),
    ("mptcp.window_limited", "count"),
    ("mptcp.max_ooo_bytes", "bytes"),
    ("sim.events", "count"),
    ("sim.events.link.serialize", "count"),
    ("sim.events.link.deliver", "count"),
    ("sim.events.poke", "count"),
    ("sim.events.timer", "count"),
    ("sim.replay.self_ms", "ms"),
    ("sim.replay.events_per_s", "1/s"),
    ("net_tcp.self_ms", "ms"),
    ("net.link.sent", "count"),
    ("net.link.channel_drops", "count"),
    ("net.link.queue_drops", "count"),
    ("tcp.segments_sent", "count"),
    ("tcp.retransmissions", "count"),
    ("tcp.timeouts", "count"),
    ("tcp.acks_sent", "count"),
    ("tcp.rtx_ratio", "fraction"),
    ("common.bufferpool.acquired", "count"),
    ("common.bufferpool.reuse_ratio", "fraction"),
    ("common.bufferpool.high_water", "count"),
    ("common.bufferpool.outstanding_at_end", "count"),
    ("common.bufferpool.alloc_self_ms", "ms"),
    ("harness.cell_setup_ms", "ms"),
    ("harness.cell_teardown_ms", "ms"),
    ("harness.traced_wall_ms", "ms"),
    ("harness.traced_cells", "count"),
    ("unattributed.self_ms", "ms"),
    ("trace_overhead", "fraction"),
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; exits 2 on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "cellbench",
                  "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("cellbench: build failed:", " ".join(step))
            sys.exit(2)


def run_cellbench(args, extra):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace)] + extra
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode:
        log("cellbench: binary exited with", done.returncode)
        sys.exit(2)
    return json.loads(done.stdout)


def load_golden():
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as f:
        return json.load(f)


def outcome_failures(workload, seed, outcome, golden):
    """Why a cell's outcome fails its checks (empty list = pass)."""
    failures = []
    if outcome["failure"]:
        failures.append(outcome["failure"])
    expected = golden.get(workload, {}).get(str(seed))
    if expected is not None and cellstats.deterministic(outcome) != expected:
        failures.append("outcome differs from the recorded one")
    return failures


def print_host(host):
    print("host " + json.dumps(host, sort_keys=True))
    if host.get("force_kernel"):
        print(f"note: FMTCP_FORCE_KERNEL={host['force_kernel']}; compare only "
              "with runs on the same kernels")


def end_to_end(data, golden):
    workload = data["workload"]
    cells = data["cells"]
    failed = 0
    for cell in cells:
        why = outcome_failures(workload, cell["seed"], cell["outcome"], golden)
        if why:
            failed += 1
            log(f"cellbench: cell seed {cell['seed']} FAILED: {'; '.join(why)}")
    rates, slices_ms, setups_s, slowdowns = cellstats.host_adjusted(
        cells, REFERENCE_QUIET_NS)
    p50, _ = cellstats.percentile(slices_ms, 0.5)
    p90, beyond = cellstats.percentile(slices_ms, 0.9)
    values = {
        "sim_MB_per_s": statistics.median(rates),
        "slice_ms_p50": p50,
        "slice_ms_p90": p90,
        "setup_s": statistics.median(setups_s),
        "peak_rss_MB": data["peak_rss_kb"] * 1024 / 1e6,
    }
    samples = {
        "sim_MB_per_s": f"median of {len(cells)} cells",
        "slice_ms_p50": f"{len(slices_ms)} slices",
        "slice_ms_p90": f"{len(slices_ms)} slices, {beyond} beyond",
        "setup_s": f"median of {len(setups_s)} set-ups",
        "peak_rss_MB": "1 process, over its first 4 cells",
    }
    print(f"{'metric':<22}{'value':>14}  {'unit':<9}samples")
    for name, unit in END_TO_END + REPORT_ONLY:
        print(f"{name:<22}{values[name]:>14.6g}  {unit:<9}{samples[name]}")
    print(f"{'fail_ratio':<22}{failed / len(cells):>14.6g}  {'fraction':<9}"
          f"{failed} of {len(cells)} cells")
    raw_rates = [c["outcome"]["delivered_bytes"] / 1e6 /
                 (sum(c["slices_ns"]) / 1e9) for c in cells]
    print(f"host slowdown: median {statistics.median(slowdowns):.3f}, range "
          f"{min(slowdowns):.3f}-{max(slowdowns):.3f} over {len(cells)} "
          f"cells; unadjusted sim MB per wall s "
          f"{statistics.median(raw_rates):.6g}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return failed == 0, len(cells), failed, metrics


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(data, golden):
    workload = data["workload"]
    cells = data["traced_cells"]
    n = len(cells)
    correct = True
    failed = 0
    for cell in cells:
        why = outcome_failures(workload, cell["seed"], cell["untraced"], golden)
        base = cellstats.deterministic(cell["untraced"])
        for variant in ("recorded", "traced"):
            if cellstats.deterministic(cell[variant]) != base:
                why.append(f"{variant} outcome differs from the real cell's")
        if why:
            failed += 1
            log(f"cellbench: TRACED CELL seed {cell['seed']} FAILED: "
                f"{'; '.join(why)}")

    def total(key):
        return sum(c[key] for c in cells)

    def counter(name):
        return sum(c["counters"].get(name, 0.0) for c in cells)

    wall_ms = total("traced_wall_ns") / 1e6
    replay_ms = total("replay_ns") / 1e6
    rows, unattributed = cellstats.layer_table(data["spans"], wall_ms,
                                               replay_ms)
    share = unattributed / wall_ms
    if workload in FMTCP_WORKLOADS and share > MAX_UNATTRIBUTED_SHARE:
        correct = False
        log(f"cellbench: unattributed {share:.1%} of traced wall time exceeds "
            f"{MAX_UNATTRIBUTED_SHARE:.0%}")
    overhead = wall_ms / (total("untraced_wall_ns") / 1e6) - 1.0

    print(f"layer table: {n} traced cells, {wall_ms / n:.3f} ms traced wall "
          "per cell")
    print(f"{'row':<34}{'self ms/cell':>14}{'share':>9}{'calls/cell':>14}")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"]):
        if row["self_ms"] == 0.0 and row["calls"] == 0:
            continue
        print(f"{name:<34}{row['self_ms'] / n:>14.3f}"
              f"{row['self_ms'] / wall_ms:>9.1%}{row['calls'] / n:>14.1f}")
    print(f"{'unattributed':<34}{unattributed / n:>14.3f}{share:>9.1%}")
    print(f"trace_overhead {overhead:.3f} (traced wall / untraced wall - 1)")

    trace_counters = data["trace_counters"]
    profile = {}
    for cell in cells:
        for tag, count in cell["profile"].items():
            profile[tag] = profile.get(tag, 0) + count
    values = {}
    for row in ("core.sender.next_segment", "core.sender.retransmit_segment",
                "core.sender.feedback", "core.receiver.on_segment",
                "core.receiver.fill_ack", "fountain.decode",
                "mptcp.sender.next_segment", "mptcp.sender.feedback",
                "mptcp.receiver.on_segment", "mptcp.receiver.fill_ack"):
        values[row + ".calls"] = rows[row]["calls"] / n
        values[row + ".self_ms"] = rows[row]["self_ms"] / n
    values["core.sender.next_segment.empty_ratio"] = ratio(
        counter("next_segment.empty"),
        rows["core.sender.next_segment"]["calls"])
    values["fountain.encode_symbol.count"] = (
        trace_counters.get("codec.encode_symbol", 0) / n)
    values["fountain.add_symbol.count"] = (
        trace_counters.get("codec.add_symbol", 0) / n)
    values["fountain.redundant_ratio"] = ratio(
        counter("fountain.redundant_symbols"),
        counter("fountain.symbols_received"))
    values["fountain.coding_overhead"] = (
        ratio(counter("fountain.symbols_sent"),
              counter("fountain.source_symbols")) - 1.0
        if counter("fountain.source_symbols") else 0.0)
    values["mptcp.window_limited"] = counter("mptcp.window_limited") / n
    values["mptcp.max_ooo_bytes"] = counter("mptcp.max_ooo_bytes") / n
    values["sim.events"] = counter("sim.events") / n
    for tag in ("link.serialize", "link.deliver", "poke", "timer"):
        values["sim.events." + tag] = profile.get(tag, 0) / n
    values["sim.replay.self_ms"] = replay_ms / n
    values["sim.replay.events_per_s"] = ratio(total("replay_events"),
                                              replay_ms / 1e3)
    values["net_tcp.self_ms"] = rows["net_tcp"]["self_ms"] / n
    for name in ("net.link.sent", "net.link.channel_drops",
                 "net.link.queue_drops", "tcp.segments_sent",
                 "tcp.retransmissions", "tcp.timeouts", "tcp.acks_sent",
                 "common.bufferpool.acquired", "common.bufferpool.high_water",
                 "common.bufferpool.outstanding_at_end"):
        values[name] = counter(name) / n
    values["tcp.rtx_ratio"] = ratio(counter("tcp.retransmissions"),
                                    counter("tcp.segments_sent"))
    values["common.bufferpool.reuse_ratio"] = ratio(
        counter("common.bufferpool.reused"),
        counter("common.bufferpool.acquired"))
    values["common.bufferpool.alloc_self_ms"] = (
        rows["common.bufferpool.alloc"]["self_ms"] / n)
    values["harness.cell_setup_ms"] = rows["harness.cell_setup"]["self_ms"] / n
    values["harness.cell_teardown_ms"] = (
        rows["harness.cell_teardown"]["self_ms"] / n)
    values["harness.traced_wall_ms"] = wall_ms / n
    values["harness.traced_cells"] = n
    values["unattributed.self_ms"] = unattributed / n
    values["trace_overhead"] = overhead
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER}
    return correct and failed == 0, n, failed, metrics


def record_golden(args):
    data = run_cellbench(args, ["--cells", str(args.cells)])
    golden = load_golden()
    recorded = golden.setdefault(args.workload, {})
    for cell in data["cells"]:
        if cell["outcome"]["failure"]:
            log(f"cellbench: cell seed {cell['seed']} failed; not recorded")
            sys.exit(1)
        recorded[str(cell["seed"])] = cellstats.deterministic(cell["outcome"])
    # One line per cell keeps the file diffable.
    lines = []
    for workload in sorted(golden):
        entries = sorted(golden[workload].items(), key=lambda kv: int(kv[0]))
        body = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(outcome)}"
                          for seed, outcome in entries)
        lines.append(f" {json.dumps(workload)}: {{\n{body}\n }}")
    with open(GOLDEN, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")
    log(f"cellbench: recorded {len(data['cells'])} {args.workload} outcomes")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--cells", type=int, default=0,
                        help="cells to record with --record-golden")
    args = parser.parse_args()

    build()
    if args.record_golden:
        args.trace = 0
        record_golden(args)
        return
    data = run_cellbench(args, ["--seconds", str(args.seconds)])
    print(f"cellbench {data['workload']} seed={data['seed']} "
          f"trace={data['trace']}")
    print_host(data["host"])
    golden = load_golden()
    if args.trace:
        correct, attempted, failed, metrics = per_layer(data, golden)
    else:
        correct, attempted, failed, metrics = end_to_end(data, golden)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
