"""Pure arithmetic behind the cell benchmark: the tail percentile, the
host-speed adjustment, the layer table and its closure, and outcome
comparison. Kept free of I/O so test_cellstats.py can pin it down."""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it, so one slow outlier cannot be the reported value.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q, min_beyond=MIN_SAMPLES_BEYOND):
    """Nearest-rank q-quantile of `samples` (0 < q < 1).

    Returns (value, samples_beyond), where samples_beyond counts the
    samples ranked after the reported one. Raises ValueError when fewer
    than `min_beyond` samples lie beyond it."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has only {beyond} "
            f"beyond it; need {min_beyond}")
    return ordered[rank - 1], beyond


def host_adjusted(cells, reference_quiet_ns):
    """Scales each cell's times to the speed of a quiet host.

    A cell's slowdown is the median of its "reference_ns" timings divided
    by `reference_quiet_ns`, the reference's time on a quiet host; its
    slice and set-up times are divided by it. Neighbours on a shared host
    slow the reference and the cell alike, so the scaled times repeat
    across busy and quiet periods while a change to the program still
    moves them.

    Returns (rates, slices_ms, setups_s, slowdowns): per cell, delivered
    MB per second of event loop and the slowdown; and every slice (ms) and
    set-up (s) of every cell."""
    rates, slices_ms, setups_s, slowdowns = [], [], [], []
    for cell in cells:
        slowdown = statistics.median(cell["reference_ns"]) / reference_quiet_ns
        loop_s = sum(cell["slices_ns"]) / 1e9 / slowdown
        rates.append(cell["outcome"]["delivered_bytes"] / 1e6 / loop_s)
        slices_ms += [ns / 1e6 / slowdown for ns in cell["slices_ns"]]
        setups_s += [ns / 1e9 / slowdown for ns in cell["setup_ns"]]
        slowdowns.append(slowdown)
    return rates, slices_ms, setups_s, slowdowns


# Layer rows fed by the decorated calls and by the program's own spans.
# Every span the tracer reports lands in exactly one row; spans not named
# here get a row of their own, so nothing leaks into `unattributed`.
SPAN_ROWS = {
    "core.sender.next_segment": ["core.sender.next_segment"],
    "core.sender.retransmit_segment": ["core.sender.retransmit_segment"],
    "core.sender.feedback": ["core.sender.feedback"],
    "core.receiver.on_segment": ["core.receiver.on_segment"],
    "core.receiver.fill_ack": ["core.receiver.fill_ack"],
    "fountain.decode": ["codec.decode", "gf256.decode"],
    "mptcp.sender.next_segment": ["mptcp.sender.next_segment"],
    "mptcp.sender.retransmit_segment": ["mptcp.sender.retransmit_segment"],
    "mptcp.sender.feedback": ["mptcp.sender.feedback"],
    "mptcp.receiver.on_segment": ["mptcp.receiver.on_segment"],
    "mptcp.receiver.fill_ack": ["mptcp.receiver.fill_ack"],
    "common.bufferpool.alloc": ["bufferpool.alloc"],
    "harness.cell_setup": ["harness.cell_setup"],
    "harness.cell_teardown": ["harness.cell_teardown"],
}

# Self time of the event loop outside every protocol call: scheduler,
# links, queues and TCP subflows. The benchmark's own slice span and the
# scheduler's span both count here.
RUN_UNTIL_SPANS = ["sim.run_until", "sched.run_until"]


def layer_table(spans, wall_ms, replay_ms):
    """Builds the layer table of a traced run.

    `spans` maps span name -> {"count", "self_ms"} summed over the traced
    cells, `wall_ms` is the traced wall time of those cells and
    `replay_ms` the time their scheduler op streams took to replay with
    no-op callbacks.

    Returns (rows, unattributed_ms): rows maps row name ->
    {"self_ms", "calls"}. The event loop's self time splits into
    `sim.replay` (the scheduler's own cost) and `net_tcp` (the rest).
    By construction the row self times plus unattributed_ms sum to
    wall_ms."""
    rows = {}
    claimed = set()

    def add(row, self_ms, calls):
        entry = rows.setdefault(row, {"self_ms": 0.0, "calls": 0})
        entry["self_ms"] += self_ms
        entry["calls"] += calls

    for row, names in SPAN_ROWS.items():
        for name in names:
            if name in spans:
                add(row, spans[name]["self_ms"], spans[name]["count"])
                claimed.add(name)
            else:
                add(row, 0.0, 0)
    run_until_ms = 0.0
    for name in RUN_UNTIL_SPANS:
        if name in spans:
            run_until_ms += spans[name]["self_ms"]
            claimed.add(name)
    add("sim.replay", replay_ms, 0)
    add("net_tcp", run_until_ms - replay_ms, 0)
    for name in sorted(set(spans) - claimed):
        add(name, spans[name]["self_ms"], spans[name]["count"])
    attributed = sum(r["self_ms"] for r in rows.values())
    return rows, wall_ms - attributed


# The fields of a cell outcome that must repeat exactly, in the order
# golden_outcomes.json stores them.
OUTCOME_FIELDS = ["delivered_bytes", "blocks_completed", "symbols_sent",
                  "redundant_symbols", "segments_sent", "retransmissions"]


def deterministic(outcome):
    """The repeatable part of a cell outcome, as a list of OUTCOME_FIELDS."""
    return [outcome[k] for k in OUTCOME_FIELDS]
