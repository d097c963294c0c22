#!/usr/bin/env python3
"""fmtcp_sim --obs-dir=DIR must write DIR/metrics.json, DIR/timeline.jsonl
(with packet events for all four harness links) and DIR/spans.json, which
trace_summary reads by format, exiting 1 and naming the file when it is
handed one that is neither (metrics.json); with --seeds > 1 only
spans.json; and an unwritable DIR must fail, naming the path, before the
simulation runs.

    obs_dir_test.py FMTCP_SIM TRACE_SUMMARY SCRATCH_DIR
"""
import json
import os
import shutil
import subprocess
import sys

FILES = ("metrics.json", "timeline.jsonl", "spans.json")


def run(*args):
    return subprocess.run(args, capture_output=True, text=True, check=False)


def check_run(sim, summary, out, protocol, failures):
    result = run(sim, f"--protocol={protocol}", "--duration=2",
                 f"--obs-dir={out}")
    if result.returncode != 0:
        failures.append(f"{protocol}: exit {result.returncode}, "
                        f"stderr {result.stderr.strip()!r}")
        return
    missing = [f for f in FILES if not os.path.isfile(os.path.join(out, f))]
    if missing:
        failures.append(f"{protocol}: missing {missing}")
        return
    for name in ("metrics.json", "spans.json"):
        try:
            with open(os.path.join(out, name)) as f:
                json.load(f)
        except ValueError as error:
            failures.append(f"{protocol}: {name} does not parse: {error}")
    links = set()
    with open(os.path.join(out, "timeline.jsonl")) as f:
        for line in f:
            record = json.loads(line)
            if record["ev"].startswith("pkt_"):
                links.add(record["sf"])
    if links != {0, 1, 2, 3}:
        failures.append(f"{protocol}: pkt_* records on links {sorted(links)}")
    for name, header in (("timeline.jsonl", "enqueued  qdrops  chdrops"),
                         ("spans.json", "span profile:")):
        result = run(summary, os.path.join(out, name))
        if result.returncode != 0 or header not in result.stdout:
            failures.append(f"{protocol}: trace_summary {name}: exit "
                            f"{result.returncode}, no {header!r}")
    metrics = os.path.join(out, "metrics.json")
    result = run(summary, metrics)
    if result.returncode != 1 or metrics not in result.stderr:
        failures.append(f"{protocol}: trace_summary metrics.json: exit "
                        f"{result.returncode}, stderr "
                        f"{result.stderr.strip()!r}")


def main(argv):
    sim, summary, scratch = argv[1], argv[2], argv[3]
    root = os.path.join(scratch, "obs_dir_test")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    failures = []
    for protocol in ("fmtcp", "mptcp"):
        check_run(sim, summary, os.path.join(root, protocol), protocol,
                  failures)

    seeds = os.path.join(root, "seeds")
    result = run(sim, "--seeds=2", "--jobs=1", "--duration=1",
                 f"--obs-dir={seeds}")
    written = sorted(os.listdir(seeds)) if os.path.isdir(seeds) else []
    if result.returncode != 0 or written != ["spans.json"]:
        failures.append(f"--seeds=2: exit {result.returncode}, "
                        f"wrote {written}")

    blocker = os.path.join(root, "not-a-dir")
    with open(blocker, "w"):
        pass
    bad = os.path.join(blocker, "out")
    result = run(sim, "--duration=1", f"--obs-dir={bad}")
    if (result.returncode == 0 or bad not in result.stderr or
            "goodput" in result.stdout):
        failures.append(f"unwritable --obs-dir: exit {result.returncode}, "
                        f"stderr {result.stderr.strip()!r}")

    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
