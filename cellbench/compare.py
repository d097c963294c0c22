#!/usr/bin/env python3
"""Compares two saved cell-benchmark reports metric by metric.

    python3 cellbench/run.py --workload W --seed 1 > before.txt
    ... change the program ...
    python3 cellbench/run.py --workload W --seed 1 > after.txt
    python3 cellbench/compare.py before.txt after.txt

Flags the comparison when the two runs differ in a host fact that changes
speed without changing results: the GF(2)/GF(256) kernels dispatched
(e.g. under FMTCP_FORCE_KERNEL), compiler, build type or core count.
Exits 1 when they differ, so a script cannot mistake such a pair for a
like-with-like comparison."""

import json
import sys

LIKE_WITH_LIKE = ["gf2_kernel", "gf256_kernel", "force_kernel", "compiler",
                  "build_type", "nproc"]


def load(path):
    host, result = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("host "):
                host = json.loads(line[len("host "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if host is None or result is None:
        sys.exit(f"{path}: not a cell-benchmark report")
    return host, result


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (host_a, a), (host_b, b) = load(sys.argv[1]), load(sys.argv[2])
    differs = [k for k in LIKE_WITH_LIKE if host_a.get(k) != host_b.get(k)]
    for key in differs:
        print(f"WARNING: {key} differs: {host_a.get(key)!r} vs "
              f"{host_b.get(key)!r}; not a like-with-like comparison")
    print(f"{'metric':<40}{'before':>14}{'after':>14}{'change':>9}")
    for name, before in a["metrics"].items():
        after = b["metrics"].get(name)
        if after is None:
            continue
        x, y = before["value"], after["value"]
        change = f"{y / x - 1:+.1%}" if x else "n/a"
        print(f"{name:<40}{x:>14.6g}{y:>14.6g}{change:>9}  {before['unit']}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
