#!/usr/bin/env python3
"""bench_sweep must reject malformed grid axes with exit status 2 and a
message naming the flag, before it writes any output, and must accept
both spellings of the fixed-rate protocol.

    bench_sweep_flags_test.py BENCH_SWEEP SCRATCH_DIR
"""
import os
import subprocess
import sys

# (argument, flag the error message must name)
BAD_VALUES = [
    ("--grid-loss=abc", "--grid-loss"),
    ("--grid-loss=0.1x", "--grid-loss"),
    ("--grid-loss=", "--grid-loss"),
    ("--grid-delay2=50,,100", "--grid-delay2"),
    ("--grid-blocks=0", "--grid-blocks"),
    ("--grid-protocols=foo", "--grid-protocols"),
    ("--grid-protocols=fmtcp,tcp", "--grid-protocols"),
    ("--seconds=1s", "--seconds"),
    ("--jobs=-1", "--jobs"),
]

# One tiny cell per protocol spelling.
SMALL_GRID = ["--grid-loss=0", "--grid-delay2=100", "--grid-delay1=100",
              "--grid-blocks=16", "--seconds=0.2", "--jobs=1"]


def run(sweep, *args):
    return subprocess.run([sweep, *args], capture_output=True, text=True,
                          check=False)


def main(argv):
    sweep, scratch = argv[1], argv[2]
    os.makedirs(scratch, exist_ok=True)
    out = os.path.join(scratch, "bench_sweep_flags_test.jsonl")
    failures = []
    for arg, flag in BAD_VALUES:
        if os.path.exists(out):
            os.remove(out)
        result = run(sweep, *SMALL_GRID, f"--out={out}", arg)
        if result.returncode != 2 or flag not in result.stderr:
            failures.append(f"{arg}: exit {result.returncode}, "
                            f"stderr {result.stderr.strip()!r}")
        elif os.path.exists(out):
            failures.append(f"{arg}: wrote {out} before rejecting the flag")
    for spelling in ("fixed-rate", "fixedrate"):
        result = run(sweep, *SMALL_GRID, f"--out={out}",
                     f"--grid-protocols={spelling}")
        if result.returncode != 0:
            failures.append(f"--grid-protocols={spelling}: exit "
                            f"{result.returncode}, stderr "
                            f"{result.stderr.strip()!r}")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
