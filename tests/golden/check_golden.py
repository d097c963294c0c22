#!/usr/bin/env python3
"""Runs a bench and checks that its stdout equals a recorded golden file.

    check_golden.py GOLDEN_FILE BENCH [ARGS...]

Exits 0 when the output is byte-identical. Otherwise prints the first
line that differs (with its line number) and exits 1. A bench that exits
non-zero fails too.
"""
import itertools
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    golden_path, command = argv[1], argv[2:]
    run = subprocess.run(command, stdout=subprocess.PIPE, check=False)
    if run.returncode != 0:
        print(f"{command[0]} exited with status {run.returncode}")
        return 1
    with open(golden_path, "rb") as golden:
        want = golden.read()
    if run.stdout == want:
        return 0
    pairs = itertools.zip_longest(want.splitlines(keepends=True),
                                  run.stdout.splitlines(keepends=True))
    for number, (expected, actual) in enumerate(pairs, start=1):
        if expected != actual:
            print(f"{golden_path}:{number}: output differs")
            print(f"  expected: {expected!r}")
            print(f"  actual:   {actual!r}")
            return 1
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
