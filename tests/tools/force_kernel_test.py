#!/usr/bin/env python3
"""One FMTCP_FORCE_KERNEL value must pin both coding planes: every
documented name this build and CPU have runs fmtcp_sim to a verified
payload over both fields, and an unknown name exits non-zero with a
message naming the available kernels.

    force_kernel_test.py FMTCP_SIM SIMD

SIMD is 1 when the build compiles the SIMD stamps (-DFMTCP_SIMD=ON).
"""
import os
import platform
import subprocess
import sys


def run(sim, kernel, coding):
    env = dict(os.environ, FMTCP_FORCE_KERNEL=kernel)
    return subprocess.run([sim, "--duration=1", f"--coding={coding}"],
                          capture_output=True, text=True, env=env,
                          check=False)


def main(argv):
    sim, simd = argv[1], argv[2] == "1"
    x86 = platform.machine().lower() in ("x86_64", "amd64", "i386", "i686")
    # sse2 is GF(256)'s scalar and ssse3 is GF(2)'s sse2, so both 128-bit
    # x86 names pin both planes.
    good = ["scalar"] + (["sse2", "ssse3"] if simd and x86 else [])
    failures = []
    for coding in ("gf2", "gf256"):
        for kernel in good:
            result = run(sim, kernel, coding)
            if result.returncode != 0 or "payload verified" not in result.stdout:
                failures.append(f"{kernel} --coding={coding}: exit "
                                f"{result.returncode}, stderr "
                                f"{result.stderr.strip()!r}")
        for kernel in ("avx512", "mmx"):
            result = run(sim, kernel, coding)
            if result.returncode == 0 or "available: scalar" not in result.stderr:
                failures.append(f"{kernel} --coding={coding}: exit "
                                f"{result.returncode}, stderr "
                                f"{result.stderr.strip()!r}")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
