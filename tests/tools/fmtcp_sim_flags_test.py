#!/usr/bin/env python3
"""fmtcp_sim must reject malformed and out-of-range flag values with exit
status 2 and a message naming the flag, must run a surge schedule that
starts at t=0, and must run every protocol over a dead path (loss rate
1, the top of the [0,1] range).

    fmtcp_sim_flags_test.py FMTCP_SIM
"""
import subprocess
import sys

# (arguments, flag the error message must name)
BAD_VALUES = [
    ("--surge=5:abc", "--surge"),
    ("--surge=5", "--surge"),
    ("--surge=2:0.1,1:0.2", "--surge"),
    ("--surge=5:1.5", "--surge"),
    ("--duration=0", "--duration"),
    ("--duration=-1", "--duration"),
    ("--loss2=1.01", "--loss2"),
    ("--loss1=-0.1", "--loss1"),
    ("--delay2=-5", "--delay2"),
    ("--bandwidth_mbps=0", "--bandwidth_mbps"),
    ("--queue=-1", "--queue"),
    ("--block_symbols=0", "--block_symbols"),
    ("--delta=0", "--delta"),
    ("--delta=1.5", "--delta"),
    ("--buffer_kb=0", "--buffer_kb"),
    ("--buffer_kb=-1", "--buffer_kb"),
    ("--surge=1e300:0.1", "--surge"),
    ("--duration=1e300", "--duration"),
    ("--loss2=abc", "--loss2"),
    ("--queue=12x", "--queue"),
    ("--protocol=foo", "--protocol"),
    ("--jobs=-1", "--jobs"),
    ("--seeds=0", "--seeds"),
    ("--seeds=4294967298", "--seeds"),
    # The baselines have no delayed-ACK or LIA option.
    ("--protocol=hmtp --delayed_acks", "--delayed_acks"),
    ("--protocol=fixedrate --lia", "--lia"),
    # The printf log and its flag are gone.
    ("--log-level=debug", "--log-level"),
]


def run(sim, *args):
    return subprocess.run([sim, *args], capture_output=True, text=True,
                          check=False)


def main(argv):
    sim = argv[1]
    failures = []
    for arg, flag in BAD_VALUES:
        # A later value wins.
        result = run(sim, "--duration=1", *arg.split())
        if result.returncode != 2 or flag not in result.stderr:
            failures.append(f"{arg}: exit {result.returncode}, "
                            f"stderr {result.stderr.strip()!r}")
    good = run(sim, "--surge=0:0.3,2:0.1", "--duration=3")
    if good.returncode != 0:
        failures.append(f"--surge=0:0.3,2:0.1: exit {good.returncode}, "
                        f"stderr {good.stderr.strip()!r}")
    # Path death: path 2 loses every packet, from the start or from a
    # surge step at 5 s on.
    for protocol in ("fmtcp", "mptcp", "hmtp", "fixedrate"):
        for death, duration in (("--loss2=1.0", 5), ("--surge=5:1.0", 10)):
            dead = run(sim, f"--protocol={protocol}", death,
                       f"--duration={duration}")
            if dead.returncode != 0:
                failures.append(f"--protocol={protocol} {death}: exit "
                                f"{dead.returncode}, stderr "
                                f"{dead.stderr.strip()!r}")
            elif protocol == "fmtcp" and "payload verified" not in dead.stdout:
                failures.append(f"--protocol=fmtcp {death}: no "
                                f"'payload verified' in {dead.stdout!r}")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
