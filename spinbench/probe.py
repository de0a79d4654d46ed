"""Set-up probe: run op 0 of a workload in a fresh process and say whether it passed.

    python3 spinbench/probe.py WORKLOAD SEED

Prints ``ok`` (or ``fail``) right after the checked op; ``run.py`` times the
probe from spawn to that line.  Then it prints the HostSpeed scale measured
in this process.
"""

import sys

from run import KERNELS, HostSpeed, load_spinref


def main(workload, seed):
    load_spinref()
    import workloads

    try:
        workloads.WORKLOADS[workload](int(seed), 0)
    except Exception:
        print("fail", flush=True)
        raise
    print("ok", flush=True)
    speed = HostSpeed(KERNELS[workload])
    speed.scale()  # the first pass warms caches
    print(speed.scale(), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
