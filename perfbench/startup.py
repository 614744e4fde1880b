"""Set-up time: from ``import rsvdreg`` through the BLAS-thread readback to
one untimed warm-up unit at tiny size.

Imported before numpy, so it imports only the standard library at module
level.  Run as a script it measures one fresh process and prints JSON with
the raw set-up seconds and the median calibration-kernel seconds measured
right after it (see ``calib.py``):

    python3 perfbench/startup.py <workload>
"""

import json
import os
import sys
import time

#: Kernel calls after each set-up; their median scales it to reference speed.
KERNEL_CALLS = 5


def timed_setup(workload):
    """Seconds of set-up in this process, and the BLAS-thread readback."""
    t0 = time.perf_counter()
    import rsvdreg  # noqa: F401 - the import is what is being timed
    from perfbench import envinfo, workloads

    threads = envinfo.blas_threads()
    workloads.warm_up(workload)
    return time.perf_counter() - t0, threads


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    import warnings

    warnings.simplefilter("ignore")
    seconds, readback = timed_setup(sys.argv[1])
    from perfbench import calib

    print(json.dumps({"setup_s": seconds, "kernel_s": calib.median_kernel_seconds(KERNEL_CALLS),
                      "blas_threads": readback}))
