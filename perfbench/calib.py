"""Machine-speed calibration: a fixed numpy/LAPACK kernel timed beside the work.

The benchmark runs on a shared host whose speed drifts by tens of percent
over minutes (the process is not descheduled; each instruction gets
slower).  Timing this kernel next to the measured work cancels that drift:
``to_reference(seconds, kernel_s, e)`` is the time the work would take at
the reference speed, at which one kernel call takes ``REFERENCE_S``.  Work
that waits on memory more than the kernel does slows by less when the
kernel slows, so each workload states its elasticity ``e``: the share of a
relative change in kernel time that shows in its own time (the slope of
log pass time on log kernel time, fitted over runs on the reference
machine; 1 means the work tracks the kernel exactly).  The scaling is a
fixed factor per run, so a change that makes the work k% faster makes the
scaled time k% lower.  The kernel touches no ``rsvdreg`` code, so a change
to the package cannot move it; its arrays are a few MB, so it does not set
the peak RSS of any workload.

Called only after the BLAS pin (it imports numpy).
"""

import time
from statistics import median

#: Seconds one kernel call takes at the reference speed (the median of the
#: kernel on a 2-vCPU Xeon (Sapphire Rapids) KVM guest, BLAS pinned to one
#: thread).  Reported times are scaled to this speed.
REFERENCE_S = 0.040

#: Elasticity of set-up time (imports and a tiny warm-up unit) to kernel time.
SETUP_ELASTICITY = 1.0

_inputs = None


def _make_inputs():
    import numpy as np

    rng = np.random.default_rng(20240601)
    small = rng.standard_normal((200, 200))
    mid = rng.standard_normal((600, 600))
    return small, mid @ mid.T + 600.0 * np.eye(600), mid[:400, :400].copy()


def kernel_seconds():
    """Wall seconds of one kernel call: three SVDs at n=200 (the small-n LAPACK
    regime), two Cholesky factorizations at n=600 and two n=400 products."""
    global _inputs
    import numpy as np
    import scipy.linalg

    if _inputs is None:
        _inputs = _make_inputs()
    small, spd, sq = _inputs
    t0 = time.perf_counter()
    for _ in range(3):
        np.linalg.svd(small)
    for _ in range(2):
        scipy.linalg.cho_factor(spd)
        sq @ sq
    return time.perf_counter() - t0


def median_kernel_seconds(calls):
    return median(kernel_seconds() for _ in range(calls))


def to_reference(seconds, kernel_s, elasticity):
    """``seconds`` measured while the kernel took ``kernel_s``, at reference
    speed, for work of the given elasticity to kernel time."""
    return seconds * (REFERENCE_S / kernel_s) ** elasticity
