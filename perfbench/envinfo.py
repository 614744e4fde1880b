"""BLAS thread pin, thread-count readback and the environment record.

Only the standard library is imported at module level, so ``pin_blas_env``
can run before numpy loads OpenBLAS (OpenBLAS reads the variables once, at
load time).  ``threadpoolctl`` is deliberately not used: the readback goes
straight to the two OpenBLAS copies that numpy and scipy ship.
"""

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# (package, its bundled library directory, library glob, getter symbol)
_OPENBLAS_COPIES = (
    ("numpy", "numpy.libs", "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy.libs", "libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
)


def pin_blas_env():
    """Set the single-thread BLAS variables for this process and its children."""
    for var in PIN_VARS:
        os.environ[var] = "1"


def blas_threads():
    """Thread count each OpenBLAS copy reports, keyed by package.

    A copy whose library or getter cannot be found reads ``None``; callers
    treat anything but 1 as an unconfirmed pin.
    """
    import numpy  # noqa: F401 - both packages must be loaded to read back
    import scipy.linalg  # noqa: F401

    out = {}
    for pkg, libdir, pattern, symbol in _OPENBLAS_COPIES:
        site = os.path.dirname(os.path.dirname(sys.modules[pkg].__file__))
        libs = sorted(glob.glob(os.path.join(site, libdir, pattern)))
        if not libs:
            out[pkg] = None
            continue
        try:
            getter = getattr(ctypes.CDLL(libs[0]), symbol)
        except (OSError, AttributeError):
            out[pkg] = None
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        out[pkg] = int(getter())
    return out


def pin_holds(threads):
    """True when every OpenBLAS copy reads back exactly one thread."""
    return bool(threads) and all(v == 1 for v in threads.values())


def _blas_build(pkg):
    mod = sys.modules[pkg]
    try:
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _git_rev(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest(root):
    """sha256 over the package sources, so a checkout without git still
    identifies the code it measured."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "rsvdreg", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(root, seed, threads):
    """The record every result carries."""
    import numpy
    import scipy

    return {
        "seed": seed,
        "blas_threads": threads,
        "blas_pin_holds": pin_holds(threads),
        "pin_env": {var: os.environ.get(var) for var in PIN_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas_build("numpy"),
        "blas_scipy": _blas_build("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_rev": _git_rev(root),
        "src_sha256": src_digest(root),
    }
