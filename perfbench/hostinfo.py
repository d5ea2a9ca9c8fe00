"""Host fingerprint recorded with every result.

BLAS and threading environment variables are reported as the host sets
them; the benchmark never sets them itself, so a change that fixes BLAS
oversubscription inside the program shows up as a gain.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _openblas_runtime() -> dict:
    """Core name and effective thread count of the loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if threads is None or corename is None:
                continue
            threads.restype = ctypes.c_int
            threads.argtypes = []
            corename.restype = ctypes.c_char_p
            corename.argtypes = []
            return {
                "blas_core": corename().decode(),
                "blas_threads": int(threads()),
            }
    return {}


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        **_openblas_runtime(),
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
