"""Read and set the thread count of the OpenBLAS that NumPy loaded.

NumPy exposes no handle on its BLAS thread pool, so the library is found
the way a debugger would: the first mapped file whose path names
OpenBLAS, with its ``get/set_num_threads`` symbols under whichever
prefix the build used.  Without OpenBLAS (another BLAS, or no
``/proc``) every function here is a no-op returning ``None``.  The
package imports NumPy, and with it the library, before this module runs.
"""

from __future__ import annotations

import ctypes
import functools
import os

_SYMBOL_AFFIXES = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))

#: Caps on this process's thread count by holder, and the count from
#: before the first of them; the smallest cap is the one in force.
_caps: dict[int, int] = {}
_uncapped: int | None = None


@functools.lru_cache(maxsize=None)
def _openblas():
    """``(get_num_threads, set_num_threads)`` of the loaded OpenBLAS, or ``None``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SYMBOL_AFFIXES:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return get, put
    return None


def get_blas_threads() -> int | None:
    """This process's OpenBLAS thread count (``None`` without OpenBLAS)."""
    lib = _openblas()
    return None if lib is None else int(lib[0]())


def set_blas_threads(n: int) -> int | None:
    """Set this process's OpenBLAS thread count; return the previous one.

    Setting the count already in force does nothing.  OpenBLAS restarts
    its thread pool on every set after a fork, so a forked worker that
    inherited its count would otherwise start threads it never uses,
    which spin beside it until they time out.
    """
    lib = _openblas()
    if lib is None:
        return None
    previous = int(lib[0]())
    if int(n) != previous:
        lib[1](int(n))
    return previous


def available_cores() -> int:
    """Cores this process may run on (its affinity mask, not the host's)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def lane_threads(workers: int) -> int | None:
    """BLAS threads per process when ``workers`` processes share the cores.

    ``max(1, cores // workers)``, never above the uncapped count, so a
    lower ``OPENBLAS_NUM_THREADS`` the user set still holds.
    """
    current = _uncapped if _caps else get_blas_threads()
    if current is None:
        return None
    return min(current, max(1, available_cores() // workers))


def hold_cap(holder: int, n: int) -> None:
    """Cap this process at ``n`` threads until :func:`release_cap`.

    Holders may overlap and release in any order: the smallest cap held
    is in force, and the last release restores the uncapped count.
    """
    global _uncapped
    if _openblas() is None:
        return
    if not _caps:
        _uncapped = get_blas_threads()
    _caps[holder] = n
    set_blas_threads(min(_caps.values()))


def release_cap(holder: int) -> None:
    """Drop ``holder``'s cap (a no-op if it holds none)."""
    if _caps.pop(holder, None) is None:
        return
    set_blas_threads(min(_caps.values()) if _caps else _uncapped)
