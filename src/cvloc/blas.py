"""The thread count of numpy's bundled OpenBLAS, pinned around work whose
BLAS calls are too small to gain from threads or that runs its own."""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

import numpy as np


@contextmanager
def one_thread():
    """Pin numpy's bundled OpenBLAS to one thread and restore the former count
    after; yields False, pinning nothing, where it has no such functions."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # resolves the OpenBLAS numpy links
    get, set_ = (getattr(lib, f"scipy_openblas_{op}_num_threads64_", None) for op in ("get", "set"))
    if get is None or set_ is None:
        yield False
        return
    get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
    former = get()
    set_(1)
    try:
        yield True
    finally:
        set_(former)
