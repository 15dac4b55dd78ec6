"""Run BLAS at one thread for the duration of a campaign.

numpy and scipy each bundle their own OpenBLAS. Every matrix a campaign builds
is at most a few hundred wide, where a second BLAS thread only adds
synchronisation, and it also changes the order of floating-point sums: the GA
amplifies last-digit differences in the fitted model into different designs,
so a seeded campaign would depend on the machine's thread default.

Each library is reached through a module that is already loaded; dlsym looks
the symbol up in that module's dependencies, so no file-system search is made.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import warnings
from contextlib import contextmanager
from typing import Callable

# (module linked against the library, thread-count getter, thread-count setter)
_LIBRARIES = (
    (
        "numpy._core._multiarray_umath",
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_set_num_threads64_",
    ),
    (
        "scipy.linalg._fblas",
        "scipy_openblas_get_num_threads",
        "scipy_openblas_set_num_threads",
    ),
)


@functools.cache
def _controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """The (get, set) thread-count functions of each library that has them.

    Looked up on the first call and kept for the process; a library whose
    symbols cannot be found is left at its own thread count, with one warning.
    """
    found, missing = [], []
    for module_name, get_name, set_name in _LIBRARIES:
        try:
            lib = ctypes.CDLL(importlib.import_module(module_name).__file__)
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except (ImportError, OSError, AttributeError):
            missing.append(f"{module_name} ({set_name})")
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append((get, set_))
    if missing:
        warnings.warn(
            f"cannot set the BLAS thread count through {', '.join(missing)}; campaigns "
            "leave that library at its default thread count, so a seeded campaign's "
            "designs may depend on it",
            RuntimeWarning,
        )
    return tuple(found)


@contextmanager
def one_thread():
    """Set every reachable OpenBLAS to one thread, restoring the earlier counts on exit."""
    controls = _controls()
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)
