"""The LAPACK and BLAS routines of the package, bound from scipy's compiled
``_flapack`` and ``_fblas`` modules without running ``scipy.linalg``'s
package ``__init__``.

``from scipy.linalg.lapack import ...`` first imports ``scipy.linalg``, whose
``__init__`` pulls in scipy's vendored ``array_api_compat.numpy``; that
clones the numpy namespace and so imports ``numpy.f2py``, ``email`` and
``charset_normalizer``.  Under ``python -X importtime`` (2 vCPUs, numpy
2.4.6, scipy 1.17.1) the ``scipy.linalg`` import was 298 ms of a 523 ms
``import stable_sysid``, 211 ms of it for ``array_api_compat.numpy``, and
``import stable_sysid.cli`` loaded 555 modules.  Loading the two extension
files by path skips all of that (about 200 ms for ``import stable_sysid``
and 245 modules for the CLI), and they load under their own names
(``scipy.linalg._flapack``, ``scipy.linalg._fblas``), so a later
``import scipy.linalg`` finds them in ``sys.modules``: its ``lapack.dpotrf``
is this module's ``dpotrf``, the same compiled routine, and every result
keeps its bits.  No stand-in ``scipy.linalg`` is registered.

Where either file is missing (a scipy built another way), the modules come
from ``scipy.linalg`` itself: the same objects, at the old start-up cost.

numpy and scipy each load their own OpenBLAS, with its own thread pool.
After one multi-threaded call, that library's worker thread spins for about
135 ms of CPU: 135.5 ms inside a 300 ms sleep after one 199 x 199 numpy
``eigh``, and 135.0 ms after one two-thread scipy ``dpotrf`` (2 vCPUs).  A
call into the other pool meanwhile shares a CPU with the spin, which
explains Ha's final ``_ridge`` taking 70-101 ms in 4 of 8 timed mc-h
rounds, against 0.6-3.8 ms otherwise; on mc-ab, after the scipy-only GCV
searches, numpy's final ``eigh`` pair took 0.124 s a round where 0.008 s is
normal.  ``scipy_openblas_set_num_threads*(1)`` does not stop the spin
(136.5 ms); OpenBLAS's ``blas_thread_shutdown_`` does (0.7-2.5 ms), but the
package must not call it, as it can drop a job that another thread has
queued.  Parking numpy's pool that way kept all 70 benchmark rows
bit-identical, yet gave only 2.63 against 2.50 mc-ab cells/s (median of 6
alternating 15 s pairs, 4 of 6 won).  At the search's size a second thread does not pay
either: one ``dpotrf`` of a 199 x 199 Gram took 0.21 ms on one thread and
0.46 ms on two.  So :func:`_scipy_threads` runs scipy's pool on one thread
for the length of each search, through the run-time setter that scipy's
OpenBLAS exports, found with ``ctypes`` as ``threadpoolctl`` does
(https://github.com/joblib/threadpoolctl); on another BLAS the setter is
absent and nothing is pinned.  Only scipy's pool and only the search are
pinned, which moved none of the mc-ab/mc-h rows of seeds 0-9: numpy's
thread count sets the bits of every ``eigh`` and so of the H rows (ROADMAP
D17), and ``dpotrf``'s bits depend on the thread count from N = 128 up, so
a final solve on one thread moved Ha's row on 7 of 10 seeds.  Pinning both pools, fits included, waits
for the re-baseline of ROADMAP Direction 1 (Direction 16).  The count is
process-wide, so the context also holds one process-wide lock, which every
other scipy caller of the package takes at the caller's count: a final
Cholesky never runs pinned because another thread is searching.  A GCV
search also uses its helper processes (:mod:`stable_sysid._worker`) only
under this lock, so one search at a time talks to them; each helper runs
scipy's pool on one thread for its whole life.
"""

from __future__ import annotations

import ctypes
import importlib.util
import sys
import threading
from contextlib import contextmanager
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from types import ModuleType

__all__ = [
    "dnrm2",
    "dpotrf",
    "dpotrs",
    "dptsv",
    "dpttrs",
    "dsymv",
    "dsyr2",
    "dsytrd",
    "dsytrd_lwork",
    "dtrtri",
]

_NAMES = ("_flapack", "_fblas")


def _extension_file(directory: Path, name: str) -> Path | None:
    for suffix in EXTENSION_SUFFIXES:
        path = directory / (name + suffix)
        if path.is_file():
            return path
    return None


def _load(directory: Path | None) -> tuple[ModuleType, ModuleType]:
    """``(_flapack, _fblas)`` loaded from the files in ``directory``, or
    imported through ``scipy.linalg`` where either file is missing there."""
    paths = [None if directory is None else _extension_file(directory, name) for name in _NAMES]
    if None in paths:
        from scipy.linalg import _fblas, _flapack

        return _flapack, _fblas
    modules = []
    for name, path in zip(_NAMES, paths):
        full = f"scipy.linalg.{name}"
        # a module already imported is kept, not loaded a second time
        if full not in sys.modules:
            spec = importlib.util.spec_from_file_location(full, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[full] = module
        modules.append(sys.modules[full])
    return modules[0], modules[1]


def _scipy_linalg_directory() -> Path | None:
    # find_spec of a top-level package locates it without importing it
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    return Path(spec.submodule_search_locations[0]) / "linalg"


_flapack, _fblas = _load(_scipy_linalg_directory())

dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dptsv = _flapack.dptsv
dpttrs = _flapack.dpttrs
dsytrd = _flapack.dsytrd
dsytrd_lwork = _flapack.dsytrd_lwork
dtrtri = _flapack.dtrtri
dnrm2 = _fblas.dnrm2
dsymv = _fblas.dsymv
dsyr2 = _fblas.dsyr2


def _thread_setters(module: ModuleType):
    """``(set, get)`` of the OpenBLAS that ``module`` links, or ``(None, None)``
    where it exports no scipy-OpenBLAS thread setter."""
    # dlopen of a loaded extension returns its handle, and dlsym on that
    # handle also searches the libraries it links
    library = ctypes.CDLL(module.__file__)
    set_threads = getattr(library, "scipy_openblas_set_num_threads", None)
    get_threads = getattr(library, "scipy_openblas_get_num_threads", None)
    if set_threads is None or get_threads is None:
        return None, None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads


_set_threads, _get_threads = _thread_setters(_flapack)
_LOCK = threading.RLock()


@contextmanager
def _scipy_threads(count: int | None = None):
    """Hold the package's scipy lock, with scipy's OpenBLAS on ``count``
    threads (None keeps the caller's), and restore the caller's count on
    exit, also when the body raises."""
    with _LOCK:
        before = None if count is None or _set_threads is None else _get_threads()
        if before is not None:
            _set_threads(count)
        try:
            yield
        finally:
            if before is not None:
                _set_threads(before)
