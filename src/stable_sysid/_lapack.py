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

Every LAPACK and BLAS routine of the package, its one eigendecomposition
(``dsyevd``) among them, runs on scipy's OpenBLAS and its thread pool;
numpy's own OpenBLAS serves only the package's matrix products, and its
thread count sets no bit of a result.  After one multi-threaded call, an
OpenBLAS worker thread spins for about 135 ms of CPU, and the run-time
setter does not stop it; at the search's size a second thread does not pay
either (one ``dpotrf`` of a 199 x 199 Gram: 0.21 ms on one thread, 0.46 ms
on two).  So :func:`_scipy_threads` runs scipy's pool on one thread,
through the run-time setter that scipy's OpenBLAS exports, found with
``ctypes`` as ``threadpoolctl`` does
(https://github.com/joblib/threadpoolctl); on another BLAS the setter is
absent and nothing is pinned.  The thread count sets the bits of
``dpotrf`` from N = 128 up and of ``dsyevd`` from about N = 146 up; which
calls run on one thread is the fit's thread rule, in the notes of
:mod:`stable_sysid.selection`.  The count is process-wide, so the context
also holds one process-wide lock, ``_LOCK``, which every other scipy caller
of the package holds by name at the caller's count: no call runs pinned
because another thread is fitting.
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
    "dsyevd",
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
dsyevd = _flapack.dsyevd
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
def _scipy_threads():
    """Hold the package's scipy lock with scipy's OpenBLAS on one thread;
    the caller's count is back on exit, also where the body raises."""
    with _LOCK:
        before = None if _set_threads is None else _get_threads()
        if before is not None:
            _set_threads(1)
        try:
            yield
        finally:
            if before is not None:
                _set_threads(before)
