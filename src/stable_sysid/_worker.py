"""One helper process that runs calls beside the main process; the
hyperparameter search sends it every second restart of a GCV search (see
:mod:`stable_sysid.selection`).

A search spends its time in scipy's ``dpotrf``, ``dsytrd`` and ``dtrtri``,
which hold the GIL, and runs them with scipy's OpenBLAS on one thread
(:mod:`stable_sysid._lapack`), so on a machine with two CPUs one of them is
idle during every search, and only a second process can use it.  The worker
is started on first use with ``subprocess.Popen([sys.executable, "-c",
...])`` and lives until the interpreter exits.  ``multiprocessing`` is not
used: its spawn start method re-imports ``__main__``, so a script without a
main guard fails with ``BrokenProcessPool``, and one call through a
one-process ``ProcessPoolExecutor`` raised the caller's peak RSS by 1.27 MB,
against 0.38 MB through this worker (Python 3.11, 2 vCPUs).

The worker reads the caller's ``sys.path`` first, so it imports the same
``stable_sysid``.  After that, both pipes carry messages: an 8-byte length,
then a pickle.  A request is ``(function, args)``, the function pickled by
reference; the reply is ``(True, result)``, or ``(False, None)`` where the
request could not be read or the call raised.  The worker runs with scipy's
OpenBLAS on one thread and numpy's pool as the caller's environment sets
it.  It runs in a session of its own, so a Ctrl-C at the terminal reaches
the caller only, and it exits at the end of its input, so a caller killed
outright leaves no worker behind.  A caller
that exits normally closes that input and reaps the worker at exit.

The caller uses the worker only under ``_lapack._LOCK``, one request at a
time.  Where the worker dies, or cannot be reached, the caller kills and
reaps it and starts no other: :func:`submit` returns False from then on,
and :func:`collect` raises :class:`WorkerLost`, so the caller runs the call
itself.  A forked child never writes to its parent's worker.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
import subprocess
import sys

from ._lapack import _scipy_threads

# False keeps every call in the calling process (a seam for tests)
_ENABLED = True
_EXIT_WAIT_S = 10.0
_LENGTH = struct.Struct("<Q")
_BOOTSTRAP = (
    "import pickle, sys\n"
    "sys.path[:] = pickle.load(sys.stdin.buffer)\n"
    "from stable_sysid._worker import _serve\n"
    # a stray print must not enter the reply pipe
    "replies, sys.stdout = sys.stdout.buffer, sys.stderr\n"
    "_serve(sys.stdin.buffer, replies)\n"
)

_proc = None  # the running worker, or None
_owner = None  # the pid of the process that started it
_lost = False  # a worker died: start no other


class WorkerLost(Exception):
    """The worker gave no result for the last request."""


def _write(stream, payload: bytes) -> None:
    stream.write(_LENGTH.pack(len(payload)))
    stream.write(payload)
    stream.flush()


def _read(stream) -> bytes:
    header = stream.read(_LENGTH.size)
    if len(header) < _LENGTH.size:
        raise EOFError
    (size,) = _LENGTH.unpack(header)
    payload = stream.read(size)
    if len(payload) < size:
        raise EOFError
    return payload


def _cpus() -> int:
    # where the platform cannot tell the CPUs this process may run on, one
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def submit(function, *args) -> bool:
    """Send ``function(*args)`` to the worker, starting it on first use;
    False, with nothing sent, where the caller must run the call itself:
    fewer than two CPUs in the affinity set, a lost worker, a forked child
    of the worker's owner, or arguments that do not pickle."""
    global _proc, _owner
    if not _ENABLED or _lost or _cpus() < 2:
        return False
    if _proc is not None and _owner != os.getpid():
        return False
    try:
        request = pickle.dumps((function, args), protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError):
        return False
    try:
        if _proc is None:
            _proc = subprocess.Popen([sys.executable, "-c", _BOOTSTRAP], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, start_new_session=True)
            _owner = os.getpid()
            _proc.stdin.write(pickle.dumps(sys.path))
        _write(_proc.stdin, request)
    except OSError:
        _lose()
        return False
    return True


def collect():
    """The result of the request :func:`submit` sent; :class:`WorkerLost`
    where the call raised in the worker or the worker died.  An interrupt
    while waiting stops the worker, so no reply is left in the pipe."""
    try:
        ok, result = pickle.loads(_read(_proc.stdout))
    except (EOFError, OSError, pickle.UnpicklingError):
        _lose()
        raise WorkerLost from None
    except BaseException:
        _close(kill=True)
        raise
    if not ok:
        raise WorkerLost
    return result


def _lose() -> None:
    global _lost
    _lost = True
    _close(kill=True)


def _close(kill: bool = False) -> None:
    """Stop and reap the worker this process started: end its input, so it
    exits, or kill it; a forked child leaves its parent's worker alone."""
    global _proc
    proc, _proc = _proc, None
    if proc is None or _owner != os.getpid():
        return
    if kill:
        proc.kill()
    try:
        proc.stdin.close()
    except OSError:
        pass
    try:
        proc.wait(timeout=_EXIT_WAIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


atexit.register(_close)


def _serve(requests, replies) -> None:
    """The worker's loop: answer each request read from ``requests`` on
    ``replies`` until the requests end."""
    with _scipy_threads(1):
        while True:
            try:
                payload = _read(requests)
            except EOFError:
                return
            try:
                function, args = pickle.loads(payload)
                reply = pickle.dumps((True, function(*args)), protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                reply = pickle.dumps((False, None))
            try:
                _write(replies, reply)
            except OSError:
                return
