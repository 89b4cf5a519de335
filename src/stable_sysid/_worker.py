"""Helper processes that run calls beside the main process; a GCV search
sends them its restarts (the rule that deals the restarts is in
:mod:`stable_sysid.selection`), and a fit sends helper 0 its final solve
where one runs (:func:`stable_sysid.benchmarks.fit_method`).

A search spends its time in scipy's ``dpotrf``, ``dsytrd`` and ``dtrtri``,
which hold the GIL, and runs them with scipy's OpenBLAS on one thread
(:mod:`stable_sysid._lapack`), so on a machine with two CPUs one of them is
idle during every search, and only other processes can use it.  Helper
``j`` (0, 1, ...) is started on first use with
``subprocess.Popen([sys.executable, "-c", ...])`` and lives until the
interpreter exits.  ``multiprocessing`` is not used: its spawn start
method re-imports ``__main__``, so a script without a main guard fails with
``BrokenProcessPool``, and one call through a one-process
``ProcessPoolExecutor`` raised the caller's peak RSS by 1.27 MB, against
0.38 MB through a helper (Python 3.11, 2 vCPUs).

A helper reads the caller's ``sys.path`` first, so it imports the same
``stable_sysid``.  After that, both pipes carry messages: an 8-byte length,
then a pickle.  A request is ``(function, args, count)``, the function
pickled by reference and ``count`` the caller's scipy OpenBLAS thread count
when it was sent; the reply is ``(True, result)``, or ``(False, None)``
where the request could not be read or the call raised.  A helper runs each
call with its pool at the request's count, so the call has the bits it
would have in the caller: a search's restarts on one thread, a final solve
at the caller's count.  It starts with ``OPENBLAS_THREAD_TIMEOUT=4``, so its
pool's workers sleep right after each job instead of spinning for about
135 ms (see :mod:`stable_sysid._lapack`).
It runs in a session of its own, so a Ctrl-C at the terminal reaches the
caller only, and it exits at the end of its input, so a caller killed
outright leaves no helper behind.  A caller that exits normally closes
every helper's input and reaps them at exit.

The caller reaches the helpers only through :func:`spread` and
:func:`call`, under ``_lapack._LOCK``; a call sends at most one request per
helper and reads every reply before it returns.  Only :func:`spread` starts
a helper.  Where any helper dies, or cannot be reached, the caller kills
and reaps all of them and starts no other, so both return None from then on
and the caller runs the calls itself.  A forked child never writes to its
parent's helpers.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
import subprocess
import sys

from ._lapack import _LOCK, _get_threads, _scipy_threads

# False keeps every call in the calling process (a seam for tests)
_ENABLED = True
_EXIT_WAIT_S = 10.0
# OpenBLAS's idle-spin limit of 2**4 cycles, its least: a helper's pool
# sleeps right after each job instead of spinning for about 135 ms
_THREAD_TIMEOUT = "4"
_LENGTH = struct.Struct("<Q")
_BOOTSTRAP = (
    "import pickle, sys\n"
    "sys.path[:] = pickle.load(sys.stdin.buffer)\n"
    "from stable_sysid._worker import _serve\n"
    # a stray print must not enter the reply pipe
    "replies, sys.stdout = sys.stdout.buffer, sys.stderr\n"
    "_serve(sys.stdin.buffer, replies)\n"
)

_helpers = {}  # the running helpers by index
_owner = None  # the pid of the process that started them
_lost = False  # a helper died: start no other


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


def spread(function, calls):
    """``[function(*args) for args in calls]``, with ``calls[1:]`` run on
    helpers 0, 1, ... (each started on first use) while ``calls[0]`` runs
    here.  None, with every helper idle again, where the caller must run
    every call itself: the helpers are disabled or lost, this is a forked
    child of their owner, a call does not pickle or cannot be sent, a call
    raised here or in a helper, or a helper was lost before it replied.  An
    interrupt stops every helper, so no reply is left in a pipe."""
    return _exchange(function, calls[1:], lambda: function(*calls[0]))


def call(function, args):
    """``function(*args)`` run on helper 0, under ``_lapack._LOCK``, at this
    process's scipy OpenBLAS thread count.  None where :func:`spread` would
    give None, and where no helper runs yet (this starts none: a cold start
    costs 0.4-0.6 s)."""
    with _LOCK:
        if 0 not in _helpers:
            return None
        results = _exchange(function, [args], lambda: None)
    return None if results is None else results[1]


def _exchange(function, calls, here):
    """``[here()] + [function(*args) for args in calls]``, with ``calls[j]``
    run on helper j (started on first use) while ``here()`` runs in this
    process; None as :func:`spread` says."""
    global _owner
    if not _ENABLED or _lost or (_helpers and _owner != os.getpid()):
        return None
    try:
        # each request carries the thread count it is to run at
        count = None if _get_threads is None else _get_threads()
        requests = [pickle.dumps((function, args, count), protocol=pickle.HIGHEST_PROTOCOL) for args in calls]
    except Exception:  # a ctypes pointer raises ValueError, a lambda PicklingError
        return None
    try:
        for helper in range(len(calls)):
            proc = _helpers.get(helper)
            if proc is None:
                proc = _helpers[helper] = subprocess.Popen(
                    [sys.executable, "-c", _BOOTSTRAP], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    start_new_session=True, env={**os.environ, "OPENBLAS_THREAD_TIMEOUT": _THREAD_TIMEOUT})
                _owner = os.getpid()
                proc.stdin.write(pickle.dumps(sys.path))
            _write(proc.stdin, requests.pop(0))  # not held while the calls run
    except OSError:
        _lose()
        return None
    try:
        try:
            results = [here()]
        except Exception:
            results = None  # the replies are read all the same
        replies = [pickle.loads(_read(_helpers[helper].stdout)) for helper in range(len(calls))]
    except (EOFError, OSError, pickle.UnpicklingError):
        _lose()
        return None
    except BaseException:
        _close(kill=True)
        raise
    if results is None or not all(ok for ok, _ in replies):
        return None
    return results + [result for _, result in replies]


def _lose() -> None:
    global _lost
    _lost = True
    _close(kill=True)


def _close(kill: bool = False) -> None:
    """Stop and reap every helper this process started: end their input, so
    they exit, or kill them; a forked child leaves its parent's helpers
    alone."""
    global _helpers
    helpers, _helpers = list(_helpers.values()), {}
    if _owner != os.getpid():
        return
    for proc in helpers:
        if kill:
            proc.kill()
        try:
            proc.stdin.close()
        except OSError:
            pass
    for proc in helpers:
        try:
            proc.wait(timeout=_EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


atexit.register(_close)


def _serve(requests, replies) -> None:
    """A helper's loop: answer each request read from ``requests`` on
    ``replies``, at the thread count the request carries, until the
    requests end."""
    while True:
        try:
            payload = _read(requests)
        except EOFError:
            return
        try:
            function, args, count = pickle.loads(payload)
            with _scipy_threads(count):
                reply = pickle.dumps((True, function(*args)), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            reply = pickle.dumps((False, None))
        try:
            _write(replies, reply)
        except OSError:
            return
