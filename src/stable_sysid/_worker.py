"""Helper processes that run calls beside the main process: the restarts of
a pinned search, dealt by the thread rule of :mod:`stable_sysid.selection`.

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
then a pickle.  A request is ``(function, args)``, the function pickled by
reference; the reply is ``(True, result)``, or ``(False, None)`` where the
request could not be read or the call raised.  A helper runs every call
with scipy's OpenBLAS on one thread, for its whole life.  It runs in a
session of its own, so a Ctrl-C at the terminal reaches the caller only,
and it exits at the end of its input, so a caller killed outright leaves no
helper behind.  A caller that exits normally closes every helper's input
and reaps them at exit.

The caller reaches the helpers only through :func:`spread`, which holds
``_lapack._scipy_threads()`` from its first send to its last reply: its
own call runs on one thread too, so every part of a spread runs as in one
process on one thread, and no two threads share the pipes.  A call sends
at most one request per helper and reads every reply before it returns.
Where any helper dies, or cannot be reached, the caller kills and reaps all
of them and starts no other, so :func:`spread` returns None from then on
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
    here, every part on one thread.  None, with every helper idle again,
    where the caller must run every call itself: the helpers are disabled or
    lost, this is a forked child of their owner, a call does not pickle or
    cannot be sent, a call raised here or in a helper, or a helper was lost
    before it replied.  An interrupt stops every helper, so no reply is left
    in a pipe."""
    global _owner
    with _scipy_threads():
        if not _ENABLED or _lost or (_helpers and _owner != os.getpid()):
            return None
        try:
            requests = [pickle.dumps((function, args), protocol=pickle.HIGHEST_PROTOCOL) for args in calls[1:]]
        except Exception:  # a ctypes pointer raises ValueError, a lambda PicklingError
            return None
        try:
            for helper in range(len(calls) - 1):
                proc = _helpers.get(helper)
                if proc is None:
                    proc = _helpers[helper] = subprocess.Popen(
                        [sys.executable, "-c", _BOOTSTRAP], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                        start_new_session=True)
                    _owner = os.getpid()
                    proc.stdin.write(pickle.dumps(sys.path))
                _write(proc.stdin, requests.pop(0))  # not held while the calls run
        except OSError:
            _lose()
            return None
        try:
            try:
                results = [function(*calls[0])]
            except Exception:
                results = None  # the replies are read all the same
            replies = [pickle.loads(_read(_helpers[helper].stdout)) for helper in range(len(calls) - 1)]
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
    ``replies``, with scipy's OpenBLAS on one thread, until the requests
    end."""
    with _scipy_threads():
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
