"""A GCV search with more than one restart runs every second restart in one
helper process and merges the runs in start order, so its result, restart
record and factorization count are those of the one-process search bit for
bit, and, as only the EB search reads or fills the data's memo of spectra,
neither process leaves an entry in it; EB, k-fold and one-restart searches,
and any search on one CPU, never start the worker, and a worker that is
lost, forked away from or closed leaves no process and no difference
behind."""

import io
import os
import pickle
import select
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stable_sysid
from stable_sysid import (
    Gaussian, LinearAffine, OptimizerConfig, RegressionData, SelectionConfig, StabilityTarget,
)
from stable_sysid import _worker
from stable_sysid.benchmarks import MonteCarloConfig, SyntheticSystemSpec, run_monte_carlo, standard_methods
from stable_sysid.selection import select_hyperparameters

pytestmark = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the worker needs two CPUs")


def linear_data(n=40, seed=0):
    """Targets exactly linear in the regressors: the plain-GCV search on a
    LinearAffine kernel drives beta down until Cholesky fails, so part of
    its evaluations fall back to the spectrum."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, 5))
    return RegressionData(Z, Z @ np.array([0.3, -0.2, 0.1, 0.5, 0.05]), 2)


def smooth_data(n=60, seed=1):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, 5))
    return RegressionData(Z, np.tanh(Z[:, 0]) + 0.3 * Z[:, 4], 2)


GCV = SelectionConfig(method="gcv", seed=4, optimizer=OptimizerConfig(restarts=3, max_evals=90))


def bits(result):
    return (result.beta.hex(), tuple(v.hex() for v in result.eta), result.cost.hex(),
            result.evaluations, result.feasible, result.factorizations, result.restarts)


@pytest.fixture
def served(monkeypatch):
    """The results the worker returned during the test."""
    replies, real = [], _worker.collect

    def collect():
        replies.append(real())
        return replies[-1]

    monkeypatch.setattr(_worker, "collect", collect)
    return replies


def one_process(monkeypatch, search):
    monkeypatch.setattr(_worker, "_ENABLED", False)
    try:
        return search()
    finally:
        monkeypatch.setattr(_worker, "_ENABLED", True)


CASES = [
    (structure, target, restarts)
    for structure, target in [(Gaussian(), StabilityTarget.unconstrained()), (Gaussian(), StabilityTarget.diss()),
                              (LinearAffine(), StabilityTarget.unconstrained())]
    for restarts in (3, 8)
]


@pytest.mark.parametrize("structure,target,restarts", CASES,
                         ids=[f"{type(s).__name__}-{t.label()}-{r}" for s, t, r in CASES])
def test_two_processes_give_the_one_process_search(monkeypatch, served, structure, target, restarts):
    data_of = linear_data if isinstance(structure, LinearAffine) else smooth_data
    config = SelectionConfig(method="gcv", target=target, seed=2,
                             optimizer=OptimizerConfig(restarts=restarts, max_evals=40 * restarts))
    data = data_of()
    two = select_hyperparameters(config, data, structure)
    assert len(served) == 1 and len(served[0][0]) == restarts // 2
    alone = data_of()
    one = one_process(monkeypatch, lambda: select_hyperparameters(config, alone, structure))
    assert bits(two) == bits(one)
    assert data.spectra == {} and alone.spectra == {}
    if isinstance(structure, LinearAffine):
        assert two.factorizations > two.evaluations  # the fallback ran


def test_thread_pool_rows_equal_one_process_rows(monkeypatch):
    def config(n_jobs):
        selection = replace(SelectionConfig(method="gcv"), optimizer=OptimizerConfig(restarts=3, max_evals=60))
        return MonteCarloConfig(
            runs=2, systems=(SyntheticSystemSpec("A", seed=3, n_train=40, n_valid=40),
                             SyntheticSystemSpec("B", seed=3, n_train=40, n_valid=40)),
            methods=standard_methods("B", selection), n_jobs=n_jobs)

    def content(result):
        return [(r.run, r.system, r.method, r.q_pre.hex(), r.q_sim.hex(), r.feasible) for r in result.rows]

    pooled = run_monte_carlo(config(2))
    assert _worker._proc is not None
    serial = one_process(monkeypatch, lambda: run_monte_carlo(config(1)))
    assert len(serial.rows) == 8 and not pooled.failures
    assert content(pooled) == content(serial)


@pytest.mark.parametrize("method,restarts,cpus", [("eb", 3, 2), ("kfold", 3, 2), ("gcv", 1, 2), ("gcv", 3, 1)])
def test_other_searches_never_start_the_worker(monkeypatch, method, restarts, cpus):
    _worker._close()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    config = SelectionConfig(method=method, optimizer=OptimizerConfig(restarts=restarts, max_evals=12 * restarts))
    select_hyperparameters(config, smooth_data(), Gaussian())
    assert _worker._proc is None


def test_a_worker_killed_before_the_search_is_replaced_by_the_process(monkeypatch):
    monkeypatch.setattr(_worker, "_lost", False)
    one = one_process(monkeypatch, lambda: select_hyperparameters(GCV, linear_data(), LinearAffine()))
    assert _worker.submit(abs, -1) and _worker.collect() == 1
    proc = _worker._proc
    proc.kill()
    proc.wait()
    assert bits(select_hyperparameters(GCV, linear_data(), LinearAffine())) == bits(one)
    assert _worker._lost and _worker._proc is None
    # no other worker is started
    select_hyperparameters(GCV, linear_data(), LinearAffine())
    assert _worker._proc is None


def test_a_worker_killed_inside_the_search_is_replaced_by_the_process(monkeypatch):
    monkeypatch.setattr(_worker, "_lost", False)
    one = one_process(monkeypatch, lambda: select_hyperparameters(GCV, linear_data(), LinearAffine()))
    real = _worker.submit

    def submit_then_kill(*args):
        sent = real(*args)
        _worker._proc.kill()
        return sent

    monkeypatch.setattr(_worker, "submit", submit_then_kill)
    assert bits(select_hyperparameters(GCV, linear_data(), LinearAffine())) == bits(one)
    assert _worker._lost and _worker._proc is None


def test_a_restart_that_raises_here_raises_as_in_one_process(monkeypatch):
    # the patch reaches this process only: the worker's restart succeeds,
    # the search runs again in one process and raises the first error
    from stable_sysid import selection

    def gcv(*args):
        raise RuntimeError("stopped inside the search")

    monkeypatch.setattr(selection, "_gcv", gcv)
    with pytest.raises(RuntimeError, match="stopped inside the search"):
        select_hyperparameters(GCV, smooth_data(), Gaussian())
    assert _worker.submit(abs, -5) and _worker.collect() == 5


def test_the_serving_loop_answers_until_its_requests_end():
    requests, replies = io.BytesIO(), io.BytesIO()
    for payload in (pickle.dumps((abs, (-5,))), pickle.dumps((int, ("x",))), b"not a pickle"):
        _worker._write(requests, payload)
    requests.seek(0)
    _worker._serve(requests, replies)
    replies.seek(0)
    answers = []
    while replies.tell() < len(replies.getvalue()):
        answers.append(pickle.loads(_worker._read(replies)))
    assert answers == [(True, 5), (False, None), (False, None)]


def test_a_call_that_raises_in_the_worker_keeps_the_worker():
    assert _worker.submit(int, "x")
    with pytest.raises(_worker.WorkerLost):
        _worker.collect()
    assert _worker.submit(abs, -3) and _worker.collect() == 3


def test_arguments_that_do_not_pickle_are_not_sent():
    assert not _worker.submit(abs, lambda: None)
    assert _worker.submit(abs, -2) and _worker.collect() == 2


def test_an_interrupt_while_waiting_stops_the_worker(monkeypatch):
    # no reply may be left in the pipe for the next request to read
    monkeypatch.setattr(_worker, "_lost", False)
    assert _worker.submit(abs, -1)
    proc = _worker._proc

    def interrupted(stream):
        raise KeyboardInterrupt

    monkeypatch.setattr(_worker, "_read", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _worker.collect()
    assert proc.poll() is not None and _worker._proc is None and not _worker._lost


def test_a_closed_worker_has_exited():
    assert _worker.submit(abs, -1) and _worker.collect() == 1
    proc = _worker._proc
    _worker._close()
    assert proc.poll() is not None and _worker._proc is None


def test_a_forked_child_leaves_the_parents_worker_alone():
    assert _worker.submit(abs, -1) and _worker.collect() == 1
    pid = os.fork()
    if pid == 0:
        code = 2
        try:
            code = 1 if _worker.submit(abs, -1) else 0
            _worker._close()  # the owner's worker is not the child's to stop
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0
    assert _worker.submit(abs, -4) and _worker.collect() == 4


def exited(pid: int) -> bool:
    """The process is gone or a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_a_caller_killed_outright_leaves_no_worker():
    code = """
import time
import numpy as np
from stable_sysid import Gaussian, OptimizerConfig, RegressionData, SelectionConfig, _worker
from stable_sysid.selection import select_hyperparameters
Z = np.random.default_rng(0).normal(size=(30, 5))
select_hyperparameters(SelectionConfig(method="gcv", optimizer=OptimizerConfig(restarts=2, max_evals=20)),
                       RegressionData(Z, Z[:, 0], 2), Gaussian())
print(_worker._proc.pid, flush=True)
time.sleep(600)
"""
    src = str(Path(stable_sysid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=env) as caller:
        try:
            assert select.select([caller.stdout], [], [], 120)[0], "the caller printed no worker pid"
            worker = int(caller.stdout.readline())
            assert not exited(worker)
        finally:
            caller.send_signal(signal.SIGKILL)
            caller.wait()
    deadline = time.monotonic() + 30
    while not exited(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert exited(worker)
