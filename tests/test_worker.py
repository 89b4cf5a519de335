"""A GCV or k-fold search with more than one restart deals its restarts over
this process and helper processes by the rule of :mod:`stable_sysid.selection`
and merges the runs in start order, so its result, restart record and
factorization count are those of the one-process search bit for bit, and it
leaves no entry in the EB search's memo of spectra (see that module's
notes); EB and one-restart searches, and any search on one CPU, start no
helper, and helpers that are lost, forked away from or
closed leave no process and no difference behind.  A spread runs every part,
its own and each helper's, with scipy's OpenBLAS on one thread under the
package's lock.  A fit's final solve
runs in this process under its search's thread rule (see the notes of
:mod:`stable_sysid.selection`), so no fit sends it to a helper and the core
count sets no bit of a GCV fit.  numpy's OpenBLAS thread count sets no bit,
and harness threads that run EB and GCV searches at once give the serial
rows.  The affinity set is faked to two CPUs wherever a search
could otherwise start more than two helpers."""

import ctypes
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
from numpy.linalg import _umath_linalg

import stable_sysid
from stable_sysid import (
    FeatureGaussian, Gaussian, LinearAffine, OptimizerConfig, RegressionData, SelectionConfig, StabilityTarget,
)
from stable_sysid import _lapack, _worker, benchmarks, selection
from stable_sysid.benchmarks import (
    MethodSpec, MonteCarloConfig, SyntheticSystemSpec, fit_method, generate_dataset, run_monte_carlo,
    standard_methods,
)
from stable_sysid.solver import FitReport, build_regression_data
from stable_sysid.selection import select_hyperparameters

pytestmark = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the helpers need two CPUs")


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
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def served(monkeypatch):
    """The ``(helper, result)`` of each reply a helper returned during the
    test."""
    replies, real = [], _worker._read

    def read(stream):
        payload = real(stream)
        helper = next(j for j, proc in _worker._helpers.items() if proc.stdout is stream)
        replies.append((helper, pickle.loads(payload)[1]))
        return payload

    monkeypatch.setattr(_worker, "_read", read)
    return replies


def one_process(monkeypatch, search):
    monkeypatch.setattr(_worker, "_ENABLED", False)
    try:
        return search()
    finally:
        monkeypatch.setattr(_worker, "_ENABLED", True)


CASES = [
    ("gcv", structure, target, restarts)
    for structure, target in [(Gaussian(), StabilityTarget.unconstrained()), (Gaussian(), StabilityTarget.diss()),
                              (LinearAffine(), StabilityTarget.unconstrained())]
    for restarts in (2, 3, 4, 5, 8)
] + [
    # A's structure and target, whose Grams read both the inner products and the squared distances
    ("gcv", FeatureGaussian(), StabilityTarget.iss(), 3),
] + [
    # k-fold at fewer restart counts, to bound the time
    ("kfold", Gaussian(), target, restarts)
    for target in (StabilityTarget.unconstrained(), StabilityTarget.diss())
    for restarts in (2, 3, 5)
]
# on two CPUs, the processes of a search of each restart count
PROCESSES = {2: 2, 3: 3, 4: 2, 5: 3, 8: 2}


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("method,structure,target,restarts", CASES,
                         ids=[f"{'kfold-' if m == 'kfold' else ''}{type(s).__name__}-{t.label()}-{r}"
                              for m, s, t, r in CASES])
def test_helpers_give_the_one_process_search(monkeypatch, served, method, structure, target, restarts):
    data_of = linear_data if isinstance(structure, LinearAffine) else smooth_data
    config = SelectionConfig(method=method, target=target, seed=2,
                             optimizer=OptimizerConfig(restarts=restarts, max_evals=40 * restarts))
    data = data_of()
    dealt = select_hyperparameters(config, data, structure)
    alone = data_of()
    one = one_process(monkeypatch, lambda: select_hyperparameters(config, alone, structure))
    assert bits(dealt) == bits(one)
    # helper j - 1 ran restarts j, j + P, ... of the one-process search
    count = PROCESSES[restarts]
    assert [helper for helper, _ in served] == list(range(count - 1))
    for helper, (runs, _) in served:
        assert [(spent, float(value), stop) for _, value, spent, stop in runs] == \
            list(one.restarts[helper + 1::count])
    assert data not in selection._SPECTRA and alone not in selection._SPECTRA
    if isinstance(structure, Gaussian):
        # the search built no inner products, which a Gaussian Gram never reads
        assert "inner" not in data.terms.__dict__
    if isinstance(structure, LinearAffine):
        assert dealt.factorizations > dealt.evaluations  # the fallback ran


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
    assert _worker._helpers
    serial = one_process(monkeypatch, lambda: run_monte_carlo(config(1)))
    assert len(serial.rows) == 8 and not pooled.failures
    assert content(pooled) == content(serial)


@pytest.mark.parametrize("method,restarts,cpus", [("eb", 3, 2), ("gcv", 1, 2), ("gcv", 3, 1)])
def test_other_searches_never_start_the_worker(monkeypatch, method, restarts, cpus):
    # nor does their fit's final solve
    _worker._close()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    config = SelectionConfig(method=method, optimizer=OptimizerConfig(restarts=restarts, max_evals=12 * restarts))
    fit_method(smooth_data(), MethodSpec(method, Gaussian(), config))
    assert not _worker._helpers


@pytest.mark.usefixtures("two_cpus")
def test_a_kfold_fit_starts_the_worker(monkeypatch, served):
    # pinned like GCV: its 3 restarts run in three processes, and its final
    # solve in this one
    monkeypatch.setattr(_worker, "_lost", False)
    _worker._close()
    config = SelectionConfig(method="kfold", optimizer=OptimizerConfig(restarts=3, max_evals=36))
    fit_method(smooth_data(), MethodSpec("kfold", Gaussian(), config))
    assert sorted(_worker._helpers) == [0, 1] and [helper for helper, _ in served] == [0, 1]


@pytest.mark.usefixtures("two_cpus")
def test_a_helpers_fallback_spectrum_has_the_callers_bits(monkeypatch, served):
    # at N = 220 scipy's thread count sets the bits of the third restart's
    # fallback spectra: its helper factors at the caller's pinned count, not
    # at its own default
    dealt = select_hyperparameters(GCV, linear_data(n=220), LinearAffine())
    one = one_process(monkeypatch, lambda: select_hyperparameters(GCV, linear_data(n=220), LinearAffine()))
    assert bits(dealt) == bits(one)
    # a helper's restarts fell back to the spectrum
    assert any(factorizations > sum(spent for _, _, spent, _ in runs) for _, (runs, factorizations) in served)


def a_data():
    """System A's training data at the benchmark's N = 198 rows, where the
    thread count sets the bits of ``dsyevd`` and ``dpotrf``."""
    train, _ = generate_dataset(SyntheticSystemSpec("A", seed=3, n_valid=40))
    return build_regression_data(train.u, train.y, 2)


def fit_bits(fit):
    model, report, sel = fit
    return (report.coefficients.tobytes(), report.beta.hex(), report.alpha_bar.hex(),
            report.effective_alpha.hex(), report.constraint_active, report.mu.hex(),
            model.coefficients.tobytes(), bits(sel))


# Aa's final solve is the plain Cholesky ridge, Ab's the constrained spectrum
A_METHODS = standard_methods("A", SelectionConfig(method="gcv", optimizer=OptimizerConfig(restarts=3, max_evals=60)))
EB = MethodSpec("eb", Gaussian(), SelectionConfig(method="eb", optimizer=OptimizerConfig(restarts=3, max_evals=36)))


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("method", A_METHODS, ids=[method.name for method in A_METHODS])
def test_no_reply_a_helper_serves_during_a_gcv_fit_is_a_fit_report(monkeypatch, served, method):
    fit = fit_method(a_data(), method)
    assert served and not any(isinstance(result, FitReport) for _, result in served)
    alone = one_process(monkeypatch, lambda: fit_method(a_data(), method))
    assert fit_bits(fit) == fit_bits(alone)


@pytest.mark.parametrize("method", ["gcv", "kfold", "eb"])
def test_a_final_solve_runs_at_its_searchs_thread_count(monkeypatch, method):
    if _lapack._get_threads is None:
        pytest.skip("scipy's BLAS exports no scipy-OpenBLAS thread setter")
    real, counts = benchmarks.solve_constrained, []

    def solve(problem):
        counts.append(_lapack._get_threads())
        return real(problem)

    monkeypatch.setattr(benchmarks, "solve_constrained", solve)
    default = _lapack._get_threads()
    config = SelectionConfig(method=method, optimizer=OptimizerConfig(restarts=2, max_evals=24))
    fit_method(smooth_data(), MethodSpec(method, Gaussian(), config))
    assert counts == [default if method == "eb" else 1] and _lapack._get_threads() == default


def test_the_core_count_sets_no_bit_of_a_gcv_fit():
    # Aa and Ab on A at the default N = 198, where a thread count sets the
    # bits of ``dpotrf`` and ``dsyevd``, each in a fresh process whose
    # OpenBLAS pools start at the given count
    if _lapack._get_threads is None:
        pytest.skip("scipy's BLAS exports no scipy-OpenBLAS thread setter")
    code = """
from stable_sysid import _lapack
from stable_sysid.benchmarks import SyntheticSystemSpec, fit_method, generate_dataset, standard_methods
from stable_sysid.solver import build_regression_data
print(_lapack._get_threads())
train, _ = generate_dataset(SyntheticSystemSpec("A", seed=0, n_valid=40))
data = build_regression_data(train.u, train.y, 2)
for method in standard_methods("A"):
    _, report, _ = fit_method(data, method)
    print(data.size, method.name, report.coefficients.tobytes().hex(), report.beta.hex())
"""
    src = str(Path(stable_sysid.__file__).resolve().parents[1])
    fits = {}
    for count in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": count,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        threads, *fits[count] = done.stdout.splitlines()
        assert threads == count
    assert [line.split()[:2] for line in fits["1"]] == [["198", "Aa"], ["198", "Ab"]]
    assert fits["1"] == fits["2"]


@pytest.mark.parametrize("method", [A_METHODS[1], EB], ids=["Ab", "eb"])
def test_numpys_thread_count_sets_no_bit(monkeypatch, method):
    # at N = 198, where a thread count sets the bits of a spectrum; the fits
    # run here, where numpy's count is set
    library = ctypes.CDLL(_umath_linalg.__file__)
    # numpy's 64-bit-integer OpenBLAS exports the names with the suffix "64_"
    set_threads = getattr(library, "scipy_openblas_set_num_threads64_", None)
    get_threads = getattr(library, "scipy_openblas_get_num_threads64_", None)
    if set_threads is None or get_threads is None:
        pytest.skip("numpy's BLAS exports no scipy-OpenBLAS thread setter")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    default = one_process(monkeypatch, lambda: fit_method(a_data(), method))
    before = get_threads()
    set_threads(1)
    try:
        one = one_process(monkeypatch, lambda: fit_method(a_data(), method))
    finally:
        set_threads(before)
    assert fit_bits(one) == fit_bits(default)


def test_eb_and_gcv_groups_on_two_threads_give_the_serial_rows():
    # an EB search runs at the caller's scipy count while another thread's
    # GCV search would pin it to one; at N = 198 either count sets bits
    # Hb's final solve takes a spectrum outside its search
    budget = OptimizerConfig(restarts=3, max_evals=36)
    methods = tuple(replace(method, selection=replace(method.selection, optimizer=budget))
                    for method in (standard_methods("H")[1], standard_methods("B")[0]))

    def rows(n_jobs):
        config = MonteCarloConfig(
            runs=2, systems=(SyntheticSystemSpec("H", seed=3, n_train=200, n_valid=40),
                             SyntheticSystemSpec("B", seed=3, n_train=200, n_valid=40)),
            methods=methods, n_jobs=n_jobs)
        result = run_monte_carlo(config)
        assert not result.failures
        return [(r.run, r.system, r.method, r.q_pre.hex(), r.q_sim.hex(), r.feasible) for r in result.rows]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = rows(2)
    finally:
        sys.setswitchinterval(interval)
    assert len(pooled) == 8 and pooled == rows(1)


def test_an_eb_fit_sends_nothing_to_a_helper(monkeypatch, served):
    # with helpers up, neither its search nor its final solve reaches them
    monkeypatch.setattr(_worker, "_lost", False)
    alone = one_process(monkeypatch, lambda: fit_method(smooth_data(), EB))
    procs = two_helpers()
    served.clear()
    assert fit_bits(fit_method(smooth_data(), EB)) == fit_bits(alone)
    assert served == [] and [_worker._helpers[0], _worker._helpers[1]] == procs
    assert all(proc.poll() is None for proc in procs)


def two_helpers():
    """Helpers 0 and 1, each having answered one request."""
    assert _worker.spread(abs, [(-1,), (-2,), (-3,)]) == [1, 2, 3]
    return [_worker._helpers[0], _worker._helpers[1]]


@pytest.mark.usefixtures("two_cpus")
def test_a_second_helper_killed_before_the_search_is_replaced_by_the_process(monkeypatch):
    monkeypatch.setattr(_worker, "_lost", False)
    one = one_process(monkeypatch, lambda: select_hyperparameters(GCV, linear_data(), LinearAffine()))
    procs = two_helpers()
    procs[1].kill()
    procs[1].wait()
    assert bits(select_hyperparameters(GCV, linear_data(), LinearAffine())) == bits(one)
    assert _worker._lost and not _worker._helpers
    assert all(proc.poll() is not None for proc in procs)
    # no other helper is started
    select_hyperparameters(GCV, linear_data(), LinearAffine())
    assert not _worker._helpers


@pytest.mark.usefixtures("two_cpus")
def test_a_failed_second_send_runs_the_search_here_once(monkeypatch):
    # the request already sent to helper 0 is dropped with it, and part 0
    # does not run here before the whole search does
    monkeypatch.setattr(_worker, "_lost", False)
    real, ran = selection._nelder_mead, []

    def nelder_mead(objective, x0, **options):
        ran.append(x0.tobytes())
        return real(objective, x0, **options)

    monkeypatch.setattr(selection, "_nelder_mead", nelder_mead)
    one = one_process(monkeypatch, lambda: select_hyperparameters(GCV, linear_data(), LinearAffine()))
    alone, ran[:] = list(ran), []
    procs = two_helpers()
    procs[1].kill()
    procs[1].wait()
    assert bits(select_hyperparameters(GCV, linear_data(), LinearAffine())) == bits(one)
    assert ran == alone  # the start's inversion, then the restarts


@pytest.mark.usefixtures("two_cpus")
def test_a_second_helper_killed_inside_the_search_is_replaced_by_the_process(monkeypatch):
    monkeypatch.setattr(_worker, "_lost", False)
    one = one_process(monkeypatch, lambda: select_hyperparameters(GCV, linear_data(), LinearAffine()))
    procs = two_helpers()
    real = _worker._write

    def write_then_kill(stream, payload):
        if stream is procs[1].stdin:
            # stopped, the helper cannot reply before the kill lands
            procs[1].send_signal(signal.SIGSTOP)
        real(stream, payload)
        if stream is procs[1].stdin:
            procs[1].kill()

    monkeypatch.setattr(_worker, "_write", write_then_kill)
    assert bits(select_hyperparameters(GCV, linear_data(), LinearAffine())) == bits(one)
    assert _worker._lost and not _worker._helpers
    assert all(proc.poll() is not None for proc in procs)


def test_a_restart_that_raises_here_raises_as_in_one_process(monkeypatch):
    # the patch reaches this process only: the helpers' restarts succeed,
    # the search runs again in one process and raises the first error
    def gcv(*args):
        raise RuntimeError("stopped inside the search")

    monkeypatch.setattr(selection, "_gcv", gcv)
    with pytest.raises(RuntimeError, match="stopped inside the search"):
        select_hyperparameters(GCV, smooth_data(), Gaussian())
    assert _worker.spread(abs, [(-5,), (-6,)]) == [5, 6]


def framed(function, args):
    """A request as the caller sends it."""
    return pickle.dumps((function, args))


def test_the_serving_loop_answers_until_its_requests_end():
    requests, replies = io.BytesIO(), io.BytesIO()
    for payload in (framed(abs, (-5,)), framed(int, ("x",)), pickle.dumps((abs, (-5,), 1)), b"not a pickle"):
        _worker._write(requests, payload)
    requests.seek(0)
    _worker._serve(requests, replies)
    replies.seek(0)
    answers = []
    while replies.tell() < len(replies.getvalue()):
        answers.append(pickle.loads(_worker._read(replies)))
    # a request of three fields is not run
    assert answers == [(True, 5), (False, None), (False, None), (False, None)]


def test_every_part_of_a_spread_runs_on_one_thread_under_the_lock():
    # whatever the caller holds; the caller's count is back afterwards
    if _lapack._get_threads is None:
        pytest.skip("scipy's BLAS exports no scipy-OpenBLAS thread setter")
    two_helpers()
    # the ctypes getter does not pickle; eval does, by reference
    state = ("(__import__('stable_sysid')._lapack._get_threads(), "
             "__import__('stable_sysid')._lapack._LOCK._is_owned())",)
    default = _lapack._get_threads()
    assert _worker.spread(eval, [state] * 3) == [(1, True)] * 3
    assert _lapack._get_threads() == default
    with _lapack._scipy_threads():
        assert _worker.spread(eval, [state] * 3) == [(1, True)] * 3
    assert _lapack._get_threads() == default


def test_a_call_that_raises_in_the_worker_keeps_the_worker():
    # here or in a helper: no results, and every reply is read
    procs = two_helpers()
    assert _worker.spread(int, [("1",), ("x",), ("2",)]) is None
    assert _worker.spread(int, [("x",), ("1",), ("2",)]) is None
    assert _worker.spread(abs, [(-3,), (-4,), (-5,)]) == [3, 4, 5]
    assert [_worker._helpers[0], _worker._helpers[1]] == procs


def test_arguments_that_do_not_pickle_are_not_sent():
    # not even the calls before them
    two_helpers()
    assert _worker.spread(abs, [(-2,), (-2,), (lambda: None,)]) is None
    assert _worker.spread(abs, [(-2,), (-3,), (-4,)]) == [2, 3, 4]


def test_a_spread_that_does_not_pickle_starts_no_helper(monkeypatch):
    # pickling a ctypes pointer raises ValueError, not PicklingError
    monkeypatch.setattr(_worker, "_lost", False)
    _worker._close()
    pointer = ctypes.pointer(ctypes.c_int(1))
    assert _worker.spread(id, [(pointer,), (pointer,)]) is None
    assert not _worker._helpers


def test_an_interrupt_while_waiting_stops_every_helper(monkeypatch):
    # no reply may be left in a pipe for the next request to read
    monkeypatch.setattr(_worker, "_lost", False)
    procs = two_helpers()

    def interrupted(stream):
        raise KeyboardInterrupt

    monkeypatch.setattr(_worker, "_read", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _worker.spread(abs, [(-1,), (-1,), (-1,)])
    assert all(proc.poll() is not None for proc in procs)
    assert not _worker._helpers and not _worker._lost


class Interrupting:
    def __abs__(self):
        raise KeyboardInterrupt


def test_an_interrupt_here_stops_every_helper(monkeypatch):
    # the helpers are not waited for
    monkeypatch.setattr(_worker, "_lost", False)
    procs = two_helpers()
    with pytest.raises(KeyboardInterrupt):
        _worker.spread(abs, [(Interrupting(),), (-1,), (-1,)])
    assert all(proc.poll() is not None for proc in procs)
    assert not _worker._helpers and not _worker._lost


def test_close_reaps_every_helper():
    procs = two_helpers()
    _worker._close()
    assert all(proc.poll() is not None for proc in procs) and not _worker._helpers


def test_a_truncated_stream_ends_the_requests():
    stream = io.BytesIO()
    _worker._write(stream, b"a whole payload")
    for cut in (3, len(stream.getvalue()) - 1):
        with pytest.raises(EOFError):
            _worker._read(io.BytesIO(stream.getvalue()[:cut]))


class SlowToExit:
    """A helper that outlives the first wait for its exit."""

    def __init__(self):
        self.stdin, self.stdout = io.BytesIO(), io.BytesIO()
        self.calls = []

    def kill(self):
        self.calls.append("kill")

    def wait(self, timeout=None):
        self.calls.append(("wait", timeout))
        if len(self.calls) == 1:
            raise subprocess.TimeoutExpired("helper", timeout)


def test_helpers_of_another_process_are_left_alone(monkeypatch):
    # as in a forked child: no request is sent, and closing stops nothing
    proc = SlowToExit()
    monkeypatch.setattr(_worker, "_helpers", {0: proc})
    monkeypatch.setattr(_worker, "_owner", -1)
    assert _worker.spread(abs, [(-1,), (-1,)]) is None
    assert _worker.spread(abs, [(-1,), (-1,), (-1,)]) is None
    assert proc.stdin.getvalue() == b""
    _worker._close(kill=True)
    assert proc.calls == [] and not proc.stdin.closed and not _worker._helpers


def test_a_helper_that_does_not_exit_is_killed(monkeypatch):
    proc = SlowToExit()
    monkeypatch.setattr(_worker, "_helpers", {0: proc})
    monkeypatch.setattr(_worker, "_owner", os.getpid())
    _worker._close()
    assert proc.calls == [("wait", _worker._EXIT_WAIT_S), "kill", ("wait", None)]
    assert proc.stdin.closed and proc.stdout.closed and not _worker._helpers


class ClosedReplies:
    def write(self, data):
        raise BrokenPipeError

    def flush(self):
        pass


def test_the_serving_loop_ends_where_a_reply_cannot_be_written():
    requests = io.BytesIO()
    for value in (-1, -2):
        _worker._write(requests, framed(abs, (value,)))
    requests.seek(0)
    _worker._serve(requests, ClosedReplies())
    # the second request was never read
    assert requests.tell() == _worker._LENGTH.size + len(framed(abs, (-1,)))


def test_a_forked_child_leaves_the_parents_worker_alone():
    assert _worker.spread(abs, [(-1,), (-1,)]) == [1, 1]
    pid = os.fork()
    if pid == 0:
        code = 2
        try:
            code = 0 if _worker.spread(abs, [(-1,), (-1,)]) is None else 1
            _worker._close()  # the owner's worker is not the child's to stop
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0
    assert _worker.spread(abs, [(-4,), (-5,)]) == [4, 5]


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
print(_worker._helpers[0].pid, flush=True)
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
