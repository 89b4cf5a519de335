"""The package's LAPACK/BLAS routines are scipy's own compiled ones, whether
they were bound by path or, where scipy's extension files are elsewhere,
through ``scipy.linalg``; a GCV or k-fold search runs them on one thread,
an EB search at the caller's count, and each gives the caller's thread
count back."""

import os
import subprocess
import sys
import threading
from dataclasses import replace
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.blas
import scipy.linalg.lapack
from numpy.linalg import _umath_linalg

import stable_sysid
from stable_sysid import (
    Gaussian, LinearAffine, OptimizerConfig, RegressionData, SelectionConfig, StabilityTarget, _lapack, _worker,
    benchmarks, selection, solver,
)
from stable_sysid.benchmarks import MonteCarloConfig, SyntheticSystemSpec, run_monte_carlo, standard_methods
from stable_sysid.selection import select_hyperparameters

BLAS = ("dnrm2", "dsymv", "dsyr2")
LAPACK = ("dpotrf", "dpotrs", "dptsv", "dpttrs", "dsyevd", "dsytrd", "dsytrd_lwork", "dtrtri")


def test_the_eleven_routines_are_bound():
    assert sorted(_lapack.__all__) == sorted(BLAS + LAPACK)


def test_fresh_import_binds_scipys_routines():
    # scipy.linalg is imported only after the package bound the routines
    code = f"""
import sys
import stable_sysid
from stable_sysid import _lapack
print("scipy.linalg" in sys.modules)
import scipy.linalg.blas as blas, scipy.linalg.lapack as lapack
pairs = [(name, blas) for name in {BLAS!r}] + [(name, lapack) for name in {LAPACK!r}]
print([name for name, module in pairs if getattr(_lapack, name) is not getattr(module, name)])
"""
    src = str(Path(stable_sysid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines() == ["False", "[]"]


def assert_scipys_routines(flapack, fblas):
    for name in LAPACK:
        assert getattr(flapack, name) is getattr(scipy.linalg.lapack, name) is getattr(_lapack, name), name
    for name in BLAS:
        assert getattr(fblas, name) is getattr(scipy.linalg.blas, name) is getattr(_lapack, name), name


def test_directory_without_the_extensions_falls_back(tmp_path):
    assert_scipys_routines(*_lapack._load(tmp_path))


def test_directory_with_one_extension_falls_back(tmp_path):
    real = _lapack._scipy_linalg_directory()
    flapack = next(real / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES
                   if (real / f"_flapack{suffix}").is_file())
    (tmp_path / flapack.name).symlink_to(flapack)
    assert_scipys_routines(*_lapack._load(tmp_path))


def test_no_scipy_directory_falls_back():
    assert_scipys_routines(*_lapack._load(None))


def test_reload_from_the_real_directory_keeps_the_modules():
    before = sys.modules["scipy.linalg._flapack"], sys.modules["scipy.linalg._fblas"]
    assert _lapack._load(_lapack._scipy_linalg_directory()) == before
    assert_scipys_routines(*before)


def gcv_search():
    """A plain-GCV search on small fixed data."""
    rng = np.random.default_rng(3)
    data = RegressionData(rng.standard_normal((40, 5)), rng.standard_normal(40), 2)
    config = SelectionConfig(method="gcv", optimizer=OptimizerConfig(restarts=2, max_evals=40))
    return select_hyperparameters(config, data, Gaussian())


@pytest.fixture
def scipy_threads():
    """scipy's OpenBLAS set to three threads, a count no search pins, and
    set back to its count before the test afterwards."""
    if _lapack._set_threads is None:
        pytest.skip("scipy's BLAS exports no scipy-OpenBLAS thread setter")
    # a test may patch the module's setter away before this teardown runs
    setter, before = _lapack._set_threads, _lapack._get_threads()
    setter(3)
    yield 3
    setter(before)


def counting_scores(monkeypatch, fail=False):
    """Patch the plain GCV score to record scipy's thread count, raising
    ``RuntimeError`` instead of scoring where ``fail``; the search runs in
    this process, where the patch reaches every restart."""
    counts, real = [], selection._gcv
    monkeypatch.setattr(_worker, "_ENABLED", False)

    def gcv(*args):
        counts.append(_lapack._get_threads())
        if fail:
            raise RuntimeError("stopped inside the search")
        return real(*args)

    monkeypatch.setattr(selection, "_gcv", gcv)
    return counts


def test_a_search_runs_scipy_on_one_thread_and_restores_the_count(monkeypatch, scipy_threads):
    counts = counting_scores(monkeypatch)
    gcv_search()
    assert counts and set(counts) == {1}
    assert _lapack._get_threads() == scipy_threads


def test_a_search_that_raises_restores_the_count(monkeypatch, scipy_threads):
    counts = counting_scores(monkeypatch, fail=True)
    with pytest.raises(RuntimeError, match="stopped inside the search"):
        gcv_search()
    assert counts == [1]
    assert _lapack._get_threads() == scipy_threads
    # the lock was released: another thread takes it at once
    taken = []

    def take():
        taken.append(_lapack._LOCK.acquire(timeout=5))
        if taken[0]:
            _lapack._LOCK.release()

    thread = threading.Thread(target=take)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and taken == [True]


def test_without_the_setter_a_search_runs_unpinned(monkeypatch, scipy_threads):
    pinned = gcv_search()
    counts = counting_scores(monkeypatch)
    monkeypatch.setattr(_lapack, "_set_threads", None)
    assert gcv_search() == pinned
    assert counts and set(counts) == {scipy_threads}


def search_data(linear):
    """Fixed data; targets exactly linear in the regressors drive a plain
    GCV search on a LinearAffine kernel to the spectrum."""
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(40, 5))
    return RegressionData(Z, Z @ np.array([0.3, -0.2, 0.1, 0.5, 0.05]) if linear else np.tanh(Z[:, 0]), 2)


SPECTRAL_SEARCHES = {
    "eb": (SelectionConfig(method="eb"), Gaussian(), False),
    "gcv": (SelectionConfig(method="gcv"), LinearAffine(), True),
    # the constrained folds' spectra
    "kfold": (SelectionConfig(method="kfold", target=StabilityTarget.diss()), Gaussian(), False),
}


@pytest.mark.parametrize("method,pinned", [("eb", False), ("gcv", True), ("kfold", True)])
def test_a_search_takes_its_spectra_at_its_thread_rule(monkeypatch, scipy_threads, method, pinned):
    config, structure, linear = SPECTRAL_SEARCHES[method]
    config = replace(config, seed=4, optimizer=OptimizerConfig(restarts=3, max_evals=90))
    counts, real = [], solver.dsyevd
    monkeypatch.setattr(_worker, "_ENABLED", False)

    def dsyevd(*args, **kwargs):
        counts.append(_lapack._get_threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "dsyevd", dsyevd)
    select_hyperparameters(config, search_data(linear), structure)
    assert counts and set(counts) == {1 if pinned else scipy_threads}
    assert _lapack._get_threads() == scipy_threads


def test_no_eb_spectrum_runs_at_another_threads_pinned_count(monkeypatch, scipy_threads):
    # two harness groups, each a GCV cell then an EB cell: the first group
    # to reach its EB search enters it only once the other group's GCV
    # search has pinned scipy to one thread, and that search holds still
    # until an EB spectrum is taken or a second has passed; the search lock
    # keeps every EB spectrum out of the pinned stretch
    budget = OptimizerConfig(restarts=2, max_evals=24)
    methods = tuple(replace(method, selection=replace(method.selection, optimizer=budget))
                    for method in (standard_methods("B")[0], standard_methods("H")[1]))
    config = MonteCarloConfig(
        runs=1, systems=(SyntheticSystemSpec("H", seed=3, n_train=40, n_valid=30),
                         SyntheticSystemSpec("B", seed=3, n_train=40, n_valid=30)),
        methods=methods, n_jobs=2)
    pinned, seen, scored, counts, local = threading.Event(), threading.Event(), [], [], threading.local()
    real_gcv, real_select, real_dsyevd = selection._gcv, benchmarks.select_hyperparameters, solver.dsyevd
    monkeypatch.setattr(_worker, "_ENABLED", False)

    def gcv(*args):
        if threading.get_ident() not in scored:
            scored.append(threading.get_ident())
            if len(scored) == 2:
                pinned.set()
                seen.wait(timeout=1.0)
        return real_gcv(*args)

    def select(config, data, structure):
        if config.method != "eb":
            return real_select(config, data, structure)
        pinned.wait(timeout=10.0)
        local.eb = True
        try:
            return real_select(config, data, structure)
        finally:
            local.eb = False

    def dsyevd(*args, **kwargs):
        if getattr(local, "eb", False):
            counts.append(_lapack._get_threads())
            seen.set()
        return real_dsyevd(*args, **kwargs)

    monkeypatch.setattr(selection, "_gcv", gcv)
    monkeypatch.setattr(benchmarks, "select_hyperparameters", select)
    monkeypatch.setattr(solver, "dsyevd", dsyevd)
    result = run_monte_carlo(config)
    assert len(result.rows) == 4 and not result.failures
    assert pinned.is_set() and counts and set(counts) == {scipy_threads}


def test_another_blas_has_no_setter():
    # numpy's OpenBLAS exports only the 64-bit-suffixed names
    assert _lapack._thread_setters(_umath_linalg) == (None, None)
