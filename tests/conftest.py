"""Test-suite settings: hypothesis runs derandomized with a bounded budget,
so every property test is deterministic and its wall time is fixed.  Shared
fixtures live here too."""

import pytest
from hypothesis import settings

from stable_sysid import _worker, selection, solver

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=20)
settings.load_profile("tier1")


@pytest.fixture
def in_process(monkeypatch):
    """Every search of the test runs all its restarts in this process, and
    every fit its final solve, where the test's patches reach them: none
    reaches a helper process."""
    monkeypatch.setattr(_worker, "_ENABLED", False)


@pytest.fixture
def eigh_calls(monkeypatch, in_process):
    """The size of every spectral factorization made during the test,
    counted through both names of ``solver._eig_psd`` (the solver's and the
    search's)."""
    calls = []
    real = solver._eig_psd

    def counting(K, y):
        calls.append(K.shape[0])
        return real(K, y)

    monkeypatch.setattr(solver, "_eig_psd", counting)
    monkeypatch.setattr(selection, "_eig_psd", counting)
    return calls


@pytest.fixture
def cholesky_calls(monkeypatch, in_process):
    """The size of every Cholesky factor attempted during the test (the
    ridge solve's and the plain GCV's)."""
    calls = []
    real = solver.dpotrf

    def counting(A, **kwargs):
        calls.append(A.shape[0])
        return real(A, **kwargs)

    monkeypatch.setattr(solver, "dpotrf", counting)
    return calls


@pytest.fixture
def inverse_calls(monkeypatch, in_process):
    """The size of every triangular inverse made during the test (the plain
    GCV's trace)."""
    calls = []
    real = selection.dtrtri

    def counting(L, **kwargs):
        calls.append(L.shape[0])
        return real(L, **kwargs)

    monkeypatch.setattr(selection, "dtrtri", counting)
    return calls


@pytest.fixture
def reduction_calls(monkeypatch, in_process):
    """The size of every tridiagonal reduction made during the test (the
    cap-aware GCV's ``alpha_bar`` and score)."""
    calls = []
    real = solver.dsytrd

    def counting(A, **kwargs):
        calls.append(A.shape[0])
        return real(A, **kwargs)

    monkeypatch.setattr(solver, "dsytrd", counting)
    return calls


@pytest.fixture
def without_memo(monkeypatch):
    """A function that leaves every later EB search of the test without its
    memo of spectra: each data's memo misses every lookup, so the search
    factors on every evaluation."""

    class Forgetful(dict):
        def setdefault(self, key, default=None):
            return Forgetful()

        def __setitem__(self, key, value):
            pass

    return lambda: monkeypatch.setattr(selection, "_SPECTRA", Forgetful())
