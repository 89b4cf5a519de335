"""Test-suite settings: hypothesis runs derandomized with a bounded budget,
so every property test is deterministic and its wall time is fixed.  Shared
fixtures live here too."""

import pytest
from hypothesis import settings

from stable_sysid import selection, solver

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=20)
settings.load_profile("tier1")


@pytest.fixture
def eigh_calls(monkeypatch):
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
def cholesky_calls(monkeypatch):
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
def inverse_calls(monkeypatch):
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
def reduction_calls(monkeypatch):
    """The size of every tridiagonal reduction made during the test (the
    cap-aware GCV's ``alpha_bar`` and score)."""
    calls = []
    real = solver.dsytrd

    def counting(A, **kwargs):
        calls.append(A.shape[0])
        return real(A, **kwargs)

    monkeypatch.setattr(solver, "dsytrd", counting)
    return calls
