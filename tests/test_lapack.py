"""The package's LAPACK/BLAS routines are scipy's own compiled ones, whether
they were bound by path or, where scipy's extension files are elsewhere,
through ``scipy.linalg``."""

import os
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import scipy.linalg.blas
import scipy.linalg.lapack

import stable_sysid
from stable_sysid import _lapack

BLAS = ("dnrm2", "dsymv", "dsyr2")
LAPACK = ("dpotrf", "dpotrs", "dptsv", "dpttrs", "dsytrd", "dsytrd_lwork", "dtrtri")


def test_the_ten_routines_are_bound():
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

