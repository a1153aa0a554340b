"""The glibc allocator and OpenBLAS settings applied when ``ihvit`` is imported."""

import ctypes
import os
import subprocess
import sys
import textwrap
import types

import pytest

import ihvit


class _CFunction:
    """Records its calls, and takes ``argtypes`` and ``restype`` like a C function."""

    def __init__(self):
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)
        return 1


class _FakeLibc:
    def __init__(self, glibc: bool):
        self.mallopt = _CFunction()
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.36"


@pytest.mark.parametrize("var", ihvit._MALLOC_ENV)
def test_malloc_variable_skips_mallopt(var, monkeypatch):
    def no_libc(*a, **kw):
        raise AssertionError("the C library was loaded")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert ihvit._tune_malloc({var: "1"}) is False


def test_mallopt_gets_every_setting_on_glibc(monkeypatch):
    libc = _FakeLibc(glibc=True)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert ihvit._tune_malloc({}) is True
    assert libc.mallopt.calls == list(ihvit._MALLOC_SETTINGS)


def test_other_c_libraries_are_left_alone(monkeypatch):
    libc = _FakeLibc(glibc=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert ihvit._tune_malloc({}) is False
    assert libc.mallopt.calls == []


_REFAULT = textwrap.dedent("""
    import resource
    import ihvit, numpy as np
    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a = np.ones(48 << 17); del a  # 48 MiB: above glibc's largest dynamic mmap threshold
    before = faults()
    a = np.ones(48 << 17); del a
    print(faults() - before)
""")


def _glibc() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "gnu_get_libc_version")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the settings apply to glibc only")
def test_freed_large_array_is_reused_without_faults():
    env = {k: v for k, v in os.environ.items() if k not in ihvit._MALLOC_ENV}
    out = subprocess.run([sys.executable, "-c", _REFAULT], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    # 48 MiB is 12,288 base pages or 24 huge pages; reused memory faults in none
    assert int(out.stdout) < 16


class _FakeBlas:
    def __init__(self, setter: str | None):
        self.set = _CFunction()
        if setter is not None:
            setattr(self, setter, self.set)


# a numpy whose core extension is loaded
_NUMPY = {"numpy._core._multiarray_umath": types.SimpleNamespace(__file__="/np/_umath.so")}


@pytest.mark.parametrize("setter", ihvit._OPENBLAS_SETTERS)
def test_loaded_openblas_is_set_to_one_thread(setter, monkeypatch):
    blas = _FakeBlas(setter)
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda path: opened.append(path) or blas)
    assert ihvit._pin_openblas({}, _NUMPY) is True
    assert opened == ["/np/_umath.so"] and blas.set.calls == [(1,)]


def test_users_openblas_threads_win(monkeypatch):
    def no_blas(*a, **kw):
        raise AssertionError("a library was loaded")

    monkeypatch.setattr(ctypes, "CDLL", no_blas)
    assert ihvit._pin_openblas({"OPENBLAS_NUM_THREADS": "2"}, _NUMPY) is False
    assert ihvit._pin_openblas({}, {}) is False  # numpy not imported yet


def test_blas_without_a_setter_is_left_alone(monkeypatch):
    blas = _FakeBlas(None)
    monkeypatch.setattr(ctypes, "CDLL", lambda path: blas)
    assert ihvit._pin_openblas({}, _NUMPY) is False
    assert blas.set.calls == []


# four desk ih-vit Adam steps at B=8; argv[1] names the module imported first
_STEPS = textwrap.dedent("""
    import sys
    if sys.argv[1] == "numpy":
        import numpy
    else:
        import ihvit
    import hashlib
    import numpy as np
    from ihvit.resnet import ResNetConfig
    from ihvit.train import Adam, TrainConfig, _batch_tensor, _forward_backward, build_arm
    from ihvit.vit import ViTConfig
    arm = build_arm("ih-vit", ViTConfig(classes=6), ResNetConfig.desk(classes=6), seed=7)
    adam = Adam(arm.parameters(), TrainConfig())
    rng = np.random.default_rng(11)
    for _ in range(4):
        x = _batch_tensor(rng.integers(0, 256, (8, 224, 224, 3), dtype=np.uint8))
        _forward_backward(arm, x, rng.integers(0, 6, 8), arm.branch_weights())
        adam.step(1e-3)
    h = hashlib.sha256()
    for k, t in arm.parameters().items():
        h.update(k.encode())
        h.update(t.data.tobytes())
    print(h.hexdigest())
""")


def test_numpy_first_trains_bit_for_bit_as_ihvit_first():
    # OpenBLAS at its default thread count sums some products in another order
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    sha = [subprocess.run([sys.executable, "-c", _STEPS, first], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout
           for first in ("ihvit", "numpy")]
    assert sha[0] == sha[1]
