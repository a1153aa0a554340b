"""The glibc allocator settings applied when ``ihvit`` is imported."""

import ctypes
import os
import subprocess
import sys
import textwrap

import pytest

import ihvit


class _Mallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


class _FakeLibc:
    def __init__(self, glibc: bool):
        self.mallopt = _Mallopt()
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
