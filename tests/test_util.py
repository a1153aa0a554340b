"""run_all: the thread budget, work sharing, result order and error propagation;
write_atomic: a failed write leaves the old file."""

import threading
import time

import pytest

from ihvit.util import run_all, write_atomic


def _thread():
    return threading.get_ident()


def test_serial_under_one_thread(monkeypatch):
    monkeypatch.setenv("IHVIT_THREADS", "1")
    assert run_all([_thread, _thread, _thread]) == [threading.get_ident()] * 3


def test_last_call_stays_on_the_calling_thread(monkeypatch):
    monkeypatch.setenv("IHVIT_THREADS", "2")
    first, last = run_all([_thread, _thread])
    assert last == threading.get_ident() and first != last


def test_results_keep_call_order(monkeypatch):
    monkeypatch.setenv("IHVIT_THREADS", "3")
    calls = [lambda i=i: (time.sleep(0.01 * (4 - i)), i)[1] for i in range(5)]
    assert run_all(calls) == [0, 1, 2, 3, 4]


def test_worker_error_is_raised_after_every_call_finishes(monkeypatch):
    monkeypatch.setenv("IHVIT_THREADS", "2")
    done = []

    def fail():
        raise ValueError("branch failed")

    def slow():
        time.sleep(0.05)
        done.append(True)

    with pytest.raises(ValueError, match="branch failed"):
        run_all([fail, slow])
    assert done == [True]


def test_caller_takes_calls_left_after_the_last(monkeypatch):
    monkeypatch.setenv("IHVIT_THREADS", "2")

    def call(i):
        if i == 0:
            time.sleep(0.2)
        return i, threading.get_ident()

    results = run_all([lambda i=i: call(i) for i in range(5)])
    assert [i for i, _ in results] == [0, 1, 2, 3, 4]
    on_caller = [i for i, thread in results if thread == threading.get_ident()]
    assert 4 in on_caller and len(on_caller) >= 2


def test_middle_error_is_raised_after_every_call_runs(monkeypatch):
    monkeypatch.setenv("IHVIT_THREADS", "2")
    done = []

    def call(i):
        time.sleep(0.01)
        if i == 2:
            raise ValueError("call 2 failed")
        done.append(i)

    with pytest.raises(ValueError, match="call 2 failed"):
        run_all([lambda i=i: call(i) for i in range(5)])
    assert sorted(done) == [0, 1, 3, 4]


def test_write_atomic_replaces_the_file(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"old")
    write_atomic(path, [b"ne", b"w"])
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]


def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"old")

    def chunks():
        yield b"half of the new"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_atomic(path, chunks())
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]
