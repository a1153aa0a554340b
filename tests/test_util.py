"""worker_count: the default thread budget; run_all: work sharing, follow-up
calls, result order and error propagation; write_atomic: a failed write leaves
the old file; check_fields: each config field's declared domain."""

import re
import sys
import threading
import time
from dataclasses import fields
from functools import partial

import pytest

from ihvit import util
from ihvit.config import RunConfig
from ihvit.errors import ConfigError
from ihvit.resnet import ResNetConfig
from ihvit.synth import SynthConfig
from ihvit.train import FusionWeights, TrainConfig
from ihvit.util import run_all, worker_count, write_atomic
from ihvit.vit import ChannelSpec, ViTConfig


def _thread():
    return threading.get_ident()


def test_serial_under_one_thread(monkeypatch):
    monkeypatch.setenv("IHVIT_THREADS", "1")
    assert run_all([_thread, _thread, _thread]) == [threading.get_ident()] * 3


@pytest.mark.parametrize("threads", ["1", "2"])
def test_no_calls_give_no_results(monkeypatch, threads):
    monkeypatch.setenv("IHVIT_THREADS", threads)
    assert run_all([]) == []
    assert run_all([], []) == []


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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_middle_error_is_raised_after_every_call_runs(monkeypatch, threads):
    monkeypatch.setenv("IHVIT_THREADS", threads)
    done = []

    def call(i):
        time.sleep(0.01)
        if i == 2:
            raise ValueError("call 2 failed")
        done.append(i)

    with pytest.raises(ValueError, match="call 2 failed"):
        run_all([lambda i=i: call(i) for i in range(5)])
    assert sorted(done) == [0, 1, 3, 4]


def test_follow_ups_run_in_a_fixed_order_under_one_thread(monkeypatch):
    monkeypatch.setenv("IHVIT_THREADS", "1")
    order = []
    calls = [lambda i=i: order.append(f"call {i}") or i for i in range(3)]
    then = [lambda: order.append("then 0"), None, lambda: order.append("then 2")]
    assert run_all(calls, then) == [0, 1, 2]
    assert order == ["call 2", "call 0", "call 1", "then 2", "then 0"]


def test_free_thread_takes_a_follow_up_once_no_call_is_left(monkeypatch):
    # the worker runs call 0 and then call 1; the caller, done with call 2,
    # takes call 0's follow-up while the worker is still busy
    monkeypatch.setenv("IHVIT_THREADS", "2")
    threads = {}

    def step(name, seconds):
        time.sleep(seconds)
        threads[name] = threading.get_ident()

    calls = [partial(step, "call 0", 0.0), partial(step, "call 1", 0.4),
             partial(step, "call 2", 0.2)]
    then = [partial(step, f"then {i}", 0.0) for i in range(3)]
    run_all(calls, then)
    caller = threading.get_ident()
    assert threads["call 0"] == threads["call 1"] != caller
    assert threads["call 2"] == threads["then 0"] == threads["then 2"] == caller
    assert threads["then 1"] == threads["call 1"]


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_follow_ups_wait_for_their_calls(monkeypatch, threads):
    monkeypatch.setenv("IHVIT_THREADS", threads)
    done = set()

    def call(i):
        time.sleep(0.01 * (i % 3))
        done.add(i)

    def follow_up(i):
        if i not in done:
            raise AssertionError(f"follow-up {i} ran before its call")
        done.add(-1 - i)

    run_all([partial(call, i) for i in range(5)], [partial(follow_up, i) for i in range(5)])
    assert done == set(range(-5, 5))


def test_every_call_and_follow_up_runs_once_under_contention(monkeypatch):
    # more threads than cores and a short switch interval, so the threads
    # interleave on the shared queue; a lost or doubled task shows in the counts
    monkeypatch.setenv("IHVIT_THREADS", "4")
    counts = [0] * 400
    lock = threading.Lock()

    def count(i):
        with lock:
            counts[i] += 1
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run_all([partial(count, i) for i in range(200)],
                          [partial(count, 200 + i) for i in range(200)])
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(200)) and counts == [1] * 400


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failed_call_skips_only_its_follow_up(monkeypatch, threads):
    monkeypatch.setenv("IHVIT_THREADS", threads)
    done = []

    def call(i):
        time.sleep(0.01)
        if i in (1, 3):
            raise ValueError(f"call {i} failed")
        done.append(f"call {i}")

    def follow_up(i):
        if i == 2:
            raise ValueError("follow-up 2 failed")
        done.append(f"then {i}")

    # the first error in call order: call 1's, though follow-up 2 may fail first
    with pytest.raises(ValueError, match="call 1 failed"):
        run_all([partial(call, i) for i in range(5)], [partial(follow_up, i) for i in range(5)])
    assert sorted(done) == ["call 0", "call 2", "call 4", "then 0", "then 4"]


def test_follow_up_error_ranks_with_its_call(monkeypatch):
    monkeypatch.setenv("IHVIT_THREADS", "2")

    def fail(what):
        raise ValueError(what)

    calls = [lambda: None, partial(fail, "call 1 failed")]
    with pytest.raises(ValueError, match="follow-up 0 failed"):
        run_all(calls, [partial(fail, "follow-up 0 failed"), None])


def test_default_thread_budget_is_the_usable_cores(monkeypatch):
    # a 64-core host that lets this process run on two of them
    monkeypatch.delenv("IHVIT_THREADS", raising=False)
    monkeypatch.setattr(util.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
    assert worker_count() == 2
    monkeypatch.delattr(util.os, "sched_getaffinity")
    assert worker_count() == 64
    monkeypatch.setenv("IHVIT_THREADS", "5")
    assert worker_count() == 5


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


CONFIG_CLASSES = (SynthConfig, ChannelSpec, ViTConfig, ResNetConfig, TrainConfig, FusionWeights)


def test_config_classes_cover_every_section():
    sections = {type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}
    assert sections | {ChannelSpec} == set(CONFIG_CLASSES)


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_every_numeric_field_declares_a_bound(cls):
    # and every name field the names it takes
    for f in fields(cls):
        if re.search(r"\b(int|float)\b", f.type):  # the annotation, a string
            assert f.metadata and set(f.metadata) <= {"min", "above", "max"}, f.name
        elif re.search(r"\bstr\b", f.type):
            assert set(f.metadata) == {"among"}, f.name
        else:
            assert not f.metadata, f.name


@pytest.mark.parametrize("make, message", [
    (lambda: TrainConfig(min_epochs=-3), "TrainConfig.min_epochs must be >= 1, got -3"),
    (lambda: TrainConfig(lr0=float("nan")), "TrainConfig.lr0 must be finite, got nan"),
    (lambda: TrainConfig(lr0="abc"), "TrainConfig.lr0 must be a number, got 'abc'"),
    (lambda: TrainConfig(lr0=1e-3, lr_min=0.1),
     "TrainConfig.lr_min (0.1) must not exceed TrainConfig.lr0 (0.001)"),
    (lambda: TrainConfig(weight_decay=True), "TrainConfig.weight_decay must be a number"),
    (lambda: TrainConfig(target_accuracy=-0.5), "TrainConfig.target_accuracy must be >= 0"),
    # an accuracy is a fraction, so a percentage would never stop training
    (lambda: TrainConfig(target_accuracy=90),
     "TrainConfig.target_accuracy must be >= 0 and <= 1, got 90"),
    (lambda: TrainConfig(seed=1.0), "TrainConfig.seed must be an integer, got 1.0"),
    (lambda: FusionWeights(0.0, 1.0), "FusionWeights.a_resnet must be > 0, got 0.0"),
    (lambda: ResNetConfig(stage_blocks=(1, 1), stage_widths=(0, 32)),
     "ResNetConfig.stage_widths must hold only numbers >= 1, got (0, 32)"),
    (lambda: SynthConfig(resolution_weights=(1.0, float("inf"), 0.0, 0.0)),
     "SynthConfig.resolution_weights must hold only finite numbers"),
    (lambda: SynthConfig(counts={"normal": 4, "scratch": -1}),
     "SynthConfig.counts must hold only numbers >= 0"),
    (lambda: ViTConfig(channels=({"patch": 1, "embed": "linear"},)),
     "ChannelSpec.patch must be >= 2, got 1"),
    # names, and values of another shape than the field's default
    (lambda: SynthConfig(density="sparse"),
     "SynthConfig.density must be one of ('balanced', 'chip_in_corner'), got 'sparse'"),
    (lambda: ChannelSpec(embed="conv"),
     "ChannelSpec.embed must be one of ('convblock', 'conv_only', 'linear'), got 'conv'"),
    (lambda: SynthConfig(classes=["normal", "scratch#1"]),
     "SynthConfig.classes must hold only names in ('normal', 'scratch', "),
    (lambda: TrainConfig(epochs={"a": 1}), "TrainConfig.epochs must be an integer, got {'a': 1}"),
    (lambda: ResNetConfig(stage_blocks=[[1], [1], [1], [1]]),
     "ResNetConfig.stage_blocks must hold only integers, got ([1], [1], [1], [1])"),
    (lambda: SynthConfig(resolutions=[64, 64]),
     "SynthConfig.resolutions must be a list of lists, got [64, 64]"),
    (lambda: SynthConfig(counts=[["normal", 1]]),
     "SynthConfig.counts must be an object, got [['normal', 1]]"),
    (lambda: SynthConfig(resolutions=[[64]], resolution_weights=[1]),
     "SynthConfig.resolutions must be a list of [w, h] pairs, got ((64,),)"),
])
def test_value_outside_its_domain_names_field_bound_and_value(make, message):
    with pytest.raises(ConfigError) as exc:
        make()
    assert str(exc.value).startswith(message)


def test_values_inside_their_domains_build():
    TrainConfig(lr_min=0.0, weight_decay=0, target_accuracy=1.0)
    TrainConfig(lr0=0.01, lr_min=0.01)  # a constant rate
    FusionWeights(1, 0.5)
